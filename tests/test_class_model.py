import json
import random

import pytest

from ckeval.errors import DuplicateClassError, InheritanceCycleError, SchemaError
from ckeval.model import (
    CallRef,
    ClassInfo,
    ClassModel,
    Diagnostic,
    MethodInfo,
    build_model,
    find_inheritance_cycle,
    load_class_model,
    serialize_model,
    validate_model,
)
from conftest import random_model


def doc(classes, project="demo"):
    return json.dumps({"schemaVersion": 1, "projectName": project,
                       "classes": classes})


def test_empty_document_gives_empty_model():
    model = load_class_model(doc([]))
    assert model.classes == ()
    assert model.project_name == "demo"


def test_wrong_schema_version_rejected():
    with pytest.raises(SchemaError) as err:
        load_class_model(json.dumps({"schemaVersion": 2, "classes": []}))
    assert err.value.path == "schemaVersion"


def test_invalid_json_rejected():
    with pytest.raises(SchemaError):
        load_class_model("{not json")


def test_two_class_cycle_is_rejected_naming_both():
    document = doc([
        {"name": "A", "extends": "B"},
        {"name": "B", "extends": "A"},
    ])
    with pytest.raises(InheritanceCycleError) as err:
        load_class_model(document)
    assert set(err.value.cycle) == {"A", "B"}


def test_cycle_search_runs_up_a_deep_chain_without_recursion():
    # the walk from p.C0000 climbs 700 classes before it enters the cycle
    chain = [ClassInfo(f"p.C{i:04d}", superclass=f"p.C{i + 1:04d}") for i in range(1500)]
    model = ClassModel("x", tuple(chain + [ClassInfo("p.C1500", superclass="p.C0700")]))
    cycle = [f"p.C{i:04d}" for i in range(700, 1501)]
    assert find_inheritance_cycle(model) == cycle
    assert validate_model(model)[-1] == Diagnostic(
        "INHERITANCE_CYCLE", "p.C0700", "extends cycle: " + " -> ".join(cycle))


def test_build_model_raises_duplicate_then_cycle_then_first_diagnostic():
    cycle = [ClassInfo("A", superclass="B"), ClassInfo("B", superclass="A")]
    ghost = ClassInfo("C", methods=(MethodInfo("m", 0, used_fields=frozenset({"ghost"})),))
    with pytest.raises(DuplicateClassError):
        build_model("x", cycle + [ghost, ClassInfo("C")])
    with pytest.raises(InheritanceCycleError) as err:
        build_model("x", cycle + [ghost])
    assert err.value.cycle == ["A", "B"]
    with pytest.raises(SchemaError) as err:
        build_model("x", [ghost])
    assert err.value.path == "C.m/0"


def test_single_class_with_four_methods():
    # mirrors the shape of the published per-class table's first rows
    methods = [{"name": f"m{i}", "arity": 0} for i in range(4)]
    model = load_class_model(doc([
        {"name": "moreUnit.actions.CreateTestMethodE", "methods": methods},
    ]))
    assert len(model.classes) == 1
    assert len(model.classes[0].methods) == 4


def test_duplicate_class_name_rejected():
    with pytest.raises(DuplicateClassError):
        load_class_model(doc([{"name": "A"}, {"name": "A"}]))


def test_self_extends_rejected():
    with pytest.raises(SchemaError):
        load_class_model(doc([{"name": "A", "extends": "A"}]))


def test_schema_violation_names_offending_path():
    document = doc([{"name": "A", "methods": [{"name": "m", "arity": -1}]}])
    with pytest.raises(SchemaError) as err:
        load_class_model(document)
    assert err.value.path == "classes[0].methods[0].arity"


def test_unknown_superclass_becomes_external_stub():
    model = load_class_model(doc([{"name": "A", "extends": "javax.Swing"}]))
    stub = model.get("javax.Swing")
    assert stub is not None and stub.is_external
    assert model.get("A").superclass == "javax.Swing"


def test_validate_valid_two_class_model():
    model = load_class_model(doc([
        {"name": "A"},
        {"name": "B", "extends": "A"},
    ]))
    assert validate_model(model) == []


def test_validate_duplicate_class():
    bad = ClassModel(project_name="x",
                     classes=(ClassInfo("A"), ClassInfo("A")))
    diags = validate_model(bad)
    assert [d.code for d in diags] == ["DUPLICATE_CLASS"]


def test_validate_unknown_field_use():
    # built by hand: method claims a field the class never declares
    cls = ClassInfo("A", methods=(
        MethodInfo("m", 0, used_fields=frozenset({"ghost"})),
    ))
    model = ClassModel(project_name="x", classes=(cls,))
    diags = validate_model(model)
    assert [d.code for d in diags] == ["UNKNOWN_FIELD"]
    assert "ghost" in diags[0].message


def test_roundtrip_is_identity_on_normalized_form():
    document = doc([
        {"name": "p.B", "extends": "p.A",
         "fields": [{"name": "x", "type": "p.A"}],
         "methods": [{"name": "m", "arity": 1, "usesFields": ["x"],
                      "calls": [{"class": "p.A", "method": "f", "arity": 0},
                                {"class": None, "method": "g"}],
                      "touchesClasses": ["p.A"]}]},
        {"name": "p.A", "methods": [{"name": "f", "arity": 0}]},
    ])
    first = load_class_model(document)
    text = serialize_model(first)
    second = load_class_model(text)
    assert first == second
    assert serialize_model(second) == text


def test_roundtrip_random_models():
    rng = random.Random(1234)
    for _ in range(25):
        model = random_model(rng)
        again = load_class_model(serialize_model(model))
        assert again.classes == model.classes


def test_validate_after_load_is_clean_random():
    rng = random.Random(99)
    for _ in range(25):
        model = random_model(rng)
        assert validate_model(model) == []


def test_topological_order_exists_for_accepted_models():
    rng = random.Random(7)
    for _ in range(25):
        model = random_model(rng)
        # Kahn's algorithm over extends edges must consume every class.
        names = [c.qualified_name for c in model.classes]
        children: dict[str, list[str]] = {n: [] for n in names}
        indegree = {n: 0 for n in names}
        for c in model.classes:
            if c.superclass is not None and c.superclass in indegree:
                children[c.superclass].append(c.qualified_name)
                indegree[c.qualified_name] += 1
        queue = [n for n in names if indegree[n] == 0]
        seen = 0
        while queue:
            node = queue.pop()
            seen += 1
            for child in children[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    queue.append(child)
        assert seen == len(names)


def test_external_stub_with_members_rejected():
    with pytest.raises(SchemaError):
        load_class_model(doc([
            {"name": "E", "external": True,
             "fields": [{"name": "x"}]},
        ]))


def test_call_arity_optional_in_documents():
    model = load_class_model(doc([
        {"name": "A",
         "methods": [{"name": "m", "arity": 0,
                      "calls": [{"class": "B", "method": "f"}]}]},
        {"name": "B"},
    ]))
    call = next(iter(model.get("A").methods[0].called_methods))
    assert call == CallRef("B", "f", None)


def test_uses_undeclared_field_rejected_at_load():
    document = doc([
        {"name": "A",
         "fields": [{"name": "x"}],
         "methods": [{"name": "m", "arity": 0, "usesFields": ["y"]}]},
    ])
    with pytest.raises(SchemaError) as err:
        load_class_model(document)
    assert "UNKNOWN_FIELD" in str(err.value)
