from collections import OrderedDict
import copy
from dataclasses import MISSING, field, fields as dataclass_fields, is_dataclass, make_dataclass
from enum import IntEnum
import importlib
import inspect
import json
import math
from pathlib import Path
import pkgutil
import random

from hypothesis import given, settings, strategies as st
import pytest

import ckeval
from ckeval.chart import ChartSpec
from ckeval.errors import DuplicateClassError, InheritanceCycleError, SchemaError
from ckeval.model import (
    CallRef,
    ClassInfo,
    ClassModel,
    Diagnostic,
    FieldInfo,
    MethodInfo,
    build_model,
    load_class_model,
    make_method,
    model_to_document,
    serialize_model,
    validate_model,
)
from ckeval.java.parser import (ClassDecl, FieldDecl, MethodDecl, ParseDiagnostic,
                                SourceUnit, TypeRef)
from ckeval.metrics import ProjectMetrics, compute_all
from ckeval.report import Report, Section
from ckeval.rules import (Assessment, Fact, Interval, KnowledgeBase, Level, RangeFilter, Rule,
                          ValueSet, default_rule_base, evaluate_project, paper_rule_preset)
from ckeval.tables import metrics_from_csv
from ckeval.versions import VersionRecord, VersionVerdict
from conftest import random_model
import model_reader_oracle as oracle


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
    classes = chain + [ClassInfo("p.C1500", superclass="p.C0700")]
    model = ClassModel("x", tuple(classes))
    cycle = [f"p.C{i:04d}" for i in range(700, 1501)]
    with pytest.raises(InheritanceCycleError) as err:
        build_model("x", classes)
    assert err.value.cycle == cycle
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


@pytest.mark.parametrize("names, message", [
    (["p.A", "p.B", "p.A"], "duplicate class name: p.A, at classes[0] and classes[2]"),
    # the first entry whose name an earlier one has, not the first name in order
    (["B", "A", "B", "A"], "duplicate class name: B, at classes[0] and classes[2]"),
    (["A", "B", "B", "A"], "duplicate class name: B, at classes[1] and classes[2]"),
])
def test_duplicate_class_names_both_entries(names, message):
    with pytest.raises(DuplicateClassError) as err:
        load_class_model(doc([{"name": name} for name in names]))
    assert str(err.value) == message


def test_schema_error_after_a_duplicate_class_is_raised_first():
    with pytest.raises(SchemaError) as err:
        load_class_model(doc([{"name": "A"}, {"name": "A"}, {"name": ""}]))
    assert err.value.path == "classes[2].name"


def test_self_extends_rejected():
    with pytest.raises(SchemaError):
        load_class_model(doc([{"name": "A", "extends": "A"}]))


def test_schema_violation_names_offending_path():
    document = doc([{"name": "A", "methods": [{"name": "m", "arity": -1}]}])
    with pytest.raises(SchemaError) as err:
        load_class_model(document)
    assert err.value.path == "classes[0].methods[0].arity"


@pytest.mark.parametrize("value", [None, 5, "xy", {}, {"name": "x"}, True])
@pytest.mark.parametrize("where, path", [
    ("fields", "classes[0].fields"),
    ("methods", "classes[0].methods"),
    ("calls", "classes[0].methods[0].calls"),
])
def test_member_that_is_not_an_array_is_a_schema_error(where, path, value):
    cls = {"name": "A", "fields": [{"name": "x"}],
           "methods": [{"name": "m", "arity": 0, "calls": []}]}
    if where == "calls":
        cls["methods"][0]["calls"] = value
    else:
        cls[where] = value
    with pytest.raises(SchemaError) as err:
        load_class_model(doc([cls]))
    assert err.value.path == path
    assert str(err.value) == f"{path}: must be an array"


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


def test_validate_reports_each_broken_superclass_and_stub():
    # built by hand: the readers refuse each of these before a model exists
    model = ClassModel(project_name="x", classes=(
        ClassInfo("A", superclass="A"),
        ClassInfo("B", superclass="p.Gone"),
        ClassInfo("C", superclass="A"),
        ClassInfo("api.S", superclass="A", is_external=True),
        ClassInfo("api.T", fields=(FieldInfo("f"),), is_external=True),
        ClassInfo("api.U", methods=(MethodInfo("m", 0),), is_external=True),
    ))
    stub = "external stub must not carry members or a superclass"
    assert validate_model(model) == [
        Diagnostic("SELF_EXTENDS", "A", "class extends itself"),
        Diagnostic("UNKNOWN_SUPERCLASS", "B", "superclass 'p.Gone' is not in the model"),
        Diagnostic("EXTERNAL_WITH_MEMBERS", "api.S", stub),
        Diagnostic("EXTERNAL_WITH_MEMBERS", "api.T", stub),
        Diagnostic("EXTERNAL_WITH_MEMBERS", "api.U", stub),
    ]  # the self-extending A once, as SELF_EXTENDS, not also as a cycle
    assert "A" in model and "api.U" in model
    assert "p.Gone" not in model and "a" not in model


def test_a_self_extending_class_is_one_diagnostic_and_still_a_cycle_to_build_model():
    model = ClassModel("x", (ClassInfo("A", superclass="A"),))
    assert validate_model(model) == [Diagnostic("SELF_EXTENDS", "A", "class extends itself")]
    with pytest.raises(InheritanceCycleError) as err:
        build_model("x", list(model.classes))
    assert err.value.cycle == ["A"]
    # a cycle of two classes is still reported as one
    two = ClassModel("x", (ClassInfo("A", superclass="B"), ClassInfo("B", superclass="A")))
    assert validate_model(two) == [Diagnostic("INHERITANCE_CYCLE", "A", "extends cycle: A -> B")]


def test_roundtrip_is_identity_on_normalized_form():
    document = doc([
        {"name": "p.B", "extends": "p.A",
         "fields": [{"name": "x", "type": "p.A"}],
         "methods": [{"name": "m", "arity": 1, "usesFields": ["x"],
                      "calls": [{"class": "p.A", "method": "f", "arity": 0},
                                {"class": None, "method": "g"}],
                      "touchesClasses": ["p.A"]}]},
        {"name": "p.A", "methods": [{"name": "f", "arity": 0}]},
        {"name": "X", "external": True, "implements": ["I"]},
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


def test_call_ref_equals_hashes_and_orders_as_its_triple():
    ref = CallRef("p.A", "m", 1)
    assert ref == ("p.A", "m", 1) and hash(ref) == hash(("p.A", "m", 1))
    assert tuple(ref) == ("p.A", "m", 1)
    assert ("p.A", "m", 1) in frozenset({ref}) and ref in {("p.A", "m", 1)}
    assert repr(ref) == "CallRef(class_name='p.A', method='m', arity=1)"
    bare = CallRef(class_name=None, method="run")
    assert bare.arity is None and bare == (None, "run", None)
    assert sorted([CallRef("p.B", "a", 0), ("p.A", "z", 2), CallRef("p.A", "m", 1)]) \
        == [("p.A", "m", 1), ("p.A", "z", 2), ("p.B", "a", 0)]
    assert ref.sort_key() == ("p.A", "m", 1)
    assert bare.sort_key() == ("", "run", -1)


def test_document_lists_calls_in_sort_key_order():
    calls = [CallRef("p.B", "f", 0), CallRef(None, "g"), CallRef("p.A", "f", 2),
             CallRef("p.A", "f", None), CallRef(None, "a", 1), CallRef("p.A", "e", 5)]
    model = build_model("x", [ClassInfo("p.A", methods=(
        MethodInfo("m", 0, called_methods=frozenset(calls)),)), ClassInfo("p.B")])
    listed = model_to_document(model)["classes"][0]["methods"][0]["calls"]
    assert [(c["class"], c["method"], c["arity"]) for c in listed] == [
        (None, "a", 1), (None, "g", None), ("p.A", "e", 5), ("p.A", "f", None),
        ("p.A", "f", 2), ("p.B", "f", 0)]


def test_make_method_is_the_method_info_constructor():
    calls = [("p.B", "f", 0), (None, "g", None)]
    made = make_method("m", 2, ["x", "y"], calls, {"p.B"})
    built = MethodInfo("m", 2, frozenset({"x", "y"}), frozenset(CallRef(*t) for t in calls),
                       frozenset({"p.B"}))
    assert type(made) is MethodInfo and made == built and hash(made) == hash(built)
    assert repr(made) == repr(built)
    assert all(type(ref) is CallRef for ref in made.called_methods)
    assert make_method("n", 0, (), (), ()) == MethodInfo("n", 0)


# the three model values as they were: frozen dataclasses of the same fields
OldField = make_dataclass("FieldInfo", [("name", str), ("declared_type", str | None)], frozen=True)
OldMethod = make_dataclass("MethodInfo", [
    ("name", str), ("arity", int), ("used_fields", frozenset), ("called_methods", frozenset),
    ("referenced_classes", frozenset)], frozen=True)
OldClass = make_dataclass("ClassInfo", [
    ("qualified_name", str), ("superclass", str | None), ("interfaces", tuple),
    ("fields", tuple), ("methods", tuple), ("is_external", bool)], frozen=True)

# few names, so that equal values are drawn often
_names = st.sampled_from(["a", "b", "p.A", "p.Ä"])
_maybe_names = st.none() | _names
_raw_fields = st.tuples(_names, _maybe_names)
_raw_methods = st.tuples(
    _names, st.integers(0, 2), st.frozensets(_names, max_size=2),
    st.frozensets(st.builds(CallRef, _maybe_names, _names, st.none() | st.integers(0, 2)),
                  max_size=2),
    st.frozensets(_names, max_size=2))
_raw_classes = st.tuples(_names, _maybe_names, st.lists(_names, max_size=2).map(tuple),
                         st.lists(_raw_fields, max_size=2), st.lists(_raw_methods, max_size=2),
                         st.booleans())


def old_value(new_type, *names, **defaults):
    """A frozen dataclass of ``names`` and then the fields with ``defaults``."""
    return make_dataclass(new_type.__name__, [(n, object) for n in names]
                          + [(n, object, field(default=d)) for n, d in defaults.items()],
                          frozen=True)


# the other values as they were: frozen dataclasses of the same fields and defaults
OLD_VALUES = [
    (ParseDiagnostic, old_value(ParseDiagnostic, "path", "line", "column", "code", "message")),
    (TypeRef, old_value(TypeRef, "text", "is_primitive")),
    (FieldDecl, old_value(FieldDecl, "name", "type", "is_static")),
    (MethodDecl, old_value(MethodDecl, "name", "params", "body")),
    (ClassDecl, old_value(ClassDecl, "name", "kind", "extends", "implements", "fields",
                          "methods")),
    (SourceUnit, old_value(SourceUnit, "path", "package_name", "imports", "classes")),
    (Interval, old_value(Interval, "lo", hi=None)),
    (ValueSet, old_value(ValueSet, "values")),
    (Fact, old_value(Fact, "metric", "value", scope="project")),
    (Rule, old_value(Rule, "id", "metric", "condition", "conclusions")),
    (RangeFilter, old_value(RangeFilter, "metric", "condition", "in_range", "out_of_range")),
    (Section, old_value(Section, "heading", lines=())),
    (Report, old_value(Report, "title", sections=(), locale="en")),
    (ProjectMetrics, old_value(ProjectMetrics, "project_name", "per_class", "means")),
    (VersionRecord, old_value(VersionRecord, "version_name", "source_path", "means")),
    (VersionVerdict, old_value(VersionVerdict, "metric", "min_versions", "min_value",
                               "max_versions", "max_value", "quality_best",
                               "quality_worst", "effort_most", "effort_least")),
    (ChartSpec, old_value(ChartSpec, "groups", "series")),
    (Diagnostic, old_value(Diagnostic, "code", "location", "message")),
]

# few cells, so that equal values are drawn often; a dict makes a value unhashable
_scalars = st.sampled_from(["a", "p.Ä", 0, 1, 1.0, -0.0, math.nan, None, True])
_cells = (_scalars | st.tuples(_scalars, _scalars) | st.frozensets(_scalars, max_size=2)
          | st.dictionaries(st.sampled_from(["WMC", "DIT"]), _scalars, max_size=1))


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


def assert_same_as_dataclass(pairs):
    for new, old in pairs:
        assert repr(new) == repr(old) and hash_or_error(new) == hash_or_error(old)
    for new_a, old_a in pairs:
        for new_b, old_b in pairs:
            assert (new_a == new_b) == (old_a == old_b)
            assert (new_a != new_b) == (old_a != old_b)
            if new_a == new_b:
                assert hash_or_error(new_a) == hash_or_error(new_b)


@settings(max_examples=200, deadline=None)
@given(st.lists(_raw_fields, max_size=6), st.lists(_raw_methods, max_size=6),
       st.lists(_raw_classes, max_size=6),
       st.lists(st.tuples(*[_cells] * max(len(dataclass_fields(old)) for _, old in OLD_VALUES)),
                max_size=4))
def test_model_values_equal_hash_and_repr_as_the_dataclasses_did(fields, methods, classes,
                                                                 raws):
    assert_same_as_dataclass([(FieldInfo(*f), OldField(*f)) for f in fields])
    assert_same_as_dataclass([(MethodInfo(*m), OldMethod(*m)) for m in methods])
    assert_same_as_dataclass([
        (ClassInfo(name, superclass, interfaces, tuple(FieldInfo(*f) for f in fs),
                   tuple(MethodInfo(*m) for m in ms), external),
         OldClass(name, superclass, interfaces, tuple(OldField(*f) for f in fs),
                  tuple(OldMethod(*m) for m in ms), external))
        for name, superclass, interfaces, fs, ms, external in classes])
    for new_type, old_type in OLD_VALUES:
        arity = len(dataclass_fields(old_type))
        assert_same_as_dataclass([(new_type(*raw[:arity]), old_type(*raw[:arity]))
                                  for raw in raws])


@pytest.mark.parametrize("new_type, old_type", OLD_VALUES,
                         ids=[new.__name__ for new, _ in OLD_VALUES])
def test_values_keep_the_fields_and_defaults_of_the_dataclasses(new_type, old_type):
    assert issubclass(new_type, tuple)
    assert new_type._fields == tuple(f.name for f in dataclass_fields(old_type))
    assert new_type._field_defaults == {f.name: f.default for f in dataclass_fields(old_type)
                                        if f.default is not MISSING}


# the three values that keep a cache or mutable state, as they were
OldModel = make_dataclass("ClassModel", [("project_name", str), ("classes", tuple)], frozen=True)
OldBase = make_dataclass("KnowledgeBase", [("name", str), ("rules", tuple)], frozen=True)
OldAssessment = make_dataclass("Assessment", [("scope", str), ("derived", dict),
                                              ("derived_by", dict), ("fired_rules", list)])

_RULES = default_rule_base().rules[::5] + paper_rule_preset().rules


def fill_caches(value):
    """``value`` once every cache it keeps holds entries."""
    if isinstance(value, ClassModel):
        for cls in value.classes:
            assert value.get(cls.qualified_name) is cls
        compute_all(value)
        assert set(vars(value)) == {"_by_name", "_metric_index"}
    else:
        evaluate_project(metrics_from_csv("CLASS,WMC,DIT,NOC,CBO,RFC,LCOM\nA,1,2,3,4,5,6\n"),
                         value)
        assert list(vars(value)) == ["_effect"] and value._effect.cache_info().currsize
    return value


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["", "p"]), st.integers(0, 3)), max_size=5),
       st.lists(st.tuples(st.sampled_from(["default", "x"]),
                          st.lists(st.sampled_from(_RULES), max_size=2).map(tuple)),
                max_size=5),
       st.lists(st.tuples(_names, st.dictionaries(_names, st.sampled_from(list(Level)),
                                                  max_size=2),
                          st.dictionaries(_names, _names, max_size=2),
                          st.lists(_names, max_size=2)), max_size=5))
def test_cached_and_mutable_values_equal_hash_and_repr_as_the_dataclasses_did(
        models, bases, assessments):
    # every other value has its caches filled, which must change nothing
    model_pairs = []
    for i, (name, seed) in enumerate(models):
        classes = random_model(random.Random(seed), max_classes=3).classes
        model = ClassModel(name, classes)
        model_pairs.append((fill_caches(model) if i % 2 else model, OldModel(name, classes)))
    assert_same_as_dataclass(model_pairs)
    base_pairs = []
    for i, raw in enumerate(bases):
        base = KnowledgeBase(*raw)
        base_pairs.append((fill_caches(base) if i % 2 else base, OldBase(*raw)))
    assert_same_as_dataclass(base_pairs)
    assessment_pairs = [(Assessment(*raw), OldAssessment(*raw)) for raw in assessments]
    assert_same_as_dataclass(assessment_pairs)
    assert all(hash_or_error(new) is TypeError for new, _ in assessment_pairs)


def test_replace_gives_a_value_whose_caches_start_empty():
    for seed in range(10):
        model = fill_caches(random_model(random.Random(seed)))
        other = random_model(random.Random(seed + 100))
        fresh = ClassModel(model.project_name, other.classes)
        replaced = model._replace(classes=other.classes)
        assert type(replaced) is ClassModel and vars(replaced) == {} and replaced == fresh
        assert compute_all(replaced) == compute_all(fresh)
        assert all(replaced.get(c.qualified_name) is c for c in other.classes)

    pm = metrics_from_csv("CLASS,WMC,DIT,NOC,CBO,RFC,LCOM\nA,0,1,2,3,4,50\n")
    base = fill_caches(KnowledgeBase("b", default_rule_base().rules))
    replaced = base._replace(rules=paper_rule_preset().rules)
    assert type(replaced) is KnowledgeBase and vars(replaced) == {}
    assert evaluate_project(pm, replaced) == evaluate_project(pm, paper_rule_preset())
    assert evaluate_project(pm, replaced) != evaluate_project(pm, base)


def test_no_class_is_a_dataclass():
    modules = [importlib.import_module(info.name) for info in pkgutil.walk_packages(
        ckeval.__path__, "ckeval.")]
    assert not [f"{module.__name__}.{name}" for module in modules
                for name, value in inspect.getmembers(module, inspect.isclass)
                if value.__module__ == module.__name__ and is_dataclass(value)]
    assert not [module.__name__ for module in modules
                if "object.__setattr__" in Path(module.__file__).read_text(encoding="utf-8")]


class Name(str):
    pass


class Count(int):
    pass


class Entry(dict):
    pass


def test_called_methods_are_call_refs_for_plain_and_subclass_values():
    calls = [{"class": "B", "method": "f", "arity": 0}, {"class": None, "method": "g"},
             {"class": Name("B"), "method": Name("h"), "arity": Count(1)},
             OrderedDict(method="k", arity=2)]
    document = {"schemaVersion": 1, "classes": [
        {"name": "A", "methods": [{"name": "m", "arity": 0, "calls": calls}]}, {"name": "B"}]}
    for given in (document, json.dumps(document)):
        refs = load_class_model(given).get("A").methods[0].called_methods
        assert refs == {("B", "f", 0), (None, "g", None), ("B", "h", 1), (None, "k", 2)}
        assert all(type(ref) is CallRef for ref in refs)


def test_uses_undeclared_field_rejected_at_load():
    document = doc([
        {"name": "A",
         "fields": [{"name": "x"}],
         "methods": [{"name": "m", "arity": 0, "usesFields": ["y"]}]},
    ])
    with pytest.raises(SchemaError) as err:
        load_class_model(document)
    assert "UNKNOWN_FIELD" in str(err.value)


def test_unsorted_members_load_to_the_model_of_their_sorted_form():
    def entry(implements, fields, methods):
        return {"name": "p.A", "implements": implements,
                "fields": [{"name": f} for f in fields],
                "methods": [{"name": n, "arity": a, "usesFields": [f]} for n, a, f in methods]}

    unsorted = entry(["q.J", "q.I", "q.J"], ["y", "x"],
                     [("run", 1, "x"), ("get", 0, "y"), ("run", 0, "y")])
    ordered = entry(["q.I", "q.J"], ["x", "y"],
                    [("get", 0, "y"), ("run", 0, "y"), ("run", 1, "x")])
    model = load_class_model(doc([unsorted]))
    assert model == load_class_model(doc([ordered]))
    cls = model.get("p.A")
    assert cls.interfaces == ("q.I", "q.J")
    assert [f.name for f in cls.fields] == ["x", "y"]
    assert [(m.name, m.arity) for m in cls.methods] == [("get", 0), ("run", 0), ("run", 1)]


# --- the one-pass reader against the old reader (tests/model_reader_oracle.py) ------

NAMES = [f"p.C{i}" for i in range(8)]


def random_document(rng: random.Random) -> dict:
    """A class model document in any member order; names may repeat and fields
    may go undeclared, so some documents fail validation."""
    names = rng.sample(NAMES, rng.randint(0, 6))
    if names and rng.random() < 0.05:
        names.append(rng.choice(names))
    classes = []
    for name in names:
        entry: dict = {"name": name}
        if rng.random() < 0.1:
            entry["external"] = True
            classes.append(entry)
            continue
        if rng.random() < 0.1:
            entry["external"] = False
        roll = rng.random()
        if roll < 0.4:
            entry["extends"] = rng.choice(NAMES + ["lib.Base"])
        elif roll < 0.45:
            entry["extends"] = None
        if entry.get("extends") == name:
            del entry["extends"]
        if rng.random() < 0.4:
            entry["implements"] = rng.choices(["api.B", "api.A", "api.C"], k=rng.randint(0, 3))
        fields = [f"f{k}" for k in rng.sample(range(6), rng.randint(0, 4))]
        if fields and rng.random() < 0.05:
            fields.append(fields[0])
        if fields or rng.random() < 0.5:
            entry["fields"] = [{"name": f, "type": rng.choice([None, "int", "p.C1"])}
                               if rng.random() < 0.7 else {"name": f} for f in fields]
        methods = []
        for _ in range(rng.randint(0, 5)):
            method: dict = {"name": rng.choice(["run", "get", "m"]), "arity": rng.randint(0, 2)}
            if rng.random() < 0.7:
                used = rng.sample(fields, rng.randint(0, len(fields)))
                if rng.random() < 0.05:
                    used += rng.sample(["zeta", "ghost", "alpha"], rng.randint(1, 3))
                method["usesFields"] = used
            if rng.random() < 0.8:
                method["calls"] = [
                    {"class": rng.choice(NAMES + [None, "ext.Lib"]),
                     "method": rng.choice(["a", "b", "run"]),
                     **({"arity": rng.choice([None, 0, 1, 2])} if rng.random() < 0.8 else {})}
                    for _ in range(rng.randint(0, 4))]
            if rng.random() < 0.6:
                method["touchesClasses"] = rng.sample(NAMES, rng.randint(0, 2))
            methods.append(method)
        if methods or rng.random() < 0.5:
            entry["methods"] = methods
        classes.append(entry)
    return {"schemaVersion": 1, "projectName": "demo", "classes": classes}


def entries(document: dict, kind: str) -> list[tuple[list, int]]:
    """(list, index) of every class, field, method or call entry that sits in
    a list; earlier mutations may have put other values in their place."""
    def listed(items) -> list[tuple[list, int]]:
        return [(items, k) for k in range(len(items))] if isinstance(items, list) else []

    if kind == "class":
        return listed(document["classes"])
    found = []
    for cls in document["classes"]:
        if not isinstance(cls, dict):
            continue
        if kind in ("field", "method"):
            found += listed(cls.get(kind + "s"))
            continue
        methods = cls.get("methods")
        for method in methods if isinstance(methods, list) else ():
            if isinstance(method, dict):
                found += listed(method.get("calls"))
    return found


WRONG_TYPES = {
    "class": {"name": [5, None, ["p.C0"]], "external": ["yes", 1, None],
              "extends": [3, ["p.C0"], {}], "implements": ["api.A", [1], [None, "a"], {}],
              "fields": [{"f": 1}, "ab"], "methods": [{"m": 1}, "m"]},
    "field": {"name": [1, None], "type": [3, ["int"], False]},
    "method": {"name": [0, None], "usesFields": ["f0", [1], {}, [None]],
               "calls": [{"class": "p.C0"}, "c"], "touchesClasses": ["p.C0", [2], [None]]},
    "call": {"class": [7, ["p.C0"], True], "method": [None, 3], "arity": ["1", 1.0, [1]]},
}


def mutate(document: dict, rng: random.Random) -> None:
    """One of the listed faults, at a random entry; a no-op when none fits."""
    kind = rng.choice(["wrong type", "empty name", "bad arity", "not a dict",
                       "bad call", "external with members", "self-extends"])
    if kind in ("wrong type", "empty name", "not a dict"):
        level = rng.choice(["class", "field", "method", "call"])
    elif kind == "bad arity":
        level = rng.choice(["method", "call"])
    elif kind == "bad call":
        level = "call"
    else:
        level = "class"
    targets = entries(document, level)
    if not targets:
        return
    owner, k = rng.choice(targets)
    entry = owner[k]
    if kind not in ("not a dict", "bad call") and not isinstance(entry, dict):
        return
    if kind == "not a dict":
        owner[k] = rng.choice([None, "x", 3, ["name"], True])
    elif kind == "empty name":
        entry["method" if level == "call" else "name"] = ""
    elif kind == "wrong type":
        key = rng.choice(sorted(WRONG_TYPES[level]))
        entry[key] = rng.choice(WRONG_TYPES[level][key])
    elif kind == "bad arity":
        entry["arity"] = rng.choice([-1, -7, True, False, 1.5, None if level == "method" else -2])
    elif kind == "bad call":
        owner[k] = rng.choice([{"class": 1, "method": "a"}, {"class": "p.C0", "arity": -1},
                               {"class": None}, {"method": ""}, [], {"class": "p.C0", "method": 2}])
    elif kind == "external with members":
        entry["external"] = True
        member = rng.choice(["as is", "fields", "methods", "extends"])
        if member != "as is":
            for key in ("fields", "methods", "extends"):
                entry.pop(key, None)
            entry[member] = {"fields": [{"name": "x"}], "methods": [{"name": "m", "arity": 0}],
                             "extends": "lib.Base"}[member]
    else:
        entry["extends"] = entry["name"]


def outcome(load, document):
    try:
        model = load(document)
    except Exception as exc:  # the oracle and the reader must fail alike
        return ("raised", type(exc), str(exc), getattr(exc, "path", None),
                getattr(exc, "cycle", None))
    return ("model", model, compute_all(model), serialize_model(model))


NOT_AN_ARRAY = "\0 stands for a member that is not an array"


def expected_outcome(document: dict):
    """The oracle's outcome, except where the reader refuses a fields,
    methods or calls member that is not an array, which the oracle iterated,
    and where it names the entries of a duplicate class.

    Each such member is given to the oracle as ``[NOT_AN_ARRAY]``. When the
    oracle's first error is at that entry, the reader's first error is at
    the member. When the oracle refuses a duplicate class name, the reader
    names the first entry whose name an earlier entry has, and that earlier
    entry. Any other outcome is the reader's as well.
    """
    marked = copy.deepcopy(document)
    members = set()

    def mark(entry: dict, key: str, path: str) -> None:
        if key in entry and not isinstance(entry[key], list):
            entry[key] = [NOT_AN_ARRAY]
            members.add(path)

    for i, cls in enumerate(marked["classes"]):
        if not isinstance(cls, dict):
            continue
        mark(cls, "fields", f"classes[{i}].fields")
        mark(cls, "methods", f"classes[{i}].methods")
        for j, method in enumerate(cls["methods"] if isinstance(cls.get("methods"), list) else ()):
            if isinstance(method, dict):
                mark(method, "calls", f"classes[{i}].methods[{j}].calls")

    result = outcome(oracle.load, marked)
    if result[0] == "raised" and result[3] is not None and result[3].endswith("[0]") \
            and result[3][:-3] in members:
        path = result[3][:-3]
        return ("raised", SchemaError, f"{path}: must be an array", path, None)
    if result[0] == "raised" and result[1] is DuplicateClassError:
        first: dict[str, int] = {}
        for i, cls in enumerate(document["classes"]):
            j = first.setdefault(cls["name"], i)
            if j != i:
                message = f"duplicate class name: {cls['name']}, at classes[{j}] and classes[{i}]"
                return result[:2] + (message,) + result[3:]
    return result


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans(), st.booleans())
def test_reader_matches_oracle_on_generated_documents(rng, mutated, as_text):
    document = random_document(rng)
    if mutated:
        for _ in range(rng.randint(1, 2)):
            mutate(document, rng)
    expected = expected_outcome(document)
    text = json.dumps(document)
    assert outcome(load_class_model, text if as_text else document) == expected
    assert json.loads(text) == document  # neither reader touched the document


def test_reader_oracle_comparison_reaches_every_outcome():
    # the generator and mutations above reach a model and each kind of error
    rng = random.Random(5)
    seen = set()
    for i in range(2000):
        document = random_document(rng)
        if i % 4:
            mutate(document, rng)
        result = outcome(oracle.load, document)
        seen.add(result[0] if result[0] == "model" else result[1].__name__)
        if result[0] == "raised" and result[1] is SchemaError:
            seen.add(result[3].rsplit(".", 1)[-1].split("[")[0])
    assert {"model", "SchemaError", "DuplicateClassError", "InheritanceCycleError",
            "name", "external", "extends", "implements", "type", "arity", "usesFields",
            "class", "method", "touchesClasses", "classes", "fields", "methods",
            "calls"} <= seen


def disguise(value, rng: random.Random):
    """``value`` with some strings, integers and dicts, keys aside, turned
    into subclasses, as a document built in code rather than parsed may hold."""
    if isinstance(value, dict):
        items = {key: disguise(member, rng) for key, member in value.items()}
        return Entry(items) if rng.random() < 0.2 else items
    if isinstance(value, list):
        return [disguise(member, rng) for member in value]
    if isinstance(value, str) and rng.random() < 0.3:
        return Name(value)
    if type(value) is int and rng.random() < 0.3:
        return Count(value)
    return value


def plant(document: dict, fault: str, rng: random.Random) -> None:
    """One fault a JSON parser never gives, at a random method or call."""
    if fault in ("usesFields", "touchesClasses", "calls"):
        targets = entries(document, "method")
    else:
        targets = entries(document, "call")
    targets = [(owner, k) for owner, k in targets if isinstance(owner[k], dict)]
    if not targets:
        return
    owner, k = rng.choice(targets)
    entry = owner[k]
    if fault == "call arity":
        entry["arity"] = rng.choice([True, False])
    elif fault == "method":
        entry["method"] = rng.choice(["", Name("")])
    else:
        entry[fault] = tuple(entry.get(fault, ()))


HAND_BUILT_FAULTS = ["call arity", "method", "usesFields", "touchesClasses", "calls"]


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([None] + HAND_BUILT_FAULTS))
def test_reader_matches_oracle_on_hand_built_documents(rng, fault):
    document = disguise(random_document(rng), rng)
    if fault is not None:
        plant(document, fault, rng)
    assert outcome(load_class_model, document) == expected_outcome(document)


@pytest.mark.parametrize("fault, path, message", [
    ("call arity", "classes[0].methods[0].calls[0].arity",
     "must be a non-negative integer when present"),
    ("method", "classes[0].methods[0].calls[0].method", "must be a non-empty string"),
    ("usesFields", "classes[0].methods[0].usesFields", "must be an array of strings"),
    ("touchesClasses", "classes[0].methods[0].touchesClasses", "must be an array of strings"),
    ("calls", "classes[0].methods[0].calls", "must be an array"),
])
def test_hand_built_document_faults_are_refused_where_the_oracle_refuses(fault, path, message):
    document = disguise({"schemaVersion": 1, "classes": [
        {"name": "A", "fields": [{"name": "x"}],
         "methods": [{"name": "m", "arity": 1, "usesFields": ["x"], "touchesClasses": ["B"],
                      "calls": [{"class": "B", "method": "f", "arity": 0}]}]},
        {"name": "B"}]}, random.Random(3))
    assert outcome(load_class_model, document)[0] == "model"
    plant(document, fault, random.Random(0))
    expected = ("raised", SchemaError, f"{path}: {message}", path, None)
    assert expected_outcome(document) == expected
    assert outcome(load_class_model, document) == expected


class Arity(IntEnum):
    ONE = 1


def fallback_document(method: dict, call: dict) -> dict:
    """One class ``A`` with one method that makes one call, and a class ``B``;
    ``method`` and ``call`` replace or add keys of the plain entries."""
    call = {"class": "B", "method": "f", "arity": 0, **call}
    method = {"name": "m", "arity": 1, "usesFields": ["x", "y"],
              "calls": [{"class": None, "method": "g"}, call],
              "touchesClasses": ["B"], **method}
    return {"schemaVersion": 1, "classes": [
        {"name": "A", "fields": [{"name": "x"}, {"name": "y"}], "methods": [method]},
        {"name": "B"}]}


@pytest.mark.parametrize("method, call", [
    # accepted, through the isinstance checks
    ({"name": Name("m")}, {"class": Name("B"), "method": Name("f")}),
    ({"usesFields": [Name("x"), "y"], "touchesClasses": ["B", Name("B")]}, {}),
    ({"arity": Arity.ONE}, {"arity": Arity.ONE}),
    ({"arity": Count(2)}, {"arity": Count(0)}),
    ({}, {"arity": None}),
    ({}, {"class": ""}),
    # refused, at the same path and with the same message as the oracle
    ({"arity": True}, {}),
    ({"arity": False}, {}),
    ({}, {"arity": True}),
    ({}, {"arity": False}),
    ({}, {"arity": -1}),
    ({}, {"arity": 1.0}),
    ({}, {"method": ""}),
    ({}, {"method": Name("")}),
    ({}, {"method": None}),
    ({}, {"class": 3, "arity": -1}),
    ({}, {"class": Name("B"), "arity": True, "method": 5}),
    ({"usesFields": ["x", 1]}, {}),
    ({"usesFields": ["x", "y", None]}, {}),
    ({"touchesClasses": ["B", None]}, {}),
    ({"touchesClasses": ["B", "B", b"B"]}, {}),
])
@pytest.mark.parametrize("container", [dict, OrderedDict, Entry])
def test_reader_fallback_matches_oracle(method, call, container):
    document = fallback_document(method, call)
    klass = document["classes"][0]
    entry = klass["methods"][0]
    entry["calls"][1] = container(entry["calls"][1])
    klass["methods"][0] = container(entry)
    document["classes"][0] = container(klass)
    assert outcome(load_class_model, document) == expected_outcome(document)


def test_reader_fallback_reaches_every_outcome():
    refused = set()
    for method, call in [({"arity": True}, {}), ({}, {"arity": True}), ({}, {"method": ""}),
                         ({}, {"class": 3}), ({"usesFields": ["x", 1]}, {}),
                         ({"touchesClasses": ["B", None]}, {})]:
        with pytest.raises(SchemaError) as err:
            load_class_model(fallback_document(method, call))
        refused.add(err.value.path)
    assert refused == {"classes[0].methods[0].arity", "classes[0].methods[0].calls[1].arity",
                       "classes[0].methods[0].calls[1].method",
                       "classes[0].methods[0].calls[1].class",
                       "classes[0].methods[0].usesFields",
                       "classes[0].methods[0].touchesClasses"}
    model = load_class_model(fallback_document({}, {"class": Name("B"), "arity": Arity.ONE}))
    assert model.get("A").methods[0].called_methods == {(None, "g", None), ("B", "f", 1)}
    assert all(type(ref) is CallRef for ref in model.get("A").methods[0].called_methods)


def test_methods_without_members_equal_those_built_with_fresh_sets():
    model = load_class_model(doc([{"name": "A", "methods": [
        {"name": "m", "arity": 0}, {"name": "n", "arity": 0, "usesFields": [], "calls": [],
                                    "touchesClasses": []}]}]))
    fresh = [MethodInfo(m.name, 0, frozenset(), frozenset(), frozenset())
             for m in model.get("A").methods]
    assert list(model.get("A").methods) == fresh
    assert [hash(m) for m in model.get("A").methods] == [hash(m) for m in fresh]


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_build_model_matches_oracle_on_hand_built_classes(rng):
    # members in any order, interfaces repeated, lists for tuples: build_model
    # copies what is not canonical, exactly as the old one copied everything
    classes = []
    for cls in random_model(rng, max_classes=6).classes:
        interfaces = rng.choices(["api.B", "api.A"], k=rng.randint(0, 3))
        fields = rng.sample(cls.fields, len(cls.fields))
        methods = rng.sample(cls.methods, len(cls.methods))
        if rng.random() < 0.3 and cls.fields:
            methods.append(MethodInfo("ghost", 9, used_fields=frozenset({"f0", "zz"})))
        pick = rng.choice([tuple, list])
        classes.append(ClassInfo(cls.qualified_name, cls.superclass, pick(interfaces),
                                 pick(fields), pick(methods), cls.is_external))
    assert outcome(lambda c: build_model("x", c), classes) \
        == outcome(lambda c: oracle.build_model("x", c), classes)
    model = ClassModel("x", tuple(classes))
    assert validate_model(model) == oracle.check(model)[0]


def test_build_model_keeps_classes_already_in_canonical_form():
    model = load_class_model(doc([
        {"name": "p.B", "extends": "p.A", "implements": ["api.Z", "api.A", "api.Z"],
         "fields": [{"name": "y"}, {"name": "x"}],
         "methods": [{"name": "m", "arity": 1}, {"name": "a", "arity": 2},
                     {"name": "m", "arity": 0}]},
        {"name": "p.A"},
    ]))
    again = build_model("demo", list(model.classes))
    assert again == model
    assert all(a is b for a, b in zip(again.classes, model.classes))
    b = model.get("p.B")
    assert b.interfaces == ("api.A", "api.Z")
    assert [f.name for f in b.fields] == ["x", "y"]
    assert [(m.name, m.arity) for m in b.methods] == [("a", 2), ("m", 0), ("m", 1)]

    shuffled = ClassInfo("p.B", "p.A", b.interfaces, b.fields[::-1], b.methods)
    copy = build_model("demo", [shuffled, model.get("p.A")]).get("p.B")
    assert copy is not shuffled and copy == b


def test_unknown_fields_are_reported_in_name_order():
    unknown = [f"u{i:02d}" for i in range(20)]
    cls = ClassInfo("A", fields=(FieldInfo("b"),), methods=(
        MethodInfo("m", 0, used_fields=frozenset(unknown + ["b"])),))
    diags = validate_model(ClassModel("x", (cls,)))
    assert [d.message for d in diags] == [f"method uses undeclared field {u!r}"
                                          for u in unknown]
