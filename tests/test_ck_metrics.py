import random
import sys
import threading
from dataclasses import make_dataclass
from itertools import combinations
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from ckeval.errors import InheritanceCycleError
from ckeval.metrics import (
    METRICS,
    MetricRecord,
    ProjectMetrics,
    cbo,
    compute_all,
    compute_record,
    dit,
    lcom,
    noc,
    project_means,
    rfc,
    wmc,
)
from ckeval.model import (
    CallRef,
    ClassInfo,
    ClassModel,
    FieldInfo,
    MethodInfo,
    build_model,
)
from ckeval.tables import metrics_from_csv, metrics_from_document, metrics_to_csv, metrics_to_document
from conftest import random_class, random_model


# --- independent oracles ------------------------------------------------------

def lcom_oracle(cls: ClassInfo) -> int:
    """Brute force over all unordered method pairs."""
    sets = [m.used_fields for m in cls.methods]
    p = sum(1 for a, b in combinations(sets, 2) if not (a & b))
    q = sum(1 for a, b in combinations(sets, 2) if a & b)
    return max(p - q, 0)


def rfc_oracle(cls: ClassInfo) -> int:
    response = {(cls.qualified_name, m.name, m.arity) for m in cls.methods}
    response |= {(c.class_name, c.method, c.arity)
                 for m in cls.methods for c in m.called_methods}
    return len(response)


def dit_oracle(cls: ClassInfo, model: ClassModel) -> int:
    parent_name = cls.superclass
    if parent_name is None:
        return 0
    parent = model.get(parent_name)
    if parent is None or parent.is_external:
        return 0
    return 1 + dit_oracle(parent, model)


def dit_walk_oracle(cls: ClassInfo, model: ClassModel) -> int:
    """The chain walk by name over superclass links; ends on cycles."""
    depth = 0
    seen: set[str] = set()
    node = model.get(cls.qualified_name)
    while node.superclass is not None and node.superclass not in seen:
        parent = model.get(node.superclass)
        if parent is None or parent.is_external:
            break
        seen.add(node.superclass)
        depth += 1
        node = parent
    return depth


def noc_oracle(cls: ClassInfo, model: ClassModel) -> int:
    return sum(1 for other in model.classes
               if other.superclass == cls.qualified_name)


def uses_oracle(cls: ClassInfo) -> set[str]:
    out: set[str] = set()
    for m in cls.methods:
        out |= set(m.referenced_classes)
        out |= {c.class_name for c in m.called_methods if c.class_name}
    out.discard(cls.qualified_name)
    return out


def related_oracle(model: ClassModel, a: str, b: str) -> bool:
    def ancestors(name: str) -> set[str]:
        out = set()
        node = model.get(name)
        while node is not None and node.superclass is not None:
            if node.superclass in out:
                break
            out.add(node.superclass)
            node = model.get(node.superclass)
        return out
    return a in ancestors(b) or b in ancestors(a)


def cbo_oracle(cls: ClassInfo, model: ClassModel) -> int:
    """Distinct qualified names: a name held by several class entries, as in
    a hand-built model, is one partner."""
    partners = set()
    for other in model.classes:
        name = other.qualified_name
        if other.is_external or name == cls.qualified_name:
            continue
        if related_oracle(model, cls.qualified_name, name):
            continue
        if name in uses_oracle(cls) or cls.qualified_name in uses_oracle(other):
            partners.add(name)
    return len(partners)


# --- example-driven unit tests ------------------------------------------------

def cls_of(methods=(), fields=(), name="p.C", superclass=None, external=False):
    return ClassInfo(qualified_name=name, superclass=superclass,
                     fields=tuple(fields), methods=tuple(methods),
                     is_external=external)


def method(name, arity=0, used=(), calls=(), refs=()):
    return MethodInfo(name=name, arity=arity, used_fields=frozenset(used),
                      called_methods=frozenset(calls),
                      referenced_classes=frozenset(refs))


def by_name(pm: ProjectMetrics) -> dict[str, MetricRecord]:
    """The records of ``pm`` keyed by class name."""
    return {rec.class_name: rec for rec in pm.per_class}


def test_wmc_counts_methods():
    assert wmc(cls_of()) == 0
    assert wmc(cls_of([method(f"m{i}") for i in range(4)])) == 4


def test_wmc_counts_constructors():
    # three plain methods plus a constructor named like the class
    methods = [method("C", 2)] + [method(f"m{i}") for i in range(3)]
    assert wmc(cls_of(methods)) == 4


def test_wmc_pluggable_complexity():
    cls = cls_of([method("a"), method("b")])
    assert wmc(cls, complexity=lambda m: 3) == 6


def test_dit_root_is_zero():
    model = build_model("t", [ClassInfo("A")])
    assert dit(model.get("A"), model) == 0


def test_dit_chain():
    model = build_model("t", [
        ClassInfo("A"),
        ClassInfo("B", superclass="A"),
        ClassInfo("C", superclass="B"),
    ])
    assert dit(model.get("C"), model) == 2
    assert dit(model.get("B"), model) == 1


def test_dit_stops_at_external_boundary():
    model = build_model("t", [ClassInfo("A", superclass="lib.Base")])
    assert dit(model.get("A"), model) == 0


def test_noc_direct_children_only():
    model = build_model("t", [
        ClassInfo("R"),
        ClassInfo("A", superclass="R"),
        ClassInfo("B", superclass="R"),
        ClassInfo("C", superclass="R"),
        ClassInfo("D", superclass="A"),  # grandchild of R
    ])
    assert noc(model.get("R"), model) == 3
    assert noc(model.get("D"), model) == 0


def test_noc_stubs_carry_no_extends_edges():
    model = build_model("t", [ClassInfo("A", superclass="ext.B")])
    assert noc(model.get("A"), model) == 0
    assert model.get("ext.B").superclass is None


def test_cbo_isolated_class():
    model = build_model("t", [ClassInfo("A")])
    assert cbo(model.get("A"), model) == 0


def test_cbo_counts_classes_not_references():
    # A calls B.f and B reads A.x: one partner each, however many references
    model = build_model("t", [
        cls_of([method("m", calls=[CallRef("B", "f", 0)], refs=["B"])], name="A"),
        cls_of([method("g", refs=["A"])], name="B"),
    ])
    assert cbo(model.get("A"), model) == 1
    assert cbo(model.get("B"), model) == 1


def test_cbo_excludes_inheritance():
    model = build_model("t", [
        cls_of([method("f")], name="A"),
        cls_of([method("g", calls=[CallRef("A", "f", 0)], refs=["A"])],
               name="B", superclass="A"),
    ])
    assert cbo(model.get("B"), model) == 0
    assert cbo(model.get("A"), model) == 0


def test_cbo_excludes_externals_and_unresolved():
    model = build_model("t", [
        cls_of([method("m", calls=[CallRef("ext.E", "f", 0), CallRef(None, "g", 0)],
                       refs=["ext.E"])], name="A"),
        ClassInfo("ext.E", is_external=True),
    ])
    assert cbo(model.get("A"), model) == 0


def test_rfc_own_methods_only():
    assert rfc(cls_of([method("a"), method("b")])) == 2


def test_rfc_set_union_dedup():
    # both methods call the same external method: 2 own + 1 distinct = 3
    call = CallRef("X", "m", 0)
    cls = cls_of([method("a", calls=[call]), method("b", calls=[call])])
    assert rfc(cls) == 3
    assert rfc_oracle(cls) == 3


def test_rfc_four_own_five_called():
    calls = [CallRef("D1", "x", 0), CallRef("D2", "x", 0), CallRef("D3", "x", 0),
             CallRef("D1", "y", 0), CallRef("D2", "y", 0)]
    cls = cls_of([
        method("m1", used=["a"], calls=calls),
        method("m2", used=["a"]),
        method("m3", used=["b"]),
        method("m4"),
    ], fields=[FieldInfo("a"), FieldInfo("b")])
    assert rfc(cls) == 9
    assert rfc_oracle(cls) == 9


def test_rfc_self_call_not_double_counted():
    cls = cls_of([method("f", calls=[CallRef("p.C", "g", 0)]), method("g")])
    assert rfc(cls) == 2


def test_lcom_no_pairs():
    assert lcom(cls_of()) == 0
    assert lcom(cls_of([method("m", used=["a"])], fields=[FieldInfo("a")])) == 0


def test_lcom_enumerated_examples():
    fields = [FieldInfo("a"), FieldInfo("b"), FieldInfo("c")]
    shared = cls_of([method("m1", used=["a"]), method("m2", used=["a"]),
                     method("m3", used=["b"])], fields=fields)
    assert lcom(shared) == 1  # P=2, Q=1
    disjoint = cls_of([method("m1", used=["a"]), method("m2", used=["b"]),
                       method("m3", used=["c"])], fields=fields)
    assert lcom(disjoint) == 3  # P=3, Q=0


def test_fixture_shaped_class_matches_published_first_row():
    # a class shaped to yield (4,1,0,6,9,4): WMC 4, DIT 1, NOC 0, CBO 6,
    # RFC 9, LCOM 4
    calls = [CallRef("D1", "x", 0), CallRef("D2", "x", 0), CallRef("D3", "x", 0),
             CallRef("D1", "y", 0), CallRef("D2", "y", 0)]
    fixture = cls_of([
        method("m1", used=["a"], calls=calls, refs=["D1", "D2", "D3"]),
        method("m2", used=["a"]),
        method("m3", used=["b"]),
        method("m4"),
    ], fields=[FieldInfo("a"), FieldInfo("b")], name="C", superclass="P")
    others = [ClassInfo("P")]
    others += [ClassInfo(f"D{i}") for i in (1, 2, 3)]
    others += [cls_of([method("u", calls=[CallRef("C", "m2", 0)], refs=["C"])],
                      name=f"D{i}") for i in (4, 5, 6)]
    model = build_model("t", [fixture] + others)
    record = by_name(compute_all(model))["C"]
    assert record.values() == (4, 1, 0, 6, 9, 4)


def test_project_metrics_equal_and_print_as_the_dataclass_did():
    first, second = MetricRecord("A", 1, 0, 0, 0, 1, 0), MetricRecord("A", 2, 0, 0, 0, 2, 0)
    pm = ProjectMetrics("p", (first, second, MetricRecord("B", 3, 0, 0, 0, 3, 0)), {})
    assert pm == ProjectMetrics("p", pm.per_class, {})
    assert repr(pm) == f"ProjectMetrics(project_name='p', per_class={pm.per_class!r}, means={{}})"


# MetricRecord as it was: a frozen dataclass of the same fields
OldRecord = make_dataclass("MetricRecord", [("class_name", str)] + [(m.lower(), int) for m in METRICS],
                           frozen=True)


def test_metric_record_equals_hashes_and_reprs_as_the_dataclass_did():
    cells = [("p.A", 1, 0, 0, 2, 3, 0), ("p.A", 1, 0, 0, 2, 3, 0), ("p.A", 1, 0, 0, 2, 3, 1),
             ("p.B", 9, 1, 0, 3, 12, 4), ("p.Ä", 0, 0, 0, 0, 0, 0), ("", 2, 0, 0, 0, 2, 0)]
    new = [MetricRecord(*row) for row in cells]
    old = [OldRecord(*row) for row in cells]
    for a, old_a in zip(new, old):
        assert repr(a) == repr(old_a)
        assert hash(a) == hash(old_a)
        for b, old_b in zip(new, old):
            assert (a == b) == (old_a == old_b) and (a != b) == (old_a != old_b)
    # what the dataclass did not do: equal its 7-tuple, and order
    record = MetricRecord(class_name="p.B", wmc=9, dit=1, noc=0, cbo=3, rfc=12, lcom=4)
    assert record == ("p.B", 9, 1, 0, 3, 12, 4) and record == new[3]
    assert record in {("p.B", 9, 1, 0, 3, 12, 4)}
    assert sorted(new) == sorted(cells) and (new[2] < new[3]) is True
    assert record.value("CBO") == 3 and record.value("rfc") == 12
    assert record.values() == (9, 1, 0, 3, 12, 4)
    assert record.class_name == "p.B" and record.lcom == 4


def test_compute_all_empty_model():
    pm = compute_all(build_model("empty", []))
    assert pm.per_class == ()
    assert all(pm.means[m] == 0 for m in METRICS)


def test_compute_all_single_record_means():
    pm = metrics_from_csv("CLASS,WMC,DIT,NOC,CBO,RFC,LCOM\nC,4,1,0,6,9,4\n")
    assert [pm.means[m] for m in METRICS] == [4.0, 1.0, 0.0, 6.0, 9.0, 4.0]


def test_compute_all_mean_is_arithmetic():
    model = build_model("t", [
        cls_of([method("a"), method("b")], name="A"),
        cls_of([method(f"m{i}") for i in range(4)], name="B"),
    ])
    assert compute_all(model).means["WMC"] == 3.0


def test_compute_all_excludes_externals_and_sorts():
    model = build_model("t", [
        ClassInfo("b.Z"),
        ClassInfo("a.Y", superclass="ext.Lib"),
        ClassInfo("ext.Lib", is_external=True),
    ])
    pm = compute_all(model)
    assert [r.class_name for r in pm.per_class] == ["a.Y", "b.Z"]


# --- invariants over random models --------------------------------------------

def test_rfc_at_least_wmc():
    rng = random.Random(11)
    for _ in range(200):
        model = random_model(rng)
        for cls in model.internal_classes():
            assert rfc(cls) >= wmc(cls)


def test_dit_parent_child_step():
    rng = random.Random(12)
    for _ in range(200):
        model = random_model(rng)
        for cls in model.classes:
            if cls.superclass is None:
                continue
            parent = model.get(cls.superclass)
            if parent is not None and not parent.is_external:
                assert dit(cls, model) == dit(parent, model) + 1


def test_noc_sums_to_extends_edges():
    rng = random.Random(13)
    for _ in range(200):
        model = random_model(rng)
        pm = compute_all(model)
        edges = sum(1 for c in model.classes
                    if c.superclass is not None
                    and (p := model.get(c.superclass)) is not None
                    and not p.is_external)
        assert sum(r.noc for r in pm.per_class) == edges


def test_lcom_matches_oracle_random():
    rng = random.Random(14)
    for _ in range(300):
        cls = random_class(rng)
        assert lcom(cls) == lcom_oracle(cls)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.frozensets(st.sampled_from("abcdef"), max_size=6), max_size=8))
def test_lcom_matches_oracle_hypothesis(field_sets):
    fields = [FieldInfo(ch) for ch in "abcdef"]
    methods = [method(f"m{i}", used=s) for i, s in enumerate(field_sets)]
    cls = cls_of(methods, fields=fields)
    assert lcom(cls) == lcom_oracle(cls)


def test_lcom_stays_near_linear_in_methods():
    # 40 fields, two used per method; the pair loop this replaced made four
    # times the methods cost sixteen times as much
    def seconds(count: int) -> float:
        rng = random.Random(count)
        fields = [FieldInfo(f"f{k}") for k in range(40)]
        cls = cls_of([method(f"m{i}", used=rng.sample([f.name for f in fields], 2))
                      for i in range(count)], fields=fields)
        best = float("inf")
        for _ in range(5):
            start = perf_counter()
            lcom(cls)
            best = min(best, perf_counter() - start)
        return best

    assert seconds(2000) < 8 * seconds(500)


def test_cbo_matches_oracle_random():
    rng = random.Random(15)
    for _ in range(120):
        model = random_model(rng)
        for cls in model.internal_classes():
            assert cbo(cls, model) == cbo_oracle(cls, model)


def test_dit_matches_oracle_random():
    rng = random.Random(16)
    for _ in range(120):
        model = random_model(rng)
        for cls in model.internal_classes():
            assert dit(cls, model) == dit_oracle(cls, model)


def test_cbo_symmetric_contribution():
    rng = random.Random(17)
    for _ in range(200):
        model = random_model(rng)
        internal = model.internal_classes()
        for a in internal:
            for b in internal:
                if a.qualified_name >= b.qualified_name:
                    continue
                if related_oracle(model, a.qualified_name, b.qualified_name):
                    continue
                crossed = (b.qualified_name in uses_oracle(a)
                           or a.qualified_name in uses_oracle(b))
                if crossed:
                    assert cbo(a, model) >= 1
                    assert cbo(b, model) >= 1


def deep_model(rng: random.Random, max_classes: int, depth: int) -> ClassModel:
    """A random model plus an extends tree ``depth`` classes deep hanging off
    it or off an external stub, its classes using random classes of both."""
    base = random_model(rng, max_classes=max_classes)
    names = [c.qualified_name for c in base.internal_classes()]
    tree: list[ClassInfo] = []
    for i in range(depth):
        if not i:
            superclass = rng.choice(names + ["ext.Root"])
        elif rng.random() < 0.8:
            superclass = f"q.K{i - 1}"
        else:
            superclass = f"q.K{rng.randrange(i)}"
        pool = names + [f"q.K{j}" for j in range(depth)]
        refs = rng.sample(pool, rng.randint(0, min(3, len(pool))))
        calls = [CallRef(rng.choice(pool), "m0", 0) for _ in range(rng.randint(0, 2))]
        tree.append(cls_of([method("m0", calls=calls, refs=refs)],
                           name=f"q.K{i}", superclass=superclass))
    return build_model("deep", list(base.classes) + tree)


def assert_index_metrics_match_oracles(model: ClassModel, rng: random.Random):
    records = by_name(compute_all(model))
    names = [c.qualified_name for c in model.classes]
    for cls in model.internal_classes():
        assert records[cls.qualified_name].values() == (
            len(cls.methods), dit_oracle(cls, model), noc_oracle(cls, model),
            cbo_oracle(cls, model), rfc_oracle(cls), lcom_oracle(cls))
    # a same-name class that is not the model's own object: own uses come
    # from the argument, everything else from the model by name
    for cls in rng.sample(model.internal_classes(), min(3, len(model.internal_classes()))):
        alias = cls._replace(methods=(method("x", refs=rng.sample(names, min(2, len(names)))),))
        assert alias is not model.get(cls.qualified_name)
        assert dit(alias, model) == dit_oracle(alias, model)
        assert noc(alias, model) == noc_oracle(alias, model)
        assert cbo(alias, model) == cbo_oracle(alias, model)
        assert (wmc(alias), rfc(alias), lcom(alias)) == (1, rfc_oracle(alias), 0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(0, 40))
def test_index_metrics_match_oracles_hypothesis(seed, max_classes, depth):
    rng = random.Random(seed)
    assert_index_metrics_match_oracles(deep_model(rng, max_classes, depth), rng)


def test_index_metrics_match_oracles_deep_chain():
    rng = random.Random(20)
    assert_index_metrics_match_oracles(deep_model(rng, 10, 300), rng)


def test_index_terminates_on_unvalidated_cycle():
    # A and B extend each other; C and D hang below the cycle, E beside it.
    # The index raises, naming the cycle as build_model does.
    model = ClassModel("t", (
        cls_of([method("m", refs=["C", "E"])], name="A", superclass="B"),
        cls_of(name="B", superclass="A"),
        cls_of([method("m", refs=["B", "E"])], name="C", superclass="A"),
        cls_of(name="D", superclass="C"),
        cls_of([method("m", refs=["D"])], name="E"),
    ))
    for metric in (dit, noc, cbo):
        for cls in model.classes:
            with pytest.raises(InheritanceCycleError) as err:
                metric(cls, model)
            assert err.value.cycle == ["A", "B"]
    with pytest.raises(InheritanceCycleError):
        compute_all(model)
    with pytest.raises(InheritanceCycleError) as err:
        build_model("t", list(model.classes))
    assert err.value.cycle == ["A", "B"]


def has_extends_cycle(model: ClassModel) -> bool:
    for cls in model.classes:
        seen = set()
        node = model.get(cls.qualified_name)
        while node is not None and node.superclass is not None:
            if node.qualified_name in seen:
                return True
            seen.add(node.qualified_name)
            node = model.get(node.superclass)
    return False


def unvalidated_model(rng: random.Random) -> ClassModel:
    """Cycles through internal and external classes, self-extends, dangling
    superclasses and duplicate names: a model only a hand-built
    ``ClassModel`` can hold."""
    names = [f"p.C{i}" for i in range(rng.randint(1, 12))]
    classes = []
    for name in names + rng.choices(names, k=rng.randint(0, 3)):
        refs = rng.sample(names, rng.randint(0, min(3, len(names))))
        calls = [CallRef(rng.choice(names + [None]), "f", 0) for _ in range(rng.randint(0, 2))]
        classes.append(cls_of(
            [method("m", calls=calls, refs=refs, used=rng.sample("ab", rng.randint(0, 2)))]
            + [method("n", used=["a"])] * rng.randint(0, 1), name=name,
            superclass=rng.choice(names + [None, "gone.X"]),
            external=rng.random() < 0.15))
    return ClassModel("t", tuple(classes))


def test_index_matches_chain_walk_on_unvalidated_models():
    # a model with a cycle raises; every other one matches the oracles
    rng = random.Random(21)
    cycles = 0
    for _ in range(300):
        model = unvalidated_model(rng)
        if has_extends_cycle(model):
            cycles += 1
            for metric in (dit, noc, cbo):
                with pytest.raises(InheritanceCycleError):
                    metric(model.classes[0], model)
            continue
        for cls in model.classes:
            assert dit(cls, model) == dit_walk_oracle(cls, model)
            assert noc(cls, model) == noc_oracle(cls, model)
            assert cbo(cls, model) == cbo_oracle(cls, model)
    assert 0 < cycles < 300


def records_one_by_one(model: ClassModel) -> ProjectMetrics:
    """``compute_all`` as it was: ``compute_record`` per internal class, on a
    copy of the model that shares no index with it."""
    model = ClassModel(model.project_name, model.classes)
    records = tuple(sorted((compute_record(c, model) for c in model.internal_classes()),
                           key=lambda rec: rec.class_name))
    return ProjectMetrics(model.project_name, records, project_means(records))


def assert_compute_all_is_records_one_by_one(model: ClassModel):
    pm = compute_all(model)
    assert pm == records_one_by_one(model)
    assert all(type(rec) is MetricRecord for rec in pm.per_class)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(0, 40))
def test_compute_all_is_the_per_class_records_on_generated_models(seed, max_classes, depth):
    assert_compute_all_is_records_one_by_one(deep_model(random.Random(seed), max_classes, depth))


def test_compute_all_is_the_per_class_records_on_unvalidated_models():
    # duplicate names: an entry that is not the one ``model.get`` returns is
    # a stand-in, with its own uses and its name's depth, children and users
    rng = random.Random(24)
    seen = {"cycle": 0, "stand-in": 0}
    for _ in range(300):
        model = unvalidated_model(rng)
        if has_extends_cycle(model):
            seen["cycle"] += 1
            with pytest.raises(InheritanceCycleError):
                compute_all(model)
            continue
        seen["stand-in"] += any(model.get(c.qualified_name) is not c and not c.is_external
                                for c in model.classes)
        assert_compute_all_is_records_one_by_one(model)
    assert all(seen.values()), seen


def test_index_shared_across_threads():
    # every thread may find the index missing and build its own; each must
    # still read a complete one
    expected = compute_all(deep_model(random.Random(22), 30, 80))
    model = deep_model(random.Random(22), 30, 80)
    results = []
    threads = [threading.Thread(target=lambda: results.append(compute_all(model)))
               for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * len(threads)


def rename_everywhere(model: ClassModel, mapping: dict[str, str]) -> ClassModel:
    def ren(name):
        return mapping.get(name, name) if name is not None else None

    classes = []
    for cls in model.classes:
        methods = tuple(
            MethodInfo(
                name=m.name, arity=m.arity, used_fields=m.used_fields,
                called_methods=frozenset(
                    CallRef(ren(c.class_name), c.method, c.arity)
                    for c in m.called_methods),
                referenced_classes=frozenset(ren(r) for r in m.referenced_classes),
            ) for m in cls.methods)
        fields = tuple(FieldInfo(f.name, ren(f.declared_type)) for f in cls.fields)
        classes.append(ClassInfo(
            qualified_name=ren(cls.qualified_name),
            superclass=ren(cls.superclass),
            interfaces=tuple(ren(i) for i in cls.interfaces),
            fields=fields, methods=methods, is_external=cls.is_external))
    return build_model(model.project_name, classes)


def test_consistent_rename_leaves_metrics_unchanged():
    rng = random.Random(18)
    for _ in range(60):
        model = random_model(rng)
        mapping = {c.qualified_name: f"z.R{i}"
                   for i, c in enumerate(model.classes)}
        renamed = rename_everywhere(model, mapping)
        before = by_name(compute_all(model))
        after = by_name(compute_all(renamed))
        for old_name, record in before.items():
            new = after[mapping[old_name]]
            assert new.values() == record.values()


def test_metric_order_independence_of_computation():
    rng = random.Random(19)
    model = random_model(rng)
    first = compute_all(model)
    second = compute_all(model)
    assert first == second


# --- table round-trips ---------------------------------------------------------

def test_csv_roundtrip(corpus_model):
    pm = compute_all(corpus_model)
    text = metrics_to_csv(pm)
    again = metrics_from_csv(text, project_name=pm.project_name)
    assert again.per_class == pm.per_class
    assert again.means == pm.means


def test_document_roundtrip(corpus_model):
    pm = compute_all(corpus_model)
    doc = metrics_to_document(pm)
    again = metrics_from_document(doc)
    assert again.per_class == pm.per_class
    assert again.project_name == pm.project_name
