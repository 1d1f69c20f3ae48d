from decimal import ROUND_HALF_UP, Decimal
import json
import math
import random
import sys
import threading

from hypothesis import example, given, settings, strategies as st
import pytest

from ckeval.errors import RuleError, RuleOverlapError, UsageError
from ckeval.metrics import METRICS, MetricRecord, ProjectMetrics
from ckeval.rules import (
    BUILTIN_BASES,
    Assessment,
    Fact,
    Interval,
    KnowledgeBase,
    Level,
    Rule,
    ValueSet,
    build_knowledge_base,
    conditions_overlap,
    default_rule_base,
    evaluate_project,
    filter_by_ranges,
    forward_chain,
    load_rules,
    paper_rule_preset,
    resolve_rule_base,
    round_half_up,
    serialize_rules,
)
from ckeval.rules import _load_builtin, _rule_sort_key
from ckeval.tables import metrics_from_csv
from rules_oracle import (oracle_build_knowledge_base, oracle_conditions_overlap,
                          oracle_is_complete, oracle_rule_sort_key)

# The three published example rules, written out pair by pair.
PAPER_DIT_5 = [
    ("inheritanceDepth", Level.NORMAL),
    ("faultLikelihood", Level.LOW),
    ("maintenanceEffort", Level.LOW),
    ("quality", Level.HIGH),
    ("understandability", Level.HIGH),
    ("testability", Level.HIGH),
    ("reusability", Level.HIGH),
    ("complexity", Level.LOW),
]
PAPER_WMC_18 = [
    ("methodCount", Level.HIGH),
    ("faultLikelihood", Level.HIGH),
    ("maintenanceEffort", Level.HIGH),
    ("quality", Level.LOW),
    ("understandability", Level.LOW),
    ("robustness", Level.LOW),
    ("reusability", Level.LOW),
    ("complexity", Level.HIGH),
]
PAPER_CBO_1 = [
    ("coupling", Level.VERY_LOW),
    ("modularDesign", Level.VERY_LOW),
    ("faultLikelihood", Level.VERY_LOW),
    ("maintenanceEffort", Level.VERY_LOW),
    ("quality", Level.VERY_LOW),
    ("understandability", Level.HIGH),
    ("reusability", Level.VERY_LOW),
    ("complexity", Level.VERY_LOW),
]


def one_band_per_metric_doc():
    return {
        "schemaVersion": 1,
        "name": "wide",
        "rules": [
            {"id": f"r-{m}", "metric": m, "range": [0, None],
             "conclusions": [{"attribute": "quality", "level": "Normal"}]}
            for m in METRICS
        ],
    }


def test_level_total_order():
    assert (Level.VERY_LOW < Level.LOW < Level.NORMAL
            < Level.HIGH < Level.VERY_HIGH)


def test_load_one_rule_per_metric():
    kb = load_rules(json.dumps(one_band_per_metric_doc()))
    assert len(kb.rules) == 6
    assert kb.is_complete()


def test_boundary_overlap_rejected():
    doc = one_band_per_metric_doc()
    doc["rules"] = [
        {"id": "a", "metric": "WMC", "range": [0, 5],
         "conclusions": [{"attribute": "quality", "level": "High"}]},
        {"id": "b", "metric": "WMC", "range": [5, 10],
         "conclusions": [{"attribute": "quality", "level": "Low"}]},
    ]
    with pytest.raises(RuleOverlapError) as err:
        load_rules(doc)
    assert err.value.value == 5
    assert {err.value.first, err.value.second} == {"a", "b"}


def test_value_set_interval_overlap_rejected():
    doc = one_band_per_metric_doc()
    doc["rules"] = [
        {"id": "a", "metric": "LCOM", "range": [0, 5],
         "conclusions": [{"attribute": "quality", "level": "High"}]},
        {"id": "b", "metric": "LCOM", "values": [3, 9],
         "conclusions": [{"attribute": "quality", "level": "Low"}]},
    ]
    with pytest.raises(RuleOverlapError) as err:
        load_rules(doc)
    assert err.value.value == 3


def test_attribute_outside_the_vocabulary_rejected():
    doc = one_band_per_metric_doc()
    doc["rules"][2]["conclusions"].append({"attribute": "elegance", "level": "High"})
    with pytest.raises(RuleError, match=r"rule 'r-NOC': unregistered attribute 'elegance'"):
        load_rules(doc)


def test_empty_base_rejected():
    with pytest.raises(RuleError):
        load_rules({"schemaVersion": 1, "name": "x", "rules": []})


def test_default_base_has_42_rules():
    kb = default_rule_base()
    assert len(kb.rules) == 42
    for metric in METRICS:
        assert len(kb.rules_for(metric)) == 7


def test_default_base_disjoint_and_complete_scan():
    kb = default_rule_base()
    assert kb.is_complete()
    for metric in METRICS:
        rules = kb.rules_for(metric)
        for v in range(0, 1001):
            assert sum(1 for r in rules if r.matches(v)) == 1, (metric, v)


def test_default_dit_band_with_5_concludes_low_complexity():
    kb = default_rule_base()
    rule = kb.match("DIT", 5)
    assert rule is not None
    assert ("complexity", Level.LOW) in rule.conclusions


def test_default_base_conventional_cbo():
    kb = default_rule_base()
    rule = kb.match("CBO", 1)
    assert dict(rule.conclusions)["quality"] == Level.HIGH
    assert dict(rule.conclusions)["coupling"] == Level.VERY_LOW


def test_paper_preset_encodes_rules_verbatim():
    kb = paper_rule_preset()
    assert len(kb.rules) == 3
    assert list(kb.match("DIT", 5).conclusions) == PAPER_DIT_5
    assert list(kb.match("WMC", 18).conclusions) == PAPER_WMC_18
    assert list(kb.match("CBO", 1).conclusions) == PAPER_CBO_1
    assert not kb.is_complete()


def test_paper_preset_single_fact_assessments():
    kb = paper_rule_preset()
    for metric, value, expected in (("DIT", 5, PAPER_DIT_5),
                                    ("WMC", 18, PAPER_WMC_18),
                                    ("CBO", 1, PAPER_CBO_1)):
        out = forward_chain([Fact(metric, value, "c")], kb)
        assert len(out) == 1
        assert out[0].pairs() == expected
        assert len(out[0].fired_rules) == 1


def test_forward_chain_no_facts():
    assert forward_chain([], paper_rule_preset()) == []


def test_forward_chain_dit_5_fires_one_rule_with_8_pairs():
    out = forward_chain([Fact("DIT", 5, "c")], paper_rule_preset())
    assert out[0].fired_rules == ["paper-1"]
    assert len(out[0].derived) == 8


def test_forward_chain_last_writer_wins():
    # applied by hand: WMC=18 fires paper-2, then CBO=1 fires paper-3;
    # the six shared attributes keep paper-3's levels
    out = forward_chain([Fact("WMC", 18, "c"), Fact("CBO", 1, "c")],
                        paper_rule_preset())
    a = out[0]
    assert a.fired_rules == ["paper-2", "paper-3"]
    assert a.derived == {
        "methodCount": Level.HIGH,
        "robustness": Level.LOW,
        "coupling": Level.VERY_LOW,
        "modularDesign": Level.VERY_LOW,
        "faultLikelihood": Level.VERY_LOW,
        "maintenanceEffort": Level.VERY_LOW,
        "quality": Level.VERY_LOW,
        "understandability": Level.HIGH,
        "reusability": Level.VERY_LOW,
        "complexity": Level.VERY_LOW,
    }
    assert a.derived_by["quality"] == "paper-3"
    assert a.derived_by["methodCount"] == "paper-2"


def test_forward_chain_scopes_follow_fact_order():
    kb = paper_rule_preset()
    out = forward_chain([Fact("DIT", 5, "b"), Fact("DIT", 5, "a")], kb)
    assert [a.scope for a in out] == ["b", "a"]


def test_forward_chain_negative_fact_rejected():
    with pytest.raises(RuleError):
        forward_chain([Fact("WMC", -1, "c")], default_rule_base())


def test_unmatched_fact_fires_nothing():
    out = forward_chain([Fact("WMC", 3, "c")], paper_rule_preset())
    assert out[0].fired_rules == []
    assert out[0].derived == {}


def test_rule_trace_indexes_conclusions():
    kb = default_rule_base()
    out = forward_chain([Fact(m, v, "c") for m, v in
                         zip(METRICS, (4, 1, 0, 6, 9, 4))], kb)
    a = out[0]
    by_id = {r.id: r for r in kb.rules}
    for attribute, level in a.pairs():
        rule = by_id[a.derived_by[attribute]]
        assert (attribute, level) in rule.conclusions


def test_evaluate_project_class_scope_six_fired():
    pm = metrics_from_csv(
        "CLASS,WMC,DIT,NOC,CBO,RFC,LCOM\n"
        "moreUnit.actions.CreateTestMethodE,4,1,0,6,9,4\n")
    out = evaluate_project(pm, default_rule_base(), scope="class")
    assert len(out) == 1
    assert len(out[0].fired_rules) == 6


def test_evaluate_project_empty_project_scope():
    pm = metrics_from_csv("CLASS,WMC,DIT,NOC,CBO,RFC,LCOM\n")
    out = evaluate_project(pm, default_rule_base(), scope="project")
    assert len(out) == 1
    assert out[0].scope == "project"
    assert len(out[0].fired_rules) == 6  # all-zero means still match bands


def test_evaluate_project_identical_classes_identical_assessments():
    pm = metrics_from_csv(
        "CLASS,WMC,DIT,NOC,CBO,RFC,LCOM\nA,4,1,0,6,9,4\nB,4,1,0,6,9,4\n")
    out = evaluate_project(pm, default_rule_base(), scope="class")
    assert len(out) == 2
    assert out[0].derived == out[1].derived
    assert out[0].fired_rules == out[1].fired_rules


def test_evaluate_project_rejects_unknown_scope():
    pm = metrics_from_csv("CLASS,WMC,DIT,NOC,CBO,RFC,LCOM\nA,1,0,0,0,1,0\n")
    with pytest.raises(UsageError):
        evaluate_project(pm, default_rule_base(), scope="module")


def test_project_scope_rounds_half_up():
    assert round_half_up(2.5) == 3
    assert round_half_up(2.4) == 2
    assert round_half_up(0.0) == 0
    pm = metrics_from_csv(
        "CLASS,WMC,DIT,NOC,CBO,RFC,LCOM\nA,5,0,0,0,5,0\nB,6,0,0,0,5,0\n")
    out = evaluate_project(pm, default_rule_base(), scope="project")
    # WMC mean 5.5 rounds to 6, which falls in the 6-10 band
    assert "wmc-below-normal" in out[0].fired_rules


def decimal_round_half_up(value: float) -> int:
    """The Decimal form round_half_up replaced, kept as its oracle below 2**53:
    the shortest repr of value, rounded with a half away from zero."""
    return int(Decimal(str(value)).quantize(Decimal("1"), rounding=ROUND_HALF_UP))


@st.composite
def near_halves(draw):
    """A float at n + 0.5 or one step either side of it, of either sign."""
    half = draw(st.integers(0, 2**52 - 1)) + 0.5
    near = draw(st.sampled_from([math.nextafter(half, 0), half,
                                 math.nextafter(half, math.inf)]))
    return draw(st.sampled_from([near, -near]))


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.floats(-(2.0**53), 2.0**53, exclude_max=True, exclude_min=True),
                 near_halves()))
@example(0.49999999999999994)
@example(-0.49999999999999994)
@example(-0.0)
@example(2.0**52 - 0.5)
def test_round_half_up_matches_decimal_rounding(value):
    assert round_half_up(value) == decimal_round_half_up(value)


@pytest.mark.parametrize("value", [2.0**53, 2.0**60 + 2**8, 1e28, 1e29, sys.float_info.max])
def test_round_half_up_returns_large_floats_as_their_integers(value):
    # every float from 2**53 up is an integer
    assert round_half_up(value) == int(value)
    assert round_half_up(-value) == -int(value)


def test_filter_by_ranges_published_rows(fixtures):
    pm = metrics_from_csv((fixtures / "moreunit_classes.csv").read_text(encoding="utf-8"))
    result = filter_by_ranges(pm, {
        "WMC": Interval(2, 5),
        "LCOM": ValueSet(frozenset({0, 1, 2})),
    })
    by_metric = {f.metric: f for f in result}
    wmc_in = sorted(r.wmc for r in by_metric["WMC"].in_range)
    wmc_out = sorted(r.wmc for r in by_metric["WMC"].out_of_range)
    assert wmc_in == [4, 4, 4, 4, 5]
    assert wmc_out == [8, 9]
    lcom_in = [r.lcom for r in by_metric["LCOM"].in_range]
    lcom_out = sorted(r.lcom for r in by_metric["LCOM"].out_of_range)
    assert lcom_in == [0]
    assert lcom_out == [4, 4, 4, 6, 22, 36]


def test_filter_full_cover_leaves_nothing_outside(fixtures):
    pm = metrics_from_csv((fixtures / "moreunit_classes.csv").read_text(encoding="utf-8"))
    result = filter_by_ranges(pm, {"RFC": Interval(0, None)})
    assert result[0].out_of_range == ()
    assert len(result[0].in_range) == 7


def test_filter_empty_selection_rejected(fixtures):
    pm = metrics_from_csv((fixtures / "moreunit_classes.csv").read_text(encoding="utf-8"))
    with pytest.raises(UsageError):
        filter_by_ranges(pm, {})


def test_storage_order_does_not_change_inference():
    doc = json.loads(serialize_rules(default_rule_base()))
    rng = random.Random(4)
    rng.shuffle(doc["rules"])
    shuffled = load_rules(doc)
    facts = [Fact(m, v, "c") for m, v in zip(METRICS, (3, 2, 1, 9, 14, 7))]
    a = forward_chain(facts, default_rule_base())[0]
    b = forward_chain(facts, shuffled)[0]
    assert a.derived == b.derived
    assert a.fired_rules == b.fired_rules


def test_monotonic_extension():
    base_doc = {
        "schemaVersion": 1, "name": "partial",
        "rules": [{"id": "low", "metric": "WMC", "range": [0, 9],
                   "conclusions": [{"attribute": "quality", "level": "High"}]}],
    }
    extended_doc = {
        "schemaVersion": 1, "name": "extended",
        "rules": base_doc["rules"] + [
            {"id": "high", "metric": "WMC", "range": [10, None],
             "conclusions": [{"attribute": "quality", "level": "Low"}]}],
    }
    base = load_rules(json.dumps(base_doc))
    extended = load_rules(json.dumps(extended_doc))
    for v in range(0, 10):
        a = forward_chain([Fact("WMC", v, "c")], base)[0]
        b = forward_chain([Fact("WMC", v, "c")], extended)[0]
        assert a.derived == b.derived


def test_rules_roundtrip():
    for kb in (default_rule_base(), paper_rule_preset()):
        again = load_rules(serialize_rules(kb))
        assert again.rules == kb.rules
        assert again.name == kb.name


def _random_band_doc(rng: random.Random) -> dict:
    """A random valid base: disjoint integer bands per metric."""
    rules = []
    for metric in METRICS:
        cursor = 0
        for band in range(rng.randint(1, 5)):
            width = rng.randint(0, 6)
            rules.append({
                "id": f"{metric}-{band}", "metric": metric,
                "range": [cursor, cursor + width],
                "conclusions": [{"attribute": "quality", "level": "Normal"}],
            })
            cursor += width + rng.randint(1, 3)
    return {"schemaVersion": 1, "name": "rand", "rules": rules}


def test_accepted_bases_fire_at_most_one_rule_per_value():
    rng = random.Random(77)
    for _ in range(20):
        kb = load_rules(_random_band_doc(rng))
        for metric in METRICS:
            rules = kb.rules_for(metric)
            for v in range(0, 60):
                assert sum(1 for r in rules if r.matches(v)) <= 1
    # paper preset is sparse but still at most one
    kb = paper_rule_preset()
    for metric in METRICS:
        rules = kb.rules_for(metric)
        for v in range(0, 120):
            assert sum(1 for r in rules if r.matches(v)) <= 1


# --- memoized matching and class-scope chaining against the linear scan --------

def scan_oracle(kb: KnowledgeBase, metric: str, value) -> Rule | None:
    for rule in kb.rules:
        if rule.metric == metric and rule.matches(value):
            return rule
    return None


def chain_oracle(facts: list[Fact], kb: KnowledgeBase) -> list[Assessment]:
    """forward_chain as first written: a Fact at a time, each rule scanned."""
    assessments: dict[str, Assessment] = {}
    for fact in facts:
        if fact.value < 0:
            raise RuleError(f"fact {fact.metric}={fact.value} is negative")
        if fact.metric not in METRICS:
            raise RuleError(f"fact has unknown metric {fact.metric!r}")
        scope = assessments.setdefault(fact.scope, Assessment(fact.scope, {}, {}, []))
        rule = scan_oracle(kb, fact.metric, fact.value)
        if rule is None:
            continue
        scope.fired_rules.append(rule.id)
        for attribute, level in rule.conclusions:
            scope.derived[attribute] = level
            scope.derived_by[attribute] = rule.id
    return list(assessments.values())


def outcome(run):
    """What a chaining run gives, dict orders included, or the error it raises."""
    try:
        result = run()
    except (RuleError, TypeError) as exc:  # TypeError: an unhashable value in a value set
        return (type(exc).__name__, str(exc))
    return [(a.scope, list(a.derived.items()), list(a.derived_by.items()), a.fired_rules)
            for a in result]


class Unhashable(float):
    __hash__ = None


ATTRIBUTE_NAMES = ["quality", "coupling", "complexity", "testability"]
bounds = st.integers(0, 30)
conditions = st.one_of(
    st.tuples(bounds, st.one_of(st.none(), bounds)).map(
        lambda b: Interval(b[0]) if b[1] is None else Interval(min(b), max(b))),
    st.tuples(bounds, st.floats(0, 30)).map(lambda b: Interval(b[1], b[1] + b[0] / 4)),
    st.frozensets(st.one_of(bounds, st.floats(0, 30)), min_size=1, max_size=4).map(ValueSet),
)
hand_built_rules = st.lists(
    st.tuples(st.sampled_from(METRICS), conditions,
              st.lists(st.tuples(st.sampled_from(ATTRIBUTE_NAMES), st.sampled_from(list(Level))),
                       min_size=1, max_size=4)),
    max_size=14)


@st.composite
def knowledge_bases(draw):
    kind = draw(st.sampled_from(["hand-built", "default", "paper", "bands"]))
    if kind == "default":
        return default_rule_base()
    if kind == "paper":
        return paper_rule_preset()
    if kind == "bands":
        return load_rules(_random_band_doc(random.Random(draw(st.integers(0, 999)))))
    # overlapping and unordered: the first rule in storage order wins
    rules = [Rule(f"r{i}", metric, condition, tuple(conclusions))
             for i, (metric, condition, conclusions) in enumerate(draw(hand_built_rules))]
    return KnowledgeBase(name="hand", rules=tuple(rules))


values = st.one_of(st.integers(0, 40), st.integers(0, 40).map(float),
                   st.floats(0, 40), st.sampled_from([math.nan, math.inf, True, 1e30]),
                   st.integers(0, 40).map(Unhashable))
facts = st.lists(st.builds(Fact, st.sampled_from(METRICS),
                           st.one_of(values, st.integers(-3, -1)),
                           st.sampled_from(["p.A", "p.B", "p.C", "project"])),
                 max_size=40)


@st.composite
def records(draw):
    """Metric rows with repeated class names and, now and then, a negative value."""
    rows = draw(st.lists(st.tuples(st.sampled_from(["p.A", "p.B", "p.C", "p.D"]),
                                   st.lists(st.integers(0, 40), min_size=6, max_size=6)),
                         max_size=12))
    if rows and draw(st.integers(0, 4)) == 0:
        row, column = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 5))
        rows[row][1][column] = -1
    return [MetricRecord(name, *cells) for name, cells in rows]


@settings(max_examples=200, deadline=None)
@given(knowledge_bases(), st.lists(st.tuples(st.sampled_from(METRICS), values), max_size=60))
def test_memoized_match_is_the_linear_scan(kb, queries):
    before = repr(kb)
    for metric, value in queries + queries:  # the second pass reads the memo
        try:
            expected = scan_oracle(kb, metric, value)
        except TypeError:  # an unhashable value against a value set
            with pytest.raises(TypeError):
                kb.match(metric, value)
            continue
        assert kb.match(metric, value) is expected
    assert repr(kb) == before
    assert kb == KnowledgeBase(name=kb.name, rules=kb.rules)


@settings(max_examples=200, deadline=None)
@given(knowledge_bases(), facts)
def test_forward_chain_matches_oracle(kb, fact_list):
    assert outcome(lambda: forward_chain(fact_list, kb)) \
        == outcome(lambda: chain_oracle(fact_list, kb))


@settings(max_examples=200, deadline=None)
@given(knowledge_bases(), records())
def test_class_scope_chaining_matches_forward_chain(kb, rows):
    pm = ProjectMetrics(project_name="p", per_class=tuple(rows), means={})
    as_facts = [Fact(m, rec.value(m), rec.class_name) for rec in rows for m in METRICS]
    expected = outcome(lambda: chain_oracle(as_facts, kb))
    assert outcome(lambda: evaluate_project(pm, kb, "class")) == expected
    assert outcome(lambda: forward_chain(as_facts, kb)) == expected


# any fact value: ints, floats, NaN, the paper rules' values, now and then a negative
record_values = st.one_of(values, st.sampled_from([1, 5, 18, 5.0, 18.0, -0.0]),
                          st.integers(0, 10) | st.integers(-2, -1) | st.floats(-2, -0.1))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(BUILTIN_BASES).map(resolve_rule_base) | knowledge_bases(),
       st.lists(st.tuples(st.sampled_from(["p.A", "p.B", "p.C"]),
                          st.lists(record_values, min_size=6, max_size=6)), max_size=10))
def test_class_scope_chaining_of_any_values_is_forward_chain(kb, rows):
    per_class = tuple(MetricRecord(name, *cells) for name, cells in rows)
    pm = ProjectMetrics(project_name="p", per_class=per_class, means={})
    as_facts = [Fact(m, v, rec.class_name) for rec in per_class
                for m, v in zip(METRICS, rec.values())]
    assert outcome(lambda: evaluate_project(pm, kb, "class")) \
        == outcome(lambda: forward_chain(as_facts, kb))


def test_class_scope_chaining_examples():
    nan = math.nan
    pm = ProjectMetrics("p", (MetricRecord("p.A", 18, 5, 0, 7, 2, nan),
                              MetricRecord("p.B", 18.0, 0, 0, 1, nan, 0),
                              MetricRecord("p.A", 3, 5.0, 0, 1, 0, 0)), {})
    # the paper base has rules for WMC=18, DIT=5 and CBO=1 only; duplicate names merge
    out = evaluate_project(pm, paper_rule_preset(), "class")
    assert [(a.scope, a.fired_rules) for a in out] == [
        ("p.A", ["paper-2", "paper-1", "paper-1", "paper-3"]),
        ("p.B", ["paper-2", "paper-3"])]
    facts = [Fact(m, v, rec.class_name) for rec in pm.per_class
             for m, v in zip(METRICS, rec.values())]
    for kb in (default_rule_base(), paper_rule_preset()):
        assert outcome(lambda: evaluate_project(pm, kb, "class")) \
            == outcome(lambda: forward_chain(facts, kb))
    for bad, message in (((1, -2, 0, 0, 0, -1), "fact DIT=-2 is negative"),
                         ((1, 0, 0, -0.5, 0, 0), "fact CBO=-0.5 is negative")):
        pm = ProjectMetrics("p", (MetricRecord("p.A", 1, 0, 0, 0, 1, 0),
                                  MetricRecord("p.B", *bad)), {})
        with pytest.raises(RuleError, match=f"^{message}$"):
            evaluate_project(pm, default_rule_base(), "class")


# --- the column path of evaluate_project against the oracle ---------------------

def effect_of(rule: Rule | None) -> tuple[tuple, dict, dict]:
    """What firing ``rule`` asserts: (rule ids, {attribute: level}, {attribute: id})."""
    if rule is None:
        return (), {}, {}
    return (rule.id,), dict(rule.conclusions), {a: rule.id for a, _ in rule.conclusions}


def assert_table_holds_the_scan(kb: KnowledgeBase, keys) -> None:
    """Each of keys that the base's table holds maps to the effect of the
    rule the scan finds, one object per rule; NaN, unhashable and negative
    values are not held."""
    table = kb._effect_table
    effect_by_rule = {}
    for metric, value in keys:
        if isinstance(value, Unhashable):
            continue
        if value != value or value < 0:
            assert (metric, value) not in table
        elif (metric, value) in table:
            rule = scan_oracle(kb, metric, value)
            assert table[metric, value] == effect_of(rule)
            assert table[metric, value] is effect_by_rule.setdefault(
                None if rule is None else id(rule), table[metric, value])


means = st.tuples(*[st.floats(0, 40) | st.floats(-3, 0) | st.integers(0, 40)] * 6)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BUILTIN_BASES).map(resolve_rule_base) | knowledge_bases(),
       st.lists(st.tuples(st.sampled_from(["p.A", "p.B", "p.C", "p.D"]),
                          st.lists(record_values, min_size=6, max_size=6)), max_size=10),
       means)
@example(paper_rule_preset(), [], (0, 0, 0, 0, 0, 0))
@example(default_rule_base(), [("p.A", [1, 0, 0, 0, 0, -1]), ("p.B", [-2, 0, 0, 0, 0, 0])],
         (1, 2, 3, 4, 5, 6))
@example(default_rule_base(), [("p.A", [1, 0, 0, 0, 0, math.nan]), ("p.B", [1, 0, 0, -1, 0, 0])],
         (1, 2, 3, 4, 5, 6))
@example(default_rule_base(), [("p.A", [1, math.nan, 0, 0, 0, 2]), ("p.B", [1, 0, 0, 0, 0, 0])],
         (1, 2, 3, 4, 5, 6))
@example(default_rule_base(), [("p.B", [1, 0, 3, 0, 0, 2]), ("p.A", [0, 0, 0, 0, 0, 0]),
                               ("p.B", [4, 5.0, 0, 9, 1, 0])], (1, 2, 3, 4, 5, 6))
def test_both_scopes_chain_as_the_oracle(kb, rows, row_means):
    """Any rows: repeated class names merge, the first faulty fact in row
    order raises, NaN and unhashable values match as the scan does."""
    per_class = tuple(MetricRecord(name, *cells) for name, cells in rows)
    pm = ProjectMetrics("p", per_class, dict(zip(METRICS, row_means)))
    class_facts = [Fact(m, v, rec.class_name) for rec in per_class
                   for m, v in zip(METRICS, rec.values())]
    project_facts = [Fact(m, round_half_up(pm.means[m])) for m in METRICS]
    for scope, fact_list in (("class", class_facts), ("project", project_facts)):
        expected = outcome(lambda: chain_oracle(fact_list, kb))
        for _ in range(2):  # the second call reads what the first one kept
            assert outcome(lambda: evaluate_project(pm, kb, scope)) == expected
        assert_table_holds_the_scan(kb, [(f.metric, f.value) for f in fact_list])


def test_assessments_share_no_dict_or_list():
    # few distinct values, so rows meet the same effects and the same pairs
    rng = random.Random(3)
    pm = ProjectMetrics("p", tuple(MetricRecord(f"p.C{i}", *(rng.randrange(3) for _ in METRICS))
                                   for i in range(60)), dict.fromkeys(METRICS, 1.0))
    kb = default_rule_base()
    made = [a for _ in range(2) for scope in ("class", "project")
            for a in evaluate_project(pm, kb, scope)]
    objects = [id(o) for a in made for o in (a.derived, a.derived_by, a.fired_rules)]
    effects = {id(effect): effect for effect in kb._effect_table.values()}.values()
    objects += [id(d) for effect in effects for d in effect[1:]]
    assert len(set(objects)) == len(objects)
    made[0].derived.clear()
    made[0].fired_rules.append("x")
    assert outcome(lambda: evaluate_project(pm, kb, "class")) == outcome(lambda: chain_oracle(
        [Fact(m, rec.value(m), rec.class_name) for rec in pm.per_class for m in METRICS], kb))


@settings(max_examples=200, deadline=None)
@given(records(), st.dictionaries(st.sampled_from(METRICS), conditions, min_size=1))
def test_filter_by_ranges_partitions_the_rows_in_order(rows, selection):
    pm = ProjectMetrics(project_name="p", per_class=tuple(rows), means={})
    result = filter_by_ranges(pm, selection)
    assert [f.metric for f in result] == [m for m in METRICS if m in selection]
    row_of = {id(record): row for row, record in enumerate(rows)}
    for f in result:
        assert f.condition is selection[f.metric]
        inside = [row_of[id(record)] for record in f.in_range]
        outside = [row_of[id(record)] for record in f.out_of_range]
        assert inside == sorted(inside) and outside == sorted(outside)
        assert sorted(inside + outside) == list(range(len(rows)))
        assert all(f.condition.matches(rows[row].value(f.metric)) for row in inside)
        assert not any(f.condition.matches(rows[row].value(f.metric)) for row in outside)


def test_builtin_bases_are_loaded_once_and_files_on_every_call(tmp_path):
    for name in BUILTIN_BASES:
        first = resolve_rule_base(name)
        assert resolve_rule_base(name) is first
        assert _load_builtin.__wrapped__(name) == first  # a fresh read of the package data
    assert default_rule_base() is resolve_rule_base("default")
    assert paper_rule_preset() is resolve_rule_base("paper")

    path = tmp_path / "rules.json"
    document = json.loads(serialize_rules(paper_rule_preset()))
    path.write_text(json.dumps(document), encoding="utf-8")
    before = resolve_rule_base(str(path))
    document["rules"] = document["rules"][:1]
    path.write_text(json.dumps(document), encoding="utf-8")
    after = resolve_rule_base(str(path))
    assert len(before.rules) == 3 and len(after.rules) == 1


# --- the effect table each base keeps ------------------------------------------

def wmc_bands(name: str, bands) -> KnowledgeBase:
    return load_rules({"name": name, "rules": [
        {"id": f"{name}-{i}", "metric": "WMC", "range": band,
         "conclusions": [{"attribute": "quality", "level": level}]}
        for i, (band, level) in enumerate(bands)]})


@settings(max_examples=100, deadline=None)
@given(knowledge_bases(), knowledge_bases(), facts)
def test_effect_table_repeated_and_interleaved_calls_match_oracle(kb, other, fact_list):
    expected = outcome(lambda: chain_oracle(fact_list, kb))
    other_expected = outcome(lambda: chain_oracle(fact_list, other))
    for _ in range(3):  # the later calls read what the first ones kept
        assert outcome(lambda: forward_chain(fact_list, kb)) == expected
        assert outcome(lambda: forward_chain(fact_list, other)) == other_expected


def test_effect_tables_are_kept_per_base():
    low = wmc_bands("low", [([0, 4], "High"), ([5, None], "Low")])
    high = wmc_bands("high", [([0, 9], "Normal"), ([10, None], "VeryLow")])
    twin = KnowledgeBase(name=low.name, rules=low.rules)
    facts = [Fact("WMC", v, f"p.C{i}") for i, v in enumerate((0, 3, 5, 9, 10, 3.0, True))]
    for _ in range(2):
        for kb in (low, high, twin, low):
            assert outcome(lambda: forward_chain(facts, kb)) \
                == outcome(lambda: chain_oracle(facts, kb))
    assert low == twin and repr(low) == repr(twin) and hash(low) == hash(twin)
    assert low._effect_table is not twin._effect_table
    assert low._effect_table[("WMC", 9)][0] == ("low-1",)
    assert high._effect_table[("WMC", 9)][0] == ("high-0",)


@pytest.mark.parametrize("bad, message", [
    (Fact("WMC", -1), "fact WMC=-1 is negative"),
    (Fact("CBO", -0.5), "fact CBO=-0.5 is negative"),
    (Fact("NOM", 3), "fact has unknown metric 'NOM'"),
])
def test_faulty_fact_raises_on_every_call(bad, message):
    kb = wmc_bands("fresh", [([0, None], "Normal")])
    for base in (kb, default_rule_base(), paper_rule_preset()):
        for fact_list in ([bad], [Fact("WMC", 3), bad], [bad, Fact("WMC", 3)]):
            for _ in range(3):
                assert outcome(lambda: forward_chain(fact_list, base)) \
                    == outcome(lambda: chain_oracle(fact_list, base)) \
                    == ("RuleError", message)
        assert (bad.metric, bad.value) not in base._effect_table
    assert list(kb._effect_table) == [("WMC", 3)]


def test_nan_and_unhashable_values_add_no_entry():
    kb = KnowledgeBase(name="hand", rules=(
        Rule("r", "WMC", ValueSet(frozenset({3.0})), (("quality", Level.LOW),)),
        Rule("s", "DIT", Interval(0), (("coupling", Level.HIGH),))))
    nan = math.nan
    odd = [Fact("WMC", nan), Fact("DIT", nan), Fact("DIT", float("nan")),
           Fact("DIT", Unhashable(1)), Fact("RFC", nan)]
    for fact_list in (odd, odd + [Fact("WMC", Unhashable(3))]):
        for _ in range(2):
            assert outcome(lambda: forward_chain(fact_list, kb)) \
                == outcome(lambda: chain_oracle(fact_list, kb))
    assert kb._effect_table == {}
    pm = ProjectMetrics("p", (MetricRecord("p.A", nan, nan, nan, nan, nan, nan),), {})
    evaluate_project(pm, kb, "class")
    assert kb._effect_table == {}
    # hashable values that equal themselves are kept, equal keys once
    fact_list = odd + [Fact("WMC", 3), Fact("WMC", 3.0), Fact("DIT", True), Fact("DIT", 1)]
    assert outcome(lambda: forward_chain(fact_list, kb)) \
        == outcome(lambda: chain_oracle(fact_list, kb))
    assert kb._effect_table == {("WMC", 3): effect_of(kb.rules[0]),
                                ("DIT", True): effect_of(kb.rules[1])}


def test_a_base_shared_across_threads_chains_as_the_oracle():
    kb = load_rules(serialize_rules(default_rule_base()))  # a fresh, empty table
    rng = random.Random(7)
    fact_lists = [[Fact(rng.choice(METRICS), rng.choice([rng.randrange(80), rng.randrange(80) / 4]),
                        f"p.C{i % 7}") for i in range(300)] for _ in range(8)]
    expected = [outcome(lambda f=f: chain_oracle(f, kb)) for f in fact_lists]
    results = [None] * len(fact_lists)

    def chain_repeatedly(i):
        results[i] = [outcome(lambda: forward_chain(fact_lists[i], kb)) for _ in range(5)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=chain_repeatedly, args=(i,))
                   for i in range(len(fact_lists))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[want] * 5 for want in expected]
    assert kb._effect_table
    for (metric, value), effect in kb._effect_table.items():
        rule = scan_oracle(kb, metric, value)
        assert effect == effect_of(rule)


# --- conditions read through their bounds, against the type switches ------------

large_bounds = st.one_of(st.integers(0, 10**20), st.floats(0, 1e300),
                         st.sampled_from([10**20, 1e20, 1e300, 2**53 + 1, float(2**53)]))
any_conditions = st.one_of(
    conditions,
    st.tuples(large_bounds, st.one_of(st.none(), large_bounds)).map(
        lambda b: Interval(b[0]) if b[1] is None else Interval(min(b), max(b))),
    st.frozensets(st.one_of(bounds, large_bounds), min_size=1, max_size=6).map(ValueSet),
)


@st.composite
def covering_rules(draw):
    """Rules whose bands cover the integers from 0 up, as intervals that may
    end half way to the next band, value sets and an open or huge last band;
    now and then one band is dropped or moved, which leaves a gap."""
    rules = []
    for metric in METRICS:
        cuts = sorted(draw(st.sets(st.integers(1, 40), max_size=5)))
        for lo, hi in zip([0, *cuts], cuts):
            rules.append((metric, draw(st.sampled_from([
                Interval(lo, hi - 1), Interval(float(lo), hi - 0.5),
                ValueSet(frozenset(range(lo, hi)))]))))
        last = cuts[-1] if cuts else 0
        rules.append((metric, Interval(last, draw(st.sampled_from([None] * 11 + [1e300])))))
    now_and_then = st.sampled_from([False] * 3 + [True])
    if draw(now_and_then):
        del rules[draw(st.integers(0, len(rules) - 1))]
    if draw(now_and_then):
        i = draw(st.integers(0, len(rules) - 1))
        rules[i] = (rules[i][0], draw(any_conditions))
    return [Rule(f"r{i}", metric, condition, (("quality", Level.NORMAL),))
            for i, (metric, condition) in enumerate(rules)]


def g_text(value):
    return None if value is None else f"{value:g}"


def rules_or_error(build, rules):
    """The rules of the base that ``build`` makes, or the type and text of
    the error it raises."""
    try:
        return build("hand", rules).rules
    except RuleError as exc:
        return (type(exc).__name__, str(exc))


@settings(max_examples=300, deadline=None)
@given(any_conditions, any_conditions)
@example(Interval(0, 5), ValueSet(frozenset([5.0, 3])))
@example(Interval(10**20), ValueSet(frozenset([1e20])))
@example(Interval(1e300, 1e300), Interval(0))
@example(ValueSet(frozenset([2**53 + 1])), Interval(float(2**53), float(2**53)))
def test_overlap_from_bounds_is_the_type_switch(a, b):
    for first, second in ((a, b), (b, a)):
        got = conditions_overlap(first, second)
        want = oracle_conditions_overlap(first, second)
        assert (got, g_text(got)) == (want, g_text(want))


@settings(max_examples=300, deadline=None)
@given(st.one_of(covering_rules(),
                 hand_built_rules.map(lambda drawn: [
                     Rule(f"r{i}", metric, condition, tuple(conclusions))
                     for i, (metric, condition, conclusions) in enumerate(drawn)]),
                 st.lists(st.tuples(st.sampled_from(METRICS), any_conditions), max_size=14).map(
                     lambda drawn: [Rule(f"r{i}", metric, condition, (("quality", Level.LOW),))
                                    for i, (metric, condition) in enumerate(drawn)])))
def test_cover_and_order_from_bounds_are_the_type_switch(rules):
    kb = KnowledgeBase(name="hand", rules=tuple(rules))
    assert kb.is_complete() == oracle_is_complete(kb)
    assert list(map(_rule_sort_key, rules)) == list(map(oracle_rule_sort_key, rules))
    assert rules_or_error(build_knowledge_base, rules) \
        == rules_or_error(oracle_build_knowledge_base, rules)


invalid_conditions = st.tuples(bounds, bounds).filter(lambda b: b[0] != b[1]).map(
    lambda b: Interval(max(b), min(b)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abcdefghij"),
                          st.sampled_from(METRICS[:2]),
                          st.one_of(any_conditions, invalid_conditions),
                          st.sampled_from(["quality"] * 6 + ["coupling", "elegance"])),
                max_size=8))
def test_rule_base_errors_come_as_from_the_type_switch(drawn):
    """Duplicate ids, unregistered attributes, invalid ranges and overlaps:
    the same error, with the same text, raised first."""
    rules = [Rule(rule_id, metric, condition, ((attribute, Level.HIGH),))
             for rule_id, metric, condition, attribute in drawn]
    assert rules_or_error(build_knowledge_base, rules) \
        == rules_or_error(oracle_build_knowledge_base, rules)
