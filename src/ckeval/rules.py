"""If-then metric rules and the forward-chaining evaluator.

A rule maps one metric band (closed interval or explicit value set) to
quality-attribute conclusions. Bands of one metric are pairwise disjoint,
so a fact fires at most one rule; chaining is data driven: facts are taken
in input order and each match asserts its conclusions immediately.

Two bases ship with the package: ``default`` (42 rules, 6 metrics x 7
disjoint bands covering every non-negative value) and ``paper`` (the three
published example rules, encoded verbatim). Band thresholds live in the
rules files, not in code, and users may load their own.

Each base keeps one effect function, whose bounded cache holds the
effects of the facts it saw last; it alone matches facts and builds
effects. ``evaluate_project`` reads its rows a column at a time: each
distinct value of a metric gets its effect once, and each row's six effects
are merged as three pairs, each distinct pair once per call. Rows it cannot
take that way (a repeated scope, an unhashable value, a faulty fact) are
chained fact by fact by ``_chain``, which ``forward_chain`` uses.
"""

from enum import IntEnum
from functools import cache, cached_property, lru_cache
from itertools import combinations, compress
import json
import math
from operator import not_
import pkgutil
from typing import NamedTuple

from .errors import RuleError, RuleOverlapError, SchemaError, UsageError
from .metrics import METRICS, ProjectMetrics, check_metric, value_getter
from .model import _parse_json, check_schema_version
from .tables import format_value, read_number, read_text

BUILTIN_BASES = ("default", "paper")

#: The quality attributes a rule may conclude.
ATTRIBUTES = frozenset({
    "complexity",
    "understandability",
    "testability",
    "reusability",
    "robustness",
    "faultLikelihood",
    "maintenanceEffort",
    "quality",
    "coupling",
    "modularDesign",
    "inheritanceDepth",
    "methodCount",
})


class Level(IntEnum):
    VERY_LOW = 1
    LOW = 2
    NORMAL = 3
    HIGH = 4
    VERY_HIGH = 5


LEVEL_NAMES = {
    Level.VERY_LOW: "VeryLow",
    Level.LOW: "Low",
    Level.NORMAL: "Normal",
    Level.HIGH: "High",
    Level.VERY_HIGH: "VeryHigh",
}
_LEVEL_BY_NAME = {name: level for level, name in LEVEL_NAMES.items()}


def level_from_name(name: str) -> Level:
    try:
        return _LEVEL_BY_NAME[name]
    except KeyError:
        raise RuleError(f"unknown level {name!r}; expected one of "
                        + ", ".join(LEVEL_NAMES.values())) from None


class Interval(NamedTuple):
    """Closed interval [lo, hi]; hi None means unbounded above."""

    lo: float
    hi: float | None = None

    def matches(self, value: float) -> bool:
        return value >= self.lo and (self.hi is None or value <= self.hi)

    def describe(self) -> str:
        if self.hi is None:
            return f"{format_value(self.lo)}+"
        return f"{format_value(self.lo)} - {format_value(self.hi)}"

    def bounds(self) -> tuple[float, ...]:
        return (self.lo,) if self.hi is None else (self.lo, self.hi)

    def document(self) -> dict:
        return {"range": [self.lo, self.hi]}


class ValueSet(NamedTuple):
    values: frozenset[float]

    def matches(self, value: float) -> bool:
        return value in self.values

    def describe(self) -> str:
        return ", ".join(format_value(v) for v in sorted(self.values))

    def bounds(self) -> tuple[float, ...]:
        return tuple(sorted(self.values))

    def document(self) -> dict:
        return {"values": sorted(self.values)}


#: A metric band, read outside its class only through ``matches``,
#: ``describe``, ``bounds`` (finite ends, ascending) and ``document``.
Condition = Interval | ValueSet


def conditions_overlap(a: Condition, b: Condition) -> float | None:
    """The least value matched by both conditions, or None when disjoint.

    Where two conditions meet, the least value they share is a bound of
    one of them, so only the bounds are tried.
    """
    return min((v for v in (*a.bounds(), *b.bounds()) if a.matches(v) and b.matches(v)),
               default=None)


class Rule(NamedTuple):
    id: str
    metric: str
    condition: Condition
    conclusions: tuple[tuple[str, Level], ...]

    def matches(self, value: float) -> bool:
        return self.condition.matches(value)


class Fact(NamedTuple):
    metric: str
    value: float
    scope: str = "project"


class Assessment(NamedTuple):
    """One scope's conclusions; chaining fills the dicts and the list in
    place, so an Assessment is not hashable."""

    scope: str
    derived: dict[str, Level]
    derived_by: dict[str, str]
    fired_rules: list[str]

    def pairs(self) -> list[tuple[str, Level]]:
        return list(self.derived.items())


_NO_EFFECT = ((), {}, {})  # the effect of a fact that fires no rule
_EFFECTS_KEPT = 2**12  # the most facts whose effects one base keeps


class KnowledgeBase(NamedTuple("KnowledgeBase", [("name", str), ("rules", tuple[Rule, ...])])):
    """Rules in order, plus an effect function kept in the instance
    ``__dict__``, whose cache is bounded and may be shared across threads.
    ==, repr and hash ignore it, and a pickled or copied base starts
    without it."""

    def __getstate__(self) -> None:
        """No state past the fields: a pickled or copied base builds its own cache."""
        return None

    def rules_for(self, metric: str) -> list[Rule]:
        return [r for r in self.rules if r.metric == metric]

    def match(self, metric: str, value: float) -> Rule | None:
        """The first rule of ``metric`` whose condition holds for ``value``."""
        for rule in self.rules:
            if rule.metric == metric and rule.matches(value):
                return rule
        return None

    @cached_property
    def _effect(self):
        """(metric, value) -> the effect of that fact: (ids of the rules it
        fires, {attribute: level}, {attribute: rule id}), one per rule, or
        ``_NO_EFFECT``. A faulty fact raises and is not kept; callers send
        an unhashable or NaN value to ``__wrapped__``, which keeps nothing."""
        of_rule = {}  # id of each rule, which the base keeps alive -> its effect
        for rule in self.rules:
            derived = dict(rule.conclusions)
            of_rule[id(rule)] = (rule.id,), derived, dict.fromkeys(derived, rule.id)

        @lru_cache(maxsize=_EFFECTS_KEPT)
        def effect(metric: str, value: float) -> tuple[tuple, dict, dict]:
            if value < 0:
                raise RuleError(f"fact {metric}={value} is negative")
            if metric not in METRICS:
                raise RuleError(f"fact has unknown metric {metric!r}")
            rule = self.match(metric, value)
            return _NO_EFFECT if rule is None else of_rule[id(rule)]
        return effect

    def is_complete(self) -> bool:
        """Whether every non-negative integer of every metric matches a rule.

        If one does not, the least such integer n is 0, or n - 1 matches a
        rule whose condition ends below n; so n is floor(b) + 1 for some
        bound b, and only those integers are tried.
        """
        for metric in METRICS:
            conditions = [rule.condition for rule in self.rules_for(metric)]
            tried = {0, *(math.floor(b) + 1 for c in conditions for b in c.bounds())}
            if any(n >= 0 and not any(c.matches(n) for c in conditions) for n in tried):
                return False
        return True


def build_knowledge_base(name: str, rules: list[Rule]) -> KnowledgeBase:
    """Check what ``load_rules`` cannot see per rule, and normalize order."""
    if not rules:
        raise RuleError("rule base is empty")
    seen_ids: set[str] = set()
    for rule in rules:
        if rule.id in seen_ids:
            raise RuleError(f"duplicate rule id {rule.id!r}")
        seen_ids.add(rule.id)
        for attribute, _ in rule.conclusions:
            if attribute not in ATTRIBUTES:
                raise RuleError(f"rule {rule.id!r}: unregistered attribute "
                                f"{attribute!r}")
        # a condition that matches none of its bounds matches nothing
        if not any(map(rule.condition.matches, rule.condition.bounds())):
            raise RuleError(f"rule {rule.id!r}: invalid range")

    for metric in METRICS:
        of_metric = [r for r in rules if r.metric == metric]
        for a, b in combinations(of_metric, 2):
            hit = conditions_overlap(a.condition, b.condition)
            if hit is not None:
                raise RuleOverlapError(metric, a.id, b.id, hit)

    ordered = sorted(rules, key=_rule_sort_key)
    return KnowledgeBase(name=name, rules=tuple(ordered))


def _rule_sort_key(rule: Rule) -> tuple:
    return (METRICS.index(rule.metric), rule.condition.bounds()[0], rule.id)


# --- document form -----------------------------------------------------------

def load_rules(document: str | dict) -> KnowledgeBase:
    """Parse a rules document and validate the resulting base."""
    doc = _parse_json(document, "rules")
    if not isinstance(doc, dict):
        raise SchemaError("$", "rules document must be an object")
    check_schema_version(doc)
    name = doc.get("name", "unnamed")
    if not isinstance(name, str) or not name:
        raise SchemaError("name", "must be a non-empty string")
    entries = doc.get("rules")
    if not isinstance(entries, list):
        raise SchemaError("rules", "must be an array")

    rules = []
    for i, entry in enumerate(entries):
        path = f"rules[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(path, "rule entry must be an object")
        rule_id = entry.get("id")
        if not isinstance(rule_id, str) or not rule_id:
            raise SchemaError(f"{path}.id", "must be a non-empty string")
        metric = entry.get("metric")
        if metric not in METRICS:
            raise SchemaError(f"{path}.metric",
                              "must be one of " + ", ".join(METRICS))
        condition = _read_condition(entry, path)
        raw_conclusions = entry.get("conclusions")
        if not isinstance(raw_conclusions, list) or not raw_conclusions:
            raise SchemaError(f"{path}.conclusions", "must be a non-empty array")
        conclusions = []
        for j, c in enumerate(raw_conclusions):
            cpath = f"{path}.conclusions[{j}]"
            if not isinstance(c, dict):
                raise SchemaError(cpath, "conclusion must be an object")
            attribute = c.get("attribute")
            if not isinstance(attribute, str) or not attribute:
                raise SchemaError(f"{cpath}.attribute", "must be a non-empty string")
            level_name = c.get("level")
            if not isinstance(level_name, str):
                raise SchemaError(f"{cpath}.level", "must be a string")
            conclusions.append((attribute, level_from_name(level_name)))
        rules.append(Rule(id=rule_id, metric=metric, condition=condition,
                          conclusions=tuple(conclusions)))
    return build_knowledge_base(name, rules)


def _read_condition(entry: dict, path: str) -> Condition:
    has_range = "range" in entry
    has_values = "values" in entry
    if has_range == has_values:
        raise SchemaError(path, "exactly one of range or values is required")
    if has_range:
        raw = entry["range"]
        if (not isinstance(raw, list) or len(raw) != 2
                or not _is_number(raw[0])
                or not (raw[1] is None or _is_number(raw[1]))):
            raise SchemaError(f"{path}.range",
                              "must be [lo, hi] with hi a number or null")
        return Interval(lo=read_number(raw[0], f"{path}.range[0]", RuleError),
                        hi=None if raw[1] is None
                        else read_number(raw[1], f"{path}.range[1]", RuleError))
    raw = entry["values"]
    if (not isinstance(raw, list) or not raw
            or any(not _is_number(v) for v in raw)):
        raise SchemaError(f"{path}.values", "must be a non-empty number array")
    return ValueSet(values=frozenset(
        read_number(v, f"{path}.values[{i}]", RuleError) for i, v in enumerate(raw)))


def parse_selection(specs: list[str]) -> dict[str, Condition]:
    """Conditions from ``METRIC=RANGE`` specs: ``lo-hi``, ``lo-``, ``a,b,c``
    or one value. A range splits at its first minus that is neither the
    leading sign nor right after ``e``/``E``, so ``1e-3-2`` is 0.001 to 2.
    A bad spec raises UsageError."""
    selection: dict[str, Condition] = {}
    for spec in specs:
        if "=" not in spec:
            raise UsageError(f"bad selection {spec!r}; expected METRIC=RANGE")
        metric, _, rest = spec.partition("=")
        metric = check_metric(metric.strip().upper(), UsageError)
        if metric in selection:
            raise UsageError(f"metric {metric} selected twice")
        selection[metric] = _parse_condition(rest.strip(), spec)
    if not selection:
        raise UsageError("at least one --select is required")
    return selection


def _parse_condition(text: str, origin: str) -> Condition:
    def number(raw: str) -> float:
        return read_number(raw, f"selection {origin!r}", UsageError)

    if "," in text:
        return ValueSet(frozenset(number(part) for part in text.split(",")))
    # a leading minus is a sign, and a minus right after e or E an exponent's
    split = -1 if text.startswith("-") else text.find("-")
    while split > 0 and text[split - 1] in "eE":
        split = text.find("-", split + 1)
    if split > 0:
        lo_text, hi_text = text[:split], text[split + 1:]
        lo = number(lo_text.strip())
        hi = None if not hi_text.strip() else number(hi_text.strip())
        if hi is not None and hi < lo:
            raise UsageError(f"empty range in selection {origin!r}")
        return Interval(lo, hi)
    if not text:
        raise UsageError(f"empty condition in selection {origin!r}")
    return ValueSet(frozenset([number(text)]))


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def rules_to_document(kb: KnowledgeBase) -> dict:
    entries = []
    for rule in kb.rules:
        entry: dict = {"id": rule.id, "metric": rule.metric}
        for key, numbers in rule.condition.document().items():
            entry[key] = [v if v is None else _plain(v) for v in numbers]
        entry["conclusions"] = [
            {"attribute": attribute, "level": LEVEL_NAMES[level]}
            for attribute, level in rule.conclusions
        ]
        entries.append(entry)
    return {"schemaVersion": 1, "name": kb.name, "rules": entries}


def _plain(v: float) -> int | float:
    return int(v) if float(v).is_integer() else v


def serialize_rules(kb: KnowledgeBase) -> str:
    return json.dumps(rules_to_document(kb), indent=2, ensure_ascii=False) + "\n"


@cache
def _load_builtin(name: str) -> KnowledgeBase:
    """A packaged base, read and validated once per process.

    Bases are frozen, so every caller can share the one object.
    """
    return load_rules(pkgutil.get_data("ckeval", f"data/{name}_rules.json").decode("utf-8"))


def default_rule_base() -> KnowledgeBase:
    """The built-in 42-rule base: 7 disjoint bands for each of the 6 metrics."""
    return _load_builtin("default")


def paper_rule_preset() -> KnowledgeBase:
    """The three published example rules, encoded verbatim for fidelity tests."""
    return _load_builtin("paper")


def resolve_rule_base(spec: str) -> KnowledgeBase:
    """Map a CLI-style rules argument (builtin name or path) to a base."""
    if spec in BUILTIN_BASES:
        return _load_builtin(spec)
    return load_rules(read_text(spec))


# --- inference ---------------------------------------------------------------

def forward_chain(facts: list[Fact], kb: KnowledgeBase) -> list[Assessment]:
    """Fire matching rules fact by fact, in input order.

    Returns one Assessment per scope, ordered by first appearance. When two
    fired rules conclude the same attribute, the later fact wins; every
    contributing rule id stays in the fired-rule trace.
    """
    return _chain(((fact.scope, ((fact.metric, fact.value),)) for fact in facts), kb)


def _chain(groups, kb: KnowledgeBase) -> list[Assessment]:
    """forward_chain over (scope, [(metric, value), ...]) groups of facts,
    each fact's effect read through the base's cache."""
    assessments: dict[str, Assessment] = {}
    effect_of = kb._effect
    for scope, facts in groups:
        assessment = assessments.get(scope)
        for key in facts:
            try:
                effect = (effect_of if key[1] == key[1] else effect_of.__wrapped__)(*key)
            except TypeError:  # an unhashable value
                effect = effect_of.__wrapped__(*key)
            if assessment is None:
                assessment = assessments[scope] = Assessment(scope, {}, {}, [])
            assessment.fired_rules.extend(effect[0])
            assessment.derived.update(effect[1])
            assessment.derived_by.update(effect[2])
    return list(assessments.values())


def round_half_up(value: float) -> int:
    """value rounded to the nearest integer, a half away from zero.

    Subtracting the floor of a float is exact, so the fraction is compared
    with 0.5 as it is; a float of 2**52 or more is an integer already and
    comes back as int(value).
    """
    magnitude = abs(value)
    whole = math.floor(magnitude)
    whole += magnitude - whole >= 0.5
    return whole if value >= 0 else -whole


def evaluate_project(pm: ProjectMetrics, kb: KnowledgeBase,
                     scope: str = "class") -> list[Assessment]:
    """Assess each class, or the project means rounded half-up to integers.

    Either way this is forward_chain over six facts per scope, in METRICS
    order: each class's values taken straight from its record, or the
    rounded means under the one scope ``project``. The rows are chained a
    column at a time by ``_chain_columns``, which merges each distinct
    pair of effects once per call. Rows with a repeated scope, an
    unhashable value or a faulty fact go to ``_chain`` instead, which merges
    the scopes and raises at the first fault in row order.
    """
    if scope == "class":
        rows = pm.per_class
    elif scope == "project":
        rows = (("project", *[round_half_up(pm.means[m]) for m in METRICS]),)
    else:
        raise UsageError(f"unknown scope {scope!r}; expected class or project")
    assessments = _chain_columns(rows, kb)
    if assessments is None:
        assessments = _chain(((row[0], zip(METRICS, row[1:])) for row in rows), kb)
    return assessments


def _chain_columns(rows, kb: KnowledgeBase) -> list[Assessment] | None:
    """_chain over (scope, six values) rows, a column at a time; None when
    a scope repeats, a value is unhashable or a fact is faulty.

    Each distinct value of a metric gets its effect once, through the base's
    cache. Each row's six effects are merged as three pairs, (WMC, DIT),
    (NOC, CBO) and (RFC, LCOM), each distinct pair once per call; update is
    associative, so every Assessment has fresh dicts equal to six updates in
    order.
    """
    columns = list(zip(*rows))
    if not columns:
        return []
    names = columns[0]
    effect_of = kb._effect
    effects: dict[int, tuple[tuple, dict, dict]] = {}  # id -> effect, as a pair's half
    ids = []  # per metric, each row's effect as its id
    try:
        if len(set(names)) != len(names):
            return None
        for metric, column in zip(METRICS, columns[1:]):
            id_of = {}
            for value in dict.fromkeys(column):
                effect = (effect_of if value == value else effect_of.__wrapped__)(metric, value)
                id_of[value] = id(effect)
                effects[id(effect)] = effect
            ids.append(map(id_of.__getitem__, column))
    except Exception:  # an unhashable value or a faulty fact: _chain raises it in row order
        return None

    @cache
    def pair(a: int, b: int) -> tuple[tuple, dict, dict]:
        """The effects of ids a and b merged as (rule ids, derived, derived_by)."""
        a, b = effects[a], effects[b]
        return a[0] + b[0], {**a[1], **b[1]}, {**a[2], **b[2]}

    new = tuple.__new__  # builds each Assessment in C
    return [new(Assessment, (name, {**a[1], **b[1], **c[1]}, {**a[2], **b[2], **c[2]},
                             [*a[0], *b[0], *c[0]]))
            for name, a, b, c in zip(names, *(map(pair, *ids[i:i + 2]) for i in (0, 2, 4)))]


# --- manual range selection --------------------------------------------------

class RangeFilter(NamedTuple):
    metric: str
    condition: Condition
    in_range: tuple
    out_of_range: tuple


def filter_by_ranges(pm: ProjectMetrics,
                     selection: dict[str, Condition]) -> list[RangeFilter]:
    """Partition classes per selected metric; unselected metrics are ignored."""
    if not selection:
        raise UsageError("at least one metric must be selected")
    results = []
    for metric in METRICS:
        if metric not in selection:
            continue
        condition = selection[metric]
        hits = list(map(condition.matches, map(value_getter(metric), pm.per_class)))
        results.append(RangeFilter(
            metric=metric, condition=condition,
            in_range=tuple(compress(pm.per_class, hits)),
            out_of_range=tuple(compress(pm.per_class, map(not_, hits)))))
    unknown = set(selection) - set(METRICS)
    if unknown:
        raise UsageError("unknown metric in selection: " + ", ".join(sorted(unknown)))
    return results
