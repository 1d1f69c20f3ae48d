"""The rule-base checks that switched on the condition's type, kept as an
oracle for the ones that read a condition only through ``matches`` and
``bounds``.

``oracle_conditions_overlap`` works case by case on intervals and value
sets, ``oracle_is_complete`` sweeps each metric's integer spans from 0,
and ``oracle_build_knowledge_base`` validates and orders rules with them.
"""

from itertools import combinations
import math

from ckeval.errors import RuleError, RuleOverlapError
from ckeval.metrics import METRICS
from ckeval.rules import ATTRIBUTES, Interval, KnowledgeBase, Rule, ValueSet


def oracle_conditions_overlap(a, b):
    """A value matched by both conditions, or None when disjoint."""
    if isinstance(a, Interval) and isinstance(b, Interval):
        lo = max(a.lo, b.lo)
        if (a.hi is None or lo <= a.hi) and (b.hi is None or lo <= b.hi):
            return lo
        return None
    if isinstance(a, ValueSet) and isinstance(b, ValueSet):
        common = a.values & b.values
        return min(common) if common else None
    values = a.values if isinstance(a, ValueSet) else b.values
    interval = b if isinstance(a, ValueSet) else a
    hits = sorted(v for v in values if interval.matches(v))
    return hits[0] if hits else None


def oracle_is_complete(kb: KnowledgeBase) -> bool:
    """Whether every non-negative integer of every metric matches a rule.

    Each condition covers spans of integers. Sorted by their starts, the
    spans of a metric must reach from 0 to infinity with no gap.
    """
    for metric in METRICS:
        spans = []
        for rule in kb.rules_for(metric):
            cond = rule.condition
            if isinstance(cond, ValueSet):
                spans.extend((int(v), int(v)) for v in cond.values
                             if float(v).is_integer())
            else:
                spans.append((math.ceil(cond.lo), math.inf if cond.hi is None
                              else math.floor(cond.hi)))
        covered = 0  # the least integer that no span so far covers
        for lo, hi in sorted(spans):
            if lo > covered:
                return False
            covered = max(covered, hi + 1)
        if covered < math.inf:
            return False
    return True


def oracle_rule_sort_key(rule: Rule) -> tuple:
    if isinstance(rule.condition, Interval):
        low = rule.condition.lo
    else:
        low = min(rule.condition.values)
    return (METRICS.index(rule.metric), low, rule.id)


def oracle_build_knowledge_base(name: str, rules: list[Rule]) -> KnowledgeBase:
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
        if (isinstance(rule.condition, Interval) and rule.condition.hi is not None
                and rule.condition.hi < rule.condition.lo):
            raise RuleError(f"rule {rule.id!r}: invalid range")

    for metric in METRICS:
        of_metric = [r for r in rules if r.metric == metric]
        for a, b in combinations(of_metric, 2):
            hit = oracle_conditions_overlap(a.condition, b.condition)
            if hit is not None:
                raise RuleOverlapError(metric, a.id, b.id, hit)

    ordered = sorted(rules, key=oracle_rule_sort_key)
    return KnowledgeBase(name=name, rules=tuple(ordered))
