"""Reference results computed without ckeval.

Everything here follows the definitions in the README (metric
definitions, default band table, version comparison rules) and works on
the generators' own plans, never on ckeval objects, so a defect in ckeval
cannot make its output agree with its own expectation.

A plan is a list of class dicts in the class-model document layout:
``name``, ``extends``, ``external``, ``fields``, ``methods`` with
``usesFields``, ``calls`` (``class``/``method``/``arity``) and
``touchesClasses``. Superclasses that name no planned class are external.
"""

from fractions import Fraction
import math

METRICS = ("WMC", "DIT", "NOC", "CBO", "RFC", "LCOM")

# README default band table: lower edge of each of the seven bands.
BAND_NAMES = ("very-low", "low", "below-normal", "normal", "above-normal",
              "high", "very-high")
BAND_LOWS = {
    "WMC": (0, 1, 6, 11, 15, 18, 26),
    "DIT": (0, 1, 3, 5, 7, 9, 11),
    "NOC": (0, 1, 3, 5, 7, 9, 11),
    "CBO": (0, 2, 6, 11, 15, 18, 26),
    "RFC": (0, 1, 11, 21, 31, 41, 51),
    "LCOM": (0, 1, 3, 6, 11, 21, 41),
}


def band_rule(metric: str, value: int) -> str:
    """Id of the default rule whose band holds an integer value."""
    lows = BAND_LOWS[metric]
    index = max(i for i, low in enumerate(lows) if value >= low)
    return f"{metric.lower()}-{BAND_NAMES[index]}"


def fired_rules(values: dict[str, int]) -> list[str]:
    """Default-base rules fired by one scope's facts, in metric order."""
    return [band_rule(m, values[m]) for m in METRICS]


def ck_metrics(plan: list[dict]) -> dict[str, dict[str, int]]:
    """Per internal class: the six metrics as the README defines them."""
    by_name = {c["name"]: c for c in plan}
    internal = {c["name"] for c in plan if not c.get("external")}

    ancestors: dict[str, list[str]] = {}
    for name in sorted(internal):
        chain = []
        current = by_name[name].get("extends")
        while current is not None and current in internal:
            chain.append(current)
            current = by_name[current].get("extends")
        ancestors[name] = chain
    related = {name: set(chain) for name, chain in ancestors.items()}
    children = {name: 0 for name in internal}
    for name, chain in ancestors.items():
        for ancestor in chain:
            related[ancestor].add(name)
        if chain:
            children[chain[0]] += 1

    uses: dict[str, set[str]] = {}
    for name in internal:
        out: set[str] = set()
        for m in by_name[name]["methods"]:
            out.update(m.get("touchesClasses", ()))
            out.update(c["class"] for c in m.get("calls", ())
                       if c["class"] is not None)
        out.discard(name)
        uses[name] = out
    users: dict[str, set[str]] = {name: set() for name in internal}
    for name, targets in uses.items():
        for target in targets:
            if target in users:
                users[target].add(name)

    result = {}
    for name in sorted(internal):
        cls = by_name[name]
        methods = cls["methods"]
        response = {(name, m["name"], m["arity"]) for m in methods}
        for m in methods:
            response.update((c["class"], c["method"], c.get("arity"))
                            for c in m.get("calls", ()))
        sets = [set(m.get("usesFields", ())) for m in methods]
        disjoint = sharing = 0
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                if sets[i] & sets[j]:
                    sharing += 1
                else:
                    disjoint += 1
        partners = ((uses[name] | users[name]) & internal) - related[name] - {name}
        result[name] = {
            "WMC": len(methods),
            "DIT": len(ancestors[name]),
            "NOC": children[name],
            "CBO": len(partners),
            "RFC": len(response),
            "LCOM": max(disjoint - sharing, 0),
        }
    return result


def means(per_class: dict[str, dict[str, int]]) -> dict[str, float]:
    """Arithmetic per-class means; all zeros for an empty project."""
    n = len(per_class)
    if n == 0:
        return {m: 0.0 for m in METRICS}
    return {m: sum(v[m] for v in per_class.values()) / n for m in METRICS}


def rounded_means(per_class: dict[str, dict[str, int]]) -> dict[str, int]:
    """Project means rounded half-up, computed exactly."""
    n = len(per_class)
    if n == 0:
        return {m: 0 for m in METRICS}
    return {m: math.floor(Fraction(sum(v[m] for v in per_class.values()), n)
                          + Fraction(1, 2))
            for m in METRICS}


def format_value(value: float) -> str:
    """At most three decimals, no trailing zeros."""
    text = f"{value:.3f}".rstrip("0").rstrip(".")
    return text if text else "0"


def verdicts(versions: list[tuple[str, dict[str, float]]],
             metrics: tuple[str, ...] = METRICS) -> list[dict]:
    """Exact extremes per metric with every tie; all metrics higher-is-worse."""
    out = []
    for m in metrics:
        values = [v[m] for _, v in versions]
        lo, hi = min(values), max(values)
        lows = [name for name, v in versions if v[m] == lo]
        highs = [name for name, v in versions if v[m] == hi]
        out.append({
            "metric": m,
            "min": {"versions": lows, "value": lo},
            "max": {"versions": highs, "value": hi},
            "interpretation": {"qualityBest": lows, "qualityWorst": highs,
                               "effortMost": highs, "effortLeast": lows},
        })
    return out
