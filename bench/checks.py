"""Output checks against the references in ``oracle``.

Each ``check_*`` factory returns a function that takes the op's output
texts (one per written file) and returns None when they are right, or a
short description of the first difference.
"""

import csv
import io
import json
import re
import xml.etree.ElementTree as ET

from oracle import METRICS, fired_rules, format_value, rounded_means, verdicts

_RULE_ID = re.compile(r"(?<![\w-])(?:wmc|dit|noc|cbo|rfc|lcom)-"
                      r"(?:very-low|below-normal|above-normal|very-high|low|normal|high)"
                      r"(?![\w-])")


def _load_json(text: str):
    try:
        return json.loads(text), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"


def check_metrics_csv(expected: dict[str, dict[str, int]]):
    def check(texts: list[str]) -> str | None:
        rows = list(csv.reader(io.StringIO(texts[0])))
        if not rows or tuple(rows[0]) != ("CLASS",) + METRICS:
            return "bad metrics table header"
        names = [r[0] for r in rows[1:]]
        if names != sorted(expected):
            return f"class rows differ: {len(names)} rows, {len(expected)} expected"
        for row in rows[1:]:
            got = dict(zip(METRICS, (int(v) for v in row[1:])))
            if got != expected[row[0]]:
                return f"{row[0]}: got {got}, expected {expected[row[0]]}"
        return None
    return check


def _provenance(doc: dict, inputs: list[tuple[str, str]]) -> str | None:
    got = [(e.get("path"), e.get("modified")) for e in doc.get("inputs", [])]
    if got != inputs:
        return f"input provenance {got} differs from {inputs}"
    return None


def check_assessments(expected: dict[str, dict[str, int]], scope: str,
                      inputs: list[tuple[str, str]]):
    """Structured evaluate: fired rules follow the README band table."""
    if scope == "class":
        want = [(name, fired_rules(expected[name])) for name in sorted(expected)]
    else:
        want = [("project", fired_rules(rounded_means(expected)))]

    def check(texts: list[str]) -> str | None:
        doc, error = _load_json(texts[0])
        if error:
            return error
        if (doc.get("kind"), doc.get("knowledgeBase"), doc.get("scope")) != \
                ("assessments", "default", scope):
            return "wrong document kind, rule base or scope"
        got = [(a["scope"], a["firedRules"]) for a in doc["assessments"]]
        for i, w in enumerate(want):
            if i >= len(got) or got[i] != w:
                return f"assessment {i}: expected {w[0]} firing {w[1]}"
        if len(got) != len(want):
            return f"{len(got) - len(want)} assessments more than expected"
        for a in doc["assessments"]:
            if any(c["rule"] not in a["firedRules"] for c in a["conclusions"]):
                return f"{a['scope']}: conclusion from a rule that did not fire"
        return _provenance(doc, inputs)
    return check


def check_assessment_text(expected: dict[str, dict[str, int]], scope: str):
    """Text evaluate: scope names and fired rule ids appear in order."""
    if scope == "class":
        names = sorted(expected)
        rule_ids = [r for name in names for r in fired_rules(expected[name])]
    else:
        names = []
        rule_ids = fired_rules(rounded_means(expected))

    def check(texts: list[str]) -> str | None:
        text = texts[0]
        got = _RULE_ID.findall(text)
        for i, (g, w) in enumerate(zip(got, rule_ids)):
            if g != w:
                return f"fired rule {i} is {g}, expected {w}"
        if len(got) != len(rule_ids):
            return f"{len(got)} fired rules, {len(rule_ids)} expected"
        position = 0
        for name in names:
            position = text.find(f" : {name}\n", position)
            if position < 0:
                return f"class {name} missing or out of order"
        return None
    return check


def _partition(expected, metric, lo, hi, values):
    inside, outside = [], []
    for name in sorted(expected):
        v = expected[name][metric]
        matched = (v in values) if values is not None else (v >= lo and (hi is None or v <= hi))
        (inside if matched else outside).append((name, v))
    return inside, outside


def check_filters(expected: dict[str, dict[str, int]], selection: dict,
                  inputs: list[tuple[str, str]]):
    """Structured --select: each class lands on the right side of each range.

    ``selection`` maps metric -> (lo, hi) for a range or a list of values.
    """
    want = []
    for metric in METRICS:
        if metric not in selection:
            continue
        spec = selection[metric]
        values = spec if isinstance(spec, list) else None
        lo, hi = (None, None) if values is not None else spec
        inside, outside = _partition(expected, metric, lo, hi, values)
        want.append((metric, inside, outside))

    def check(texts: list[str]) -> str | None:
        doc, error = _load_json(texts[0])
        if error:
            return error
        if doc.get("kind") != "filters":
            return "wrong document kind"
        got = [(f["metric"],
                [(r["class"], r["value"]) for r in f["inRange"]],
                [(r["class"], r["value"]) for r in f["outOfRange"]])
               for f in doc["filters"]]
        if got != want:
            return "range partition differs from the reference"
        return _provenance(doc, inputs)
    return check


def check_filter_text(expected: dict[str, dict[str, int]], selection: dict):
    """Text --select: the in-range and out-of-range lists appear verbatim."""
    lists = []
    for metric in METRICS:
        if metric in selection:
            spec = selection[metric]
            values = spec if isinstance(spec, list) else None
            lo, hi = (None, None) if values is not None else spec
            for side in _partition(expected, metric, lo, hi, values):
                if side:
                    lists.append(", ".join(f"{n} ({v})" for n, v in side))

    def check(texts: list[str]) -> str | None:
        position = 0
        for joined in lists:
            position = texts[0].find(f" : {joined}\n", position)
            if position < 0:
                return "a class list is missing or differs"
        return None
    return check


def check_verdicts(versions: list[tuple[str, dict[str, float]]],
                   metrics: tuple[str, ...], inputs: list[tuple[str, str]],
                   chart: bool):
    """Structured compare (and its chart): extremes with every tie."""
    want = verdicts(versions, metrics)
    bars = _expected_bars(versions, metrics)

    def check(texts: list[str]) -> str | None:
        doc, error = _load_json(texts[0])
        if error:
            return error
        if doc.get("kind") != "verdicts":
            return "wrong document kind"
        if len(doc["verdicts"]) != len(want):
            return f"{len(doc['verdicts'])} verdicts, {len(want)} expected"
        for got, w in zip(doc["verdicts"], want):
            if got != w:
                return f"{w['metric']} verdict differs from the reference"
        error = _provenance(doc, inputs)
        if error is None and chart:
            error = _check_chart(texts[1], bars)
        return error
    return check


def check_verdict_text(versions: list[tuple[str, dict[str, float]]],
                       metrics: tuple[str, ...], chart: bool):
    """Text compare: per metric, the extreme versions and values in order."""
    want = verdicts(versions, metrics)
    bars = _expected_bars(versions, metrics)

    def check(texts: list[str]) -> str | None:
        text = texts[0]
        position = 0
        for v in want:
            for side in ("min", "max"):
                value = f"({format_value(v[side]['value'])})\n"
                position = text.find(value, position)
                if position < 0:
                    return f"{v['metric']} {side} value missing or out of order"
                line = text[text.rfind("\n", 0, position) + 1:position]
                if any(name not in line for name in v[side]["versions"]):
                    return f"{v['metric']} {side} versions missing"
                position += len(value)
        if chart:
            return _check_chart(texts[1], bars)
        return None
    return check


def _expected_bars(versions, metrics) -> list[str]:
    return sorted(f"{name} {m}: {format_value(values[m])}"
                  for name, values in versions for m in metrics)


def _check_chart(svg: str, bars: list[str]) -> str | None:
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        return f"chart is not well-formed SVG: {exc}"
    ns = "{http://www.w3.org/2000/svg}"
    titles = sorted(t.text or "" for rect in root.iter(f"{ns}rect")
                    for t in rect.iter(f"{ns}title"))
    if titles != bars:
        return f"chart bars differ ({len(titles)} found, {len(bars)} expected)"
    return None
