"""Structured (JSON) export of evaluation results.

Exports are lossless: fired rules, assessments, verdicts, range filters
and input provenance (paths plus file modification timestamps) all appear
in the document. Serialization is canonical, so exporting an imported
document reproduces it byte for byte; provenance is carried, never
regenerated, which keeps repeated runs on identical inputs identical.

There is one canonical writer: ``export_structured`` is
``json.dumps(doc, indent=2, ensure_ascii=False, sort_keys=True)`` plus a
newline, and the ``*_document`` builders with it define each text.
``assessments_text`` and ``filters_text`` write the text of the
assessments and of a range selection without building the document;
``tests/test_report.py`` holds each to ``json.dumps`` of its document.
"""

from datetime import datetime, timezone
import json
from json.encoder import encode_basestring
from pathlib import Path

from .metrics import value_getter
from .rules import Assessment, KnowledgeBase, LEVEL_NAMES, RangeFilter
from .versions import VersionVerdict

EXPORT_SCHEMA_VERSION = 1


def input_provenance(paths: list[str | Path]) -> list[dict]:
    entries = []
    for path in paths:
        p = Path(path)
        try:
            stamp = datetime.fromtimestamp(p.stat().st_mtime, tz=timezone.utc)
            modified = stamp.isoformat(timespec="seconds")
        except (OSError, ValueError, OverflowError):  # no stat, or a time no datetime holds
            modified = None
        entries.append({"path": str(path), "modified": modified})
    return entries


def assessments_document(assessments: list[Assessment], kb: KnowledgeBase,
                         scope: str, inputs: list[dict]) -> dict:
    return {
        "schemaVersion": EXPORT_SCHEMA_VERSION,
        "kind": "assessments",
        "inputs": inputs,
        "knowledgeBase": kb.name,
        "scope": scope,
        "assessments": [
            {
                "scope": a.scope,
                "conclusions": [
                    {"attribute": attribute,
                     "level": LEVEL_NAMES[level],
                     "rule": a.derived_by[attribute]}
                    for attribute, level in a.pairs()
                ],
                "firedRules": list(a.fired_rules),
            }
            for a in assessments
        ],
    }


def assessments_text(assessments: list[Assessment], kb: KnowledgeBase,
                     scope: str, inputs: list[dict]) -> str:
    """``export_structured(assessments_document(...))``, written straight
    from the assessments.

    The conclusions come from a small vocabulary of (attribute, level,
    rule) triples, so each distinct triple is encoded once per call, as is
    each fired rule id; a row then only appends texts it already has. All
    pieces go to one flat list and one final join, which keeps the peak
    memory near the size of the output. Only triples and ids made of plain
    ``str`` are reused: a number or a bool that equals another key would
    be written differently.
    """
    conclusions: dict[tuple, str] = {}  # (attribute, level, rule) -> its object
    fired: dict[str, str] = {}  # rule id -> its line in firedRules
    out = ['{\n  "assessments": [']
    append = out.append
    member = "\n"
    for a in assessments:
        append(member + '    {\n      "conclusions": [')
        member = ",\n"
        by = a.derived_by
        separator = "\n"
        for attribute, level in a.pairs():
            key = (attribute, level, by[attribute])
            text = conclusions.get(key)
            if text is None:
                text = ('        {\n          "attribute": ' + _value(attribute, 5)
                        + ',\n          "level": ' + _value(LEVEL_NAMES[level], 5)
                        + ',\n          "rule": ' + _value(key[2], 5)
                        + "\n        }")
                if type(attribute) is str and type(key[2]) is str:
                    conclusions[key] = text
            append(separator)
            append(text)
            separator = ",\n"
        append('],\n      "firedRules": [' if separator == "\n"
               else '\n      ],\n      "firedRules": [')
        separator = "\n"
        for rule in a.fired_rules:
            text = fired.get(rule)
            if text is None:
                text = "        " + _value(rule, 4)
                if type(rule) is str:
                    fired[rule] = text
            append(separator)
            append(text)
            separator = ",\n"
        append('],\n      "scope": ' if separator == "\n"
               else '\n      ],\n      "scope": ')
        append(_value(a.scope, 3))
        append("\n    }")
    append("]" if member == "\n" else "\n  ]")
    append(',\n  "inputs": ' + _value(inputs, 1)
           + ',\n  "kind": "assessments",\n  "knowledgeBase": ' + _value(kb.name, 1)
           + ',\n  "schemaVersion": ' + _value(EXPORT_SCHEMA_VERSION, 1)
           + ',\n  "scope": ' + _value(scope, 1) + "\n}\n")
    return "".join(out)


def _value(value, depth: int) -> str:
    """``value`` as json.dumps(indent=2) writes it at nesting ``depth``.

    An encoded string holds no raw newline, so every newline of the text
    at depth 0 is a line break, and indenting after each one places it.
    """
    if isinstance(value, str):
        return encode_basestring(value)
    return _canonical_dumps(value)[:-1].replace("\n", "\n" + "  " * depth)


def verdicts_document(verdicts: list[VersionVerdict],
                      inputs: list[dict]) -> dict:
    return {
        "schemaVersion": EXPORT_SCHEMA_VERSION,
        "kind": "verdicts",
        "inputs": inputs,
        "verdicts": [
            {
                "metric": v.metric,
                "min": {"versions": list(v.min_versions), "value": v.min_value},
                "max": {"versions": list(v.max_versions), "value": v.max_value},
                "interpretation": {
                    "qualityBest": list(v.quality_best),
                    "qualityWorst": list(v.quality_worst),
                    "effortMost": list(v.effort_most),
                    "effortLeast": list(v.effort_least),
                },
            }
            for v in verdicts
        ],
    }


def filters_document(filters: list[RangeFilter], inputs: list[dict]) -> dict:
    out = []
    for f in filters:
        column = value_getter(f.metric)
        out.append({
            "metric": f.metric,
            "condition": f.condition.document(),
            "inRange": [{"class": r.class_name, "value": column(r)}
                        for r in f.in_range],
            "outOfRange": [{"class": r.class_name, "value": column(r)}
                           for r in f.out_of_range],
        })
    return {
        "schemaVersion": EXPORT_SCHEMA_VERSION,
        "kind": "filters",
        "inputs": inputs,
        "filters": out,
    }


# the text between a record's name and value, and between two records
_RECORD_VALUE = ',\n          "value": '
_RECORD_BREAK = '\n        },\n        {\n          "class": '


def filters_text(filters: list[RangeFilter], inputs: list[dict]) -> str:
    """``export_structured(filters_document(...))``, written straight from
    the filters.

    Each record is one piece, its name and value joined by the text
    between them, and one fixed text joins the records of a partition. A
    name that is not a plain ``str`` or a value that is not a plain
    ``int`` goes through ``_value``, so a bool, a float or an ``int``
    subclass is written as json writes it.
    """
    out = []
    for f in filters:
        column = value_getter(f.metric)
        partitions = []
        for records in (f.in_range, f.out_of_range):
            pieces = []
            for record in records:
                name, value = record.class_name, column(record)
                if type(name) is str and type(value) is int:
                    pieces.append(encode_basestring(name) + _RECORD_VALUE + str(value))
                else:
                    pieces.append(_value(name, 5) + _RECORD_VALUE + _value(value, 5))
            partitions.append(('[\n        {\n          "class": ' + _RECORD_BREAK.join(pieces)
                               + "\n        }\n      ]") if pieces else "[]")
        out.append('    {\n      "condition": ' + _value(f.condition.document(), 3)
                   + ',\n      "inRange": ' + partitions[0]
                   + ',\n      "metric": ' + _value(f.metric, 3)
                   + ',\n      "outOfRange": ' + partitions[1] + "\n    }")
    return ('{\n  "filters": ' + ("[\n" + ",\n".join(out) + "\n  ]" if out else "[]")
            + ',\n  "inputs": ' + _value(inputs, 1)
            + ',\n  "kind": "filters",\n  "schemaVersion": ' + _value(EXPORT_SCHEMA_VERSION, 1)
            + "\n}\n")


def export_structured(document: dict) -> str:
    """The canonical JSON text of any result document: exactly
    ``json.dumps(document, indent=2, ensure_ascii=False, sort_keys=True)``
    plus a newline."""
    return _canonical_dumps(document)


def _canonical_dumps(document) -> str:
    return json.dumps(document, indent=2, ensure_ascii=False,
                      sort_keys=True) + "\n"
