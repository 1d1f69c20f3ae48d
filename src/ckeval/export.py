"""Structured (JSON) export of evaluation results.

Exports are lossless: fired rules, assessments, verdicts, range filters
and input provenance (paths plus file modification timestamps) all appear
in the document. Serialization is canonical, so exporting an imported
document reproduces it byte for byte; provenance is carried, never
regenerated, which keeps repeated runs on identical inputs identical.

The canonical text of a document is exactly
``json.dumps(doc, indent=2, ensure_ascii=False, sort_keys=True)`` plus a
newline; ``tests/test_report.py`` checks ``export_structured`` against that
expression on generated documents and on every result document. The
``*_document`` builders with ``export_structured`` define each text;
``assessments_text`` and ``filters_text`` write the text of the
assessments and of a range selection without building the document, and
the same tests hold each to ``json.dumps`` of its document.
"""

from datetime import datetime, timezone
from functools import cache
import json
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring
from pathlib import Path
import sys

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


_INDENT_IN_C = sys.version_info >= (3, 13)


def export_structured(document: dict) -> str:
    """Canonical JSON text for any result document.

    The text is exactly ``json.dumps(document, indent=2, ensure_ascii=False,
    sort_keys=True)`` plus a newline. From Python 3.13 ``json`` encodes
    indented output in C, and the document goes to it whole. Before 3.13,
    ``indent`` makes ``json`` fall back to its pure-Python encoder, so the
    nesting is walked here, and every container that holds only scalars,
    and every list of non-empty dicts that hold only scalars, goes to the C
    encoder in one call.
    """
    if _INDENT_IN_C or c_make_encoder is None:
        return _canonical_dumps(document)
    out: list[str] = []
    try:
        _write(document, 0, out)
    except RecursionError:  # a cycle or very deep nesting: json says which
        return _canonical_dumps(document)
    out.append("\n")
    return "".join(out)


def _canonical_dumps(document) -> str:
    return json.dumps(document, indent=2, ensure_ascii=False,
                      sort_keys=True) + "\n"


_CONTAINERS = (dict, list, tuple)


@cache
def _level(depth: int) -> tuple:
    """The C encoder for containers at ``depth`` and the line breaks around them.

    Its item separator carries the indentation of the members, which is
    all ``indent`` adds inside a container of scalars: an encoded scalar
    never holds a raw newline.
    """
    inner = "\n" + "  " * (depth + 1)
    encoder = c_make_encoder(None, JSONEncoder().default, encode_basestring,
                             None, ": ", "," + inner, True, False, True)
    return encoder, inner, inner[:-2]


def _write(value, depth: int, out: list[str]) -> None:
    """Append ``value`` as json.dumps(indent=2) writes it at nesting ``depth``."""
    if isinstance(value, dict):
        members = value.values()
    elif isinstance(value, (list, tuple)):
        members = value
    else:
        out.append(_scalar(value))
        return
    if not value:
        out.append("{}" if isinstance(value, dict) else "[]")
        return
    encoder, inner, outer = _level(depth)
    if _scalars(members):  # one call, then the breaks after the opener and before the closer
        text = "".join(encoder(value, 0))
        out.append(text[0] + inner + text[1:-1] + outer + text[-1])
        return
    if not isinstance(value, dict) and _records(value):
        # one call at the members' depth gives '[{a,<in1>b},<in1>{c}]'; the
        # text "},<in1>{" falls only between members, as a key opens with '"'
        # and a scalar ends in no '}', so the member breaks replace it
        record_encoder, record_inner, _ = _level(depth + 1)
        text = "".join(record_encoder(value, 0))
        between = inner + "}," + inner + "{" + record_inner
        out.append("[" + inner + "{" + record_inner
                   + text[2:-2].replace("}," + record_inner + "{", between)
                   + inner + "}" + outer + "]")
        return
    separator = inner
    if isinstance(value, dict):
        out.append("{")
        for key, member in sorted(value.items()):
            out.append(separator + _key(key) + ": ")
            _write(member, depth + 1, out)
            separator = "," + inner
        out.append(outer + "}")
    else:
        out.append("[")
        for member in value:
            out.append(separator)
            _write(member, depth + 1, out)
            separator = "," + inner
        out.append(outer + "]")


def _scalars(members) -> bool:
    for member in members:
        if isinstance(member, _CONTAINERS):
            return False
    return True


def _records(members) -> bool:
    """Whether every member is a non-empty dict that holds only scalars."""
    for member in members:
        if not isinstance(member, dict) or not member or not _scalars(member.values()):
            return False
    return True


def _scalar(value) -> str:
    return "".join(_level(0)[0](value, 0))


def _key(key) -> str:
    """A dict key as json writes it: a string, or a quoted number, bool or null."""
    if isinstance(key, str):
        return encode_basestring(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + _scalar(key) + '"'
    raise TypeError("keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")

