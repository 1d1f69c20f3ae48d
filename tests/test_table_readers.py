"""The column-wise metrics-table readers against the row-by-row oracle.

On valid tables and on tables with one fault injected, ``ckeval.tables``
must give a ``ProjectMetrics`` equal to the oracle's (same ``==``, ``repr``
and means, every record a ``MetricRecord``) or raise the same exception
type with the same message.
"""

import csv
import io
import json

from hypothesis import given, settings, strategies as st
import pytest

from ckeval.errors import CkevalError
from ckeval.metrics import METRICS, MetricRecord
from ckeval.tables import (
    _FLOAT_OVERFLOW,
    _csv_records,
    _document_records,
    metrics_from_csv,
    metrics_from_document,
    sniff,
)

import table_reader_oracle as oracle


def outcome(read, *args):
    """What a reader gives: the ProjectMetrics as it compares and prints, or
    the error it raises."""
    try:
        pm = read(*args)
    except CkevalError as exc:
        return type(exc), str(exc)
    assert all(type(rec) is MetricRecord for rec in pm.per_class)
    return pm, repr(pm), pm.means, [type(rec.class_name) for rec in pm.per_class]


names = st.text("pq.AB_$Ü", min_size=1, max_size=6)
# now and then a value just below the float range
in_range = st.integers(0, 66).map(lambda v: v if v <= 60 else _FLOAT_OVERFLOW - v + 60)
valid_rows = st.lists(st.tuples(names, st.lists(in_range, min_size=6, max_size=6)),
                      max_size=15, unique_by=lambda row: row[0])


# --- CSV ----------------------------------------------------------------------

HEADER = ",".join(("CLASS",) + METRICS)
OVER_FIELD_LIMIT = "x" * (csv.field_size_limit() + 1)

bad_cells = st.sampled_from([
    " 7 ", "\t7", "7\x1c", "\x1f7", "\x1d", "-1", "-0", "+3", "1_0", "x", "", " ",
    "1.0", "٣", "0x1", str(_FLOAT_OVERFLOW), str(_FLOAT_OVERFLOW - 1), "9" * 5000])
bad_names = st.sampled_from([
    "", "  ", " p.A ", "\x1cp.A", "p.A\x1f", "\x1e", "line\nbreak", "cr\r\nlf",
    'q "x"', "a,b", "p.A"])
# a whole line, written as it stands
raw_lines = st.sampled_from([
    "", "   ", ",,,,,,", " , , , , , , ", "\x1c", "p.A,1,2,3,4,5", "p.A,1,2,3,4,5,6,7",
    f'"{OVER_FIELD_LIMIT}",1,1,1,1,1,1', 'p.Z,"unterminated,1,1,1,1,1'])
headers = st.sampled_from([
    HEADER, " class , wmc,Dit,NOC,CBO,RFC,lcom ", "\n" + HEADER, "\n \n" + HEADER,
    HEADER + ",", "CLASS,WMC,DIT,NOC,CBO,RFC", ",".join(("VERSION",) + METRICS), ""])


def csv_text(rows: list[list[str] | str], header: str = HEADER,
             newline: str = "\n", last_newline: bool = True) -> str:
    """A table from cell rows, quoted where needed, and raw lines."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=newline)
    out.write(header + newline)
    for row in rows:
        if isinstance(row, str):
            out.write(row + newline)
        else:
            writer.writerow(row)
    text = out.getvalue()
    return text if last_newline else text[:-len(newline)]


@st.composite
def csv_tables(draw, faults: bool):
    rows = [[name, *map(str, cells)] for name, cells in draw(valid_rows)]
    header = HEADER
    if faults:
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(rows)))
            kind = draw(st.sampled_from(["cell", "name", "line", "header", "duplicate"]))
            cell_rows = [row for row in rows if not isinstance(row, str)]
            if kind == "line":
                rows.insert(at, draw(raw_lines))
            elif kind == "header":
                header = draw(headers)
            if kind in ("line", "header") or not cell_rows:
                continue
            row = cell_rows[draw(st.integers(0, len(cell_rows) - 1))]
            if kind == "cell":
                row[draw(st.integers(1, 6))] = draw(bad_cells)
            elif kind == "name":
                row[0] = draw(bad_names)
            elif kind == "duplicate":
                copy = list(row)
                copy[0] = draw(st.sampled_from([copy[0], f" {copy[0]}", f"{copy[0]}\x1f"]))
                rows.insert(at, copy)
    return csv_text(rows, header, draw(st.sampled_from(["\n", "\r\n"])), draw(st.booleans()))


@settings(max_examples=80, deadline=None)
@given(csv_tables(faults=False))
def test_csv_reader_reads_valid_tables_as_the_oracle(text):
    assert _csv_records(text) is not None  # read a column at a time
    assert outcome(metrics_from_csv, text, "t") == outcome(oracle.metrics_from_csv, text, "t")


@settings(max_examples=200, deadline=None)
@given(csv_tables(faults=True))
def test_csv_reader_matches_oracle_on_faulted_tables(text):
    assert outcome(metrics_from_csv, text, "t") == outcome(oracle.metrics_from_csv, text, "t")


def test_csv_reader_matches_oracle_on_edge_tables():
    for text in ["", "\n", HEADER, HEADER + "\n", "\n\n" + HEADER + "\n\n",
                 HEADER + "\n\n\np.A,1,2,3,4,5,6\n\n",
                 HEADER + '\n"p.\nA",1,2,3,4,5,6\np.B,1,2,3,4,5,-6\n',
                 HEADER + '\n"p.\nA",1,2,3,4,5,6\n"p.\nA",1,2,3,4,5,6\n',
                 HEADER + f'\np.A,1,2,3,4,5,6\n"{OVER_FIELD_LIMIT}",1,1,1,1,1,1\n']:
        assert outcome(metrics_from_csv, text) == outcome(oracle.metrics_from_csv, text)


# --- JSON ---------------------------------------------------------------------

class Name(str):
    pass


class Count(int):
    pass


class Row(dict):
    pass


bad_values = st.sampled_from([True, False, 1.0, "1", None, Count(3), -1, _FLOAT_OVERFLOW,
                              _FLOAT_OVERFLOW - 1, [1]])
bad_class_names = st.sampled_from(["", None, 7, Name("p.Sub"), Name(""), ["p.A"]])
bad_rows = st.sampled_from([None, 1, "p.A", ["p.A", 1, 1, 1, 1, 1, 1], {}])


@st.composite
def documents(draw, faults: bool):
    rows = [{"class": name, **{m.lower(): v for m, v in zip(METRICS, cells)}}
            for name, cells in draw(valid_rows)]
    doc = {"schemaVersion": 1, "metrics": rows}
    if draw(st.booleans()):
        doc["projectName"] = draw(st.sampled_from(["proj", ""]))
    if faults:
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(rows)))
            kind = draw(st.sampled_from(["value", "name", "missing", "row", "subclass",
                                         "extra", "duplicate", "project"]))
            objects = [i for i, row in enumerate(rows) if isinstance(row, dict)]
            if kind == "row":
                rows.insert(at, draw(bad_rows))
            elif kind == "project":
                doc["projectName"] = draw(st.sampled_from([3, None, "other"]))
            if kind in ("row", "project") or not objects:
                continue
            i = objects[draw(st.integers(0, len(objects) - 1))]
            key = draw(st.sampled_from(["class"] + [m.lower() for m in METRICS]))
            if kind == "value":
                rows[i][key] = draw(bad_values)
            elif kind == "name":
                rows[i]["class"] = draw(bad_class_names)
            elif kind == "missing":
                rows[i].pop(key, None)
            elif kind == "subclass":
                rows[i] = Row(rows[i])
            elif kind == "extra":
                rows[i]["note"] = "x"
            elif kind == "duplicate":
                rows.insert(at, dict(rows[i]))
    return doc


@settings(max_examples=80, deadline=None)
@given(documents(faults=False))
def test_document_reader_reads_valid_documents_as_the_oracle(doc):
    assert _document_records(doc["metrics"]) is not None  # read a column at a time
    assert outcome(metrics_from_document, doc, "t") \
        == outcome(oracle.metrics_from_document, doc, "t")
    text = json.dumps(doc)  # as read from a file
    assert outcome(metrics_from_document, json.loads(text)) \
        == outcome(oracle.metrics_from_document, json.loads(text))


@settings(max_examples=200, deadline=None)
@given(documents(faults=True))
def test_document_reader_matches_oracle_on_faulted_documents(doc):
    assert outcome(metrics_from_document, doc, "t") \
        == outcome(oracle.metrics_from_document, doc, "t")


def test_document_reader_matches_oracle_on_edge_documents():
    row = {"class": "p.A", "wmc": 1, "dit": 2, "noc": 3, "cbo": 4, "rfc": 5, "lcom": 6}
    for doc in [{}, {"metrics": None}, {"metrics": {}}, {"metrics": []},
                {"metrics": [], "projectName": 1}, {"metrics": [row], "projectName": 1},
                {"metrics": [row, {**row, "wmc": -1}], "projectName": 1},
                {"metrics": [row, row]}, {"metrics": [Row(row)]},
                {"metrics": [{**row, "class": Name("p.A")}, row]}]:
        assert outcome(metrics_from_document, doc) == outcome(oracle.metrics_from_document, doc)


@pytest.mark.parametrize("text", ["\x1c{}", "\u00a0{}", "{} []", "{"])
def test_sniff_reads_text_that_starts_with_a_brace_as_an_object_or_invalid_json(text):
    # str.strip drops more blanks than JSON allows, so none of these is an object
    with pytest.raises(CkevalError, match="^x.json: invalid JSON: "):
        sniff(text, "x.json")
    assert sniff(" \t\r\n{\"metrics\": []}", "x.json") == ("metrics", {"metrics": []})
