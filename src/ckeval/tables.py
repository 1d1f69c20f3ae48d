"""Import/export of metric tables and version-means tables.

Two delimited text layouts are accepted, told apart by the header:

    CLASS,WMC,DIT,NOC,CBO,RFC,LCOM          per-class integer metrics
    VERSION[,PATH],WMC,DIT,NOC,CBO,RFC,LCOM per-version real-valued means

plus equivalent JSON documents (``schemaVersion: 1`` with a ``metrics`` or
``versions`` array). Everything that consumes a ProjectMetrics accepts
either representation, so external tools can feed the evaluator directly.
The version readers give one ``VersionRecord`` per row, in row order; a
row without a PATH has an empty ``source_path``.
"""

import csv
import io
from itertools import chain
import json
import math
from operator import itemgetter
import os
from pathlib import Path
from stat import S_ISREG
from typing import NamedTuple

from .errors import CkevalError, InputError, SchemaError
from .metrics import (METRICS, MetricRecord, ProjectMetrics, _new_record, _record_name,
                      project_means)
from .model import SCHEMA_VERSION, load_class_model, read_project_name
from . import metrics as _metrics

CLASS_HEADER = ("CLASS",) + METRICS
VERSION_HEADER = ("VERSION",) + METRICS
VERSION_PATH_HEADER = ("VERSION", "PATH") + METRICS

# the least integer that float() cannot convert; metric values stay below it,
# so means, reports and charts can handle every one of them
_FLOAT_OVERFLOW = 2 ** 1024 - 2 ** 970


def read_number(raw: str | int | float, where: str,
                error: type[CkevalError] = InputError) -> float:
    """A finite, non-negative number from text or a JSON number.

    This is the one reader for means, rule bounds and selection bounds.
    Text (a table cell, a command-line bound) is parsed with ``float``.
    Anything else raises ``error`` with a message that starts with
    ``where`` and names the value.
    """
    if isinstance(raw, bool) or not isinstance(raw, (str, int, float)):
        raise error(f"{where}: {raw!r} is not a number")
    try:
        value = float(raw)
    except ValueError:
        raise error(f"{where}: {raw!r} is not a number") from None
    except OverflowError:  # an integer too large for a float
        value = math.inf
    if not math.isfinite(value):
        raise error(f"{where}: {raw!r} is not a finite number")
    if value < 0:
        raise error(f"{where}: {raw!r} is negative")
    return value or 0.0  # -0 reads as 0


def format_value(value: float) -> str:
    """Render a metric value or mean: at most 3 decimals, no trailing zeros."""
    text = f"{value:.3f}".rstrip("0").rstrip(".")
    return text if text else "0"


# --- per-class metric tables -------------------------------------------------

def metrics_to_csv(pm: ProjectMetrics) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CLASS_HEADER)
    for rec in pm.per_class:
        writer.writerow([rec.class_name, *rec.values()])
    return out.getvalue()


def metrics_to_document(pm: ProjectMetrics) -> dict:
    return {
        "schemaVersion": SCHEMA_VERSION,
        "projectName": pm.project_name,
        "metrics": [
            {"class": rec.class_name,
             **{m.lower(): rec.value(m) for m in METRICS}}
            for rec in pm.per_class
        ],
        "means": {m.lower(): pm.means[m] for m in METRICS},
    }


_row_cells = itemgetter("class", *(m.lower() for m in METRICS))


def metrics_from_document(doc: dict, project_name: str = "") -> ProjectMetrics:
    rows = doc.get("metrics")
    if not isinstance(rows, list):
        raise SchemaError("metrics", "must be an array")
    records = _document_records(rows)
    if records is None:
        records = _document_records_by_row(rows)
    return _project_metrics(read_project_name(doc, project_name), records)


def _document_records(rows: list) -> list[MetricRecord] | None:
    """The rows' records, read a column at a time; None when a check fails.

    Only plain dicts with plain str names and plain int values pass, so
    every row that would raise, or that needs a closer look, goes to
    ``_document_records_by_row``.
    """
    if not rows:
        return []
    if set(map(type, rows)) != {dict}:
        return None
    try:
        cells = list(map(_row_cells, rows))
    except KeyError:
        return None
    columns = list(zip(*cells))
    names = columns[0]
    values = list(chain.from_iterable(columns[1:]))
    if (set(map(type, names)) != {str} or not all(names)
            or len(set(names)) != len(names)
            or set(map(type, values)) != {int}
            or min(values) < 0 or max(values) >= _FLOAT_OVERFLOW):
        return None
    return list(map(_new_record, cells))


def _document_records_by_row(rows: list) -> list[MetricRecord]:
    """The rows' records, checked row by row; the first fault raises."""
    records = []
    first: dict[str, int] = {}
    for i, row in enumerate(rows):
        path = f"metrics[{i}]"
        if not isinstance(row, dict):
            raise SchemaError(path, "row must be an object")
        name = row.get("class")
        if not isinstance(name, str) or not name:
            raise SchemaError(f"{path}.class", "must be a non-empty string")
        if first.setdefault(name, i) != i:
            raise SchemaError(f"{path}.class", f"duplicate class {name!r}, "
                              f"first at metrics[{first[name]}]")
        values = {}
        for m in METRICS:
            v = row.get(m.lower())
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise SchemaError(f"{path}.{m.lower()}",
                                  "must be a non-negative integer")
            if v >= _FLOAT_OVERFLOW:
                raise SchemaError(f"{path}.{m.lower()}", "is too large")
            values[m.lower()] = v
        records.append(MetricRecord(class_name=name, **values))
    return records


def metrics_from_csv(text: str, project_name: str = "") -> ProjectMetrics:
    records = _csv_records(text)
    if records is None:
        records = _csv_records_by_row(text)
    return _project_metrics(project_name, records)


def _csv_records(text: str) -> list[MetricRecord] | None:
    """The table's records, read a column at a time; None when a check fails.

    Only a table whose first row is the header and whose every other row
    has seven cells, a non-blank name and six cells that ``int`` reads in
    range passes; anything else goes to ``_csv_records_by_row``.
    """
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error:
        return None
    if (not rows or _header(rows[0]) != CLASS_HEADER
            or set(map(len, rows)) != {len(CLASS_HEADER)}):
        return None
    del rows[0]
    if not rows:
        return []
    columns = list(zip(*rows))
    names = list(map(str.strip, columns[0]))
    try:
        counts = [list(map(int, column)) for column in columns[1:]]
    except ValueError:
        return None
    if (not all(names) or len(set(names)) != len(names)
            or min(map(min, counts)) < 0 or max(map(max, counts)) >= _FLOAT_OVERFLOW):
        return None
    return list(map(_new_record, zip(names, *counts)))


def _csv_records_by_row(text: str) -> list[MetricRecord]:
    """The table's records, checked row by row; the first fault raises."""
    header, rows = _table_rows(text)
    if header != CLASS_HEADER:
        raise InputError("metrics table must start with header "
                         + ",".join(CLASS_HEADER))
    records = []
    first: dict[str, int] = {}
    for lineno, row in rows:
        if len(row) != len(CLASS_HEADER):
            raise InputError(f"line {lineno}: expected {len(CLASS_HEADER)} columns")
        name = row[0].strip()
        if not name:
            raise InputError(f"line {lineno}: empty class name")
        if first.setdefault(name, lineno) != lineno:
            raise InputError(f"line {lineno}: duplicate class {name!r}, "
                             f"first on line {first[name]}")
        records.append(MetricRecord(name, *_metric_cells(row, lineno)))
    return records


def _project_metrics(project_name: str, records: list[MetricRecord]) -> ProjectMetrics:
    """The ProjectMetrics of records with distinct names, sorted by name."""
    records.sort(key=_record_name)
    return ProjectMetrics(project_name=project_name, per_class=tuple(records),
                          means=project_means(records))


def _metric_cells(row: list[str], lineno: int) -> list[int]:
    """The six metric cells of a table row as non-negative integers."""
    values = []
    for m, cell in zip(METRICS, row[1:]):
        try:
            v = int(cell.strip())
        except ValueError:
            raise InputError(f"line {lineno}: {m} value {cell.strip()!r} "
                             "is not an integer") from None
        if v < 0:
            raise InputError(f"line {lineno}: {m} must be non-negative")
        if v >= _FLOAT_OVERFLOW:
            raise InputError(f"line {lineno}: {m} value {cell.strip()!r} is too large")
        values.append(v)
    return values


def _header(row: list[str]) -> tuple[str, ...]:
    """A header row as the readers and ``sniff`` compare it: each cell
    stripped and upper-cased, so quoted and padded names read alike."""
    return tuple(cell.strip().upper() for cell in row)


def _table_rows(text: str):
    """The table's header as ``_header`` reads it, empty when every row is
    blank, and an iterator of ``_csv_rows`` over the rows after it."""
    rows = _csv_rows(text)
    first = next(rows, None)
    return (() if first is None else _header(first[1])), rows


def _csv_rows(text: str):
    """(line, row) for each non-blank row, line being where the row starts."""
    reader = csv.reader(io.StringIO(text))
    lineno = 1
    try:
        for row in reader:
            if "".join(row).strip():
                yield lineno, row
            lineno = reader.line_num + 1
    except csv.Error as exc:  # a cell over the csv module's field size limit
        raise InputError(f"line {lineno}: {exc}") from None


# --- version mean tables -----------------------------------------------------

class VersionRecord(NamedTuple):
    version_name: str
    source_path: str
    means: dict[str, float]

    def mean(self, metric: str) -> float:
        return self.means[metric]


def versions_from_csv(text: str) -> list[VersionRecord]:
    """One record per row of a VERSION[,PATH] table."""
    header, rows = _table_rows(text)
    if not header:
        raise InputError("empty versions table")
    if header == VERSION_PATH_HEADER:
        has_path = True
    elif header == VERSION_HEADER:
        has_path = False
    else:
        raise InputError("versions table must start with header "
                         + ",".join(VERSION_HEADER) + " (PATH column optional)")
    out = []
    offset = 2 if has_path else 1
    for lineno, row in rows:
        if len(row) != len(header):
            raise InputError(f"line {lineno}: expected {len(header)} columns")
        name = row[0].strip()
        if not name:
            raise InputError(f"line {lineno}: empty version name")
        means = {m: read_number(cell.strip(), f"line {lineno}: {m}")
                 for m, cell in zip(METRICS, row[offset:])}
        out.append(VersionRecord(name, row[1].strip() if has_path else "", means))
    return out


def versions_from_document(doc: dict) -> list[VersionRecord]:
    rows = doc.get("versions")
    if not isinstance(rows, list):
        raise SchemaError("versions", "must be an array")
    out = []
    for i, row in enumerate(rows):
        path = f"versions[{i}]"
        if not isinstance(row, dict):
            raise SchemaError(path, "version entry must be an object")
        name = row.get("version")
        if not isinstance(name, str) or not name:
            raise SchemaError(f"{path}.version", "must be a non-empty string")
        raw = row.get("means")
        if not isinstance(raw, dict):
            raise SchemaError(f"{path}.means", "must be an object")
        means = {}
        for m in METRICS:
            v = raw.get(m.lower())
            if isinstance(v, str):  # read_number would parse it as text
                raise SchemaError(f"{path}.means.{m.lower()}",
                                  f"{v!r} is not a number")
            means[m] = read_number(v, f"{path}.means.{m.lower()}")
        source = row.get("path", "")
        if not isinstance(source, str):
            raise SchemaError(f"{path}.path", "must be a string")
        out.append(VersionRecord(name, source, means))
    return out


# --- file-level sniffing -----------------------------------------------------

def read_text(path: str | Path) -> str:
    """A UTF-8 input file's text, without one leading byte-order mark."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 at byte {exc.start}: "
                         f"{exc.reason}") from None
    return text.removeprefix("\ufeff")


def encode_output(text: str, name: str | Path, encoding: str = "UTF-8",
                  errors: str = "strict") -> bytes:
    """``text`` in ``encoding`` for the output ``name``. A code point that
    the encoding cannot encode, such as a lone surrogate from a JSON escape
    or a file name that is not UTF-8, is an input error."""
    try:
        return text.encode(encoding, errors)
    except UnicodeEncodeError as exc:
        raise InputError(f"cannot write {name}: U+{ord(exc.object[exc.start]):04X} "
                         f"cannot be encoded as {encoding}") from None


def _open_in_place(path: str | Path, flags: int) -> int:
    """The opener of ``write_text``: mode ``"wb"``'s flags, creation mode and
    all, without ``O_TRUNC``."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def write_text(path: str | Path, text: str) -> None:
    """Write text to a file as UTF-8, encoded before the file is opened.

    An existing regular file is rewritten in place and then cut at the end
    of what was written, instead of being truncated to zero when it is
    opened: ext4 (with its default ``auto_da_alloc``) starts the writeback
    of a file that was truncated to zero and written again as soon as it is
    closed, which costs more than the write. The cut is made even when a
    write fails part-way, so no byte of the old output is left after the
    new ones. A device, a FIFO or a terminal is written without a cut.
    Nothing is synced.
    """
    data = encode_output(text, path)
    try:
        with open(path, "wb", buffering=0, opener=_open_in_place) as file:
            try:
                view = memoryview(data)
                while view:
                    view = view[file.write(view):]
            finally:
                if S_ISREG(os.fstat(file.fileno()).st_mode):
                    file.truncate()  # at the end of what was written
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None


def read_input(path: str | Path,
               versions: bool = True) -> ProjectMetrics | list[VersionRecord]:
    """Read, sniff and parse one input file.

    A metrics table or class model gives a ProjectMetrics named by its
    ``projectName``, or after the file's stem where it has none (a CSV
    table never has one); a versions table gives its rows as
    ``VersionRecord``s. With ``versions`` false a versions table is refused
    before it is parsed.
    """
    kind, payload = sniff(read_text(path), str(path))
    if kind == "model":
        return _metrics.compute_all(load_class_model(payload, project_name=Path(path).stem))
    document = isinstance(payload, dict)
    if kind == "metrics":
        read = metrics_from_document if document else metrics_from_csv
        return read(payload, project_name=Path(path).stem)
    if not versions:
        raise InputError(f"{path}: expected a metrics table or class model document")
    return versions_from_document(payload) if document else versions_from_csv(payload)


def load_metrics_input(path: str | Path) -> ProjectMetrics:
    """Load a ProjectMetrics from a metrics table or a class model file."""
    return read_input(path, versions=False)


def sniff(text: str, label: str) -> tuple[str, str | dict]:
    """Classify file content: class model, metrics table, or versions table."""
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
            raise InputError(f"{label}: invalid JSON: {exc}") from None
        # JSON text that starts with { is an object, or not JSON at all
        if "classes" in doc:
            return "model", doc
        if "metrics" in doc:
            return "metrics", doc
        if "versions" in doc:
            return "versions", doc
        raise InputError(f"{label}: unrecognized document "
                         "(no classes, metrics, or versions key)")
    header = _table_rows(text)[0]
    if len(header) > 1 and header[0] == "CLASS":
        return "metrics", text
    if len(header) > 1 and header[0] == "VERSION":
        return "versions", text
    raise InputError(f"{label}: unrecognized file format")
