"""The metrics-table readers as they were before the column-wise rewrite.

Test-only oracle: ``metrics_from_csv`` and ``metrics_from_document`` read a
table row by row, checking and building one ``MetricRecord`` at a time.
``tests/test_table_readers.py`` checks that ``ckeval.tables`` gives equal
``ProjectMetrics`` and raises the same errors, with the same messages.
"""

import csv
import io

from ckeval.errors import InputError, SchemaError
from ckeval.metrics import METRICS, MetricRecord, ProjectMetrics
from ckeval.model import read_project_name
from ckeval.tables import CLASS_HEADER, _FLOAT_OVERFLOW


def metrics_from_document(doc: dict, project_name: str = "") -> ProjectMetrics:
    rows = doc.get("metrics")
    if not isinstance(rows, list):
        raise SchemaError("metrics", "must be an array")
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
    records.sort(key=lambda r: r.class_name)
    return ProjectMetrics(project_name=read_project_name(doc, project_name),
                          per_class=tuple(records),
                          means=project_means(records))


def metrics_from_csv(text: str, project_name: str = "") -> ProjectMetrics:
    rows = _csv_rows(text)
    first = next(rows, None)
    if first is None or tuple(cell.strip().upper() for cell in first[1]) != CLASS_HEADER:
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
    records.sort(key=lambda r: r.class_name)
    return ProjectMetrics(project_name=project_name, per_class=tuple(records),
                          means=project_means(records))


def project_means(records: list[MetricRecord]) -> dict[str, float]:
    if not records:
        return {m: 0.0 for m in METRICS}
    n = len(records)
    sums = map(sum, zip(*[rec.values() for rec in records]))
    return {m: total / n for m, total in zip(METRICS, sums)}


def _metric_cells(row: list[str], lineno: int) -> list[int]:
    try:
        values = [int(cell) for cell in row[1:]]
        if min(values) >= 0 and max(values) < _FLOAT_OVERFLOW:
            return values
    except ValueError:
        pass
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


def _csv_rows(text: str):
    reader = csv.reader(io.StringIO(text))
    lineno = 1
    try:
        for row in reader:
            if "".join(row).strip():
                yield lineno, row
            lineno = reader.line_num + 1
    except csv.Error as exc:
        raise InputError(f"line {lineno}: {exc}") from None
