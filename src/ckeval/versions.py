"""Cross-version evaluation: extreme versions per metric, with interpretation.

Each version contributes one per-class mean per metric. For every selected
metric the exact minimum and maximum are found over those means, ties
reported exhaustively, and the direction table maps the extremes onto
quality and effort verdicts (all six metrics default to higher-is-worse;
NOC can be flipped, its reading is disputed in the literature).
"""

from collections import Counter
from pathlib import Path
from typing import NamedTuple

from .errors import InputError
from .metrics import METRICS, ProjectMetrics, check_metric
# not called here; bench/layers.py traces the model layer at this name too
from .model import load_class_model  # noqa: F401
from . import tables
from .tables import VersionRecord


class VersionVerdict(NamedTuple):
    metric: str
    min_versions: tuple[str, ...]
    min_value: float
    max_versions: tuple[str, ...]
    max_value: float
    quality_best: tuple[str, ...]
    quality_worst: tuple[str, ...]
    effort_most: tuple[str, ...]
    effort_least: tuple[str, ...]


def compare_versions(records: list[VersionRecord],
                     metrics: list[str] | None = None,
                     noc_higher_is_worse: bool = True) -> list[VersionVerdict]:
    """Exact min/max per metric over the version means, with full ties."""
    if len(records) < 2:
        raise InputError("version comparison needs at least 2 versions")
    selected = [check_metric(m) for m in metrics] if metrics else list(METRICS)

    dupes = [n for n, k in Counter(r.version_name for r in records).items() if k > 1]
    if dupes:
        raise InputError("duplicate version name: " + ", ".join(sorted(dupes)))

    verdicts = []
    for metric in selected:
        values = [r.mean(metric) for r in records]
        lo, hi = min(values), max(values)
        min_versions = tuple(r.version_name for r in records if r.mean(metric) == lo)
        max_versions = tuple(r.version_name for r in records if r.mean(metric) == hi)
        higher_is_worse = noc_higher_is_worse if metric == "NOC" else True
        worst, best = (max_versions, min_versions) if higher_is_worse \
            else (min_versions, max_versions)
        verdicts.append(VersionVerdict(
            metric=metric,
            min_versions=min_versions, min_value=lo,
            max_versions=max_versions, max_value=hi,
            quality_best=best, quality_worst=worst,
            effort_most=worst, effort_least=best,
        ))
    return verdicts


def load_versions(paths: list[str | Path],
                  name_prefix: str = "VERSION") -> list[VersionRecord]:
    """One record per input row/file, in input order.

    Each path may be a versions table (one record per row; a row without a
    PATH takes the table's path), a per-class metrics table, or a class
    model document; for the latter two the means are computed and the
    version is named ``{name_prefix}-k`` by position.
    """
    records: list[VersionRecord] = []
    for path in paths:
        loaded = tables.read_input(path)
        if isinstance(loaded, ProjectMetrics):
            records.append(VersionRecord(
                version_name=f"{name_prefix}-{len(records) + 1}",
                source_path=str(path),
                means=dict(loaded.means)))
        else:
            records.extend(r if r.source_path else r._replace(source_path=str(path))
                           for r in loaded)
    return records
