"""The three workloads: seeded inputs, the ops of one round, and the
reference that each op's output is checked against.

Every op is one ``cli_main`` invocation on generated files. A round runs
the workload's ops once, in a fixed order; the run repeats whole rounds,
so every run sees the same mix of ops.
"""

import csv
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
import random
from typing import Callable

import checks
import docgen
import javagen
import oracle

# Inputs get a fixed mtime, so the provenance in structured outputs, and
# with it every output byte, depends on the seed alone.
INPUT_MTIME = 1_600_000_000
MODIFIED = datetime.fromtimestamp(INPUT_MTIME, tz=timezone.utc).isoformat(timespec="seconds")

JAVA_SIZES = (25, 60, 120, 240)
MODEL_VERSIONS = 6
TABLE_SIZES = (25, 80, 250, 800, 2500)


@dataclass
class Op:
    label: str
    argv: list[str]
    outputs: list[str]   # files the op writes, checked in this order
    units: int           # classes or table rows the op processes
    check: Callable[[list[str]], str | None]


@dataclass
class Workload:
    files: dict[str, str]   # input path -> content, written during set-up
    ops: list[Op]
    # (label, classes, characters) of the smallest and largest Java projects
    scaling: tuple[tuple[str, int, int], tuple[str, int, int]] | None = None


def analyze_java(seed: int, root: Path) -> Workload:
    """Java projects of several sizes, plus the fixture corpus."""
    files: dict[str, str] = {}
    ops = []
    sizes = []
    for n in JAVA_SIZES:
        sources, plan = javagen.generate_project(random.Random(f"java/{seed}/{n}"), n)
        for rel, text in sources.items():
            files[f"inputs/p{n}/{rel}"] = text
        label = f"analyze-{n}"
        out = f"out/{label}.csv"
        ops.append(Op(label, ["analyze", f"inputs/p{n}", "--project", f"p{n}",
                              "--out", out],
                      [out], n, checks.check_metrics_csv(oracle.ck_metrics(plan))))
        sizes.append((label, n, sum(len(t) for t in sources.values())))

    corpus = root / "tests" / "fixtures" / "corpus"
    with open(corpus / "expected_metrics.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    expected = {r[0]: dict(zip(oracle.METRICS, map(int, r[1:]))) for r in rows}
    out = "out/analyze-corpus.csv"
    ops.append(Op("analyze-corpus", ["analyze", str(corpus), "--out", out], [out],
                  len(expected), checks.check_metrics_csv(expected)))
    return Workload(files, ops, scaling=(sizes[0], sizes[-1]))


def model_compare(seed: int, root: Path) -> Workload:
    """A six-version series of class-model documents with a growing deep chain."""
    files: dict[str, str] = {}
    paths = []
    expected = []
    for k in range(MODEL_VERSIONS):
        doc = docgen.model_version(random.Random(f"model/{seed}/{k}"), "svc",
                                   n_wide=40 + 8 * k, chain_depth=10 + 8 * k)
        path = f"inputs/v{k + 1}.json"
        files[path] = docgen.model_text(doc)
        paths.append(path)
        expected.append(oracle.ck_metrics(doc["classes"]))

    versions = [(f"SÜRÜM-{k + 1}", oracle.means(e)) for k, e in enumerate(expected)]
    ops = [Op("compare-series",
              ["compare", *paths, "--format", "structured", "--locale", "tr",
               "--chart", "out/series.svg", "--out", "out/series.json"],
              ["out/series.json", "out/series.svg"],
              sum(len(e) for e in expected),
              checks.check_verdicts(versions, oracle.METRICS,
                                    [(p, MODIFIED) for p in paths], chart=True))]
    for path, per_class in zip(paths, expected):
        label = f"evaluate-{Path(path).stem}"
        out = f"out/{label}.json"
        ops.append(Op(label, ["evaluate", path, "--format", "structured", "--out", out],
                      [out], len(per_class),
                      checks.check_assessments(per_class, "class", [(path, MODIFIED)])))
    return Workload(files, ops)


def evaluate_tables(seed: int, root: Path) -> Workload:
    """Metrics tables (CSV and JSON) and versions tables, many short ops."""
    files: dict[str, str] = {}
    ops = []
    for i, n in enumerate(TABLE_SIZES):
        rows = docgen.metrics_rows(random.Random(f"table/{seed}/{i}"), n, f"t{i}")
        if i % 2:
            path = f"inputs/table{i}.json"
            files[path] = docgen.metrics_json(rows, oracle.METRICS, f"t{i}")
        else:
            path = f"inputs/table{i}.csv"
            files[path] = docgen.metrics_csv(rows, oracle.METRICS)
        prov = [(path, MODIFIED)]
        by_range = {"WMC": (2, 5), "LCOM": [0, 1, 2]}
        open_range = {"DIT": (3, None), "CBO": (6, 10)}
        for label, extra, check in (
                ("class", [], checks.check_assessment_text(rows, "class")),
                ("class-structured", ["--format", "structured"],
                 checks.check_assessments(rows, "class", prov)),
                ("project-tr", ["--scope", "project", "--locale", "tr"],
                 checks.check_assessment_text(rows, "project")),
                ("select-structured",
                 ["--select", "WMC=2-5", "--select", "LCOM=0,1,2",
                  "--format", "structured"],
                 checks.check_filters(rows, by_range, prov)),
                ("select", ["--select", "CBO=6-10", "--select", "DIT=3-"],
                 checks.check_filter_text(rows, open_range))):
            out = f"out/table{i}-{label}.out"
            ops.append(Op(f"table{i}-{label}", ["evaluate", path, *extra, "--out", out],
                          [out], n, check))

    series = []
    for i, (n, tag, fmt) in enumerate(((8, "rel", "csv"), (12, "build", "json"))):
        rows = docgen.version_rows(random.Random(f"versions/{seed}/{i}"), n, tag,
                                   oracle.METRICS)
        path = f"inputs/versions{i}.{fmt}"
        files[path] = (docgen.versions_csv if fmt == "csv" else docgen.versions_json)(
            rows, oracle.METRICS)
        series.append((path, [(v, {m: float(c[m]) for m in oracle.METRICS})
                              for v, _, c in rows]))

    (path0, v0), (path1, v1) = series
    subset = ("WMC", "CBO", "RFC", "NOC")
    ops.append(Op("compare-text", ["compare", path0, "--chart", "out/c0.svg",
                                   "--out", "out/c0.txt"],
                  ["out/c0.txt", "out/c0.svg"], len(v0),
                  checks.check_verdict_text(v0, oracle.METRICS, chart=True)))
    ops.append(Op("compare-subset",
                  ["compare", path1, "--format", "structured", "--locale", "tr",
                   "--metrics", ",".join(subset), "--chart", "out/c1.svg",
                   "--out", "out/c1.json"],
                  ["out/c1.json", "out/c1.svg"], len(v1),
                  checks.check_verdicts(v1, subset, [(path1, MODIFIED)], chart=True)))
    ops.append(Op("compare-both", ["compare", path0, path1, "--format", "structured",
                                   "--out", "out/c2.json"],
                  ["out/c2.json"], len(v0) + len(v1),
                  checks.check_verdicts(v0 + v1, oracle.METRICS,
                                        [(path0, MODIFIED), (path1, MODIFIED)],
                                        chart=False)))
    return Workload(files, ops)


WORKLOADS = {
    "analyze-java": analyze_java,
    "model-compare": model_compare,
    "evaluate-tables": evaluate_tables,
}
