"""``evaluate`` and ``compare`` on generated documents and tables against the
benchmark's own oracle.

``bench/docgen.py`` writes seeded class-model documents (each its own plan),
metrics tables and versions tables. ``bench/oracle.py`` works out each
class's metrics, the rules of the README band table that they fire, and the
version verdicts from those plans alone, and ``bench/checks.py`` reads only
the files that ckeval writes, never its objects. So, as
``test_plan_oracle.py`` does for ``analyze``, this check shares none of
ckeval's semantics: not the class model's, nor the rule base's, nor the
assessments'.
"""

import os
from pathlib import Path
import random

import pytest

from ckeval.cli import cli_main
import checks
import docgen
import oracle
from workloads import INPUT_MTIME, MODIFIED

SEEDS = range(5)


def write_input(path: Path, text: str) -> str:
    """Write one input with the benchmark's fixed mtime; its path as given."""
    path.write_text(text, encoding="utf-8")
    os.utime(path, (INPUT_MTIME, INPUT_MTIME))
    return str(path)


def evaluate_ops(path: str, per_class: dict[str, dict[str, int]]) -> list:
    """(argv, check) of each evaluate op on one input of these classes."""
    prov = [(path, MODIFIED)]
    return [
        (["evaluate", path], checks.check_assessment_text(per_class, "class")),
        (["evaluate", path, "--scope", "project", "--locale", "tr"],
         checks.check_assessment_text(per_class, "project")),
        (["evaluate", path, "--format", "structured"],
         checks.check_assessments(per_class, "class", prov)),
        (["evaluate", path, "--scope", "project", "--format", "structured"],
         checks.check_assessments(per_class, "project", prov)),
        (["evaluate", path, "--select", "WMC=2-5", "--select", "LCOM=0,1,2",
          "--format", "structured"],
         checks.check_filters(per_class, {"WMC": (2, 5), "LCOM": [0, 1, 2]}, prov)),
        (["evaluate", path, "--select", "CBO=6-10", "--select", "DIT=3-"],
         checks.check_filter_text(per_class, {"DIT": (3, None), "CBO": (6, 10)})),
    ]


def compare_ops(paths: list[str], versions: list[tuple[str, dict[str, float]]],
                chart: Path) -> list:
    """(argv, check) of compare as text and structured, each with a chart,
    and of structured compare on a subset of the metrics."""
    prov = [(p, MODIFIED) for p in paths]
    subset = ("WMC", "CBO", "RFC", "NOC")
    return [
        (["compare", *paths, "--chart", str(chart)],
         checks.check_verdict_text(versions, oracle.METRICS, chart=True)),
        (["compare", *paths, "--format", "structured", "--chart", str(chart)],
         checks.check_verdicts(versions, oracle.METRICS, prov, chart=True)),
        (["compare", *paths, "--format", "structured", "--metrics", ",".join(subset)],
         checks.check_verdicts(versions, subset, prov, chart=False)),
    ]


def assert_ops_match(ops: list, tmp_path: Path, capsys) -> None:
    for i, (argv, check) in enumerate(ops):
        out = tmp_path / f"op{i}.out"
        assert cli_main([*argv, "--out", str(out)]) == 0, capsys.readouterr().err
        texts = [out.read_text(encoding="utf-8")]
        if "--chart" in argv:
            texts.append(Path(argv[argv.index("--chart") + 1]).read_text(encoding="utf-8"))
        fault = check(texts)
        assert fault is None, f"{' '.join(argv)}: {fault}"


@pytest.mark.parametrize("seed", SEEDS)
def test_model_documents_match_the_plan_oracle(seed, tmp_path, capsys):
    ops, paths, versions = [], [], []
    for k in range(3):
        doc = docgen.model_version(random.Random(f"model/{seed}/{k}"), "svc",
                                   n_wide=6 + 5 * k, chain_depth=2 + 3 * k)
        path = write_input(tmp_path / f"v{k + 1}.json", docgen.model_text(doc))
        per_class = oracle.ck_metrics(doc["classes"])
        ops += evaluate_ops(path, per_class)
        paths.append(path)
        versions.append((f"VERSION-{k + 1}", oracle.means(per_class)))
    ops += compare_ops(paths, versions, tmp_path / "chart.svg")
    assert_ops_match(ops, tmp_path, capsys)


@pytest.mark.parametrize("seed", SEEDS)
def test_metrics_tables_match_the_plan_oracle(seed, tmp_path, capsys):
    ops = []
    for i, n in enumerate((1, 9, 40)):
        rows = docgen.metrics_rows(random.Random(f"table/{seed}/{i}"), n, f"t{i}")
        ops += evaluate_ops(
            write_input(tmp_path / f"table{i}.csv", docgen.metrics_csv(rows, oracle.METRICS)),
            rows)
        ops += evaluate_ops(
            write_input(tmp_path / f"table{i}.json",
                        docgen.metrics_json(rows, oracle.METRICS, f"t{i}")),
            rows)
    assert_ops_match(ops, tmp_path, capsys)


@pytest.mark.parametrize("seed", SEEDS)
def test_versions_tables_match_the_plan_oracle(seed, tmp_path, capsys):
    paths, versions = [], []
    for i, (n, fmt) in enumerate(((5, "csv"), (7, "json"))):
        rows = docgen.version_rows(random.Random(f"versions/{seed}/{i}"), n, f"r{i}",
                                   oracle.METRICS)
        write = docgen.versions_csv if fmt == "csv" else docgen.versions_json
        paths.append(write_input(tmp_path / f"versions{i}.{fmt}", write(rows, oracle.METRICS)))
        versions += [(v, {m: float(c[m]) for m in oracle.METRICS}) for v, _, c in rows]
    assert_ops_match(compare_ops(paths, versions, tmp_path / "chart.svg"), tmp_path, capsys)
