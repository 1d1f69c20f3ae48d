"""``analyze`` on generated Java projects against the benchmark's own oracle.

``bench/javagen.py`` writes a seeded Java-subset project together with the
plan of every reference in it, and ``bench/oracle.py`` works out each
class's metrics from that plan alone, never from ckeval's objects. So this
check does not share ckeval's semantics, or its mistakes, as the
old-implementation oracles of the other tests do.
"""

import random

import pytest

from ckeval.cli import cli_main
import checks
import javagen
import oracle

SEEDS = range(30)


@pytest.mark.parametrize("n_classes", [1, 2, 5, 13, 40])
def test_analyze_matches_the_plan_oracle(n_classes, tmp_path, capsys):
    for seed in SEEDS:
        sources, plan = javagen.generate_project(random.Random(f"java/{seed}/{n_classes}"),
                                                 n_classes)
        root = tmp_path / f"s{seed}"
        for rel, text in sources.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        out = tmp_path / f"s{seed}.csv"
        assert cli_main(["analyze", str(root), "--project", "p", "--out", str(out)]) == 0, \
            capsys.readouterr().err
        fault = checks.check_metrics_csv(oracle.ck_metrics(plan))(
            [out.read_text(encoding="utf-8")])
        assert fault is None, f"seed {seed}: {fault}"
