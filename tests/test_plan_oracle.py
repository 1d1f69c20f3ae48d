"""``analyze`` on generated Java projects against the benchmark's own oracle.

``bench/javagen.py`` writes a seeded Java-subset project together with the
plan of every reference in it, and ``bench/oracle.py`` works out each
class's metrics from that plan alone, never from ckeval's objects. So this
check does not share ckeval's semantics, or its mistakes, as the
old-implementation oracles of the other tests do.
"""

from contextlib import redirect_stderr
import io
from pathlib import Path
import random
import tempfile

from hypothesis import given, settings, strategies as st
import pytest

from ckeval.cli import cli_main
import checks
import javagen
import oracle

SEEDS = range(30)


def assert_analyze_matches_plan(label: str, n_classes: int, root: Path) -> None:
    """Write the project that ``label`` seeds under ``root``, analyze it and
    check each class's metrics against the plan's."""
    sources, plan = javagen.generate_project(random.Random(label), n_classes)
    for rel, text in sources.items():
        path = root / "src" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    out = root / "metrics.csv"
    err = io.StringIO()
    with redirect_stderr(err):
        code = cli_main(["analyze", str(root / "src"), "--project", "p", "--out", str(out)])
    assert code == 0, err.getvalue()
    fault = checks.check_metrics_csv(oracle.ck_metrics(plan))([out.read_text(encoding="utf-8")])
    assert fault is None, f"{label}: {fault}"


@pytest.mark.parametrize("n_classes", [1, 2, 5, 13, 40])
def test_analyze_matches_the_plan_oracle(n_classes, tmp_path):
    for seed in SEEDS:
        assert_analyze_matches_plan(f"java/{seed}/{n_classes}", n_classes, tmp_path / f"s{seed}")


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 60))
def test_analyze_of_any_seed_and_size_matches_the_plan_oracle(seed, n_classes):
    with tempfile.TemporaryDirectory() as root:
        assert_analyze_matches_plan(f"java/{seed}/{n_classes}", n_classes, Path(root))
