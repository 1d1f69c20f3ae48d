"""End-to-end and per-layer benchmark of ckeval through ``cli_main``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory. Set-up imports the package afresh, generates the workload's
inputs from the seed and writes them to a scratch directory under
``.bench_work/``; it is repeated five times and its median is ``setup_s``.
The measurement is a closed loop with one client: ops run one after
another, in whole rounds, until ``--seconds`` have passed (at least two
rounds, so every output is also compared byte for byte with the same op's
output from the first round).

On a host shared with other work, the same code runs up to twice as
slowly from one moment to the next. A fixed calibration workload runs
before every op and every set-up, and reported times are scaled to the
reference speed, at which the calibration takes ``CALIBRATION_REF_S``
(see ``scale_times``).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of
``layers.PER_LAYER`` as medians over traced rounds; the spans are written
to ``.bench_out/trace-<workload>-seed<N>.json``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. An op fails when ``cli_main`` returns non-zero
or its output differs from the reference. Exit status 2 means the
benchmark could not run at all.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
from pathlib import Path
import random
import resource
import shutil
import statistics
import sys
from time import perf_counter

import layers
from workloads import INPUT_MTIME, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_ROUNDS = 2
CALIBRATION_REF_S = 0.012  # the calibration's time at the reference speed
CALIBRATION_WINDOW = 4  # ops on each side whose calibrations scale an op

END_TO_END = {
    "setup_s": "s",
    "classes_per_s": "classes/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_cli():
    """Import ckeval afresh from this checkout and return ``cli_main``."""
    for name in [n for n in sys.modules if n == "ckeval" or n.startswith("ckeval.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("ckeval.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ckeval imported from {cli.__file__}, not from {SRC}")
    return cli.cli_main


def set_up(name: str, seed: int):
    """Import, generate and write the inputs; returns (seconds, cli, workload, digest)."""
    start = perf_counter()
    cli_main = import_cli()
    workload = WORKLOADS[name](seed, ROOT)
    shutil.rmtree("inputs", ignore_errors=True)
    for rel, text in workload.files.items():
        path = Path(rel)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        os.utime(path, (INPUT_MTIME, INPUT_MTIME))
    Path("out").mkdir(exist_ok=True)
    elapsed = perf_counter() - start
    digest = hashlib.sha256()
    for rel in sorted(workload.files):
        digest.update(f"{rel}\0{workload.files[rel]}\0".encode("utf-8"))
    return elapsed, cli_main, workload, digest.hexdigest()


class Calibration:
    """A fixed pure-Python workload whose time tracks the host's current speed.

    It mixes integer arithmetic, a character-by-character scan of a fixed
    text, and an object-graph walk (dict lookups, set and list membership)
    over a few thousand nodes: the kinds of work ckeval's lexer and metric
    loops do. Load from other tenants slows
    both in much the same way. On a shared 2-vCPU Xeon host, the spread of
    a compute_all call between 5 s windows (quartile distance over
    median) fell from 7% to 4% after scaling by this calibration. In a
    busier period it fell from 40% to 8-10%.
    """

    def __init__(self):
        rng = random.Random(0)
        names = [f"pkg{i % 7}.Class{i:05d}" for i in range(3000)]
        self.parents = {name: names[rng.randrange(i)] if i and rng.random() < 0.5 else None
                        for i, name in enumerate(names)}
        self.refs = {name: frozenset(rng.sample(names, 6)) for name in names}
        self.order = names[:]
        rng.shuffle(self.order)
        self.text = " ".join(f"{name}.call({i}, \"a, b\");" for i, name in enumerate(names[:300]))
        self.samples: list[float] = []

    def __call__(self) -> None:
        start = perf_counter()
        total = 0
        table = {}
        for i in range(30_000):
            total += i * i
            table[i % 500] = total
        text, i, words = self.text, 0, 0
        while i < len(text):
            if text[i].isalpha():
                while i < len(text) and (text[i].isalnum() or text[i] in "_."):
                    i += 1
                words += 1
            else:
                i += 1
        hits = 0
        for name in self.order:
            chain = []
            parent = self.parents[name]
            while parent is not None and len(chain) < 8:
                chain.append(parent)
                parent = self.parents[parent]
            for ref in self.refs[name]:
                if ref in chain or name in self.refs[ref]:
                    hits += 1
        self.samples.append(perf_counter() - start)

    def speed_factor(self) -> float:
        """Multiplier that scales this run's times to the reference speed."""
        return CALIBRATION_REF_S / statistics.median(self.samples)


class Runner:
    """Runs ops, checks their outputs and keeps the tallies of one run."""

    def __init__(self, cli_main, calibration: Calibration):
        self.cli_main = cli_main
        self.calibration = calibration
        self.attempted = 0
        self.failures: list[str] = []
        self.first_output: dict[str, str] = {}

    def run(self, op, tracer=None) -> float:
        """One op; returns its wall time in seconds."""
        gc.collect()  # each op starts from a collected heap, like a fresh process
        self.calibration()
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            start = perf_counter()
            if tracer is None:
                code = self.cli_main(op.argv)
            else:
                code = tracer.op(op.label, lambda: self.cli_main(op.argv))
            elapsed = perf_counter() - start
        self.attempted += 1
        error = self.verify(op, code, stderr.getvalue())
        if error is not None:
            self.failures.append(f"{op.label}: {error}")
        return elapsed

    def verify(self, op, code: int, stderr: str) -> str | None:
        if code != 0:
            return f"exit {code}: {stderr.strip()[:300]}"
        try:
            texts = [Path(p).read_text(encoding="utf-8") for p in op.outputs]
        except (OSError, UnicodeDecodeError) as exc:
            return f"cannot read output: {exc}"
        digest = hashlib.sha256("\0".join(texts).encode("utf-8")).hexdigest()
        first = self.first_output.get(op.label)
        if first is None:
            self.first_output[op.label] = digest
            return op.check(texts)
        if digest != first:
            return "output differs from the same op's first output"
        return None

    def output_digest(self) -> str:
        joined = "".join(f"{k}={v};" for k, v in sorted(self.first_output.items()))
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def measure(runner: Runner, workload, seconds: float) -> dict:
    calibrations = runner.calibration.samples
    first = len(calibrations)
    latencies = []
    rounds = 0
    start = perf_counter()
    while rounds < MIN_ROUNDS or perf_counter() - start < seconds:
        latencies.extend(runner.run(op) for op in workload.ops)
        rounds += 1
    runner.calibration()
    scaled = scale_times(latencies, calibrations[first:])
    print(f"  {rounds} rounds of {len(workload.ops)} ops, {len(latencies)} ops in "
          f"{perf_counter() - start:.1f} s; times scaled by "
          f"{sum(scaled) / sum(latencies):.3f}")
    return {
        "classes_per_s": rounds * sum(op.units for op in workload.ops) / sum(scaled),
        "op_p50_ms": statistics.median(scaled) * 1e3,
        "op_p90_ms": statistics.quantiles(scaled, n=10)[-1] * 1e3,
    }


def scale_times(times: list[float], calibrations: list[float]) -> list[float]:
    """Times at the reference speed.

    ``calibrations[i]`` ran just before ``times[i]`` and one more ran after
    the last. Each time is scaled by the median of the calibrations of the
    ops around it: near enough to follow the host's slow spells, and
    enough samples to average out the calibration's own noise.
    """
    return [t * CALIBRATION_REF_S
            / statistics.median(calibrations[max(0, i - CALIBRATION_WINDOW):
                                             i + CALIBRATION_WINDOW + 2])
            for i, t in enumerate(times)]


def traced(runner: Runner, workload, seconds: float, name: str, seed: int) -> dict:
    tracer = layers.Tracer()
    untraced_walls, traced_walls, rounds = [], [], []
    per_op_rounds: dict[str, list[dict[str, float]]] = {}
    start = perf_counter()
    while len(traced_walls) < MIN_ROUNDS or perf_counter() - start < seconds:
        untraced_walls.append(sum(runner.run(op) for op in workload.ops))
        first = len(tracer.spans)
        tracer.install()
        try:
            traced_walls.append(sum(runner.run(op, tracer) for op in workload.ops))
        finally:
            tracer.uninstall()
        totals, per_op = tracer.summarize(first)
        rounds.append(totals)
        for label, values in per_op.items():
            per_op_rounds.setdefault(label, []).append(values)
    scale = runner.calibration.speed_factor()
    print(f"  {len(traced_walls)} traced and {len(untraced_walls)} untraced rounds "
          f"of {len(workload.ops)} ops in {perf_counter() - start:.1f} s; "
          f"times scaled by {scale:.3f}")

    result = {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
    result["trace.overhead_s"] = (statistics.median(traced_walls)
                                  - statistics.median(untraced_walls))
    for key, unit, _ in layers.PER_LAYER:
        if unit == "s":
            result[key] *= scale
        elif unit == "MB/s":
            result[key] /= scale
    result["java.lexer.scaling_exp"] = result["metrics.cbo.scaling_exp"] = 0.0
    if workload.scaling is not None:
        (small, n0, c0), (large, n1, c1) = workload.scaling

        def busy(label, key):
            return statistics.median(r.get(key, 0.0) for r in per_op_rounds[label])
        result["metrics.cbo.scaling_exp"] = layers.scaling_exponent(
            (n0, busy(small, "metrics.cbo.busy_s")), (n1, busy(large, "metrics.cbo.busy_s")))
        result["java.lexer.scaling_exp"] = layers.scaling_exponent(
            (c0, busy(small, "java.lexer.busy_s")), (c1, busy(large, "java.lexer.busy_s")))
        top = sorted(((busy(large, key) * scale, key) for key in per_op_rounds[large][0]),
                     reverse=True)[:3]
        print(f"  largest layers on {large}: "
              + ", ".join(f"{key} {value:.3f} s" for value, key in top))

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    origin = tracer.spans[0][3] if tracer.spans else 0.0
    with open(out / f"trace-{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed,
                   "fields": ["name", "layer", "parent", "start_s", "end_s"],
                   "spans": [[s[0], s[1], s[2], s[3] - origin, s[4] - origin]
                             for s in tracer.spans]}, fh)
    return result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ckeval" / "__init__.py").is_file():
        print(f"bench: no ckeval sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    home = os.getcwd()
    os.chdir(work)
    try:
        calibration = Calibration()
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            gc.collect()
            calibration()
            setups.append(set_up(args.workload, args.seed))
        calibration()
        setup_times = scale_times([s[0] for s in setups], calibration.samples)
        _, cli_main, workload, input_digest = setups[-1]
        inputs_repeatable = all(s[3] == input_digest for s in setups)
        del setups
        print(f"{args.workload} seed {args.seed}: inputs {input_digest[:16]}, "
              f"{len(workload.files)} files, set-up {statistics.median(setup_times):.3f} s")

        runner = Runner(cli_main, calibration)
        if args.trace:
            values = traced(runner, workload, args.seconds, args.workload, args.seed)
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
        else:
            values = measure(runner, workload, args.seconds)
            values["setup_s"] = statistics.median(setup_times)
            values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                     / 1024)
            units = END_TO_END
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)

    if not inputs_repeatable:
        runner.failures.append("set-up: the same seed generated different inputs")
    print(f"  outputs {runner.output_digest()[:16]}")
    for failure in runner.failures[:20]:
        print(f"  FAILED {failure}")
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
