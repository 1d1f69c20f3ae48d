"""Per-layer tracing for the traced run.

The tracer wraps each layer's public functions at the module attributes
through which ckeval's own code looks them up, so the spans sit at the
layer boundaries of an unmodified ``cli_main`` call. A span is
``[name, layer, parent, start, end, count_s]``: the wrapper counts the
call's work (tokens, rows, ...) after taking the end time and records how
long counting took, so counting is charged to the tracing overhead and
not to the caller's self time. Spans are kept in memory and written out
when the run ends.

A span's self time is its duration minus the durations of its direct
children. A layer's busy time is the sum of its spans' self times, so
``java.parser`` is ``parse_source`` without its ``tokenize`` and
``java.lower`` is ``lower_to_model`` without its ``build_model``. The root
span of each op belongs to ``cli``; its self time (argparse, source
discovery, file reads and writes) is ``cli.other_s``.
"""

import math
import sys
from time import perf_counter

METRIC_FUNCTIONS = ("wmc", "dit", "noc", "cbo", "rfc", "lcom")

# layer -> (module, attribute) pairs through which callers reach the function
BINDINGS = {
    "java.lexer": [("ckeval.java.parser", "tokenize")],
    "java.parser": [("ckeval.cli", "parse_source")],
    "java.lower": [("ckeval.cli", "lower_to_model")],
    "model": [("ckeval.java.lower", "build_model"), ("ckeval.model", "build_model"),
              ("ckeval.tables", "load_class_model"),
              ("ckeval.versions", "load_class_model")],
    **{f"metrics.{name}": [("ckeval.metrics", name)] for name in METRIC_FUNCTIONS},
    "metrics.compute_all": [("ckeval.cli", "compute_all"),
                            ("ckeval.metrics", "compute_all")],
    "rules": [("ckeval.rules", "evaluate_project"),
              ("ckeval.rules", "filter_by_ranges"),
              ("ckeval.rules", "resolve_rule_base")],
    "tables": [("ckeval.tables", name) for name in (
        "read_text", "sniff", "load_metrics_input", "metrics_from_csv",
        "metrics_from_document", "versions_from_csv", "versions_from_document",
        "metrics_to_csv", "metrics_to_document")],
    "versions": [("ckeval.versions", "load_versions"),
                 ("ckeval.versions", "compare_versions")],
    "report": [("ckeval.report", name) for name in (
        "comparison_report", "assessment_report", "filter_report", "render_text")],
    "export": [("ckeval.export", name) for name in (
        "export_structured", "assessments_document", "verdicts_document",
        "filters_document", "input_provenance")],
    "chart": [("ckeval.chart", "emit_chart"), ("ckeval.chart", "build_chart_svg")],
}
LAYERS = tuple(BINDINGS) + ("cli",)

# name, unit, better; busy times and counts are per round of the op list
PER_LAYER = (
    [(f"{layer}.busy_s", "s", "lower") for layer in LAYERS if layer != "cli"]
    + [("metrics.busy_s", "s", "lower"),
       ("java.lexer.tokens", "count", "lower"),
       ("java.lexer.mb_per_s", "MB/s", "higher"),
       ("java.lexer.scaling_exp", "exp", "lower"),
       ("java.parser.files", "count", "higher"),
       ("java.parser.failed_files", "count", "lower"),
       ("java.lower.calls", "count", "higher"),
       ("java.lower.unresolved_call_ratio", "ratio", "lower"),
       ("model.classes", "count", "higher"),
       ("model.references", "count", "higher"),
       ("metrics.cbo.scaling_exp", "exp", "lower"),
       ("rules.facts", "count", "higher"),
       ("rules.fired_ratio", "ratio", "higher"),
       ("tables.rows", "count", "higher"),
       ("export.bytes", "B", "lower"),
       ("cli.other_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower"),
       ("trace.spans", "count", "lower")])


COUNTERS = ("tokens", "chars", "files", "failed_files", "calls", "unresolved",
            "classes", "references", "facts", "fired", "rows", "bytes")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for layer, bindings in BINDINGS.items():
            for module_name, attr in bindings:
                module = sys.modules[module_name]
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(layer, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span = [name, layer, stack[-1] if stack else -1, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            result, failed = None, True
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                span[4] = perf_counter()
                stack.pop()
                _count(counts, name, args, result, failed)
                span[5] = perf_counter() - span[4]
        return traced

    def op(self, label: str, call):
        """Run one op under a root span of the cli layer."""
        span = [label, "cli", -1, 0.0, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[3] = perf_counter()
        try:
            return call()
        finally:
            span[4] = perf_counter()
            self._stack.pop()

    def summarize(self, first: int) -> tuple[dict, dict]:
        """Busy time and counts since spans[first], per layer and per root op.

        Resets the counters for the next round.
        """
        spans = self.spans
        child_time = [0.0] * (len(spans) - first)
        for i in range(first, len(spans)):
            parent = spans[i][2]
            if parent >= first:
                child_time[parent - first] += spans[i][4] - spans[i][3] + spans[i][5]

        totals = {f"{layer}.busy_s": 0.0 for layer in LAYERS if layer != "cli"}
        totals.update({"cli.other_s": 0.0, "trace.spans": len(spans) - first})
        per_op: dict[int, dict[str, float]] = {}
        root = {}
        for i in range(first, len(spans)):
            layer, parent, start, end = spans[i][1:5]
            root[i] = i if parent < first else root[parent]
            key = "cli.other_s" if layer == "cli" else f"{layer}.busy_s"
            self_time = end - start - child_time[i - first]
            totals[key] += self_time
            op = per_op.setdefault(root[i], {})
            op[key] = op.get(key, 0.0) + self_time

        c = self.counts
        totals["metrics.busy_s"] = sum(v for k, v in totals.items()
                                       if k.startswith("metrics."))
        lexer = totals["java.lexer.busy_s"]
        totals.update({
            "java.lexer.tokens": c["tokens"],
            "java.lexer.mb_per_s": c["chars"] / 1e6 / lexer if lexer else 0.0,
            "java.parser.files": c["files"],
            "java.parser.failed_files": c["failed_files"],
            "java.lower.calls": c["calls"],
            "java.lower.unresolved_call_ratio":
                c["unresolved"] / c["calls"] if c["calls"] else 0.0,
            "model.classes": c["classes"],
            "model.references": c["references"],
            "rules.facts": c["facts"],
            "rules.fired_ratio": c["fired"] / c["facts"] if c["facts"] else 0.0,
            "tables.rows": c["rows"],
            "export.bytes": c["bytes"],
        })
        for key in c:
            c[key] = 0
        return totals, {spans[i][0]: layers for i, layers in per_op.items()}


def _count(counts: dict, name: str, args, result, failed: bool) -> None:
    if name == "parse_source":
        counts["files"] += 1
        counts["failed_files"] += failed
    if failed:
        return
    if name == "tokenize":
        counts["tokens"] += len(result)
        counts["chars"] += len(args[0])
    elif name == "lower_to_model":
        for cls in result.classes:
            for method in cls.methods:
                counts["calls"] += len(method.called_methods)
                counts["unresolved"] += sum(1 for c in method.called_methods
                                            if c.class_name is None)
    elif name == "build_model":
        counts["classes"] += len(result.classes)
        counts["references"] += sum(len(m.called_methods) + len(m.referenced_classes)
                                    for cls in result.classes for m in cls.methods)
    elif name == "evaluate_project":
        counts["facts"] += 6 * len(result)
        counts["fired"] += sum(len(a.fired_rules) for a in result)
    elif name in ("metrics_from_csv", "metrics_from_document"):
        counts["rows"] += len(result.per_class)
    elif name in ("versions_from_csv", "versions_from_document"):
        counts["rows"] += len(result)
    elif name == "export_structured":
        counts["bytes"] += len(result.encode("utf-8"))


def scaling_exponent(small: tuple[float, float], large: tuple[float, float]) -> float:
    """Log-log slope between two (size, seconds) points; 0 when undefined."""
    (n0, t0), (n1, t1) = small, large
    if min(n0, t0, n1, t1) <= 0 or n0 == n1:
        return 0.0
    return math.log(t1 / t0) / math.log(n1 / n0)
