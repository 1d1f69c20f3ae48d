"""Command-line interface tying the pipeline together.

Subcommands: analyze (sources -> metrics table), evaluate (metrics + rules
-> assessments, or manual range selection), compare (versions -> verdicts
and optional chart), rules (list/check rule bases).

Exit codes: 0 success, 1 usage error, 2 input error, 3 internal error.
"""

import argparse
import functools
from pathlib import Path
import sys

from . import chart as chart_mod
from . import export as export_mod
from . import report as report_mod
from . import rules as rules_mod
from . import tables
from . import versions as versions_mod
from .errors import InputError, UsageError
from .java import ParseError, decode_source, lower_to_model, parse_source
from .metrics import METRICS, check_metric, compute_all


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}".rstrip())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call; parsing
    leaves it unchanged, so every call shares it."""
    parser = _ArgumentParser(
        prog="ckeval",
        description="Compute C&K object-oriented metrics, evaluate them with "
                    "an if-then rule base, and compare project versions.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "structured"),
                        default="text",
                        help="output format (default: text)")
    common.add_argument("--out", metavar="FILE",
                        help="write output to FILE instead of stdout")
    common.add_argument("--locale", choices=report_mod.LOCALES, default="en",
                        help="report language (default: en)")

    p_analyze = sub.add_parser(
        "analyze", parents=[common],
        help="parse Java sources and emit a per-class metrics table")
    p_analyze.add_argument("roots", nargs="+", metavar="ROOT",
                           help="source files or directories searched "
                                "recursively for .java files")
    p_analyze.add_argument("--project", default="", metavar="NAME",
                           help="project name recorded in structured output")
    p_analyze.add_argument("--strict", action="store_true",
                           help="fail instead of skipping files that do not parse")

    p_eval = sub.add_parser(
        "evaluate", parents=[common],
        help="derive quality assessments from a metrics table or class model")
    p_eval.add_argument("input", metavar="INPUT",
                        help="metrics table (CSV or JSON) or class model document")
    p_eval.add_argument("--rules", default="default", metavar="FILE|default|paper",
                        help="rule base to apply (default: default)")
    p_eval.add_argument("--scope", choices=("class", "project"), default="class",
                        help="evaluate each class or the project means "
                             "(default: class)")
    p_eval.add_argument("--select", action="append", default=[],
                        metavar="METRIC=RANGE",
                        help="manual mode: partition classes by a metric "
                             "condition, e.g. WMC=2-5 or LCOM=0,1,2 "
                             "(repeatable; replaces rule evaluation)")

    p_cmp = sub.add_parser(
        "compare", parents=[common],
        help="compare metric means across project versions")
    p_cmp.add_argument("inputs", nargs="+", metavar="INPUT",
                       help="version tables, metrics tables, or class models, "
                            "in version order")
    p_cmp.add_argument("--metrics", default=None, metavar="LIST",
                       help="comma-separated metric subset (default: all six)")
    p_cmp.add_argument("--chart", metavar="FILE",
                       help="also write a grouped bar chart as SVG")
    p_cmp.add_argument("--noc-direction",
                       choices=("higher-worse", "higher-better"),
                       default="higher-worse",
                       help="how to interpret NOC extremes (default: higher-worse)")

    p_rules = sub.add_parser(
        "rules", parents=[common],
        help="list or check rule bases")
    p_rules.add_argument("action", choices=("list", "check"))
    p_rules.add_argument("file", nargs="?", metavar="FILE",
                         help="rules file to check (check only)")
    p_rules.add_argument("--rules", metavar="FILE|default|paper",
                         help="rule base to list (list only; default: default)")
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError(parser.format_usage().rstrip())
        handler = {
            "analyze": _cmd_analyze,
            "evaluate": _cmd_evaluate,
            "compare": _cmd_compare,
            "rules": _cmd_rules,
        }[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"ckeval: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"ckeval: error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return code if isinstance(code, int) else 0
    except Exception as exc:  # pragma: no cover - defensive
        print(f"ckeval: internal error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


def _write_output(text: str, out: str | None) -> None:
    if out:
        tables.write_text(out, text)
    else:
        sys.stdout.write(text)


# --- analyze -----------------------------------------------------------------

def _discover_sources(roots: list[str]) -> list[Path]:
    found: list[Path] = []
    for root in roots:
        path = Path(root)
        if path.is_file():
            found.append(path)
        elif path.is_dir():
            found.extend(p for p in path.rglob("*.java") if p.is_file())
        else:
            raise InputError(f"no such file or directory: {root}")
    return sorted(set(found), key=lambda p: p.as_posix())


def _cmd_analyze(args) -> int:
    units = []
    failures = 0
    for path in _discover_sources(args.roots):
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
        name = path.as_posix()
        try:
            units.append(parse_source(decode_source(data, name), name))
        except ParseError as exc:
            failures += 1
            for diag in exc.diagnostics:
                print(diag.render(), file=sys.stderr)
            if args.strict:
                return 2
    if failures:
        print(f"ckeval: skipped {failures} file(s) that did not parse",
              file=sys.stderr)
    pm = compute_all(lower_to_model(units, project_name=args.project))
    if args.format == "structured":
        _write_output(export_mod.export_structured(tables.metrics_to_document(pm)),
                      args.out)
    else:
        _write_output(tables.metrics_to_csv(pm), args.out)
    return 0


# --- evaluate ----------------------------------------------------------------

def _cmd_evaluate(args) -> int:
    # a bad selection is a usage error, whatever the input holds
    selection = rules_mod.parse_selection(args.select) if args.select else None
    pm = tables.load_metrics_input(args.input)
    if selection:
        filters = rules_mod.filter_by_ranges(pm, selection)
        if args.format == "structured":
            doc = export_mod.filters_document(filters, export_mod.input_provenance([args.input]))
            _write_output(export_mod.export_structured(doc), args.out)
        else:
            report = report_mod.filter_report(filters, locale=args.locale)
            _write_output(report_mod.render_text(report), args.out)
        return 0

    kb = rules_mod.resolve_rule_base(args.rules)
    assessments = rules_mod.evaluate_project(pm, kb, scope=args.scope)
    if args.format == "structured":
        inputs = export_mod.input_provenance([args.input])
        _write_output(export_mod.assessments_text(assessments, kb, args.scope, inputs),
                      args.out)
    else:
        _write_output(report_mod.assessment_text(assessments, locale=args.locale,
                                                 project_name=pm.project_name,
                                                 scope=args.scope), args.out)
    return 0


# --- compare -----------------------------------------------------------------

def _cmd_compare(args) -> int:
    selected = None
    if args.metrics:
        selected = []
        for name in args.metrics.split(","):
            if name.strip():
                metric = check_metric(name.strip().upper(), UsageError)
                if metric in selected:
                    raise UsageError(f"metric {metric} selected twice")
                selected.append(metric)
        if not selected:
            raise UsageError("--metrics must select at least one metric")

    strings = report_mod.STRINGS[args.locale]
    records = versions_mod.load_versions(args.inputs, strings["version_prefix"])
    verdicts = versions_mod.compare_versions(
        records, metrics=selected,
        noc_higher_is_worse=(args.noc_direction == "higher-worse"))

    if args.chart:
        spec = chart_mod.ChartSpec(
            groups=tuple(r.version_name for r in records),
            series=tuple((m, tuple(r.mean(m) for r in records))
                         for m in (selected or METRICS)))
        chart_mod.emit_chart(spec, args.chart, title=strings["chart_title"])

    if args.format == "structured":
        doc = export_mod.verdicts_document(
            verdicts, export_mod.input_provenance(args.inputs))
        _write_output(export_mod.export_structured(doc), args.out)
    else:
        report = report_mod.comparison_report(verdicts, locale=args.locale)
        _write_output(report_mod.render_text(report), args.out)
    return 0


# --- rules -------------------------------------------------------------------

def _cmd_rules(args) -> int:
    if args.action == "check":
        if args.rules is not None:
            raise UsageError("rules check reads no --rules; "
                             "give the rules file as FILE")
        if not args.file:
            raise UsageError("rules check requires a FILE argument")
        kb = rules_mod.load_rules(tables.read_text(args.file))
        complete = "complete" if kb.is_complete() else "incomplete"
        _write_output(f"OK: {len(kb.rules)} rules, {complete} cover\n", args.out)
        return 0

    if args.file is not None:
        raise UsageError("rules list reads no FILE; "
                         f"use --rules {args.file} to list it")
    kb = rules_mod.resolve_rule_base(args.rules or "default")
    if args.format == "structured":
        _write_output(rules_mod.serialize_rules(kb), args.out)
        return 0
    lines = [f"{kb.name}: {len(kb.rules)} rules"]
    for rule in kb.rules:
        conclusions = ", ".join(
            f"{report_mod.attribute_text(a, args.locale)}: "
            f"{report_mod.level_text(a, level, args.locale)}"
            for a, level in rule.conclusions)
        lines.append(f"{rule.id}: {rule.metric} {rule.condition.describe()} "
                     f"-> {conclusions}")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


if __name__ == "__main__":
    main()
