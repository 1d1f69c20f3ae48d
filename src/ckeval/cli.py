"""Command-line interface tying the pipeline together.

Subcommands: analyze (sources -> metrics table), evaluate (metrics + rules
-> assessments, or manual range selection), compare (versions -> verdicts
and optional chart), rules (list/check rule bases).

Exit codes: 0 success, 1 usage error, 2 input error, 3 internal error.
"""

import argparse
import codecs
import errno
import functools
from operator import itemgetter
import os
from pathlib import Path
from stat import S_ISDIR, S_ISREG
import sys

from . import chart as chart_mod
from . import export as export_mod
from . import report as report_mod
from . import rules as rules_mod
from . import tables
from . import versions as versions_mod
from .errors import InputError, UsageError
from .java import ParseError, SourceUnit, decode_source, lower_to_model, parse_source
from .java.lower import qualified_name
from .metrics import METRICS, check_metric, compute_all


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}".rstrip())


def _file_name(text: str) -> str:
    """An output file name as given; an empty one names no file."""
    if not text:
        raise argparse.ArgumentTypeError("expected a file name, got ''")
    return text


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
    common.add_argument("--out", metavar="FILE", type=_file_name,
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
    p_cmp.add_argument("--chart", metavar="FILE", type=_file_name,
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
    if out is not None:
        tables.write_text(out, text)
    else:
        # refused before any of it is written: as UTF-8, then in the stream's
        # own encoding unless that is UTF-8 too (a StringIO has none and
        # takes any str)
        tables.encode_output(text, "standard output")
        stream = sys.stdout
        encoding = stream.encoding
        if encoding and codecs.lookup(encoding).name != "utf-8":
            tables.encode_output(text, "standard output", encoding,
                                 stream.errors or "strict")
        stream.write(text)


# --- analyze -----------------------------------------------------------------

# the errors pathlib's is_file and is_dir read as "not there"
_NOT_THERE = frozenset({errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP})


def _discover_sources(roots: list[str]) -> list[str]:
    """The source files of the roots, as distinct POSIX paths in sorted order.

    A root that is a file is taken as it is; a directory root is walked for
    files named ``*.java``. Each path is built as ``Path.joinpath`` builds
    it, so root ``.`` gives ``A.java`` and root ``x/`` gives ``x/A.java``.
    The result equals the sorted ``as_posix()`` texts of the file roots and
    of ``Path(root).rglob("*.java")`` filtered by ``is_file()``: regular
    files and symlinks to files are kept, a symlinked directory is not
    entered, and a directory that may not be listed is skipped. Any other
    ``OSError`` is an input error naming the path.
    """
    found: set[str] = set()
    pending: list[str] = []  # directories still to list
    for root in roots:
        top = Path(root).as_posix()
        try:
            mode = os.stat(top).st_mode
        except ValueError:  # an embedded NUL
            mode = 0
        except OSError as exc:
            if exc.errno not in _NOT_THERE:
                raise InputError(f"cannot read {top}: {exc.strerror or exc}") from None
            mode = 0
        if S_ISREG(mode):
            found.add(top)
        elif S_ISDIR(mode):
            pending.append(top)
        elif mode:  # a device, a FIFO or a socket
            raise InputError(f"not a file or directory: {root}")
        else:
            raise InputError(f"no such file or directory: {root}")

    while pending:
        directory = pending.pop()
        try:
            with os.scandir(directory) as listing:
                entries = list(listing)
        except PermissionError:  # skipped, as rglob skips it
            continue
        except OSError as exc:
            raise InputError(f"cannot list {directory}: {exc.strerror or exc}") from None
        prefix = ("" if directory == "." else
                  directory if directory.endswith("/") else directory + "/")
        for entry in entries:
            path = prefix + entry.name
            try:
                if entry.is_dir(follow_symlinks=False):
                    pending.append(path)
                elif path.endswith(".java") and entry.is_file():
                    found.add(path)
            except OSError as exc:
                if exc.errno not in _NOT_THERE:
                    raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    return sorted(found)


_NAME = itemgetter(0)  # of a MethodDecl


def _same_arity_overload(unit: SourceUnit) -> str | None:
    """The location, as ``p.A.f/1``, of the first method or constructor that
    a class of the unit declares twice with one number of parameters, or
    None. The class model tells methods apart by name and arity alone."""
    for decl in unit.classes:
        methods = decl.methods
        if len(set(map(_NAME, methods))) < len(methods):
            seen = set()
            for method in methods:
                signature = (method.name, method.arity)
                if signature in seen:
                    return (f"{qualified_name(unit.package_name, decl.name)}."
                            f"{method.name}/{method.arity}")
                seen.add(signature)
    return None


def _cmd_analyze(args) -> int:
    units = []
    skipped = 0
    for name in _discover_sources(args.roots):
        try:
            with open(name, "rb", buffering=0) as file:
                data = file.read()
        except OSError as exc:
            raise InputError(f"cannot read {name}: {exc.strerror or exc}") from None
        try:
            unit = parse_source(decode_source(data, name), name)
        except ParseError as exc:
            diagnostics = [d.render() for d in exc.diagnostics]
        else:
            overload = _same_arity_overload(unit)
            if overload is None:
                units.append(unit)
                continue
            diagnostics = [f"{name}: DUPLICATE_METHOD: {overload}: "
                           "method signature (name, arity) declared more than once"]
        skipped += 1
        for line in diagnostics:
            print(line, file=sys.stderr)
        if args.strict:
            return 2
    if skipped:
        print(f"ckeval: skipped {skipped} file(s) outside the Java subset",
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
            _write_output(export_mod.filters_text(
                filters, export_mod.input_provenance([args.input])), args.out)
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
    if args.metrics is not None:
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

    if args.chart is not None:
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
