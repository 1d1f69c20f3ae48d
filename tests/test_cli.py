from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, redirect_stderr, redirect_stdout
import errno
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

import ckeval
from ckeval import tables
from ckeval.cli import _discover_sources, build_parser, cli_main
from ckeval.errors import InputError, SchemaError
from ckeval.metrics import compute_all
from ckeval.model import load_class_model
from ckeval.rules import (
    Interval, ValueSet, default_rule_base, load_rules, paper_rule_preset, parse_selection,
    serialize_rules,
)
from ckeval.tables import load_metrics_input, metrics_to_document, write_text
from test_report import import_structured


def run_cli(argv, capsys):
    code = cli_main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compare_turkish_tie_text(fixtures, capsys):
    code, out, _ = run_cli(
        ["compare", str(fixtures / "five_versions.csv"),
         "--metrics", "WMC", "--locale", "tr"], capsys)
    assert code == 0
    assert "SÜRÜM-2 ve SÜRÜM-3 (5)" in out
    assert "EN KÜÇÜK değere sahip sürüm/ler : SÜRÜM-5 (0)" in out


@pytest.mark.parametrize("golden, options", [
    ("five_versions_wmc_tr.txt", ["--metrics", "WMC", "--locale", "tr"]),
    ("five_versions_tr.txt", ["--locale", "tr"]),
])
def test_compare_matches_golden(fixtures, capsys, golden, options):
    code, out, _ = run_cli(["compare", str(fixtures / "five_versions.csv"), *options], capsys)
    assert code == 0
    assert out == (fixtures / "golden" / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("golden, options", [
    ("moreunit_evaluate_class_en.txt", []),
    ("moreunit_evaluate_class_tr.txt", ["--locale", "tr"]),
    ("moreunit_evaluate_project_tr.txt", ["--locale", "tr", "--scope", "project"]),
    ("moreunit_select_en.txt", ["--select", "WMC=2-5", "--select", "LCOM=0,1,2"]),
])
def test_evaluate_matches_golden(fixtures, capsys, golden, options):
    code, out, _ = run_cli(
        ["evaluate", str(fixtures / "moreunit_classes.csv"), *options], capsys)
    assert code == 0
    assert out == (fixtures / "golden" / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("golden, argv", [
    ("shop_v1_evaluate_tr.txt", ["evaluate", "shop_v1.json", "--locale", "tr"]),
    # sections where no rule fires, padded to their own keys, among wider ones
    ("shop_v1_evaluate_paper_en.txt", ["evaluate", "shop_v1.json", "--rules", "paper"]),
    ("shop_v2_evaluate_project_tr.txt",
     ["evaluate", "shop_v2.json", "--locale", "tr", "--scope", "project"]),
    ("shop_compare_en.txt", ["compare", "shop_v1.json", "shop_v2.json"]),
])
def test_class_model_documents_match_golden(fixtures, capsys, golden, argv):
    models = fixtures / "model"
    argv = [str(models / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert out == (fixtures / "golden" / golden).read_text(encoding="utf-8")


def test_select_structured_matches_golden(fixtures, tmp_path, monkeypatch, capsys):
    # a relative path and a fixed file time keep the recorded inputs stable
    table = tmp_path / "moreunit_classes.csv"
    table.write_bytes((fixtures / "moreunit_classes.csv").read_bytes())
    os.utime(table, (1_600_000_000,) * 2)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["evaluate", "moreunit_classes.csv", "--select", "WMC=2-5",
                              "--select", "LCOM=0,1,2", "--format", "structured"], capsys)
    assert (code, err) == (0, "")
    golden = fixtures / "golden" / "moreunit_select_structured.json"
    assert out == golden.read_text(encoding="utf-8")


def test_structured_metrics_and_verdicts_match_golden(fixtures, tmp_path, monkeypatch, capsys):
    # the two outputs export_structured writes, pinned byte for byte on
    # every interpreter the tests run on
    code, out, err = run_cli(["analyze", str(fixtures / "corpus"), "--format", "structured"],
                             capsys)
    assert (code, err) == (0, "")
    assert out == (fixtures / "golden" / "corpus_analyze_structured.json").read_text(
        encoding="utf-8")
    table = tmp_path / "five_versions.csv"
    table.write_bytes((fixtures / "five_versions.csv").read_bytes())
    os.utime(table, (1_600_000_000,) * 2)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["compare", "five_versions.csv", "--format", "structured",
                              "--locale", "tr"], capsys)
    assert (code, err) == (0, "")
    assert out == (fixtures / "golden" / "five_versions_structured_tr.json").read_text(
        encoding="utf-8")


def test_evaluate_select_filter_report(fixtures, capsys):
    code, out, _ = run_cli(
        ["evaluate", str(fixtures / "moreunit_classes.csv"),
         "--select", "WMC=2-5", "--select", "LCOM=0,1,2"], capsys)
    assert code == 0
    assert "WMC SELECTION: 2 - 5" in out
    assert "LCOM SELECTION: 0, 1, 2" in out
    assert "moreUnit.actions.JumpAction (4)" in out
    assert "moreUnit.elements.JavaProjectFacad (0)" in out


def test_evaluate_rules_paper_project_scope(fixtures, capsys):
    code, out, _ = run_cli(
        ["evaluate", str(fixtures / "moreunit_classes.csv"),
         "--rules", "paper", "--scope", "project"], capsys)
    assert code == 0
    # project means of the published table round to WMC 5, DIT 1, ...: no
    # paper rule matches those integers, so nothing fires
    assert "Fired rules : none" in out


def test_evaluate_default_rules_class_scope(fixtures, capsys):
    code, out, _ = run_cli(
        ["evaluate", str(fixtures / "moreunit_classes.csv"), "--locale", "tr"], capsys)
    assert code == 0
    assert "SINIF DEĞERLENDİRMESİ" in out
    assert "moreUnit.actions.CreateTestMethodE" in out
    assert "Karmaşıklık" in out


def test_analyze_empty_directory(tmp_path, capsys):
    code, out, err = run_cli(["analyze", str(tmp_path)], capsys)
    assert code == 0
    assert out == "CLASS,WMC,DIT,NOC,CBO,RFC,LCOM\n"


def test_analyze_corpus_matches_expected(fixtures, capsys):
    code, out, _ = run_cli(["analyze", str(fixtures / "corpus")], capsys)
    expected = (fixtures / "corpus" / "expected_metrics.csv").read_text(
        encoding="utf-8")
    assert code == 0
    assert out == expected


def test_analyze_java_edge_fixture_matches_expected(fixtures, capsys):
    # a file with a byte-order mark, a non-ASCII identifier, and a file that
    # ends in a line comment without a line feed
    edge = fixtures / "java_edge"
    assert (edge / "p" / "A.java").read_bytes().startswith(b"\xef\xbb\xbf")
    assert not (edge / "p" / "C.java").read_bytes().endswith(b"\n")
    code, out, err = run_cli(["analyze", str(edge), "--strict"], capsys)
    assert (code, err) == (0, "")
    assert out == (edge / "expected_metrics.csv").read_text(encoding="utf-8")


def test_analyze_skips_bad_files_unless_strict(tmp_path, capsys):
    (tmp_path / "Good.java").write_text("package p; class Good {}",
                                        encoding="utf-8")
    (tmp_path / "Bad.java").write_text("class Bad { void m( }",
                                       encoding="utf-8")
    code, out, err = run_cli(["analyze", str(tmp_path)], capsys)
    assert code == 0
    assert "p.Good" in out
    assert "SYNTAX_ERROR" in err and "skipped 1" in err

    code, _, err = run_cli(["analyze", str(tmp_path), "--strict"], capsys)
    assert code == 2
    assert "SYNTAX_ERROR" in err


@pytest.mark.parametrize("source, diagnostic", [
    ("package p; interface I extends J implements K {}",
     "p/A.java:1:34: SYNTAX_ERROR: interfaces cannot implement"),
    ("package p; class A extends A {}",
     "p/A.java:1:18: SYNTAX_ERROR: class must not extend itself"),
], ids=["interface-implements", "extends-itself"])
def test_analyze_skips_a_declaration_outside_the_subset_unless_strict(tmp_path, capsys,
                                                                      monkeypatch, source,
                                                                      diagnostic):
    (tmp_path / "p").mkdir()
    (tmp_path / "p" / "A.java").write_text(source, encoding="utf-8")
    # stray semicolons between members are no members at all
    (tmp_path / "p" / "S.java").write_text("package p; class S { ; int x; ; void m() {} ; }",
                                           encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["analyze", "."], capsys)
    assert (code, out) == (0, "CLASS,WMC,DIT,NOC,CBO,RFC,LCOM\np.S,1,0,0,0,1,0\n")
    assert err == diagnostic + "\nckeval: skipped 1 file(s) outside the Java subset\n"

    code, out, err = run_cli(["analyze", ".", "--strict"], capsys)
    assert (code, out, err) == (2, "", diagnostic + "\n")


@pytest.mark.parametrize("argv, message", [
    (["evaluate", "v.csv"], "v.csv: expected a metrics table or class model document"),
    (["evaluate", "x.json"],
     "x.json: unrecognized document (no classes, metrics, or versions key)"),
    (["compare", "x.json", "v.csv"],
     "x.json: unrecognized document (no classes, metrics, or versions key)"),
], ids=["evaluate-versions", "evaluate-unrecognized", "compare-unrecognized"])
def test_an_input_of_the_wrong_kind_is_named(fixtures, tmp_path, capsys, monkeypatch, argv,
                                             message):
    (tmp_path / "v.csv").write_bytes((fixtures / "five_versions.csv").read_bytes())
    (tmp_path / "x.json").write_text('{"schemaVersion": 1, "name": "x"}', encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv, capsys) == (2, "", f"ckeval: error: {message}\n")


def test_unknown_flag_exits_1_with_usage_on_stderr(capsys):
    code, out, err = run_cli(["compare", "x.csv", "--frobnicate"], capsys)
    assert code == 1
    assert out == ""
    assert "usage:" in err


def test_no_command_exits_1(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 1
    assert "usage:" in err


def test_missing_input_exits_2(capsys):
    code, _, err = run_cli(["evaluate", "does-not-exist.csv"], capsys)
    assert code == 2
    assert "error" in err


def test_bad_selection_exits_1(fixtures, capsys):
    code, _, err = run_cli(
        ["evaluate", str(fixtures / "moreunit_classes.csv"), "--select", "XYZ=1-2"],
        capsys)
    assert code == 1
    assert "unknown metric" in err


@pytest.mark.parametrize("argv", [
    ["evaluate", "{missing}", "--select", "WMC=x"],
    ["compare", "{missing}", "--metrics", "XYZ"],
])
def test_bad_selection_is_a_usage_error_before_the_input_is_read(tmp_path, capsys, argv):
    missing = str(tmp_path / "no" / "such.csv")
    code, out, err = run_cli([arg.format(missing=missing) for arg in argv], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("ckeval: ") and "cannot read" not in err


def test_help_exits_0(capsys):
    code, out, _ = run_cli(["--help"], capsys)
    assert code == 0
    assert "analyze" in out and "evaluate" in out and "compare" in out \
        and "rules" in out


def test_rules_list_default(capsys):
    code, out, _ = run_cli(["rules", "list"], capsys)
    assert code == 0
    assert "default: 42 rules" in out
    assert "wmc-high: WMC 18 - 25" in out


def test_rules_list_structured_roundtrip(capsys):
    code, out, _ = run_cli(["rules", "list", "--rules", "paper",
                            "--format", "structured"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rules"]) == 3


def test_rules_check_valid_and_invalid(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "schemaVersion": 1, "name": "g",
        "rules": [{"id": "r", "metric": "WMC", "range": [0, None],
                   "conclusions": [{"attribute": "quality",
                                    "level": "Normal"}]}],
    }), encoding="utf-8")
    code, out, _ = run_cli(["rules", "check", str(good)], capsys)
    assert code == 0
    assert "OK: 1 rules" in out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "schemaVersion": 1, "name": "b",
        "rules": [
            {"id": "x", "metric": "WMC", "range": [0, 5],
             "conclusions": [{"attribute": "quality", "level": "Low"}]},
            {"id": "y", "metric": "WMC", "range": [5, 9],
             "conclusions": [{"attribute": "quality", "level": "Low"}]},
        ],
    }), encoding="utf-8")
    code, _, err = run_cli(["rules", "check", str(bad)], capsys)
    assert code == 2
    assert "overlap" in err


def test_rules_check_names_the_place_of_a_schema_error(tmp_path, capsys):
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({
        "schemaVersion": 1, "name": "odd",
        "rules": [{"id": "r", "metric": "WMC", "range": [0, None], "values": [1],
                   "conclusions": [{"attribute": "quality", "level": "High"}]}],
    }), encoding="utf-8")
    assert run_cli(["rules", "check", str(rules)], capsys) == (
        2, "", "ckeval: error: rules[0]: exactly one of range or values is required\n")


def test_rules_check_refuses_an_attribute_outside_the_vocabulary(tmp_path, capsys):
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({
        "schemaVersion": 1, "name": "odd",
        "rules": [{"id": "r", "metric": "WMC", "range": [0, None],
                   "conclusions": [{"attribute": "elegance", "level": "High"}]}],
    }), encoding="utf-8")
    code, out, err = run_cli(["rules", "check", str(rules)], capsys)
    assert (code, out) == (2, "")
    assert "rule 'r': unregistered attribute 'elegance'" in err


PAPER_RULES = str(Path(ckeval.__file__).parent / "data" / "paper_rules.json")


@pytest.mark.parametrize("argv, advice", [
    (["rules", "list", PAPER_RULES], f"rules list reads no FILE; use --rules {PAPER_RULES}"),
    (["rules", "check", PAPER_RULES, "--rules", "x.json"],
     "rules check reads no --rules; give the rules file as FILE"),
    (["rules", "check", PAPER_RULES, "--rules", "default"],
     "rules check reads no --rules; give the rules file as FILE"),
    (["rules", "check"], "rules check requires a FILE argument"),
], ids=["list-file", "check-rules", "check-rules-default", "check-no-file"])
def test_rules_refuses_the_argument_its_action_does_not_read(capsys, argv, advice):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert advice in err


def test_rules_list_reads_a_file_through_rules(capsys):
    assert run_cli(["rules", "list", "--rules", PAPER_RULES], capsys)[:2] == \
        run_cli(["rules", "list", "--rules", "paper"], capsys)[:2]
    assert run_cli(["rules", "list", "--rules", "default"], capsys)[:2] == \
        run_cli(["rules", "list"], capsys)[:2]


@pytest.mark.parametrize("bands, cover", [
    ([{"range": [0, 1000]}, {"range": [2000, None]}], "incomplete"),
    ([{"range": [0, 1000]}, {"range": [1001, None]}], "complete"),
    ([{"values": [0, 1]}, {"range": [1.5, 2.5]}, {"range": [3, None]}], "complete"),
    ([{"range": [0, 9.5]}, {"range": [10.5, None]}], "incomplete"),
    ([{"range": [0, 5]}, {"range": [6, 7]}], "incomplete"),
], ids=["gap-above-1000", "adjacent", "values-and-fractions", "gap-at-10",
        "bounded"])
def test_rules_check_decides_cover_of_every_integer(tmp_path, capsys, bands, cover):
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({
        "schemaVersion": 1, "name": "banded",
        "rules": [{"id": f"{m}-{i}", "metric": m, **band,
                   "conclusions": [{"attribute": "quality", "level": "Low"}]}
                  for m in ckeval.METRICS for i, band in enumerate(bands)],
    }), encoding="utf-8")
    code, out, _ = run_cli(["rules", "check", str(rules)], capsys)
    assert code == 0
    assert out == f"OK: {len(bands) * 6} rules, {cover} cover\n"


@pytest.mark.parametrize("old", [None, b"x" * 100_000], ids=["new", "over-longer"])
def test_compare_writes_chart_and_out(fixtures, tmp_path, capsys, old):
    chart = tmp_path / "chart.svg"
    out_file = tmp_path / "report.txt"
    if old is not None:
        chart.write_bytes(old)
        out_file.write_bytes(old)
    code, out, _ = run_cli(
        ["compare", str(fixtures / "five_versions.csv"),
         "--chart", str(chart), "--out", str(out_file), "--locale", "tr"],
        capsys)
    assert code == 0
    assert out == ""
    assert out_file.read_text(encoding="utf-8") == (
        fixtures / "golden" / "five_versions_tr.txt").read_text(encoding="utf-8")
    svg = chart.read_text(encoding="utf-8")
    assert svg.count("<title>") == 30
    assert svg.startswith("<?xml") and svg.endswith("</svg>\n")


def test_structured_and_text_agree_on_verdicts(fixtures, capsys):
    code, text_out, _ = run_cli(
        ["compare", str(fixtures / "five_versions.csv"), "--locale", "tr"],
        capsys)
    assert code == 0
    code, json_out, _ = run_cli(
        ["compare", str(fixtures / "five_versions.csv"),
         "--format", "structured"], capsys)
    assert code == 0
    doc = json.loads(json_out)
    wmc = next(v for v in doc["verdicts"] if v["metric"] == "WMC")
    assert wmc["min"]["versions"] == ["SÜRÜM-5"]
    assert wmc["max"]["versions"] == ["SÜRÜM-2", "SÜRÜM-3"]
    for name in wmc["max"]["versions"]:
        assert name in text_out


def test_every_subcommand_is_deterministic(fixtures, tmp_path, capsys):
    chart1, chart2 = tmp_path / "c1.svg", tmp_path / "c2.svg"
    invocations = [
        ["analyze", str(fixtures / "corpus")],
        ["analyze", str(fixtures / "corpus"), "--format", "structured"],
        ["evaluate", str(fixtures / "moreunit_classes.csv")],
        ["evaluate", str(fixtures / "moreunit_classes.csv"), "--format", "structured"],
        ["evaluate", str(fixtures / "moreunit_classes.csv"), "--select", "WMC=2-5"],
        ["compare", str(fixtures / "five_versions.csv"), "--locale", "tr"],
        ["compare", str(fixtures / "five_versions.csv"),
         "--format", "structured"],
        ["rules", "list"],
    ]
    for argv in invocations:
        code1, out1, _ = run_cli(argv, capsys)
        code2, out2, _ = run_cli(argv, capsys)
        assert code1 == code2 == 0
        assert out1.encode() == out2.encode(), argv
    run_cli(["compare", str(fixtures / "five_versions.csv"),
             "--chart", str(chart1)], capsys)
    run_cli(["compare", str(fixtures / "five_versions.csv"),
             "--chart", str(chart2)], capsys)
    assert chart1.read_bytes() == chart2.read_bytes()


@pytest.mark.parametrize("mtime", [
    506804601600,  # year 18029: ValueError, as a file on tmpfs can have
    1e20,  # OverflowError
    float("nan"),  # ValueError
])
@pytest.mark.parametrize("command, input_name", [
    ("evaluate", "moreunit_classes.csv"), ("compare", "five_versions.csv")])
def test_provenance_of_a_file_time_out_of_range_is_null(
        fixtures, monkeypatch, capsys, mtime, command, input_name):
    target = fixtures / input_name
    real_stat = Path.stat

    class Stat:
        st_mtime = mtime

        def __init__(self, real):
            self.real = real

        def __getattr__(self, name):
            return getattr(self.real, name)

    def stat(self, *args, **kwargs):
        result = real_stat(self, *args, **kwargs)
        return Stat(result) if self == target else result

    monkeypatch.setattr(Path, "stat", stat)
    code, out, err = run_cli([command, str(target), "--format", "structured"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["inputs"] == [{"path": str(target), "modified": None}]
    assert '"modified": null' in out


def test_structured_analyze_output_feeds_evaluate_and_compare(
        fixtures, tmp_path, capsys):
    table = tmp_path / "metrics.json"
    code, _, _ = run_cli(["analyze", str(fixtures / "corpus"),
                          "--format", "structured", "--out", str(table)],
                         capsys)
    assert code == 0
    code, out, _ = run_cli(["evaluate", str(table)], capsys)
    assert code == 0
    assert "shop.Item" in out
    code, out, _ = run_cli(["compare", str(table),
                            str(fixtures / "moreunit_classes.csv")], capsys)
    assert code == 0
    assert "VERSION-1" in out and "VERSION-2" in out


def test_compare_accepts_json_versions_document(tmp_path, capsys):
    doc = {
        "schemaVersion": 1,
        "versions": [
            {"version": "v1", "path": "a.csv",
             "means": {"wmc": 1.0, "dit": 0, "noc": 0, "cbo": 2,
                       "rfc": 3, "lcom": 0}},
            {"version": "v2", "path": "b.csv",
             "means": {"wmc": 4.0, "dit": 0, "noc": 0, "cbo": 1,
                       "rfc": 6, "lcom": 2}},
        ],
    }
    path = tmp_path / "versions.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(["compare", str(path), "--metrics", "WMC"], capsys)
    assert code == 0
    assert "SMALLEST value version/s : v1 (1)" in out
    assert "LARGEST value version/s  : v2 (4)" in out


def test_evaluate_with_custom_rules_file(fixtures, tmp_path, capsys):
    rules = {
        "schemaVersion": 1, "name": "mine",
        "rules": [
            {"id": "busy", "metric": "RFC", "range": [20, None],
             "conclusions": [{"attribute": "complexity", "level": "VeryHigh"}]},
        ],
    }
    path = tmp_path / "mine.json"
    path.write_text(json.dumps(rules), encoding="utf-8")
    code, out, _ = run_cli(
        ["evaluate", str(fixtures / "moreunit_classes.csv"),
         "--rules", str(path)], capsys)
    assert code == 0
    assert out.count("busy") == 4  # RFC 21, 34, 27, 29 match; 9/14/7 do not


def test_analyze_single_file_root(tmp_path, capsys):
    source = tmp_path / "One.java"
    source.write_text("package p; class One { void m(){} }", encoding="utf-8")
    code, out, _ = run_cli(["analyze", str(source)], capsys)
    assert code == 0
    assert "p.One,1,0,0,0,1,0" in out


def test_compare_chart_respects_metric_subset(fixtures, tmp_path, capsys):
    chart = tmp_path / "subset.svg"
    code, _, _ = run_cli(
        ["compare", str(fixtures / "five_versions.csv"),
         "--metrics", "WMC,RFC", "--chart", str(chart)], capsys)
    assert code == 0
    svg = chart.read_text(encoding="utf-8")
    assert svg.count("<title>") == 10  # 5 versions x 2 metrics
    assert ">WMC</text>" in svg and ">RFC</text>" in svg
    assert ">LCOM</text>" not in svg


# eight characters of font-size 11 fill the 50 px left of the y axis
AXIS_LABEL_CHARS = 8


def test_chart_axis_labels_of_a_huge_mean_fit_the_margin(tmp_path, capsys):
    table = tmp_path / "v.csv"
    table.write_text("VERSION,WMC,DIT,NOC,CBO,RFC,LCOM\n"
                     "v1,1e308,1,1,1,1,1\n"
                     "v2,1,1,1,1,1,1\n", encoding="utf-8")
    chart = tmp_path / "c.svg"
    code, _, _ = run_cli(["compare", str(table), "--chart", str(chart),
                          "--metrics", "WMC"], capsys)
    assert code == 0
    labels = re.findall(r'font-size="11">([^<]*)</text>', chart.read_text(encoding="utf-8"))
    assert len(labels) == 6
    assert all(len(label) <= AXIS_LABEL_CHARS for label in labels), labels
    assert [float(label) for label in labels] == pytest.approx(
        [1.1e308 * (i / 5) for i in range(6)], rel=0.01)


def test_chart_tooltip_of_a_huge_mean_is_short(tmp_path, capsys):
    # the text report prints every digit of the mean; a bar's tooltip gives
    # the axis label's short form, and a value that fits as it is
    table = tmp_path / "v.csv"
    table.write_text("VERSION,WMC,DIT,NOC,CBO,RFC,LCOM\n"
                     "v1,1e308,1,1,1,1,1\n"
                     "v2,1234567.5,1,1,1,1,1\n"
                     "v3,1234.125,1,1,1,1,1\n", encoding="utf-8")
    chart = tmp_path / "c.svg"
    code, out, _ = run_cli(["compare", str(table), "--chart", str(chart),
                            "--metrics", "WMC"], capsys)
    assert code == 0 and "1000000000000000010979063" in out
    titles = re.findall(r"<title>([^<]*)</title>", chart.read_text(encoding="utf-8"))
    assert titles == ["v1 WMC: 1e308", "v2 WMC: 1.23e6", "v3 WMC: 1234.125"]


@pytest.mark.parametrize("metrics", ["WMC,wmc", "RFC, WMC ,RFC"])
def test_compare_refuses_a_metric_listed_twice(fixtures, tmp_path, capsys, metrics):
    chart = tmp_path / "twice.svg"
    code, out, err = run_cli(
        ["compare", str(fixtures / "five_versions.csv"),
         "--metrics", metrics, "--chart", str(chart)], capsys)
    assert code == 1
    assert out == "" and not chart.exists()
    assert err.startswith(f"ckeval: metric {metrics.split(',')[0].strip()} selected twice")


@pytest.mark.parametrize("metrics", ["", ",", " , "])
def test_compare_refuses_a_selection_of_no_metric(fixtures, tmp_path, capsys, metrics):
    chart = tmp_path / "none.svg"
    code, out, err = run_cli(
        ["compare", str(fixtures / "five_versions.csv"),
         "--metrics", metrics, "--chart", str(chart)], capsys)
    assert code == 1
    assert out == "" and not chart.exists()
    assert err.startswith("ckeval: --metrics must select at least one metric")


@pytest.mark.parametrize("present", [True, False], ids=["input", "no-input"])
@pytest.mark.parametrize("argv, option", [
    (["evaluate", "moreunit_classes.csv", "--out", ""], "--out"),
    (["evaluate", "moreunit_classes.csv", "--format", "structured", "--out="], "--out"),
    (["compare", "five_versions.csv", "--chart", ""], "--chart"),
    (["compare", "five_versions.csv", "--out", "", "--chart", "c.svg"], "--out"),
], ids=["evaluate-out", "evaluate-out=", "compare-chart", "compare-out"])
def test_an_empty_output_file_name_is_a_usage_error(fixtures, tmp_path, monkeypatch, capsys,
                                                    argv, option, present):
    # refused before the input is read, whether it is there or not
    monkeypatch.chdir(tmp_path)
    argv = [str(fixtures / a) if present and a.endswith(".csv") else a for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"ckeval: argument {option}: expected a file name, got ''\n")
    assert list(tmp_path.iterdir()) == []


def test_compare_noc_direction_flag(tmp_path, capsys):
    table = ("VERSION,WMC,DIT,NOC,CBO,RFC,LCOM\n"
             "v1,0,0,0,0,0,0\n"
             "v2,0,0,3,0,0,0\n")
    path = tmp_path / "v.csv"
    path.write_text(table, encoding="utf-8")
    code, out, _ = run_cli(
        ["compare", str(path), "--metrics", "NOC", "--format", "structured",
         "--noc-direction", "higher-better"], capsys)
    assert code == 0
    verdict = json.loads(out)["verdicts"][0]
    assert verdict["interpretation"]["qualityBest"] == ["v2"]
    assert verdict["interpretation"]["qualityWorst"] == ["v1"]


def test_rules_list_turkish_wording(capsys):
    code, out, _ = run_cli(["rules", "list", "--rules", "paper",
                            "--locale", "tr"], capsys)
    assert code == 0
    assert "Kalıtım Ağacının Derinliği: İstenen Aralıkta" in out
    assert "Bakım, Onarım ve Test Faaliyetleri: Çok Az" in out


def test_structured_and_text_agree_on_assessments(fixtures, capsys):
    from ckeval.report import attribute_text, level_text
    from ckeval.rules import level_from_name

    code, text_out, _ = run_cli(
        ["evaluate", str(fixtures / "moreunit_classes.csv")], capsys)
    assert code == 0
    code, json_out, _ = run_cli(
        ["evaluate", str(fixtures / "moreunit_classes.csv"),
         "--format", "structured"], capsys)
    assert code == 0
    doc = json.loads(json_out)
    assert len(doc["assessments"]) == 7
    for assessment in doc["assessments"]:
        assert assessment["scope"] in text_out
        for conclusion in assessment["conclusions"]:
            level = level_from_name(conclusion["level"])
            attr = conclusion["attribute"]
            line = f"{attribute_text(attr, 'en')}"
            assert line in text_out
            assert level_text(attr, level, "en") in text_out


def test_unrecognized_input_format_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.txt"
    path.write_text("not a table at all", encoding="utf-8")
    code, _, err = run_cli(["evaluate", str(path)], capsys)
    assert code == 2
    assert "unrecognized" in err


def test_class_named_project_is_reported_as_a_class(tmp_path, capsys):
    table = tmp_path / "shop.csv"
    table.write_text("CLASS,WMC,DIT,NOC,CBO,RFC,LCOM\n"
                     "project,1,0,0,0,1,0\n"
                     "Cart,2,0,0,1,3,0\n", encoding="utf-8")
    code, out, err = run_cli(["evaluate", str(table)], capsys)
    assert code == 0, err
    assert "PROJECT ASSESSMENT" not in out and "Project :" not in out
    assert out.count("CLASS ASSESSMENT") == 2
    assert re.search(r"^Class +: project$", out, re.MULTILINE)
    code, out, err = run_cli(["evaluate", str(table), "--scope", "project"], capsys)
    assert code == 0, err
    assert "PROJECT ASSESSMENT" in out and "CLASS ASSESSMENT" not in out


@pytest.mark.parametrize("method, where", [
    ('{"name": "m", "arity": 0, "calls": null}', "classes[0].methods[0].calls"),
    ("5", "classes[0].methods"),
])
def test_class_model_member_that_is_not_an_array_exits_2(tmp_path, capsys, method, where):
    path = tmp_path / "model.json"
    methods = method if method == "5" else f"[{method}]"
    path.write_text('{"schemaVersion": 1, "projectName": "p", "classes": '
                    f'[{{"name": "A", "methods": {methods}}}]}}', encoding="utf-8")
    code, out, err = run_cli(["evaluate", str(path)], capsys)
    assert code == 2, err
    assert out == ""
    assert f"{where}: must be an array" in err and "internal error" not in err


def run_in_new_process(argv, env: dict | None = None) -> subprocess.CompletedProcess:
    """argv run by ``python -m ckeval.cli`` in a new interpreter, with the
    variables of ``env`` added to its environment."""
    # the child imports the same ckeval as this test, installed or not
    package_root = str(Path(ckeval.__file__).parent.parent)
    env = {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "ckeval.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_module_entry_point(fixtures):
    proc = run_in_new_process(["compare", str(fixtures / "five_versions.csv"),
                               "--metrics", "WMC", "--locale", "tr"])
    assert proc.returncode == 0
    assert "SÜRÜM-2 ve SÜRÜM-3 (5)" in proc.stdout


# --- one argument parser per process --------------------------------------------

def test_build_parser_returns_one_parser_per_process():
    assert build_parser() is build_parser()


def test_a_selection_does_not_carry_into_the_next_call(fixtures, capsys):
    # argparse copies the append default before it appends, so default=[] never grows
    table = str(fixtures / "moreunit_classes.csv")
    assert run_cli(["evaluate", table, "--select", "WMC=2-5"], capsys)[0] == 0
    code, out, _ = run_cli(["evaluate", table, "--select", "CBO=6-10"], capsys)
    assert code == 0 and out.count("SELECTION:") == 1
    assert out == run_in_new_process(["evaluate", table, "--select", "CBO=6-10"]).stdout
    code, out, _ = run_cli(["evaluate", table], capsys)
    assert code == 0 and out == run_in_new_process(["evaluate", table]).stdout
    assert build_parser().parse_args(["evaluate", table]).select == []


@pytest.mark.parametrize("argv, expected", [
    (["compare", "x.csv", "--frobnicate"], 1),
    (["evaluate"], 1),
    (["--help"], 0),
    (["evaluate", "--help"], 0),
])
def test_usage_error_and_help_repeat_after_a_successful_call(fixtures, capsys, argv,
                                                             expected):
    assert run_cli(["evaluate", str(fixtures / "moreunit_classes.csv")], capsys)[0] == 0
    first = run_cli(argv, capsys)
    assert first[0] == expected and (first[1] or first[2])
    assert run_cli(argv, capsys) == first


def test_threads_sharing_the_parser_write_what_a_serial_run_writes(fixtures, tmp_path):
    table = str(fixtures / "moreunit_classes.csv")
    versions = str(fixtures / "five_versions.csv")
    argvs = [
        ["evaluate", table],
        ["evaluate", table, "--locale", "tr", "--scope", "project"],
        ["evaluate", table, "--select", "WMC=2-5", "--select", "LCOM=0,1,2"],
        ["evaluate", table, "--rules", "paper", "--format", "structured"],
        ["compare", versions, "--locale", "tr"],
        ["compare", versions, "--metrics", "WMC,RFC", "--format", "structured"],
        ["rules", "list"],
        ["rules", "list", "--rules", "paper", "--locale", "tr"],
    ]

    def run(argv, name: str) -> tuple[int, str]:
        out = tmp_path / name
        code = cli_main([*argv, "--out", str(out)])
        return code, out.read_text(encoding="utf-8")

    serial = [run(argv, f"serial-{i}.txt") for i, argv in enumerate(argvs)]
    assert all(code == 0 for code, _ in serial)
    start = threading.Barrier(len(argvs), timeout=60)

    def worker(t: int) -> list[tuple[int, str]]:
        start.wait()
        return [run(argvs[i % len(argvs)], f"thread-{t}-{k}.txt")
                for k, i in enumerate(range(t, t + 3 * len(argvs)))]

    # eight threads on fewer cores, switching often, so parses interleave
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(argvs)) as pool:
            futures = [pool.submit(worker, t) for t in range(len(argvs))]
            results = [future.result(timeout=300) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for t, runs in enumerate(results):
        for k, result in enumerate(runs):
            assert result == serial[(t + k) % len(argvs)], (t, k)


def chain_document(depth: int) -> dict:
    """A single extends chain whose leaf p.C0000 sorts first and whose root
    is p.C{depth - 1}, so a walk in name order starts at the deep end."""
    return {"schemaVersion": 1, "projectName": "deep", "classes": [
        {"name": f"p.C{i:04d}",
         **({"extends": f"p.C{i + 1:04d}"} if i + 1 < depth else {})}
        for i in range(depth)]}


def test_deep_inheritance_chain_evaluates(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(chain_document(1500)), encoding="utf-8")
    code, _, err = run_cli(["evaluate", str(path)], capsys)
    assert code == 0, err
    records = {rec.class_name: rec for rec in load_metrics_input(path).per_class}
    assert records["p.C0000"].dit == 1499
    assert records["p.C1499"].dit == 0
    assert records["p.C1499"].noc == 1

    def metrics_seconds(depth: int) -> float:
        best = float("inf")
        for _ in range(3):
            model = load_class_model(chain_document(depth))  # fresh index each time
            start = perf_counter()
            compute_all(model)
            best = min(best, perf_counter() - start)
        return best

    # linear in depth: four times the depth costs about four times the time,
    # where a quadratic pass would cost sixteen
    assert metrics_seconds(2000) < 8 * metrics_seconds(500)


# --- one bad source file, non-finite numbers ---------------------------------

def test_analyze_skips_non_utf8_file_unless_strict(tmp_path, capsys):
    (tmp_path / "Good.java").write_text("package p; class Good {}",
                                        encoding="utf-8")
    (tmp_path / "B.java").write_bytes(
        b'package p;\r\nclass B { String s = "caf\xe9"; }\n')
    code, out, err = run_cli(["analyze", str(tmp_path)], capsys)
    assert code == 0, err
    assert "p.Good" in out and "p.B" not in out
    # line 2, after the 25 characters of 'class B { String s = "caf'
    assert f"{(tmp_path / 'B.java').as_posix()}:2:26: DECODE_ERROR: " in err
    assert "0xe9" in err and "skipped 1" in err

    code, out, err = run_cli(["analyze", str(tmp_path), "--strict"], capsys)
    assert code == 2
    assert out == ""
    assert "DECODE_ERROR" in err


def test_analyze_reads_a_source_file_that_starts_with_a_bom(tmp_path, capsys):
    (tmp_path / "p").mkdir()
    (tmp_path / "p" / "A.java").write_bytes(b"\xef\xbb\xbfpackage p;\nclass A {}\n")
    (tmp_path / "p" / "B.java").write_text("package p; class B extends A {}",
                                           encoding="utf-8")
    code, out, err = run_cli(["analyze", str(tmp_path), "--strict"], capsys)
    assert (code, err) == (0, "")
    assert out == "CLASS,WMC,DIT,NOC,CBO,RFC,LCOM\np.A,0,0,1,0,0,0\np.B,0,1,0,0,0,0\n"
    # a decode error after the mark counts its column from after it
    (tmp_path / "p" / "A.java").write_bytes(b"\xef\xbb\xbfclass A { \xff }")
    code, out, err = run_cli(["analyze", str(tmp_path)], capsys)
    assert code == 0
    assert f"{(tmp_path / 'p' / 'A.java').as_posix()}:1:11: DECODE_ERROR: " in err


def test_analyze_unreadable_file_is_an_input_error(tmp_path, capsys, monkeypatch):
    source = tmp_path / "A.java"
    source.write_text("class A {}", encoding="utf-8")

    def refuse(self):
        raise PermissionError(13, "Permission denied", str(self))

    # the file is refused however it is read
    real_open = open
    monkeypatch.setattr("builtins.open", lambda file, *a, **k: refuse(file)
                        if str(file) == str(source) else real_open(file, *a, **k))
    monkeypatch.setattr(Path, "read_bytes", refuse)
    monkeypatch.setattr(Path, "read_text", lambda self, *a, **k: refuse(self))
    code, _, err = run_cli(["analyze", str(tmp_path)], capsys)
    assert code == 2
    # worded as tables.read_text words it
    assert err == f"ckeval: error: cannot read {source}: Permission denied\n"


def test_analyze_names_both_files_of_a_duplicate_class(tmp_path, capsys):
    for package in ("p", "q"):
        (tmp_path / package).mkdir()
        (tmp_path / package / "A.java").write_text(
            "package p; public class A { void m(){} }", encoding="utf-8")
    code, out, err = run_cli(["analyze", str(tmp_path / "p"), str(tmp_path / "q")], capsys)
    assert (code, out) == (2, "")
    first, second = ((tmp_path / d / "A.java").as_posix() for d in ("p", "q"))
    assert err == f"ckeval: error: duplicate class name: p.A, in {first} and {second}\n"


# --- source discovery ----------------------------------------------------------

def rglob_sources(roots):
    """The sources analyze found when it walked with ``Path.rglob``."""
    found = set()
    for root in roots:
        path = Path(root)
        if path.is_file():
            found.add(path.as_posix())
        else:
            found.update(p.as_posix() for p in path.rglob("*.java") if p.is_file())
    return sorted(found)


def make_source_tree(top: Path) -> None:
    """Nested packages and every kind of entry the walk must tell apart."""
    for rel in ("x/A.java", "x/p/B.java", "x/p/q/C.java", "x/.hidden/H.java",
                "x/.D.java", "x/.java", "x/U.JAVA", "x/notes.txt",
                "x/X.java/Inner.java", "y/Y.java", "y/z/Z.java"):
        (top / rel).parent.mkdir(parents=True, exist_ok=True)
        (top / rel).write_text(f"class {Path(rel).stem.strip('.') or 'E'} {{}}",
                               encoding="utf-8")
    os.symlink(top / "y", top / "x" / "linked")          # a directory: not entered
    os.symlink(top / "y", top / "x" / "LinkedDir.java")  # not a file either
    os.symlink("A.java", top / "x" / "Alias.java")       # a file: kept
    os.symlink("missing.java", top / "x" / "Broken.java")
    os.symlink("Loop.java", top / "x" / "Loop.java")


@pytest.mark.parametrize("roots", [
    ["."], ["x"], ["x/"], ["./x"], ["./x/"], ["x//p/", "x/./p"], ["{top}"], ["{top}/x/"],
    ["x", "x/p/B.java"], ["x/p/B.java", "./x", "x/p"], ["x/Alias.java", "x/A.java"],
    ["y", "{top}/y"], ["x/X.java", "x/linked"],
])
def test_discovery_equals_rglob(tmp_path, monkeypatch, roots):
    make_source_tree(tmp_path)
    monkeypatch.chdir(tmp_path)
    roots = [root.format(top=tmp_path.as_posix()) for root in roots]
    assert _discover_sources(roots) == rglob_sources(roots)


def test_discovery_finds_what_the_tree_holds(tmp_path, monkeypatch):
    make_source_tree(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert _discover_sources(["."]) == [
        "x/.D.java", "x/.hidden/H.java", "x/.java", "x/A.java", "x/Alias.java",
        "x/X.java/Inner.java", "x/p/B.java", "x/p/q/C.java", "y/Y.java", "y/z/Z.java"]
    assert _discover_sources(["x/linked"]) == ["x/linked/Y.java", "x/linked/z/Z.java"]


ENTRY_NAMES = ["a", "b", "A.java", "b.java", "C.JAVA", ".h", ".java", "d.java"]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.lists(st.sampled_from(ENTRY_NAMES), min_size=1, max_size=3),
                          st.sampled_from(["dir", "file", "to-file", "to-dir", "broken"])),
                max_size=12),
       st.lists(st.sampled_from([".", "t", "t/", "./t", "t/a", "{top}/t", "t/A.java"]),
                min_size=1, max_size=3))
def test_discovery_of_generated_trees_equals_rglob(entries, roots):
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as top:
        (Path(top) / "out").mkdir()
        (Path(top) / "out" / "O.java").write_text("class O {}", encoding="utf-8")
        (Path(top) / "t").mkdir()
        for parts, kind in entries:
            path = Path(top, "t", *parts)
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                if kind == "dir":
                    path.mkdir()
                elif kind == "file":
                    path.write_text("class F {}", encoding="utf-8")
                else:
                    target = {"to-file": "out/O.java", "to-dir": "out",
                              "broken": "out/none"}[kind]
                    os.symlink(Path(top, target), path)
            except OSError:  # a name already taken, or a file on the way
                pass
        os.chdir(top)
        try:
            roots = [root.format(top=top) for root in roots]
            if all(Path(root).exists() for root in roots):
                assert _discover_sources(roots) == rglob_sources(roots)
            else:
                with pytest.raises(InputError, match="no such file or directory"):
                    _discover_sources(roots)
        finally:
            os.chdir(here)


def test_diagnostics_under_root_dot_name_the_file_without_dot_slash(tmp_path, capsys,
                                                                   monkeypatch):
    (tmp_path / "A.java").write_text("class A {}", encoding="utf-8")
    (tmp_path / "B.java").write_text("class B { void m( }", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["analyze", "."], capsys)
    assert (code, out) == (0, "CLASS,WMC,DIT,NOC,CBO,RFC,LCOM\nA,0,0,0,0,0,0\n")
    assert err.startswith("B.java:1:19: SYNTAX_ERROR: ")
    assert err.endswith("\nckeval: skipped 1 file(s) outside the Java subset\n")


def test_analyze_directory_that_cannot_be_listed_is_an_input_error(tmp_path, capsys,
                                                                  monkeypatch):
    (tmp_path / "A.java").write_text("class A {}", encoding="utf-8")

    def scandir(path="."):
        raise OSError(errno.EIO, "Input/output error", path)

    monkeypatch.setattr(os, "scandir", scandir)
    code, out, err = run_cli(["analyze", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"ckeval: error: cannot list {tmp_path.as_posix()}: Input/output error\n"


def test_analyze_root_that_cannot_be_read_is_an_input_error(tmp_path, capsys,
                                                           monkeypatch):
    real_stat = os.stat

    def stat(path, *args, **kwargs):
        if str(path) == str(tmp_path):
            raise OSError(errno.EIO, "Input/output error", path)
        return real_stat(path, *args, **kwargs)

    monkeypatch.setattr(os, "stat", stat)
    code, out, err = run_cli(["analyze", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"ckeval: error: cannot read {tmp_path.as_posix()}: Input/output error\n"


@pytest.mark.parametrize("kind", ["device", "fifo", "missing"])
def test_analyze_root_that_is_not_a_file_or_directory_is_named_so(tmp_path, capsys, kind):
    root = {"device": os.devnull, "fifo": str(tmp_path / "pipe"),
            "missing": str(tmp_path / "none")}[kind]
    if kind == "fifo":
        os.mkfifo(root)
    message = "no such file or directory" if kind == "missing" else "not a file or directory"
    code, out, err = run_cli(["analyze", root], capsys)
    assert (code, out) == (2, "")
    assert err == f"ckeval: error: {message}: {root}\n"


class _FaultyEntry:
    """A directory entry whose file test fails as a failing disk would."""

    def __init__(self, entry):
        self.name = entry.name
        self.path = entry.path
        self.is_dir = entry.is_dir

    def is_file(self, follow_symlinks=True):
        raise OSError(errno.EIO, "Input/output error", self.path)


def test_analyze_entry_that_cannot_be_tested_is_an_input_error(tmp_path, capsys,
                                                              monkeypatch):
    (tmp_path / "A.java").write_text("class A {}", encoding="utf-8")
    real_scandir = os.scandir

    @contextmanager
    def scandir(path="."):
        with real_scandir(path) as entries:
            yield [_FaultyEntry(e) if e.name == "A.java" else e for e in entries]

    monkeypatch.setattr(os, "scandir", scandir)
    code, out, err = run_cli(["analyze", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    assert err == (f"ckeval: error: cannot read {tmp_path.as_posix()}/A.java: "
                   "Input/output error\n")


def test_analyze_skips_a_directory_it_may_not_list(tmp_path, capsys, monkeypatch):
    for rel in ("p/A.java", "q/B.java"):
        (tmp_path / rel).parent.mkdir()
        (tmp_path / rel).write_text(f"package {rel[0]}; class {rel[2]} {{}}",
                                    encoding="utf-8")
    real_scandir = os.scandir

    def scandir(path="."):
        if os.fspath(path).endswith("/q"):
            raise PermissionError(errno.EACCES, "Permission denied", path)
        return real_scandir(path)

    monkeypatch.setattr(os, "scandir", scandir)
    code, out, err = run_cli(["analyze", str(tmp_path)], capsys)
    assert (code, out, err) == (0, "CLASS,WMC,DIT,NOC,CBO,RFC,LCOM\np.A,0,0,0,0,0,0\n", "")


def test_analyze_walks_a_tree_deeper_than_the_recursion_limit(tmp_path, capsys):
    deep = tmp_path.joinpath(*["d"] * 300)
    deep.mkdir(parents=True)
    (deep / "A.java").write_text("class A {}", encoding="utf-8")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        code, out, err = run_cli(["analyze", str(tmp_path)], capsys)
    finally:
        sys.setrecursionlimit(limit)
    assert (code, out, err) == (0, "CLASS,WMC,DIT,NOC,CBO,RFC,LCOM\nA,0,0,0,0,0,0\n", "")


# --- same-arity overloads ------------------------------------------------------

@pytest.mark.parametrize("source, location", [
    ("package p; class A { void f(int a) {} void f(String s) {} }", "p.A.f/1"),
    ("package p; class A { A(int a) {} void g() {} A(String s) {} }", "p.A.A/1"),
    ("package p; interface A { void f(); int f(); }", "p.A.f/0"),
    ("class B {} class A { void g(int a, int b) {} void g() {} void g(B x, B y) {} }",
     "A.g/2"),
])
def test_analyze_skips_only_the_file_of_a_same_arity_overload(tmp_path, capsys, monkeypatch,
                                                              source, location):
    (tmp_path / "p").mkdir()
    (tmp_path / "p" / "A.java").write_text(source, encoding="utf-8")
    (tmp_path / "p" / "D.java").write_text("package p; class D { void f(int a) {} "
                                           "void f() {} }", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    diagnostic = (f"p/A.java: DUPLICATE_METHOD: {location}: "
                  "method signature (name, arity) declared more than once\n")
    code, out, err = run_cli(["analyze", "."], capsys)
    assert (code, out) == (0, "CLASS,WMC,DIT,NOC,CBO,RFC,LCOM\np.D,2,0,0,0,2,1\n")
    assert err == diagnostic + "ckeval: skipped 1 file(s) outside the Java subset\n"

    code, out, err = run_cli(["analyze", ".", "--strict"], capsys)
    assert (code, out, err) == (2, "", diagnostic)


def test_text_evaluate_reads_no_provenance(fixtures, capsys, monkeypatch):
    def refuse(paths):
        raise AssertionError("text output prints no provenance")

    monkeypatch.setattr("ckeval.export.input_provenance", refuse)
    for options in ([], ["--select", "WMC=2-5"]):
        code, _, err = run_cli(
            ["evaluate", str(fixtures / "moreunit_classes.csv"), *options], capsys)
        assert (code, err) == (0, "")


@pytest.mark.parametrize("spec, shown", [
    ("WMC=nan", "'nan'"), ("WMC=inf", "'inf'"), ("WMC=1-inf", "'inf'"), ("WMC=NaN-", "'NaN'"), ("WMC=0,nan", "'nan'"),
    ("WMC=1e999", "'1e999'"),
    # a leading minus is the number's sign, not a range separator
    ("WMC=-1", "'-1' is negative"), ("WMC=-2.5", "'-2.5' is negative"),
    ("WMC=-inf", "'-inf' is not a finite"), ("WMC=-1-5", "'-1-5' is not a number"),
    # a range splits once; a minus after e or E stays with its number
    ("WMC=1-2-3", "'2-3' is not a number"), ("WMC=1e-", "'1e-' is not a number"),
    ("WMC=1e-3-1e-4", "empty range"),
])
def test_select_rejects_non_finite_numbers(fixtures, capsys, spec, shown):
    code, out, err = run_cli(
        ["evaluate", str(fixtures / "moreunit_classes.csv"), "--select", spec],
        capsys)
    assert code == 1
    assert out == ""
    assert shown in err and repr(spec) in err


@pytest.mark.parametrize("spec, condition", [
    ("WMC=1e-3", ValueSet(frozenset([0.001]))),
    ("WMC=2e-0-5", Interval(2.0, 5.0)),
    ("WMC=0.5e-1-", Interval(0.05)),
    ("WMC=1E-1,2", ValueSet(frozenset([0.1, 2.0]))),
    ("WMC=1e-1-2E-0", Interval(0.1, 2.0)),
    ("WMC= 1e+1 - 12 ", Interval(10.0, 12.0)),
])
def test_select_reads_numbers_with_a_negative_exponent(spec, condition):
    # a minus right after e or E belongs to the exponent, not to the range
    assert parse_selection([spec]) == {"WMC": condition}


def test_select_with_a_negative_exponent_runs(fixtures, capsys):
    code, out, err = run_cli(
        ["evaluate", str(fixtures / "moreunit_classes.csv"), "--select", "WMC=1e-3"], capsys)
    assert (code, err) == (0, "")
    assert "WMC SELECTION: 0.001\n" in out


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_versions_table_rejects_non_finite_means(tmp_path, capsys, cell):
    table = tmp_path / "v.csv"
    table.write_text("VERSION,WMC,DIT,NOC,CBO,RFC,LCOM\n"
                     "v1,1,1,1,1,1,1\n"
                     f"v2,2,1,{cell},1,1,1\n", encoding="utf-8")
    code, out, err = run_cli(["compare", str(table)], capsys)
    assert code == 2
    assert out == ""
    assert "line 3" in err and "NOC" in err and repr(cell) in err


@pytest.mark.parametrize("literal", [
    "NaN", "Infinity", "-Infinity",
    pytest.param("1" + "0" * 400, id="integer-beyond-float"),
])
def test_versions_document_rejects_non_finite_means(tmp_path, capsys, literal):
    means = '{"wmc": 1, "dit": 1, "noc": 1, "cbo": 1, "rfc": 1, "lcom": 1}'
    bad = means.replace('"cbo": 1', f'"cbo": {literal}')
    doc = tmp_path / "v.json"
    doc.write_text('{"schemaVersion": 1, "versions": ['
                   f'{{"version": "v1", "means": {means}}}, '
                   f'{{"version": "v2", "means": {bad}}}]}}', encoding="utf-8")
    code, out, err = run_cli(["compare", str(doc)], capsys)
    assert code == 2
    assert out == ""
    assert f"versions[1].means.cbo: {json.loads(literal)!r} " in err


@pytest.mark.parametrize("condition, where, shown", [
    ('"range": [NaN, 5]', "range[0]", "nan"), ('"range": [0, NaN]', "range[1]", "nan"),
    ('"range": [0, Infinity]', "range[1]", "inf"),
    ('"values": [1, NaN]', "values[1]", "nan"),
    ('"values": [-Infinity]', "values[0]", "-inf"),
    pytest.param('"range": [0, 1' + "0" * 400 + ']', "range[1]", "1" + "0" * 400,
                 id="integer-beyond-float"),
])
def test_rule_file_rejects_non_finite_bounds(fixtures, tmp_path, capsys,
                                             condition, where, shown):
    rules = tmp_path / "rules.json"
    rules.write_text(
        '{"schemaVersion": 1, "name": "n", "rules": ['
        '{"id": "ok", "metric": "DIT", "range": [0, null], '
        '"conclusions": [{"attribute": "quality", "level": "Low"}]}, '
        f'{{"id": "odd", "metric": "WMC", {condition}, '
        '"conclusions": [{"attribute": "quality", "level": "Low"}]}]}',
        encoding="utf-8")
    code, _, err = run_cli(["rules", "check", str(rules)], capsys)
    assert code == 2
    assert f"rules[1].{where}: {shown} " in err
    assert "overlap" not in err
    code, out, err = run_cli(["evaluate", str(fixtures / "moreunit_classes.csv"),
                              "--rules", str(rules)], capsys)
    assert code == 2
    assert out == "" and f"rules[1].{where}" in err



# --- huge integers, line numbers after blank rows ------------------------------

HUGE = "1" + "0" * 400  # an integer beyond float range


def test_metrics_table_rejects_integer_beyond_float(tmp_path, capsys):
    table = tmp_path / "m.csv"
    table.write_text("CLASS,WMC,DIT,NOC,CBO,RFC,LCOM\n"
                     "A,1,0,0,0,1,0\n"
                     f"B,1,0,0,{HUGE},1,0\n", encoding="utf-8")
    code, out, err = run_cli(["evaluate", str(table)], capsys)
    assert code == 2, err
    assert out == ""
    assert "line 3: CBO" in err and "too large" in err
    assert "internal error" not in err


def test_metrics_document_rejects_integer_beyond_float(tmp_path, capsys):
    row = '{"class": "A", "wmc": 1, "dit": 0, "noc": 0, "cbo": 0, "rfc": 1, "lcom": 0}'
    doc = tmp_path / "m.json"
    doc.write_text('{"schemaVersion": 1, "metrics": ['
                   + row + ", " + row.replace('"A"', '"B"').replace('"rfc": 1', f'"rfc": {HUGE}')
                   + "]}", encoding="utf-8")
    code, out, err = run_cli(["evaluate", str(doc)], capsys)
    assert code == 2, err
    assert out == ""
    assert "metrics[1].rfc" in err and "too large" in err


@pytest.mark.parametrize("scope", ["class", "project"])
def test_mean_beyond_28_digits_evaluates_at_either_scope(tmp_path, capsys, scope):
    table = tmp_path / "m.csv"
    table.write_text("CLASS,WMC,DIT,NOC,CBO,RFC,LCOM\n"
                     f"a.A,{10 ** 28},0,0,0,0,0\n", encoding="utf-8")
    code, out, err = run_cli(["evaluate", str(table), "--scope", scope,
                              "--format", "structured"], capsys)
    assert code == 0, err
    assert "wmc-very-high" in out


def test_metric_cells_just_inside_float_range_evaluate(tmp_path, capsys):
    largest = 2 ** 1024 - 2 ** 970 - 1  # float() rounds it down to the largest float
    assert float(largest) == sys.float_info.max
    table = tmp_path / "m.csv"
    table.write_text("CLASS,WMC,DIT,NOC,CBO,RFC,LCOM\n"
                     f"A,{largest},0,0,0,1,0\n", encoding="utf-8")
    code, out, err = run_cli(["evaluate", str(table), "--format", "structured"], capsys)
    assert code == 0, err
    table.write_text("CLASS,WMC,DIT,NOC,CBO,RFC,LCOM\n"
                     f"A,{largest + 1},0,0,0,1,0\n", encoding="utf-8")
    code, out, err = run_cli(["evaluate", str(table)], capsys)
    assert code == 2 and "line 2: WMC" in err


# JSON values that json.loads refuses with a ValueError or a RecursionError
BEYOND_PARSER_LIMITS = [
    pytest.param("1" * 5000, id="5000-digit-integer"),  # over the int-string limit
    pytest.param("[" * 100_000 + "]" * 100_000, id="deeply-nested-array"),
]


@pytest.mark.parametrize("value", BEYOND_PARSER_LIMITS)
@pytest.mark.parametrize("command, document", [
    ("evaluate", '{"schemaVersion": 1, "metrics": [{"class": "A", "wmc": %s}]}'),
    ("evaluate", '{"schemaVersion": 1, "projectName": "p", "classes": '
                 '[{"name": "p.A", "methods": [{"name": "m", "arity": %s}]}]}'),
    ("compare", '{"schemaVersion": 1, "versions": [{"version": "v1", '
                '"means": {"wmc": %s}}]}'),
], ids=["metrics", "model", "versions"])
def test_json_beyond_parser_limits_is_an_input_error(tmp_path, capsys,
                                                     command, document, value):
    path = tmp_path / "in.json"
    path.write_text(document % value, encoding="utf-8")
    code, out, err = run_cli([command, str(path)], capsys)
    assert code == 2, err
    assert out == ""
    assert "internal error" not in err and "invalid JSON" in err


@pytest.mark.parametrize("value", BEYOND_PARSER_LIMITS)
def test_rule_file_beyond_parser_limits_is_an_input_error(
        fixtures, tmp_path, capsys, value):
    rules = tmp_path / "rules.json"
    rules.write_text('{"schemaVersion": 1, "name": "n", "rules": [{"id": "r", '
                     f'"metric": "WMC", "range": [0, {value}], '
                     '"conclusions": [{"attribute": "quality", "level": "Low"}]}]}',
                     encoding="utf-8")
    for argv in (["rules", "check", str(rules)],
                 ["evaluate", str(fixtures / "moreunit_classes.csv"), "--rules", str(rules)]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2, err
        assert "internal error" not in err and "not valid JSON" in err


@pytest.mark.parametrize("value", BEYOND_PARSER_LIMITS)
def test_json_readers_turn_parser_limits_into_input_errors(value):
    with pytest.raises(InputError, match="invalid structured document"):
        import_structured('{"kind": "verdicts", "n": %s}' % value)
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_class_model('{"schemaVersion": 1, "classes": [], "n": %s}' % value)
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_rules('{"name": "n", "rules": [], "n": %s}' % value)


@pytest.mark.parametrize("document", [None, 3, 1.5, True, ("{}",), {"{}"}],
                         ids=["None", "int", "float", "bool", "tuple", "set"])
@pytest.mark.parametrize("load", [load_class_model, load_rules])
def test_document_of_no_json_type_is_a_schema_error(load, document):
    # json.loads raised TypeError here, outside the InputError family
    with pytest.raises(SchemaError, match="must be JSON text or a parsed document") as info:
        load(document)
    assert info.value.path == "$"


def test_document_as_bytes_is_read_as_json_text():
    model = '{"schemaVersion": 1, "projectName": "p", "classes": [{"name": "p.A"}]}'
    rules = serialize_rules(paper_rule_preset())
    for encode in (str.encode, lambda text: bytearray(text.encode())):
        assert load_class_model(encode(model)) == load_class_model(model)
        assert load_rules(encode(rules)) == paper_rule_preset()


@pytest.mark.parametrize("command, header", [
    ("evaluate", "CLASS,WMC,DIT,NOC,CBO,RFC,LCOM"),
    ("compare", "VERSION,WMC,DIT,NOC,CBO,RFC,LCOM"),
])
def test_cell_over_csv_field_limit_is_an_input_error(tmp_path, capsys, command, header):
    table = tmp_path / "t.csv"
    table.write_text(f"{header}\nA,1,0,0,0,1,0\n\n" + "B" * 200_000 + ",1,0,0,0,1,0\n",
                     encoding="utf-8")
    code, out, err = run_cli([command, str(table)], capsys)
    assert code == 2, err
    assert out == ""
    assert "line 4: field larger than field limit" in err


def test_metrics_table_errors_name_the_physical_line(tmp_path, capsys):
    table = tmp_path / "m.csv"
    table.write_text("CLASS,WMC,DIT,NOC,CBO,RFC,LCOM\n"
                     "A,1,0,0,0,1,0\n"
                     "\n"
                     " , \n"
                     "B,1,x,0,0,1,0\n", encoding="utf-8")
    code, _, err = run_cli(["evaluate", str(table)], capsys)
    assert code == 2
    assert "line 5: DIT" in err


def test_metrics_table_error_after_multiline_cell_names_its_first_line(
        tmp_path, capsys):
    table = tmp_path / "m.csv"
    table.write_text("\n"
                     "CLASS,WMC,DIT,NOC,CBO,RFC,LCOM\n"
                     '"A\nB",1,0,0,0,1,0\n'
                     '"C\nD",1,0,-1,0,1,0\n', encoding="utf-8")
    code, _, err = run_cli(["evaluate", str(table)], capsys)
    assert code == 2
    assert "line 5: NOC must be non-negative" in err


def test_versions_table_errors_name_the_physical_line(tmp_path, capsys):
    table = tmp_path / "v.csv"
    table.write_text("\n"
                     "VERSION,WMC,DIT,NOC,CBO,RFC,LCOM\n"
                     "v1,1,1,1,1,1,1\n"
                     "\n"
                     ",,,\n"
                     "v2,2,1,x,1,1,1\n"
                     "v3,2,1\n", encoding="utf-8")
    code, _, err = run_cli(["compare", str(table)], capsys)
    assert code == 2
    assert "line 6: NOC" in err
    table.write_text(table.read_text(encoding="utf-8").replace(",x,", ",1,"),
                     encoding="utf-8")
    code, _, err = run_cli(["compare", str(table)], capsys)
    assert code == 2
    assert "line 7: expected 7 columns" in err


# --- duplicate class rows ----------------------------------------------------------

DUPLICATE_ROWS_CSV = ("CLASS,WMC,DIT,NOC,CBO,RFC,LCOM\n"
                      "a.B,1,0,0,0,1,0\n"
                      "a.C,2,0,0,0,2,0\n"
                      "\n"
                      " a.B ,9,1,0,3,12,4\n")


def duplicate_rows_document() -> str:
    rows = [{"class": name, "wmc": 1, "dit": 0, "noc": 0, "cbo": 0, "rfc": 1, "lcom": 0}
            for name in ("a.B", "a.C", "a.D", "a.C")]
    return json.dumps({"schemaVersion": 1, "metrics": rows})


@pytest.mark.parametrize("suffix, text, message", [
    (".csv", DUPLICATE_ROWS_CSV, "line 5: duplicate class 'a.B', first on line 2"),
    (".json", duplicate_rows_document(),
     "metrics[3].class: duplicate class 'a.C', first at metrics[1]"),
], ids=["csv", "json"])
@pytest.mark.parametrize("command", [
    ["evaluate"],
    ["evaluate", "--select", "WMC=0-5"],
    ["compare", "{other}"],
], ids=["evaluate", "select", "compare"])
def test_duplicate_class_rows_are_rejected(tmp_path, capsys, fixtures, suffix, text,
                                           message, command):
    table = tmp_path / f"m{suffix}"
    table.write_text(text, encoding="utf-8")
    other = str(fixtures / "moreunit_classes.csv")
    argv = [command[0], str(table)] + [a.format(other=other) for a in command[1:]]
    code, out, err = run_cli(argv, capsys)
    assert code == 2, out
    assert out == ""
    assert message in err


def test_duplicate_class_rows_raise_from_the_table_readers():
    from ckeval.tables import metrics_from_csv, metrics_from_document

    with pytest.raises(InputError, match="line 5: duplicate class 'a.B', first on line 2"):
        metrics_from_csv(DUPLICATE_ROWS_CSV)
    with pytest.raises(SchemaError) as err:
        metrics_from_document(json.loads(duplicate_rows_document()))
    assert err.value.path == "metrics[3].class"
    assert str(err.value) == "metrics[3].class: duplicate class 'a.C', first at metrics[1]"


@pytest.mark.parametrize("argv", [
    ["evaluate", "{table}"],
    ["compare", "{table}", "{other}"],
    ["rules", "check", "{table}"],
], ids=["evaluate", "compare", "rules-check"])
def test_non_utf8_input_is_an_input_error(tmp_path, capsys, fixtures, argv):
    table = tmp_path / "m.csv"
    table.write_bytes(b"CLASS,WMC,DIT,NOC,CBO,RFC,LCOM\nA\xff,1,0,0,0,1,0\n")
    other = str(fixtures / "moreunit_classes.csv")
    code, out, err = run_cli([a.format(table=table, other=other) for a in argv], capsys)
    assert code == 2, err
    assert out == ""
    assert "internal error" not in err
    assert f"cannot read {table}: not UTF-8" in err


@pytest.mark.parametrize("argv", [
    ["evaluate", "{table}"],
    ["compare", "{table}", "{table}"],
    ["rules", "list"],
], ids=["evaluate", "compare", "rules"])
def test_strict_is_an_analyze_option_only(fixtures, capsys, argv):
    table = str(fixtures / "moreunit_classes.csv")
    code, out, err = run_cli([a.format(table=table) for a in argv] + ["--strict"], capsys)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --strict" in err


def test_metrics_document_project_name_must_be_a_string(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"schemaVersion": 1, "projectName": ["x"], "metrics": []}',
                    encoding="utf-8")
    code, out, err = run_cli(["evaluate", str(path), "--scope", "project"], capsys)
    assert code == 2
    assert out == ""
    assert "projectName: must be a string" in err


@pytest.mark.parametrize("document, name", [
    ('{"schemaVersion": 1, "classes": [{"name": "A"}]}', "m"),
    ('{"schemaVersion": 1, "metrics": [{"class": "A", "wmc": 1, "dit": 0, "noc": 0,'
     ' "cbo": 0, "rfc": 1, "lcom": 0}]}', "m"),
    ('{"schemaVersion": 1, "projectName": "", "classes": [{"name": "A"}]}', "project"),
    ('{"schemaVersion": 1, "projectName": "shop", "classes": [{"name": "A"}]}', "shop"),
], ids=["model", "metrics", "empty-name", "named"])
def test_a_document_without_a_project_name_is_named_after_its_file(tmp_path, capsys,
                                                                   document, name):
    path = tmp_path / "m.json"
    path.write_text(document, encoding="utf-8")
    code, out, err = run_cli(["evaluate", str(path), "--scope", "project"], capsys)
    assert (code, err) == (0, "")
    assert re.search(r"^Project +: (.*)$", out, re.M).group(1) == name
    pm = load_metrics_input(path)
    assert pm.project_name == ("" if name == "project" else name)


BOM = "\ufeff".encode("utf-8")


def bom_twins(tmp_path, name: str, data: bytes) -> tuple[Path, Path]:
    """The same input file twice, as it is and after a UTF-8 byte-order mark."""
    (tmp_path / "plain").mkdir(exist_ok=True)
    (tmp_path / "bom").mkdir(exist_ok=True)
    plain, marked = tmp_path / "plain" / name, tmp_path / "bom" / name
    plain.write_bytes(data)
    marked.write_bytes(BOM + data)
    return plain, marked


def assert_same_run(argv, plain: Path, marked: Path, capsys):
    code, out, err = run_cli([str(plain) if a == "{input}" else a for a in argv], capsys)
    assert (code, err) == (0, "")
    assert run_cli([str(marked) if a == "{input}" else a for a in argv], capsys) \
        == (0, out.replace(str(plain), str(marked)), "")


def test_evaluate_reads_a_metrics_table_after_a_byte_order_mark(fixtures, tmp_path, capsys):
    data = (fixtures / "moreunit_classes.csv").read_bytes()
    plain, marked = bom_twins(tmp_path, "m.csv", data)
    assert_same_run(["evaluate", "{input}"], plain, marked, capsys)
    assert_same_run(["evaluate", "{input}", "--select", "WMC=2-5"], plain, marked, capsys)


def test_evaluate_reads_a_metrics_document_after_a_byte_order_mark(fixtures, tmp_path, capsys):
    pm = load_metrics_input(fixtures / "moreunit_classes.csv")
    data = json.dumps(metrics_to_document(pm)).encode("utf-8")
    plain, marked = bom_twins(tmp_path, "m.json", data)
    assert_same_run(["evaluate", "{input}", "--scope", "project"], plain, marked, capsys)


def test_compare_reads_a_versions_table_after_a_byte_order_mark(fixtures, tmp_path, capsys):
    data = (fixtures / "five_versions.csv").read_bytes()
    plain, marked = bom_twins(tmp_path, "v.csv", data)
    assert_same_run(["compare", "{input}", "--locale", "tr"], plain, marked, capsys)


def test_rules_file_after_a_byte_order_mark(fixtures, tmp_path, capsys):
    data = serialize_rules(paper_rule_preset()).encode("utf-8")
    plain, marked = bom_twins(tmp_path, "r.json", data)
    table = str(fixtures / "moreunit_classes.csv")
    assert_same_run(["evaluate", table, "--rules", "{input}"], plain, marked, capsys)
    assert_same_run(["rules", "check", "{input}"], plain, marked, capsys)


def test_not_utf8_offset_counts_the_byte_order_mark(tmp_path, capsys):
    table = tmp_path / "m.csv"
    table.write_bytes(BOM + b"CLASS,WMC,DIT,NOC,CBO,RFC,LCOM\nA\xff,1,0,0,0,1,0\n")
    code, out, err = run_cli(["evaluate", str(table)], capsys)
    assert (code, out) == (2, "")
    assert f"cannot read {table}: not UTF-8 at byte 35:" in err


# --- minus zero ----------------------------------------------------------------------

def test_minus_zero_reads_as_zero(fixtures, tmp_path, capsys):
    table = str(fixtures / "moreunit_classes.csv")
    code, out, err = run_cli(["evaluate", table, "--select", "WMC=-0",
                              "--select", "LCOM=-0,4"], capsys)
    assert (code, err) == (0, "")
    assert "WMC SELECTION: 0\n" in out and "LCOM SELECTION: 0, 4\n" in out
    assert run_cli(["evaluate", table, "--select", "WMC=0",
                    "--select", "LCOM=0,4"], capsys) == (0, out, "")
    versions = tmp_path / "v.csv"
    versions.write_text("VERSION,WMC,DIT,NOC,CBO,RFC,LCOM\n"
                        "v1,-0,1,1,1,1,1\n"
                        "v2,2,1,1,1,1,-0.0\n", encoding="utf-8")
    code, out, err = run_cli(["compare", str(versions)], capsys)
    assert (code, err) == (0, "")
    versions.write_text(versions.read_text(encoding="utf-8").replace("-0", "0"),
                        encoding="utf-8")
    assert run_cli(["compare", str(versions)], capsys) == (0, out, "")


# --- table headers as spreadsheets write them ------------------------------------------

@pytest.mark.parametrize("command, fixture, header", [
    ("evaluate", "moreunit_classes.csv", '"CLASS",WMC,DIT,NOC,CBO,RFC,LCOM'),
    ("evaluate", "moreunit_classes.csv", "CLASS ,WMC,DIT,NOC,CBO,RFC,LCOM"),
    ("evaluate", "moreunit_classes.csv", '" class ","WMC","DIT","NOC","CBO","RFC","LCOM"'),
    ("compare", "five_versions.csv", '"VERSION","PATH",WMC,DIT,NOC,CBO,RFC,LCOM'),
    ("compare", "five_versions.csv", "VERSION ,PATH,WMC,DIT,NOC,CBO,RFC,LCOM"),
    ("compare", "five_versions.csv", '"Version ",WMC,DIT,NOC,CBO,RFC,LCOM'),
], ids=["class-quoted", "class-padded", "class-all-quoted",
        "version-quoted", "version-padded", "version-no-path"])
def test_quoted_or_padded_table_header_is_read(fixtures, tmp_path, capsys, command,
                                                fixture, header):
    rows = (fixtures / fixture).read_text(encoding="utf-8").splitlines(keepends=True)[1:]
    if header.count(",") < rows[0].count(","):  # drop the PATH column
        rows = [row.split(",", 2)[0] + "," + row.split(",", 2)[2] for row in rows]
    plain, written = tmp_path / "plain" / fixture, tmp_path / "header" / fixture
    plain.parent.mkdir()
    written.parent.mkdir()
    plain.write_text(",".join(c.strip(' "').upper() for c in header.split(",")) + "\n"
                     + "".join(rows), encoding="utf-8")
    written.write_text(header + "\n" + "".join(rows), encoding="utf-8")
    code, out, err = run_cli([command, str(plain)], capsys)
    assert (code, err) == (0, "")
    assert run_cli([command, str(written)], capsys) \
        == (0, out.replace(str(plain), str(written)), "")


# --- files that cannot be written ----------------------------------------------------

@pytest.mark.parametrize("option", ["--out", "--chart"])
def test_unwritable_output_is_an_input_error(fixtures, tmp_path, capsys, option):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(["compare", str(fixtures / "five_versions.csv"),
                              option, str(target)], capsys)
    assert (code, out) == (2, "")
    assert err == f"ckeval: error: cannot write {target}: No such file or directory\n"


# --- text that UTF-8 cannot encode ---------------------------------------------------

@pytest.mark.parametrize("argv, output, code_point", [
    (["evaluate", "s.json"], "standard output", "U+D800"),
    (["evaluate", "s.json", "--select", "WMC=0-5"], "standard output", "U+D800"),
    (["evaluate", "s.json", "--format", "structured", "--out", "o.json"], "o.json", "U+D800"),
    (["compare", "v.json", "--chart", "c.svg"], "c.svg", "U+D800"),
    (["rules", "list", "--rules", "r.json"], "standard output", "U+D800"),
    # a file name or an argument that is not UTF-8 reaches the text as a
    # surrogate escape
    (["evaluate", os.fsdecode(b"\xff.csv"), "--format", "structured", "--out", "o.json"],
     "o.json", "U+DCFF"),
    (["analyze", "src", "--project", os.fsdecode(b"\xfe"), "--format", "structured",
      "--out", "o.json"], "o.json", "U+DCFE"),
], ids=["evaluate", "select", "structured-out", "chart", "rules-list", "file-name", "project"])
def test_text_that_utf8_cannot_encode_is_an_input_error(fixtures, tmp_path, monkeypatch, capsys,
                                                       argv, output, code_point):
    # JSON escapes of the lone surrogate U+D800 in a metrics document, a
    # versions document and a rules file
    (tmp_path / "s.json").write_text(
        '{"schemaVersion": 1, "metrics": [{"class": "A\\ud800", "wmc": 1, "dit": 0, '
        '"noc": 0, "cbo": 0, "rfc": 1, "lcom": 0}]}', encoding="utf-8")
    means = '"means": {"wmc": 1, "dit": 0, "noc": 0, "cbo": 2, "rfc": 3, "lcom": 0}'
    (tmp_path / "v.json").write_text(
        '{"schemaVersion": 1, "versions": [{"version": "v\\ud800", "path": "a.csv", '
        + means + '}, {"version": "w", "path": "b.csv", ' + means + "}]}", encoding="utf-8")
    (tmp_path / "r.json").write_text(
        '{"schemaVersion": 1, "name": "x\\ud800", "rules": [{"id": "a", "metric": "WMC", '
        '"range": [0, null], "conclusions": [{"attribute": "quality", "level": "Low"}]}]}',
        encoding="utf-8")
    (tmp_path / os.fsdecode(b"\xff.csv")).write_bytes(
        (fixtures / "moreunit_classes.csv").read_bytes())
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "A.java").write_text("class A { }", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == (f"ckeval: error: cannot write {output}: "
                   f"{code_point} cannot be encoded as UTF-8\n")
    assert not any(tmp_path.glob("[oc].*"))  # no partial --out or --chart file


@pytest.mark.parametrize("old", [None, b"old output\n"], ids=["new", "existing"])
def test_write_text_of_text_utf8_cannot_encode_leaves_the_file_as_it_was(tmp_path, old):
    target = tmp_path / "out.txt"
    if old is not None:
        target.write_bytes(old)
    with pytest.raises(InputError, match=f"^cannot write {re.escape(str(target))}: "
                                         "U\\+D800 cannot be encoded as UTF-8$"):
        write_text(target, "a\ud800")
    if old is None:
        assert not target.exists()
    else:
        assert target.read_bytes() == old
    write_text(target, "çğı\n🙂")
    assert target.read_bytes() == "çğı\n🙂".encode("utf-8")


# --- the output file writer ------------------------------------------------------------

NEW_TEXT = "çğı\n" * 1000


@pytest.mark.parametrize("old", [None, b"", b"x" * 10, b"y" * 100_000,
                                 NEW_TEXT.encode("utf-8")],
                         ids=["new", "empty", "shorter", "longer", "same"])
def test_write_text_leaves_exactly_the_new_bytes(tmp_path, old):
    target = tmp_path / "out.txt"
    if old is not None:
        target.write_bytes(old)
    write_text(target, NEW_TEXT)
    assert target.read_bytes() == NEW_TEXT.encode("utf-8")
    # a new file gets the mode that open(..., "wb") gives one
    (tmp_path / "plain").write_bytes(b"")
    assert target.stat().st_mode == (tmp_path / "plain").stat().st_mode
    # and longer text over what was just written
    write_text(target, NEW_TEXT * 3)
    assert target.read_bytes() == (NEW_TEXT * 3).encode("utf-8")


def test_write_text_rewrites_the_file_in_place(tmp_path):
    target, link = tmp_path / "out.txt", tmp_path / "link.txt"
    target.write_bytes(b"z" * 50_000)
    target.chmod(0o640)
    os.link(target, link)
    inode = target.stat().st_ino
    write_text(target, "short\n")
    assert link.read_bytes() == target.read_bytes() == b"short\n"
    after = target.stat()
    assert (after.st_ino, after.st_nlink, after.st_mode & 0o777) == (inode, 2, 0o640)


def test_write_text_through_a_symlink_rewrites_its_target(tmp_path):
    target, link = tmp_path / "target.svg", tmp_path / "link.svg"
    target.write_bytes(b"old" * 1000)
    link.symlink_to(target.name)
    write_text(link, "<svg/>\n")
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == b"<svg/>\n"


def test_write_text_opens_without_truncating(tmp_path, monkeypatch):
    opened = []
    real_open = os.open

    def spy(path, flags, *args, **kwargs):
        opened.append(flags)
        return real_open(path, flags, *args, **kwargs)

    target = tmp_path / "out.txt"
    target.write_bytes(b"old")
    monkeypatch.setattr(os, "open", spy)
    write_text(target, "new\n")
    assert len(opened) == 1
    flags = opened[0]
    assert not flags & os.O_TRUNC
    assert flags & (os.O_WRONLY | os.O_CREAT) == os.O_WRONLY | os.O_CREAT
    assert flags & os.O_CLOEXEC
    assert target.read_bytes() == b"new\n"


def test_write_text_to_dev_null_and_a_terminal():
    write_text(os.devnull, NEW_TEXT)
    controller, terminal = os.openpty()
    try:
        write_text(os.ttyname(terminal), "x" * 1000)
        got = b""
        while len(got) < 1000:
            got += os.read(controller, 1000)
        assert got == b"x" * 1000
    finally:
        os.close(terminal)
        os.close(controller)


def test_write_text_to_a_fifo(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []

    def drain():
        with open(fifo, "rb") as reader:
            got.append(reader.read())

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    text = NEW_TEXT * 40  # more than a pipe holds
    write_text(fifo, text)
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == [text.encode("utf-8")]


def test_write_text_to_a_directory_is_an_input_error(tmp_path):
    with pytest.raises(InputError, match=f"^cannot write {re.escape(str(tmp_path))}: "
                                         "Is a directory$"):
        write_text(tmp_path, "x")


def test_a_write_that_fails_part_way_leaves_only_what_it_wrote(tmp_path):
    # the child may write 40 bytes to a file; the next byte fails with EFBIG
    target = tmp_path / "out.txt"
    target.write_bytes(b"old " * 1000)
    code = ("import resource, sys\n"
            "from ckeval.errors import InputError\n"
            "from ckeval.tables import write_text\n"
            "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (40, hard))\n"
            "try:\n"
            "    write_text(sys.argv[1], 'new ' * 100)\n"
            "except InputError as exc:\n"
            "    print(exc)\n")
    package_root = str(Path(ckeval.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", code, str(target)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": package_root})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"cannot write {target}: File too large\n"
    assert target.read_bytes() == b"new " * 10


@pytest.mark.parametrize("locale, code_point", [("tr", "U+011E"), ("en", "U+00DC")])
def test_text_the_stdout_encoding_cannot_encode_is_an_input_error(fixtures, locale,
                                                                  code_point):
    # the Turkish report's first heading holds Ğ; the English one first meets Ü in SÜRÜM-5
    stdout, stderr = io.TextIOWrapper(io.BytesIO(), encoding="ascii"), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli_main(["compare", str(fixtures / "five_versions.csv"), "--locale", locale])
    stdout.flush()
    assert (code, stdout.buffer.getvalue()) == (2, b"")
    assert stderr.getvalue() == (f"ckeval: error: cannot write standard output: "
                                 f"{code_point} cannot be encoded as ascii\n")


def test_an_ascii_stdout_refuses_what_it_cannot_encode_in_a_new_process(fixtures):
    argv = ["compare", str(fixtures / "five_versions.csv"), "--locale", "tr"]
    proc = run_in_new_process(argv, {"PYTHONIOENCODING": "ascii"})
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("ckeval: error: cannot write standard output: "
                           "U+011E cannot be encoded as ascii\n")
    # an ASCII report goes out as before
    proc = run_in_new_process(["evaluate", str(fixtures / "moreunit_classes.csv")],
                              {"PYTHONIOENCODING": "ascii"})
    assert proc.returncode == 0
    assert proc.stdout == (fixtures / "golden" / "moreunit_evaluate_class_en.txt").read_text(
        encoding="utf-8")


def test_stdout_refuses_a_lone_surrogate_as_utf8_before_its_own_encoding(tmp_path):
    source = tmp_path / "s.json"
    source.write_text('{"schemaVersion": 1, "metrics": [{"class": "\\u011e\\ud800", '
                      '"wmc": 1, "dit": 0, "noc": 0, "cbo": 0, "rfc": 1, "lcom": 0}]}',
                      encoding="utf-8")
    for encoding in ("ascii", "utf-8"):
        stdout, stderr = io.TextIOWrapper(io.BytesIO(), encoding=encoding), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli_main(["evaluate", str(source)])
        stdout.flush()
        assert (code, stdout.buffer.getvalue()) == (2, b"")
        assert stderr.getvalue() == ("ckeval: error: cannot write standard output: "
                                     "U+D800 cannot be encoded as UTF-8\n")


@pytest.mark.parametrize("encoding, passes", [("utf-8", 1), ("UTF8", 1), ("utf_8", 1),
                                             ("utf-8-sig", 2), ("ascii", 2)])
def test_a_utf8_stdout_is_encoded_once(fixtures, monkeypatch, encoding, passes):
    used = []
    encode_output = tables.encode_output

    def counted(text, name, encoding="UTF-8", errors="strict"):
        used.append(encoding)
        return encode_output(text, name, encoding, errors)

    monkeypatch.setattr(tables, "encode_output", counted)
    stdout = io.TextIOWrapper(io.BytesIO(), encoding=encoding)
    with redirect_stdout(stdout):
        assert cli_main(["evaluate", str(fixtures / "moreunit_classes.csv")]) == 0
    stdout.flush()
    assert len(used) == passes
    assert stdout.buffer.getvalue().decode(encoding) == (
        fixtures / "golden" / "moreunit_evaluate_class_en.txt").read_text(encoding="utf-8")


# --- mutated inputs never end in an internal error -------------------------------------

# short tokens that break the syntax or the values of every input kind
TOKENS = [b"{", b"}", b"[", b"(", b",", b";", b'"', b"-1", b"1e999", b"nan", b"null",
          b"\xef\xbb\xbf", b"\x00", b"\xff", b"\n", b" ", b"A", b"0", b"\\ud800"]
FIXTURES = Path(__file__).parent / "fixtures"


def mutated_inputs():
    """Each input kind's valid file, and the argv that reads it as FILE."""
    pm = load_metrics_input(FIXTURES / "moreunit_classes.csv")
    table = str(FIXTURES / "moreunit_classes.csv")
    return [
        ("Cart.java", (FIXTURES / "corpus" / "shop" / "Cart.java").read_bytes(),
         ["analyze", "{input}", "--strict"]),
        ("m.csv", (FIXTURES / "moreunit_classes.csv").read_bytes(), ["evaluate", "{input}"]),
        ("m.json", json.dumps(metrics_to_document(pm)).encode("utf-8"),
         ["evaluate", "{input}", "--scope", "project", "--format", "structured"]),
        ("v.csv", (FIXTURES / "five_versions.csv").read_bytes(), ["compare", "{input}"]),
        ("r.json", serialize_rules(default_rule_base()).encode("utf-8"),
         ["evaluate", table, "--rules", "{input}"]),
    ]


MUTATED = mutated_inputs()


@st.composite
def edits(draw, data: bytes) -> bytes:
    """data with a few bytes or short tokens inserted, deleted or replaced."""
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        end = at + draw(st.integers(0, min(4, len(data) - at)))
        piece = draw(st.sampled_from(TOKENS) | st.binary(max_size=2))
        data = data[:at] + piece + data[end:]
    return data


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=st.data())
@pytest.mark.parametrize("name, data, argv", MUTATED, ids=[m[0] for m in MUTATED])
def test_mutated_inputs_end_in_a_result_or_an_input_error(tmp_path, name, data, argv, drawn):
    path = tmp_path / name
    path.write_bytes(drawn.draw(edits(data)))
    # stdout is strict UTF-8, as a StringIO, which takes any str, is not
    stdout, stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli_main([str(path) if a == "{input}" else a for a in argv])
    assert code in (0, 1, 2), stderr.getvalue()
    assert "internal error" not in stderr.getvalue()
