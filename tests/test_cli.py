import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import ckeval
from ckeval.cli import cli_main
from ckeval.metrics import compute_all
from ckeval.model import load_class_model
from ckeval.tables import load_metrics_input


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


def test_compare_matches_golden(fixtures, capsys):
    code, out, _ = run_cli(
        ["compare", str(fixtures / "five_versions.csv"),
         "--metrics", "WMC", "--locale", "tr"], capsys)
    golden = (fixtures / "golden" / "five_versions_wmc_tr.txt").read_text(encoding="utf-8")
    assert code == 0
    assert out == golden


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


def test_compare_writes_chart_and_out(fixtures, tmp_path, capsys):
    chart = tmp_path / "chart.svg"
    out_file = tmp_path / "report.txt"
    code, out, _ = run_cli(
        ["compare", str(fixtures / "five_versions.csv"),
         "--chart", str(chart), "--out", str(out_file), "--locale", "tr"],
        capsys)
    assert code == 0
    assert out == ""
    assert "SÜRÜM-2 ve SÜRÜM-3 (5)" in out_file.read_text(encoding="utf-8")
    svg = chart.read_text(encoding="utf-8")
    assert svg.count("<title>") == 30
    assert svg.startswith("<?xml")


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


def test_module_entry_point(fixtures):
    # the child imports the same ckeval as this test, installed or not
    package_root = str(Path(ckeval.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "ckeval.cli", "compare",
         str(fixtures / "five_versions.csv"), "--metrics", "WMC",
         "--locale", "tr"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "SÜRÜM-2 ve SÜRÜM-3 (5)" in proc.stdout


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
    pm = load_metrics_input(path)
    assert pm.record("p.C0000").dit == 1499
    assert pm.record("p.C1499").dit == 0
    assert pm.record("p.C1499").noc == 1

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
