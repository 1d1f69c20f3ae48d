import json

import pytest

import cases

CASES = cases.load_cases()


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_cli_case(case):
    misses = cases.run_case(case)
    assert not misses, "\n".join(misses)


def test_the_runner_reports_every_miss(fixtures, tmp_path, capsys):
    golden = (fixtures / "golden" / "moreunit_evaluate_class_en.txt").read_bytes()
    changed = tmp_path / "changed.txt"
    changed.write_bytes(golden.replace(b"CLASS", b"CLAS5", 1))
    table = tmp_path / "cases.json"
    table.write_text(json.dumps([
        {"name": "right", "argv": ["rules", "check", "src/ckeval/data/paper_rules.json"],
         "exit": 0, "stdout": "OK: 3 rules, incomplete cover\n"},
        {"name": "changed-byte", "argv": ["evaluate", "tests/fixtures/moreunit_classes.csv"],
         "exit": 0, "stdout": {"golden": str(changed)}},
        {"name": "wrong-exit", "argv": ["rules", "check", "src/ckeval/data/paper_rules.json"],
         "exit": 2, "stdout": "OK: 3 rules, incomplete cover\n"},
    ]), encoding="utf-8")
    assert cases.main(["--table", str(table)]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("MISS ")] == [
        "MISS changed-byte", "MISS wrong-exit"]
    assert "-CLAS5 ASSESSMENT" in out and "+CLASS ASSESSMENT" in out
    assert "exit code 0, expected 2" in out
    assert out.endswith("\n3 cases ran, 2 missed\n")
