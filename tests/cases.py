"""Run the CLI cases of ``tests/fixtures/cases.json`` and report every miss.

    PYTHONPATH=src python tests/cases.py        # in process, through cli_main
    python tests/cases.py --command ckeval      # through an installed script

A case is a JSON object with these keys:

- ``name``: how the case is reported;
- ``argv``: the arguments after ``ckeval``;
- ``files`` (optional): run in a fresh directory seeded with these files,
  each ``{"path", "text"}`` or ``{"path", "from"}`` (a file or a directory
  of the checkout, copied) with an optional fixed ``mtime``; without it the
  case runs in the checkout;
- ``exit``: the exit code;
- ``stdout``: the exact text, ``{"golden": PATH}`` for a file of the
  checkout, or ``null`` where the output holds a file time of the checkout;
- ``stderr`` (optional): the exact text, empty by default;
- ``after`` (optional): every file the fresh directory holds afterwards;
- ``note`` (optional): why the case is there.

Each miss is printed with a unified diff, then the number of cases run;
the exit status is 1 if any case missed. Standard library only.
"""

import argparse
from contextlib import redirect_stderr, redirect_stdout
import difflib
import io
import json
import os
from pathlib import Path
import shlex
import shutil
import subprocess
import sys
import tempfile

CHECKOUT = Path(__file__).resolve().parent.parent
TABLE = CHECKOUT / "tests" / "fixtures" / "cases.json"
REQUIRED = {"name", "argv", "exit", "stdout"}
KEYS = REQUIRED | {"files", "stderr", "after", "note"}
# argparse wraps its usage lines to the terminal width
COLUMNS = "80"


def load_cases(table: Path = TABLE) -> list[dict]:
    cases = json.loads(table.read_text(encoding="utf-8"))
    for case in cases:
        if not REQUIRED <= case.keys() <= KEYS or "after" in case and "files" not in case:
            raise ValueError(f"case {case.get('name')!r}: keys {sorted(case)}, expected "
                             f"{sorted(REQUIRED)} and any of {sorted(KEYS - REQUIRED)}, "
                             "after only with files")
    return cases


def seed(directory: Path, files: list[dict]) -> None:
    for spec in files:
        path = directory / spec["path"]
        path.parent.mkdir(parents=True, exist_ok=True)
        if "from" not in spec:
            path.write_bytes(spec["text"].encode("utf-8"))
        elif (CHECKOUT / spec["from"]).is_dir():
            shutil.copytree(CHECKOUT / spec["from"], path, dirs_exist_ok=True)
        else:
            shutil.copyfile(CHECKOUT / spec["from"], path)
        if "mtime" in spec:
            os.utime(path, (spec["mtime"],) * 2)


def run_in_process(argv: list[str], cwd: Path) -> tuple[int, bytes, bytes]:
    from ckeval.cli import cli_main

    here, columns = os.getcwd(), os.environ.get("COLUMNS")
    # streams as a process's own: strict UTF-8 out, errors escaped
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    os.chdir(cwd)
    os.environ["COLUMNS"] = COLUMNS
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli_main(argv)
    finally:
        os.chdir(here)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    stdout.flush()
    stderr.flush()
    return code, stdout.buffer.getvalue(), stderr.buffer.getvalue()


def run_command(command: str, argv: list[str], cwd: Path) -> tuple[int, bytes, bytes]:
    proc = subprocess.run([*shlex.split(command), *argv], cwd=cwd, capture_output=True,
                          env={**os.environ, "COLUMNS": COLUMNS})
    return proc.returncode, proc.stdout, proc.stderr


def diff(what: str, expected: bytes, actual: bytes) -> str:
    def lines(data: bytes) -> list[str]:
        return data.decode("utf-8", "backslashreplace").splitlines(keepends=True)

    return "".join(difflib.unified_diff(lines(expected), lines(actual),
                                        f"expected {what}", f"actual {what}"))


def run_case(case: dict, command: str | None = None) -> list[str]:
    """What the case got wrong, one text per miss; empty if it ran as expected."""
    with tempfile.TemporaryDirectory() as fresh:
        cwd = CHECKOUT
        if "files" in case:
            cwd = Path(fresh)
            seed(cwd, case["files"])
        if command is None:
            code, out, err = run_in_process(case["argv"], cwd)
        else:
            code, out, err = run_command(command, case["argv"], cwd)
        left = (sorted(p.relative_to(cwd).as_posix() for p in cwd.rglob("*") if not p.is_dir())
                if "after" in case else None)

    misses = []
    if code != case["exit"]:
        misses.append(f"exit code {code}, expected {case['exit']}")
    for what, expected, actual in (("stdout", case["stdout"], out),
                                   ("stderr", case.get("stderr", ""), err)):
        if isinstance(expected, dict):
            expected = (CHECKOUT / expected["golden"]).read_bytes()
        elif expected is not None:
            expected = expected.encode("utf-8")
        if expected is not None and expected != actual:
            misses.append(diff(what, expected, actual))
    if "after" in case and left != sorted(case["after"]):
        misses.append(f"files left {left}, expected {sorted(case['after'])}")
    return misses


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the CLI cases and report every miss.")
    parser.add_argument("--command", help="run each case through this command, split as "
                                          "a shell splits it (default: in process)")
    parser.add_argument("--table", type=Path, default=TABLE, help="the cases (default: %(default)s)")
    args = parser.parse_args(argv)
    cases = load_cases(args.table)
    missed = 0
    for case in cases:
        misses = run_case(case, args.command)
        if misses:
            missed += 1
            print(f"MISS {case['name']}")
            print("\n".join(misses))
    print(f"{len(cases)} cases ran, {missed} missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
