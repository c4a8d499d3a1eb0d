"""What a fresh ``dpkit`` process loads and prints, run in subprocesses."""

import json
import os
import subprocess
import sys

import dpkit
from dpkit.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(dpkit.__file__)))


def _python(*args, cwd=None):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=120)


def _modules_after(code, *prefixes):
    """The loaded modules named with any of ``prefixes`` after ``code``."""
    done = _python("-c", code + "\nimport sys\n"
                   f"print([m for m in sys.modules if m.startswith("
                   f"{prefixes!r})])")
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def _scipy_modules_after(code):
    return _modules_after(code, "scipy")


def test_import_loads_no_scipy():
    assert _scipy_modules_after("import dpkit, dpkit.cli") == "[]"


def test_import_loads_no_hashing_or_exact_arithmetic_module():
    # The ledger's exact totals are Python ints and its checksum is zlib's,
    # so the fixed cost of every command pays for none of these.
    assert _modules_after("import dpkit, dpkit.cli", "hashlib", "fractions",
                          "decimal") == "[]"


def test_laplace_release_and_ledger_load_no_scipy(tmp_path):
    ledger = str(tmp_path / "led.jsonl")
    code = ("from dpkit.cli import main\n"
            f"main(['mech', 'laplace', '--values', '1,2', '--sensitivities',"
            f" '1,1', '--epsilon', '1', '--seed', '1', '--ledger', {ledger!r}"
            f"])\nmain(['budget', 'report', '--ledger', {ledger!r}])")
    assert _scipy_modules_after(code) == "[]"


def _csv(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("x\n5.123\n7\n9.876\n6\n")
    return str(path)


def _same_in_and_out_of_process(capsys, argv):
    done = _python("-m", "dpkit", *argv)
    assert done.returncode == 0, done.stderr
    assert main(list(argv)) == 0
    assert done.stdout == capsys.readouterr().out
    return json.loads(done.stdout)


def test_module_run_matches_in_process_report(capsys, tmp_path):
    report = _same_in_and_out_of_process(capsys, (
        "stat", "mean", "--input", _csv(tmp_path), "--column", "x",
        "--bounds", "5,10", "--epsilon", "1", "--seed", "1"))
    assert report["result"]["mechanism"] == "laplace"


def test_gaussian_release_loads_scipy_when_needed(capsys, tmp_path):
    report = _same_in_and_out_of_process(capsys, (
        "stat", "mean", "--input", _csv(tmp_path), "--column", "x",
        "--bounds", "5,10", "--epsilon", "0.5", "--delta", "0.01",
        "--mechanism", "gaussian", "--seed", "1"))
    assert report["result"]["mechanism"] == "gaussian"
    assert 0.0 < report["result"]["value"] < 20.0
