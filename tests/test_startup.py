"""What a fresh ``dpkit`` process loads and prints, run in subprocesses."""

import json
import os
import subprocess
import sys

import pytest

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


_CLF = ("--input {clf} --label-column label --feature-columns a,b "
        "--epsilon 4 --gamma 0.5 --seed 3")

# Every command that draws Normal variates or turns scores into
# probabilities; {model} is a logistic model and {ledger} holds its charge.
_NOISE_COMMANDS = {
    "stat-mean-gaussian": "stat mean --input {csv} --column x --bounds 5,10"
                          " --epsilon 0.5 --delta 0.01 --mechanism gaussian"
                          " --seed 1",
    "mech-gaussian": "mech gaussian --values 1,2 --sensitivities 1,1"
                     " --epsilon 0.5 --delta 0.01 --seed 1",
    "fit-logit-output": f"fit logit {_CLF} --bounds=-1,1;-1,1"
                        " --method output --output {out}",
    "fit-logit-objective": f"fit logit {_CLF} --bounds=-1,1;-1,1"
                           " --method objective --output {out}",
    "fit-svm-gaussian": f"fit svm {_CLF} --kernel gaussian --rff-dim 20"
                        " --output {out}",
    "tune-logit": "tune logit --input {clf} --label-column label"
                  " --feature-columns a,b --bounds=-1,1;-1,1 --gammas 0.1,1"
                  " --epsilon-train 2 --epsilon-select 1 --seed 5"
                  " --output {out}",
    "predict-raw-logit": "predict --model {model} --input {clf}"
                         " --feature-columns a,b --raw",
    "budget-report": "budget report --ledger {ledger}",
}


@pytest.mark.parametrize("command", _NOISE_COMMANDS)
def test_noise_and_model_commands_load_no_scipy(tmp_path, command):
    clf = tmp_path / "clf.csv"
    clf.write_text("a,b,label\n" + "".join(
        f"{(i % 7) / 7 - 0.4:.3f},{(i % 5) / 5 - 0.5:.3f},{i % 2}\n"
        for i in range(40)))
    paths = {"csv": _csv(tmp_path), "clf": str(clf),
             "model": str(tmp_path / "logit.json"),
             "ledger": str(tmp_path / "led.jsonl"),
             "out": str(tmp_path / "out.json")}
    fit = _NOISE_COMMANDS["fit-logit-objective"] + " --ledger {ledger}"
    assert main([a.format(**{**paths, "out": paths["model"]})
                 for a in fit.split()]) == 0
    argv = [a.format(**paths) for a in _NOISE_COMMANDS[command].split()]
    code = ("import contextlib, io\nfrom dpkit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0")
    assert _scipy_modules_after(code) == "[]"


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


def test_gaussian_module_run_matches_in_process_report(capsys, tmp_path):
    report = _same_in_and_out_of_process(capsys, (
        "stat", "mean", "--input", _csv(tmp_path), "--column", "x",
        "--bounds", "5,10", "--epsilon", "0.5", "--delta", "0.01",
        "--mechanism", "gaussian", "--seed", "1"))
    assert report["result"]["mechanism"] == "gaussian"
    assert 0.0 < report["result"]["value"] < 20.0


def test_exponential_refusal_prints_no_numpy_warning():
    # An infinite utility made numpy warn on stderr above the refusal.
    done = _python("-m", "dpkit", "mech", "exponential", "--utility",
                   "0,inf,2", "--epsilon", "1", "--seed", "1")
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr == "dpkit: utilities must not be NaN or +inf\n"
