import argparse
import contextlib
import csv
import io
import json
import math
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpkit.accountant import BudgetLedger, exceeds_cap
from dpkit.cli import build_parser, main

from test_accountant import SPAWN, run_together


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def data_csv(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "data.csv"
    lines = ["x,y,g"]
    for i in range(100):
        lines.append(f"{rng.uniform(5, 10):.4f},{rng.uniform(0, 1):.4f},"
                     f"{'a' if i % 2 else 'b'}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def clf_csv(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "clf.csv"
    lines = ["a,b,label"]
    for _ in range(120):
        u, v = rng.uniform(-1, 1, 2)
        lines.append(f"{u:.4f},{v:.4f},{1 if u + v > 0 else 0}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_stat_mean_gaussian_report(capsys, data_csv):
    code, out, _ = run_cli(capsys, "stat", "mean", "--input", data_csv,
                           "--column", "x", "--bounds", "5,10",
                           "--epsilon", "0.9", "--delta", "0.05",
                           "--mechanism", "gaussian", "--seed", "7")
    assert code == 0
    report = json.loads(out)
    assert report["delta_used"] == 0.05
    assert report["epsilon_used"] == 0.9
    assert "seed" not in report
    assert report["result"]["detail"]["n"] == 100
    assert report["result"]["sensitivity"] == pytest.approx(0.05)
    assert 4.0 < report["result"]["value"] < 11.0


_GAUSSIAN_STATS = {
    "mean": ["--column", "x", "--bounds", "5,10"],
    "var": ["--column", "x", "--bounds", "5,10"],
    "histogram": ["--column", "x", "--breaks", "5,7,10", "--allow-negative"],
    "table": ["--columns", "g", "--categories", "a,b", "--allow-negative"]}


@pytest.mark.parametrize("statistic", sorted(_GAUSSIAN_STATS))
def test_a_delta_budget_picks_the_gaussian_mechanism(capsys, data_csv,
                                                     statistic):
    """Without --mechanism an (eps, delta) budget releases Gaussian noise of
    sigma = gaussian_sigma(budget, l2 sensitivity), rebuilt here from the
    seeded normals; naming the mechanism prints the same bytes."""
    from dpkit import PrivacyBudget, RandomSource, gaussian_sigma

    argv = ["stat", statistic, "--input", data_csv, "--epsilon", "0.5",
            "--delta", "1e-5", "--seed", "4", *_GAUSSIAN_STATS[statistic]]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    with open(data_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    x = np.array([float(r["x"]) for r in rows])  # inside the bounds
    exact, sensitivity = {
        "mean": (x.mean(), 5.0 / x.size),
        "var": (x.var(ddof=1), 25.0 / x.size),
        "histogram": (np.histogram(x, [5.0, 7.0, 10.0])[0], math.sqrt(2.0)),
        "table": (np.array([sum(r["g"] == c for r in rows) for c in "ab"]),
                  math.sqrt(2.0))}[statistic]
    sigma = gaussian_sigma(PrivacyBudget(0.5, 1e-5, "approximate"),
                           sensitivity)
    noise = sigma * RandomSource(4).normal(np.size(exact))
    result = json.loads(out)["result"]
    assert result["mechanism"] == "gaussian"
    assert result["sensitivity"] == sensitivity
    assert np.array_equal(np.ravel(result["value"]), noise + exact)
    _, named, _ = run_cli(capsys, *argv, "--mechanism", "gaussian")
    assert named == out


@pytest.mark.parametrize("budget,mechanism,message", [
    (["--epsilon", "0.5", "--delta", "1e-5"], "laplace",
     "the Laplace mechanism requires a pure budget"),
    (["--epsilon", "1"], "gaussian",
     "the Gaussian mechanism requires delta > 0")])
@pytest.mark.parametrize("statistic", sorted(_GAUSSIAN_STATS))
def test_a_mechanism_the_budget_does_not_pick_exits_3_uncharged(
        capsys, data_csv, tmp_path, statistic, budget, mechanism, message):
    ledger = tmp_path / "led.jsonl"
    code, out, err = run_cli(capsys, "stat", statistic, "--input", data_csv,
                             *budget, "--mechanism", mechanism,
                             *_GAUSSIAN_STATS[statistic], "--ledger",
                             str(ledger))
    assert code == 3 and out == ""
    assert err == f"dpkit: {message}\n"
    assert not ledger.exists()


@pytest.mark.parametrize("flags,message", [
    (["--utility", "0,inf,2"], "utilities must not be NaN or +inf"),
    (["--utility", "0,nan,2"], "utilities must not be NaN or +inf"),
    (["--utility", "0,1,2", "--measure", "1,nan,1"],
     "measure weights must be finite and nonnegative"),
    (["--utility", "0,1,2", "--sensitivity", "nan"],
     "utility sensitivity must be finite and nonnegative"),
    (["--utility", "0,1,2", "--sensitivity", "inf"],
     "utility sensitivity must be finite and nonnegative"),
    (["--utility=-inf,-inf"], "every utility of positive measure is -inf"),
    (["--utility", "0,0", "--measure", "1.7e308,1.7e308"],
     "measure weights must have a finite sum"),
    (["--utility", "0,1,2", "--measure", "1,1"],
     "measure length does not match utility")],
    ids=["inf-utility", "nan-utility", "nan-measure", "nan-sensitivity",
         "inf-sensitivity", "all-minus-inf", "overflowing-measure",
         "short-measure"])
def test_exponential_refuses_non_numbers_naming_the_input(capsys, tmp_path,
                                                          flags, message):
    ledger = tmp_path / "led.jsonl"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the run
        code, out, err = run_cli(capsys, "mech", "exponential", *flags,
                                 "--epsilon", "1", "--seed", "1",
                                 "--ledger", str(ledger))
    assert code == 3 and out == ""
    assert err == f"dpkit: {message}\n"
    assert not ledger.exists()


def test_reports_are_byte_identical_across_runs(capsys, data_csv):
    argv = ("stat", "median", "--input", data_csv, "--column", "x",
            "--bounds", "5,10", "--epsilon", "1", "--seed", "42")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    _, third, _ = run_cli(capsys, *argv[:-1], "43")
    assert third != first


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("v\n1\n2\n3\n4\n"))
    code, out, _ = run_cli(capsys, "stat", "mean", "--input", "-",
                           "--column", "v", "--bounds", "0,5",
                           "--epsilon", "100", "--seed", "1")
    assert code == 0
    assert json.loads(out)["result"]["value"] == pytest.approx(2.5, abs=0.5)


def test_exit_codes(capsys, data_csv, tmp_path):
    # 2: argparse rejects unknown statistic
    with pytest.raises(SystemExit) as exc:
        main(["stat", "mode", "--input", data_csv, "--epsilon", "1"])
    assert exc.value.code == 2
    # 3: malformed bounds
    code, _, err = run_cli(capsys, "stat", "mean", "--input", data_csv,
                           "--column", "x", "--bounds", "oops",
                           "--epsilon", "1")
    assert code == 3 and "bounds" in err
    # 3: missing column
    code, _, _ = run_cli(capsys, "stat", "mean", "--input", data_csv,
                         "--column", "nope", "--bounds", "5,10",
                         "--epsilon", "1")
    assert code == 3
    # 4: the requested spend exceeds the cap
    ledger = str(tmp_path / "led.jsonl")
    code, _, _ = run_cli(capsys, "stat", "mean", "--input", data_csv,
                         "--column", "x", "--bounds", "5,10",
                         "--epsilon", "2", "--ledger", ledger,
                         "--cap", "1.0,0")
    assert code == 4


def test_ledger_accumulates_and_budget_report(capsys, data_csv, tmp_path):
    ledger = str(tmp_path / "led.jsonl")
    run_cli(capsys, "stat", "mean", "--input", data_csv, "--column", "x",
            "--bounds", "5,10", "--epsilon", "0.5", "--ledger", ledger,
            "--tag", "east")
    run_cli(capsys, "stat", "var", "--input", data_csv, "--column", "x",
            "--bounds", "5,10", "--epsilon", "0.25", "--ledger", ledger,
            "--tag", "west")
    code, out, _ = run_cli(capsys, "budget", "report", "--ledger", ledger)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["entries"] == 2
    assert report["result"]["sequential"]["epsilon"] == pytest.approx(0.75)
    assert report["result"]["parallel"]["epsilon"] == pytest.approx(0.5)

    code, _, _ = run_cli(capsys, "budget", "check", "--ledger", ledger,
                         "--cap", "1.0,0")
    assert code == 0
    code, _, _ = run_cli(capsys, "budget", "check", "--ledger", ledger,
                         "--cap", "0.6,0")
    assert code == 4


def test_fit_predict_round_trip(capsys, clf_csv, tmp_path):
    model_path = str(tmp_path / "model.json")
    ledger = str(tmp_path / "led.jsonl")
    code, out, _ = run_cli(capsys, "fit", "logit", "--input", clf_csv,
                           "--label-column", "label",
                           "--feature-columns", "a,b",
                           "--bounds=-1,1;-1,1", "--epsilon", "4",
                           "--gamma", "0.5", "--method", "objective",
                           "--add-bias", "--seed", "3",
                           "--output", model_path, "--ledger", ledger)
    assert code == 0
    fit_report = json.loads(out)
    assert fit_report["epsilon_used"] == 4.0
    assert len(fit_report["result"]["coefficients"]) == 3

    ledger_before = Path(ledger).read_text()
    code, out, _ = run_cli(capsys, "predict", "--model", model_path,
                           "--input", clf_csv, "--feature-columns", "a,b")
    assert code == 0
    pred_report = json.loads(out)
    assert pred_report["epsilon_used"] == 0.0
    assert pred_report["delta_used"] == 0.0
    assert len(pred_report["result"]["predictions"]) == 120
    assert set(pred_report["result"]["predictions"]) <= {0.0, 1.0}
    # Prediction is post-processing: the ledger is untouched.
    assert Path(ledger).read_text() == ledger_before


def test_fit_gaussian_svm_without_bounds(capsys, clf_csv, tmp_path):
    model_path = str(tmp_path / "svm.json")
    code, out, _ = run_cli(capsys, "fit", "svm", "--input", clf_csv,
                           "--label-column", "label",
                           "--feature-columns", "a,b", "--epsilon", "4",
                           "--gamma", "0.5", "--kernel", "gaussian",
                           "--rff-dim", "20", "--seed", "3",
                           "--output", model_path)
    assert code == 0
    assert json.loads(out)["result"]["kind"] == "svm_gaussian"
    code, out, _ = run_cli(capsys, "predict", "--model", model_path,
                           "--input", clf_csv, "--feature-columns", "a,b",
                           "--raw")
    assert code == 0
    raw = json.loads(out)["result"]["predictions"]
    assert len(raw) == 120


def test_fit_linreg_cli(capsys, clf_csv, tmp_path):
    model_path = str(tmp_path / "lin.json")
    code, out, _ = run_cli(capsys, "fit", "linreg", "--input", clf_csv,
                           "--label-column", "label",
                           "--feature-columns", "a,b",
                           "--bounds=-1,1;-1,1;0,1", "--epsilon", "5",
                           "--gamma", "1", "--add-bias", "--seed", "2",
                           "--output", model_path)
    assert code == 0
    assert json.loads(out)["result"]["kind"] == "linear"


def test_tune_cli_selects_and_saves(capsys, clf_csv, tmp_path):
    model_path = str(tmp_path / "tuned.json")
    code, out, _ = run_cli(capsys, "tune", "logit", "--input", clf_csv,
                           "--label-column", "label",
                           "--feature-columns", "a,b",
                           "--bounds=-1,1;-1,1", "--gammas", "0.1,1,10",
                           "--epsilon-train", "2", "--epsilon-select", "1",
                           "--seed", "5", "--output", model_path)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["selected"].startswith("gamma=")
    assert report["epsilon_used"] == 3.0  # parallel training + selection
    assert json.loads(Path(model_path).read_text())["kind"] == "logistic"


@pytest.mark.parametrize("model,bounds,kind", [
    ("linreg", "-1,1;-1,1;0,1", "linear"),
    ("svm", "-1,1;-1,1", "svm_linear"),
])
def test_tune_cli_charges_training_plus_selection(capsys, clf_csv, tmp_path,
                                                  model, bounds, kind):
    model_path, ledger = str(tmp_path / "tuned.json"), tmp_path / "led.jsonl"
    code, out, _ = run_cli(capsys, "tune", model, "--input", clf_csv,
                           "--label-column", "label",
                           "--feature-columns", "a,b", f"--bounds={bounds}",
                           "--gammas", "0.1,1,10", "--epsilon-train", "2",
                           "--epsilon-select", "0.5", "--seed", "5",
                           "--output", model_path, "--ledger", str(ledger))
    assert code == 0
    report = json.loads(out)
    assert report["epsilon_used"] == 2.5  # parallel training + selection
    entries = BudgetLedger.load(ledger).entries
    assert [(e.operation_name, e.epsilon) for e in entries] == [
        (f"tune {model}", 2.5)]
    assert json.loads(Path(model_path).read_text())["kind"] == kind
    code, out, _ = run_cli(capsys, "predict", "--model", model_path,
                           "--input", clf_csv, "--feature-columns", "a,b")
    assert code == 0
    assert len(json.loads(out)["result"]["predictions"]) == 120


@pytest.mark.parametrize("model", ["logit", "linreg"])
@pytest.mark.parametrize("flags", [
    ["--weights-column", "w"], ["--kernel", "gaussian"],
    ["--rff-dim", "20"], ["--kernel-param", "0.5"]], ids=lambda f: f[0])
def test_fit_refuses_svm_flags_uncharged(capsys, tmp_path, model, flags):
    """A flag only ``fit svm`` reads would otherwise be dropped unseen."""
    rng = np.random.default_rng(2)
    path = tmp_path / "weighted.csv"
    rows = [f"{u:.4f},{v:.4f},{int(u + v > 0)},{rng.uniform(0, 1):.3f}"
            for u, v in rng.uniform(-1, 1, (60, 2))]
    path.write_text("a,b,label,w\n" + "\n".join(rows) + "\n")
    ledger, model_path = tmp_path / "led.jsonl", tmp_path / "m.json"
    bounds = "-1,1;-1,1" + (";0,1" if model == "linreg" else "")
    code, out, err = run_cli(capsys, "fit", model, "--input", str(path),
                             "--label-column", "label",
                             "--feature-columns", "a,b",
                             f"--bounds={bounds}", "--epsilon", "1",
                             "--gamma", "1", *flags, "--ledger", str(ledger),
                             "--output", str(model_path))
    assert code == 3 and out == ""
    assert f"{flags[0]} applies to fit svm only" in err
    _one_line_error(err)
    assert not ledger.exists() and not model_path.exists()


# Flags a model never reads: (command, model, flags, message).
_UNREAD_FLAGS = [
    ("fit", "linreg", ["--method", "objective"],
     "--method applies to fit logit|svm only"),
    ("fit", "linreg", ["--huber-h", "3"], "--huber-h applies to fit svm only"),
    ("fit", "linreg", ["--weight-upper-bound", "9"],
     "--weight-upper-bound applies to fit svm only, with --weights-column"),
    ("fit", "logit", ["--weight-upper-bound", "0.01"],
     "--weight-upper-bound applies to fit svm only, with --weights-column"),
    ("fit", "svm", ["--weight-upper-bound", "0.01"],
     "--weight-upper-bound applies to fit svm only, with --weights-column"),
    ("fit", "logit", ["--huber-h", "3"], "--huber-h applies to fit svm only"),
    ("fit", "svm", ["--rff-dim", "20"],
     "--rff-dim applies to fit svm only, with --kernel gaussian"),
    ("fit", "svm", ["--kernel", "linear", "--kernel-param", "3"],
     "--kernel-param applies to fit svm only, with --kernel gaussian"),
    ("fit", "svm", ["--method", "objective", "--weights-column", "w"],
     "--weights-column applies to fit svm only, with --method output"),
    ("tune", "linreg", ["--method", "objective"],
     "--method applies to tune logit|svm only"),
    ("tune", "logit", ["--huber-h", "3"], "--huber-h applies to tune svm only"),
    ("tune", "linreg", ["--huber-h", "3"],
     "--huber-h applies to tune svm only"),
]


@pytest.mark.parametrize("weight", ["1", "0.5", "missing"])
def test_objective_svm_refuses_weights_before_reading_them(
        capsys, clf_csv, tmp_path, weight):
    # All-ones weights, other weights and an unreadable input are refused
    # alike, so the exit code cannot depend on a private column.
    path = (str(tmp_path / "absent.csv") if weight == "missing"
            else _weighted_csv(clf_csv, tmp_path, weight))
    ledger, model_path = tmp_path / "led.jsonl", tmp_path / "m.json"
    code, out, err = run_cli(capsys, *_model_command(
        "fit", "svm", path, "--method", "objective", "--weights-column", "w",
        "--weight-upper-bound", "2"), "--ledger", str(ledger), "--output",
        str(model_path))
    assert (code, out, err) == (3, "", "dpkit: --weights-column applies to "
                                "fit svm only, with --method output\n")
    assert not ledger.exists() and not model_path.exists()


def _model_command(command, model, path, *flags):
    """argv of a ``fit`` or ``tune`` run of ``model`` on the a,b,label CSV;
    a Gaussian-kernel fit takes no bounds."""
    argv = [command, model, "--input", str(path), "--label-column", "label",
            "--feature-columns", "a,b"]
    if "gaussian" not in flags:
        argv.append("--bounds=-1,1;-1,1" + (";0,1" if model == "linreg"
                                            else ""))
    if command == "fit":
        argv += ["--epsilon", "1", "--gamma", "1"]
    else:
        argv += ["--gammas", "0.1,1", "--epsilon-train", "1",
                 "--epsilon-select", "0.5"]
    return argv + [*flags, "--seed", "3"]


@pytest.mark.parametrize("command,model,flags,message", _UNREAD_FLAGS,
                         ids=[f"{c}-{m}{f[-2]}" for c, m, f, _ in
                              _UNREAD_FLAGS])
def test_model_flags_a_model_does_not_read_exit_3_uncharged(
        capsys, clf_csv, tmp_path, command, model, flags, message):
    ledger, model_path = tmp_path / "led.jsonl", tmp_path / "m.json"
    code, out, err = run_cli(capsys, *_model_command(
        command, model, clf_csv, *flags), "--ledger", str(ledger),
        "--output", str(model_path))
    assert code == 3 and out == ""
    assert message in err
    _one_line_error(err)
    assert not ledger.exists() and not model_path.exists()


@pytest.mark.parametrize("command", ["fit", "tune"])
@pytest.mark.parametrize("width", ["0", "nan"])
def test_bad_huber_width_exits_3_uncharged(capsys, clf_csv, tmp_path,
                                           command, width):
    ledger, model_path = tmp_path / "led.jsonl", tmp_path / "m.json"
    code, out, err = run_cli(capsys, *_model_command(
        command, "svm", clf_csv, "--huber-h", width), "--ledger",
        str(ledger), "--output", str(model_path))
    assert code == 3 and out == ""
    assert "huber smoothing width must be finite and positive" in err
    _one_line_error(err)
    assert not ledger.exists() and not model_path.exists()


@pytest.mark.parametrize("command,model,flags,message", [
    ("fit", "linreg", [], "the data have no rows; a fit needs at least one"),
    ("fit", "logit", [], "the data have no rows; a fit needs at least one"),
    ("fit", "svm", ["--kernel", "linear"],
     "the data have no rows; a fit needs at least one"),
    ("fit", "svm", ["--kernel", "gaussian", "--rff-dim", "20"],
     "the data have no rows; a fit needs at least one"),
    ("tune", "logit", [], "not enough rows to fill every fold"),
    ("tune", "linreg", [], "not enough rows to fill every fold"),
], ids=["fit-linreg", "fit-logit", "fit-svm-linear", "fit-svm-gaussian",
        "tune-logit", "tune-linreg"])
def test_header_only_csv_exits_3_uncharged(capsys, tmp_path, command, model,
                                           flags, message):
    empty = tmp_path / "empty.csv"
    empty.write_text("a,b,label\n")
    ledger, model_path = tmp_path / "led.jsonl", tmp_path / "m.json"
    code, out, err = run_cli(capsys, *_model_command(
        command, model, empty, *flags), "--ledger", str(ledger),
        "--output", str(model_path))
    assert code == 3 and out == ""
    assert message in err
    _one_line_error(err)
    assert not ledger.exists() and not model_path.exists()


def _weighted_csv(clf_csv, tmp_path, weight="1"):
    """The a,b,label CSV with a weight column w of one value."""
    lines = Path(clf_csv).read_text().splitlines()
    path = tmp_path / "weighted.csv"
    path.write_text("\n".join([lines[0] + ",w"] + [
        f"{line},{weight}" for line in lines[1:]]) + "\n")
    return str(path)


def test_model_flags_a_model_reads_are_accepted(capsys, clf_csv, data_csv,
                                                tmp_path):
    model_path = str(tmp_path / "m.json")
    for argv in (
            _model_command("fit", "logit", clf_csv, "--method", "objective"),
            _model_command("fit", "svm", _weighted_csv(clf_csv, tmp_path),
                           "--weights-column", "w", "--weight-upper-bound",
                           "2"),
            _model_command("fit", "svm", clf_csv, "--method", "objective",
                           "--huber-h", "0.3", "--kernel", "linear"),
            _model_command("fit", "svm", clf_csv, "--kernel", "gaussian",
                           "--rff-dim", "20", "--kernel-param", "0.5"),
            _model_command("tune", "svm", clf_csv, "--method", "objective",
                           "--huber-h", "0.3")):
        code, _, err = run_cli(capsys, *argv, "--output", model_path)
        assert code == 0, (argv, err)
    # The flags that a statistic, a mechanism and budget check read.
    ledger = str(tmp_path / "led.jsonl")
    for argv in (
            _base_argv("stat", "mean", data_csv, tmp_path) + [
                "--mechanism", "gaussian", "--epsilon", "0.5", "--delta",
                "0.01", "--variant", "probabilistic", "--tag", "t"],
            _base_argv("stat", "quantile", data_csv, tmp_path) + [
                "--q", "0.25", "--neighbor", "bounded"],
            _base_argv("stat", "pooled-var", data_csv, tmp_path) + [
                "--approx-n-max", "--mechanism", "laplace"],
            _base_argv("stat", "pooled-cov", data_csv, tmp_path) + [
                "--approx-n-max"],
            _base_argv("stat", "histogram", data_csv, tmp_path) + [
                "--normalize", "--allow-negative", "--neighbor",
                "unbounded"],
            _base_argv("stat", "table", data_csv, tmp_path) + [
                "--allow-negative", "--mechanism", "laplace"],
            _base_argv("mech", "exponential", data_csv, tmp_path) + [
                "--measure", "1,2", "--sensitivity", "2"],
            _base_argv("mech", "laplace", data_csv, tmp_path) + [
                "--alloc", "0.25,0.75"],
            _base_argv("mech", "gaussian", data_csv, tmp_path) + [
                "--alloc", "0.5,0.5"],
            ["budget", "check", "--cap", "100,1"]):
        code, _, err = run_cli(capsys, *argv, "--ledger", ledger)
        assert code == 0, (argv, err)


def _sweep_cases():
    """(command, positional choice or None, command parser) for every
    command of the full parser and every choice of its positional."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        positionals = [a for a in parser._actions if not a.option_strings]
        if not positionals:
            yield name, None, parser
        for action in positionals:
            for choice in action.choices:
                yield name, choice, parser


# What every optional flag of each command is read by: flag -> (a sample
# value, the subjects that read it), where _ALL is every subject. A flag of
# the parser missing here fails test_every_flag_is_classified, so each new
# flag must be classified. The svm of _base_argv has a linear kernel, which
# reads neither --rff-dim nor --kernel-param, and no --weights-column, so it
# reads no --weight-upper-bound.
_ALL = None
_COMMON = {"--seed": ("3", _ALL), "--ledger": ("led.jsonl", _ALL),
           "--cap": ("1", _ALL), "--tag": ("t", _ALL)}
_FIT_READS = {
    "--input": ("in.csv", _ALL), "--label-column": ("label", _ALL),
    "--feature-columns": ("a,b", _ALL), "--bounds": ("-1,1;-1,1", _ALL),
    "--add-bias": (None, _ALL), "--output": ("m.json", _ALL),
    "--method": ("objective", ("logit", "svm")),
    "--huber-h": ("0.3", ("svm",)), **_COMMON}
_FLAG_READS = {
    "stat": {
        "--input": ("in.csv", _ALL), "--epsilon": ("1", _ALL),
        "--delta": ("0", _ALL), "--variant": ("approximate", _ALL),
        "--neighbor": ("bounded", _ALL),
        "--column": ("x", ("mean", "var", "sd", "pooled-var", "quantile",
                           "median", "histogram")),
        "--columns": ("x,y", ("cov", "pooled-cov", "table")),
        "--group-column": ("g", ("pooled-var", "pooled-cov")),
        "--bounds": ("5,10", ("mean", "var", "sd", "cov", "pooled-var",
                              "pooled-cov", "quantile", "median")),
        "--mechanism": ("laplace", ("mean", "var", "sd", "cov", "pooled-var",
                                    "pooled-cov", "histogram", "table")),
        "--q": ("0.5", ("quantile",)),
        "--breaks": ("5,10", ("histogram",)),
        "--normalize": (None, ("histogram",)),
        "--allow-negative": (None, ("histogram", "table")),
        "--categories": ("a,b", ("table",)),
        "--approx-n-max": (None, ("pooled-var", "pooled-cov")), **_COMMON},
    "fit": {
        **_FIT_READS, "--epsilon": ("1", _ALL), "--delta": ("0", _ALL),
        "--variant": ("approximate", _ALL), "--gamma": ("1", _ALL),
        "--weight-upper-bound": ("1", ()),
        "--kernel": ("linear", ("svm",)), "--weights-column": ("w", ("svm",)),
        "--rff-dim": ("20", ()), "--kernel-param": ("0.5", ())},
    "tune": {
        **_FIT_READS, "--gammas": ("0.1,1", _ALL),
        "--epsilon-train": ("1", _ALL), "--epsilon-select": ("1", _ALL)},
    "mech": {
        "--epsilon": ("1", _ALL), "--delta": ("0", _ALL),
        "--variant": ("approximate", _ALL),
        "--values": ("1,2", ("laplace", "gaussian")),
        "--sensitivities": ("1,1", ("laplace", "gaussian")),
        "--alloc": ("0.5,0.5", ("laplace", "gaussian")),
        "--utility": ("0,1", ("exponential",)),
        "--measure": ("1,1", ("exponential",)),
        "--sensitivity": ("1", ("exponential",)), **_COMMON},
    "predict": {"--model": ("m.json", _ALL), "--input": ("in.csv", _ALL),
                "--feature-columns": ("a,b", _ALL), "--raw": (None, _ALL)},
    "budget": {"--ledger": ("led.jsonl", _ALL),
               "--cap": ("1", ("check",))},
}


_SCALAR_NEEDS = ["--column", "x", "--bounds", "5,10"]
_PAIR_NEEDS = ["--columns", "x,y", "--bounds", "5,10;0,1"]
_NEEDS = {  # the flags a valid run of each subject needs
    "mean": _SCALAR_NEEDS, "var": _SCALAR_NEEDS, "sd": _SCALAR_NEEDS,
    "quantile": _SCALAR_NEEDS, "median": _SCALAR_NEEDS, "cov": _PAIR_NEEDS,
    "pooled-var": _SCALAR_NEEDS + ["--group-column", "g"],
    "pooled-cov": _PAIR_NEEDS + ["--group-column", "g"],
    "histogram": ["--column", "x", "--breaks", "5,7,10"],
    "table": ["--columns", "g", "--categories", "a,b"],
    "laplace": ["--values", "1,2", "--sensitivities", "1,1", "--epsilon",
                "1"],
    "gaussian": ["--values", "1,2", "--sensitivities", "1,1", "--epsilon",
                 "0.5", "--delta", "0.01"],
    "exponential": ["--utility", "0,1", "--epsilon", "1"],
    "report": [], "check": ["--cap", "1"],
}


def _base_argv(command, subject, path, tmp_path):
    """argv of a valid ``command subject`` run with only the optional flags
    the subject needs: a statistic of the x,y,g CSV, a model of the
    a,b,label CSV, a mechanism or a budget action."""
    if command in ("fit", "tune"):
        return _model_command(command, subject, path) + [
            "--output", str(tmp_path / "m.json")]
    if command == "stat":
        return ["stat", subject, "--input", path, "--epsilon", "1",
                *_NEEDS[subject]]
    if command == "budget":
        return ["budget", subject, "--ledger", str(tmp_path / "l.jsonl"),
                *_NEEDS[subject]]
    return [command, subject, *_NEEDS[subject]]


@pytest.mark.parametrize("command,subject", [
    pytest.param(c, s, id=f"{c}-{s}") for c, s, _ in _sweep_cases()
    if s is not None])
def test_each_subject_runs_with_only_the_flags_it_needs(
        capsys, data_csv, clf_csv, tmp_path, command, subject):
    path = clf_csv if command in ("fit", "tune") else data_csv
    code, _, err = run_cli(capsys, *_base_argv(command, subject, path,
                                               tmp_path))
    assert code == 0, err


def _parser_flags(parser):
    return [a.option_strings[-1] for a in parser._actions
            if a.option_strings and a.dest != "help"]


def test_every_flag_is_classified():
    for command, _, parser in _sweep_cases():
        reads = _FLAG_READS[command]
        assert sorted(_parser_flags(parser)) == sorted(reads), command
        for flag, (_, readers) in reads.items():
            choices = {c for name, c, _ in _sweep_cases() if name == command}
            assert readers is _ALL or set(readers) <= choices, (command, flag)


def _unread_cases():
    for command, subject, parser in _sweep_cases():
        for flag in _parser_flags(parser):
            readers = _FLAG_READS[command].get(flag, (None, ()))[1]
            if readers is not _ALL and subject not in readers:
                yield pytest.param(command, subject, flag,
                                   id=f"{command}-{subject}{flag}")


@pytest.mark.parametrize("command,subject,flag", _unread_cases())
def test_every_flag_a_subject_does_not_read_exits_3_uncharged(
        capsys, data_csv, clf_csv, tmp_path, command, subject, flag):
    """The flag alone turns a valid run into exit 3, before any charge."""
    base = _base_argv(command, subject,
                      clf_csv if command in ("fit", "tune") else data_csv,
                      tmp_path)
    value = _FLAG_READS[command][flag][0]
    ledger = tmp_path / "led.jsonl"
    given = [flag] if value is None else [flag, value]
    if command != "budget":
        given += ["--ledger", str(ledger)]
    code, out, err = run_cli(capsys, *base, *given)
    assert code == 3 and out == ""
    assert f"dpkit: {flag} applies to {command} " in err
    _one_line_error(err)
    assert not ledger.exists() and not (tmp_path / "l.jsonl").exists()
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("alloc", ["0.5,0.5", "7"])
def test_exponential_mechanism_refuses_alloc_uncharged(capsys, tmp_path,
                                                       alloc):
    ledger = tmp_path / "led.jsonl"
    code, out, err = run_cli(capsys, "mech", "exponential", "--utility",
                             "0,1", "--alloc", alloc, "--epsilon", "1",
                             "--ledger", str(ledger))
    assert code == 3 and out == ""
    assert "--alloc applies to mech laplace|gaussian only" in err
    _one_line_error(err)
    assert not ledger.exists()
    code, out, _ = run_cli(capsys, "mech", "laplace", "--values", "0,1",
                           "--sensitivities", "1,1", "--alloc", "0.5,0.5",
                           "--epsilon", "1", "--ledger", str(ledger))
    assert code == 0 and len(json.loads(out)["result"]["values"]) == 2


def test_mech_subcommands(capsys):
    code, out, _ = run_cli(capsys, "mech", "laplace", "--values", "1,2,3",
                           "--sensitivities", "1,1,1", "--epsilon", "1000",
                           "--seed", "0")
    assert code == 0
    vals = json.loads(out)["result"]["values"]
    assert np.allclose(vals, [1, 2, 3], atol=0.1)

    code, out, _ = run_cli(capsys, "mech", "exponential", "--utility",
                           "0,5,1", "--sensitivity", "1",
                           "--epsilon", "1000", "--seed", "0")
    assert code == 0
    assert json.loads(out)["result"]["index"] == 1

    code, out, _ = run_cli(capsys, "mech", "gaussian", "--values", "0",
                           "--sensitivities", "1", "--epsilon", "0.5",
                           "--delta", "0.01", "--seed", "0")
    assert code == 0
    assert isinstance(json.loads(out)["result"]["values"][0], float)


def test_pooled_stat_with_group_column(capsys, data_csv):
    code, out, _ = run_cli(capsys, "stat", "pooled-var", "--input", data_csv,
                           "--column", "x", "--group-column", "g",
                           "--bounds", "5,10", "--epsilon", "100",
                           "--seed", "0")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["detail"]["groups"] == 2
    assert report["result"]["value"] > 0


def test_histogram_and_table_cli(capsys, data_csv):
    code, out, _ = run_cli(capsys, "stat", "histogram", "--input", data_csv,
                           "--column", "x", "--breaks", "5,6,7,8,9,10",
                           "--epsilon", "100", "--seed", "0")
    assert code == 0
    counts = json.loads(out)["result"]["value"]
    assert len(counts) == 5
    assert sum(counts) == pytest.approx(100, abs=2)

    code, out, _ = run_cli(capsys, "stat", "table", "--input", data_csv,
                           "--columns", "g", "--categories", "a,b",
                           "--epsilon", "100", "--seed", "0")
    assert code == 0
    assert np.allclose(json.loads(out)["result"]["value"], [50, 50],
                       atol=2)


def test_fit_over_cap_writes_no_model(capsys, clf_csv, tmp_path):
    model_path = tmp_path / "m.json"
    ledger = tmp_path / "led.jsonl"
    code, out, _ = run_cli(capsys, "fit", "logit", "--input", clf_csv,
                           "--label-column", "label",
                           "--feature-columns", "a,b",
                           "--bounds=-1,1;-1,1", "--epsilon", "1",
                           "--gamma", "1", "--output", str(model_path),
                           "--ledger", str(ledger), "--cap", "0.5")
    assert code == 4 and out == ""
    assert not model_path.exists()
    assert not ledger.exists()


def test_tune_over_cap_writes_no_model(capsys, clf_csv, tmp_path):
    model_path = tmp_path / "tuned.json"
    code, _, _ = run_cli(capsys, "tune", "logit", "--input", clf_csv,
                         "--label-column", "label",
                         "--feature-columns", "a,b",
                         "--bounds=-1,1;-1,1", "--gammas", "0.1,1",
                         "--epsilon-train", "2", "--epsilon-select", "1",
                         "--output", str(model_path),
                         "--ledger", str(tmp_path / "led.jsonl"),
                         "--cap", "2.5")
    assert code == 4
    assert not model_path.exists()


def test_fit_refuses_unconverged_solver(capsys, clf_csv, tmp_path,
                                        one_solver_iteration):
    model_path = tmp_path / "m.json"
    code, out, err = run_cli(capsys, "fit", "logit", "--input", clf_csv,
                             "--label-column", "label",
                             "--feature-columns", "a,b",
                             "--bounds=-1,1;-1,1", "--epsilon", "1",
                             "--gamma", "1", "--output", str(model_path))
    assert code == 3 and out == ""
    assert "did not converge in 1 iterations" in err
    assert not model_path.exists()


def _one_line_error(err):
    assert err.startswith("dpkit: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_linreg_probabilistic_variant_exits_3_uncharged(capsys, clf_csv,
                                                        tmp_path):
    # The regression path's Gaussian calibration is proven for approximate
    # DP only; a probabilistic request is refused, not served as approximate.
    ledger, model_path = tmp_path / "led.jsonl", tmp_path / "m.json"
    code, out, err = run_cli(capsys, *_model_command(
        "fit", "linreg", clf_csv, "--delta", "1e-5", "--variant",
        "probabilistic"), "--ledger", str(ledger), "--output",
        str(model_path))
    assert code == 3 and out == ""
    assert "pure or approximate DP only" in err
    _one_line_error(err)
    assert not ledger.exists() and not model_path.exists()


@pytest.mark.parametrize("argv", [
    ("stat", "mean", "--column", "x", "--bounds", "5,10"),
    ("fit", "linreg", "--label-column", "y", "--feature-columns", "x",
     "--bounds", "5,10;0,1", "--gamma", "1"),
], ids=["stat", "fit"])
@pytest.mark.parametrize("variant", ["approximate", "probabilistic"])
def test_variant_without_delta_exits_3_uncharged(capsys, data_csv, tmp_path,
                                                 argv, variant):
    ledger, model_path = tmp_path / "led.jsonl", tmp_path / "m.json"
    output = ("--output", str(model_path)) if argv[0] == "fit" else ()
    code, out, err = run_cli(capsys, *argv, "--input", data_csv,
                             "--epsilon", "1", "--variant", variant,
                             "--seed", "1", "--ledger", str(ledger), *output)
    assert code == 3 and out == ""
    assert "--variant applies only with a positive --delta" in err
    _one_line_error(err)
    assert not ledger.exists() and not model_path.exists()


def test_linreg_fit_and_tune_never_call_the_iterative_solver(
        capsys, clf_csv, tmp_path, monkeypatch):
    import dpkit.erm

    def refuse(*args, **kwargs):
        raise AssertionError("the regression path called minimize")

    monkeypatch.setattr(dpkit.erm, "minimize", refuse)
    for command in ("fit", "tune"):
        code, out, err = run_cli(capsys, *_model_command(
            command, "linreg", clf_csv), "--output",
            str(tmp_path / f"{command}.json"))
        assert code == 0 and err == ""
        assert json.loads(out)["command"] == f"{command} linreg"


@pytest.mark.parametrize("model,column,message", [
    ("linreg", "a", "column 'a' contains non-numeric values"),
    ("linreg", "label", "column 'label' contains non-numeric values"),
    ("svm", "w", "column 'w' contains non-numeric values")],
    ids=["feature", "target", "weight"])
def test_nan_cell_exits_3_uncharged(capsys, tmp_path, model, column,
                                    message):
    rng = np.random.default_rng(3)
    rows = [[f"{u:.4f}", f"{v:.4f}", str(int(u + v > 0)),
             f"{rng.uniform(0, 1):.3f}"] for u, v in rng.uniform(-1, 1,
                                                                (60, 2))]
    rows[7]["a,b,label,w".split(",").index(column)] = "nan"
    path = tmp_path / "nan.csv"
    path.write_text("a,b,label,w\n" + "\n".join(map(",".join, rows)) + "\n")
    flags = ["--weights-column", "w"] if model == "svm" else []
    ledger, model_path = tmp_path / "led.jsonl", tmp_path / "m.json"
    code, out, err = run_cli(capsys, *_model_command(
        "fit", model, path, *flags), "--ledger", str(ledger),
        "--output", str(model_path))
    assert code == 3 and out == ""
    assert message in err
    _one_line_error(err)
    assert "nan" not in err.lower()
    assert not ledger.exists() and not model_path.exists()


@pytest.mark.parametrize("command", ["stat", "fit", "tune", "mech"])
def test_cap_without_ledger_exits_3_uncharged(capsys, data_csv, clf_csv,
                                              tmp_path, command):
    model_path = tmp_path / "m.json"
    argv = {
        "stat": ["stat", "mean", "--input", data_csv, "--column", "x",
                 "--bounds", "5,10", "--epsilon", "5"],
        "fit": _model_command("fit", "logit", clf_csv),
        "tune": _model_command("tune", "logit", clf_csv),
        "mech": ["mech", "laplace", "--values", "1,2,3",
                 "--sensitivities", "1,1,1", "--epsilon", "5"],
    }[command]
    if command in ("fit", "tune"):
        argv += ["--output", str(model_path)]
    code, out, err = run_cli(capsys, *argv, "--cap", "1")
    assert code == 3 and out == ""
    assert "--cap needs --ledger" in err
    _one_line_error(err)
    assert not model_path.exists()


@pytest.mark.parametrize("command,subject", [
    ("stat", "mean"), ("fit", "logit"), ("tune", "linreg"),
    ("mech", "exponential")])
def test_tag_without_ledger_exits_3_uncharged(capsys, data_csv, clf_csv,
                                              tmp_path, command, subject):
    # A tag names a ledger partition; without a ledger it would be dropped.
    path = clf_csv if command in ("fit", "tune") else data_csv
    code, out, err = run_cli(capsys, *_base_argv(command, subject, path,
                                                 tmp_path), "--tag", "t")
    assert code == 3 and out == ""
    assert "--tag needs --ledger" in err
    _one_line_error(err)
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("statistic", ["cov", "pooled-cov"])
@pytest.mark.parametrize("names", ["x", "x,y,x"])
def test_two_column_statistic_needs_two_column_names(capsys, data_csv,
                                                     tmp_path, statistic,
                                                     names):
    ledger = tmp_path / "led.jsonl"
    group = ["--group-column", "g"] if statistic == "pooled-cov" else []
    code, out, err = run_cli(capsys, "stat", statistic, "--input", data_csv,
                             "--columns", names, "--bounds", "5,10;0,1",
                             "--epsilon", "1", "--ledger", str(ledger),
                             *group)
    assert code == 3 and out == ""
    assert "--columns needs two column names" in err
    _one_line_error(err)
    assert not ledger.exists()


@pytest.mark.parametrize("statistic", ["quantile", "median"])
def test_quantile_with_delta_names_its_own_rule(capsys, data_csv, tmp_path,
                                                statistic):
    # A quantile reads no --mechanism, so no Laplace rule may refuse it.
    ledger = tmp_path / "led.jsonl"
    code, out, err = run_cli(capsys, *_base_argv("stat", statistic, data_csv,
                                                 tmp_path),
                             "--delta", "0.01", "--ledger", str(ledger))
    assert code == 3 and out == ""
    assert "quantile release requires a pure budget" in err
    _one_line_error(err)
    assert not ledger.exists()


def test_infinite_epsilon_exits_3_uncharged(capsys, tmp_path):
    # Once charged, an infinite epsilon would make every later total pass
    # any cap; the report of the release could not be printed either.
    ledger = tmp_path / "led.jsonl"
    argv = ["mech", "laplace", "--values", "1,2,3", "--sensitivities",
            "1,1,1", "--ledger", str(ledger), "--cap", "1", "--seed", "1"]
    code, out, err = run_cli(capsys, *argv, "--epsilon", "inf")
    assert code == 3 and out == ""
    assert err == "dpkit: epsilon must be finite and positive\n"
    _one_line_error(err)
    assert not ledger.exists()
    assert run_cli(capsys, *argv, "--epsilon", "5")[0] == 4


def test_charge_past_the_largest_float_exits_3_uncharged(capsys, tmp_path):
    ledger = tmp_path / "led.jsonl"
    argv = ["mech", "laplace", "--values", "1", "--sensitivities", "1",
            "--epsilon", "1e308", "--ledger", str(ledger), "--seed", "1"]
    assert run_cli(capsys, *argv)[0] == 0
    one = ledger.read_bytes()
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    _one_line_error(err)
    assert ledger.read_bytes() == one
    report = ["budget", "report", "--ledger", str(ledger)]
    code, out, _ = run_cli(capsys, *report)
    assert code == 0
    assert json.loads(out)["result"]["sequential"]["epsilon"] == 1e308
    ledger.write_bytes(one * 2)  # written past the float range by hand
    code, out, err = run_cli(capsys, *report)
    assert code == 3 and out == ""
    assert err == (f"dpkit: ledger {ledger} holds a total past the largest "
                   "float\n")


def test_missing_files_exit_3(capsys, clf_csv, tmp_path):
    missing = str(tmp_path / "missing.csv")
    code, out, err = run_cli(capsys, "stat", "mean", "--input", missing,
                             "--column", "x", "--bounds", "5,10",
                             "--epsilon", "1")
    assert code == 3 and out == ""
    _one_line_error(err)
    code, out, err = run_cli(capsys, "predict", "--model",
                             str(tmp_path / "missing.json"),
                             "--input", clf_csv, "--feature-columns", "a,b")
    assert code == 3 and out == ""
    _one_line_error(err)


def test_missing_bounds_flag_exits_3(capsys, data_csv):
    code, out, err = run_cli(capsys, "stat", "mean", "--input", data_csv,
                             "--column", "x", "--epsilon", "1")
    assert code == 3 and out == ""
    assert "--bounds" in err
    _one_line_error(err)


def test_fit_without_bounds_exits_3_uncharged_and_unwritten(capsys, clf_csv,
                                                            tmp_path):
    ledger, model_path = tmp_path / "led.jsonl", tmp_path / "m.json"
    argv = [arg for arg in _model_command("fit", "logit", clf_csv)
            if not arg.startswith("--bounds")]
    code, out, err = run_cli(capsys, *argv, "--ledger", str(ledger),
                             "--output", str(model_path))
    assert code == 3 and out == ""
    assert err == "dpkit: --bounds is required\n"
    assert not ledger.exists() and not model_path.exists()


@pytest.mark.parametrize("command", ["stat", "fit"])
def test_text_cell_exits_3_naming_the_column_only(capsys, tmp_path, command):
    rng = np.random.default_rng(4)
    rows = [f"{u:.4f},{v:.4f},{int(u + v > 0)}"
            for u, v in rng.uniform(-1, 1, (40, 2))]
    rows[11] = "0.1,SECRET-cell,1"
    path = tmp_path / "text.csv"
    path.write_text("a,b,label\n" + "\n".join(rows) + "\n")
    ledger, model_path = tmp_path / "led.jsonl", tmp_path / "m.json"
    argv = (["stat", "mean", "--input", str(path), "--column", "b",
             "--bounds=-1,1", "--epsilon", "1"] if command == "stat"
            else _model_command("fit", "logit", path)
            + ["--output", str(model_path)])
    code, out, err = run_cli(capsys, *argv, "--ledger", str(ledger))
    assert code == 3 and out == ""
    assert err == "dpkit: column 'b' contains non-numeric values\n"
    assert not ledger.exists() and not model_path.exists()


@pytest.mark.parametrize("mechanism,flags", [
    ("laplace", []), ("gaussian", ["--delta", "0.01"])])
def test_alloc_of_the_wrong_length_exits_3_uncharged(capsys, tmp_path,
                                                     mechanism, flags):
    ledger = tmp_path / "led.jsonl"
    code, out, err = run_cli(capsys, "mech", mechanism, "--values", "1,2,3",
                             "--sensitivities", "1,1,1", "--alloc",
                             "0.5,0.5", "--epsilon", "0.5", *flags,
                             "--seed", "1", "--ledger", str(ledger))
    assert code == 3 and out == ""
    assert err == "dpkit: allocation length does not match values\n"
    assert not ledger.exists()


def test_refusal_message_reports_no_negative_remainder(capsys, tmp_path):
    ledger = str(tmp_path / "led.jsonl")
    charge = ("mech", "laplace", "--values", "1", "--sensitivities", "1",
              "--ledger", ledger, "--cap", "0.3", "--epsilon")
    for _ in range(3):
        code, _, _ = run_cli(capsys, *charge, "0.1")
        assert code == 0
    code, out, err = run_cli(capsys, *charge, "0.01")
    assert code == 4 and out == ""
    assert "remaining epsilon=0," in err


@pytest.mark.parametrize("statistic,flags", [
    ("mean", ["--column", "x", "--bounds", "5,10"]),
    ("pooled-var", ["--column", "x", "--group-column", "g",
                    "--bounds", "5,10"]),
    ("median", ["--column", "x", "--bounds", "5,10"]),
    ("quantile", ["--column", "x", "--bounds", "5,10", "--q", "0.25"]),
])
def test_unbounded_scalar_statistic_exits_3_uncharged(capsys, data_csv,
                                                      tmp_path, statistic,
                                                      flags):
    # Under add/remove neighbors a scalar's sensitivity scales with the
    # private n, so only counts take --neighbor unbounded.
    ledger = tmp_path / "led.jsonl"
    code, out, err = run_cli(capsys, "stat", statistic, "--input", data_csv,
                             "--epsilon", "1", "--neighbor", "unbounded",
                             "--ledger", str(ledger), *flags)
    assert code == 3 and out == ""
    assert "bounded neighbors only" in err
    _one_line_error(err)
    assert not ledger.exists()


def test_histogram_bin_count_breaks_exit_3(capsys, data_csv):
    # Edges from a bin count would be the data's own min and max.
    code, out, err = run_cli(capsys, "stat", "histogram", "--input", data_csv,
                             "--column", "x", "--breaks", "3",
                             "--epsilon", "1")
    assert code == 3 and out == ""
    assert "ascending edges" in err
    _one_line_error(err)


# Two CSVs one modified row apart (x 7.0 -> 6.0, y, and the table column h
# change; the group column g stays, so group sizes are the same).
_AUDIT_ROWS = ("x,y,g,h\n5.123,1,a,u\n{}\n8.5,3,b,u\n9.876,4,b,v\n",
               ("7.0,2,a,v", "6.0,3,a,u"))
_AUDIT_FLAGS = {
    "mean": ["--column", "x", "--bounds", "0,20"],
    "var": ["--column", "x", "--bounds", "0,20"],
    "sd": ["--column", "x", "--bounds", "0,20"],
    "cov": ["--columns", "x,y", "--bounds", "0,20;0,5"],
    "pooled-var": ["--column", "x", "--group-column", "g",
                   "--bounds", "0,20"],
    "pooled-cov": ["--columns", "x,y", "--group-column", "g",
                   "--bounds", "0,20;0,5"],
    "quantile": ["--column", "x", "--bounds", "0,20", "--q", "0.25"],
    "median": ["--column", "x", "--bounds", "0,20"],
    "histogram": ["--column", "x", "--breaks", "0,5,10,15,20"],
    "table": ["--columns", "h", "--categories", "u,v"],
}


@pytest.mark.parametrize("statistic", sorted(_AUDIT_FLAGS))
def test_report_differs_only_in_value_on_neighbors(capsys, tmp_path,
                                                   statistic):
    """Report audit: with one seed, the public reports on neighboring CSVs
    may differ in result.value alone. Anything else (an edge, a rank, a
    count) would be printed without noise."""
    template, rows = _AUDIT_ROWS
    paths = []
    for i, row in enumerate(rows):
        paths.append(tmp_path / f"d{i}.csv")
        paths[-1].write_text(template.format(row))
    for seed in range(4):
        reports = []
        for path in paths:
            code, out, _ = run_cli(capsys, "stat", statistic, "--input",
                                   str(path), "--epsilon", "1", "--seed",
                                   str(seed), *_AUDIT_FLAGS[statistic])
            assert code == 0
            report = _strict_json(out)
            del report["result"]["value"]
            reports.append(report)
        assert reports[0] == reports[1], (statistic, seed)


def _strict_json(text):
    """``json.loads`` that refuses NaN and the infinities."""
    def refuse(constant):
        raise AssertionError(f"{constant} in a report")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("statistic", sorted(_AUDIT_FLAGS))
def test_out_of_domain_cell_exits_3_uncharged(capsys, tmp_path, statistic):
    """A NaN cell, or a label outside the declared categories, refuses the
    release before any charge; stderr names the column, never the cell."""
    template, rows = _AUDIT_ROWS
    column, sentinel = (("h", "SECRET_NAME") if statistic == "table"
                        else ("x", "nan"))
    row = rows[0].split(",")
    row["xygh".index(column)] = sentinel
    path, ledger = tmp_path / "d.csv", tmp_path / "led.jsonl"
    path.write_text(template.format(",".join(row)))
    code, out, err = run_cli(capsys, "stat", statistic, "--input", str(path),
                             "--epsilon", "1", "--seed", "1", "--ledger",
                             str(ledger), *_AUDIT_FLAGS[statistic])
    assert code == 3 and out == ""
    assert f"column {column!r}" in err
    _one_line_error(err)
    assert sentinel.lower() not in err.lower()
    assert not ledger.exists()


# Sentinels planted in one cell of an a,b,label CSV: (column, cell, text
# that must not reach stderr). The invalid byte and the oversize field stop
# the parser; the text label and NaN are refused by column name.
_SENTINELS = {
    "text-label": ("label", b"SECRET-label", "secret"),
    "nan": ("a", b"NaN", "nan"),
    "not-utf-8": ("label", b"\xff\xfe7", "xff"),
    "oversize-field": ("b", b"7" * 131_073, "7" * 8),
}


@pytest.mark.parametrize("sentinel", sorted(_SENTINELS))
@pytest.mark.parametrize("command,model", [
    ("fit", "logit"), ("fit", "svm"), ("fit", "linreg"), ("tune", "logit"),
    ("tune", "svm"), ("tune", "linreg"), ("predict", None)],
    ids=["fit-logit", "fit-svm", "fit-linreg", "tune-logit", "tune-svm",
         "tune-linreg", "predict"])
def test_a_sentinel_cell_exits_3_unwritten(capsys, tmp_path, command, model,
                                           sentinel):
    """Model audit: a planted cell refuses the run before any charge or
    write, with one stderr line that quotes no part of the cell. predict
    reads no label, so its sentinel goes in a feature."""
    column, cell, hidden = _SENTINELS[sentinel]
    if command == "predict" and column == "label":
        column = "a"
    rng = np.random.default_rng(4)
    rows = [f"{u:.4f},{v:.4f},{int(u + v > 0)}".encode()
            for u, v in rng.uniform(-1, 1, (40, 2))]
    clean, path = tmp_path / "clean.csv", tmp_path / "d.csv"
    clean.write_bytes(b"a,b,label\n" + b"\n".join(rows) + b"\n")
    fields = rows[11].split(b",")
    fields[("a", "b", "label").index(column)] = cell
    rows[11] = b",".join(fields)
    path.write_bytes(b"a,b,label\n" + b"\n".join(rows) + b"\n")
    if command == "predict":
        model_path = tmp_path / "model.json"
        assert run_cli(capsys, *_model_command("fit", "logit", clean),
                       "--output", str(model_path))[0] == 0
        argv = ["predict", "--model", str(model_path), "--input", str(path),
                "--feature-columns", "a,b"]
    else:
        argv = _model_command(command, model, path) + [
            "--output", str(tmp_path / "m.json"), "--ledger",
            str(tmp_path / "led.jsonl")]
    before = sorted(tmp_path.iterdir())
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the run
        code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    _one_line_error(err)
    assert hidden not in err.lower()
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("statistic", ["var", "sd", "pooled-var", "tune"])
def test_a_squared_width_past_the_float_range_exits_3_uncharged(
        capsys, data_csv, clf_csv, tmp_path, statistic):
    # The sensitivity squares the bounds' width, which overflows a float
    # here although the width itself does not.
    ledger, model_path = tmp_path / "led.jsonl", tmp_path / "m.json"
    if statistic == "tune":
        argv = _model_command("tune", "linreg", clf_csv)
        argv[argv.index("--bounds=-1,1;-1,1;0,1")] = (
            "--bounds=-1,1;-1,1;-1e200,1e200")
        argv += ["--output", str(model_path)]
    else:
        argv = ["stat", statistic, "--input", data_csv, "--column", "x",
                "--bounds=-1e200,1e200", "--epsilon", "1"]
        if statistic == "pooled-var":
            argv += ["--group-column", "g"]
    code, out, err = run_cli(capsys, *argv, "--ledger", str(ledger))
    assert (code, out, err) == (
        3, "", "dpkit: bounds too wide: the square of their width "
        "overflows\n")
    assert not ledger.exists() and not model_path.exists()


@pytest.mark.parametrize("command", ["fit", "quantile"])
def test_an_infinite_bound_exits_3_uncharged(capsys, data_csv, clf_csv,
                                             tmp_path, command):
    # A fit would divide its column by an infinite width and release a
    # coefficient of 0 for it.
    ledger, model_path = tmp_path / "led.jsonl", tmp_path / "m.json"
    if command == "fit":
        argv = [arg if arg != "--bounds=-1,1;-1,1" else "--bounds=-inf,1;-1,1"
                for arg in _model_command("fit", "logit", clf_csv)]
        argv += ["--output", str(model_path)]
    else:
        argv = ["stat", "quantile", "--input", data_csv, "--column", "x",
                "--bounds=-inf,10", "--q", "0.5", "--epsilon", "1"]
    code, out, err = run_cli(capsys, *argv, "--ledger", str(ledger))
    assert (code, out, err) == (3, "", "dpkit: bounds must be finite\n")
    assert not ledger.exists() and not model_path.exists()


@pytest.mark.parametrize("beta", ["inf", "1e308", "nan"])
def test_a_non_finite_kernel_parameter_exits_3_unwritten(capsys, clf_csv,
                                                         tmp_path, beta):
    # sqrt(2 beta), the scale of the random frequencies, is not finite.
    ledger, model_path = tmp_path / "led.jsonl", tmp_path / "m.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the run
        code, out, err = run_cli(capsys, *_model_command(
            "fit", "svm", clf_csv, "--kernel", "gaussian", "--rff-dim", "20",
            "--kernel-param", beta), "--output", str(model_path),
            "--ledger", str(ledger))
    assert (code, out, err) == (
        3, "", "dpkit: kernel parameter must be finite and positive\n")
    assert not ledger.exists() and not model_path.exists()


def test_gaussian_svm_refuses_bounds_uncharged(capsys, clf_csv, tmp_path):
    ledger, model_path = tmp_path / "led.jsonl", tmp_path / "m.json"
    code, out, err = run_cli(capsys, "fit", "svm", "--input", clf_csv,
                             "--label-column", "label",
                             "--feature-columns", "a,b",
                             "--bounds=-1,1;-1,1", "--epsilon", "4",
                             "--gamma", "0.5", "--kernel", "gaussian",
                             "--rff-dim", "20", "--seed", "3",
                             "--ledger", str(ledger),
                             "--output", str(model_path))
    assert code == 3 and out == ""
    assert "the gaussian kernel reads no column bounds" in err
    _one_line_error(err)
    assert not ledger.exists() and not model_path.exists()


def test_non_finite_report_exits_3(capsys, tmp_path):
    # An infinite input value stays infinite under any noise. The report is
    # refused before the charge, so the ledger is never created.
    ledger = tmp_path / "led.jsonl"
    code, out, err = run_cli(capsys, "mech", "laplace", "--values", "1,inf",
                             "--sensitivities", "1,1", "--epsilon", "1",
                             "--seed", "1", "--ledger", str(ledger))
    assert code == 3 and out == ""
    assert "not JSON compliant" in err
    _one_line_error(err)
    assert not ledger.exists()


def test_non_finite_model_exits_3_uncharged_and_unwritten(capsys, clf_csv,
                                                          tmp_path):
    # Noise of scale 2 / (gamma * eps) past the float range: the fitted
    # coefficients are infinite, so neither the charge nor the model write
    # may happen.
    ledger, model_path = tmp_path / "led.jsonl", tmp_path / "m.json"
    code, out, err = run_cli(capsys, "fit", "logit", "--input", clf_csv,
                             "--label-column", "label", "--feature-columns",
                             "a,b", "--bounds=-1,1;-1,1", "--epsilon",
                             "1e-10", "--gamma", "1e-300", "--seed", "3",
                             "--ledger", str(ledger), "--output",
                             str(model_path))
    assert code == 3 and out == ""
    assert "not JSON compliant" in err
    _one_line_error(err)
    assert not ledger.exists() and not model_path.exists()


_INFINITE_EPSILON = [
    ["mech", "exponential", "--utility", "0,1", "--epsilon", "inf"],
    ["stat", "mean", "--column", "x", "--bounds", "5,10", "--epsilon", "inf"],
    ["stat", "histogram", "--column", "x", "--breaks", "5,7,10",
     "--epsilon", "inf"],
    ["fit", "logit", "--epsilon", "inf", "--gamma", "1"],
    ["fit", "linreg", "--epsilon", "inf", "--gamma", "1"],
    ["tune", "logit", "--epsilon-train", "inf", "--epsilon-select", "1"],
    ["tune", "svm", "--epsilon-train", "1", "--epsilon-select", "inf"],
]


@pytest.mark.parametrize("argv", _INFINITE_EPSILON, ids=[
    "mech-exponential", "stat-mean", "stat-histogram", "fit-logit",
    "fit-linreg", "tune-train", "tune-select"])
def test_infinite_epsilon_of_every_command_exits_3_unwritten(
        capsys, data_csv, clf_csv, tmp_path, argv):
    # At an infinite epsilon the noise is zero: the release would be the
    # exact statistic or the noise-free minimizer.
    ledger, model_path = tmp_path / "led.jsonl", tmp_path / "m.json"
    command, subject = argv[:2]
    if command in ("fit", "tune"):
        bounds = "-1,1;-1,1" + (";0,1" if subject == "linreg" else "")
        argv = argv + ["--input", clf_csv, "--label-column", "label",
                       "--feature-columns", "a,b", f"--bounds={bounds}",
                       "--output", str(model_path)]
        if command == "tune":
            argv += ["--gammas", "0.1,1"]
    elif command == "stat":
        argv = argv + ["--input", data_csv]
    code, out, err = run_cli(capsys, *argv, "--seed", "3", "--ledger",
                             str(ledger))
    assert (code, out, err) == (
        3, "", "dpkit: epsilon must be finite and positive\n")
    assert not ledger.exists() and not model_path.exists()


def test_tune_budget_past_the_largest_float_exits_3_unwritten(
        capsys, tmp_path):
    # Each epsilon is finite but their sum, the charge, is not. The input
    # does not exist: the refusal comes before the CSV is read.
    ledger, model_path = tmp_path / "led.jsonl", tmp_path / "m.json"
    code, out, err = run_cli(
        capsys, "tune", "logit", "--epsilon-train", "1e308",
        "--epsilon-select", "1e308", "--input", str(tmp_path / "none.csv"),
        "--label-column", "label", "--feature-columns", "a,b",
        "--bounds=-1,1;-1,1", "--gammas", "0.1,1", "--output",
        str(model_path), "--seed", "3", "--ledger", str(ledger))
    assert (code, out, err) == (
        3, "", "dpkit: --epsilon-train plus --epsilon-select must be "
        "finite\n")
    assert not ledger.exists() and not model_path.exists()


@pytest.mark.parametrize("bounds", ["a,10", "5,ten", "5,"],
                         ids=["lower", "upper", "empty"])
def test_non_numeric_bounds_exit_3_uncharged(capsys, data_csv, tmp_path,
                                             bounds):
    ledger = tmp_path / "led.jsonl"
    code, out, err = run_cli(capsys, "stat", "mean", "--input", data_csv,
                             "--column", "x", "--bounds", bounds,
                             "--epsilon", "1", "--ledger", str(ledger))
    assert (code, out) == (3, "")
    assert err == f"dpkit: bounds must be numeric, got {bounds!r}\n"
    assert not ledger.exists()


@pytest.mark.parametrize("command", ["stat", "fit"])
def test_empty_csv_exits_3_uncharged(capsys, tmp_path, command):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    ledger, model_path = tmp_path / "led.jsonl", tmp_path / "m.json"
    if command == "stat":
        argv = ["stat", "mean", "--input", str(empty), "--column", "x",
                "--bounds", "5,10", "--epsilon", "1"]
    else:
        argv = _model_command("fit", "logit", empty) + [
            "--output", str(model_path)]
    code, out, err = run_cli(capsys, *argv, "--ledger", str(ledger))
    assert (code, out) == (3, "")
    assert err == "dpkit: input CSV is empty; a header row is required\n"
    assert not ledger.exists() and not model_path.exists()


@pytest.mark.parametrize("statistic,flags,missing", [
    ("cov", ["--bounds", "5,10;0,1"], "--columns"),
    ("pooled-cov", ["--bounds", "5,10;0,1", "--group-column", "g"],
     "--columns"),
    ("pooled-cov", ["--bounds", "5,10;0,1", "--columns", "x,y"],
     "--group-column"),
    ("pooled-var", ["--bounds", "5,10", "--column", "x"], "--group-column"),
    ("table", ["--categories", "a,b"], "--columns"),
    ("table", ["--columns", "g"], "--categories"),
    ("histogram", ["--column", "x"], "--breaks"),
])
def test_missing_stat_flags_exit_3(capsys, data_csv, statistic, flags,
                                   missing):
    code, out, err = run_cli(capsys, "stat", statistic, "--input", data_csv,
                             "--epsilon", "1", *flags)
    assert code == 3 and out == ""
    assert f"{missing} is required" in err
    _one_line_error(err)


@pytest.mark.parametrize("mechanism,flags,missing", [
    ("laplace", ["--sensitivities", "1"], "--values"),
    ("gaussian", ["--values", "1", "--delta", "0.1"], "--sensitivities"),
    ("exponential", [], "--utility"),
])
def test_missing_mech_flags_exit_3(capsys, mechanism, flags, missing):
    code, out, err = run_cli(capsys, "mech", mechanism, "--epsilon", "0.5",
                             *flags)
    assert code == 3 and out == ""
    assert f"{missing} is required" in err
    _one_line_error(err)


@pytest.mark.parametrize("command,choice,parser", [
    pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in _sweep_cases()
])
def test_required_flags_alone_exit_with_a_documented_code(
        capsys, data_csv, tmp_path, command, choice, parser):
    """Only the flags argparse requires: whatever else is missing, the run
    ends with a documented exit code and at most a one-line error."""
    values = {"--input": data_csv, "--output": str(tmp_path / "m.json"),
              "--model": str(tmp_path / "m.json"),
              "--ledger": str(tmp_path / "l.jsonl")}
    argv = [command] + ([choice] if choice else [])
    for action in parser._actions:
        if action.option_strings and action.required:
            flag = action.option_strings[-1]
            argv += [flag, values.get(flag, "1")]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), argv
    if code == 0:
        assert err == ""
    elif code != 2:
        _one_line_error(err)


@pytest.mark.parametrize("cap", ["", "1,0.1,2", "one", "nan", "1,nan",
                                 "-1"])
def test_malformed_cap_exits_3_uncharged(capsys, data_csv, tmp_path, cap):
    ledger = tmp_path / "led.jsonl"
    code, out, err = run_cli(capsys, "stat", "mean", "--input", data_csv,
                             "--column", "x", "--bounds", "5,10",
                             "--epsilon", "1", "--ledger", str(ledger),
                             "--cap", cap)
    assert code == 3 and out == ""
    _one_line_error(err)
    assert not ledger.exists()
    code, out, err = run_cli(capsys, "budget", "check", "--ledger",
                             str(ledger), "--cap", cap)
    assert code == 3 and out == ""
    _one_line_error(err)


# A valid run of each flag that takes a list of numbers, the list left out.
_NUMBER_LISTS = {
    "--breaks": ["stat", "histogram", "--column", "x", "--epsilon", "1"],
    "--values": ["mech", "laplace", "--sensitivities", "1,1,1",
                 "--epsilon", "1"],
    "--sensitivities": ["mech", "gaussian", "--values", "1,2,3",
                        "--epsilon", "0.5", "--delta", "0.01"],
    "--alloc": ["mech", "laplace", "--values", "1,2,3", "--sensitivities",
                "1,1,1", "--epsilon", "1"],
    "--utility": ["mech", "exponential", "--epsilon", "1"],
    "--measure": ["mech", "exponential", "--utility", "0,1,2",
                  "--epsilon", "1"],
    "--cap": ["mech", "laplace", "--values", "1,2,3", "--sensitivities",
              "1,1,1", "--epsilon", "1"],
    "--gammas": ["tune", "svm", "--label-column", "label",
                 "--feature-columns", "a,b", "--bounds=-1,1;-1,1",
                 "--epsilon-train", "1", "--epsilon-select", "1"],
}


@pytest.mark.parametrize("text", ["0,x", "1,,2"])
@pytest.mark.parametrize("flag", _NUMBER_LISTS)
def test_a_number_list_that_is_not_numbers_exits_3_uncharged(
        capsys, data_csv, clf_csv, tmp_path, flag, text):
    ledger, model = tmp_path / "led.jsonl", tmp_path / "m.json"
    argv = _NUMBER_LISTS[flag] + [flag, text, "--ledger", str(ledger)]
    if argv[0] == "stat":
        argv += ["--input", data_csv]
    elif argv[0] == "tune":
        argv += ["--input", clf_csv, "--output", str(model)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"dpkit: expected comma-separated numbers, got {text!r}\n"
    assert not ledger.exists() and not model.exists()


def test_tune_refuses_its_gamma_grid_before_reading_the_csv(capsys,
                                                            tmp_path):
    code, _, err = run_cli(
        capsys, *_NUMBER_LISTS["--gammas"], "--gammas", "1,x", "--input",
        str(tmp_path / "missing.csv"), "--output", str(tmp_path / "m.json"))
    assert code == 3
    assert err == "dpkit: expected comma-separated numbers, got '1,x'\n"


@pytest.mark.parametrize("model", ["logit", "svm"])
def test_classifier_fit_refuses_delta_uncharged(capsys, clf_csv, tmp_path,
                                                model):
    # Output and objective perturbation of a classifier are pure DP only.
    ledger, model_path = tmp_path / "led.jsonl", tmp_path / "m.json"
    code, out, err = run_cli(capsys, "fit", model, "--input", clf_csv,
                             "--label-column", "label",
                             "--feature-columns", "a,b",
                             "--bounds=-1,1;-1,1", "--epsilon", "1",
                             "--delta", "0.01", "--gamma", "1",
                             "--ledger", str(ledger),
                             "--output", str(model_path))
    assert code == 3 and out == ""
    assert "pure DP only" in err
    _one_line_error(err)
    assert not ledger.exists() and not model_path.exists()


def test_weight_bound_scales_the_noise_of_unit_weights(capsys, clf_csv,
                                                      tmp_path):
    # Weights of all 1 under --weight-upper-bound 2 draw Gamma-radial noise
    # of scale 2 * 2 / (gamma * eps), as any weights under that bound do.
    from dpkit import Bounds, ErmConfig, PrivacyBudget, RandomSource
    from dpkit.erm import sample_sphere_gamma
    from dpkit.models import fit_svm

    code, out, err = run_cli(capsys, *_model_command(
        "fit", "svm", _weighted_csv(clf_csv, tmp_path), "--weights-column",
        "w", "--weight-upper-bound", "2"), "--seed", "5",
        "--output", str(tmp_path / "m.json"))
    assert code == 0, err
    rows = np.loadtxt(clf_csv, delimiter=",", skiprows=1)
    base = fit_svm(rows[:, :2], rows[:, 2], [Bounds(-1.0, 1.0)] * 2,
                   ErmConfig(PrivacyBudget(1e8), 1.0))
    noise = sample_sphere_gamma(2, 2.0 * 2.0 / (1.0 * 1.0), RandomSource(5))
    want = base.coefficients + base.scaler.unscale_coefficients(noise)
    got = json.loads(out)["result"]["coefficients"]
    assert np.allclose(got, want, rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("model,flag", [
    ("logit", "--weight-upper-bound"), ("svm", "--weight-upper-bound"),
    ("logit", "--gamma"), ("svm", "--gamma"), ("linreg", "--gamma")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_fit_refuses_non_finite_gamma_and_weight_bound_uncharged(
        capsys, clf_csv, tmp_path, model, flag, value):
    # A NaN or infinite constant was charged and then fitted a NaN model,
    # or divided by zero; it is refused before anything is spent. Only a
    # weighted svm reads the weight bound; logit refuses the flag itself.
    path, flags = clf_csv, [flag, value]
    message = f"{flag[2:].replace('-', '_')} must be finite and positive"
    if flag == "--weight-upper-bound" and model == "svm":
        path = _weighted_csv(clf_csv, tmp_path, "0.5")
        flags += ["--weights-column", "w"]
    elif flag == "--weight-upper-bound":
        message = "--weight-upper-bound applies to fit svm only"
    ledger, model_path = tmp_path / "led.jsonl", tmp_path / "m.json"
    code, out, err = run_cli(capsys, *_model_command(
        "fit", model, path, *flags), "--ledger", str(ledger),
        "--output", str(model_path))
    assert code == 3 and out == ""
    assert message in err
    _one_line_error(err)
    assert not ledger.exists() and not model_path.exists()


@pytest.mark.parametrize("statistic,extra", [
    ("cov", []), ("pooled-cov", ["--group-column", "g"])])
def test_two_column_statistic_needs_two_bounds_pairs(capsys, data_csv,
                                                     statistic, extra):
    code, out, err = run_cli(capsys, "stat", statistic, "--input", data_csv,
                             "--columns", "x,y", "--bounds", "5,10",
                             "--epsilon", "1", *extra)
    assert code == 3 and out == ""
    assert "--bounds needs 2 'lower,upper' pair(s)" in err
    _one_line_error(err)


@pytest.mark.parametrize("text", ["{}", '{"kind": "logistic"}', "[]",
                                  "not json"])
def test_malformed_model_file_exits_3(capsys, clf_csv, tmp_path, text):
    path = tmp_path / "m.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "predict", "--model", str(path),
                             "--input", clf_csv, "--feature-columns", "a,b")
    assert code == 3 and out == ""
    _one_line_error(err)


def test_cli_charge_appends_to_saved_ledger(capsys, tmp_path):
    charged, saved = tmp_path / "led.jsonl", tmp_path / "saved.jsonl"
    ledger = BudgetLedger()
    ledger.record("stat mean", 0.5, 0.01, partition_tag="east")
    ledger.record("fit logit", 1.0)
    ledger.save(charged)
    code, _, _ = run_cli(capsys, "mech", "gaussian", "--values", "0",
                         "--sensitivities", "1", "--epsilon", "0.5",
                         "--delta", "0.01", "--ledger", str(charged),
                         "--tag", "west")
    assert code == 0
    ledger.record("mech gaussian", 0.5, 0.01, partition_tag="west")
    ledger.save(saved)
    assert charged.read_text() == saved.read_text()


def test_refused_cli_charge_leaves_ledger_unchanged(capsys, data_csv,
                                                    tmp_path):
    ledger = tmp_path / "led.jsonl"
    argv = ("stat", "mean", "--input", data_csv, "--column", "x",
            "--bounds", "5,10", "--ledger", str(ledger), "--cap", "1,0",
            "--epsilon")
    code, _, _ = run_cli(capsys, *argv, "0.75")
    assert code == 0
    before = ledger.read_bytes()
    code, out, _ = run_cli(capsys, *argv, "0.5")
    assert code == 4 and out == ""
    assert ledger.read_bytes() == before


def _cli_charges(barrier, ledger, count, accepted):
    argv = ["mech", "laplace", "--values", "1", "--sensitivities", "1",
            "--epsilon", "0.01", "--ledger", ledger, "--cap", "0.3"]
    barrier.wait()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        codes = [main(argv) for _ in range(count)]
    assert set(codes) <= {0, 4}
    with accepted.get_lock():
        accepted.value += codes.count(0)


def test_concurrent_cli_writers(tmp_path):
    ledger = str(tmp_path / "led.jsonl")
    # Two writers of 20 charges each against a cap that admits 30.
    accepted = SPAWN.Value("i", 0)
    run_together(_cli_charges, (ledger, 20, accepted), 2)
    ledger = BudgetLedger.load(ledger)
    assert accepted.value == len(ledger.entries) == 30
    assert sorted(e.seq for e in ledger.entries) == list(range(30))
    assert not exceeds_cap(ledger.sequential_total()[0], 0.3)


# -- per-command parser ------------------------------------------------------

# One argv per subcommand that parses, and a required flag it carries.
_VALID_ARGV = {
    "stat": (["stat", "mean", "--input", "d.csv", "--epsilon", "1"],
             "--epsilon"),
    "fit": (["fit", "logit", "--input", "d.csv", "--label-column", "y",
             "--feature-columns", "a", "--epsilon", "1", "--gamma", "1",
             "--output", "m.json"], "--gamma"),
    "predict": (["predict", "--model", "m.json", "--input", "d.csv",
                 "--feature-columns", "a"], "--model"),
    "tune": (["tune", "logit", "--input", "d.csv", "--label-column", "y",
              "--feature-columns", "a", "--bounds", "0,1", "--gammas", "1",
              "--epsilon-train", "1", "--epsilon-select", "1",
              "--output", "m.json"], "--gammas"),
    "mech": (["mech", "laplace", "--epsilon", "1"], "--epsilon"),
    "budget": (["budget", "report", "--ledger", "l.jsonl"], "--ledger"),
}


def _parse(parser, argv):
    """(exit code or parsed namespace, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _without(argv, flag):
    i = argv.index(flag)
    return argv[:i] + argv[i + 2:]


def _parse_cases(command):
    argv, required = _VALID_ARGV[command]
    if command == "predict":  # no choices; a flag value it rejects instead
        bad = argv + ["--raw=yes"]
    else:
        bad = [command, "bogus"] + argv[2:]
    return {"valid": argv, "help": [command, "--help"],
            "unknown flag": argv + ["--nope", "1"],
            "missing flag": _without(argv, required), "bad choice": bad}


@pytest.mark.parametrize("command", sorted(_VALID_ARGV))
def test_command_parser_matches_full_parser(command):
    for case, argv in _parse_cases(command).items():
        alone = _parse(build_parser(command), argv)
        full = _parse(build_parser(), argv)
        assert alone == full, (command, case)
        assert isinstance(alone[0], dict) == (case == "valid"), case
        if case == "help":
            assert alone[0] == 0 and alone[1].startswith(
                f"usage: dpkit {command} ")
        elif case != "valid":
            assert alone[0] == 2 and alone[2].startswith("usage: dpkit ")


def test_top_level_errors_use_the_full_parser(capsys, monkeypatch):
    import dpkit.cli as cli
    built = []
    original = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda command=None: built.append(command)
                        or original(command))
    for argv, code in (([], 2), (["-h"], 0), (["bogus"], 2),
                       (["budget", "-h"], 0)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        got = capsys.readouterr()
        assert (code, got.out, got.err) == _parse(original(), argv)
    assert built == [None, None, None, "budget"]
    _, _, err = _parse(original(), [])
    assert err.endswith("error: the following arguments are required: "
                        "cmd\n")
    _, _, err = _parse(original(), ["bogus"])
    assert "argument cmd: invalid choice: 'bogus'" in err
    _, out, _ = _parse(original(), ["-h"])
    assert out.startswith("usage: dpkit [-h] "
                          "{stat,fit,predict,tune,mech,budget} ...\n")


# -- CSV ingest --------------------------------------------------------------


def _dictreader_columns(text):
    """The reader this module replaced, as the reference."""
    import csv
    reader = csv.DictReader(io.StringIO(text, newline=""))
    columns = {name: [] for name in reader.fieldnames}
    for row in reader:
        for name in columns:
            columns[name].append(row[name])
    return columns


@pytest.mark.parametrize("text", [
    "x,g\n1,a\n2,b\n",
    "x,g\r\n1,a\r\n2,b",                        # CRLF, no final newline
    "x,g\n\n1,a\n\n\n2,b\n\n",                  # empty lines are skipped
    'x,"g, h"\n"1.5","a ""quoted"", b"\n2,"two\nlines"\n',
    "x,x,y\n1,2,3\n4,5,6\n",                    # the last "x" wins
    "x\n\"\"\n3\n",                             # one empty field is a row
    "x,g\n",                                    # header only
])
def test_read_csv_matches_dictreader(tmp_path, monkeypatch, text):
    from dpkit.cli import _read_csv
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    assert _read_csv(str(path)) == _dictreader_columns(text)
    monkeypatch.setattr("sys.stdin", io.StringIO(text, newline=""))
    assert _read_csv("-") == _dictreader_columns(text)


# Header names, duplicates among them, and label cells: commas, quotes, line
# breaks of every kind, spaces, digits and a non-ASCII letter.
_NAMES = st.sampled_from(["x", "y", "g", "h, i", 'q"', "n\nl", " x"])
_LABELS = st.text(st.sampled_from(["a", "b", " ", ",", '"', "\n", "\r",
                                   "1", ".", "\u00e9"]), max_size=6)


@st.composite
def _csv_inputs(draw):
    """CSV text written by the csv module, blank lines added, and the names
    read as numbers and as labels. A name read as numbers holds fixed-point
    decimals in each of its columns; the others hold labels."""
    header = draw(st.lists(_NAMES, min_size=1, max_size=5))
    kinds = {name: draw(st.sampled_from(["number", "label", "unread"]))
             for name in header}
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        row = []
        for name in header:
            if kinds[name] == "number":
                k = draw(st.integers(-10 ** 7, 10 ** 7))
                digits = draw(st.integers(0, 6))
                row.append(f"{'-' if k < 0 else ''}{abs(k) // 10 ** digits}"
                           + (f".{abs(k) % 10 ** digits:0{digits}d}"
                              if digits else ""))
            else:
                row.append(draw(_LABELS))
        rows.append(row)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for row in [header] + rows:
        # Written with the terminator "\r\n", so that a field holding either
        # character is quoted, and then ended in ``end``.
        out = io.StringIO(newline="")
        csv.writer(out, lineterminator="\r\n").writerow(row)
        lines.append(out.getvalue()[:-2] + end)
    for _ in range(draw(st.integers(0, 3))):  # blank lines after the header
        lines.insert(draw(st.integers(1, len(lines))),
                     draw(st.sampled_from(["\n", "\r\n"])))
    numbers = sorted(n for n, kind in kinds.items() if kind == "number")
    labels = sorted(n for n, kind in kinds.items() if kind == "label")
    return "".join(lines), numbers, labels


@settings(max_examples=150, deadline=None)
@given(_csv_inputs())
def test_read_csv_matches_dictreader_on_generated_csv(tmp_path_factory,
                                                     case):
    """Numbers are float() of the reference's cells bit for bit, and labels
    its strings, read through a path and through stdin alike."""
    from dpkit.cli import _read_csv
    text, numbers, labels = case
    path = tmp_path_factory.mktemp("csv") / "in.csv"
    path.write_bytes(text.encode())
    want = _dictreader_columns(text)
    for source in (str(path), "-"):
        with mock.patch("sys.stdin", io.StringIO(text, newline="")):
            if not numbers and not labels:
                assert _read_csv(source) == want
                continue
            got = _read_csv(source, numbers, labels)
        assert sorted(got) == sorted(numbers + labels)
        for name in numbers:
            assert got[name].dtype == np.float64
            assert got[name].tobytes() == np.array(
                [float(v) for v in want[name]], dtype=np.float64).tobytes()
        for name in labels:
            assert got[name] == want[name]


@settings(max_examples=400, deadline=None)
@given(_csv_inputs(), st.integers(1, 8))
def test_the_field_limit_refuses_what_the_csv_module_refused(case, limit):
    """At a small limit, the input is refused exactly when the csv module
    at that field size limit refuses it, quoted fields across lines too."""
    from dpkit import cli
    text = case[0]
    previous = csv.field_size_limit(limit)
    try:
        list(csv.reader(io.StringIO(text, newline="")))
        want = None
    except csv.Error:
        want = cli._UNREADABLE
    finally:
        csv.field_size_limit(previous)
    with mock.patch.object(cli, "_FIELD_LIMIT", limit), \
            mock.patch("sys.stdin", io.StringIO(text, newline="")):
        try:
            cli._read_csv("-")
            got = None
        except ValueError as exc:
            got = str(exc)
    assert got == want


@pytest.mark.parametrize("text,row,fields", [
    ("g,x\na,1\nb\na,3\n", 3, 1),
    ("g,x\na,1\n\nb,2,9\n", 4, 3),
])
def test_ragged_csv_rows_exit_3(capsys, tmp_path, text, row, fields):
    path = tmp_path / "ragged.csv"
    path.write_text(text)
    code, out, err = run_cli(capsys, "stat", "mean", "--input", str(path),
                             "--column", "x", "--bounds", "0,5",
                             "--epsilon", "1", "--seed", "1")
    assert code == 3 and out == ""
    assert f"a row of the input has {fields} fields; the header has 2" in err
    assert f"row {row}" not in err  # no row number reaches stderr
    _one_line_error(err)


@pytest.mark.parametrize("cell", [b"\xff\xfe7", b"1" * 131_073],
                         ids=["not-utf-8", "oversize-field"])
def test_unreadable_csv_exits_3_naming_only_the_input(capsys, tmp_path,
                                                      cell):
    # The decoder's message quotes the byte and its offset; the csv
    # module's error is neither ValueError nor OSError.
    path, ledger = tmp_path / "bad.csv", tmp_path / "led.jsonl"
    path.write_bytes(b"x\n1\n" + cell + b"\n")
    code, out, err = run_cli(capsys, "stat", "mean", "--input", str(path),
                             "--column", "x", "--bounds", "0,5",
                             "--epsilon", "1", "--ledger", str(ledger))
    assert code == 3 and out == ""
    assert err == ("dpkit: input is not UTF-8 CSV text, or a field of it is "
                   "over the csv field size limit\n")
    assert not ledger.exists()


def _stat_mean(capsys, path, *flags):
    return run_cli(capsys, "stat", "mean", "--input", str(path), "--column",
                   "x", "--bounds", "0,5", "--epsilon", "1", "--seed", "1",
                   *flags)


@pytest.mark.parametrize("cell", ["1_000", "\u0661"],
                         ids=["underscore", "arabic-indic-digit"])
def test_numbers_follow_numpys_grammar(capsys, tmp_path, cell):
    # float() reads both cells; numpy's parser, which ingest uses, does not.
    path, ledger = tmp_path / "n.csv", tmp_path / "led.jsonl"
    path.write_text(f"x\n1\n{cell}\n", encoding="utf-8")
    code, out, err = _stat_mean(capsys, path, "--ledger", str(ledger))
    assert (code, out) == (3, "")
    assert err == "dpkit: column 'x' contains non-numeric values\n"
    assert not ledger.exists()


_LONG = 131_072


@pytest.mark.parametrize("header,row,code", [
    ("g,x", "g" * _LONG + ",1", 0),
    ("g,x,h", "g" * 70_000 + ",1," + "h" * 70_000, 0),
    ("g,x", "g" * (_LONG + 1) + ",1", 3),
    ("g,x", '"' + "g," * (_LONG // 2) + 'g",1', 3),
    # A quoted field is measured whole, its line breaks counted, over as
    # many lines as it spans.
    ("g,x", '"' + "g" * 65_535 + "\n" + "g" * 65_536 + '",1', 0),
    ("g,x", '"' + "g" * 70_000 + "\n" + "g" * 70_000 + '",1', 3),
    ("g,x", '"a\n' + "g," * 70_000 + '",1', 3),
    ("g,x", '"' + "g" * 70_000 + '""\n' + "g" * 70_000 + '",1', 3),
    # Text after a closing quote belongs to its field; a quote past a
    # field's start is text.
    ("g,x", '"g"' + "g" * _LONG + ",1", 3),
    ("g,x", 'g"' + "g" * (_LONG - 2) + ",1", 0),
], ids=["at-the-limit", "long-line-of-short-fields", "unread-column",
        "quoted-commas", "two-lines-at-the-limit", "two-lines-over",
        "long-continuation-line", "two-lines-with-an-escaped-quote",
        "after-the-closing-quote", "quote-inside-a-field"])
def test_the_field_limit_is_per_field(capsys, tmp_path, header, row, code):
    path, ledger = tmp_path / "long.csv", tmp_path / "led.jsonl"
    path.write_text(f"{header}\n{row}\n")
    got, _, err = _stat_mean(capsys, path, "--ledger", str(ledger))
    assert got == code
    if code:
        assert err == ("dpkit: input is not UTF-8 CSV text, or a field of "
                       "it is over the csv field size limit\n")
        assert not ledger.exists()


def test_blank_lines_before_the_header_are_skipped(capsys, tmp_path):
    path = tmp_path / "b.csv"
    path.write_text("\n\r\nx\n2\n\n4\n")
    code, out, _ = run_cli(capsys, "stat", "mean", "--input", str(path),
                           "--column", "x", "--bounds", "0,5", "--epsilon",
                           "1e6", "--seed", "1")
    assert code == 0 and abs(json.loads(out)["result"]["value"] - 3) < 1e-3
    path.write_text("\n\n")
    code, _, err = _stat_mean(capsys, path)
    assert code == 3
    assert err == "dpkit: input CSV is empty; a header row is required\n"


@pytest.mark.parametrize("statistic,flags", [
    ("pooled-var", ["--column", "x", "--bounds", "5,10"]),
    ("pooled-cov", ["--columns", "x,y", "--bounds", "5,10;0,1"]),
], ids=["pooled-var", "pooled-cov"])
def test_a_value_column_can_be_its_group_column(capsys, tmp_path, statistic,
                                                 flags):
    # The column is read as numbers and as labels; its groups are its text,
    # so "6" and "6.0" are two groups, as in a copy of it named k.
    path = tmp_path / "g.csv"
    path.write_text("x,y,k\n6,0.1,6\n6.0,0.2,6.0\n7,0.3,7\n6,0.4,6\n"
                    "7,0.5,7\n6.0,0.6,6.0\n")
    runs = [run_cli(capsys, "stat", statistic, "--input", str(path), *flags,
                    "--group-column", group, "--epsilon", "100", "--seed",
                    "0") for group in ("x", "k")]
    assert runs[0][0] == 0 and runs[0] == runs[1]
    assert json.loads(runs[0][1])["result"]["detail"]["groups"] == 3


# -- noise secrecy -----------------------------------------------------------


def test_unseeded_runs_defeat_the_differencing_attack(capsys, tmp_path):
    # Two files one row apart (6 -> 10): with one shared default seed the
    # two printed means differed by exactly the true difference, 1.0.
    values = []
    for last in ("6", "10"):
        path = tmp_path / f"s{last}.csv"
        path.write_text("x\n5.123\n7\n9.876\n" + last + "\n")
        argv = ("stat", "mean", "--input", str(path), "--column", "x",
                "--bounds", "5,10", "--epsilon", "0.1")
        reports = [json.loads(run_cli(capsys, *argv)[1]) for _ in range(2)]
        assert all("seed" not in r for r in reports)
        first, again = (r["result"]["value"] for r in reports)
        assert first != again
        values.append(first)
    assert abs((values[1] - values[0]) - 1.0) > 1e-6
