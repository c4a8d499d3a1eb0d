import argparse
import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

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
     "--weight-upper-bound applies to fit logit|svm only"),
    ("fit", "logit", ["--huber-h", "3"], "--huber-h applies to fit svm only"),
    ("fit", "svm", ["--rff-dim", "20"],
     "--rff-dim applies to fit svm only, with --kernel gaussian"),
    ("fit", "svm", ["--kernel", "linear", "--kernel-param", "3"],
     "--kernel-param applies to fit svm only, with --kernel gaussian"),
    ("tune", "linreg", ["--method", "objective"],
     "--method applies to tune logit|svm only"),
    ("tune", "logit", ["--huber-h", "3"], "--huber-h applies to tune svm only"),
    ("tune", "linreg", ["--huber-h", "3"],
     "--huber-h applies to tune svm only"),
]


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


def test_model_flags_a_model_reads_are_accepted(capsys, clf_csv, tmp_path):
    model_path = str(tmp_path / "m.json")
    for argv in (
            _model_command("fit", "logit", clf_csv, "--method", "objective",
                           "--weight-upper-bound", "2"),
            _model_command("fit", "svm", clf_csv, "--method", "objective",
                           "--huber-h", "0.3", "--kernel", "linear"),
            _model_command("fit", "svm", clf_csv, "--kernel", "gaussian",
                           "--rff-dim", "20", "--kernel-param", "0.5"),
            _model_command("tune", "svm", clf_csv, "--method", "objective",
                           "--huber-h", "0.3")):
        code, _, err = run_cli(capsys, *argv, "--output", model_path)
        assert code == 0, (argv, err)


@pytest.mark.parametrize("alloc", ["0.5,0.5", "7"])
def test_exponential_mechanism_refuses_alloc_uncharged(capsys, tmp_path,
                                                       alloc):
    ledger = tmp_path / "led.jsonl"
    code, out, err = run_cli(capsys, "mech", "exponential", "--utility",
                             "0,1", "--alloc", alloc, "--epsilon", "1",
                             "--ledger", str(ledger))
    assert code == 3 and out == ""
    assert "--alloc applies to laplace and gaussian only" in err
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


def test_non_finite_report_exits_3(capsys):
    # An infinite input value stays infinite under any noise.
    code, out, err = run_cli(capsys, "mech", "laplace", "--values", "1,inf",
                             "--sensitivities", "1,1", "--epsilon", "1",
                             "--seed", "1")
    assert code == 3 and out == ""
    assert "not JSON compliant" in err
    _one_line_error(err)


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
    assert f"row {row} of the input has {fields} fields; the header has 2" \
        in err
    _one_line_error(err)


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
