import io
import json

import numpy as np
import pytest

from dpkit.cli import main


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
    assert report["seed"] == 7
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

    ledger_before = open(ledger).read()
    code, out, _ = run_cli(capsys, "predict", "--model", model_path,
                           "--input", clf_csv, "--feature-columns", "a,b")
    assert code == 0
    pred_report = json.loads(out)
    assert pred_report["epsilon_used"] == 0.0
    assert pred_report["delta_used"] == 0.0
    assert len(pred_report["result"]["predictions"]) == 120
    assert set(pred_report["result"]["predictions"]) <= {0.0, 1.0}
    # Prediction is post-processing: the ledger is untouched.
    assert open(ledger).read() == ledger_before


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
    assert json.load(open(model_path))["kind"] == "logistic"


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


@pytest.mark.filterwarnings("ignore:minimize hit max_iters")
def test_fit_refuses_unconverged_solver(capsys, clf_csv, tmp_path,
                                        one_solver_iteration):
    model_path = tmp_path / "m.json"
    code, out, err = run_cli(capsys, "fit", "logit", "--input", clf_csv,
                             "--label-column", "label",
                             "--feature-columns", "a,b",
                             "--bounds=-1,1;-1,1", "--epsilon", "1",
                             "--gamma", "1", "--output", str(model_path))
    assert code == 3 and out == ""
    assert "projected-gradient norm" in err
    assert not model_path.exists()


def _one_line_error(err):
    assert err.startswith("dpkit: ") and err.count("\n") == 1
    assert "Traceback" not in err


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
