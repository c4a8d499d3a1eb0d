"""Command-line front end.

Each process runs one command, so ``main`` builds the argument parser of
that command alone; a missing or unknown command, and ``dpkit --help``, get
the parser of every command. Both accept and reject the same arguments with
the same text.

Every command prints a single JSON run report to stdout (sorted keys, so a
rerun with the same ``--seed`` is byte-identical). The report never holds
the seed: without ``--seed`` each run draws fresh noise. Exit codes:

  0  success
  2  bad flags or arguments (argparse)
  3  invalid input (bounds, labels, CSV values including NaN cells,
     undeclared category labels, missing or unreadable files, --cap
     without --ledger, a classifier fit whose solver did not converge, a
     report value that is not finite)
  4  privacy budget exhausted
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .accountant import BudgetExhaustedError, BudgetLedger, exceeds_cap
from .erm import ErmConfig
from .mechanisms import (APPROXIMATE, PROBABILISTIC, BudgetAllocation,
                         PrivacyBudget, RandomSource, SensitivitySpec,
                         exponential_mechanism, gaussian_mechanism,
                         laplace_mechanism)
from .models import (TrainedModel, fit_linreg, fit_logistic, fit_svm, predict)
from .stats import (Bounds, HistogramSpec, StatRequest, cov_dp, histogram_dp,
                    mean_dp, pooled_cov_dp, pooled_var_dp, quantile_dp,
                    require_bounded, sd_dp, table_dp, var_dp)
from .tuning import Candidate, tune_classification, tune_linreg

# -- parsing helpers ---------------------------------------------------------


def _required(args, flag: str) -> str:
    value = getattr(args, flag.replace("-", "_"))
    if value is None:
        raise ValueError(f"--{flag} is required")
    return value


def _parse_floats(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}")


def _parse_bounds(text: str | None, pairs: int) -> list[Bounds]:
    """--bounds as ``pairs`` 'lower,upper' pairs separated by semicolons."""
    if text is None:
        raise ValueError("--bounds is required")
    bounds = []
    for part in text.split(";"):
        ends = part.split(",")
        if len(ends) != 2:
            raise ValueError(f"bounds must be 'lower,upper', got {part!r}")
        try:
            lo, hi = float(ends[0]), float(ends[1])
        except ValueError:
            raise ValueError(f"bounds must be numeric, got {part!r}")
        bounds.append(Bounds(lo, hi))
    if len(bounds) != pairs:
        raise ValueError(f"--bounds needs {pairs} 'lower,upper' pair(s) "
                         f"separated by ';', got {len(bounds)}")
    return bounds


def _parse_cap(text: str) -> tuple[float, float]:
    values = _parse_floats(text)
    if values.size > 2 or not np.all(values >= 0.0):  # NaN would admit all
        raise ValueError("--cap must be 'epsilon[,delta]', both "
                         f"nonnegative, got {text!r}")
    return float(values[0]), float(values[1]) if values.size > 1 else 0.0


def _read_csv(path: str) -> dict[str, list[str]]:
    """Columns of a CSV file (or stdin for ``-``) by header name.

    A header row is required and empty rows are skipped. A row with more or
    fewer fields than the header is an error that names it, counting the
    header as row 1. Of two columns with one name the last wins.
    """
    fh = sys.stdin if path == "-" else open(path, newline="",
                                            encoding="utf-8")
    try:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("input CSV is empty; a header row is required")
        rows = list(reader)
    finally:
        if fh is not sys.stdin:
            fh.close()
    width = len(header)
    if set(map(len, rows)) - {width}:
        for i, row in enumerate(rows):
            if row and len(row) != width:
                raise ValueError(f"row {i + 2} of the input has {len(row)} "
                                 f"fields; the header has {width}")
        rows = [row for row in rows if row]
    if not rows:
        return {name: [] for name in header}
    return {name: list(col) for name, col in zip(header, zip(*rows))}


def _column(columns: dict, name: str) -> list[str]:
    if name not in columns:
        raise ValueError(f"no column named {name!r} in the input")
    return columns[name]


def _numeric_column(columns: dict, name: str) -> np.ndarray:
    """The column ``name`` as floats. A cell that is not a number, NaN
    included, refuses the column by a message that names it only."""
    cells = _column(columns, name)
    try:
        values = np.array([float(v) for v in cells])
    except ValueError:
        values = None
    if values is None or np.isnan(values).any():
        raise ValueError(f"column {name!r} contains non-numeric values")
    return values


def _budget(args) -> PrivacyBudget:
    delta = getattr(args, "delta", 0.0) or 0.0
    if delta == 0.0:
        return PrivacyBudget(args.epsilon)
    variant = getattr(args, "variant", None) or APPROXIMATE
    return PrivacyBudget(args.epsilon, delta, variant)


def _report(command: str, result, epsilon: float, delta: float) -> dict:
    # No seed: whoever knows it can replay the noise and subtract it.
    return {"command": command, "epsilon_used": epsilon, "delta_used": delta,
            "result": result}


def _release(args, command: str, epsilon: float, delta: float,
             result) -> dict:
    """Charge (epsilon, delta) to --ledger under --cap, then build the report.

    The one path by which a command that spends budget reports: a refused
    charge raises before anything is printed or written, and so does a
    --cap without a --ledger to hold it to.
    """
    cap = None if args.cap is None else _parse_cap(args.cap)
    if cap is not None and not args.ledger:
        raise ValueError("--cap needs --ledger; without a ledger no cap "
                         "can be enforced")
    if args.ledger:
        BudgetLedger.charge(args.ledger, command, epsilon, delta, args.tag,
                            cap)
    return _report(command, result, epsilon, delta)


def _stat_payload(res) -> dict:
    value = res.value
    if isinstance(value, np.ndarray):
        value = value.tolist()
    detail = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
              for k, v in res.detail.items()
              if k != "categories"}
    return {"statistic": res.statistic, "value": value,
            "sensitivity": res.sensitivity, "mechanism": res.mechanism,
            "neighbor": res.neighbor, "detail": detail}


# -- stat --------------------------------------------------------------------


def _groups(columns, values: np.ndarray, group_column: str):
    """The rows of ``values`` split by the labels in ``group_column``, in
    sorted label order and in input order within a group."""
    labels, index = np.unique(np.asarray(_column(columns, group_column)),
                              return_inverse=True)
    return [values[index == k] for k in range(labels.size)]


def _cmd_stat(args) -> dict:
    columns = _read_csv(args.input)
    budget = _budget(args)
    req = StatRequest(budget, args.mechanism, args.neighbor)
    rng = RandomSource(args.seed)
    name = args.statistic

    if name in ("mean", "var", "sd"):
        x = _numeric_column(columns, args.column)
        bounds, = _parse_bounds(args.bounds, 1)
        fn = {"mean": mean_dp, "var": var_dp, "sd": sd_dp}[name]
        released = fn(x, bounds, req, rng)
    elif name == "cov":
        c1, c2 = _required(args, "columns").split(",")
        b1, b2 = _parse_bounds(args.bounds, 2)
        released = cov_dp(_numeric_column(columns, c1),
                          _numeric_column(columns, c2), b1, b2, req, rng)
    elif name == "pooled-var":
        group_column = _required(args, "group-column")
        groups = _groups(columns, _numeric_column(columns, args.column),
                         group_column)
        bounds, = _parse_bounds(args.bounds, 1)
        released = pooled_var_dp(groups, bounds, req, rng, args.approx_n_max)
    elif name == "pooled-cov":
        c1, c2 = _required(args, "columns").split(",")
        group_column = _required(args, "group-column")
        b1, b2 = _parse_bounds(args.bounds, 2)
        values = np.column_stack([_numeric_column(columns, c1),
                                  _numeric_column(columns, c2)])
        released = pooled_cov_dp(_groups(columns, values, group_column),
                                 b1, b2, req, rng, args.approx_n_max)
    elif name in ("quantile", "median"):
        require_bounded(name, args.neighbor)
        x = _numeric_column(columns, args.column)
        bounds, = _parse_bounds(args.bounds, 1)
        q = 0.5 if name == "median" else args.q
        released = quantile_dp(x, q, budget, bounds, rng=rng)
    elif name == "histogram":
        x = _numeric_column(columns, args.column)
        spec = HistogramSpec(_parse_floats(_required(args, "breaks")),
                             args.normalize, args.allow_negative)
        released = histogram_dp(x, spec, req, rng)
    elif name == "table":
        names = _required(args, "columns").split(",")
        categories = [part.split(",")
                      for part in _required(args, "categories").split(";")]
        released = table_dp([_column(columns, c) for c in names],
                            categories, req, rng, args.allow_negative, names)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown statistic {name!r}")

    return _release(args, f"stat {name}", budget.epsilon, budget.delta,
                    _stat_payload(released))


# -- fit / predict -----------------------------------------------------------


def _features(columns, args) -> np.ndarray:
    return np.column_stack([_numeric_column(columns, c)
                            for c in args.feature_columns.split(",")])


# The flags that not every model reads: flag -> (default, the models that
# read it). Their parser default is None, so a flag given to a model that
# does not read it is refused rather than dropped. The svm reads the
# _GAUSSIAN_FLAGS only with --kernel gaussian.
_MODEL_FLAGS = {
    "method": ("output", ("logit", "svm")),
    "weight-upper-bound": (1.0, ("logit", "svm")),
    "huber-h": (0.5, ("svm",)),
    "kernel": ("linear", ("svm",)),
    "weights-column": (None, ("svm",)),
    "rff-dim": (None, ("svm",)),
    "kernel-param": (None, ("svm",)),
}
_GAUSSIAN_FLAGS = ("rff-dim", "kernel-param")


def _model_flags(args) -> None:
    """Refuse each model flag of ``args`` that its model does not read, and
    give the flags it does read but were left out their defaults."""
    gaussian = getattr(args, "kernel", None) == "gaussian"
    for flag, (default, readers) in _MODEL_FLAGS.items():
        dest = flag.replace("-", "_")
        if not hasattr(args, dest):  # not a flag of this command
            continue
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif args.model not in readers or (flag in _GAUSSIAN_FLAGS
                                           and not gaussian):
            kernel = ", with --kernel gaussian" * (flag in _GAUSSIAN_FLAGS)
            raise ValueError(f"--{flag} applies to {args.cmd} "
                             f"{'|'.join(readers)} only{kernel}")


def _cmd_fit(args) -> dict:
    kind = args.model
    _model_flags(args)
    columns = _read_csv(args.input)
    X = _features(columns, args)
    y = _numeric_column(columns, args.label_column)
    rng = RandomSource(args.seed)
    budget = _budget(args)

    if kind == "linreg":
        bounds = _parse_bounds(args.bounds, X.shape[1] + 1)
        model = fit_linreg(X, y, bounds, budget, args.gamma,
                           args.add_bias, rng)
    else:
        cfg = ErmConfig(budget, args.gamma, args.method,
                        args.weight_upper_bound)
        if kind == "logit":
            bounds = _parse_bounds(args.bounds, X.shape[1])
            model = fit_logistic(X, y, bounds, cfg, args.add_bias, rng)
        else:
            bounds = (_parse_bounds(args.bounds, X.shape[1])
                      if args.bounds else None)
            weights = (_numeric_column(columns, args.weights_column)
                       if args.weights_column else None)
            model = fit_svm(X, y, bounds, cfg, args.kernel, args.rff_dim,
                            args.kernel_param, args.huber_h, weights,
                            args.add_bias, rng)

    report = _release(
        args, f"fit {kind}", budget.epsilon, budget.delta,
        {"model_path": args.output, "kind": model.kind,
         "coefficients": [float(c) for c in model.coefficients]})
    model.save(args.output)
    return report


def _cmd_predict(args) -> dict:
    # Post-processing of a released model: reads no ledger, spends nothing.
    model = TrainedModel.load(args.model)
    values = predict(model, _features(_read_csv(args.input), args),
                     raw_value=args.raw)
    return _report("predict",
                   {"predictions": [float(v) for v in values]}, 0.0, 0.0)


# -- tune --------------------------------------------------------------------


def _cmd_tune(args) -> dict:
    _model_flags(args)
    columns = _read_csv(args.input)
    X = _features(columns, args)
    y = _numeric_column(columns, args.label_column)
    rng = RandomSource(args.seed)
    gammas = [float(g) for g in args.gammas.split(",")]
    bounds = _parse_bounds(args.bounds,
                           X.shape[1] + (args.model == "linreg"))
    train_budget = PrivacyBudget(args.epsilon_train)
    select_budget = PrivacyBudget(args.epsilon_select)

    if args.model == "linreg":
        y_bounds = bounds[-1]

        def make(g):
            return Candidate(f"gamma={g}", lambda Xf, yf, r: fit_linreg(
                Xf, yf, bounds, train_budget, g, args.add_bias, r))

        result = tune_linreg([make(g) for g in gammas], X, y, y_bounds,
                             select_budget, rng)
    else:
        def make(g):
            cfg = ErmConfig(train_budget, g, args.method)
            if args.model == "logit":
                return Candidate(f"gamma={g}", lambda Xf, yf, r: fit_logistic(
                    Xf, yf, bounds, cfg, args.add_bias, r))
            return Candidate(f"gamma={g}", lambda Xf, yf, r: fit_svm(
                Xf, yf, bounds, cfg, "linear", huber_h=args.huber_h,
                add_bias=args.add_bias, rng=r))

        result = tune_classification([make(g) for g in gammas], X, y,
                                     select_budget, rng)

    # Disjoint folds: the m training releases compose in parallel, then the
    # selection composes sequentially on top.
    eps_total = train_budget.epsilon + select_budget.epsilon
    report = _release(args, f"tune {args.model}", eps_total, 0.0,
                      {"model_path": args.output, "selected": result.name,
                       "index": result.index})
    result.model.save(args.output)
    return report


# -- mech --------------------------------------------------------------------


def _cmd_mech(args) -> dict:
    budget = _budget(args)
    rng = RandomSource(args.seed)

    if args.mechanism == "exponential":
        if args.alloc is not None:
            raise ValueError("--alloc applies to laplace and gaussian only")
        utility = _parse_floats(_required(args, "utility"))
        measure = (_parse_floats(args.measure)
                   if args.measure else None)
        idx = exponential_mechanism(utility, budget, args.sensitivity,
                                    measure, rng)
        result = {"index": idx}
    else:
        alloc = (BudgetAllocation(_parse_floats(args.alloc))
                 if args.alloc else None)
        values = _parse_floats(_required(args, "values"))
        sens_vec = _parse_floats(_required(args, "sensitivities"))
        if args.mechanism == "laplace":
            sens = SensitivitySpec("l1", sens_vec)
            out = laplace_mechanism(values, budget, sens, alloc, rng)
        else:
            sens = SensitivitySpec("l2", sens_vec)
            out = gaussian_mechanism(values, budget, sens, alloc, rng)
        result = {"values": out.tolist()}

    return _release(args, f"mech {args.mechanism}", budget.epsilon,
                    budget.delta, result)


# -- budget ------------------------------------------------------------------


def _cmd_budget(args) -> dict:
    try:
        ledger = BudgetLedger.load(args.ledger)
    except FileNotFoundError:
        ledger = BudgetLedger()
    eps, delta = ledger.sequential_total()
    try:
        par_eps, par_delta = ledger.parallel_total()
        parallel = {"epsilon": par_eps, "delta": par_delta}
    except ValueError:
        parallel = None

    result = {"entries": len(ledger.entries),
              "sequential": {"epsilon": eps, "delta": delta},
              "parallel": parallel}
    if args.action == "check":
        if args.cap is None:
            raise ValueError("budget check requires --cap")
        cap_eps, cap_delta = _parse_cap(args.cap)
        if exceeds_cap(eps, cap_eps) or exceeds_cap(delta, cap_delta):
            raise BudgetExhaustedError(cap_eps - eps, cap_delta - delta)
        result["within_cap"] = True
    return _report(f"budget {args.action}", result, 0.0, 0.0)


# -- parser ------------------------------------------------------------------

_SEED_HELP = ("seed of the noise stream, for replay and tests; anyone who "
              "knows it can remove the noise from the output. Without it "
              "each run seeds PCG64 (not a cryptographic generator) from "
              "fresh OS entropy")
_CAP_HELP = "ledger cap as 'epsilon[,delta]'; delta defaults to 0"


def _add_common(p):
    """Flags of the commands that draw noise and spend budget."""
    p.add_argument("--seed", type=int, default=None, help=_SEED_HELP)
    p.add_argument("--ledger", default=None,
                   help="JSONL ledger file to append this spend to")
    p.add_argument("--cap", default=None, help=_CAP_HELP)
    p.add_argument("--tag", default=None,
                   help="partition tag for parallel composition")


def _add_stat(sub):
    st = sub.add_parser("stat", help="release a private statistic")
    st.add_argument("statistic", choices=[
        "mean", "var", "sd", "cov", "pooled-var", "pooled-cov",
        "quantile", "median", "histogram", "table"])
    st.add_argument("--input", required=True, help="CSV path or - for stdin")
    st.add_argument("--column", default=None)
    st.add_argument("--columns", default=None,
                    help="two column names, comma separated")
    st.add_argument("--group-column", default=None)
    st.add_argument("--bounds", default=None, help="'lower,upper' per column,"
                    " semicolon separated for multiple columns")
    st.add_argument("--epsilon", type=float, required=True)
    st.add_argument("--delta", type=float, default=0.0)
    st.add_argument("--variant", choices=[APPROXIMATE, PROBABILISTIC],
                    default=None)
    st.add_argument("--mechanism", choices=["laplace", "gaussian"],
                    default="laplace")
    st.add_argument("--neighbor", choices=["bounded", "unbounded"],
                    default="bounded",
                    help="unbounded (a row added or removed) applies to "
                         "histogram and table only")
    st.add_argument("--q", type=float, default=0.5)
    st.add_argument("--breaks", default=None,
                    help="histogram edges, comma separated and ascending")
    st.add_argument("--normalize", action="store_true")
    st.add_argument("--allow-negative", action="store_true")
    st.add_argument("--categories", default=None,
                    help="per factor: comma-separated labels, factors "
                         "separated by semicolons")
    st.add_argument("--approx-n-max", action="store_true")
    _add_common(st)
    st.set_defaults(handler=_cmd_stat)


def _add_fit(sub):
    ft = sub.add_parser("fit", help="train a private model")
    ft.add_argument("model", choices=["logit", "svm", "linreg"])
    ft.add_argument("--input", required=True)
    ft.add_argument("--label-column", required=True)
    ft.add_argument("--feature-columns", required=True)
    ft.add_argument("--bounds", default=None)
    ft.add_argument("--epsilon", type=float, required=True)
    ft.add_argument("--delta", type=float, default=0.0)
    ft.add_argument("--variant", choices=[APPROXIMATE, PROBABILISTIC],
                    default=None)
    ft.add_argument("--gamma", type=float, required=True)
    ft.add_argument("--method", choices=["output", "objective"],
                    default=None, help="logit and svm; default output")
    ft.add_argument("--add-bias", action="store_true")
    ft.add_argument("--kernel", choices=["linear", "gaussian"],
                    default=None, help="svm; default linear")
    ft.add_argument("--rff-dim", type=int, default=None,
                    help="svm with --kernel gaussian")
    ft.add_argument("--kernel-param", type=float, default=None,
                    help="svm with --kernel gaussian; default 1/p")
    ft.add_argument("--huber-h", type=float, default=None,
                    help="svm; default 0.5")
    ft.add_argument("--weights-column", default=None, help="svm")
    ft.add_argument("--weight-upper-bound", type=float, default=None,
                    help="logit and svm; default 1")
    ft.add_argument("--output", required=True, help="model JSON path")
    _add_common(ft)
    ft.set_defaults(handler=_cmd_fit)


def _add_predict(sub):
    pr = sub.add_parser("predict", help="apply a saved model (costs nothing)")
    pr.add_argument("--model", required=True)
    pr.add_argument("--input", required=True)
    pr.add_argument("--feature-columns", required=True)
    pr.add_argument("--raw", action="store_true")
    pr.set_defaults(handler=_cmd_predict)


def _add_tune(sub):
    tn = sub.add_parser("tune", help="private selection over a gamma grid")
    tn.add_argument("model", choices=["logit", "svm", "linreg"])
    tn.add_argument("--input", required=True)
    tn.add_argument("--label-column", required=True)
    tn.add_argument("--feature-columns", required=True)
    tn.add_argument("--bounds", required=True)
    tn.add_argument("--gammas", required=True)
    tn.add_argument("--epsilon-train", type=float, required=True)
    tn.add_argument("--epsilon-select", type=float, required=True)
    tn.add_argument("--method", choices=["output", "objective"],
                    default=None, help="logit and svm; default output")
    tn.add_argument("--huber-h", type=float, default=None,
                    help="svm; default 0.5")
    tn.add_argument("--add-bias", action="store_true")
    tn.add_argument("--output", required=True)
    _add_common(tn)
    tn.set_defaults(handler=_cmd_tune)


def _add_mech(sub):
    mc = sub.add_parser("mech", help="run a raw mechanism")
    mc.add_argument("mechanism", choices=["laplace", "gaussian",
                                          "exponential"])
    mc.add_argument("--values", default=None)
    mc.add_argument("--sensitivities", default=None)
    mc.add_argument("--utility", default=None)
    mc.add_argument("--measure", default=None)
    mc.add_argument("--sensitivity", type=float, default=1.0)
    mc.add_argument("--alloc", default=None)
    mc.add_argument("--epsilon", type=float, required=True)
    mc.add_argument("--delta", type=float, default=0.0)
    mc.add_argument("--variant", choices=[APPROXIMATE, PROBABILISTIC],
                    default=None)
    _add_common(mc)
    mc.set_defaults(handler=_cmd_mech)


def _add_budget(sub):
    bd = sub.add_parser("budget", help="inspect or check a ledger")
    bd.add_argument("action", choices=["report", "check"])
    bd.add_argument("--ledger", required=True)
    bd.add_argument("--cap", default=None, help=_CAP_HELP)
    bd.set_defaults(handler=_cmd_budget)


# Subcommand name -> the function that adds its subparser, in help order.
_COMMANDS = {"stat": _add_stat, "fit": _add_fit, "predict": _add_predict,
             "tune": _add_tune, "mech": _add_mech, "budget": _add_budget}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The dpkit parser with every subcommand, or with ``command`` alone.

    A one-command parser accepts and rejects that command's arguments with
    the same exit codes and text as the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="dpkit",
        description="Differentially private statistics and models")
    # A one-command parser's usage line must still list every command, as
    # argparse prints it with errors such as "unrecognized arguments". The
    # full parser takes no metavar: its errors name the argument "cmd".
    metavar = "{" + ",".join(_COMMANDS) + "}" if command else None
    sub = parser.add_subparsers(dest="cmd", required=True, metavar=metavar)
    for name in [command] if command else _COMMANDS:
        _COMMANDS[name](sub)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # One process runs one command: build only the subparser argv names.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        # Strict JSON: a non-finite value is refused, not printed as NaN.
        text = json.dumps(args.handler(args), sort_keys=True, indent=2,
                          allow_nan=False)
    except BudgetExhaustedError as exc:
        print(f"dpkit: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"dpkit: {exc}", file=sys.stderr)
        return 3
    print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
