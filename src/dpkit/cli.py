"""Command-line front end.

Every command prints a single JSON run report to stdout (sorted keys, so a
rerun with the same seed is byte-identical) and uses exit codes:

  0  success
  2  bad flags or arguments (argparse)
  3  invalid input (bounds, labels, CSV values, missing or unreadable
     files, a solver that did not converge)
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
from .mechanisms import (APPROXIMATE, PROBABILISTIC, PURE, BudgetAllocation,
                         PrivacyBudget, RandomSource, SensitivitySpec,
                         exponential_mechanism, gaussian_mechanism,
                         laplace_mechanism)
from .models import (TrainedModel, fit_linreg, fit_logistic, fit_svm, predict)
from .stats import (Bounds, HistogramSpec, StatRequest, cov_dp, histogram_dp,
                    mean_dp, median_dp, pooled_cov_dp, pooled_var_dp,
                    quantile_dp, sd_dp, table_dp, var_dp)
from .tuning import Candidate, tune_classification, tune_linreg

# -- parsing helpers ---------------------------------------------------------


def _parse_floats(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}")


def _parse_bounds_pair(text: str | None) -> Bounds:
    if text is None:
        raise ValueError("--bounds is required")
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"bounds must be 'lower,upper', got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"bounds must be numeric, got {text!r}")
    return Bounds(lo, hi)


def _parse_bounds_list(text: str | None) -> list[Bounds]:
    if text is None:
        raise ValueError("--bounds is required")
    return [_parse_bounds_pair(part) for part in text.split(";")]


def _read_csv(path: str) -> dict[str, list[str]]:
    fh = sys.stdin if path == "-" else open(path, newline="",
                                            encoding="utf-8")
    try:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError("input CSV is empty; a header row is required")
        columns = {name: [] for name in reader.fieldnames}
        for row in reader:
            for name in columns:
                columns[name].append(row[name])
        return columns
    finally:
        if fh is not sys.stdin:
            fh.close()


def _numeric_column(columns: dict, name: str) -> np.ndarray:
    if name not in columns:
        raise ValueError(f"no column named {name!r} in the input")
    try:
        return np.array([float(v) for v in columns[name]])
    except ValueError:
        raise ValueError(f"column {name!r} contains non-numeric values")


def _budget(args) -> PrivacyBudget:
    delta = getattr(args, "delta", 0.0) or 0.0
    if delta == 0.0:
        return PrivacyBudget(args.epsilon)
    variant = getattr(args, "variant", None) or APPROXIMATE
    return PrivacyBudget(args.epsilon, delta, variant)


def _record(args, operation: str, epsilon: float, delta: float,
            tag: str | None = None) -> None:
    """Append to the on-disk ledger when --ledger is given; enforce --cap."""
    if not getattr(args, "ledger", None):
        return
    cap = None
    if getattr(args, "cap", None):
        pair = _parse_floats(args.cap)
        cap = (float(pair[0]), float(pair[1]) if pair.size > 1 else 0.0)
    try:
        ledger = BudgetLedger.load(args.ledger, cap=cap)
    except FileNotFoundError:
        ledger = BudgetLedger(cap=cap)
    ledger.record(operation, epsilon, delta, tag)
    ledger.save(args.ledger)


def _report(args, command: str, result, epsilon: float,
            delta: float) -> dict:
    return {"command": command, "seed": args.seed, "epsilon_used": epsilon,
            "delta_used": delta, "result": result}


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


def _stat_result_json(released):
    if isinstance(released, tuple):
        return [_stat_payload(r) for r in released]
    return _stat_payload(released)


# -- stat --------------------------------------------------------------------


def _groups_from(columns, value_col, group_col):
    values = _numeric_column(columns, value_col)
    if group_col not in columns:
        raise ValueError(f"no column named {group_col!r} in the input")
    labels = columns[group_col]
    groups = {}
    for v, g in zip(values, labels):
        groups.setdefault(g, []).append(v)
    return [np.array(groups[g]) for g in sorted(groups)]


def _cmd_stat(args) -> dict:
    columns = _read_csv(args.input)
    budget = _budget(args)
    req = StatRequest(budget, args.mechanism, args.neighbor)
    rng = RandomSource(args.seed)
    name = args.statistic

    if name in ("mean", "var", "sd"):
        x = _numeric_column(columns, args.column)
        bounds = _parse_bounds_pair(args.bounds)
        fn = {"mean": mean_dp, "var": var_dp, "sd": sd_dp}[name]
        released = fn(x, bounds, req, rng)
    elif name == "cov":
        c1, c2 = args.columns.split(",")
        b1, b2 = _parse_bounds_list(args.bounds)
        released = cov_dp(_numeric_column(columns, c1),
                          _numeric_column(columns, c2), b1, b2, req, rng)
    elif name == "pooled-var":
        groups = _groups_from(columns, args.column, args.group_column)
        released = pooled_var_dp(groups, _parse_bounds_pair(args.bounds),
                                 req, rng, args.approx_n_max)
    elif name == "pooled-cov":
        c1, c2 = args.columns.split(",")
        b1, b2 = _parse_bounds_list(args.bounds)
        v1 = _numeric_column(columns, c1)
        v2 = _numeric_column(columns, c2)
        labels = columns.get(args.group_column)
        if labels is None:
            raise ValueError(f"no column named {args.group_column!r} in the "
                             "input")
        pairs = {}
        for a, b, g in zip(v1, v2, labels):
            pairs.setdefault(g, []).append((a, b))
        released = pooled_cov_dp([np.array(pairs[g]) for g in sorted(pairs)],
                                 b1, b2, req, rng, args.approx_n_max)
    elif name in ("quantile", "median"):
        x = _numeric_column(columns, args.column)
        bounds = _parse_bounds_pair(args.bounds)
        q = 0.5 if name == "median" else args.q
        released = quantile_dp(x, q, budget, bounds,
                               not args.left_endpoint, rng)
    elif name == "histogram":
        x = _numeric_column(columns, args.column)
        breaks = (_parse_floats(args.breaks)
                  if "," in args.breaks else int(args.breaks))
        spec = HistogramSpec(breaks, args.normalize, args.allow_negative)
        released = histogram_dp(x, spec, req, rng)
    elif name == "table":
        names = args.columns.split(",")
        factors = []
        for c in names:
            if c not in columns:
                raise ValueError(f"no column named {c!r} in the input")
            factors.append(columns[c])
        categories = [part.split(",") for part in args.categories.split(";")]
        released = table_dp(factors, categories, req, rng,
                            args.allow_negative)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown statistic {name!r}")

    _record(args, f"stat {name}", budget.epsilon, budget.delta,
            getattr(args, "tag", None))
    return _report(args, f"stat {name}", _stat_result_json(released),
                   budget.epsilon, budget.delta)


# -- fit / predict -----------------------------------------------------------


def _design(columns, args):
    feature_names = args.feature_columns.split(",")
    X = np.column_stack([_numeric_column(columns, c) for c in feature_names])
    y = _numeric_column(columns, args.label_column)
    return X, y


def _cmd_fit(args) -> dict:
    columns = _read_csv(args.input)
    X, y = _design(columns, args)
    rng = RandomSource(args.seed)
    kind = args.model

    if kind == "linreg":
        budget = _budget(args)
        bounds = _parse_bounds_list(args.bounds)
        model = fit_linreg(X, y, bounds, budget, args.gamma,
                           args.add_bias, rng)
    else:
        budget = PrivacyBudget(args.epsilon)
        cfg = ErmConfig(budget, args.gamma, args.method,
                        args.weight_upper_bound)
        if kind == "logit":
            bounds = _parse_bounds_list(args.bounds)
            model = fit_logistic(X, y, bounds, cfg, args.add_bias, rng)
        else:
            bounds = (_parse_bounds_list(args.bounds)
                      if args.bounds else None)
            weights = (_numeric_column(columns, args.weights_column)
                       if args.weights_column else None)
            model = fit_svm(X, y, bounds, cfg, args.kernel, args.rff_dim,
                            args.kernel_param, args.huber_h, weights,
                            args.add_bias, rng)

    _record(args, f"fit {kind}", budget.epsilon, budget.delta,
            getattr(args, "tag", None))
    model.save(args.output)
    return _report(args, f"fit {kind}",
                   {"model_path": args.output, "kind": model.kind,
                    "coefficients": [float(c) for c in model.coefficients]},
                   budget.epsilon, budget.delta)


def _cmd_predict(args) -> dict:
    # Post-processing of a released model: reads no ledger, spends nothing.
    model = TrainedModel.load(args.model)
    columns = _read_csv(args.input)
    feature_names = args.feature_columns.split(",")
    X = np.column_stack([_numeric_column(columns, c) for c in feature_names])
    values = predict(model, X, raw_value=args.raw)
    return _report(args, "predict",
                   {"predictions": [float(v) for v in values]}, 0.0, 0.0)


# -- tune --------------------------------------------------------------------


def _cmd_tune(args) -> dict:
    columns = _read_csv(args.input)
    X, y = _design(columns, args)
    rng = RandomSource(args.seed)
    gammas = [float(g) for g in args.gammas.split(",")]
    bounds = _parse_bounds_list(args.bounds)
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
    _record(args, f"tune {args.model}", eps_total, 0.0,
            getattr(args, "tag", None))
    result.model.save(args.output)
    return _report(args, f"tune {args.model}",
                   {"model_path": args.output, "selected": result.name,
                    "index": result.index}, eps_total, 0.0)


# -- mech --------------------------------------------------------------------


def _cmd_mech(args) -> dict:
    budget = _budget(args)
    rng = RandomSource(args.seed)
    alloc = (BudgetAllocation(_parse_floats(args.alloc))
             if getattr(args, "alloc", None) else None)

    if args.mechanism == "exponential":
        utility = _parse_floats(args.utility)
        measure = (_parse_floats(args.measure)
                   if args.measure else None)
        idx = exponential_mechanism(utility, budget, args.sensitivity,
                                    measure, rng)
        result = {"index": idx}
    else:
        values = _parse_floats(args.values)
        sens_vec = _parse_floats(args.sensitivities)
        if args.mechanism == "laplace":
            sens = SensitivitySpec("l1", sens_vec, args.neighbor)
            out = laplace_mechanism(values, budget, sens, alloc, rng)
        else:
            sens = SensitivitySpec("l2", sens_vec, args.neighbor)
            out = gaussian_mechanism(values, budget, sens, alloc, rng)
        result = {"values": out.tolist()}

    _record(args, f"mech {args.mechanism}", budget.epsilon, budget.delta,
            getattr(args, "tag", None))
    return _report(args, f"mech {args.mechanism}", result,
                   budget.epsilon, budget.delta)


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
        if not args.cap:
            raise ValueError("budget check requires --cap")
        cap = _parse_floats(args.cap)
        cap_eps = float(cap[0])
        cap_delta = float(cap[1]) if cap.size > 1 else 0.0
        if exceeds_cap(eps, cap_eps) or exceeds_cap(delta, cap_delta):
            raise BudgetExhaustedError(cap_eps - eps, cap_delta - delta)
        result["within_cap"] = True
    report = _report(args, f"budget {args.action}", result, 0.0, 0.0)
    return report


# -- parser ------------------------------------------------------------------


def _add_common(p, ledger=True):
    p.add_argument("--seed", type=int, default=0)
    if ledger:
        p.add_argument("--ledger", default=None,
                       help="JSONL ledger file to append this spend to")
        p.add_argument("--cap", default=None,
                       help="ledger cap as 'epsilon[,delta]'")
        p.add_argument("--tag", default=None,
                       help="partition tag for parallel composition")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpkit",
        description="Differentially private statistics and models")
    sub = parser.add_subparsers(dest="cmd", required=True)

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
    st.add_argument("--neighbor", choices=["bounded", "unbounded", "both"],
                    default="bounded")
    st.add_argument("--q", type=float, default=0.5)
    st.add_argument("--left-endpoint", action="store_true",
                    help="return interval endpoints instead of sampling")
    st.add_argument("--breaks", default="10")
    st.add_argument("--normalize", action="store_true")
    st.add_argument("--allow-negative", action="store_true")
    st.add_argument("--categories", default=None,
                    help="per factor: comma-separated labels, factors "
                         "separated by semicolons")
    st.add_argument("--approx-n-max", action="store_true")
    _add_common(st)
    st.set_defaults(handler=_cmd_stat)

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
                    default="output")
    ft.add_argument("--add-bias", action="store_true")
    ft.add_argument("--kernel", choices=["linear", "gaussian"],
                    default="linear")
    ft.add_argument("--rff-dim", type=int, default=None)
    ft.add_argument("--kernel-param", type=float, default=None)
    ft.add_argument("--huber-h", type=float, default=0.5)
    ft.add_argument("--weights-column", default=None)
    ft.add_argument("--weight-upper-bound", type=float, default=1.0)
    ft.add_argument("--output", required=True, help="model JSON path")
    _add_common(ft)
    ft.set_defaults(handler=_cmd_fit)

    pr = sub.add_parser("predict", help="apply a saved model (costs nothing)")
    pr.add_argument("--model", required=True)
    pr.add_argument("--input", required=True)
    pr.add_argument("--feature-columns", required=True)
    pr.add_argument("--raw", action="store_true")
    _add_common(pr, ledger=False)
    pr.set_defaults(handler=_cmd_predict)

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
                    default="output")
    tn.add_argument("--huber-h", type=float, default=0.5)
    tn.add_argument("--add-bias", action="store_true")
    tn.add_argument("--output", required=True)
    _add_common(tn)
    tn.set_defaults(handler=_cmd_tune)

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
    mc.add_argument("--neighbor", choices=["bounded", "unbounded"],
                    default="bounded")
    _add_common(mc)
    mc.set_defaults(handler=_cmd_mech)

    bd = sub.add_parser("budget", help="inspect or check a ledger")
    bd.add_argument("action", choices=["report", "check"])
    bd.add_argument("--ledger", required=True)
    bd.add_argument("--cap", default=None)
    bd.add_argument("--seed", type=int, default=0)
    bd.set_defaults(handler=_cmd_budget)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.handler(args)
    except BudgetExhaustedError as exc:
        print(f"dpkit: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"dpkit: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
