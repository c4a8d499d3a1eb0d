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
     undeclared category labels, missing or unreadable files, a flag its
     subject does not read, --cap or --tag without --ledger, a classifier
     fit whose solver did not converge, a report value that is not finite)
  4  privacy budget exhausted
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import re
import sys
from contextlib import contextmanager

import numpy as np

from .accountant import BudgetExhaustedError, BudgetLedger, exceeds_cap
from .erm import ErmConfig
from .mechanisms import (APPROXIMATE, PROBABILISTIC, BudgetAllocation,
                         PrivacyBudget, RandomSource, exponential_mechanism,
                         gaussian_mechanism, laplace_mechanism)
from .models import (TrainedModel, fit_linreg, fit_logistic, fit_svm, predict)
from .stats import (Bounds, HistogramSpec, StatRequest, cov_dp, histogram_dp,
                    mean_dp, pooled_cov_dp, pooled_var_dp, quantile_dp,
                    require_bounded, sd_dp, table_dp, var_dp)
from .tuning import Candidate, tune_classification, tune_linreg

# -- what each subject reads -------------------------------------------------

# The flags that not every subject of a command reads: command -> flag ->
# (default, the subjects that read it). A subject is a statistic, model,
# mechanism or budget action. Their parser default is None, so a flag given
# to a subject that does not read it is refused rather than dropped, and a
# _REQUIRED flag its subject reads must be given. tune shares fit's entries;
# a flag absent from a command's parser takes its default. _CONDITIONS maps
# a flag read only under a condition on other flags to the condition's text
# and its test of the args.
_REQUIRED = object()
_SCALARS = ("mean", "var", "sd", "cov", "pooled-var", "pooled-cov")
_SUBJECT_FLAGS = {
    "stat": {
        "column": (_REQUIRED, ("mean", "var", "sd", "pooled-var",
                               "quantile", "median", "histogram")),
        "columns": (_REQUIRED, ("cov", "pooled-cov", "table")),
        "group-column": (_REQUIRED, ("pooled-var", "pooled-cov")),
        "bounds": (_REQUIRED, _SCALARS + ("quantile", "median")),
        "mechanism": (None, _SCALARS + ("histogram", "table")),
        "q": (0.5, ("quantile",)),
        "breaks": (_REQUIRED, ("histogram",)),
        "normalize": (False, ("histogram",)),
        "allow-negative": (False, ("histogram", "table")),
        "categories": (_REQUIRED, ("table",)),
        "approx-n-max": (False, ("pooled-var", "pooled-cov")),
    },
    "fit": {
        "method": ("output", ("logit", "svm")),
        "weight-upper-bound": (1.0, ("svm",)),
        "huber-h": (0.5, ("svm",)),
        "kernel": ("linear", ("svm",)),
        "weights-column": (None, ("svm",)),
        "rff-dim": (None, ("svm",)),
        "kernel-param": (None, ("svm",)),
    },
    "mech": {
        "values": (_REQUIRED, ("laplace", "gaussian")),
        "sensitivities": (_REQUIRED, ("laplace", "gaussian")),
        "utility": (_REQUIRED, ("exponential",)),
        "measure": (None, ("exponential",)),
        "sensitivity": (1.0, ("exponential",)),
        "alloc": (None, ("laplace", "gaussian")),
    },
    "budget": {"cap": (_REQUIRED, ("check",))},
}
_SUBJECT_FLAGS["tune"] = _SUBJECT_FLAGS["fit"]
_GAUSSIAN = (", with --kernel gaussian", lambda a: a.kernel == "gaussian")
_CONDITIONS = {"rff-dim": _GAUSSIAN, "kernel-param": _GAUSSIAN,
               "weight-upper-bound": (", with --weights-column",
                                      lambda a: a.weights_column is not None),
               "weights-column": (", with --method output",
                                  lambda a: a.method == "output")}


def _subject_flags(args, subject: str) -> None:
    """Refuse each flag of ``args`` that ``subject`` does not read, refuse a
    required flag it reads that was left out, and give the other flags it
    reads that were left out their defaults."""
    for flag, (default, readers) in _SUBJECT_FLAGS[args.cmd].items():
        dest = flag.replace("-", "_")
        needs, met = _CONDITIONS.get(flag, ("", None))
        if getattr(args, dest, None) is None:
            if subject in readers and default is _REQUIRED:
                raise ValueError(f"--{flag} is required")
            setattr(args, dest, default if subject in readers else None)
        elif subject not in readers or not (met is None or met(args)):
            raise ValueError(f"--{flag} applies to {args.cmd} "
                             f"{'|'.join(readers)} only{needs}")


# -- parsing helpers ---------------------------------------------------------


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


# numpy's C tokenizer reads the CSV dialect of the csv module's default:
# comma separated, '"' quotes ('""' inside them), no comments.
_CSV = {"delimiter": ",", "quotechar": '"', "comments": None, "ndmin": 1}
# The longest field dpkit reads, in characters: the csv module's default
# field size limit.
_FIELD_LIMIT = 131_072
_UNREADABLE = ("input is not UTF-8 CSV text, or a field of it is over the "
               "csv field size limit")
_EMPTY = "input CSV is empty; a header row is required"


# Fields as numpy's tokenizer reads them: a quote opens a quoted part only
# at the start of a field, '""' in it is one quote, and the text after its
# closing quote runs on to the next comma or line end, quotes read as they
# are. _RECORD is a line of whole fields, every quoted part closed.
_QUOTED = re.compile(r'[^"]*(?:""[^"]*)*')
_UNQUOTED = re.compile(r"[^,\r\n]*")
_FIELD = rf'(?:"{_QUOTED.pattern}"(?!")|(?!")){_UNQUOTED.pattern}'
_RECORD = re.compile(rf"{_FIELD}(?:,{_FIELD})*\r?\n?")


def _lines(fh):
    """The lines of ``fh``, refusing a field over _FIELD_LIMIT characters.

    A line no longer than the limit that starts outside a quoted field and
    closes each quoted part it opens holds whole fields no longer than
    itself. Any other line is measured field by field, and a quoted field
    left open at its end carries its length on to the next line, so the
    limit applies to a field however many lines it spans."""
    open_field = None
    for line in fh:
        if (open_field is not None or len(line) > _FIELD_LIMIT
                or '"' in line and not _RECORD.fullmatch(line)):
            open_field = _open_field(line, open_field)
        yield line


def _open_field(line: str, open_field):
    """The length of the quoted field left open at the end of ``line``, or
    None when the line ends its record. ``open_field`` is the length of the
    quoted field open at its start, or None. A field over _FIELD_LIMIT
    characters, its quotes not counted, is refused."""
    pos = 0
    while True:
        if open_field is None and not line.startswith('"', pos):
            length = 0
        else:
            if open_field is None:  # a quoted part opens here
                open_field, pos = 0, pos + 1
            body = _QUOTED.match(line, pos)
            open_field += len(body[0]) - body[0].count('"') // 2
            if open_field > _FIELD_LIMIT:
                raise ValueError(_UNREADABLE)
            if body.end() == len(line):  # the field goes on to the next line
                return open_field
            length, pos = open_field, body.end() + 1
        rest = _UNQUOTED.match(line, pos)
        if length + len(rest[0]) > _FIELD_LIMIT:
            raise ValueError(_UNREADABLE)
        open_field, pos = None, rest.end() + 1
        if not line.startswith(",", rest.end()):
            return None


def _rows(lines):
    """``lines`` from the first that is not blank on, or None when every
    line is blank: numpy's parser skips blank lines, but warns when no row
    is left."""
    for line in lines:
        if line.strip("\r\n"):
            return itertools.chain((line,), lines)
    return None


def _refusal(exc: ValueError, header: list[str]) -> ValueError:
    """The error to raise for ``exc``, raised while the input was read.

    dpkit's own errors are raised as they are. The decoder's message quotes
    a byte and its offset, and numpy's parser quotes a cell and numbers its
    row, so of theirs only the fact stated is kept: a row as wide as no
    header, or a column with a cell that is not a number. Any other is
    input that is not CSV text."""
    message = str(exc)
    if message in (_EMPTY, _UNREADABLE):
        return exc
    ragged = re.match(r"the dtype passed requires \d+ columns but (\d+) "
                      "were found", message)
    if ragged:
        return ValueError(f"a row of the input has {ragged[1]} fields; the "
                          f"header has {len(header)}")
    cell = re.match(r"could not convert string .*, column (\d+)\.$",
                    message)
    if cell:
        return ValueError(f"column {header[int(cell[1]) - 1]!r} contains "
                          "non-numeric values")
    return ValueError(_UNREADABLE)


@contextmanager
def _text_input(path: str):
    """The CSV input ``path`` as UTF-8 text with its line ends kept. For
    ``-`` that is stdin's bytes, decoded so whatever locale the interpreter
    opened stdin under, and left open; a stdin with no byte layer is read
    as it is."""
    if path != "-":
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
        return
    raw = getattr(sys.stdin, "buffer", None)
    if raw is None:
        yield sys.stdin
        return
    fh = io.TextIOWrapper(raw, encoding="utf-8", newline="")
    try:
        yield fh
    finally:
        fh.detach()  # closing the wrapper would close stdin


def _read_csv(path: str, numbers=(), labels=()) -> dict:
    """Columns of a CSV file (or stdin for ``-``) by header name, parsed in
    one pass of numpy's C tokenizer.

    The columns named in ``numbers`` come back as float arrays, parsed by
    numpy's float grammar, and those in ``labels`` as lists of str; given
    neither, every column comes back as text. A column named in both comes
    back as text, for ``_numeric_column`` to cast. Every other column is parsed
    into a one-character placeholder and dropped, so each row must still be
    exactly as wide as the header; a row that is not is an error, which
    names no row. A named column the header lacks is left out. A header row
    is required and blank lines are skipped. Of two columns with one name
    the last wins. A cell that is not a number refuses its column by a
    message that names the column only. Bytes that are not UTF-8 and a
    field over _FIELD_LIMIT characters are one error, which names the input
    only: the decoder's message quotes a byte and its offset.
    """
    if not numbers and not labels:
        numbers, labels = (), None
    header = []
    with _text_input(path) as fh:
        try:
            # No field of a file of at most _FIELD_LIMIT bytes can pass it.
            small = (path != "-"
                     and os.fstat(fh.fileno()).st_size <= _FIELD_LIMIT)
            lines = fh if small else _lines(fh)
            rows = _rows(lines)
            if rows is None:
                raise ValueError(_EMPTY)
            header = np.loadtxt(rows, dtype=object, max_rows=1,
                                **_CSV).tolist()
            # Of two columns with one name, the last is read.
            last = {name: i for i, name in enumerate(header)}
            read = {i: name for name, i in last.items()
                    if labels is None or name in numbers or name in labels}
            kinds = {i: object if labels is None or name in labels
                     else np.float64 for i, name in read.items()}
            dtype = [(f"c{i}", kinds.get(i, "U1"))
                     for i in range(len(header))]
            rows = _rows(lines)
            table = None if rows is None else np.loadtxt(rows, dtype=dtype,
                                                         **_CSV)
        except ValueError as exc:  # UnicodeDecodeError too
            raise _refusal(exc, header) from None
    columns = {}
    for i, name in read.items():
        numeric = kinds[i] is np.float64
        if table is None:
            columns[name] = np.empty(0) if numeric else []
        else:
            field = table[f"c{i}"]
            columns[name] = field.copy() if numeric else field.tolist()
    return columns


def _column(columns: dict, name: str):
    if name not in columns:
        raise ValueError(f"no column named {name!r} in the input")
    return columns[name]


def _numeric_column(columns: dict, name: str) -> np.ndarray:
    """The column ``name`` of a ``_read_csv`` result as floats. A column
    read as labels too is text, which numpy's str cast reads by float()'s
    grammar. A cell that is not a number, NaN included, refuses the column
    by a message that names it only."""
    cells = _column(columns, name)
    try:
        values = np.asarray(cells, dtype=np.float64)
    except ValueError:
        values = None
    if values is None or np.isnan(values).any():
        raise ValueError(f"column {name!r} contains non-numeric values")
    return values


def _budget(args) -> PrivacyBudget:
    """The budget of --epsilon, --delta and --variant; a --variant with no
    --delta is refused rather than dropped."""
    if not args.delta:
        if args.variant is not None:
            raise ValueError("--variant applies only with a positive --delta")
        return PrivacyBudget(args.epsilon)
    return PrivacyBudget(args.epsilon, args.delta,
                         args.variant or APPROXIMATE)


def _report(command: str, result, epsilon: float, delta: float) -> str:
    """The run report as strict JSON text: a value that is not finite
    raises ValueError rather than print as NaN or Infinity."""
    # No seed: whoever knows it can replay the noise and subtract it.
    return json.dumps({"command": command, "epsilon_used": epsilon,
                       "delta_used": delta, "result": result},
                      sort_keys=True, indent=2, allow_nan=False)


def _release(args, command: str, epsilon: float, delta: float,
             result) -> str:
    """Build the report, then charge (epsilon, delta) to --ledger under
    --cap, and return the report.

    The one path by which a command that spends budget reports: a report
    that cannot be printed and a refused charge raise before anything is
    charged, printed or written, and so does a --cap or --tag without a
    --ledger to hold it.
    """
    cap = None if args.cap is None else _parse_cap(args.cap)
    if cap is not None and not args.ledger:
        raise ValueError("--cap needs --ledger; without a ledger no cap "
                         "can be enforced")
    if args.tag is not None and not args.ledger:
        raise ValueError("--tag needs --ledger; without a ledger no tag "
                         "is recorded")
    report = _report(command, result, epsilon, delta)
    if args.ledger:
        BudgetLedger.charge(args.ledger, command, epsilon, delta, args.tag,
                            cap)
    return report


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


def _cmd_stat(args) -> str:
    name = args.statistic
    _subject_flags(args, name)
    names = [] if args.columns is None else args.columns.split(",")
    if name == "table":
        columns = _read_csv(args.input, labels=names)
    else:
        columns = _read_csv(
            args.input, names if args.column is None else [args.column],
            [] if args.group_column is None else [args.group_column])
    budget = _budget(args)
    req = StatRequest(budget, args.mechanism, args.neighbor)
    rng = RandomSource(args.seed)
    x = None if args.column is None else _numeric_column(columns, args.column)
    if name.endswith("cov") and len(names) != 2:
        raise ValueError("--columns needs two column names, comma separated")
    bounds = (None if args.bounds is None else
              _parse_bounds(args.bounds, 2 if name.endswith("cov") else 1))

    if name in ("mean", "var", "sd"):
        fn = {"mean": mean_dp, "var": var_dp, "sd": sd_dp}[name]
        released = fn(x, bounds[0], req, rng)
    elif name in ("cov", "pooled-cov"):
        x1, x2 = (_numeric_column(columns, c) for c in names)
        if name == "cov":
            released = cov_dp(x1, x2, *bounds, req, rng)
        else:
            groups = _groups(columns, np.column_stack([x1, x2]),
                             args.group_column)
            released = pooled_cov_dp(groups, *bounds, req, rng,
                                     args.approx_n_max)
    elif name == "pooled-var":
        released = pooled_var_dp(_groups(columns, x, args.group_column),
                                 bounds[0], req, rng, args.approx_n_max)
    elif name in ("quantile", "median"):  # under their own pure-budget rule
        require_bounded(name, args.neighbor)
        q = 0.5 if name == "median" else args.q
        released = quantile_dp(x, q, budget, bounds[0], rng=rng)
    elif name == "histogram":
        spec = HistogramSpec(_parse_floats(args.breaks), args.normalize,
                             args.allow_negative)
        released = histogram_dp(x, spec, req, rng)
    else:  # table; argparse restricts the choices
        categories = [part.split(",") for part in args.categories.split(";")]
        released = table_dp([_column(columns, c) for c in names],
                            categories, req, rng, args.allow_negative, names)

    return _release(args, f"stat {name}", budget.epsilon, budget.delta,
                    _stat_payload(released))


# -- fit / tune / predict ----------------------------------------------------


def _features(columns, args) -> np.ndarray:
    return np.column_stack([_numeric_column(columns, c)
                            for c in args.feature_columns.split(",")])


def _training_set(args):
    """The input's columns, features, labels and bounds of a fit or tune;
    an svm given no --bounds gets None, as its Gaussian kernel needs."""
    columns = _read_csv(args.input, args.feature_columns.split(",") + [
        c for c in (args.label_column, args.weights_column) if c is not None])
    X = _features(columns, args)
    y = _numeric_column(columns, args.label_column)
    pairs = X.shape[1] + (args.model == "linreg")
    bounds = (_parse_bounds(args.bounds, pairs)
              if args.bounds or args.model != "svm" else None)
    return columns, X, y, bounds


def _fitter(args, columns, bounds, budget, gamma):
    """fit(X, y, rng) -> TrainedModel of ``args.model`` at (budget, gamma):
    the model ``fit`` trains, and each candidate ``tune`` trains."""
    if args.model == "linreg":
        return lambda X, y, rng: fit_linreg(X, y, bounds, budget, gamma,
                                            args.add_bias, rng)
    cfg = ErmConfig(budget, gamma, args.method)
    if args.model == "logit":
        return lambda X, y, rng: fit_logistic(X, y, bounds, cfg,
                                              args.add_bias, rng)
    weights = (_numeric_column(columns, args.weights_column)
               if args.weights_column else None)
    return lambda X, y, rng: fit_svm(X, y, bounds, cfg, args.kernel,
                                     args.rff_dim, args.kernel_param,
                                     args.huber_h, weights,
                                     args.weight_upper_bound, args.add_bias,
                                     rng)


def _cmd_fit(args) -> str:
    _subject_flags(args, args.model)
    columns, X, y, bounds = _training_set(args)
    rng = RandomSource(args.seed)
    budget = _budget(args)
    model = _fitter(args, columns, bounds, budget, args.gamma)(X, y, rng)
    report = _release(
        args, f"fit {args.model}", budget.epsilon, budget.delta,
        {"model_path": args.output, "kind": model.kind,
         "coefficients": [float(c) for c in model.coefficients]})
    model.save(args.output)
    return report


def _cmd_tune(args) -> str:
    _subject_flags(args, args.model)
    train_budget = PrivacyBudget(args.epsilon_train)
    select_budget = PrivacyBudget(args.epsilon_select)
    # Disjoint folds: the m training releases compose in parallel, then the
    # selection composes sequentially on top.
    eps_total = train_budget.epsilon + select_budget.epsilon
    if eps_total == math.inf:
        raise ValueError("--epsilon-train plus --epsilon-select must be "
                         "finite")
    columns, X, y, bounds = _training_set(args)
    rng = RandomSource(args.seed)
    candidates = [Candidate(f"gamma={g}", _fitter(args, columns, bounds,
                                                  train_budget, g))
                  for g in map(float, args.gammas.split(","))]
    if args.model == "linreg":
        result = tune_linreg(candidates, X, y, bounds[-1], select_budget, rng)
    else:
        result = tune_classification(candidates, X, y, select_budget, rng)

    report = _release(args, f"tune {args.model}", eps_total, 0.0,
                      {"model_path": args.output, "selected": result.name,
                       "index": result.index})
    result.model.save(args.output)
    return report


def _cmd_predict(args) -> str:
    # Post-processing of a released model: reads no ledger, spends nothing.
    model = TrainedModel.load(args.model)
    columns = _read_csv(args.input, args.feature_columns.split(","))
    values = predict(model, _features(columns, args), raw_value=args.raw)
    return _report("predict",
                   {"predictions": [float(v) for v in values]}, 0.0, 0.0)


# -- mech --------------------------------------------------------------------


def _cmd_mech(args) -> str:
    _subject_flags(args, args.mechanism)
    budget = _budget(args)
    rng = RandomSource(args.seed)

    if args.mechanism == "exponential":
        measure = _parse_floats(args.measure) if args.measure else None
        idx = exponential_mechanism(_parse_floats(args.utility), budget,
                                    args.sensitivity, measure, rng)
        result = {"index": idx}
    else:
        alloc = (BudgetAllocation(_parse_floats(args.alloc))
                 if args.alloc else None)
        mechanism = (laplace_mechanism if args.mechanism == "laplace"
                     else gaussian_mechanism)
        out = mechanism(_parse_floats(args.values), budget,
                        _parse_floats(args.sensitivities), alloc, rng)
        result = {"values": out.tolist()}

    return _release(args, f"mech {args.mechanism}", budget.epsilon,
                    budget.delta, result)


# -- budget ------------------------------------------------------------------


def _cmd_budget(args) -> str:
    _subject_flags(args, args.action)
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


def _add_budget_flags(p):
    """--epsilon, --delta and --variant: the budget of a release."""
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--variant", choices=[APPROXIMATE, PROBABILISTIC])


def _add_common(p):
    """Flags of the commands that draw noise and spend budget."""
    p.add_argument("--seed", type=int, help=_SEED_HELP)
    p.add_argument("--ledger",
                   help="JSONL ledger file to append this spend to")
    p.add_argument("--cap", help=_CAP_HELP)
    p.add_argument("--tag", help="partition tag for parallel composition")


def _add_stat(sub):
    st = sub.add_parser("stat", help="release a private statistic")
    st.add_argument("statistic", choices=[
        "mean", "var", "sd", "cov", "pooled-var", "pooled-cov",
        "quantile", "median", "histogram", "table"])
    st.add_argument("--input", required=True, help="CSV path or - for stdin")
    st.add_argument("--column")
    st.add_argument("--columns", help="column names, comma separated: two "
                    "for cov and pooled-cov, any number for table")
    st.add_argument("--group-column")
    st.add_argument("--bounds", help="'lower,upper' per column, semicolon "
                    "separated for multiple columns")
    _add_budget_flags(st)
    st.add_argument("--mechanism", choices=["laplace", "gaussian"],
                    help="default: gaussian with --delta, else laplace")
    st.add_argument("--neighbor", choices=["bounded", "unbounded"],
                    default="bounded",
                    help="unbounded (a row added or removed) applies to "
                         "histogram and table only")
    st.add_argument("--q", type=float, help="quantile; default 0.5")
    st.add_argument("--breaks",
                    help="histogram edges, comma separated and ascending")
    st.add_argument("--normalize", action="store_true", default=None)
    st.add_argument("--allow-negative", action="store_true", default=None)
    st.add_argument("--categories",
                    help="per factor: comma-separated labels, factors "
                         "separated by semicolons")
    st.add_argument("--approx-n-max", action="store_true", default=None)
    _add_common(st)
    st.set_defaults(handler=_cmd_stat)


def _add_fit(sub):
    ft = sub.add_parser("fit", help="train a private model")
    ft.add_argument("model", choices=["logit", "svm", "linreg"])
    ft.add_argument("--input", required=True)
    ft.add_argument("--label-column", required=True)
    ft.add_argument("--feature-columns", required=True)
    ft.add_argument("--bounds")
    _add_budget_flags(ft)
    ft.add_argument("--gamma", type=float, required=True)
    ft.add_argument("--method", choices=["output", "objective"],
                    help="logit and svm; default output")
    ft.add_argument("--add-bias", action="store_true")
    ft.add_argument("--kernel", choices=["linear", "gaussian"],
                    help="svm; default linear")
    ft.add_argument("--rff-dim", type=int, help="svm with --kernel gaussian")
    ft.add_argument("--kernel-param", type=float,
                    help="svm with --kernel gaussian; default 1/p")
    ft.add_argument("--huber-h", type=float, help="svm; default 0.5")
    ft.add_argument("--weights-column", help="svm with --method output")
    ft.add_argument("--weight-upper-bound", type=float,
                    help="svm with --weights-column; default 1")
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
                    help="logit and svm; default output")
    tn.add_argument("--huber-h", type=float, help="svm; default 0.5")
    tn.add_argument("--add-bias", action="store_true")
    tn.add_argument("--output", required=True)
    _add_common(tn)
    tn.set_defaults(handler=_cmd_tune)


def _add_mech(sub):
    mc = sub.add_parser("mech", help="run a raw mechanism")
    mc.add_argument("mechanism", choices=["laplace", "gaussian",
                                          "exponential"])
    mc.add_argument("--values")
    mc.add_argument("--sensitivities")
    mc.add_argument("--utility")
    mc.add_argument("--measure")
    mc.add_argument("--sensitivity", type=float, help="exponential; default 1")
    mc.add_argument("--alloc")
    _add_budget_flags(mc)
    _add_common(mc)
    mc.set_defaults(handler=_cmd_mech)


def _add_budget(sub):
    bd = sub.add_parser("budget", help="inspect or check a ledger")
    bd.add_argument("action", choices=["report", "check"])
    bd.add_argument("--ledger", required=True)
    bd.add_argument("--cap", help=_CAP_HELP)
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
        text = args.handler(args)
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
