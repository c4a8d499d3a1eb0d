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
from dataclasses import dataclass

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
    gammas = _parse_floats(args.gammas).tolist()
    columns, X, y, bounds = _training_set(args)
    rng = RandomSource(args.seed)
    candidates = [Candidate(f"gamma={g}", _fitter(args, columns, bounds,
                                                  train_budget, g))
                  for g in gammas]
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


# -- what each command accepts -----------------------------------------------

# A subject is the choice of a command's positional argument: a statistic,
# model, mechanism or budget action.
_REQUIRED = object()
_SCALARS = ("mean", "var", "sd", "cov", "pooled-var", "pooled-cov")
_CAP_HELP = "ledger cap as 'epsilon[,delta]'; delta defaults to 0"


@dataclass(frozen=True)
class _Flag:
    """An argument of a command: its name and add_argument keywords. A flag
    that not every subject reads also names the subjects that read it, the
    value it takes when left out (_REQUIRED: none), and ``when``, the
    condition under which they read it: '--other value', or '--other' for
    any value given. The other flag is declared before it."""
    name: str
    kwargs: dict
    readers: tuple = ()
    left_out: object = None
    when: str = ""


def _flag(name: str, readers: tuple = (), left_out=None, when: str = "",
          **kwargs) -> _Flag:
    """The _Flag of ``name``. A flag with readers has the parser default
    None, so that given to a subject that does not read it, it is refused
    rather than dropped, and a help text that names its readers, condition
    and default."""
    if readers:
        parts = [kwargs.get("help"), f"applies to {', '.join(readers)}"
                 + (f" with {when}" if when else "")]
        if left_out is _REQUIRED:
            parts.append("required")
        elif left_out is not None and left_out is not False:
            parts.append(f"default {left_out}")
        kwargs.update(default=None, help="; ".join(filter(None, parts)))
    return _Flag(name, kwargs, readers, left_out, when)


# A release's budget, and the flags of every command that spends budget.
_BUDGET = (_flag("--epsilon", type=float, required=True),
           _flag("--delta", type=float, default=0.0),
           _flag("--variant", choices=[APPROXIMATE, PROBABILISTIC]))
_SPEND = (_flag("--seed", type=int, help="seed of the noise stream, for "
                "replay and tests; anyone who knows it can remove the noise "
                "from the output. Without it each run seeds PCG64 (not a "
                "cryptographic generator) from fresh OS entropy"),
          _flag("--ledger", help="JSONL ledger file to append this spend to"),
          _flag("--cap", help=_CAP_HELP),
          _flag("--tag", help="partition tag for parallel composition"))
# Arguments fit and tune share; predict shares two of them.
_MODEL = _flag("model", choices=["logit", "svm", "linreg"])
_INPUT = _flag("--input", required=True, help="CSV path or - for stdin")
_LABEL = _flag("--label-column", required=True)
_FEATURES = _flag("--feature-columns", required=True)
_METHOD = _flag("--method", ("logit", "svm"), "output",
                choices=["output", "objective"])
_ADD_BIAS = _flag("--add-bias", action="store_true")
_HUBER_H = _flag("--huber-h", ("svm",), 0.5, type=float)
_OUTPUT = _flag("--output", required=True, help="model JSON path")

# Subcommand name -> (its help, its handler, its arguments in parser
# order), in help order.
_COMMANDS = {
    "stat": ("release a private statistic", _cmd_stat, (
        _flag("statistic", choices=[*_SCALARS, "quantile", "median",
                                    "histogram", "table"]),
        _INPUT,
        _flag("--column", ("mean", "var", "sd", "pooled-var", "quantile",
                           "median", "histogram"), _REQUIRED),
        _flag("--columns", ("cov", "pooled-cov", "table"), _REQUIRED,
              help="column names, comma separated: two for cov and "
                   "pooled-cov, any number for table"),
        _flag("--group-column", ("pooled-var", "pooled-cov"), _REQUIRED),
        _flag("--bounds", (*_SCALARS, "quantile", "median"), _REQUIRED,
              help="'lower,upper' per column, semicolon separated for "
                   "multiple columns"),
        *_BUDGET,
        _flag("--mechanism", (*_SCALARS, "histogram", "table"),
              choices=["laplace", "gaussian"],
              help="gaussian with --delta, else laplace when left out"),
        _flag("--neighbor", choices=["bounded", "unbounded"],
              default="bounded", help="unbounded (a row added or removed) "
              "applies to histogram and table only"),
        _flag("--q", ("quantile",), 0.5, type=float, help="quantile"),
        _flag("--breaks", ("histogram",), _REQUIRED,
              help="histogram edges, comma separated and ascending"),
        _flag("--normalize", ("histogram",), False, action="store_true"),
        _flag("--allow-negative", ("histogram", "table"), False,
              action="store_true"),
        _flag("--categories", ("table",), _REQUIRED,
              help="per factor: comma-separated labels, factors separated "
                   "by semicolons"),
        _flag("--approx-n-max", ("pooled-var", "pooled-cov"), False,
              action="store_true"),
        *_SPEND)),
    "fit": ("train a private model", _cmd_fit, (
        _MODEL, _INPUT, _LABEL, _FEATURES, _flag("--bounds"), *_BUDGET,
        _flag("--gamma", type=float, required=True), _METHOD, _ADD_BIAS,
        _flag("--kernel", ("svm",), "linear", choices=["linear", "gaussian"]),
        _flag("--rff-dim", ("svm",), when="--kernel gaussian", type=int),
        _flag("--kernel-param", ("svm",), when="--kernel gaussian",
              type=float,
              help="beta of the kernel exp(-beta |x-y|^2); 1/p when left out"),
        _HUBER_H, _flag("--weights-column", ("svm",), when="--method output"),
        _flag("--weight-upper-bound", ("svm",), 1.0, when="--weights-column",
              type=float),
        _OUTPUT, *_SPEND)),
    "predict": ("apply a saved model (costs nothing)", _cmd_predict, (
        _flag("--model", required=True), _INPUT, _FEATURES,
        _flag("--raw", action="store_true"))),
    "tune": ("private selection over a gamma grid", _cmd_tune, (
        _MODEL, _INPUT, _LABEL, _FEATURES, _flag("--bounds", required=True),
        _flag("--gammas", required=True),
        _flag("--epsilon-train", type=float, required=True),
        _flag("--epsilon-select", type=float, required=True),
        _METHOD, _HUBER_H, _ADD_BIAS, _OUTPUT, *_SPEND)),
    "mech": ("run a raw mechanism", _cmd_mech, (
        _flag("mechanism", choices=["laplace", "gaussian", "exponential"]),
        _flag("--values", ("laplace", "gaussian"), _REQUIRED),
        _flag("--sensitivities", ("laplace", "gaussian"), _REQUIRED),
        _flag("--utility", ("exponential",), _REQUIRED),
        _flag("--measure", ("exponential",)),
        _flag("--sensitivity", ("exponential",), 1.0, type=float),
        _flag("--alloc", ("laplace", "gaussian")),
        *_BUDGET, *_SPEND)),
    "budget": ("inspect or check a ledger", _cmd_budget, (
        _flag("action", choices=["report", "check"]),
        _flag("--ledger", required=True),
        _flag("--cap", ("check",), _REQUIRED, help=_CAP_HELP))),
}
# Command -> its flags that not every subject reads. tune checks fit's, so
# tune svm gets fit's defaults, --kernel linear too, for flags it lacks.
_SUBJECT_READS = {name: [flag for flag in arguments if flag.readers]
                  for name, (_, _, arguments) in _COMMANDS.items()}
_SUBJECT_READS["tune"] = _SUBJECT_READS["fit"]


def _subject_flags(args, subject: str) -> None:
    """Refuse each flag of ``args`` that ``subject`` does not read, refuse a
    required flag it reads that was left out, and give the other flags it
    reads that were left out their defaults."""
    for flag in _SUBJECT_READS[args.cmd]:
        dest = flag.name[2:].replace("-", "_")
        if getattr(args, dest, None) is None:
            if subject in flag.readers and flag.left_out is _REQUIRED:
                raise ValueError(f"{flag.name} is required")
            setattr(args, dest,
                    flag.left_out if subject in flag.readers else None)
        elif subject not in flag.readers or not _met(args, flag.when):
            raise ValueError(f"{flag.name} applies to {args.cmd} "
                             f"{'|'.join(flag.readers)} only"
                             + (f", with {flag.when}" if flag.when else ""))


def _met(args, when: str) -> bool:
    """Whether ``args`` meet a _Flag's condition ``when``."""
    other, _, value = when.partition(" ")
    given = getattr(args, other[2:].replace("-", "_"), None)
    return not when or (given == value if value else given is not None)


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
        summary, handler, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=summary)
        for argument in arguments:
            p.add_argument(argument.name, **argument.kwargs)
        p.set_defaults(handler=handler)
    return parser


def _stdout_to_devnull() -> None:
    """Point stdout's descriptor at os.devnull, Python's SIGPIPE idiom, so
    that the interpreter's flush of the unwritten report at exit fails no
    more. A stdout with no descriptor, such as a StringIO, is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):  # io.UnsupportedOperation too
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


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
    try:
        print(text, flush=True)
    except BrokenPipeError:  # the reader closed stdout; any charge stands
        _stdout_to_devnull()
        print("dpkit: stdout closed before the whole report was written",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
