"""Span tracer that times dpkit's layers from outside the package.

``Tracer.install`` replaces each traced dpkit function with a wrapper at
every place a caller looks it up: the module attribute of every dpkit module
that holds the function (``from .stats import mean_dp`` in ``cli`` leaves a
second reference that must be patched too) and the class dictionary for
methods. Nothing under ``src/`` changes; ``uninstall`` puts the originals
back.

Each call records a span (id, name, parent id, start, end); spans of one
benchmark operation share the root span opened by ``Tracer.operation``. The
self time of a span is its duration minus the time covered by its direct
children. Counters (rows read, ledger entries, uniforms, kernel elements,
solver evaluations) are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Per-layer metrics: name -> unit. The keys of ``Tracer.metrics``.
PER_LAYER = {
    "cli.ingest_s": "s",
    "cli.ingest_rows": "count",
    "cli.self_s": "s",
    "accountant.ledger_io_s": "s",
    "accountant.entries_read": "count",
    "accountant.entries_read_per_release": "count/release",
    "stats.self_s": "s",
    "stats.table_dp_s": "s",
    "stats.histogram_dp_s": "s",
    "stats.quantile_dp_s": "s",
    "mechanisms.self_s": "s",
    "mechanisms.uniforms": "count",
    "kernels.normal_quantile_s": "s",
    "kernels.laplace_noise_s": "s",
    "kernels.rff_features_s": "s",
    "kernels.elements": "count",
    "erm.minimize_s": "s",
    "erm.iterations": "count",
    "erm.fun_evals": "count",
    "erm.grad_evals": "count",
    "erm.evals_per_iteration": "evals/iter",
    "erm.unconverged": "count",
    "models.self_s": "s",
    "models.io_s": "s",
    "tuning.self_s": "s",
    "trace.round_s": "s",
}

_STATS_FUNCS = ("mean_dp", "var_dp", "sd_dp", "cov_dp", "pooled_var_dp",
                "pooled_cov_dp", "histogram_dp", "table_dp", "quantile_dp",
                "median_dp")
_MECH_FUNCS = ("laplace_mechanism", "gaussian_mechanism",
               "exponential_mechanism", "gaussian_sigma")
_KERNEL_FUNCS = ("normal_quantile", "laplace_noise", "rff_features")


def _size(shape) -> int:
    return 1 if shape is None else int(np.prod(shape))


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, parent, start, end)
        self.self_time = defaultdict(float)   # span name -> self seconds
        self.total_time = defaultdict(float)  # span name -> inclusive
        self.counts = defaultdict(int)
        self._stack: list[list] = []  # [id, child seconds]
        self._patches: list[tuple] = []
        self.enabled = True

    @contextmanager
    def paused(self):
        """Run checks through the patched functions without recording."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(None)
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.spans[span_id] = (span_id, name, parent, start, end)
            self.total_time[name] += duration
            self.self_time[name] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration

    def operation(self, name: str):
        """Root span of one benchmark operation."""
        return self.span("op." + name)

    def _wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(result, args, kwargs)
            return result
        return wrapper

    # -- installation --------------------------------------------------------

    def _patch_function(self, modules, owner, attr, name, observe=None,
                        impl=None):
        """Replace every module reference to ``owner.attr`` by a wrapper
        that runs ``impl`` (default: the original) inside a span."""
        original = getattr(owner, attr)
        wrapper = self._wrap(name, impl or original, observe)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, value))
                    setattr(module, key, wrapper)

    def _patch_method(self, cls, attr, name, observe=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            patched = classmethod(self._wrap(name, raw.__func__, observe))
        else:
            patched = self._wrap(name, raw, observe)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, patched)

    def install(self, dpkit) -> None:
        from dpkit import (_kernels, accountant, cli, erm, mechanisms, models,
                           stats, tuning)
        mods = [dpkit, _kernels, accountant, cli, erm, mechanisms, models,
                stats, tuning]
        counts = self.counts

        def rows_read(result, args, kwargs):
            counts["cli.ingest_rows"] += len(next(iter(result.values()), []))

        def entries_read(result, args, kwargs):
            counts["accountant.entries_read"] += len(result.entries)

        def release(result, args, kwargs):
            counts["accountant.records"] += 1

        def uniforms(result, args, kwargs):
            size = args[1] if len(args) > 1 else kwargs.get("size")
            counts["mechanisms.uniforms"] += _size(size)

        def elements(result, args, kwargs):
            counts["kernels.elements"] += int(np.size(result))

        def solved(result, args, kwargs):
            counts["erm.iterations"] += result.iterations
            counts["erm.unconverged"] += 0 if result.converged else 1

        self._patch_function(mods, cli, "main", "cli.main")
        self._patch_function(mods, cli, "_read_csv", "cli.read_csv",
                             rows_read)
        self._patch_function(mods, cli, "_numeric_column",
                             "cli.numeric_column")
        BudgetLedger = accountant.BudgetLedger
        self._patch_method(BudgetLedger, "load", "accountant.load",
                           entries_read)
        self._patch_method(BudgetLedger, "save", "accountant.save")
        self._patch_method(BudgetLedger, "record", "accountant.record",
                           release)
        for fn in _STATS_FUNCS:
            self._patch_function(mods, stats, fn, "stats." + fn)
        for fn in _MECH_FUNCS:
            self._patch_function(mods, mechanisms, fn, "mechanisms." + fn)
        self._patch_method(mechanisms.RandomSource, "uniform",
                           "mechanisms.uniform", uniforms)
        for fn in _KERNEL_FUNCS:
            self._patch_function(mods, _kernels, fn, "kernels." + fn,
                                 elements)
        for fn in ("erm_cms", "erm_kst"):
            self._patch_function(mods, erm, fn, "erm." + fn)
        self._patch_function(mods, erm, "minimize", "erm.minimize", solved,
                             self._counting_minimize(erm.minimize))
        for fn in ("fit_logistic", "fit_svm", "fit_linreg", "predict"):
            self._patch_function(mods, models, fn, "models." + fn)
        self._patch_method(models.TrainedModel, "save", "models.save")
        self._patch_method(models.TrainedModel, "load", "models.load")
        for fn in ("tune_classification", "tune_linreg"):
            self._patch_function(mods, tuning, fn, "tuning." + fn)

    def _counting_minimize(self, original):
        """``minimize`` with its objective and gradient wrapped in
        evaluation counters."""
        counts = self.counts

        def counted(key, fn):
            def inner(theta):
                if self.enabled:
                    counts[key] += 1
                return fn(theta)
            return inner

        @functools.wraps(original)
        def minimize(fun, grad, *args, **kwargs):
            return original(counted("erm.fun_evals", fun),
                            counted("erm.grad_evals", grad), *args, **kwargs)
        return minimize

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def _layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_time.items()
                   if name.split(".", 1)[0] == layer)

    def metrics(self, rounds: int, round_s: float) -> dict:
        """Per-layer metrics for one round (all rounds run the same
        operations, so totals divide exactly)."""
        st, tt, c = self.self_time, self.total_time, self.counts
        evals = c["erm.fun_evals"] + c["erm.grad_evals"]
        values = {
            "cli.ingest_s": tt["cli.read_csv"] + tt["cli.numeric_column"],
            "cli.ingest_rows": c["cli.ingest_rows"],
            "cli.self_s": st["cli.main"],
            "accountant.ledger_io_s": self._layer_self("accountant"),
            "accountant.entries_read": c["accountant.entries_read"],
            "stats.self_s": self._layer_self("stats"),
            "stats.table_dp_s": st["stats.table_dp"],
            "stats.histogram_dp_s": st["stats.histogram_dp"],
            "stats.quantile_dp_s": (st["stats.quantile_dp"]
                                    + st["stats.median_dp"]),
            "mechanisms.self_s": self._layer_self("mechanisms"),
            "mechanisms.uniforms": c["mechanisms.uniforms"],
            "kernels.normal_quantile_s": tt["kernels.normal_quantile"],
            "kernels.laplace_noise_s": tt["kernels.laplace_noise"],
            "kernels.rff_features_s": tt["kernels.rff_features"],
            "kernels.elements": c["kernels.elements"],
            "erm.minimize_s": tt["erm.minimize"],
            "erm.iterations": c["erm.iterations"],
            "erm.fun_evals": c["erm.fun_evals"],
            "erm.grad_evals": c["erm.grad_evals"],
            "erm.unconverged": c["erm.unconverged"],
            "models.self_s": self._layer_self("models"),
            "models.io_s": tt["models.save"] + tt["models.load"],
            "tuning.self_s": self._layer_self("tuning"),
        }
        out = {}
        for name, value in values.items():
            if PER_LAYER[name] == "count":
                out[name] = value // rounds if value % rounds == 0 \
                    else value / rounds
            else:
                out[name] = value / rounds
        releases = c["accountant.records"]
        out["accountant.entries_read_per_release"] = (
            c["accountant.entries_read"] / releases if releases else 0.0)
        iterations = c["erm.iterations"]
        out["erm.evals_per_iteration"] = (evals / iterations
                                          if iterations else 0.0)
        out["trace.round_s"] = round_s
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, parent, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "parent": parent, "start": start,
                                     "end": end}) + "\n")


def report(metrics: dict, out=sys.stderr) -> None:
    """Human-readable per-layer table (the JSON result goes to stdout)."""
    for name in PER_LAYER:
        print(f"  {name:40s} {metrics[name]:>14.6g} {PER_LAYER[name]}",
              file=out)
