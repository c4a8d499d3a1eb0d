"""The four workloads: seeded inputs, timed operations and their checks.

``generate`` runs in the benchmark's parent process. It writes the inputs
and the reference values (``truth.json`` plus ``.npy`` arrays) into the run
directory using numpy and scipy only. ``build`` runs in the worker process
that imports dpkit; it loads the inputs and returns a workload whose
``round()`` yields the operations of one round. Every round runs the same
operations with the same seeds, so per-round counts are exact and every
run fails the same share of operations.

Numbers are written to CSV as fixed-point decimals made from integers, so
the float dpkit parses is exactly ``k / 10**d``, the value the references
are computed from.
"""

from __future__ import annotations

import io
import json
import math
import os
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import checks
from checks import require

WORKLOADS = ("stat-1m", "fit-models", "release-stream", "marginals")

# dpkit's own --seed / RandomSource seed of the i-th release in a round is
# RELEASE_SEED + i whatever the workload seed, so the noise drawn and the
# solver's path change only through the generated data.
RELEASE_SEED = 7


class Op:
    """One operation: ``run`` is timed, ``check`` is not.

    ``may_refuse`` marks the release planned at the exact ledger cap: exit
    code 4 there is the named cap-arithmetic fault, counted as failed but
    not as incorrect.
    """

    def __init__(self, name, run, check, may_refuse=False):
        self.name = name
        self.run = run
        self.check = check
        self.may_refuse = may_refuse


def _decimals(k: np.ndarray, digits: int) -> list[str]:
    scale = 10 ** digits
    sign = np.where(k < 0, "-", "")
    a = np.abs(k)
    return [f"{s}{i}.{f:0{digits}d}" for s, i, f in
            zip(sign.tolist(), (a // scale).tolist(), (a % scale).tolist())]


def _write_csv(path, header, columns) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*columns))


def _save_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cli_runner(dp):
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = dp.cli.main(argv)
            except SystemExit as exc:  # argparse rejects a flag
                code = exc.code
        return code, out.getvalue(), err.getvalue()
    return run


def _report(output, command, epsilon, delta):
    code, out, err = output
    require(code == 0, f"{command} exited {code}: {err.strip()}")
    doc = json.loads(out)
    require(doc["command"] == command, f"report names {doc['command']}")
    require(doc["epsilon_used"] == epsilon and doc["delta_used"] == delta,
            f"{command} reports the wrong budget")
    return doc["result"]


# -- stat-1m -----------------------------------------------------------------
# One in-process CLI command per statistic family on a 1M-row CSV: ingest is
# ~95% of each command, so this is where CSV parsing shows.

STAT_ROWS = 1_000_000
STAT_GROUPS = "abcde"
STAT_LEVELS = "uvw"
STAT_BREAKS = [f"{i / 10:.1f}" for i in range(21)]  # y in [0, 2]


def _generate_stat(workdir, rng) -> None:
    n = STAT_ROWS
    kx = rng.integers(5_000_000, 10_000_001, n)    # x in [5, 10]
    ky = rng.integers(0, 2_000_001, n)              # y in [0, 2]
    g = rng.integers(0, len(STAT_GROUPS), n)
    h = rng.integers(0, len(STAT_LEVELS), n)
    _write_csv(os.path.join(workdir, "data.csv"), ["x", "y", "g", "h"],
               [_decimals(kx, 6), _decimals(ky, 6),
                np.array(list(STAT_GROUPS))[g].tolist(),
                np.array(list(STAT_LEVELS))[h].tolist()])
    x, y = kx / 1e6, ky / 1e6
    edges = np.array([float(b) for b in STAT_BREAKS])
    hist = np.bincount(np.clip(np.searchsorted(edges, y, side="right") - 1,
                               0, edges.size - 2), minlength=edges.size - 1)
    sizes = np.bincount(g, minlength=len(STAT_GROUPS))
    pooled = sum((np.count_nonzero(g == j) - 1) * np.var(x[g == j], ddof=1)
                 for j in range(len(STAT_GROUPS))) / (n - len(STAT_GROUPS))
    lo, hi = checks.em_quantile_interval(x, 5.0, 10.0, 0.5, 1.0)
    _save_json(os.path.join(workdir, "truth.json"), {
        "n": n, "mean_x": float(np.mean(x)),
        "var_y": float(np.var(y, ddof=1)),
        "cov_xy": float(np.cov(x, y, ddof=1)[0, 1]),
        "pooled_var_x": float(pooled), "n_max": int(sizes.max()),
        "hist_y": hist.tolist(),
        "table_gh": np.bincount(g * len(STAT_LEVELS) + h,
                                minlength=len(STAT_GROUPS) *
                                len(STAT_LEVELS)).tolist(),
        "median_x": [lo, hi]})


class StatWorkload:
    def __init__(self, workdir, dp):
        self.truth = _load_json(os.path.join(workdir, "truth.json"))
        self.csv = os.path.join(workdir, "data.csv")
        self.cli = _cli_runner(dp)

    def _op(self, i, statistic, flags, check, epsilon=1.0, delta=0.0):
        argv = ["stat", statistic, "--input", self.csv,
                "--epsilon", repr(epsilon), "--seed",
                str(RELEASE_SEED + i)] + flags
        if delta:
            argv += ["--delta", repr(delta), "--mechanism", "gaussian"]
        command = f"stat {statistic}"

        def verify(output):
            check(_report(output, command, epsilon, delta))
        return Op(command, lambda: self.cli(argv), verify)

    def round(self):
        t, n = self.truth, self.truth["n"]

        def scalar(key, sensitivity, epsilon=1.0, delta=0.0):
            def check(res):
                require(checks.close(res["sensitivity"], sensitivity),
                        f"{key}: sensitivity {res['sensitivity']} != "
                        f"{sensitivity}")
                if delta:
                    tail = checks.gaussian_tail(checks.gaussian_sigma(
                        sensitivity, epsilon, delta))
                else:
                    tail = checks.laplace_tail(sensitivity / epsilon)
                require(abs(res["value"] - t[key]) <= tail,
                        f"{key}: {res['value']} is not within {tail:.3g} of "
                        f"{t[key]}")
            return check

        def counts(key, shape):
            def check(res):
                require(res["sensitivity"] == checks.count_sensitivity(
                    "laplace"), f"{key}: wrong count sensitivity")
                require(np.shape(res["value"]) == shape,
                        f"{key}: released shape {np.shape(res['value'])}")
                checks.check_clamped_counts(
                    res["value"], t[key], "laplace",
                    checks.count_sensitivity("laplace") / 1.0)
            return check

        def median(res):
            lo, hi = t["median_x"]
            require(res["mechanism"] == "exponential",
                    "median: not the exponential mechanism")
            require(lo <= res["value"] <= hi,
                    f"median: {res['value']} outside the rank-error window "
                    f"[{lo}, {hi}]")

        def histogram(res):
            require(res["detail"]["edges"] == [float(b) for b in STAT_BREAKS],
                    "histogram: edges differ from the declared breaks")
            counts("hist_y", (len(STAT_BREAKS) - 1,))(res)

        k = len(STAT_GROUPS)
        yield self._op(0, "mean", ["--column", "x", "--bounds", "5,10"],
                       scalar("mean_x", 5.0 / n))
        yield self._op(1, "var", ["--column", "y", "--bounds", "0,2"],
                       scalar("var_y", 4.0 / n))
        yield self._op(2, "cov", ["--columns", "x,y", "--bounds", "5,10;0,2"],
                       scalar("cov_xy", 10.0 / n, 0.5, 1e-6), 0.5, 1e-6)
        yield self._op(3, "median", ["--column", "x", "--bounds", "5,10"],
                       median)
        yield self._op(4, "histogram", ["--column", "y", "--breaks",
                                        ",".join(STAT_BREAKS)], histogram)
        yield self._op(5, "table", ["--columns", "g,h", "--categories",
                                    f"{','.join(STAT_GROUPS)};"
                                    f"{','.join(STAT_LEVELS)}"],
                       counts("table_gh", (k, len(STAT_LEVELS))))
        m = t["n_max"]
        yield self._op(6, "pooled-var", ["--column", "x", "--group-column",
                                         "g", "--bounds", "5,10"],
                       scalar("pooled_var_x",
                              25.0 * (m - 1) / (m * (n - k))))

    def end_round(self):
        pass


# -- marginals ---------------------------------------------------------------
# Library table and histogram releases of 1M-cell count vectors: the noise
# kernels and the per-row table lookup do most of the work here.

TABLE_ROWS = 200_000
TABLE_CATS = 100
TABLE_FACTORS = 3
HIST_BINS = 1_000_000
HIST_VALUES = 200_000
GAUSS_BUDGET = (0.5, 1e-6)


def _generate_marginals(workdir, rng) -> None:
    codes = rng.integers(0, TABLE_CATS, (TABLE_FACTORS, TABLE_ROWS))
    k = rng.integers(0, HIST_BINS, HIST_VALUES)
    # Values sit at least 0.1 bin widths inside their bin, so bin membership
    # does not hinge on rounding of the edges.
    x = (k + rng.uniform(0.1, 0.9, HIST_VALUES)) / HIST_BINS
    np.save(os.path.join(workdir, "codes.npy"), codes.astype(np.int16))
    np.save(os.path.join(workdir, "x.npy"), x)
    flat = np.ravel_multi_index(tuple(codes), (TABLE_CATS,) * TABLE_FACTORS)
    np.save(os.path.join(workdir, "table.npy"),
            np.bincount(flat, minlength=TABLE_CATS ** TABLE_FACTORS))
    np.save(os.path.join(workdir, "histogram.npy"),
            np.bincount(k, minlength=HIST_BINS))
    lo, hi = checks.em_quantile_interval(x, 0.0, 1.0, 0.5, 1.0)
    _save_json(os.path.join(workdir, "truth.json"),
               {"median_x": [lo, hi]})


class MarginalsWorkload:
    def __init__(self, workdir, dp):
        self.dp = dp
        self.truth = _load_json(os.path.join(workdir, "truth.json"))
        labels = [f"c{j:02d}" for j in range(TABLE_CATS)]
        codes = np.load(os.path.join(workdir, "codes.npy"))
        self.factors = [[labels[c] for c in row] for row in codes.tolist()]
        self.categories = [labels] * TABLE_FACTORS
        self.x = np.load(os.path.join(workdir, "x.npy"))
        self.edges = np.linspace(0.0, 1.0, HIST_BINS + 1)
        # The exact counts are read only while a check runs, so they add
        # nothing to the memory a release needs.
        self.exact = {kind: os.path.join(workdir, f"{kind}.npy")
                      for kind in ("table", "histogram")}

    def _request(self, mechanism):
        m = self.dp.mechanisms
        if mechanism == "laplace":
            return self.dp.stats.StatRequest(m.PrivacyBudget(1.0))
        eps, delta = GAUSS_BUDGET
        return self.dp.stats.StatRequest(
            m.PrivacyBudget(eps, delta, m.APPROXIMATE), "gaussian")

    def _counts_op(self, i, kind, mechanism):
        dp, req = self.dp, self._request(mechanism)
        rng_seed = RELEASE_SEED + i
        if kind == "table":
            shape = (TABLE_CATS,) * TABLE_FACTORS

            def run():
                return dp.stats.table_dp(self.factors, self.categories, req,
                                         dp.mechanisms.RandomSource(rng_seed),
                                         allow_negative=True)
        else:
            shape = (HIST_BINS,)
            spec = dp.stats.HistogramSpec(self.edges, allow_negative=True)

            def run():
                return dp.stats.histogram_dp(
                    self.x, spec, req, dp.mechanisms.RandomSource(rng_seed))

        def check(res):
            sens = checks.count_sensitivity(mechanism)
            require(checks.close(res.sensitivity, sens),
                    f"{kind}: sensitivity {res.sensitivity} != {sens}")
            require(np.shape(res.value) == shape,
                    f"{kind}: released shape {np.shape(res.value)}")
            eps, delta = req.budget.epsilon, req.budget.delta
            scale = (sens / eps if mechanism == "laplace"
                     else checks.gaussian_sigma(sens, eps, delta))
            checks.check_noise_vector(res.value, np.load(self.exact[kind]),
                                      mechanism, scale)
        return Op(f"{kind}_dp {mechanism}", run, check)

    def round(self):
        yield self._counts_op(0, "table", "laplace")
        yield self._counts_op(1, "table", "gaussian")
        yield self._counts_op(2, "histogram", "laplace")
        yield self._counts_op(3, "histogram", "gaussian")
        dp, seed = self.dp, RELEASE_SEED + 4

        def run():
            return dp.stats.quantile_dp(
                self.x, 0.5, dp.mechanisms.PrivacyBudget(1.0),
                dp.stats.Bounds(0.0, 1.0), True,
                dp.mechanisms.RandomSource(seed))

        def check(res):
            lo, hi = self.truth["median_x"]
            require(lo <= res.value <= hi,
                    f"median {res.value} outside [{lo}, {hi}]")
        yield Op("quantile_dp median", run, check)

    def end_round(self):
        pass


# -- fit-models --------------------------------------------------------------
# Library fits on in-memory arrays with noisy labels: the ERM solver does the
# work and there is no CSV. Separable labels would make logistic fits ~30x
# slower, so the labels carry logistic noise.
#
# The solver's evaluation count is not a smooth function of the data: fresh
# data moves a linear fit's count by +-15% and a kernel-SVM fit's by up to
# 50%, and so may any change to the order of a float sum. A round therefore
# fits every model on several data sets drawn from the workload seed (the
# linear fits on FIT_SETS, the kernel SVM on KERNEL_SETS), so that one
# problem's count weighs little in a round's time.

FIT_SETS = 2
FIT_ROWS = 50_000
FIT_FEATURES = 4
KERNEL_SETS = 4
KERNEL_ROWS = 5_000
RFF_DIM = 200
FIT_EPSILON = 4.0
# gamma/n is the effective regularisation, so at n = 5e4 gamma = 10 barely
# moves the minimizer, while the output-perturbation noise (norm scale
# 2/(gamma eps)) stays small enough for its tail bound to be a real check.
FIT_GAMMA = 10.0
HUBER_H = 0.5
LINREG_GAMMA = 1.0
LINREG_BUDGETS = ((1.0, 0.0), (1.0, 1e-6))  # (epsilon, delta): pure, approx
TUNE_GAMMAS = (0.1, 1.0, 10.0)
CHECK_ROWS = 5_000
FIT_THETA = np.array([1.5, -1.0, 0.5, 2.0])


def _labelled(rng, n):
    X = rng.uniform(-1.0, 1.0, (n, FIT_FEATURES))
    y = (X @ FIT_THETA + 0.5 * rng.logistic(size=n) > 0.0).astype(np.float64)
    return X, y


def _generate_fit(workdir, rng) -> None:
    n, q = FIT_ROWS, FIT_FEATURES + 1
    refs = []
    for k in range(FIT_SETS):
        X, y = _labelled(rng, n)
        y_reg = np.clip(0.3 * (X @ FIT_THETA) / np.linalg.norm(FIT_THETA)
                        + 0.1 * rng.normal(size=n), -1.0, 1.0)
        for name, arr in (("X", X), ("y", y), ("y_reg", y_reg)):
            np.save(os.path.join(workdir, f"{name}{k}.npy"), arr)
        # Bounds are [-1, 1] per column, so dpkit's classification scaling
        # divides the bias-augmented rows by sqrt(p + 1) only.
        Xb = np.column_stack([np.ones(n), X])
        Xs, y_pm = Xb / math.sqrt(q), 2.0 * y - 1.0
        ref = {}
        for loss in ("logistic", "huber"):
            theta = checks.erm_minimizer(Xs, y_pm, loss, FIT_GAMMA, HUBER_H)
            ref[loss] = theta.tolist()
            ref[loss + "_hess_min"] = checks.erm_hessian_min(
                Xs, y_pm, theta, loss, FIT_GAMMA, HUBER_H)
        # Regression: the target [-1, 1] is scaled to [-q, q], columns are
        # not scaled, and the objective carries the slack 2q/epsilon.
        for eps in {eps for eps, _ in LINREG_BUDGETS}:
            theta, lam = checks.ridge(Xb, q * y_reg,
                                      LINREG_GAMMA + 2.0 * q / eps)
            ref[f"linreg{eps}"] = theta.tolist()
            ref[f"linreg{eps}_hess_min"] = lam
        refs.append(ref)
    for j in range(KERNEL_SETS):
        X, y = _labelled(rng, KERNEL_ROWS)
        np.save(os.path.join(workdir, f"Xk{j}.npy"), X)
        np.save(os.path.join(workdir, f"yk{j}.npy"), y)
    _save_json(os.path.join(workdir, "truth.json"), refs)


class FitWorkload:
    def __init__(self, workdir, dp):
        self.dp = dp
        self.truth = _load_json(os.path.join(workdir, "truth.json"))

        def load(name):
            return np.load(os.path.join(workdir, name + ".npy"))
        self.sets = [(load(f"X{k}"), load(f"y{k}"), load(f"y_reg{k}"))
                     for k in range(FIT_SETS)]
        self.kernel_sets = [(load(f"Xk{j}"), load(f"yk{j}"))
                            for j in range(KERNEL_SETS)]
        self.models = os.path.join(workdir, "models")
        os.makedirs(self.models, exist_ok=True)

    def _path(self, name):
        return os.path.join(self.models, name.replace("/", "-") + ".json")

    def _fit_op(self, i, name, Xc, fit, check_extra=None):
        dp, path = self.dp, self._path(name)
        rng_seed = RELEASE_SEED + i

        def run():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                model = fit(dp.mechanisms.RandomSource(rng_seed))
                model.save(path)
            return model, caught

        def check(output):
            model, caught = output
            require(not any(issubclass(w.category, RuntimeWarning)
                            for w in caught),
                    f"{name}: solver did not converge")
            self._check_model(name, model, path, Xc[:CHECK_ROWS])
            if check_extra is not None:
                check_extra(model)
        return Op(name, run, check)

    def _check_model(self, name, model, path, Xc):
        dp = self.dp
        loaded = dp.models.TrainedModel.load(path)
        before = dp.models.predict(model, Xc)
        require(np.array_equal(before, dp.models.predict(loaded, Xc)),
                f"{name}: predictions change after save and load")
        coef = np.asarray(model.coefficients)
        if model.kind == "svm_gaussian":
            rff = model.rff
            features = (np.cos(Xc @ rff.frequencies.T + rff.phases)
                        / math.sqrt(rff.dim))
        else:
            features = np.column_stack([np.ones(len(Xc)), Xc])
        if model.kind == "linear":
            require(np.allclose(before, features @ coef, rtol=1e-12,
                                atol=1e-12),
                    f"{name}: predictions differ from X theta")
        else:
            checks.check_labels(before, features, coef, name)

    @staticmethod
    def _near(name, theta, ref, radius, what):
        dist = float(np.linalg.norm(theta - np.asarray(ref)))
        require(dist <= radius,
                f"{name}: {dist:.4g} from the non-private minimizer "
                f"(bound {radius:.4g}, {what})")

    def _classifier_check(self, name, k, loss, method):
        """Released coefficients (scaled back by sqrt(p + 1)) near the
        non-private minimizer. Output perturbation adds noise whose norm is
        Gamma(p + 1, 2 / (gamma eps)). Objective perturbation adds b.theta
        with |b| ~ Gamma(p + 1, 2 / eps'), which moves the minimizer by at
        most |b| / lambda_min of the objective's Hessian; the factor 2 covers
        the Hessian's change between the two minimizers."""
        q, ref = FIT_FEATURES + 1, self.truth[k]
        # dpkit stops at a mean-form gradient norm of 1e-8, which leaves a
        # theta error of up to 1e-8 * n / gamma; 1e-3 covers scipy's own.
        solver = 1e-8 * FIT_ROWS / FIT_GAMMA + 1e-3
        if method == "output":
            radius = checks.gamma_radius(q, 2.0 / (FIT_GAMMA * FIT_EPSILON))
            what = "output noise tail"
        else:
            curvature = 0.25 if loss == "logistic" else 1.0 / (2.0 * HUBER_H)
            eps_b = checks.objective_epsilon(FIT_EPSILON, curvature,
                                             FIT_GAMMA)
            radius = 2.0 * checks.gamma_radius(q, 2.0 / eps_b) / \
                ref[loss + "_hess_min"]
            what = "objective noise tail / Hessian"

        def check(model):
            theta = np.asarray(model.coefficients) * math.sqrt(q)
            self._near(name, theta, ref[loss], radius + solver, what)
        return check

    def _linreg_check(self, name, k, eps, delta):
        """Regression-path objective perturbation: the noise b (Gamma-radial
        with scale 2 zeta / eps, or Gaussian) moves the minimizer of a
        quadratic by at most |b| / lambda_min exactly. zeta = 2 q^1.5 bounds
        the gradient of the squared loss for rows in the sqrt(q) ball and
        |target| <= q."""
        q, ref = FIT_FEATURES + 1, self.truth[k]
        zeta = 2.0 * q ** 1.5
        if delta == 0.0:
            noise = checks.gamma_radius(q, 2.0 * zeta / eps)
        else:
            noise = checks.gaussian_norm_radius(
                q, checks.kst_sigma(zeta, eps, delta))
        lam = ref[f"linreg{eps}_hess_min"]
        radius = (noise + 1e-8 * FIT_ROWS) / lam + 1e-9
        centre = np.asarray(ref[f"linreg{eps}"])
        # Inside the sqrt(q) ball the constrained and free minimizers agree.
        require(float(np.linalg.norm(centre)) + radius < math.sqrt(q),
                f"{name}: the reference lies too close to the domain edge")

        def check(model):
            # dpkit scales the target by 1/q (no shift for bounds [-1, 1]).
            theta = np.asarray(model.coefficients) * q
            self._near(name, theta, centre, radius, "regression noise tail")
        return check

    def round(self):
        dp = self.dp
        m, mo = dp.mechanisms, dp.models
        bounds = [dp.stats.Bounds(-1.0, 1.0)] * FIT_FEATURES
        reg_bounds = bounds + [dp.stats.Bounds(-1.0, 1.0)]
        pure = m.PrivacyBudget(FIT_EPSILON)

        def cfg(method, gamma=FIT_GAMMA):
            return dp.erm.ErmConfig(pure, gamma, method)

        classifiers = (
            ("logit", "logistic", lambda X, y, c, r: mo.fit_logistic(
                X, y, bounds, c, True, r)),
            ("svm", "huber", lambda X, y, c, r: mo.fit_svm(
                X, y, bounds, c, huber_h=HUBER_H, add_bias=True, rng=r)))
        i = 0
        for k, (X, y, y_reg) in enumerate(self.sets):
            for short, loss, fit in classifiers:
                for method in ("output", "objective"):
                    name = f"{short}-{method}/{k}"
                    yield self._fit_op(
                        i, name, X, lambda r, fit=fit, X=X, y=y,
                        c=cfg(method): fit(X, y, c, r),
                        self._classifier_check(name, k, loss, method))
                    i += 1
            for eps, delta in LINREG_BUDGETS:
                budget = (m.PrivacyBudget(eps, delta, m.APPROXIMATE) if delta
                          else m.PrivacyBudget(eps))
                name = f"linreg-{'approx' if delta else 'pure'}/{k}"
                yield self._fit_op(
                    i, name, X,
                    lambda r, X=X, y_reg=y_reg, b=budget: mo.fit_linreg(
                        X, y_reg, reg_bounds, b, LINREG_GAMMA, True, r),
                    self._linreg_check(name, k, eps, delta))
                i += 1
        for j, (Xk, yk) in enumerate(self.kernel_sets):
            yield self._fit_op(
                i, f"svm-gaussian/{j}", Xk,
                lambda r, Xk=Xk, yk=yk: mo.fit_svm(
                    Xk, yk, None, cfg("output"), "gaussian", RFF_DIM,
                    huber_h=HUBER_H, rng=r))
            i += 1

        X, y, _ = self.sets[0]

        def candidate(gamma):
            def fit(Xf, yf, r):
                return mo.fit_logistic(Xf, yf, bounds, cfg("output", gamma),
                                       True, r)
            return dp.tuning.Candidate(f"gamma={gamma}", fit)

        def tune(r):
            return dp.tuning.tune_classification(
                [candidate(g) for g in TUNE_GAMMAS], X, y, pure, r).model
        yield self._fit_op(i, "tune", X, tune)

        path = self._path("logit-output/0")

        def predict():
            return mo.predict(mo.TrainedModel.load(path), X)

        def check_predict(labels):
            with open(path, encoding="utf-8") as fh:
                coef = json.load(fh)["coefficients"]
            checks.check_labels(labels, np.column_stack([np.ones(len(X)), X]),
                                coef, "predict")
        yield Op("predict", predict, check_predict)

    def end_round(self):
        pass


# -- release-stream ----------------------------------------------------------
# Many small CLI releases charged to an on-disk ledger: argparse, the JSON
# report and the whole-ledger rewrite in cli._record dominate each release.
# A round is one session of 496 charged releases of epsilon 0.001 under
# --cap 0.496, which math.fsum of the charges equals exactly. The naive float
# sum that BudgetLedger.record compares with the cap is 0.4960000000000004,
# so today the last charge of every session is refused (exit 4).

STREAM_ROWS = 400
STREAM_GROUPS = "abc"
CYCLES = 55            # 9 charged + 2 free releases each
RELEASE_EPS = 0.001
GAUSS_DELTA = 1e-6
CAP = "0.496,0.001"    # 55 * 9 cycle charges + the final one


def _generate_stream(workdir, rng) -> None:
    n = STREAM_ROWS
    kx = rng.integers(50_000, 100_001, n)          # x in [5, 10]
    ka = rng.integers(-10_000, 10_001, (2, n))      # a, b in [-1, 1]
    g = rng.integers(0, len(STREAM_GROUPS), n)
    score = ka[0] - 0.5 * ka[1]
    label = (score / 1e4 + 0.5 * rng.logistic(size=n) > 0).astype(int)
    _write_csv(os.path.join(workdir, "data.csv"),
               ["x", "g", "a", "b", "label"],
               [_decimals(kx, 4), np.array(list(STREAM_GROUPS))[g].tolist(),
                _decimals(ka[0], 4), _decimals(ka[1], 4),
                [str(v) for v in label.tolist()]])
    _save_json(os.path.join(workdir, "truth.json"), {
        "replay_cycle": int(rng.integers(CYCLES)),
        "mean_x": float(np.mean(kx / 1e4)),
        "a": (ka[0] / 1e4).tolist(), "b": (ka[1] / 1e4).tolist()})


class StreamWorkload:
    def __init__(self, workdir, dp):
        self.truth = _load_json(os.path.join(workdir, "truth.json"))
        self.csv = os.path.join(workdir, "data.csv")
        self.ledger = os.path.join(workdir, "ledger.jsonl")
        self.model = os.path.join(workdir, "model.json")
        self.cli = _cli_runner(dp)
        self.features = np.column_stack([np.ones(STREAM_ROWS),
                                         self.truth["a"], self.truth["b"]])
        self.accepted: list[tuple] = []
        self.replay = None

    def _charged(self, seq, command, flags, delta=0.0, check=None,
                 may_refuse=False):
        argv = command.split() + flags + [
            "--epsilon", repr(RELEASE_EPS), "--seed",
            str(RELEASE_SEED + seq), "--ledger", self.ledger,
            "--cap", CAP]
        if delta:
            argv += ["--delta", repr(delta)]

        def verify(output):
            if may_refuse and output[0] == 4:
                return
            result = _report(output, command, RELEASE_EPS, delta)
            if check is not None:
                check(result)
            self.accepted.append((command, RELEASE_EPS, delta))
        return Op(command, lambda: self.cli(argv), verify, may_refuse), argv

    def _stat(self, seq, statistic, flags, check=None):
        return self._charged(seq, f"stat {statistic}",
                             ["--input", self.csv] + flags, check=check)[0]

    def round(self):
        for path in (self.ledger, self.model):
            if os.path.exists(path):
                os.remove(path)
        self.accepted.clear()
        b = (5.0 / STREAM_ROWS) / RELEASE_EPS

        def mean(res):
            require(abs(res["value"] - self.truth["mean_x"])
                    <= checks.laplace_tail(b), "stat mean: outside tail")

        seq = 0
        for cycle in range(CYCLES):
            yield self._stat(seq, "mean", ["--column", "x", "--bounds",
                                           "5,10"], mean)
            yield self._stat(seq + 1, "var", ["--column", "x", "--bounds",
                                              "5,10"])
            median, argv = self._charged(
                seq + 2, "stat median", ["--input", self.csv, "--column",
                                         "x", "--bounds", "5,10"])
            if cycle == self.truth["replay_cycle"]:
                median = self._sampled(median, argv)
            yield median
            yield self._stat(seq + 3, "histogram", ["--column", "x",
                                                    "--breaks",
                                                    "5,6,7,8,9,10"])
            yield self._stat(seq + 4, "table", ["--columns", "g",
                                                "--categories", "a,b,c"])
            yield self._charged(seq + 5, "mech laplace", [
                "--values", "1,2,3", "--sensitivities", "1,1,1"])[0]
            yield self._charged(seq + 6, "mech gaussian", [
                "--values", "1,2,3", "--sensitivities", "1,1,1"],
                delta=GAUSS_DELTA)[0]
            yield self._charged(seq + 7, "mech exponential", [
                "--utility", "0,1,2,1,0"])[0]
            yield self._charged(seq + 8, "fit logit", [
                "--input", self.csv, "--label-column", "label",
                "--feature-columns", "a,b", "--bounds=-1,1;-1,1",
                "--gamma", "1", "--add-bias", "--output", self.model])[0]
            yield self._predict()
            yield self._budget_report()
            seq += 9
        # The 496th charge, planned to land exactly on the cap. Its inputs
        # and seed do not depend on the workload seed.
        yield self._charged(seq, "mech laplace", [
            "--values", "1,2,3", "--sensitivities", "1,1,1"],
            may_refuse=True)[0]

    def _sampled(self, op, argv):
        """Keep this release's report for the replay check."""
        check = op.check

        def verify(output):
            check(output)
            self.replay = (argv[:argv.index("--ledger")], output[1])
        return Op(op.name, op.run, verify)

    def _predict(self):
        argv = ["predict", "--model", self.model, "--input", self.csv,
                "--feature-columns", "a,b"]

        def check(output):
            res = _report(output, "predict", 0.0, 0.0)
            with open(self.model, encoding="utf-8") as fh:
                coef = json.load(fh)["coefficients"]
            checks.check_labels(res["predictions"], self.features, coef,
                                "predict")
        return Op("predict", lambda: self.cli(argv), check)

    def _budget_report(self):
        argv = ["budget", "report", "--ledger", self.ledger]

        def check(output):
            res = _report(output, "budget report", 0.0, 0.0)
            require(res["entries"] == len(self.accepted),
                    f"budget report: {res['entries']} entries, "
                    f"{len(self.accepted)} accepted")
            eps = math.fsum(e for _, e, _ in self.accepted)
            delta = math.fsum(d for _, _, d in self.accepted)
            seq = res["sequential"]
            require(abs(seq["epsilon"] - eps) <= 1e-12 and
                    abs(seq["delta"] - delta) <= 1e-15,
                    "budget report totals disagree with accepted releases")
            require(res["parallel"] is None,
                    "budget report: untagged entries composed in parallel")
        return Op("budget report", lambda: self.cli(argv), check)

    def end_round(self):
        require(os.path.exists(self.ledger), "no ledger was written")
        with open(self.ledger, encoding="utf-8") as fh:
            entries = [json.loads(line) for line in fh if line.strip()]
        recorded = [(e["op"], e["eps"], e["delta"]) for e in entries]
        require(recorded == self.accepted,
                f"the ledger's {len(recorded)} entries do not match the "
                f"{len(self.accepted)} accepted releases")
        require(math.fsum(e["eps"] for e in entries)
                == math.fsum(e for _, e, _ in self.accepted),
                "ledger epsilon total disagrees with accepted releases")
        require(self.replay is not None, "no release was sampled for replay")
        argv, first = self.replay
        code, again, _ = self.cli(argv)
        require(code == 0 and again == first,
                "replayed release is not byte-identical")


_GENERATORS = {"stat-1m": _generate_stat, "fit-models": _generate_fit,
               "release-stream": _generate_stream,
               "marginals": _generate_marginals}
_WORKLOADS = {"stat-1m": StatWorkload, "fit-models": FitWorkload,
              "release-stream": StreamWorkload,
              "marginals": MarginalsWorkload}


def generate(name: str, workdir: str, seed: int) -> None:
    """Write the inputs and references of ``name`` for ``seed``."""
    _GENERATORS[name](workdir, np.random.default_rng([seed, 2309]))


def build(name: str, workdir: str, dp):
    """Load a generated run directory in the worker (``dp`` is dpkit)."""
    return _WORKLOADS[name](workdir, dp)
