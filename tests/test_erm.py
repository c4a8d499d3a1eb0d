import math
import warnings

import numpy as np
import pytest

from dpkit.erm import (Domain, ErmConfig, LossSpec, RegularizerSpec,
                       SolverNotConvergedError, cms_output_noise, erm_cms,
                       erm_kst, kst_gaussian_sigma, kst_noise, kst_slack,
                       l2_regularizer, minimize, sample_sphere_gamma,
                       _empirical_objective)
from dpkit.mechanisms import APPROXIMATE, PrivacyBudget, RandomSource
from dpkit.models import huber_loss, logistic_loss, squared_loss

from oracles import (fit_logistic_unregularized, fit_ridge,
                     scipy_constrained_min)

HUGE = PrivacyBudget(1e8)


def _toy_classification(n=80, p=2, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, p))
    X = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0)
    y = np.where(X[:, 0] + 0.5 * X[:, -1] > 0, 1.0, -1.0)
    return X, y


# -- minimizer -----------------------------------------------------------------

def test_minimize_quadratic():
    a = np.array([3.0, -1.0, 2.0])
    res = minimize(lambda x: float((x - a) @ (x - a)),
                   lambda x: 2.0 * (x - a), np.zeros(3))
    assert res.converged
    assert np.allclose(res.x, a, atol=1e-7)


def test_minimize_projects_onto_ball():
    a = np.array([3.0, 4.0])  # unconstrained optimum has norm 5
    res = minimize(lambda x: float((x - a) @ (x - a)),
                   lambda x: 2.0 * (x - a), np.zeros(2), Domain(1.0))
    assert np.linalg.norm(res.x) <= 1.0 + 1e-9
    assert np.allclose(res.x, a / 5.0, atol=1e-6)


def test_minimize_matches_scipy_on_constrained_quadratic():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(5, 3))
    H = A.T @ A + 0.1 * np.eye(3)
    c = rng.normal(size=3)

    def fun(x):
        return 0.5 * float(x @ H @ x) + float(c @ x)

    def grad(x):
        return H @ x + c

    ours = minimize(fun, grad, np.zeros(3), Domain(0.5)).x
    ref = scipy_constrained_min(fun, grad, 3, radius=0.5)
    assert np.allclose(ours, ref, atol=1e-5)


def test_minimize_rejects_nonfinite_start():
    with pytest.raises(ValueError):
        minimize(lambda x: float("nan"), lambda x: x, np.zeros(1))


def test_minimize_warns_on_iteration_cap():
    # Ill-conditioned quadratic cannot converge in a single step.
    H = np.diag([1.0, 1000.0])
    a = np.array([1.0, 1.0])
    with pytest.warns(RuntimeWarning):
        res = minimize(lambda x: float((x - a) @ H @ (x - a)),
                       lambda x: 2.0 * H @ (x - a), np.zeros(2), max_iters=1)
    assert not res.converged and res.iterations == 1


def test_minimize_nonmonotone_search_rarely_backtracks():
    # Noisy labels keep the logistic problem from being separable, and
    # features of unequal scale make it ill-conditioned enough to take over
    # 50 iterations. A monotone Armijo search needs about 1.7 values each.
    rng = np.random.default_rng(11)
    n, p = 2000, 5
    Z = rng.uniform(-1, 1, size=(n, p - 1)) * np.array([1.0, 0.5, 0.2, 0.05])
    X = np.column_stack([np.ones(n), Z]) / math.sqrt(p)
    logits = 4.0 * (0.5 + Z @ np.array([1.5, -2.0, 4.0, 10.0]))
    y = np.where(rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-logits)),
                 1.0, -1.0)
    fun, grad = _empirical_objective(X, y, logistic_loss(), l2_regularizer(),
                                     gamma=1.0, weights=np.ones(n))
    calls = []

    def counted(theta):
        calls.append(1)
        return fun(theta)

    res = minimize(counted, grad, np.zeros(p))
    assert res.converged and res.iterations > 40
    assert len(calls) <= 1.2 * res.iterations


# -- objective assembly ----------------------------------------------------------

def test_empirical_objective_cache_keys_on_a_copy():
    X, y = _toy_classification(40, 3, seed=8)
    args = (X, y, logistic_loss(), l2_regularizer(), 0.5, np.ones(40))
    fun, grad = _empirical_objective(*args)
    theta = np.array([0.4, -0.1, 0.7])
    fun(theta)
    theta[0] = -2.0  # same array object, new point
    _, fresh_grad = _empirical_objective(*args)
    assert np.array_equal(grad(theta), fresh_grad(theta.copy()))


def test_empirical_objective_gradient_finite_difference():
    X, y = _toy_classification(30, 3, seed=5)
    w = np.linspace(0.2, 1.0, 30)
    b = np.array([0.1, -0.2, 0.3])
    fun, grad = _empirical_objective(X, y, logistic_loss(), l2_regularizer(),
                                     gamma=0.7, weights=w, slack=0.4, b=b)
    theta = np.array([0.3, -0.5, 0.2])
    g = grad(theta)
    eps = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = eps
        fd = (fun(theta + e) - fun(theta - e)) / (2 * eps)
        assert g[j] == pytest.approx(fd, abs=1e-6)


# -- noise samplers ---------------------------------------------------------------

def test_sphere_gamma_magnitude_mean():
    # ||b|| ~ Gamma(shape=p, scale), so E||b|| = p * scale.
    p, scale = 4, 0.5
    draws = sample_sphere_gamma(p, scale, RandomSource(0), size=20_000)
    norms = np.linalg.norm(draws, axis=1)
    assert abs(norms.mean() - p * scale) < 0.02 * p * scale


def test_sphere_gamma_direction_centered():
    draws = sample_sphere_gamma(3, 1.0, RandomSource(1), size=20_000)
    unit = draws / np.linalg.norm(draws, axis=1, keepdims=True)
    assert np.max(np.abs(unit.mean(axis=0))) < 0.02


def test_cms_output_noise_scale():
    # density prop to exp(-beta ||b||): mean norm is p / beta.
    draws = cms_output_noise(2, beta=4.0, rng=RandomSource(2), size=20_000)
    norms = np.linalg.norm(draws, axis=1)
    assert norms.mean() == pytest.approx(2.0 / 4.0, rel=0.02)


def test_sphere_gamma_zero_scale():
    assert np.array_equal(sample_sphere_gamma(3, 0.0, RandomSource(0)),
                          np.zeros(3))


# -- classification path -----------------------------------------------------------

def test_cms_output_reduces_to_regularized_fit_at_huge_epsilon():
    X, y = _toy_classification(100, 2, seed=1)
    gamma = 1.0
    cfg = ErmConfig(HUGE, gamma)
    theta = erm_cms(X, y, logistic_loss(), l2_regularizer(), cfg,
                    rng=RandomSource(0))
    ref = fit_logistic_unregularized(X, (y + 1) / 2, l2=gamma / X.shape[0])
    assert np.allclose(theta, ref, atol=1e-5)


def test_cms_objective_reduces_to_regularized_fit_at_huge_epsilon():
    X, y = _toy_classification(100, 2, seed=1)
    gamma = 1.0
    cfg = ErmConfig(HUGE, gamma, perturbation="objective")
    theta = erm_cms(X, y, logistic_loss(), l2_regularizer(), cfg,
                    rng=RandomSource(0))
    ref = fit_logistic_unregularized(X, (y + 1) / 2, l2=gamma / X.shape[0])
    assert np.allclose(theta, ref, atol=1e-5)


def test_cms_output_noise_is_replayable():
    X, y = _toy_classification(60, 2, seed=2)
    cfg = ErmConfig(PrivacyBudget(1.0), 0.5)
    theta = erm_cms(X, y, huber_loss(), l2_regularizer(), cfg,
                    rng=RandomSource(9))
    # Reconstruct: noiseless fit plus the noise the same seed generates.
    base = erm_cms(X, y, huber_loss(), l2_regularizer(),
                   ErmConfig(HUGE, 0.5), rng=RandomSource(99))
    beta = 0.5 * 1.0 / (2.0 * 1.0)
    noise = cms_output_noise(2, beta, RandomSource(9))
    assert np.allclose(theta, base + noise, atol=1e-6)


def test_cms_unit_weights_match_unweighted_draw_for_draw():
    X, y = _toy_classification(50, 2, seed=3)
    cfg = ErmConfig(PrivacyBudget(2.0), 1.0)
    a = erm_cms(X, y, logistic_loss(), l2_regularizer(), cfg,
                rng=RandomSource(4))
    b = erm_cms(X, y, logistic_loss(), l2_regularizer(), cfg,
                weights=np.ones(50), rng=RandomSource(4))
    assert np.allclose(a, b, atol=1e-9)


def test_cms_weight_bound_shrinks_noise_via_beta():
    # Smaller weight bound means larger beta, hence less noise on average.
    X, y = _toy_classification(50, 2, seed=3)
    norms = {}
    for ub in (1.0, 4.0):
        cfg = ErmConfig(PrivacyBudget(1.0), 1.0, weight_upper_bound=ub)
        base = erm_cms(X, y, logistic_loss(), l2_regularizer(),
                       ErmConfig(HUGE, 1.0), rng=RandomSource(0))
        draws = [erm_cms(X, y, logistic_loss(), l2_regularizer(), cfg,
                         weights=np.minimum(np.ones(50), ub),
                         rng=RandomSource(s)) for s in range(40)]
        norms[ub] = np.mean([np.linalg.norm(d - base) for d in draws])
    assert norms[4.0] > 2.0 * norms[1.0]


def test_cms_objective_slack_branch():
    # Tiny gamma forces eps - 2 log(1 + c/gamma) <= 0, activating the slack.
    X, y = _toy_classification(60, 2, seed=6)
    gamma, eps, c = 1e-4, 1.0, 0.25
    assert eps - 2.0 * math.log1p(c / gamma) <= 0.0
    cfg = ErmConfig(PrivacyBudget(eps), gamma, perturbation="objective")
    theta = erm_cms(X, y, logistic_loss(), l2_regularizer(), cfg,
                    rng=RandomSource(7))
    assert np.all(np.isfinite(theta))
    # The implied slack keeps the regularized problem strongly convex.
    slack = c / (math.exp(eps / 4.0) - 1.0) - gamma
    assert slack > 0.0


def test_cms_objective_replayable_no_slack_branch():
    X, y = _toy_classification(60, 2, seed=6)
    gamma, eps = 1.0, 2.0
    cfg = ErmConfig(PrivacyBudget(eps), gamma, perturbation="objective")
    theta = erm_cms(X, y, logistic_loss(), l2_regularizer(), cfg,
                    rng=RandomSource(11))
    eps_prime = eps - 2.0 * math.log1p(0.25 / gamma)
    b = sample_sphere_gamma(2, 2.0 / eps_prime, RandomSource(11))
    fun, grad = _empirical_objective(X, y, logistic_loss(), l2_regularizer(),
                                     gamma, np.ones(60), slack=0.0, b=b)
    ref = scipy_constrained_min(fun, grad, 2)
    assert np.allclose(theta, ref, atol=1e-5)


def test_cms_validation():
    X, y = _toy_classification(20, 2)
    cfg = ErmConfig(PrivacyBudget(1.0), 1.0)
    loss = logistic_loss()
    reg = l2_regularizer()
    with pytest.raises(ValueError):
        erm_cms(X, np.zeros(20), loss, reg, cfg, rng=RandomSource(0))
    with pytest.raises(ValueError):
        erm_cms(3.0 * X, y, loss, reg, cfg, rng=RandomSource(0))
    with pytest.raises(ValueError):
        erm_cms(X, y, loss, reg,
                ErmConfig(PrivacyBudget(1.0, 0.1, APPROXIMATE), 1.0),
                rng=RandomSource(0))
    weak = RegularizerSpec(reg.value, reg.grad, strongly_convex=False)
    with pytest.raises(ValueError):
        erm_cms(X, y, loss, weak, cfg, rng=RandomSource(0))
    no_curv = LossSpec(loss.value, loss.grad)
    with pytest.raises(ValueError):
        erm_cms(X, y, no_curv, reg,
                ErmConfig(PrivacyBudget(1.0), 1.0, "objective"),
                rng=RandomSource(0))
    with pytest.raises(ValueError):
        erm_cms(X, y, loss, reg,
                ErmConfig(PrivacyBudget(1.0), 1.0, "objective"),
                weights=np.full(20, 0.5), rng=RandomSource(0))
    with pytest.raises(ValueError):
        erm_cms(X, y, loss, reg, cfg, weights=np.full(20, 2.0),
                rng=RandomSource(0))


@pytest.mark.filterwarnings("ignore:minimize hit max_iters")
@pytest.mark.parametrize("perturbation", ["output", "objective"])
def test_cms_refuses_unconverged_minimizer(one_solver_iteration,
                                           perturbation):
    X, y = _toy_classification(80, 2, seed=4)
    cfg = ErmConfig(PrivacyBudget(1.0), 0.5, perturbation=perturbation)
    released = []
    with pytest.raises(SolverNotConvergedError,
                       match="projected-gradient norm") as exc:
        released.append(erm_cms(X, y, logistic_loss(), l2_regularizer(),
                                cfg, rng=RandomSource(0)))
    assert released == []
    assert isinstance(exc.value, ValueError) and exc.value.pg_norm > 1e-8


@pytest.mark.filterwarnings("ignore:minimize hit max_iters")
def test_kst_refuses_unconverged_minimizer(one_solver_iteration):
    rng = np.random.default_rng(9)
    X = rng.uniform(-1, 1, size=(60, 2))
    y = np.clip(X @ np.array([1.0, -0.5]), -2, 2)
    released = []
    with pytest.raises(SolverNotConvergedError,
                       match="projected-gradient norm"):
        released.append(erm_kst(X, y, squared_loss(2), l2_regularizer(),
                                PrivacyBudget(1.0), 1.0,
                                Domain(math.sqrt(2)), RandomSource(0)))
    assert released == []


# -- regression path -----------------------------------------------------------

def test_kst_slack_and_sigma_formulas():
    assert kst_slack(3.0, 1.5) == pytest.approx(4.0)
    budget = PrivacyBudget(1.0, 0.01, APPROXIMATE)
    want = 2.0 * math.sqrt(8.0 * math.log(200.0) + 4.0) / 1.0
    assert kst_gaussian_sigma(2.0, budget) == pytest.approx(want, rel=1e-12)


def test_kst_noise_pure_norm_mean():
    loss = squared_loss(2)  # zeta = 2 * 2^1.5
    zeta = loss.grad_norm_bound
    eps = 2.0
    draws = kst_noise(2, loss, PrivacyBudget(eps), RandomSource(0),
                      size=20_000)
    norms = np.linalg.norm(draws, axis=1)
    assert norms.mean() == pytest.approx(2 * 2.0 * zeta / eps, rel=0.02)


def test_kst_noise_gaussian_std():
    loss = squared_loss(1)
    budget = PrivacyBudget(1.0, 0.01, APPROXIMATE)
    draws = kst_noise(1, loss, budget, RandomSource(1), size=40_000)
    sigma = kst_gaussian_sigma(loss.grad_norm_bound, budget)
    assert draws.std() == pytest.approx(sigma, rel=0.02)


def _closed_form_kst_p1(x, y, gamma, slack, b, radius):
    theta = (float(x @ y) - b) / (float(x @ x) + gamma + slack)
    return float(np.clip(theta, -radius, radius))


def test_kst_p1_matches_closed_form():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, 50)
    y = np.clip(0.8 * x + rng.normal(0, 0.1, 50), -1, 1)
    loss = squared_loss(1)
    budget = PrivacyBudget(1.0)
    gamma = 0.5
    for seed in range(5):
        theta = erm_kst(x[:, None], y, loss, l2_regularizer(), budget,
                        gamma, Domain(1.0), RandomSource(seed))
        b = float(kst_noise(1, loss, budget, RandomSource(seed))[0])
        want = _closed_form_kst_p1(x, y, gamma, kst_slack(1.0, 1.0), b, 1.0)
        assert theta[0] == pytest.approx(want, abs=1e-6)


def test_kst_p2_matches_scipy_oracle():
    rng = np.random.default_rng(4)
    X = rng.uniform(-1, 1, size=(60, 2))
    y = np.clip(X @ np.array([1.0, -0.5]), -2, 2)
    loss = squared_loss(2)
    budget = PrivacyBudget(1.0, 0.01, APPROXIMATE)
    gamma = 1.0
    seed = 8
    theta = erm_kst(X, y, loss, l2_regularizer(), budget, gamma,
                    Domain(math.sqrt(2)), RandomSource(seed))
    b = kst_noise(2, loss, budget, RandomSource(seed))
    slack = kst_slack(loss.eigen_bound, budget.epsilon)
    fun, grad = _empirical_objective(X, y, loss, l2_regularizer(), gamma,
                                     np.ones(60), slack=slack, b=b)
    ref = scipy_constrained_min(fun, grad, 2, radius=math.sqrt(2))
    assert np.allclose(theta, ref, atol=1e-5)


def test_kst_huge_epsilon_approaches_ridge():
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, size=(200, 2))
    y = X @ np.array([0.6, -0.3])
    loss = squared_loss(2)
    gamma = 1.0
    theta = erm_kst(X, y, loss, l2_regularizer(), HUGE, gamma,
                    Domain(math.sqrt(2)), RandomSource(0))
    # Slack 2*lambda/eps vanishes, so the solution approaches plain ridge.
    ref = fit_ridge(X, y, gamma / 200)
    assert np.allclose(theta, ref, atol=1e-4)


def test_kst_result_stays_in_domain():
    rng = np.random.default_rng(6)
    X = rng.uniform(-1, 1, size=(30, 3))
    y = np.clip(X.sum(axis=1), -3, 3)
    loss = squared_loss(3)
    for seed in range(10):
        theta = erm_kst(X, y, loss, l2_regularizer(), PrivacyBudget(0.1),
                        1.0, Domain(math.sqrt(3)), RandomSource(seed))
        assert np.linalg.norm(theta) <= math.sqrt(3) + 1e-9


def test_kst_validation():
    X = np.full((10, 2), 2.0)  # row norms exceed sqrt(2)
    y = np.zeros(10)
    with pytest.raises(ValueError):
        erm_kst(X, y, squared_loss(2), l2_regularizer(), PrivacyBudget(1.0),
                1.0, Domain(1.0), RandomSource(0))
    ok = np.zeros((10, 2))
    bare = LossSpec(lambda s, t: (s - t) ** 2, lambda s, t: 2 * (s - t))
    with pytest.raises(ValueError):
        erm_kst(ok, y, bare, l2_regularizer(), PrivacyBudget(1.0), 1.0,
                Domain(1.0), RandomSource(0))
    with pytest.raises(ValueError):
        erm_kst(ok, y, squared_loss(2), l2_regularizer(), PrivacyBudget(1.0),
                -1.0, Domain(1.0), RandomSource(0))
