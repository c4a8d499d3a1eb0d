import math

import numpy as np
import pytest

import dpkit.erm
from dpkit.erm import (Domain, ErmConfig, LossSpec, SolverNotConvergedError,
                       cms_output_noise, erm_cms, erm_kst, kst_gaussian_sigma,
                       kst_noise, kst_slack, minimize, sample_sphere_gamma,
                       _ball_quadratic_min, _empirical_objective)
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
                   lambda x: 2.0 * (x - a), lambda x, v: 2.0 * v,
                   np.zeros(3))
    assert res.converged and res.grad_norm <= 1e-8
    assert np.allclose(res.x, a, atol=1e-7)


def test_minimize_rejects_nonfinite_start():
    with pytest.raises(ValueError):
        minimize(lambda x: float("nan"), lambda x: x, lambda x, v: v,
                 np.zeros(1))


def test_minimize_stops_at_the_iteration_cap(monkeypatch):
    # Newton on a quartic takes a third off the error per step, so one
    # iteration cannot converge.
    monkeypatch.setattr(dpkit.erm, "_MAX_ITERS", 1)
    a = np.array([1.0, 2.0])
    res = minimize(lambda x: float(np.sum((x - a) ** 4)),
                   lambda x: 4.0 * (x - a) ** 3,
                   lambda x, v: 12.0 * (x - a) ** 2 * v, np.zeros(2))
    assert not res.converged and res.iterations == 1


def _ill_conditioned_logistic():
    # Noisy labels keep the logistic problem from being separable, and
    # features of unequal scale make it ill-conditioned.
    rng = np.random.default_rng(11)
    n, p = 2000, 5
    Z = rng.uniform(-1, 1, size=(n, p - 1)) * np.array([1.0, 0.5, 0.2, 0.05])
    X = np.column_stack([np.ones(n), Z]) / math.sqrt(p)
    logits = 4.0 * (0.5 + Z @ np.array([1.5, -2.0, 4.0, 10.0]))
    y = np.where(rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-logits)),
                 1.0, -1.0)
    return X, y, 1.0


def _separable_logistic():
    # n = 5e4 separable rows at gamma = 10: only the weak regularizer
    # (gamma/n = 2e-4) keeps the minimizer finite.
    rng = np.random.default_rng(12)
    n, p = 50_000, 5
    X = rng.uniform(-1, 1, size=(n, p)) / math.sqrt(p)
    y = np.where(X @ np.array([1.5, -1.0, 0.5, 2.0, 1.0]) > 0, 1.0, -1.0)
    return X, y, 10.0


@pytest.mark.parametrize("problem", [_ill_conditioned_logistic,
                                     _separable_logistic],
                         ids=["ill-conditioned", "separable"])
def test_minimize_needs_few_newton_steps(problem):
    X, y, gamma = problem()
    fun, grad, hessp = _empirical_objective(X, y, logistic_loss(), gamma,
                                            weights=np.ones(len(y)))
    res = minimize(fun, grad, hessp, np.zeros(X.shape[1]))
    assert res.converged and res.iterations <= 15
    assert np.linalg.norm(grad(res.x)) <= 1e-8


# -- objective assembly ----------------------------------------------------------

def test_empirical_objective_cache_keys_on_a_copy():
    X, y = _toy_classification(40, 3, seed=8)
    args = (X, y, logistic_loss(), 0.5, np.ones(40))
    fun, grad, _ = _empirical_objective(*args)
    theta = np.array([0.4, -0.1, 0.7])
    fun(theta)
    theta[0] = -2.0  # same array object, new point
    _, fresh_grad, _ = _empirical_objective(*args)
    assert np.array_equal(grad(theta), fresh_grad(theta.copy()))


def test_empirical_objective_evaluates_the_loss_once_per_point():
    X, y = _toy_classification(40, 3, seed=9)
    logistic = logistic_loss()
    calls = []

    def evaluate(scores, labels):
        calls.append(1)
        return logistic.evaluate(scores, labels)

    fun, grad, hessp = _empirical_objective(X, y, LossSpec(evaluate), 0.5)
    theta = np.array([0.2, -0.3, 0.1])
    fun(theta)
    grad(theta)
    fun(theta)
    hessp(theta, np.ones(3))
    assert len(calls) == 1
    other = theta + 0.5
    fun(other)
    grad(other)
    assert len(calls) == 2
    grad(theta)
    assert len(calls) == 3


def test_empirical_objective_none_weights_match_unit_weights():
    X, y = _toy_classification(60, 3, seed=10)
    theta = np.array([0.5, 0.1, -0.4])
    fun, grad, hessp = _empirical_objective(X, y, logistic_loss(), 0.5)
    fun1, grad1, hessp1 = _empirical_objective(X, y, logistic_loss(), 0.5,
                                               np.ones(60))
    assert fun(theta) == pytest.approx(fun1(theta), rel=1e-14)
    assert np.array_equal(grad(theta), grad1(theta))
    v = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(hessp(theta, v), hessp1(theta, v))


def test_empirical_objective_gradient_finite_difference():
    X, y = _toy_classification(30, 3, seed=5)
    w = np.linspace(0.2, 1.0, 30)
    b = np.array([0.1, -0.2, 0.3])
    theta = np.array([0.3, -0.5, 0.2])
    v = np.array([0.7, 0.2, -0.4])
    eps = 1e-6
    for loss in (logistic_loss(), huber_loss(0.5)):
        fun, grad, hessp = _empirical_objective(X, y, loss, gamma=0.7,
                                                weights=w, slack=0.4, b=b)
        g = grad(theta)
        hv = hessp(theta, v)
        for j in range(3):
            e = np.zeros(3)
            e[j] = eps
            fd = (fun(theta + e) - fun(theta - e)) / (2 * eps)
            assert g[j] == pytest.approx(fd, abs=1e-6)
        # The Hessian-vector product against a central difference of grad.
        fd = (grad(theta + eps * v) - grad(theta - eps * v)) / (2 * eps)
        np.testing.assert_allclose(hv, fd, rtol=0, atol=1e-6)


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
    theta = erm_cms(X, y, logistic_loss(), cfg,
                    rng=RandomSource(0))
    ref = fit_logistic_unregularized(X, (y + 1) / 2, l2=gamma / X.shape[0])
    assert np.allclose(theta, ref, atol=1e-5)


def test_cms_objective_reduces_to_regularized_fit_at_huge_epsilon():
    X, y = _toy_classification(100, 2, seed=1)
    gamma = 1.0
    cfg = ErmConfig(HUGE, gamma, perturbation="objective")
    theta = erm_cms(X, y, logistic_loss(), cfg,
                    rng=RandomSource(0))
    ref = fit_logistic_unregularized(X, (y + 1) / 2, l2=gamma / X.shape[0])
    assert np.allclose(theta, ref, atol=1e-5)


def test_cms_output_noise_is_replayable():
    X, y = _toy_classification(60, 2, seed=2)
    cfg = ErmConfig(PrivacyBudget(1.0), 0.5)
    theta = erm_cms(X, y, huber_loss(), cfg,
                    rng=RandomSource(9))
    # Reconstruct: noiseless fit plus the noise the same seed generates.
    base = erm_cms(X, y, huber_loss(), ErmConfig(HUGE, 0.5),
                   rng=RandomSource(99))
    beta = 0.5 * 1.0 / (2.0 * 1.0)
    noise = cms_output_noise(2, beta, RandomSource(9))
    assert np.allclose(theta, base + noise, atol=1e-6)


def test_cms_unit_weights_match_unweighted_draw_for_draw():
    X, y = _toy_classification(50, 2, seed=3)
    cfg = ErmConfig(PrivacyBudget(2.0), 1.0)
    a = erm_cms(X, y, logistic_loss(), cfg,
                rng=RandomSource(4))
    b = erm_cms(X, y, logistic_loss(), cfg,
                weights=np.ones(50), rng=RandomSource(4))
    assert np.allclose(a, b, atol=1e-9)


@pytest.mark.parametrize("perturbation", ["output", "objective"])
def test_cms_unit_weights_give_the_unweighted_fit(perturbation):
    X, y = _toy_classification(300, 3, seed=12)
    cfg = ErmConfig(PrivacyBudget(2.0), 1.0, perturbation)
    a = erm_cms(X, y, huber_loss(), cfg, rng=RandomSource(4))
    b = erm_cms(X, y, huber_loss(), cfg, weights=np.ones(300),
                rng=RandomSource(4))
    assert np.array_equal(a, b)


def test_cms_weight_bound_shrinks_noise_via_beta():
    # Smaller weight bound means larger beta, hence less noise on average.
    X, y = _toy_classification(50, 2, seed=3)
    norms = {}
    for ub in (1.0, 4.0):
        cfg = ErmConfig(PrivacyBudget(1.0), 1.0, weight_upper_bound=ub)
        base = erm_cms(X, y, logistic_loss(), ErmConfig(HUGE, 1.0),
                       rng=RandomSource(0))
        draws = [erm_cms(X, y, logistic_loss(), cfg,
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
    theta = erm_cms(X, y, logistic_loss(), cfg,
                    rng=RandomSource(7))
    assert np.all(np.isfinite(theta))
    # The implied slack keeps the regularized problem strongly convex.
    slack = c / (math.exp(eps / 4.0) - 1.0) - gamma
    assert slack > 0.0


def test_cms_objective_replayable_no_slack_branch():
    X, y = _toy_classification(60, 2, seed=6)
    gamma, eps = 1.0, 2.0
    cfg = ErmConfig(PrivacyBudget(eps), gamma, perturbation="objective")
    theta = erm_cms(X, y, logistic_loss(), cfg,
                    rng=RandomSource(11))
    eps_prime = eps - 2.0 * math.log1p(0.25 / gamma)
    b = sample_sphere_gamma(2, 2.0 / eps_prime, RandomSource(11))
    fun, grad, _ = _empirical_objective(X, y, logistic_loss(), gamma,
                                        np.ones(60), slack=0.0, b=b)
    ref = scipy_constrained_min(fun, grad, 2)
    assert np.allclose(theta, ref, atol=1e-5)


def test_cms_validation():
    X, y = _toy_classification(20, 2)
    cfg = ErmConfig(PrivacyBudget(1.0), 1.0)
    loss = logistic_loss()
    with pytest.raises(ValueError):
        erm_cms(X, np.zeros(20), loss, cfg, rng=RandomSource(0))
    with pytest.raises(ValueError):
        erm_cms(3.0 * X, y, loss, cfg, rng=RandomSource(0))
    with pytest.raises(ValueError):
        erm_cms(X, y, loss,
                ErmConfig(PrivacyBudget(1.0, 0.1, APPROXIMATE), 1.0),
                rng=RandomSource(0))
    no_curv = LossSpec(loss.evaluate)
    with pytest.raises(ValueError):
        erm_cms(X, y, no_curv,
                ErmConfig(PrivacyBudget(1.0), 1.0, "objective"),
                rng=RandomSource(0))
    with pytest.raises(ValueError):
        erm_cms(X, y, loss,
                ErmConfig(PrivacyBudget(1.0), 1.0, "objective"),
                weights=np.full(20, 0.5), rng=RandomSource(0))
    with pytest.raises(ValueError):
        erm_cms(X, y, loss, cfg, weights=np.full(20, 2.0),
                rng=RandomSource(0))
    nan_weight = np.ones(20)
    nan_weight[3] = np.nan
    with pytest.raises(ValueError, match="weights must lie"):
        erm_cms(X, y, huber_loss(), cfg, weights=nan_weight,
                rng=RandomSource(0))


@pytest.mark.parametrize("perturbation", ["output", "objective"])
def test_cms_refuses_unconverged_minimizer(one_solver_iteration,
                                           perturbation):
    X, y = _toy_classification(80, 2, seed=4)
    cfg = ErmConfig(PrivacyBudget(1.0), 0.5, perturbation=perturbation)
    released = []
    with pytest.raises(SolverNotConvergedError) as exc:
        released.append(erm_cms(X, y, logistic_loss(), cfg,
                                rng=RandomSource(0)))
    assert released == []
    assert isinstance(exc.value, ValueError)
    # The message names the public iteration cap and no norm of the data.
    assert str(exc.value) == ("the solver did not converge in 1 "
                              "iterations; nothing was released")


# -- regression path -----------------------------------------------------------

def test_ball_quadratic_min_projects_onto_ball():
    # ||x - a||^2 is (1/2) x^T (2I) x - (2a)^T x plus a constant.
    a = np.array([3.0, 4.0])  # unconstrained optimum has norm 5
    x = _ball_quadratic_min(2.0 * np.eye(2), 2.0 * a, 1.0)
    assert np.linalg.norm(x) <= 1.0 + 1e-9
    assert np.allclose(x, a / 5.0, atol=1e-6)


def test_ball_quadratic_min_matches_scipy_on_constrained_quadratic():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(5, 3))
    H = A.T @ A + 0.1 * np.eye(3)
    c = rng.normal(size=3)

    def fun(x):
        return 0.5 * float(x @ H @ x) + float(c @ x)

    def grad(x):
        return H @ x + c

    ours = _ball_quadratic_min(H, -c, 0.5)
    ref = scipy_constrained_min(fun, grad, 3, radius=0.5)
    assert np.allclose(ours, ref, atol=1e-5)


def _kst_oracle(X, y, loss, budget, gamma, seed, radius):
    b = kst_noise(X.shape[1], loss, budget, RandomSource(seed))
    slack = kst_slack(loss.eigen_bound, budget.epsilon)
    fun, grad, _ = _empirical_objective(X, y, loss, gamma,
                                        np.ones(len(y)), slack=slack, b=b)
    return scipy_constrained_min(fun, grad, X.shape[1], radius=radius)


def test_kst_never_calls_the_iterative_minimizer(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("erm_kst called minimize")

    monkeypatch.setattr(dpkit.erm, "minimize", refuse)
    rng = np.random.default_rng(9)
    X = rng.uniform(-1, 1, size=(60, 2))
    y = np.clip(X @ np.array([1.0, -0.5]), -2, 2)
    budget = PrivacyBudget(1.0)
    theta = erm_kst(X, y, squared_loss(2), budget, 1.0,
                    Domain(math.sqrt(2)), RandomSource(0))
    ref = _kst_oracle(X, y, squared_loss(2), budget, 1.0, 0, math.sqrt(2))
    assert np.allclose(theta, ref, atol=1e-5)


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
        theta = erm_kst(x[:, None], y, loss, budget,
                        gamma, Domain(1.0), RandomSource(seed))
        b = float(kst_noise(1, loss, budget, RandomSource(seed))[0])
        want = _closed_form_kst_p1(x, y, gamma, kst_slack(1.0, 1.0), b, 1.0)
        assert theta[0] == pytest.approx(want, abs=1e-6)


def test_kst_p2_matches_scipy_oracle():
    rng = np.random.default_rng(4)
    X = rng.uniform(-1, 1, size=(60, 2))
    y = np.clip(X @ np.array([1.0, -0.5]), -2, 2)
    loss = squared_loss(2)
    gamma = 1.0
    radius = math.sqrt(2)
    budget = PrivacyBudget(1.0, 0.01, APPROXIMATE)
    # Seed 8 draws noise that puts the minimizer on the sphere, so the ball
    # constraint is active; seed 0 leaves it inside.
    for seed, active in ((8, True), (0, False)):
        theta = erm_kst(X, y, loss, budget, gamma,
                        Domain(radius), RandomSource(seed))
        ref = _kst_oracle(X, y, loss, budget, gamma, seed, radius)
        assert np.allclose(theta, ref, atol=1e-5)
        assert np.linalg.norm(theta) <= radius
        assert (np.linalg.norm(theta) > radius - 1e-9) == active


def test_kst_huge_epsilon_approaches_ridge():
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, size=(200, 2))
    y = X @ np.array([0.6, -0.3])
    loss = squared_loss(2)
    gamma = 1.0
    theta = erm_kst(X, y, loss, HUGE, gamma,
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
        theta = erm_kst(X, y, loss, PrivacyBudget(0.1),
                        1.0, Domain(math.sqrt(3)), RandomSource(seed))
        assert np.linalg.norm(theta) <= math.sqrt(3) + 1e-9


def test_kst_validation():
    X = np.full((10, 2), 2.0)  # row norms 2.828... exceed sqrt(2)
    y = np.zeros(10)
    with pytest.raises(ValueError) as exc:
        erm_kst(X, y, squared_loss(2), PrivacyBudget(1.0),
                1.0, Domain(1.0), RandomSource(0))
    # The message states the limit only, never a norm of the data.
    assert "1.41421" in str(exc.value) and "2.8" not in str(exc.value)
    ok = np.zeros((10, 2))
    bare = LossSpec(lambda s, t: ((s - t) ** 2, 2 * (s - t)))
    with pytest.raises(ValueError):
        erm_kst(ok, y, bare, PrivacyBudget(1.0), 1.0,
                Domain(1.0), RandomSource(0))
    with pytest.raises(ValueError):
        erm_kst(ok, y, squared_loss(2), PrivacyBudget(1.0),
                -1.0, Domain(1.0), RandomSource(0))
    nan_row, nan_target = ok.copy(), y.copy()
    nan_row[3, 1] = nan_target[3] = np.nan
    with pytest.raises(ValueError, match="row l2 norms must be finite"):
        erm_kst(nan_row, y, squared_loss(2), PrivacyBudget(1.0),
                1.0, Domain(1.0), RandomSource(0))
    with pytest.raises(ValueError, match="targets must be finite"):
        erm_kst(ok, nan_target, squared_loss(2), PrivacyBudget(1.0),
                1.0, Domain(1.0), RandomSource(0))


def test_domain_needs_a_positive_radius():
    for radius in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            Domain(radius)
    with pytest.raises(TypeError):
        Domain()
