"""Privacy-preserving regularized empirical risk minimization.

Two frameworks: output/objective perturbation for binary classification
(with per-observation weights supported on the output path), and
Gamma/Gaussian objective perturbation for regression over a closed convex
coefficient domain. Both sit on one minimizer: the nonmonotone spectral
projected-gradient method of Birgin, Martinez and Raydan (SIAM J. Optim.
10(4), 2000), a Barzilai-Borwein step projected onto the domain and accepted
by the Grippo-Lampariello-Lucidi (GLL) test against the largest of the last
few objective values. The empirical objective evaluates each point's linear
scores once and shares them between its value and its gradient. The whole
module is scipy-free and deterministic given a RandomSource.

Output perturbation is private only at the exact minimizer, so neither
framework releases a point at which the solver did not converge.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mechanisms import PURE, PrivacyBudget, RandomSource


@dataclass(frozen=True)
class LossSpec:
    """Per-sample loss on a linear score.

    value/grad map (scores, labels) -> per-sample losses / dloss-dscore.
    curvature bounds the second derivative (classification path);
    grad_norm_bound / eigen_bound are the regression-path constants.
    """
    value: Callable
    grad: Callable
    curvature: float | None = None
    grad_norm_bound: float | None = None
    eigen_bound: float | None = None


@dataclass(frozen=True)
class RegularizerSpec:
    value: Callable
    grad: Callable
    strongly_convex: bool = False


def l2_regularizer() -> RegularizerSpec:
    return RegularizerSpec(value=lambda theta: 0.5 * float(theta @ theta),
                           grad=lambda theta: theta,
                           strongly_convex=True)


@dataclass(frozen=True)
class ErmConfig:
    budget: PrivacyBudget
    gamma: float
    perturbation: str = "output"  # "output" or "objective"
    weight_upper_bound: float = 1.0

    def __post_init__(self):
        if self.gamma <= 0.0:
            raise ValueError("regularization constant must be positive")
        if self.perturbation not in ("output", "objective"):
            raise ValueError("perturbation must be 'output' or 'objective'")
        if self.weight_upper_bound <= 0.0:
            raise ValueError("weight upper bound must be positive")


@dataclass(frozen=True)
class Domain:
    """l2 ball of the given radius, or unconstrained when radius is None."""
    radius: float | None = None

    def __post_init__(self):
        if self.radius is not None and self.radius <= 0.0:
            raise ValueError("ball radius must be positive")

    def project(self, theta: np.ndarray) -> np.ndarray:
        if self.radius is None:
            return theta
        norm = float(np.linalg.norm(theta))
        if norm <= self.radius:
            return theta
        return theta * (self.radius / norm)


@dataclass
class MinimizeResult:
    x: np.ndarray
    converged: bool
    iterations: int
    pg_norm: float


class SolverNotConvergedError(ValueError):
    """The minimizer stopped short of tol; releasing its point would void
    the privacy guarantee, so nothing is released."""

    def __init__(self, pg_norm: float, iterations: int):
        self.pg_norm = pg_norm
        self.iterations = iterations
        super().__init__(
            f"the solver did not converge in {iterations} iterations "
            f"(projected-gradient norm {pg_norm:.3e}); nothing was released")


# How many accepted objective values the nonmonotone line search compares a
# trial value with.
_NONMONOTONE_MEMORY = 10


def minimize(fun, grad, x0, domain: Domain | None = None, tol: float = 1e-8,
             max_iters: int = 10_000) -> MinimizeResult:
    """Nonmonotone spectral projected gradient (Birgin, Martinez, Raydan,
    SIAM J. Optim. 2000).

    Each iteration projects a Barzilai-Borwein (BB1) step onto the domain and
    halves the step until the trial value passes the Grippo-Lampariello-
    Lucidi (GLL) test: sufficient decrease relative to the largest of the
    last _NONMONOTONE_MEMORY accepted values rather than the current one, so
    the long BB steps are rarely cut back. Converged when the
    projected-gradient norm drops to tol; warns when max_iters ends the run.
    """
    domain = domain or Domain()
    x = domain.project(np.asarray(x0, dtype=np.float64).copy())
    f = float(fun(x))
    if not math.isfinite(f):
        raise ValueError("objective is not finite at the starting point")
    g = np.asarray(grad(x), dtype=np.float64)
    step = 1.0 / max(1.0, float(np.linalg.norm(g)))
    recent = deque([f], maxlen=_NONMONOTONE_MEMORY)

    pg_norm = float(np.linalg.norm(x - domain.project(x - g)))
    it = 0
    while it < max_iters and pg_norm > tol:
        it += 1
        f_ref = max(recent)
        # Backtrack until sufficient decrease along the projected step.
        for _ in range(60):
            x_new = domain.project(x - step * g)
            d = x_new - x
            f_new = float(fun(x_new))
            if f_new <= f_ref + 1e-4 * float(g @ d) or not np.any(d):
                break
            step *= 0.5
        g_new = np.asarray(grad(x_new), dtype=np.float64)
        s = x_new - x
        ydiff = g_new - g
        sy = float(s @ ydiff)
        if sy > 0.0:
            step = float(s @ s) / sy  # BB1 step
            step = min(max(step, 1e-12), 1e12)
        x, g = x_new, g_new
        recent.append(f_new)
        pg_norm = float(np.linalg.norm(x - domain.project(x - g)))

    converged = pg_norm <= tol
    if not converged:
        warnings.warn(f"minimize hit max_iters={max_iters} with projected-"
                      f"gradient norm {pg_norm:.3e}", RuntimeWarning)
    return MinimizeResult(x, converged, it, pg_norm)


def sample_sphere_gamma(p: int, scale: float, rng: RandomSource,
                        size: int | None = None) -> np.ndarray:
    """Vectors with uniform direction and Gamma(shape=p, scale) magnitude.

    The magnitude is an exact sum of p exponentials, so replay is stable.
    Returns shape (p,) or (size, p).
    """
    n = 1 if size is None else size
    if scale == 0.0:
        out = np.zeros((n, p))
        return out[0] if size is None else out
    direction = np.asarray(
        np.reshape(_normals(rng, n * p), (n, p)), dtype=np.float64)
    norms = np.linalg.norm(direction, axis=1, keepdims=True)
    direction = direction / norms
    magnitude = -scale * np.log(rng.uniform((n, p))).sum(axis=1)
    out = direction * magnitude[:, None]
    return out[0] if size is None else out


def _normals(rng: RandomSource, count: int) -> np.ndarray:
    from . import _kernels
    return _kernels.normal_quantile(rng.uniform(count))


def cms_output_noise(p: int, beta: float, rng: RandomSource,
                     size: int | None = None) -> np.ndarray:
    """Noise with density proportional to exp(-beta * ||b||_2)."""
    return sample_sphere_gamma(p, 1.0 / beta, rng, size)


def _check_rows(X: np.ndarray, limit: float, tol: float = 1e-9):
    norms = np.linalg.norm(X, axis=1)
    if norms.size and norms.max() > limit + tol:
        raise ValueError(f"row l2 norms must not exceed {limit:.6g} "
                         f"(max observed {norms.max():.6g})")


def _empirical_objective(X, y, loss: LossSpec, reg: RegularizerSpec,
                         gamma: float, weights: np.ndarray,
                         slack: float = 0.0, b: np.ndarray | None = None):
    """Objective value and gradient closures over one data set.

    Both read the linear scores X @ theta through a one-point cache keyed on
    a copy of theta, so the gradient at a point whose value the solver just
    computed costs only the per-sample derivative and X^T r.
    """
    n = X.shape[0]
    last_theta, last_scores = None, None

    def scores_at(theta):
        nonlocal last_theta, last_scores
        if last_theta is None or not np.array_equal(last_theta, theta):
            last_theta = np.array(theta, dtype=np.float64)
            last_scores = X @ theta
        return last_scores

    def fun(theta):
        val = float(weights @ loss.value(scores_at(theta), y)) / n
        val += gamma / n * float(reg.value(theta))
        if slack:
            val += slack / (2.0 * n) * float(theta @ theta)
        if b is not None:
            val += float(b @ theta) / n
        return val

    def grad(theta):
        g = X.T @ (weights * loss.grad(scores_at(theta), y)) / n
        g = g + gamma / n * np.asarray(reg.grad(theta), dtype=np.float64)
        if slack:
            g = g + slack / n * theta
        if b is not None:
            g = g + b / n
        return g

    return fun, grad


def _converged_minimizer(fun, grad, p: int, domain: Domain | None = None,
                         tol: float = 1e-8) -> np.ndarray:
    """Minimize from the origin; raise rather than return an unconverged
    point, which no privacy argument covers."""
    res = minimize(fun, grad, np.zeros(p), domain, tol)
    if not res.converged:
        raise SolverNotConvergedError(res.pg_norm, res.iterations)
    return res.x


def erm_cms(X, y, loss: LossSpec, reg: RegularizerSpec, cfg: ErmConfig,
            weights=None, rng: RandomSource | None = None,
            tol: float = 1e-8) -> np.ndarray:
    """Classification-path private ERM (output or objective perturbation).

    Requires row norms <= 1, labels in {-1, +1}, |dloss/dscore| <= 1, and a
    1-strongly-convex differentiable regularizer. The objective path
    additionally needs the loss curvature bound and rejects non-uniform
    weights. Raises SolverNotConvergedError instead of releasing a point at
    which the solver did not converge.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape
    if y.shape != (n,):
        raise ValueError("labels must be a vector matching the rows of X")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be coded in {-1, +1}")
    _check_rows(X, 1.0)
    if cfg.budget.variant != PURE:
        raise ValueError("classification-path ERM provides pure DP only")
    if not reg.strongly_convex:
        raise ValueError("the regularizer must be 1-strongly convex")

    if weights is None:
        weights = np.ones(n)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (n,):
            raise ValueError("weights must match the number of rows")
        if np.any(weights < 0.0) or np.any(weights >
                                           cfg.weight_upper_bound + 1e-12):
            raise ValueError("weights must lie in [0, weight_upper_bound]")

    eps = cfg.budget.epsilon

    if cfg.perturbation == "output":
        fun, grad = _empirical_objective(X, y, loss, reg, cfg.gamma, weights)
        theta = _converged_minimizer(fun, grad, p, tol=tol)
        beta = cfg.gamma * eps / (2.0 * cfg.weight_upper_bound)
        return theta + cms_output_noise(p, beta, rng)

    # Objective perturbation.
    if loss.curvature is None:
        raise ValueError("objective perturbation needs a loss curvature "
                         "bound")
    if not np.all(weights == 1.0):
        raise ValueError("objective perturbation does not support "
                         "non-uniform weights; use the output path")
    c = loss.curvature
    eps_prime = eps - 2.0 * math.log1p(c / cfg.gamma)
    if eps_prime > 0.0:
        slack = 0.0
    else:
        slack = c / (math.exp(eps / 4.0) - 1.0) - cfg.gamma
        eps_prime = eps / 2.0
    b = sample_sphere_gamma(p, 2.0 / eps_prime, rng)
    fun, grad = _empirical_objective(X, y, loss, reg, cfg.gamma, weights,
                                     slack=slack, b=b)
    return _converged_minimizer(fun, grad, p, tol=tol)


def kst_slack(eigen_bound: float, epsilon: float) -> float:
    return 2.0 * eigen_bound / epsilon


def kst_gaussian_sigma(grad_norm_bound: float, budget: PrivacyBudget) -> float:
    return grad_norm_bound * math.sqrt(
        8.0 * math.log(2.0 / budget.delta) + 4.0 * budget.epsilon
    ) / budget.epsilon


def kst_noise(p: int, loss: LossSpec, budget: PrivacyBudget,
              rng: RandomSource, size: int | None = None) -> np.ndarray:
    """Objective-perturbation noise for the regression path: Gamma-radial
    under a pure budget, spherical Gaussian otherwise."""
    zeta = loss.grad_norm_bound
    if budget.delta == 0.0:
        return sample_sphere_gamma(p, 2.0 * zeta / budget.epsilon, rng, size)
    sigma = kst_gaussian_sigma(zeta, budget)
    n = 1 if size is None else size
    out = sigma * np.reshape(_normals(rng, n * p), (n, p))
    return out[0] if size is None else out


def erm_kst(X, y, loss: LossSpec, reg: RegularizerSpec,
            budget: PrivacyBudget, gamma: float, domain: Domain,
            rng: RandomSource | None = None, tol: float = 1e-8) -> np.ndarray:
    """Regression-path private ERM over a closed convex coefficient domain.

    The loss must supply its gradient-norm bound and Hessian eigenvalue
    bound; the returned coefficients always lie inside the domain. Raises
    SolverNotConvergedError instead of releasing an unconverged point.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape
    if y.shape != (n,):
        raise ValueError("targets must be a vector matching the rows of X")
    if loss.grad_norm_bound is None or loss.eigen_bound is None:
        raise ValueError("regression-path ERM needs grad_norm_bound and "
                         "eigen_bound on the loss")
    if gamma <= 0.0:
        raise ValueError("regularization constant must be positive")
    _check_rows(X, math.sqrt(p))

    slack = kst_slack(loss.eigen_bound, budget.epsilon)
    b = kst_noise(p, loss, budget, rng)
    weights = np.ones(n)
    fun, grad = _empirical_objective(X, y, loss, reg, gamma, weights,
                                     slack=slack, b=b)
    return _converged_minimizer(fun, grad, p, domain, tol)
