"""Privacy-preserving regularized empirical risk minimization.

Two frameworks: output/objective perturbation for binary classification
(with per-observation weights supported on the output path), and
Gamma/Gaussian objective perturbation for regression over an l2 ball of
coefficients.

Classification runs the nonmonotone spectral gradient method of Birgin,
Martinez and Raydan (SIAM J. Optim. 10(4), 2000): a Barzilai-Borwein step
accepted by the Grippo-Lampariello-Lucidi (GLL) test against the largest of
the last few objective values. The empirical objective makes one pass per
point: the linear scores, the loss sum and the per-sample derivative all
come from one product X theta and one call of the loss's ``evaluate``, so
the gradient at a point whose value was just computed costs only X^T d.

Regression does not iterate: its objective is a quadratic, whose minimizer
over the ball is a trust-region subproblem with an exact solution (More and
Sorensen, SIAM J. Sci. Stat. Comput. 4(3), 1983): one ``eigh``, then a
fixed number of bisection steps on the multiplier of the ball constraint.

The regularizer is fixed to (1/2)||theta||^2: both privacy proofs need it
1-strongly convex and twice differentiable, which a caller-supplied function
could only claim. With it the objective (1/n) sum(loss) + (gamma/n) R is
gamma/n-strongly convex. The whole module is scipy-free and deterministic
given a RandomSource.

Output perturbation is private only at the exact minimizer, so the
classification path releases no point at which the solver did not converge.
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

    evaluate maps (scores, labels) -> (per-sample losses, dloss/dscore),
    both from one pass over the scores; the two arrays are new and the
    caller may overwrite them. value and grad return one of the pair.
    curvature bounds the second derivative (classification path);
    grad_norm_bound / eigen_bound are the regression-path constants.
    """
    evaluate: Callable
    curvature: float | None = None
    grad_norm_bound: float | None = None
    eigen_bound: float | None = None

    def value(self, scores, y) -> np.ndarray:
        return self.evaluate(scores, y)[0]

    def grad(self, scores, y) -> np.ndarray:
        return self.evaluate(scores, y)[1]


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
    """The regression path's coefficients: the l2 ball of this radius."""
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError("ball radius must be positive")


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


def minimize(fun, grad, x0, tol: float = 1e-8,
             max_iters: int = 10_000) -> MinimizeResult:
    """Nonmonotone spectral gradient (Birgin, Martinez, Raydan, SIAM J.
    Optim. 2000), unconstrained.

    Each iteration takes a Barzilai-Borwein (BB1) step and halves it until
    the trial value passes the Grippo-Lampariello-Lucidi (GLL) test:
    sufficient decrease relative to the largest of the last
    _NONMONOTONE_MEMORY accepted values rather than the current one, so the
    long BB steps are rarely cut back. Converged when the gradient norm
    drops to tol; warns when max_iters ends the run.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    f = float(fun(x))
    if not math.isfinite(f):
        raise ValueError("objective is not finite at the starting point")
    g = np.asarray(grad(x), dtype=np.float64)
    step = 1.0 / max(1.0, float(np.linalg.norm(g)))
    recent = deque([f], maxlen=_NONMONOTONE_MEMORY)

    pg_norm = float(np.linalg.norm(g))
    it = 0
    while it < max_iters and pg_norm > tol:
        it += 1
        f_ref = max(recent)
        # Backtrack until sufficient decrease along the step.
        for _ in range(60):
            x_new = x - step * g
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
        pg_norm = float(np.linalg.norm(g))

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
    direction = np.reshape(rng.normal(n * p), (n, p))
    norms = np.linalg.norm(direction, axis=1, keepdims=True)
    direction = direction / norms
    magnitude = -scale * np.log(rng.uniform((n, p))).sum(axis=1)
    out = direction * magnitude[:, None]
    return out[0] if size is None else out


def cms_output_noise(p: int, beta: float, rng: RandomSource,
                     size: int | None = None) -> np.ndarray:
    """Noise with density proportional to exp(-beta * ||b||_2)."""
    return sample_sphere_gamma(p, 1.0 / beta, rng, size)


def _check_rows(X: np.ndarray, limit: float, tol: float = 1e-9):
    """Refuse a row whose l2 norm is not finite or exceeds ``limit``. The
    message states the limit only, never a norm of the data."""
    norms = np.linalg.norm(X, axis=1)
    if norms.size and not norms.max() <= limit + tol:  # NaN fails too
        raise ValueError(f"row l2 norms must be finite and at most "
                         f"{limit:.6g}")


def _empirical_objective(X, y, loss: LossSpec, gamma: float,
                         weights: np.ndarray | None = None,
                         slack: float = 0.0, b: np.ndarray | None = None):
    """Value and gradient closures of the regularized objective over one
    data set: mean weighted loss + (gamma/n)(1/2)||theta||^2, plus the
    perturbation terms (slack/2n)||theta||^2 and b.theta/n. ``weights`` of
    None means uniform weights 1 and costs no multiply.

    Both read one cache keyed on a copy of theta: the loss sum and the
    weighted derivative d from one product X @ theta and one
    ``loss.evaluate``, so the gradient at a point whose value the solver
    just computed costs only X^T d.
    """
    n = X.shape[0]
    last_theta, loss_sum, dscores = None, 0.0, None

    def evaluate_at(theta):
        nonlocal last_theta, loss_sum, dscores
        if last_theta is None or not np.array_equal(last_theta, theta):
            losses, dscores = loss.evaluate(X @ theta, y)
            if weights is None:
                loss_sum = float(losses.sum())
            else:
                loss_sum = float(weights @ losses)
                dscores *= weights
            last_theta = np.array(theta, dtype=np.float64)
        return loss_sum, dscores

    def fun(theta):
        val = evaluate_at(theta)[0] / n
        val += gamma / n * (0.5 * float(theta @ theta))
        if slack:
            val += slack / (2.0 * n) * float(theta @ theta)
        if b is not None:
            val += float(b @ theta) / n
        return val

    def grad(theta):
        g = X.T @ evaluate_at(theta)[1] / n
        g = g + gamma / n * theta
        if slack:
            g = g + slack / n * theta
        if b is not None:
            g = g + b / n
        return g

    return fun, grad


def _converged_minimizer(fun, grad, p: int) -> np.ndarray:
    """Minimize from the origin; raise rather than return an unconverged
    point, which no privacy argument covers."""
    res = minimize(fun, grad, np.zeros(p))
    if not res.converged:
        raise SolverNotConvergedError(res.pg_norm, res.iterations)
    return res.x


def erm_cms(X, y, loss: LossSpec, cfg: ErmConfig, weights=None,
            rng: RandomSource | None = None) -> np.ndarray:
    """Classification-path private ERM (output or objective perturbation).

    Requires row norms <= 1, labels in {-1, +1} and |dloss/dscore| <= 1;
    the fixed regularizer makes the objective gamma/n-strongly convex, as
    both paths' sensitivity bounds assume. The objective path additionally
    needs the loss curvature bound and rejects non-uniform weights. Raises
    SolverNotConvergedError instead of releasing a point at which the solver
    did not converge.
    """
    if rng is None:
        rng = RandomSource()  # seeded from OS entropy
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

    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (n,):
            raise ValueError("weights must match the number of rows")
        ub = cfg.weight_upper_bound
        if not np.all((weights >= 0.0) & (weights <= ub + 1e-12)):
            raise ValueError("weights must lie in [0, weight_upper_bound]")
        if np.all(weights == 1.0):
            weights = None  # uniform: the objective skips the multiplies

    eps = cfg.budget.epsilon

    if cfg.perturbation == "output":
        fun, grad = _empirical_objective(X, y, loss, cfg.gamma, weights)
        theta = _converged_minimizer(fun, grad, p)
        beta = cfg.gamma * eps / (2.0 * cfg.weight_upper_bound)
        return theta + cms_output_noise(p, beta, rng)

    # Objective perturbation.
    if loss.curvature is None:
        raise ValueError("objective perturbation needs a loss curvature "
                         "bound")
    if weights is not None:
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
    fun, grad = _empirical_objective(X, y, loss, cfg.gamma, slack=slack,
                                     b=b)
    return _converged_minimizer(fun, grad, p)


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
    out = sigma * np.reshape(rng.normal(n * p), (n, p))
    return out[0] if size is None else out


def erm_kst(X, y, loss: LossSpec, budget: PrivacyBudget, gamma: float,
            domain: Domain, rng: RandomSource | None = None) -> np.ndarray:
    """Regression-path private ERM over the l2 ball ``domain``.

    The loss is half squared error, (1/2)(x.theta - y)^2; ``loss`` is read
    for its gradient-norm and Hessian eigenvalue bounds only. The perturbed
    objective is (1/2n) theta^T A theta - c^T theta / n with
    A = X^T X + (gamma + slack) I and c = X^T y - b. Its minimizer over the
    ball is computed exactly, so the result lies inside the domain and the
    fit is never refused.
    """
    if rng is None:
        rng = RandomSource()  # seeded from OS entropy
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape
    if y.shape != (n,):
        raise ValueError("targets must be a vector matching the rows of X")
    if not np.all(np.isfinite(y)):
        raise ValueError("targets must be finite")
    if loss.grad_norm_bound is None or loss.eigen_bound is None:
        raise ValueError("regression-path ERM needs grad_norm_bound and "
                         "eigen_bound on the loss")
    if gamma <= 0.0:
        raise ValueError("regularization constant must be positive")
    _check_rows(X, math.sqrt(p))

    slack = kst_slack(loss.eigen_bound, budget.epsilon)
    b = kst_noise(p, loss, budget, rng)
    A = X.T @ X
    A[np.diag_indices(p)] += gamma + slack
    c = X.T @ y
    c -= b
    return _ball_quadratic_min(A, c, domain.radius)


# Bisection steps on the ball multiplier: the bracket [0, ||c||/radius]
# shrinks to adjacent floats long before this many halvings.
_BISECTION_STEPS = 100


def _ball_quadratic_min(A: np.ndarray, c: np.ndarray,
                        radius: float) -> np.ndarray:
    """argmin of (1/2) theta^T A theta - c^T theta over ||theta|| <= radius,
    for a symmetric positive definite A (More and Sorensen, 1983).

    With A = Q diag(w) Q^T, theta(lam) = Q (Q^T c / (w + lam)), whose norm
    falls as lam grows. theta(0) is the answer when it lies in the ball;
    otherwise the answer is theta(lam) at the lam where the norm equals the
    radius, below ||c|| / radius. Bisection tests the norm of the very
    vector it would return and keeps the feasible upper end, so the result
    never leaves the ball, rounding included. A positive definite A rules
    out the "hard case".
    """
    w, Q = np.linalg.eigh(A)
    z = Q.T @ c
    theta = Q @ (z / w)
    if np.linalg.norm(theta) <= radius:
        return theta
    lo, hi = 0.0, float(np.linalg.norm(c)) / radius
    theta = Q @ (z / (w + hi))
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        trial = Q @ (z / (w + mid))
        if np.linalg.norm(trial) > radius:
            lo = mid
        else:
            hi, theta = mid, trial
    return theta
