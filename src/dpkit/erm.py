"""Privacy-preserving regularized empirical risk minimization.

Two frameworks: output/objective perturbation for binary classification
(with per-observation weights supported on the output path), and
Gamma/Gaussian objective perturbation for regression over an l2 ball of
coefficients.

Classification runs truncated Newton (Dembo and Steihaug, Math. Prog. 26,
1983): conjugate gradients on Hessian-vector products choose each step and
an Armijo search accepts it. The loss sum and the per-sample first and
second derivatives d and w come from one product X theta and one call of
the loss's ``evaluate``, so the gradient at a point whose value was just
computed costs only X^T d, and a Hessian-vector product X^T (w * X v).

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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mechanisms import PROBABILISTIC, PURE, PrivacyBudget, RandomSource


@dataclass(frozen=True)
class LossSpec:
    """Per-sample loss on a linear score, for the classification path.

    evaluate maps (scores, labels) -> (per-sample losses, dloss/dscore,
    d2loss/dscore2), all from one pass over the scores; the arrays are new
    and the caller may overwrite them. curvature bounds the second
    derivative.
    """
    evaluate: Callable
    curvature: float


@dataclass(frozen=True)
class ErmConfig:
    budget: PrivacyBudget
    gamma: float
    perturbation: str = "output"  # "output" or "objective"

    def __post_init__(self):
        if not (0.0 < self.gamma < math.inf):
            raise ValueError("regularization constant gamma must be finite "
                             "and positive")
        if self.perturbation not in ("output", "objective"):
            raise ValueError("perturbation must be 'output' or 'objective'")


@dataclass
class MinimizeResult:
    x: np.ndarray
    converged: bool
    iterations: int
    grad_norm: float


# Converged at this gradient norm; refused after this many Newton steps.
_GRAD_TOL = 1e-8
_MAX_ITERS = 10_000


class SolverNotConvergedError(ValueError):
    """The minimizer stopped short of convergence; releasing its point would
    void the privacy guarantee, so nothing is released. The message names
    the public iteration cap only, never a norm of the data."""


def minimize(fun, grad, hessp, x0) -> MinimizeResult:
    """Truncated Newton (Dembo and Steihaug, Math. Prog. 26, 1983),
    unconstrained, for a strongly convex objective.

    Each step runs conjugate gradients on H s = -g from s = 0, with the
    Hessian-vector product ``hessp(x, v)``: at most len(x) steps, stopping
    once the residual is at most min(1/2, sqrt(||g||)) ||g||. An Armijo
    search then halves t from 1 until x + t s decreases the objective
    enough. Converged when the gradient norm drops to _GRAD_TOL.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    f = float(fun(x))
    if not math.isfinite(f):
        raise ValueError("objective is not finite at the starting point")
    g = grad(x)
    g_norm = float(np.linalg.norm(g))
    it = 0
    while it < _MAX_ITERS and g_norm > _GRAD_TOL:
        it += 1
        s, r, d = np.zeros_like(x), -g, -g
        rr = g_norm * g_norm
        r_tol = min(0.5, math.sqrt(g_norm)) * g_norm
        for _ in range(x.size):
            hd = hessp(x, d)
            alpha = rr / float(d @ hd)
            s += alpha * d
            r -= alpha * hd
            rr, rr_old = float(r @ r), rr
            if math.sqrt(rr) <= r_tol:
                break
            d = r + (rr / rr_old) * d
        # Backtrack until sufficient decrease along the step.
        t = 1.0
        for _ in range(60):
            x_new = x + t * s
            step = x_new - x
            f_new = float(fun(x_new))
            if f_new <= f + 1e-4 * float(g @ step) or not np.any(step):
                break
            t *= 0.5
        x, f, g = x_new, f_new, grad(x_new)
        g_norm = float(np.linalg.norm(g))
    return MinimizeResult(x, g_norm <= _GRAD_TOL, it, g_norm)


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
    direction = rng.normal((n, p))
    norms = np.linalg.norm(direction, axis=1, keepdims=True)
    direction = direction / norms
    magnitude = -scale * np.log(rng.uniform((n, p))).sum(axis=1)
    out = direction * magnitude[:, None]
    return out[0] if size is None else out


_ROW_NORM_TOL = 1e-9  # allowance for the rounding of row and target scaling
NO_ROWS = "the data have no rows; a fit needs at least one"


def _check_rows(X: np.ndarray, limit: float):
    """Refuse an empty X, and a row whose l2 norm is not finite or exceeds
    ``limit``. The message states the limit only, never a norm of the
    data."""
    if X.shape[0] == 0:
        raise ValueError(NO_ROWS)
    norms = np.sqrt(np.einsum("ij,ij->i", X, X))  # no n x p temporary
    if not norms.max() <= limit + _ROW_NORM_TOL:  # NaN too
        raise ValueError(f"row l2 norms must be finite and at most "
                         f"{limit:.6g}")


def _empirical_objective(X, y, loss: LossSpec, gamma: float,
                         weights: np.ndarray | None = None,
                         slack: float = 0.0, b: np.ndarray | None = None):
    """Value, gradient and Hessian-vector product closures of the
    regularized objective over one data set: mean weighted loss +
    (gamma/n)(1/2)||theta||^2, plus the perturbation terms
    (slack/2n)||theta||^2 and b.theta/n. ``weights`` of None means uniform
    weights 1 and costs no multiply.

    All three read one cache keyed on a copy of theta and filled by one
    X @ theta and one ``loss.evaluate``; ``hessp(theta, v)`` costs
    X^T (w * X v) and forms no n x p matrix.
    """
    n = X.shape[0]
    reg = gamma + slack
    b = np.zeros(X.shape[1]) if b is None else b
    last_theta, loss_sum, dscores, curvatures = None, 0.0, None, None

    def evaluate_at(theta):
        nonlocal last_theta, loss_sum, dscores, curvatures
        if last_theta is None or not np.array_equal(last_theta, theta):
            losses, dscores, curvatures = loss.evaluate(X @ theta, y)
            if weights is None:
                loss_sum = float(losses.sum())
            else:
                loss_sum = float(weights @ losses)
                dscores *= weights
                curvatures *= weights
            last_theta = np.array(theta, dtype=np.float64)
        return loss_sum, dscores, curvatures

    def fun(theta):
        return (evaluate_at(theta)[0] + 0.5 * reg * float(theta @ theta)
                + float(b @ theta)) / n

    def grad(theta):
        return (X.T @ evaluate_at(theta)[1] + reg * theta + b) / n

    def hessp(theta, v):
        xv = X @ v
        xv *= evaluate_at(theta)[2]
        return (X.T @ xv + reg * v) / n

    return fun, grad, hessp


def _converged_minimizer(fun, grad, hessp, p: int) -> np.ndarray:
    """Minimize from the origin; raise rather than return an unconverged
    point, which no privacy argument covers."""
    res = minimize(fun, grad, hessp, np.zeros(p))
    if not res.converged:
        raise SolverNotConvergedError(f"the solver did not converge in "
                                      f"{_MAX_ITERS} iterations; nothing was "
                                      "released")
    return res.x


def erm_cms(X, y, loss: LossSpec, cfg: ErmConfig, weights=None,
            weight_upper_bound: float = 1.0,
            rng: RandomSource | None = None) -> np.ndarray:
    """Classification-path private ERM (output or objective perturbation).

    Requires row norms <= 1, labels in {-1, +1} and |dloss/dscore| <= 1;
    the fixed regularizer makes the objective gamma/n-strongly convex, as
    both paths' sensitivity bounds assume. Weights lie in [0,
    weight_upper_bound], which scales the output noise; without weights
    every row weighs 1. The objective path reads the loss curvature bound
    and takes no weights. Raises SolverNotConvergedError instead of
    releasing a point at which the solver did not converge.
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

    if weights is not None and cfg.perturbation != "output":
        # Refused before the values are read, so that whether a fit runs
        # does not depend on them.
        raise ValueError("objective perturbation takes no weights; use the "
                         "output path")
    ub = 1.0 if weights is None else weight_upper_bound  # unweighted: 1
    if not (0.0 < ub < math.inf):
        raise ValueError("weight_upper_bound must be finite and positive")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (n,):
            raise ValueError("weights must match the number of rows")
        if not np.all((weights >= 0.0) & (weights <= ub + 1e-12)):
            raise ValueError("weights must lie in [0, weight_upper_bound]")

    eps = cfg.budget.epsilon

    if cfg.perturbation == "output":
        theta = _converged_minimizer(
            *_empirical_objective(X, y, loss, cfg.gamma, weights), p)
        # Noise with density proportional to exp(-beta * ||b||_2).
        beta = cfg.gamma * eps / (2.0 * ub)
        return theta + sample_sphere_gamma(p, 1.0 / beta, rng)

    # Objective perturbation.
    c = loss.curvature
    eps_prime = eps - 2.0 * math.log1p(c / cfg.gamma)
    if eps_prime > 0.0:
        slack = 0.0
    else:
        slack = c / (math.exp(eps / 4.0) - 1.0) - cfg.gamma
        eps_prime = eps / 2.0
    b = sample_sphere_gamma(p, 2.0 / eps_prime, rng)
    return _converged_minimizer(
        *_empirical_objective(X, y, loss, cfg.gamma, slack=slack, b=b), p)


def kst_slack(lam: float, epsilon: float) -> float:
    """Slack added to the regularizer for the Hessian eigenvalue bound
    lam."""
    return 2.0 * lam / epsilon


def kst_gaussian_sigma(zeta: float, budget: PrivacyBudget) -> float:
    """Gaussian noise scale for the gradient-norm bound zeta."""
    return zeta * math.sqrt(
        8.0 * math.log(2.0 / budget.delta) + 4.0 * budget.epsilon
    ) / budget.epsilon


def kst_noise(p: int, budget: PrivacyBudget, rng: RandomSource,
              size: int | None = None) -> np.ndarray:
    """Objective-perturbation noise for the regression path, calibrated to
    the gradient-norm bound 2 p^(3/2): Gamma-radial under a pure budget,
    spherical Gaussian otherwise."""
    zeta = 2.0 * p ** 1.5
    if budget.delta == 0.0:
        return sample_sphere_gamma(p, 2.0 * zeta / budget.epsilon, rng, size)
    sigma = kst_gaussian_sigma(zeta, budget)
    n = 1 if size is None else size
    out = sigma * rng.normal((n, p))
    return out[0] if size is None else out


def erm_kst(X, y, budget: PrivacyBudget, gamma: float,
            rng: RandomSource | None = None) -> np.ndarray:
    """Regression-path private ERM (Kifer, Smith and Thakurta, COLT 2012).

    The loss is half squared error, (1/2)(x.theta - y)^2. With p the
    columns of X, the release is private for row norms <= sqrt(p), targets
    in [-p, p] and coefficients in the sqrt(p) ball: the first two are
    refused otherwise, the third is where the minimizer is sought, and the
    noise is calibrated to the gradient-norm bound 2 p^(3/2) and the
    Hessian eigenvalue bound p that they imply. A probabilistic budget is
    refused: the Gaussian calibration is proven for approximate DP only.

    The perturbed objective is (1/2n) theta^T A theta - c^T theta / n with
    A = X^T X + (gamma + slack) I and c = X^T y - b. Its minimizer over the
    ball is computed exactly: data that meet the contract are never
    refused.
    """
    if rng is None:
        rng = RandomSource()  # seeded from OS entropy
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape
    if budget.variant == PROBABILISTIC:
        raise ValueError("regression-path ERM provides pure or approximate "
                         "DP only")
    if y.shape != (n,):
        raise ValueError("targets must be a vector matching the rows of X")
    if not (0.0 < gamma < math.inf):
        raise ValueError("regularization constant gamma must be finite and "
                         "positive")
    _check_rows(X, math.sqrt(p))
    if not np.all(np.abs(y) <= p + _ROW_NORM_TOL):  # NaN too
        raise ValueError(f"targets must be finite and lie in [-{p}, {p}]")

    slack = kst_slack(float(p), budget.epsilon)
    b = kst_noise(p, budget, rng)
    A = X.T @ X
    A[np.diag_indices(p)] += gamma + slack
    c = X.T @ y
    c -= b
    return _ball_quadratic_min(A, c, math.sqrt(p))


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
