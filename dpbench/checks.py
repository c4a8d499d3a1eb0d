"""Independent correctness checks: tail bounds and reference computations.

Nothing here imports dpkit. Noise scales are recomputed from the textbook
sensitivity and sigma formulas, exact statistics come from numpy on the
generated data, and non-private minimizers come from ``scipy.optimize``.
Every tail bound holds with failure probability ``FAIL_P`` per check.
"""

from __future__ import annotations

import math

import numpy as np

FAIL_P = 1e-9


class CheckError(Exception):
    """An operation's output is wrong."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def laplace_tail(b: float, cells: int = 1) -> float:
    """|Lap(b)| stays below this on all ``cells`` draws w.p. 1 - FAIL_P."""
    return b * math.log(cells / FAIL_P)


def gaussian_tail(sigma: float, cells: int = 1) -> float:
    return sigma * math.sqrt(2.0 * math.log(2.0 * cells / FAIL_P))


def gaussian_sigma(sensitivity: float, epsilon: float, delta: float) -> float:
    """Classical calibration (approximate DP, epsilon < 1)."""
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


def count_sensitivity(mechanism: str) -> float:
    """Bounded neighbours: one changed record moves two cells by one."""
    return 2.0 if mechanism == "laplace" else math.sqrt(2.0)


def check_noise_vector(noisy, exact, mechanism: str, scale: float) -> None:
    """A count vector released without clamping: every cell within the
    tail bound, and the empirical spread equal to the stated scale (Laplace
    b or Gaussian sigma) within eight standard errors."""
    diff = np.asarray(noisy, dtype=np.float64).ravel() - \
        np.asarray(exact, dtype=np.float64).ravel()
    m = diff.size
    tail = (laplace_tail(scale, m) if mechanism == "laplace"
            else gaussian_tail(scale, m))
    require(float(np.max(np.abs(diff))) <= tail,
            f"{mechanism} noise exceeds its tail bound {tail:.6g}")
    if mechanism == "laplace":
        spread = float(np.mean(np.abs(diff))) / scale  # E|X| = b
        stderr = 1.0 / math.sqrt(m)
        sd = math.sqrt(2.0) * scale
    else:
        spread = float(np.std(diff)) / scale
        stderr = 1.0 / math.sqrt(2.0 * m)
        sd = scale
    require(abs(spread - 1.0) <= 8.0 * stderr,
            f"{mechanism} noise spread is {spread:.5f} x the stated scale")
    require(abs(float(np.mean(diff))) <= 8.0 * sd / math.sqrt(m),
            f"{mechanism} noise is not centred")


def check_clamped_counts(released, exact, mechanism: str,
                         scale: float) -> None:
    """Counts released with negatives clamped to zero (CLI default)."""
    released = np.asarray(released, dtype=np.float64).ravel()
    exact = np.asarray(exact, dtype=np.float64).ravel()
    require(released.shape == exact.shape, "count vector has the wrong size")
    require(bool(np.all(released >= 0.0)), "clamped counts went negative")
    tail = (laplace_tail(scale, exact.size) if mechanism == "laplace"
            else gaussian_tail(scale, exact.size))
    require(float(np.max(np.abs(released - exact))) <= tail,
            "a count lies outside its tail bound")


def check_labels(labels, features, coef, what: str) -> None:
    """Labels must equal 1[features . coef >= 0], except where the margin
    is within rounding of zero."""
    margin = np.asarray(features) @ np.asarray(coef)
    labels = np.asarray(labels, dtype=np.float64)
    tie = np.abs(margin) <= 1e-9 * (1.0 + float(np.abs(coef).sum()))
    require(labels.shape == margin.shape and
            bool(np.all((labels == (margin >= 0.0)) | tie)),
            f"{what}: labels differ from sign(X theta)")


def em_quantile_interval(values, lower: float, upper: float, q: float,
                         epsilon: float) -> tuple[float, float]:
    """Range a private quantile lands in w.p. 1 - FAIL_P.

    Computes the exponential mechanism's exact distribution over the
    intervals between sorted clipped values (base measure: interval length,
    utility -|i - qn|, sensitivity 1) and returns the values at the ends of
    the smallest rank window around qn that holds all but FAIL_P of it.
    """
    z = np.concatenate([[lower], np.sort(np.clip(values, lower, upper)),
                        [upper]])
    n = z.size - 2
    lengths = np.diff(z)
    err = np.abs(np.arange(n + 1, dtype=np.float64) - q * n)
    with np.errstate(divide="ignore"):
        logw = np.log(lengths) - epsilon * err / 2.0
    w = np.exp(logw - logw.max())
    w /= w.sum()
    order = np.argsort(err, kind="stable")
    outside = 1.0 - np.cumsum(w[order])
    k = int(np.argmax(outside <= FAIL_P))
    radius = err[order[k]]
    inside = np.nonzero(err <= radius)[0]
    return float(z[inside[0]]), float(z[inside[-1] + 1])


def huber_value_grad(z, h: float):
    value = np.where(z > 1.0 + h, 0.0,
                     np.where(z < 1.0 - h, 1.0 - z, (1.0 + h - z) ** 2
                              / (4.0 * h)))
    grad = np.where(z > 1.0 + h, 0.0,
                    np.where(z < 1.0 - h, -1.0, -(1.0 + h - z) / (2.0 * h)))
    return value, grad


def logistic_value_grad(z):
    return np.logaddexp(0.0, -z), -0.5 * (1.0 - np.tanh(z / 2.0))


def erm_minimizer(Xs, y_pm, loss: str, gamma: float,
                  huber_h: float = 0.5) -> np.ndarray:
    """Non-private minimizer of sum(loss(y x.theta)) + gamma/2 |theta|^2
    (the benchmark's own objective; same minimizer as dpkit's mean form)."""
    from scipy.optimize import minimize

    def fun(theta):
        z = y_pm * (Xs @ theta)
        if loss == "logistic":
            value, dz = logistic_value_grad(z)
        else:
            value, dz = huber_value_grad(z, huber_h)
        f = float(value.sum()) + 0.5 * gamma * float(theta @ theta)
        return f, Xs.T @ (dz * y_pm) + gamma * theta

    res = minimize(fun, np.zeros(Xs.shape[1]), jac=True, method="L-BFGS-B",
                   options={"gtol": 1e-9, "ftol": 1e-15, "maxiter": 20000})
    return res.x


def gamma_radius(p: int, scale: float) -> float:
    """Radius of output-perturbation noise (norm ~ Gamma(p, scale)) that
    holds w.p. 1 - FAIL_P."""
    from scipy.stats import gamma
    return float(gamma.isf(FAIL_P, p, scale=scale))


def erm_hessian_min(Xs, y_pm, theta, loss: str, gamma: float,
                    huber_h: float = 0.5) -> float:
    """Smallest eigenvalue of the Hessian of
    sum(loss(y x.theta)) + gamma/2 |theta|^2 at theta."""
    z = y_pm * (Xs @ theta)
    if loss == "logistic":
        curv = 0.25 / np.cosh(z / 2.0) ** 2  # sigmoid'(z)
    else:
        curv = np.where(np.abs(z - 1.0) < huber_h, 1.0 / (2.0 * huber_h),
                        0.0)
    hess = (Xs * curv[:, None]).T @ Xs + gamma * np.eye(Xs.shape[1])
    return float(np.linalg.eigvalsh(hess)[0])


def objective_epsilon(epsilon: float, curvature: float,
                      gamma: float) -> float:
    """Budget left for the linear noise term of classification objective
    perturbation (Chaudhuri, Monteleoni and Sarwate 2011) when no extra
    regularisation is needed; the workloads keep it positive."""
    eps_b = epsilon - 2.0 * math.log1p(curvature / gamma)
    if eps_b <= 0.0:
        raise ValueError("objective perturbation needs extra slack here")
    return eps_b


def ridge(X, y, reg: float) -> tuple[np.ndarray, float]:
    """Minimizer of 1/2 |X theta - y|^2 + reg/2 |theta|^2 and the smallest
    eigenvalue of its Hessian X'X + reg I."""
    hess = X.T @ X + reg * np.eye(X.shape[1])
    return (np.linalg.solve(hess, X.T @ y),
            float(np.linalg.eigvalsh(hess)[0]))


def kst_sigma(grad_norm_bound: float, epsilon: float, delta: float) -> float:
    """Gaussian objective-perturbation scale of Kifer, Smith and Thakurta
    (2012) for approximate DP."""
    return grad_norm_bound * math.sqrt(
        8.0 * math.log(2.0 / delta) + 4.0 * epsilon) / epsilon


def gaussian_norm_radius(p: int, sigma: float) -> float:
    """Norm of a p-dimensional N(0, sigma^2 I) vector that holds
    w.p. 1 - FAIL_P."""
    from scipy.stats import chi2
    return sigma * math.sqrt(float(chi2.isf(FAIL_P, p)))
