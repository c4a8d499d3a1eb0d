"""Independent reference implementations used only by the tests.

These deliberately take different numerical routes than the package
(scipy optimizers and special functions instead of the in-package
minimizer and quantile kernels), so agreement is meaningful.
"""

import numpy as np
from scipy.optimize import minimize as scipy_minimize
from scipy.special import expit, ndtri

# Inverse-normal-CDF fixtures computed with 50-digit arbitrary-precision
# arithmetic and frozen here.
NORMAL_QUANTILE_0_005 = -2.5758293035489007

# Gaussian-mechanism noise SDs for epsilon=0.9, delta=0.05, sensitivity 0.3,
# frozen from an arbitrary-precision evaluation of the calibration formulas.
SIGMA_APPROX = 0.8457574941196798
SIGMA_PROB = 0.7225232532086648

# Selection probabilities of exp(eps*u/2) weighting for utilities
# (0, 1, 2, 1, 0) at eps=1, frozen from arbitrary-precision arithmetic.
EXP_MECH_PROBS = (0.1247547886951049, 0.20568587374331931,
                  0.3391186751231516, 0.20568587374331931,
                  0.1247547886951049)


def reference_uniforms(seed, n):
    """n uniforms of ``RandomSource(seed)`` by the integer formula: the
    dyadic midpoints (k + 0.5) / 2^53 of k = integers(0, 2^53)."""
    gen = np.random.Generator(np.random.PCG64(seed))
    return (gen.integers(0, 1 << 53, n) + 0.5) * 2.0 ** -53


def reference_laplace(values, scale, seed):
    """``values`` plus Laplace noise, one reference uniform per value, in
    the one-expression form: -scale sign(v) log1p(-2|v|), v = u - 0.5."""
    values = np.asarray(values, dtype=np.float64)
    v = reference_uniforms(seed, values.shape[0]) - 0.5
    return values + (-scale * np.sign(v)) * np.log1p(-2.0 * np.abs(v))


def reference_gaussian(values, sigma, seed):
    """``values`` plus sigma times the normal quantile of one reference
    uniform per value."""
    values = np.asarray(values, dtype=np.float64)
    return values + sigma * ndtri(reference_uniforms(seed, values.shape[0]))


def fit_logistic_unregularized(X, y01, l2=0.0):
    """Non-private logistic fit via scipy BFGS; labels in {0, 1}."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y01, dtype=np.float64)
    n, p = X.shape

    def nll(theta):
        z = X @ theta
        return (np.logaddexp(0.0, z).sum() - y @ z) / n \
            + 0.5 * l2 * theta @ theta

    def grad(theta):
        z = X @ theta
        return X.T @ (expit(z) - y) / n + l2 * theta

    res = scipy_minimize(nll, np.zeros(p), jac=grad, method="BFGS",
                         options={"gtol": 1e-10})
    return res.x


def fit_ridge(X, y, l2):
    """Closed-form ridge regression: (X'X + n*l2*I)^-1 X'y."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape
    return np.linalg.solve(X.T @ X + n * l2 * np.eye(p), X.T @ y)


def scipy_constrained_min(fun, grad, p, radius=None):
    """Reference minimizer: scipy SLSQP with an l2-ball constraint."""
    cons = []
    if radius is not None:
        cons = [{"type": "ineq",
                 "fun": lambda t: radius ** 2 - float(t @ t),
                 "jac": lambda t: -2.0 * t}]
    res = scipy_minimize(fun, np.zeros(p), jac=grad, method="SLSQP",
                         constraints=cons,
                         options={"ftol": 1e-14, "maxiter": 2000})
    return res.x
