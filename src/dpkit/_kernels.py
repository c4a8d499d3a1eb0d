"""Numeric kernels: uniform variates to Normal or Laplace noise, and random
cosine features, each computed by vectorized numpy/scipy calls.

scipy is imported on the first Normal quantile, not with the package: it
takes most of ``import dpkit``, and Laplace releases and the ledger never
need it."""

from __future__ import annotations

import math

import numpy as np


def normal_quantile(u: np.ndarray, out: np.ndarray | None = None
                    ) -> np.ndarray:
    """Inverse standard normal CDF, elementwise, for u strictly in (0, 1).

    As in numpy, ``out`` (a float64 array of u's shape, which may be ``u``
    itself) receives the result and is returned; without it the result is
    a new array and ``u`` is left as it is."""
    from scipy.special import ndtri

    u = np.asarray(u, dtype=np.float64)
    if u.size and (u.min() <= 0.0 or u.max() >= 1.0):
        raise ValueError("uniform variates must lie strictly inside (0, 1)")
    return ndtri(u, out=out)


def laplace_noise(u: np.ndarray, scale,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Laplace(0, scale) noise by the inverse CDF, -scale sign(v)
    log1p(-2|v|) with v = u - 0.5; u = 0.5 gives exactly 0. ``scale``
    broadcasts against ``u``, and the result has at least one dimension.

    As in numpy, ``out`` receives the result and is returned. It must be a
    float64 array of the broadcast shape and may be ``u`` itself: u is read
    once, into the kernel's one work array, before out is written. Without
    ``out`` the result is a new array and ``u`` is left as it is."""
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    scale = np.asarray(scale, dtype=np.float64)
    if np.any(scale < 0.0):
        raise ValueError("Laplace scale must be nonnegative")
    # In place, in the operand order of the formula, so the bits are the
    # same. np.sign writes to out, never over v: numpy's sign with its
    # input as its output took 7.8 ms per 1M elements, against 1.4 ms into
    # another array (2-vCPU VM).
    v = u - 0.5
    noise = np.multiply(-scale, np.sign(v, out=out), out=out)
    np.abs(v, out=v)
    v *= -2.0
    np.log1p(v, out=v)
    noise *= v
    return noise


def rff_features(x: np.ndarray, freqs: np.ndarray,
                 phases: np.ndarray) -> np.ndarray:
    """Features D^{-1/2} cos(w_j . x_i + psi_j); rows have l2 norm <= 1.

    The result is column-major (the transpose of a row-major D x n
    product), which the solver's products read faster; the phase, the
    cosine and the division run in place on it."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    freqs = np.ascontiguousarray(freqs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != freqs.shape[1]:
        raise ValueError("input dimension does not match projection frequencies")
    features = (freqs @ x.T).T
    features += np.asarray(phases, dtype=np.float64)
    np.cos(features, out=features)
    features /= math.sqrt(freqs.shape[0])
    return features
