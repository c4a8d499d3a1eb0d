"""Core randomized mechanisms: Laplace, Gaussian, and exponential.

``joint_mechanism`` adds iid Laplace or Gaussian noise calibrated once to the
joint sensitivity of a whole vector; the per-coordinate Laplace and Gaussian
mechanisms reduce to it under their default allocation.

All randomness flows through a seedable :class:`RandomSource`, so every
mechanism is a pure function of (inputs, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels

PURE = "pure"
APPROXIMATE = "approximate"
PROBABILISTIC = "probabilistic"
_VARIANTS = (PURE, APPROXIMATE, PROBABILISTIC)

_BELOW_ONE = np.nextafter(1.0, 0.0)


class RandomSource:
    """Seedable stream of uniform variates strictly inside (0, 1).

    Identical seed implies an identical output sequence, so anyone who knows
    the seed can replay the noise and remove it. Without a seed, PCG64 is
    seeded from 128 bits of fresh OS entropy. PCG64 is not a cryptographic
    generator: the privacy argument assumes a reader sees only the noisy
    outputs, never the generator's words. Single-consumer: callers running
    concurrently must each own their instance.
    """

    def __init__(self, seed: int | None = None):
        self.seed = None if seed is None else int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, size=None):
        """Dyadic midpoints (k + 0.5) / 2^53 of the top 53 bits k of one
        generator word each: uniform, never 0, and never 1.

        ``Generator.random`` gives k / 2^53 exactly, and adding 2^-54 in
        place rounds as k + 0.5 does, since scaling by a power of two
        commutes with rounding. For k = 2^53 - 1 the midpoint rounds up to
        1.0; that one value is clamped to the largest float below 1."""
        u = self._gen.random(1 if size is None else size)
        u += 2.0 ** -54
        np.minimum(u, _BELOW_ONE, out=u)
        return u[0] if size is None else u

    def normal(self, size=None):
        """Standard normals via the inverse CDF of one uniform each: the one
        place dpkit turns uniforms into Normal variates. The normals are
        written over the fresh uniforms."""
        u = np.atleast_1d(self.uniform(size=size))
        z = _kernels.normal_quantile(u, out=u)
        return z if size is not None else float(z[0])


@dataclass(frozen=True)
class PrivacyBudget:
    epsilon: float
    delta: float = 0.0
    variant: str = PURE

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown DP variant: {self.variant!r}")
        if not (self.epsilon > 0.0):
            raise ValueError("epsilon must be positive")
        if not (0.0 <= self.delta < 1.0):
            raise ValueError("delta must lie in [0, 1)")
        if (self.delta == 0.0) != (self.variant == PURE):
            raise ValueError("delta must be 0 exactly when the variant is pure")


@dataclass(frozen=True)
class SensitivitySpec:
    norm: str  # "l1" or "l2"
    per_coordinate: np.ndarray

    def __post_init__(self):
        if self.norm not in ("l1", "l2"):
            raise ValueError("norm must be 'l1' or 'l2'")
        arr = np.atleast_1d(np.asarray(self.per_coordinate, dtype=np.float64))
        if arr.size == 0:
            raise ValueError("sensitivity vector must be nonempty")
        if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
            raise ValueError("sensitivities must be finite and nonnegative")
        object.__setattr__(self, "per_coordinate", arr)


@dataclass(frozen=True)
class BudgetAllocation:
    proportions: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.proportions, dtype=np.float64))
        if np.any(arr <= 0.0):
            raise ValueError("allocation proportions must be positive")
        if abs(arr.sum() - 1.0) > 1e-12:
            raise ValueError("allocation proportions must sum to 1")
        object.__setattr__(self, "proportions", arr)


def _check_lengths(values, sens, alloc):
    n = values.shape[0]
    if sens.per_coordinate.shape[0] != n:
        raise ValueError("sensitivity vector length does not match values")
    if alloc is not None and alloc.proportions.shape[0] != n:
        raise ValueError("allocation length does not match values")


def joint_mechanism(values, budget: PrivacyBudget, norm: str,
                    sensitivity: float, rng: RandomSource) -> np.ndarray:
    """Add iid noise calibrated once to the joint sensitivity of the vector.

    ``norm="l1"`` adds Laplace noise of scale sensitivity/eps (pure budget);
    ``norm="l2"`` adds N(0, sigma^2) with sigma = gaussian_sigma(budget,
    sensitivity). Every coordinate consumes one uniform from ``rng``. The
    noise is written over the uniforms and ``values`` is added to it in
    place, so besides ``values`` a release holds that array and, for
    Laplace noise, one work array of the kernel.
    """
    sensitivity = float(sensitivity)
    if not (0.0 <= sensitivity < math.inf):
        raise ValueError("sensitivity must be finite and nonnegative")
    # Integer and bool vectors are added as they are: the in-place add casts
    # them to float64 exactly as a float copy would, so the bits are the same.
    values = np.atleast_1d(np.asarray(values))
    if not np.can_cast(values.dtype, np.float64):
        values = values.astype(np.float64)
    if norm == "l1":
        if budget.variant != PURE:
            raise ValueError("Laplace mechanism requires a pure-DP budget")
        u = rng.uniform(values.shape[0])
        noise = _kernels.laplace_noise(u, sensitivity / budget.epsilon, out=u)
    elif norm == "l2":
        sigma = gaussian_sigma(budget, sensitivity)
        noise = rng.normal(values.shape[0])
        noise *= sigma
    else:
        raise ValueError("norm must be 'l1' or 'l2'")
    noise += values
    return noise


def laplace_mechanism(values, budget: PrivacyBudget,
                      sens: SensitivitySpec,
                      alloc: BudgetAllocation | None = None,
                      rng: RandomSource | None = None) -> np.ndarray:
    """Add Lap(0, delta_i / eps_i) noise per coordinate.

    Default allocation splits the budget proportionally to the per-coordinate
    sensitivities, so every coordinate gets the scale sum(delta)/eps: the
    joint mechanism at the l1 total, with zero-sensitivity coordinates left
    exact. An explicit allocation sets eps_i = eps * alloc_i.
    """
    if rng is None:
        rng = RandomSource()  # seeded from OS entropy
    if budget.variant != PURE:
        raise ValueError("Laplace mechanism requires a pure-DP budget")
    if sens.norm != "l1":
        raise ValueError("Laplace mechanism requires l1 sensitivities")
    values = np.atleast_1d(np.asarray(values, dtype=np.float64))
    _check_lengths(values, sens, alloc)

    delta = sens.per_coordinate
    if alloc is None:
        noisy = joint_mechanism(values, budget, "l1", delta.sum(), rng)
        return np.where(delta > 0.0, noisy, values)
    eps_i = budget.epsilon * alloc.proportions
    scales = np.where(delta > 0.0, delta / eps_i, 0.0)
    u = rng.uniform(values.shape[0])
    noise = _kernels.laplace_noise(u, scales, out=u)
    noise += values
    return noise


def gaussian_sigma(budget: PrivacyBudget, delta2f: float) -> float:
    """Noise standard deviation calibrated for the Gaussian mechanism."""
    if budget.variant == PURE:
        raise ValueError("Gaussian mechanism needs delta > 0")
    if delta2f < 0.0:
        raise ValueError("sensitivity must be nonnegative")
    if delta2f == 0.0:
        return 0.0
    eps, dlt = budget.epsilon, budget.delta
    if budget.variant == APPROXIMATE:
        if eps >= 1.0:
            raise ValueError(
                "approximate-DP Gaussian calibration requires epsilon < 1; "
                "use the probabilistic variant for larger budgets")
        return delta2f * math.sqrt(2.0 * math.log(1.25 / dlt)) / eps
    q = _kernels.normal_quantile(np.array([dlt / 2.0]))[0]
    return delta2f * (math.sqrt(q * q + 2.0 * eps) - q) / (2.0 * eps)


def gaussian_mechanism(values, budget: PrivacyBudget,
                       sens: SensitivitySpec,
                       alloc: BudgetAllocation | None = None,
                       rng: RandomSource | None = None) -> np.ndarray:
    """Add N(0, sigma_i^2) noise per coordinate.

    Without an allocation this is the joint mechanism at the composite
    sensitivity sqrt(sum(delta_i^2)). With an allocation, coordinate i gets
    its own (eps * alloc_i, delta * alloc_i) budget and its own sensitivity.
    """
    if rng is None:
        rng = RandomSource()  # seeded from OS entropy
    if budget.variant not in (APPROXIMATE, PROBABILISTIC):
        raise ValueError("Gaussian mechanism requires an approximate or "
                         "probabilistic budget")
    if sens.norm != "l2":
        raise ValueError("Gaussian mechanism requires l2 sensitivities")
    values = np.atleast_1d(np.asarray(values, dtype=np.float64))
    _check_lengths(values, sens, alloc)

    delta = sens.per_coordinate
    if alloc is None:
        return joint_mechanism(values, budget, "l2",
                               math.sqrt(float(delta @ delta)), rng)
    sigmas = np.empty(values.shape[0])
    for i, prop in enumerate(alloc.proportions):
        sub = PrivacyBudget(budget.epsilon * prop, budget.delta * prop,
                            budget.variant)
        sigmas[i] = gaussian_sigma(sub, float(delta[i]))
    noise = rng.normal(values.shape[0])
    noise *= sigmas
    noise += values
    return noise


def exponential_mechanism(utility, budget: PrivacyBudget, sens_u: float,
                          measure=None,
                          rng: RandomSource | None = None) -> int:
    """Select an index with probability proportional to
    measure_i * exp(eps * u_i / (2 * sens_u)).

    Uses max-subtraction before exponentiation, so utility ranges spanning
    [-1e6, 1e6] are handled without overflow.
    """
    if rng is None:
        rng = RandomSource()  # seeded from OS entropy
    if budget.variant != PURE:
        raise ValueError("exponential mechanism requires a pure-DP budget")
    if sens_u < 0.0:
        raise ValueError("utility sensitivity must be nonnegative")
    utility = np.atleast_1d(np.asarray(utility, dtype=np.float64))
    if utility.size == 0:
        raise ValueError("utility vector must be nonempty")
    if measure is None:
        measure = np.ones(utility.shape[0])
    else:
        measure = np.atleast_1d(np.asarray(measure, dtype=np.float64))
        if measure.shape != utility.shape:
            raise ValueError("measure length does not match utility")
        if np.any(measure < 0.0):
            raise ValueError("measure weights must be nonnegative")
        if not np.any(measure > 0.0):
            raise ValueError("measure must not be all zero")

    # Shift by the best attainable utility (measure > 0), so the exponent is
    # nonpositive wherever it matters and never overflows.
    active = measure > 0.0
    shifted = utility - utility[active].max()
    if sens_u == 0.0:
        if np.any(utility != utility[0]):
            raise ValueError("zero utility sensitivity with non-constant "
                             "utility is ill-defined")
        weights = measure.astype(np.float64)
    else:
        weights = np.zeros(utility.shape[0])
        weights[active] = measure[active] * np.exp(
            budget.epsilon * shifted[active] / (2.0 * sens_u))

    cumulative = np.cumsum(weights)
    total = cumulative[-1]
    if not (total > 0.0) or not math.isfinite(total):
        raise ValueError("selection weights degenerate (all zero or "
                         "non-finite)")
    u = float(rng.uniform())
    # First index whose cumulative weight reaches u * total.
    return int(np.searchsorted(cumulative, u * total, side="left"))
