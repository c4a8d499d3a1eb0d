"""Core randomized mechanisms: Laplace, Gaussian, and exponential.

The budget picks the noise: a pure budget gets Laplace noise scaled to the
l1 sensitivity, an approximate or probabilistic one Gaussian noise scaled to
the l2 sensitivity. ``joint_mechanism`` adds such noise iid, calibrated once
to the joint sensitivity of a whole vector; the per-coordinate Laplace and
Gaussian mechanisms take plain sensitivity vectors and reduce to it under
their default allocation.

All randomness flows through a seedable :class:`RandomSource`, so every
mechanism is a pure function of (inputs, seed).
"""

from __future__ import annotations

import copy
import math
from contextlib import contextmanager
from dataclasses import dataclass

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
        u = self._fill(self._gen, np.empty(1 if size is None else size))
        return u[0] if size is None else u

    def _fill(self, gen, out):
        """``out`` filled with the uniforms of ``uniform``, from ``gen``."""
        gen.random(out=out)
        out += 2.0 ** -54
        np.minimum(out, _BELOW_ONE, out=out)
        return out

    @contextmanager
    def _streams(self, parts: int, mid: int):
        """The generators of a draw in ``parts`` ranges split at ``mid``:
        this source's own, then a copy advanced by ``mid`` words. The source
        draws on from the last, as one sequential draw would leave it."""
        gens = [self._gen]
        if parts == 2:
            gens.append(copy.deepcopy(self._gen))
            gens[1].bit_generator.advance(mid)
        yield gens
        self._gen = gens[-1]

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
        if not (0.0 < self.epsilon < math.inf):
            raise ValueError("epsilon must be finite and positive")
        if not (0.0 <= self.delta < 1.0):
            raise ValueError("delta must lie in [0, 1)")
        if (self.delta == 0.0) != (self.variant == PURE):
            raise ValueError("delta must be 0 exactly when the variant is pure")


@dataclass(frozen=True)
class BudgetAllocation:
    proportions: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.proportions, dtype=np.float64))
        if not np.all(arr > 0.0):  # NaN too
            raise ValueError("allocation proportions must be positive")
        if abs(arr.sum() - 1.0) > 1e-12:
            raise ValueError("allocation proportions must sum to 1")
        object.__setattr__(self, "proportions", arr)


def _sensitivities(values, sensitivities, alloc) -> np.ndarray:
    """The per-coordinate sensitivities as a float vector, refused unless
    nonempty, finite, nonnegative and as long as ``values`` and ``alloc``."""
    sens = np.atleast_1d(np.asarray(sensitivities, dtype=np.float64))
    if sens.size == 0:
        raise ValueError("sensitivity vector must be nonempty")
    if np.any(sens < 0.0) or not np.all(np.isfinite(sens)):
        raise ValueError("sensitivities must be finite and nonnegative")
    n = values.shape[0]
    if sens.shape[0] != n:
        raise ValueError("sensitivity vector length does not match values")
    if alloc is not None and alloc.proportions.shape[0] != n:
        raise ValueError("allocation length does not match values")
    return sens


def _real_vector(values) -> np.ndarray:
    """``values`` as an array of at least one dimension. Bool, integer and
    float vectors are kept as they are: adding one to float64 noise casts it
    exactly as a float copy would, so the bits are the same. Complex and
    text vectors are refused by name; any other dtype is cast to float64."""
    values = np.atleast_1d(np.asarray(values))
    if values.dtype.kind == "c":
        raise ValueError("values must be real numbers, not complex")
    if values.dtype.kind in "US":
        raise ValueError("values must be numbers, not text")
    if not np.can_cast(values.dtype, np.float64):
        values = values.astype(np.float64)
    return values


def _add_noise(values, budget: PrivacyBudget, scale, rng: RandomSource,
               out: np.ndarray | None = None) -> np.ndarray:
    """``values`` plus noise of ``scale``, one value or one per coordinate:
    Laplace of that scale under a pure budget, Normal of that standard
    deviation otherwise. Every coordinate consumes one uniform from
    ``rng``.

    The result is written into ``out``, a float64 array as long as
    ``values`` that may hold the same cells (an int64 vector's own cells,
    viewed as float64), or into a new array. Each span of cells is copied
    into a saved row, then the uniforms are drawn over the span's cells of
    ``out``, shaped, scaled, and the saved values added back, in the ranges
    of ``_kernels._in_ranges``."""
    n, gaussian = values.shape[0], budget.variant != PURE
    scale = (np.asarray(scale, dtype=np.float64) if gaussian
             else _kernels._laplace_scale(scale, (n,)))
    if out is None:
        out = np.empty(n)
    parts = _kernels._parts(n)
    work = np.empty((parts, (3 if gaussian else 1) * min(n, _kernels._BLOCK)))
    saved = np.empty((parts, min(n, _kernels._SPAN)), values.dtype)

    with rng._streams(parts, n // 2) as gens:
        def release(part, lo, hi):
            for start in range(lo, hi, _kernels._SPAN):
                stop = min(start + _kernels._SPAN, hi)
                kept = saved[part, :stop - start]
                np.copyto(kept, values[start:stop])
                x = rng._fill(gens[part], out[start:stop])
                span_scale = scale[start:stop] if scale.ndim else scale
                if gaussian:
                    _kernels._normal_spans(x, x, work[part])
                    x *= span_scale
                else:
                    _kernels._laplace_blocks(x, x, work[part], span_scale)
                x += kept

        _kernels._in_ranges(release, n, parts)
    return out


def joint_mechanism(values, budget: PrivacyBudget, sensitivity: float,
                    rng: RandomSource, *, _out=None) -> np.ndarray:
    """Add iid noise calibrated once to the joint sensitivity of the vector.

    A pure budget adds Laplace noise of scale sensitivity/eps, taking the
    sensitivity as an l1 norm; any other adds N(0, sigma^2) with sigma =
    gaussian_sigma(budget, sensitivity), taking it as an l2 norm. Bool,
    integer and float vectors are released; complex and text vectors are
    refused. The result is a new array, and ``values`` is left as it is.
    Besides the two, each range of the noise loop holds a row of 2^17 saved
    values and one work row of 2^16 elements for Laplace noise, or three
    for Normal noise.

    ``_out`` is private to count releases: their int64 counts viewed as
    float64, which the released values overwrite.
    """
    sensitivity = float(sensitivity)
    if not (0.0 <= sensitivity < math.inf):
        raise ValueError("sensitivity must be finite and nonnegative")
    scale = (sensitivity / budget.epsilon if budget.variant == PURE
             else gaussian_sigma(budget, sensitivity))
    return _add_noise(_real_vector(values), budget, scale, rng, _out)


def laplace_mechanism(values, budget: PrivacyBudget, sensitivities,
                      alloc: BudgetAllocation | None = None,
                      rng: RandomSource | None = None) -> np.ndarray:
    """Add Lap(0, delta_i / eps_i) noise per coordinate, for the l1
    sensitivities delta_i.

    Default allocation splits the budget proportionally to the per-coordinate
    sensitivities, so every coordinate gets the scale sum(delta)/eps: the
    joint mechanism at the l1 total, with zero-sensitivity coordinates left
    exact. An explicit allocation sets eps_i = eps * alloc_i.
    """
    if rng is None:
        rng = RandomSource()  # seeded from OS entropy
    if budget.variant != PURE:
        raise ValueError("Laplace mechanism requires a pure-DP budget")
    values = _real_vector(values)
    delta = _sensitivities(values, sensitivities, alloc)
    if alloc is None:
        noisy = joint_mechanism(values, budget, delta.sum(), rng)
        return np.where(delta > 0.0, noisy, values)
    eps_i = budget.epsilon * alloc.proportions
    return _add_noise(values, budget,
                      np.where(delta > 0.0, delta / eps_i, 0.0), rng)


def gaussian_sigma(budget: PrivacyBudget, delta2f: float) -> float:
    """Noise standard deviation calibrated for the Gaussian mechanism."""
    if budget.variant == PURE:
        raise ValueError("Gaussian mechanism needs delta > 0")
    if delta2f < 0.0:
        raise ValueError("sensitivity must be nonnegative")
    return float(_gaussian_sigmas(budget.variant, np.array([budget.epsilon]),
                                  np.array([budget.delta]),
                                  np.array([delta2f]))[0])


def _gaussian_sigmas(variant: str, eps: np.ndarray, dlt: np.ndarray,
                     sens: np.ndarray) -> np.ndarray:
    """The Gaussian calibration of each (eps_i, dlt_i) budget of ``variant``
    and nonnegative sensitivity sens_i, with one Normal quantile call in all.
    A sensitivity of 0 gets the scale 0 under any budget."""
    if variant == APPROXIMATE:
        if np.any((eps >= 1.0) & (sens != 0.0)):
            raise ValueError(
                "approximate-DP Gaussian calibration requires epsilon < 1; "
                "use the probabilistic variant for larger budgets")
        return np.array([d * math.sqrt(2.0 * math.log(1.25 / t)) / e
                         if d else 0.0 for d, e, t in
                         zip(sens.tolist(), eps.tolist(), dlt.tolist())])
    quantiles = _kernels.normal_quantile(dlt / 2.0)
    return np.array([d * (math.sqrt(q * q + 2.0 * e) - q) / (2.0 * e)
                     if d else 0.0 for d, e, q in
                     zip(sens.tolist(), eps.tolist(), quantiles.tolist())])


def gaussian_mechanism(values, budget: PrivacyBudget, sensitivities,
                       alloc: BudgetAllocation | None = None,
                       rng: RandomSource | None = None) -> np.ndarray:
    """Add N(0, sigma_i^2) noise per coordinate, for the l2 sensitivities
    delta_i.

    Without an allocation this is the joint mechanism at the composite
    sensitivity sqrt(sum(delta_i^2)). With an allocation, coordinate i gets
    its own (eps * alloc_i, delta * alloc_i) budget and its own sensitivity.
    """
    if rng is None:
        rng = RandomSource()  # seeded from OS entropy
    if budget.variant not in (APPROXIMATE, PROBABILISTIC):
        raise ValueError("Gaussian mechanism requires an approximate or "
                         "probabilistic budget")
    values = _real_vector(values)
    delta = _sensitivities(values, sensitivities, alloc)
    if alloc is None:
        # fsum is exact, so the sensitivity does not depend on the order
        # of a sum, which a BLAS dot product takes from its thread count.
        return joint_mechanism(values, budget,
                               math.sqrt(math.fsum(delta * delta)), rng)
    # Coordinate i gets the budget (eps * alloc_i, delta * alloc_i). Scaling
    # by a positive share is monotone, so the budgets of the smallest and
    # the largest share are refused exactly when any coordinate's would be.
    eps = budget.epsilon * alloc.proportions
    dlt = budget.delta * alloc.proportions
    for i in (np.argmin(alloc.proportions), np.argmax(alloc.proportions)):
        PrivacyBudget(float(eps[i]), float(dlt[i]), budget.variant)
    return _add_noise(values, budget,
                      _gaussian_sigmas(budget.variant, eps, dlt, delta), rng)


def exponential_mechanism(utility, budget: PrivacyBudget, sens_u: float,
                          measure=None,
                          rng: RandomSource | None = None) -> int:
    """Select an index with probability proportional to
    measure_i * exp(eps * u_i / (2 * sens_u)).

    Uses max-subtraction before exponentiation, so utility ranges spanning
    [-1e6, 1e6] are handled without overflow; a utility of -inf weighs 0.
    """
    if rng is None:
        rng = RandomSource()  # seeded from OS entropy
    if budget.variant != PURE:
        raise ValueError("exponential mechanism requires a pure-DP budget")
    if not (0.0 <= sens_u < math.inf):
        raise ValueError("utility sensitivity must be finite and nonnegative")
    utility = np.atleast_1d(np.asarray(utility, dtype=np.float64))
    if utility.size == 0:
        raise ValueError("utility vector must be nonempty")
    if not np.all(utility < math.inf):  # NaN too
        raise ValueError("utilities must not be NaN or +inf")
    if measure is None:
        measure = np.ones(utility.shape[0])
    else:
        measure = np.atleast_1d(np.asarray(measure, dtype=np.float64))
        if measure.shape != utility.shape:
            raise ValueError("measure length does not match utility")
        if not np.all((measure >= 0.0) & (measure < math.inf)):  # NaN too
            raise ValueError("measure weights must be finite and nonnegative")
        if not np.any(measure > 0.0):
            raise ValueError("measure must not be all zero")

    # Shift by the best attainable utility (measure > 0), so the exponent is
    # nonpositive wherever it matters and never overflows.
    active = measure > 0.0
    best = utility[active].max()
    if best == -math.inf:
        raise ValueError("every utility of positive measure is -inf")
    if sens_u == 0.0:
        if np.any(utility != utility[0]):
            raise ValueError("zero utility sensitivity with non-constant "
                             "utility is ill-defined")
        weights = measure.astype(np.float64)
    else:
        weights = np.zeros(utility.shape[0])
        with np.errstate(over="ignore"):  # past the float range: weight 0
            weights[active] = measure[active] * np.exp(
                budget.epsilon * (utility[active] - best) / 2.0 / sens_u)

    with np.errstate(over="ignore"):  # an infinite sum is refused below
        cumulative = np.cumsum(weights)
    total = cumulative[-1]
    if not math.isfinite(total):  # finite measures can sum past the range
        raise ValueError("measure weights must have a finite sum")
    u = float(rng.uniform())
    # First index whose cumulative weight reaches u * total.
    return int(np.searchsorted(cumulative, u * total, side="left"))
