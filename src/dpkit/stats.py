"""Differentially private descriptive statistics.

Sensitivities are computed internally from caller-supplied global bounds;
data falling outside the bounds is clipped before the statistic is computed.
Each release returns one :class:`StatResult` carrying the value together
with its sensitivity, mechanism and neighbor model; apart from the value,
that metadata depends only on public inputs. The budget spent is the
caller's, in the request, and is not copied into the result.

Scalar statistics (mean, variance, covariance and their pooled forms) are
released under bounded neighbors only: under unbounded neighbors their
sensitivity depends on the private number of rows. Counts (histograms and
contingency tables) take either neighbor model. Histogram edges are always
declared by the caller, and a quantile is drawn uniformly from inside the
interval the exponential mechanism picks.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from . import _kernels
from .mechanisms import (APPROXIMATE, PROBABILISTIC, PURE, PrivacyBudget,
                         RandomSource, exponential_mechanism,
                         joint_mechanism)

LAPLACE = "laplace"
GAUSSIAN = "gaussian"
BOUNDED = "bounded"
UNBOUNDED = "unbounded"
# The mechanism each budget variant picks.
_MECHANISM = {PURE: LAPLACE, APPROXIMATE: GAUSSIAN, PROBABILISTIC: GAUSSIAN}


@dataclass(frozen=True)
class Bounds:
    lower: float
    upper: float

    def __post_init__(self):
        if not (self.lower < self.upper):
            raise ValueError("lower bound must be strictly below upper bound")
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("bounds must be finite")
        if not math.isfinite(self.upper - self.lower):
            raise ValueError("bounds too wide: their width overflows")

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _squared_width(width: float) -> float:
    """``width ** 2``, refused by name past the float range. ``** 2`` is
    kept: ``width * width`` rounds differently for some widths, which would
    move seeded releases."""
    try:
        return width ** 2
    except OverflowError:
        raise ValueError("bounds too wide: the square of their width "
                         "overflows") from None


@dataclass(frozen=True)
class StatRequest:
    budget: PrivacyBudget
    mechanism: InitVar[str | None] = None  # if given, the budget's pick
    neighbor: str = BOUNDED

    def __post_init__(self, mechanism):
        if self.neighbor not in (BOUNDED, UNBOUNDED):
            raise ValueError("neighbor must be 'bounded' or 'unbounded'")
        if mechanism not in (None, _MECHANISM[self.budget.variant]):
            raise ValueError({
                LAPLACE: "the Laplace mechanism requires a pure budget",
                GAUSSIAN: "the Gaussian mechanism requires delta > 0",
            }.get(mechanism, "mechanism must be 'laplace' or 'gaussian'"))


@dataclass(frozen=True)
class HistogramSpec:
    """Declared bin edges and what is done to the noisy counts: clamped at
    0 unless ``allow_negative``, then, if ``normalize``, divided by their
    total times the bin widths, a density. A total that is not positive,
    as when every clamped cell is 0, is left as it is: the vector is
    returned clamped but not normalized."""
    breaks: np.ndarray  # declared edges, never derived from the data
    normalize: bool = False
    allow_negative: bool = False

    def __post_init__(self):
        edges = np.asarray(self.breaks, dtype=np.float64)
        if (edges.ndim != 1 or edges.size < 2
                or not np.all(np.isfinite(edges))
                or np.any(np.diff(edges) <= 0)):
            raise ValueError("breaks must be >= 2 finite, strictly "
                             "ascending edges")
        object.__setattr__(self, "breaks", edges)


@dataclass(frozen=True)
class StatResult:
    statistic: str
    value: object
    sensitivity: float
    mechanism: str
    neighbor: str
    detail: dict = field(default_factory=dict)


def clip(x, bounds: Bounds) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.size == 0:
        raise ValueError("cannot clip an empty vector")
    if np.isnan(x).any():
        raise ValueError("cannot clip NaN; it lies outside every domain")
    return np.clip(x, bounds.lower, bounds.upper)


def require_bounded(statistic: str, neighbor: str) -> None:
    """Refuse any neighbor model but bounded for a scalar statistic."""
    if neighbor != BOUNDED:
        # Adding or removing a row changes n, and these sensitivities scale
        # with 1/n: the noise would depend on the private count.
        raise ValueError(f"{statistic} is released under bounded neighbors "
                         "only; unbounded neighbors apply to counts")


def _scalar_release(statistic: str, value: float, sensitivity: float,
                    req: StatRequest, rng: RandomSource,
                    detail: dict) -> StatResult:
    require_bounded(statistic, req.neighbor)
    # Finite bounds can still give an infinite sensitivity: cov multiplies
    # two widths, and the pooled forms scale a square or a product up.
    if not math.isfinite(sensitivity):
        raise ValueError("bounds too wide: the sensitivity they give "
                         "overflows")
    noisy = joint_mechanism(np.array([value]), req.budget, sensitivity, rng)
    return StatResult(statistic, float(noisy[0]), sensitivity,
                      _MECHANISM[req.budget.variant], BOUNDED, detail)


def mean_dp(x, bounds: Bounds, req: StatRequest, rng: RandomSource):
    clipped = clip(x, bounds)
    n = clipped.size
    sensitivity = bounds.width / n
    return _scalar_release("mean", float(clipped.mean()), sensitivity, req,
                           rng, {"n": n})


def var_dp(x, bounds: Bounds, req: StatRequest, rng: RandomSource):
    clipped = clip(x, bounds)
    n = clipped.size
    if n < 2:
        raise ValueError("variance needs at least 2 observations")
    sensitivity = _squared_width(bounds.width) / n
    return _scalar_release("var", float(clipped.var(ddof=1)), sensitivity,
                           req, rng, {"n": n})


def sd_dp(x, bounds: Bounds, req: StatRequest, rng: RandomSource):
    """sqrt of the privatized variance; negative draws floor at 0 first.

    Post-processing of a single variance release, so no extra budget."""
    released = var_dp(x, bounds, req, rng)
    return replace(released, statistic="sd",
                   value=math.sqrt(max(released.value, 0.0)))


def cov_dp(x1, x2, bounds1: Bounds, bounds2: Bounds, req: StatRequest,
           rng: RandomSource):
    c1 = clip(x1, bounds1)
    c2 = clip(x2, bounds2)
    if c1.size != c2.size:
        raise ValueError("covariance inputs must have equal length")
    n = c1.size
    if n < 2:
        raise ValueError("covariance needs at least 2 observations")
    sensitivity = bounds1.width * bounds2.width / n
    value = float(np.cov(c1, c2, ddof=1)[0, 1])
    return _scalar_release("cov", value, sensitivity, req, rng, {"n": n})


def pooled_var_sensitivity(width: float, n_max: int, total_n: int,
                           n_groups: int) -> float:
    return (_squared_width(width) * (n_max - 1)
            / (n_max * (total_n - n_groups)))


def pooled_var_dp(groups, bounds: Bounds, req: StatRequest, rng: RandomSource,
                  approx_n_max: bool = False):
    clipped = [clip(g, bounds) for g in groups]
    if len(clipped) < 2:
        raise ValueError("pooled variance needs at least 2 groups")
    sizes = [g.size for g in clipped]
    if min(sizes) < 2:
        raise ValueError("every group needs at least 2 observations")
    total_n, k = sum(sizes), len(sizes)
    n_max = total_n if approx_n_max else max(sizes)
    value = sum((g.size - 1) * g.var(ddof=1) for g in clipped) / (total_n - k)
    sensitivity = pooled_var_sensitivity(bounds.width, n_max, total_n, k)
    return _scalar_release("pooled_var", float(value), sensitivity, req, rng,
                           {"n": total_n, "groups": k, "n_max": n_max})


def pooled_cov_dp(pairs, bounds1: Bounds, bounds2: Bounds, req: StatRequest,
                  rng: RandomSource, approx_n_max: bool = False):
    groups = []
    for pair in pairs:
        arr = np.asarray(pair, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("each pooled-covariance group must be a "
                             "two-column matrix")
        groups.append(np.column_stack([clip(arr[:, 0], bounds1),
                                       clip(arr[:, 1], bounds2)]))
    if len(groups) < 2:
        raise ValueError("pooled covariance needs at least 2 groups")
    sizes = [g.shape[0] for g in groups]
    if min(sizes) < 2:
        raise ValueError("every group needs at least 2 observations")
    total_n, k = sum(sizes), len(sizes)
    n_max = total_n if approx_n_max else max(sizes)
    value = sum((g.shape[0] - 1) * np.cov(g[:, 0], g[:, 1], ddof=1)[0, 1]
                for g in groups) / (total_n - k)
    sensitivity = (bounds1.width * bounds2.width * (n_max - 1)
                   / (n_max * (total_n - k)))
    return _scalar_release("pooled_cov", float(value), sensitivity, req, rng,
                           {"n": total_n, "groups": k, "n_max": n_max})


def count_sensitivity(neighbor: str, budget: PrivacyBudget) -> float:
    """Joint sensitivity of a count vector (histogram or contingency table),
    in the norm of the mechanism the budget picks.

    A modified record moves two cells by one each (l1 = 2, l2 = sqrt(2));
    an added/removed record moves one cell by one (l1 = l2 = 1).
    """
    if neighbor == BOUNDED:
        return 2.0 if budget.variant == PURE else math.sqrt(2.0)
    return 1.0


def _release_counts(statistic: str, counts: np.ndarray, req: StatRequest,
                    rng: RandomSource, allow_negative: bool, detail: dict,
                    postprocess=None) -> StatResult:
    sensitivity = count_sensitivity(req.neighbor, req.budget)
    # The noise is written over the integer counts' own cells, so a release
    # holds one cell array, which is then clipped in place.
    counts = counts.astype(np.int64, copy=False)
    noisy = joint_mechanism(counts, req.budget, sensitivity, rng,
                            _out=counts.view(np.float64))
    if not allow_negative:
        np.maximum(noisy, 0.0, out=noisy)
    value = postprocess(noisy) if postprocess is not None else noisy
    return StatResult(statistic, value, sensitivity,
                      _MECHANISM[req.budget.variant], req.neighbor, detail)


def histogram_dp(x, spec: HistogramSpec, req: StatRequest, rng: RandomSource):
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.size == 0:
        raise ValueError("histogram needs at least one observation")
    edges, nbins = spec.breaks, spec.breaks.size - 1
    # Values outside the edges land in the end bins. Bins are half-open, and
    # a value's bin is the one k with edges[k] <= value < edges[k + 1]. The
    # last bin also holds its right edge, as in np.histogram: values are
    # clipped to the float below it. NaN sorts above every edge, so it lands
    # in one more bin, which is dropped. Each range sorts its half of the
    # clipped values in place and searches it in blocks, into rows that the
    # caller allocates. A value's bin is first guessed as if the bins were
    # of equal width and then checked against its two edges, which decides
    # it exactly; only a value that fails the check is searched for among
    # all the edges, where the sort keeps the search sequential. On equal
    # widths a 2e5-value search took 2.7 ms against 6.8 ms (two threads,
    # 1M bins, 2-vCPU VM).
    xs = np.clip(x, edges[0], np.nextafter(edges[-1], -np.inf))
    bins, parts = np.empty(xs.size, np.intp), _kernels._parts(xs.size)
    block = min(xs.size, _kernels._BLOCK)
    rows, hits = np.empty((parts, block)), np.empty((parts, 2, block), bool)
    per_unit = nbins / (float(edges[-1]) - float(edges[0]))  # may be 0, inf

    def search(part, lo, hi):
        xs[lo:hi].sort()
        for start in range(lo, hi, _kernels._BLOCK):
            stop = min(start + _kernels._BLOCK, hi)
            v, b = xs[start:stop], bins[start:stop]
            e, (hit, below_next) = rows[part, :v.size], hits[part, :, :v.size]
            # A guess that overflows or is NaN fails the check below.
            with np.errstate(over="ignore", invalid="ignore"):
                np.subtract(v, edges[0], out=e)
                e *= per_unit
                np.copyto(b, e, casting="unsafe")
            np.clip(b, 0, nbins - 1, out=b)
            # Both checks are false for NaN, which is then searched for.
            np.less_equal(np.take(edges, b, out=e, mode="clip"), v, out=hit)
            np.less(v, np.take(edges[1:], b, out=e, mode="clip"),
                    out=below_next)
            hit &= below_next
            if not hit.all():
                miss = np.flatnonzero(~hit)
                b[miss] = np.searchsorted(edges[1:], v[miss], side="right")

    _kernels._in_ranges(search, xs.size, parts)
    del xs, rows, hits  # freed before the counts, and bins after them
    counts = np.bincount(bins, minlength=edges.size)[:-1]
    del bins

    postprocess = None
    if spec.normalize:
        widths = np.diff(edges)

        def postprocess(noisy):
            total = noisy.sum()
            if total <= 0.0:
                return noisy
            return noisy / (total * widths)

    return _release_counts("histogram", counts, req, rng,
                           spec.allow_negative, {"edges": edges}, postprocess)


def table_dp(factors, categories, req: StatRequest, rng: RandomSource,
             allow_negative: bool = False, names=None):
    """Multiway contingency table over declared category sets. A label
    outside them is refused naming its factor or its column in ``names``."""
    if len(factors) != len(categories):
        raise ValueError("one category set per factor is required")
    lengths = {len(f) for f in factors}
    if len(lengths) != 1:
        raise ValueError("factors must have equal length")
    shape = tuple(len(c) for c in categories)
    n = lengths.pop()
    index_arrays = []
    for k, (factor, cats) in enumerate(zip(factors, categories)):
        lookup = {c: i for i, c in enumerate(cats)}
        try:
            index_arrays.append(np.fromiter(map(lookup.__getitem__, factor),
                                            np.intp, count=n))
        except KeyError:
            where = f"factor {k}" if names is None else f"column {names[k]!r}"
            raise ValueError(f"{where} holds a label outside its declared "
                             "categories") from None
    flat = np.bincount(np.ravel_multi_index(index_arrays, shape),
                       minlength=math.prod(shape))
    del index_arrays  # freed before the release's work rows
    return _release_counts("table", flat, req, rng, allow_negative,
                           {"categories": categories},
                           postprocess=lambda c: c.reshape(shape))


def quantile_dp(x, q: float, budget: PrivacyBudget, bounds: Bounds,
                uniform_sampling: bool = True,
                rng: RandomSource | None = None) -> StatResult:
    """Private quantile via the exponential mechanism over sorted-data
    intervals, with interval lengths as the base measure.

    The value is drawn uniformly from inside the chosen interval; an
    interval endpoint would be a raw data value. ``uniform_sampling`` is
    kept for positional callers and must be true."""
    if not uniform_sampling:
        raise ValueError("a quantile is always sampled inside its interval; "
                         "an endpoint is a raw data value")
    if rng is None:
        rng = RandomSource()  # seeded from OS entropy
    if not (0.0 <= q <= 1.0):
        raise ValueError("quantile must lie in [0, 1]")
    if budget.variant != PURE:
        raise ValueError("quantile release requires a pure budget")
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    n = x.size
    z = np.concatenate([[bounds.lower], np.sort(clip(x, bounds))
                        if n else np.empty(0), [bounds.upper]])
    lengths = np.diff(z)
    idx = np.arange(n + 1, dtype=np.float64)
    utility = -np.abs(idx - q * n)
    i = exponential_mechanism(utility, budget, 1.0, lengths, rng)
    value = float(z[i] + rng.uniform() * (z[i + 1] - z[i]))
    return StatResult("quantile", value, 1.0, "exponential", BOUNDED,
                      {"q": q, "n": n})


def median_dp(x, budget: PrivacyBudget, bounds: Bounds,
              rng: RandomSource | None = None) -> StatResult:
    return quantile_dp(x, 0.5, budget, bounds, rng=rng)
