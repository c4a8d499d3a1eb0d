import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpkit.mechanisms import (APPROXIMATE, PrivacyBudget, RandomSource,
                              gaussian_sigma)
from dpkit.stats import (BOUNDED, GAUSSIAN, LAPLACE, UNBOUNDED, Bounds,
                         HistogramSpec, StatRequest, clip, count_sensitivity,
                         cov_dp, histogram_dp, mean_dp, median_dp,
                         pooled_cov_dp, pooled_var_dp, pooled_var_sensitivity,
                         quantile_dp, sd_dp, table_dp, var_dp)

from oracles import (reference_gaussian, reference_laplace,
                     reference_uniforms)
from test_mechanisms import FixedUniform

PURE_REQ = StatRequest(PrivacyBudget(1.0))
NOISELESS = FixedUniform(0.5)  # Laplace noise is exactly 0 at u = 0.5


def noiseless(statfn, *args):
    return statfn(*args, PURE_REQ, NOISELESS)


# -- bounds and clipping -------------------------------------------------------

def test_bounds_validation():
    with pytest.raises(ValueError):
        Bounds(1.0, 1.0)
    assert Bounds(-2.0, 3.0).width == 5.0


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
       st.floats(-100, 0), st.floats(1, 100))
def test_clip_idempotent_and_bounded(xs, lo, hi):
    b = Bounds(lo, hi)
    once = clip(xs, b)
    assert np.array_equal(clip(once, b), once)
    assert once.min() >= lo and once.max() <= hi


def test_clip_refuses_nan():
    # NaN lies outside every domain; np.clip would pass it through.
    with pytest.raises(ValueError, match="cannot clip NaN"):
        clip([1.0, np.nan], Bounds(0.0, 5.0))
    assert np.array_equal(clip([-np.inf, np.inf], Bounds(0.0, 5.0)),
                          [0.0, 5.0])


def test_clip_rejects_empty():
    with pytest.raises(ValueError):
        clip([], Bounds(0, 1))


# -- scalar statistics ---------------------------------------------------------

def test_mean_value_and_sensitivity():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    res = noiseless(mean_dp, x, Bounds(0, 10))
    assert res.value == pytest.approx(2.5)
    assert res.sensitivity == pytest.approx(10.0 / 4)
    assert res.statistic == "mean"


def test_mean_clips_before_averaging():
    x = np.array([0.0, 100.0])
    res = noiseless(mean_dp, x, Bounds(0, 10))
    assert res.value == pytest.approx(5.0)


def test_var_value_and_sensitivity():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    res = noiseless(var_dp, x, Bounds(0, 10))
    assert res.value == pytest.approx(np.var(x, ddof=1))
    assert res.sensitivity == pytest.approx(100.0 / 5)
    with pytest.raises(ValueError):
        noiseless(var_dp, np.array([1.0]), Bounds(0, 10))


def test_sd_is_sqrt_of_var_release():
    x = np.arange(10.0)
    rng_var = RandomSource(3)
    rng_sd = RandomSource(3)
    var_res = var_dp(x, Bounds(0, 10), PURE_REQ, rng_var)
    sd_res = sd_dp(x, Bounds(0, 10), PURE_REQ, rng_sd)
    assert sd_res.value == pytest.approx(math.sqrt(max(var_res.value, 0.0)))


def test_sd_floors_negative_variance_draws():
    x = np.array([5.0, 5.0, 5.0])  # zero variance, noise can go negative
    req = StatRequest(PrivacyBudget(0.01))
    for seed in range(30):
        res = sd_dp(x, Bounds(0, 10), req, RandomSource(seed))
        assert res.value >= 0.0


def test_cov_value_and_sensitivity():
    rng = np.random.default_rng(0)
    x1 = rng.uniform(0, 2, 50)
    x2 = rng.uniform(-1, 3, 50)
    res = noiseless(cov_dp, x1, x2, Bounds(0, 2), Bounds(-1, 3))
    assert res.value == pytest.approx(np.cov(x1, x2, ddof=1)[0, 1])
    assert res.sensitivity == pytest.approx(2.0 * 4.0 / 50)
    with pytest.raises(ValueError):
        noiseless(cov_dp, x1, x2[:-1], Bounds(0, 2), Bounds(-1, 3))


# -- pooled statistics -----------------------------------------------------------

def test_pooled_var_value_matches_anova_formula():
    g1 = np.array([1.0, 2.0, 3.0])
    g2 = np.array([4.0, 6.0, 8.0, 10.0])
    res = noiseless(pooled_var_dp, [g1, g2], Bounds(0, 10))
    want = (2 * np.var(g1, ddof=1) + 3 * np.var(g2, ddof=1)) / (7 - 2)
    assert res.value == pytest.approx(want)
    assert res.sensitivity == pytest.approx(
        pooled_var_sensitivity(10.0, 4, 7, 2))


def test_pooled_var_sensitivity_formula():
    # width^2 (n_max - 1) / (n_max (N - k))
    assert pooled_var_sensitivity(2.0, 5, 12, 3) == \
        pytest.approx(4.0 * 4 / (5 * 9))


def test_pooled_var_approx_n_max_uses_total():
    g = [np.arange(4.0), np.arange(5.0)]
    exact = pooled_var_dp(g, Bounds(0, 10), PURE_REQ, NOISELESS)
    approx = pooled_var_dp(g, Bounds(0, 10), PURE_REQ, NOISELESS,
                           approx_n_max=True)
    assert approx.detail["n_max"] == 9
    assert exact.detail["n_max"] == 5
    # (n-1)/n grows with n, so the conservative variant is larger.
    assert approx.sensitivity > exact.sensitivity


def test_pooled_var_validation():
    with pytest.raises(ValueError):
        noiseless(pooled_var_dp, [np.arange(3.0)], Bounds(0, 10))
    with pytest.raises(ValueError):
        noiseless(pooled_var_dp, [np.arange(3.0), np.array([1.0])],
                  Bounds(0, 10))


def test_pooled_cov_value():
    rng = np.random.default_rng(1)
    pairs = [rng.uniform(0, 1, size=(4, 2)), rng.uniform(0, 1, size=(6, 2))]
    res = noiseless(pooled_cov_dp, pairs, Bounds(0, 1), Bounds(0, 1))
    want = (3 * np.cov(pairs[0].T, ddof=1)[0, 1]
            + 5 * np.cov(pairs[1].T, ddof=1)[0, 1]) / (10 - 2)
    assert res.value == pytest.approx(want)
    assert res.sensitivity == pytest.approx(1.0 * 1.0 * 5 / (6 * 8))


@pytest.mark.parametrize("pairs,message", [
    ([np.ones((3, 2)), np.ones((3, 3))], "two-column matrix"),
    ([np.ones((3, 2))], "at least 2 groups"),
    ([np.ones((3, 2)), np.ones((1, 2))], "every group needs at least 2"),
], ids=["three-columns", "one-group", "one-row"])
def test_pooled_cov_refuses_malformed_groups(pairs, message):
    with pytest.raises(ValueError, match=message):
        noiseless(pooled_cov_dp, pairs, Bounds(0, 1), Bounds(0, 1))


# -- histogram and table ---------------------------------------------------------

def test_count_sensitivity_table():
    # The budget picks the norm: l1 under a pure budget, l2 otherwise.
    pure, approx = PrivacyBudget(1.0), PrivacyBudget(0.5, 1e-6, APPROXIMATE)
    assert count_sensitivity(BOUNDED, pure) == 2.0
    assert count_sensitivity(BOUNDED, approx) == pytest.approx(math.sqrt(2))
    assert count_sensitivity(UNBOUNDED, pure) == 1.0
    assert count_sensitivity(UNBOUNDED, approx) == 1.0


def test_histogram_exact_counts_when_noiseless():
    x = np.array([0.1, 0.2, 0.6, 0.7, 0.8, 1.4])
    spec = HistogramSpec(breaks=[0.0, 0.5, 1.0, 1.5])
    res = noiseless(histogram_dp, x, spec)
    assert np.allclose(res.value, [2, 3, 1])
    assert res.sensitivity == 2.0  # bounded neighbors, Laplace


def test_histogram_outside_values_land_in_end_bins():
    x = np.array([-5.0, 0.25, 9.0])
    spec = HistogramSpec(breaks=[0.0, 0.5, 1.0])
    res = noiseless(histogram_dp, x, spec)
    assert np.allclose(res.value, [2, 1])


def test_histogram_negative_counts_floor_at_zero():
    req = StatRequest(PrivacyBudget(0.05))
    x = np.array([0.1])
    spec = HistogramSpec(breaks=[0.0, 0.5, 1.0])
    for seed in range(20):
        res = histogram_dp(x, spec, req, RandomSource(seed))
        assert np.all(res.value >= 0.0)
    kept = histogram_dp(x, HistogramSpec([0.0, 0.5, 1.0],
                                         allow_negative=True),
                        req, RandomSource(4))
    assert kept.value.shape == (2,)


def test_histogram_normalize_integrates_to_one():
    x = np.linspace(0, 1, 40)
    spec = HistogramSpec(breaks=[0.0, 0.25, 0.75, 1.0], normalize=True)
    res = noiseless(histogram_dp, x, spec)
    widths = np.diff(res.detail["edges"])
    assert float(res.value @ widths) == pytest.approx(1.0)


@pytest.mark.parametrize("allow_negative", [False, True])
def test_normalized_histogram_of_no_positive_total_is_left_as_released(
        allow_negative):
    # u near 0 draws Laplace noise of about -13 scales in every cell, so the
    # released total is not positive and no density can be formed.
    x = np.linspace(0, 1, 40)
    edges = [0.0, 0.25, 0.75, 1.0]
    raw = histogram_dp(x, HistogramSpec(edges, allow_negative=True),
                       PURE_REQ, FixedUniform(1e-6))
    assert raw.value.sum() < 0.0
    res = histogram_dp(x, HistogramSpec(edges, normalize=True,
                                        allow_negative=allow_negative),
                       PURE_REQ, FixedUniform(1e-6))
    want = raw.value if allow_negative else np.zeros(3)
    assert res.value.tobytes() == want.tobytes()


def test_histogram_counts_match_numpy():
    rng = np.random.default_rng(11)
    for trial in range(50):
        edges = np.cumsum(rng.uniform(0.01, 2.0, rng.integers(2, 40))) - 5.0
        x = np.concatenate([
            rng.uniform(edges[0] - 3.0, edges[-1] + 3.0, 200),  # some outside
            rng.choice(edges[1:-1], 30) if edges.size > 2 else [],  # interior
            np.full(5, edges[-1]), np.full(3, edges[0])])
        res = noiseless(histogram_dp, x,
                        HistogramSpec(edges, allow_negative=True))
        expected, _ = np.histogram(np.clip(x, edges[0], edges[-1]),
                                   bins=edges)
        assert np.array_equal(res.value, expected), trial


@pytest.mark.parametrize("edges", [
    np.linspace(-1.3, 2.6, 1001),
    np.linspace(0.0, 1.0, 1001)
    + np.random.default_rng(16).uniform(0.0, 4e-4, 1001),
    np.geomspace(1e-3, 1e3, 1001),
    np.linspace(-1.0, 1.0, 1001) * 1.7e308,
    np.linspace(0.0, 1e-300, 1001),
    np.array([2.0, 3.0])],
    ids=["equal", "jittered", "geometric", "range-past-max", "tiny", "one"])
def test_histogram_bins_are_exact_for_any_edges(edges):
    """A value's guessed bin, as if the widths were equal, is kept only
    where its two edges confirm it; any other value, NaN too, is searched
    for. Both ranges search, and the counts are np.histogram's, with no
    numpy warning on the way."""
    rng = np.random.default_rng(15)
    u = rng.uniform(0.0, 1.0, 3 * 2**16)
    x = np.concatenate([
        edges[0] * (1.0 - u) + edges[-1] * u,
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [np.nan, np.inf, -np.inf, np.nan]])
    rng.shuffle(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = noiseless(histogram_dp, x,
                        HistogramSpec(edges, allow_negative=True))
    with np.errstate(all="ignore"):
        expected, _ = np.histogram(
            np.clip(x[~np.isnan(x)], edges[0], edges[-1]), bins=edges)
    assert np.array_equal(res.value, expected)


def test_histogram_unbounded_neighbors_release_one_result():
    x = np.arange(10.0)
    req = StatRequest(PrivacyBudget(1.0), neighbor=UNBOUNDED)
    res = histogram_dp(x, HistogramSpec([0, 3, 6, 9]), req, RandomSource(0))
    assert res.neighbor == UNBOUNDED and res.sensitivity == 1.0
    assert res.value.shape == (3,)


@pytest.mark.parametrize("breaks", [3, [1.0], [0.0, 0.0, 1.0], [1.0, 0.0],
                                    [0.0, np.nan, 1.0], [0.0, np.inf],
                                    [[0.0, 1.0]]])
def test_histogram_breaks_must_be_declared_edges(breaks):
    with pytest.raises(ValueError, match="ascending edges"):
        HistogramSpec(breaks)


def test_table_counts_and_unknown_label():
    f1 = ["a", "a", "b", "b", "b"]
    f2 = ["x", "y", "x", "x", "y"]
    res = noiseless(table_dp, [f1, f2], [["a", "b"], ["x", "y"]])
    assert np.allclose(res.value, [[1, 1], [2, 1]])
    with pytest.raises(ValueError):
        noiseless(table_dp, [["c"]], [["a", "b"]])
    with pytest.raises(ValueError):
        noiseless(table_dp, [f1, f2[:-1]], [["a", "b"], ["x", "y"]])


def test_table_counts_match_bincount_reference():
    rng = np.random.default_rng(5)
    cats = [[f"{name}{i}" for i in range(size)]
            for name, size in (("a", 4), ("b", 3), ("c", 5))]
    codes = [rng.integers(0, len(c), 500) for c in cats]
    factors = [[c[k] for k in code] for c, code in zip(cats, codes)]
    res = noiseless(table_dp, factors, cats)
    shape = (4, 3, 5)
    want = np.bincount(np.ravel_multi_index(codes, shape),
                       minlength=60).reshape(shape)
    assert res.value.shape == shape
    assert np.array_equal(res.value, want)


def test_table_integer_labels():
    res = noiseless(table_dp, [np.array([3, 1, 3, 3]), [10, 20, 20, 10]],
                    [[1, 3], [10, 20]])
    assert np.array_equal(res.value, [[0, 1], [2, 1]])


def test_table_unknown_label_names_the_factor_only():
    with pytest.raises(ValueError, match="factor 1 holds a label outside "
                       "its declared categories") as exc:
        noiseless(table_dp, [["a", "b"], ["x", "SECRET_NAME"]],
                  [["a", "b"], ["x", "y"]])
    assert "SECRET" not in str(exc.value)
    with pytest.raises(ValueError, match="^column 'k' holds a label") as exc:
        table_dp([[1, 7]], [[1, 2]], PURE_REQ, NOISELESS, names=["k"])
    assert "7" not in str(exc.value)


def test_table_zero_length_factors_give_zero_table():
    res = noiseless(table_dp, [[], []], [["a", "b"], ["x", "y", "z"]])
    assert np.array_equal(res.value, np.zeros((2, 3)))


@pytest.mark.parametrize("release,message", [
    (lambda rng: cov_dp([0.5], [0.5], Bounds(0, 1), Bounds(0, 1), PURE_REQ,
                        rng), "covariance needs at least 2 observations"),
    (lambda rng: histogram_dp([], HistogramSpec([0.0, 1.0]), PURE_REQ, rng),
     "histogram needs at least one observation"),
    (lambda rng: table_dp([["a"], ["x"]], [["a", "b"]], PURE_REQ, rng),
     "one category set per factor is required"),
], ids=["cov-of-one-row", "histogram-of-no-rows",
        "table-with-fewer-category-sets"])
def test_a_release_refuses_its_malformed_input_before_any_draw(release,
                                                               message):
    rng = RandomSource(11)
    with pytest.raises(ValueError, match=f"^{message}$"):
        release(rng)
    assert rng.uniform(3).tobytes() == RandomSource(11).uniform(3).tobytes()


@pytest.mark.parametrize("mechanism", [LAPLACE, GAUSSIAN])
@pytest.mark.parametrize("cells", [7, 1_000_000])
def test_count_noise_uses_the_stated_sensitivity(cells, mechanism):
    """Each cell's noise is rebuilt from the same seeded uniforms at exactly
    the reported joint sensitivity: Laplace scale 2/eps, Gaussian sigma
    gaussian_sigma(budget, sqrt 2). Re-summing the sensitivity split over
    the cells would give 1.9999999999999996 (7 Laplace cells) or
    1.4142135623728675 (1e6 Gaussian cells) instead."""
    from dpkit import _kernels
    from dpkit.mechanisms import gaussian_sigma

    if mechanism == LAPLACE:
        budget = PrivacyBudget(1.0)
    else:
        budget = PrivacyBudget(0.5, 1e-6, APPROXIMATE)
    spec = HistogramSpec(np.linspace(0.0, 1.0, cells + 1),
                         allow_negative=True)
    res = histogram_dp(np.array([0.5 / cells]), spec,
                       StatRequest(budget, mechanism), RandomSource(21))
    counts = np.zeros(cells)
    counts[0] = 1.0
    u = RandomSource(21).uniform(cells)
    if mechanism == LAPLACE:
        assert res.sensitivity == 2.0
        noise = _kernels.laplace_noise(u, 2.0 / budget.epsilon)
    else:
        assert res.sensitivity == math.sqrt(2.0)
        noise = (gaussian_sigma(budget, math.sqrt(2.0))
                 * _kernels.normal_quantile(u))
    assert np.array_equal(res.value, counts + noise)


_COUNT_REQUESTS = {
    LAPLACE: StatRequest(PrivacyBudget(0.9)),
    GAUSSIAN: StatRequest(PrivacyBudget(0.5, 1e-6, APPROXIMATE), GAUSSIAN,
                          UNBOUNDED),
}


def _reference_counts(counts, req, seed, allow_negative):
    """The release of ``counts`` by the reference noise formulas."""
    sens = count_sensitivity(req.neighbor, req.budget)
    if req.budget.delta == 0.0:
        noisy = reference_laplace(counts, sens / req.budget.epsilon, seed)
    else:
        noisy = reference_gaussian(counts, gaussian_sigma(req.budget, sens),
                                   seed)
    return noisy if allow_negative else np.maximum(noisy, 0.0)


@pytest.mark.parametrize("allow_negative", [True, False])
@pytest.mark.parametrize("mechanism", [LAPLACE, GAUSSIAN])
def test_count_releases_are_bitwise_the_reference_formulas(mechanism,
                                                           allow_negative):
    req = _COUNT_REQUESTS[mechanism]
    rng = np.random.default_rng(12)
    x = rng.uniform(0.0, 1.0, 3000)
    edges = np.linspace(0.0, 1.0, 501)
    res = histogram_dp(x, HistogramSpec(edges, allow_negative=allow_negative),
                       req, RandomSource(31))
    want = _reference_counts(np.histogram(x, edges)[0], req, 31,
                             allow_negative)
    assert res.value.tobytes() == want.tobytes()
    cats = [["a", "b", "c"], ["u", "v"], list("pqrst")]
    factors = [[c[i] for i in rng.integers(0, len(c), 400)] for c in cats]
    res = table_dp(factors, cats, req, RandomSource(32), allow_negative)
    flat = np.ravel_multi_index(
        [[c.index(v) for v in f] for f, c in zip(factors, cats)], (3, 2, 5))
    want = _reference_counts(np.bincount(flat, minlength=30), req, 32,
                             allow_negative)
    assert res.value.shape == (3, 2, 5)
    assert res.value.tobytes() == want.tobytes()


def _one_pass_counts(counts, req, seed, allow_negative):
    """The release of ``counts`` with Laplace noise by the reference
    formula, or with Gaussian noise by one pass of the public Normal
    quantile over the reference uniforms. scipy's ndtri, which
    _reference_counts uses, follows libm's log and differs from the
    kernel's in the last bits of a few tail cells in 2^17 (10 at seed 34,
    as at the parent commit)."""
    from dpkit import _kernels

    if req.budget.delta == 0.0:
        return _reference_counts(counts, req, seed, allow_negative)
    sigma = gaussian_sigma(req.budget,
                           count_sensitivity(req.neighbor, req.budget))
    noisy = counts + sigma * _kernels.normal_quantile(
        reference_uniforms(seed, counts.size))
    return noisy if allow_negative else np.maximum(noisy, 0.0)


@pytest.mark.parametrize("mechanism", [LAPLACE, GAUSSIAN])
def test_count_releases_over_partial_spans_are_the_reference_formulas(
        mechanism):
    """2^17 + 3 cells: each of the two ranges ends in a part of a span and
    a part of a block of the noise loop, and each of the histogram's two
    ranges sorts a half holding NaN and values clipped into the end bins."""
    req = _COUNT_REQUESTS[mechanism]
    k = 2**17 + 3
    rng = np.random.default_rng(14)
    x = rng.uniform(-0.2, 1.2, 3 * k)
    x[rng.integers(0, x.size, 999)] = np.nan
    x[:4] = [0.0, 1.0, -np.inf, np.inf]
    edges = np.linspace(0.0, 1.0, k + 1)
    res = histogram_dp(x, HistogramSpec(edges), req, RandomSource(33))
    kept = np.clip(x[~np.isnan(x)], 0.0, 1.0)
    want = _one_pass_counts(np.histogram(kept, edges)[0], req, 33, False)
    assert res.value.tobytes() == want.tobytes()
    shape = (25, 49, 107)  # 2^17 + 3 cells
    index = [rng.integers(0, m, 2 * k) for m in shape]
    factors = [[f"v{i}" for i in codes] for codes in index]
    cats = [[f"v{i}" for i in range(m)] for m in shape]
    res = table_dp(factors, cats, req, RandomSource(34), allow_negative=True)
    counts = np.bincount(np.ravel_multi_index(index, shape), minlength=k)
    assert res.value.shape == shape
    assert res.value.tobytes() == _one_pass_counts(counts, req, 34,
                                                   True).tobytes()


# What each 1M-cell release of 2e5 rows may hold at its peak: the measured
# peak on two threads (x86-64, numpy 2) plus at most 1 MiB.
_PEAK_MIB = {("histogram", LAPLACE): 11.5, ("histogram", GAUSSIAN): 14.5,
             ("table", LAPLACE): 14.5, ("table", GAUSSIAN): 14.5}


@pytest.mark.parametrize("kind", ["histogram", "table"])
@pytest.mark.parametrize("mechanism", [LAPLACE, GAUSSIAN])
def test_million_cell_release_peak_memory(kind, mechanism):
    """A 1M-cell release of 2e5 rows holds one cell array, the integer
    counts (7.6 MiB), over whose cells the uniforms, the noise and then the
    release are written. Beyond that each of the noise loop's two ranges
    holds a row of 2^17 saved counts (1 MiB) and work rows of 2^16
    elements: one for Laplace noise, three for Gaussian noise, whose tail
    pass also gathers about 0.5 MiB. The per-row arrays of the counting are
    freed before the release: a histogram's clipped values and search rows
    before its counts are made, its bins (1.5 MiB) after; a table's three
    label indices and their flat index (6.1 MiB), which with the counts are
    a Laplace table's peak. Traced peaks: 10.7 MiB for a Laplace histogram,
    13.7 MiB for a Laplace table, 13.8-13.9 MiB for either with Gaussian
    noise."""
    req = _COUNT_REQUESTS[mechanism]
    rng = np.random.default_rng(13)
    if kind == "histogram":
        x = rng.uniform(0.0, 1.0, 200_000)
        spec = HistogramSpec(np.linspace(0.0, 1.0, 1_000_001))

        def release():
            return histogram_dp(x, spec, req, RandomSource(1))
    else:
        cats = [f"c{i:02d}" for i in range(100)]
        factors = [[cats[i] for i in rng.integers(0, 100, 200_000)]
                   for _ in range(3)]

        def release():
            return table_dp(factors, [cats] * 3, req, RandomSource(1))
    release()  # imports done untraced
    tracemalloc.start()
    try:
        release()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _PEAK_MIB[kind, mechanism] * 2 ** 20


def test_count_release_builds_no_sensitivity_vector(monkeypatch):
    """A release adds noise by one joint_mechanism call, never through a
    per-coordinate mechanism and its sensitivity vector."""
    from dpkit import mechanisms, stats

    def refuse(*args, **kwargs):
        raise AssertionError("a release called a per-coordinate mechanism")

    calls = []

    def joint(*args, **kwargs):
        calls.append(args[1])
        return mechanisms.joint_mechanism(*args, **kwargs)

    for name in ("laplace_mechanism", "gaussian_mechanism"):
        monkeypatch.setattr(mechanisms, name, refuse)
    monkeypatch.setattr(stats, "joint_mechanism", joint)
    gauss = StatRequest(PrivacyBudget(0.5, 1e-6, APPROXIMATE), GAUSSIAN)
    for req in (PURE_REQ, gauss):
        calls.clear()
        histogram_dp(np.arange(10.0), HistogramSpec([0, 3, 6, 9]), req,
                     RandomSource(1))
        assert calls == [req.budget]
        table_dp([["a", "b"]], [["a", "b"]], req, RandomSource(2))
        assert calls == [req.budget] * 2
        mean_dp(np.arange(10.0), Bounds(0, 10), req, RandomSource(3))
        assert calls == [req.budget] * 3


def test_gaussian_mean_release():
    req = StatRequest(PrivacyBudget(0.5, 0.01, APPROXIMATE),
                      mechanism=GAUSSIAN)
    res = mean_dp(np.arange(100.0), Bounds(0, 100), req, RandomSource(0))
    assert res.mechanism == GAUSSIAN
    assert abs(res.value - 49.5) < 50  # sanity only; noise dominates


def test_stat_request_validation():
    with pytest.raises(ValueError, match="^the Gaussian mechanism requires "
                                         "delta > 0$"):
        StatRequest(PrivacyBudget(1.0), mechanism=GAUSSIAN)
    with pytest.raises(ValueError, match="^the Laplace mechanism requires a "
                                         "pure budget$"):
        StatRequest(PrivacyBudget(1.0, 0.1, APPROXIMATE), LAPLACE)
    with pytest.raises(ValueError, match="must be 'laplace' or 'gaussian'"):
        StatRequest(PrivacyBudget(1.0), "exponential")
    with pytest.raises(ValueError):
        StatRequest(PrivacyBudget(1.0), neighbor="weird")
    with pytest.raises(ValueError):
        StatRequest(PrivacyBudget(1.0), neighbor="both")


def test_the_budget_picks_the_mechanism():
    # A request holds no mechanism; a tag that names the budget's choice is
    # accepted and kept nowhere.
    assert [f.name for f in dataclasses.fields(StatRequest)] == [
        "budget", "neighbor"]
    approx = PrivacyBudget(0.5, 1e-6, APPROXIMATE)
    assert StatRequest(approx, GAUSSIAN) == StatRequest(approx)
    assert dataclasses.replace(StatRequest(approx, GAUSSIAN),
                               neighbor=UNBOUNDED) == StatRequest(
        approx, neighbor=UNBOUNDED)
    for budget, mechanism in ((PrivacyBudget(1.0), LAPLACE),
                              (approx, GAUSSIAN)):
        x = np.arange(10.0)
        res = mean_dp(x, Bounds(0, 10), StatRequest(budget), RandomSource(3))
        assert res.mechanism == mechanism
        counts = histogram_dp(x, HistogramSpec([0, 5, 10]),
                              StatRequest(budget), RandomSource(3))
        assert counts.mechanism == mechanism
        assert counts.sensitivity == count_sensitivity(BOUNDED, budget)


@pytest.mark.parametrize("release", [
    lambda req, rng: mean_dp(np.arange(10.0), Bounds(0, 10), req, rng),
    lambda req, rng: sd_dp(np.arange(10.0), Bounds(0, 10), req, rng),
    lambda req, rng: cov_dp(np.arange(4.0), np.arange(4.0), Bounds(0, 4),
                            Bounds(0, 4), req, rng),
    lambda req, rng: pooled_var_dp([np.arange(3.0), np.arange(4.0)],
                                   Bounds(0, 4), req, rng),
])
def test_scalar_statistics_refuse_unbounded_neighbors(release):
    # Their sensitivity scales with the private n under add/remove
    # neighbors; the refusal comes before any noise is drawn.
    rng = RandomSource(0)
    with pytest.raises(ValueError, match="bounded neighbors only"):
        release(StatRequest(PrivacyBudget(1.0), neighbor=UNBOUNDED), rng)
    assert rng.uniform() == RandomSource(0).uniform()


# -- quantile --------------------------------------------------------------------

def test_quantile_deterministic_at_huge_epsilon():
    # q*n is an exact integer with a unique utility maximizer, so a huge
    # budget makes the released interval deterministic.
    x = np.array([3.0, 1.0, 2.0, 4.0, 5.0])
    budget = PrivacyBudget(1e6)
    for seed in range(10):
        res = quantile_dp(x, 0.4, budget, Bounds(0, 10),
                          rng=RandomSource(seed))
        assert 2.0 < res.value < 3.0
        assert set(res.detail) == {"q", "n"}


def test_quantile_uniform_sampling_stays_inside_interval():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    budget = PrivacyBudget(1e6)
    res = quantile_dp(x, 0.4, budget, Bounds(0, 10), rng=RandomSource(1))
    assert 2.0 <= res.value <= 3.0


def test_median_lands_on_central_values():
    x = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
    budget = PrivacyBudget(1e6)
    # q*n = 2.5 ties the two central intervals; either is acceptable.
    for seed in range(10):
        res = median_dp(x, budget, Bounds(0, 60), rng=RandomSource(seed))
        assert 20.0 < res.value < 30.0 or 30.0 < res.value < 40.0


def test_median_without_rng_draws_fresh_noise():
    x = np.linspace(0.0, 1.0, 50)
    values = {median_dp(x, PrivacyBudget(1.0), Bounds(0, 1)).value
              for _ in range(5)}
    assert len(values) > 1


def test_quantile_empty_data_returns_within_bounds():
    res = quantile_dp(np.array([]), 0.5, PrivacyBudget(1.0), Bounds(0, 1),
                      rng=RandomSource(0))
    assert 0.0 <= res.value <= 1.0


def test_quantile_validation():
    with pytest.raises(ValueError):
        quantile_dp(np.arange(3.0), 1.5, PrivacyBudget(1.0), Bounds(0, 10),
                    rng=RandomSource(0))
    with pytest.raises(ValueError):
        quantile_dp(np.arange(3.0), 0.5,
                    PrivacyBudget(1.0, 0.1, APPROXIMATE), Bounds(0, 10),
                    rng=RandomSource(0))
    with pytest.raises(ValueError, match="raw data value"):
        quantile_dp(np.arange(3.0), 0.5, PrivacyBudget(1.0), Bounds(0, 10),
                    False, RandomSource(0))


def test_quantile_degenerate_lengths_fall_back_to_utility():
    # All observations equal both bounds' midpoint replicated: every interval
    # has zero length except the two end ones; with bounds equal to the data
    # value everything collapses, so the measure is dropped.
    x = np.full(5, 1.0)
    res = quantile_dp(x, 0.5, PrivacyBudget(1e6), Bounds(0, 2),
                      rng=RandomSource(0))
    assert 0.0 <= res.value <= 2.0


# -- noise scaling sanity ---------------------------------------------------------

def test_mean_noise_scales_with_epsilon():
    x = np.arange(200.0)
    b = Bounds(0, 200)
    seeds = range(200)
    spread = {}
    for eps in (0.1, 10.0):
        req = StatRequest(PrivacyBudget(eps))
        vals = [mean_dp(x, b, req, RandomSource(s)).value for s in seeds]
        spread[eps] = np.std(np.asarray(vals) - x.mean())
    assert spread[0.1] > 20 * spread[10.0]
