import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from dpkit import mechanisms
from dpkit.mechanisms import (APPROXIMATE, PROBABILISTIC, PURE,
                              BudgetAllocation, PrivacyBudget, RandomSource,
                              _gaussian_sigmas, exponential_mechanism,
                              gaussian_mechanism, gaussian_sigma,
                              joint_mechanism, laplace_mechanism)

from oracles import (EXP_MECH_PROBS, SIGMA_APPROX, SIGMA_PROB,
                     reference_gaussian, reference_laplace,
                     reference_uniforms)


SRC = os.path.dirname(os.path.dirname(os.path.abspath(mechanisms.__file__)))


class FixedUniform(RandomSource):
    """Stand-in random source emitting a constant uniform value, to
    ``uniform`` and to the noise loop of a release alike."""

    def __init__(self, value):
        super().__init__(0)
        self.value = value

    def _fill(self, gen, out):
        out.fill(self.value)
        return out


# -- RandomSource -------------------------------------------------------------

def test_random_source_reproducible():
    a = RandomSource(123).uniform(1000)
    b = RandomSource(123).uniform(1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, RandomSource(124).uniform(1000))


def test_random_source_without_seed_draws_fresh_entropy():
    first, second = RandomSource(), RandomSource(None)
    assert first.seed is None
    assert not np.array_equal(first.uniform(8), second.uniform(8))


def test_mechanisms_without_rng_use_fresh_sources():
    budget = PrivacyBudget(1.0)
    sens = np.ones(3)
    gauss = PrivacyBudget(0.5, 0.01, APPROXIMATE)
    draws = [
        lambda: laplace_mechanism(np.zeros(3), budget, sens),
        lambda: laplace_mechanism(np.zeros(3), budget, sens,
                                  BudgetAllocation(np.full(3, 1 / 3))),
        lambda: gaussian_mechanism(np.zeros(3), gauss, sens),
    ]
    for draw in draws:
        assert not np.array_equal(draw(), draw())
    picks = {exponential_mechanism(np.zeros(50), budget, 1.0)
             for _ in range(20)}
    assert len(picks) > 1


def test_random_source_open_interval():
    u = RandomSource(0).uniform(100_000)
    assert u.min() > 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01


@pytest.mark.parametrize("seed", range(5))
def test_uniform_is_bitwise_the_integer_midpoint_formula(seed):
    got = RandomSource(seed).uniform(200_000)
    assert got.tobytes() == reference_uniforms(seed, 200_000).tobytes()
    assert RandomSource(seed).uniform() == got[0]
    assert RandomSource(seed).uniform((2, 3)).ravel().tobytes() == \
        got[:6].tobytes()


class TopBits:
    """Stand-in generator whose ``random`` gives k / 2^53 for chosen k,
    as ``Generator.random`` does for the top 53 bits k of a word, into
    ``out`` when given."""

    def __init__(self, ks):
        self.ks = np.asarray(ks, dtype=np.int64)

    def random(self, size=None, out=None):
        shape = size if out is None else out.shape
        got = np.resize(self.ks, shape).astype(np.float64) * 2.0 ** -53
        if out is None:
            return got
        out[...] = got
        return out


_TOP = (1 << 53) - 1


def test_uniform_at_extreme_words_keeps_its_bits_below_one():
    ks = np.array([0, 1, 2, 1 << 52, (1 << 52) + 1, (1 << 52) + 3,
                   _TOP - 2, _TOP - 1, _TOP])
    rng = RandomSource(0)
    rng._gen = TopBits(ks)
    got = rng.uniform(ks.size)
    want = (ks + 0.5) * 2.0 ** -53
    assert got[:-1].tobytes() == want[:-1].tobytes()
    assert got[0] == 2.0 ** -54
    # The midpoint of the top word rounds to 1.0; it is clamped below.
    assert want[-1] == 1.0 and got[-1] == np.nextafter(1.0, 0.0)
    rng._gen = TopBits([_TOP])
    assert rng.uniform() == np.nextafter(1.0, 0.0)


@pytest.mark.parametrize("budget", [
    PrivacyBudget(1.0), PrivacyBudget(0.5, 0.01, APPROXIMATE)])
def test_release_at_the_top_word_is_finite(budget):
    rng = RandomSource(0)
    rng._gen = TopBits([_TOP])
    out = joint_mechanism(np.zeros(3), budget, 1.0, rng)
    assert np.all(np.isfinite(out)) and np.all(out > 0.0)


def test_random_source_normal_moments():
    z = RandomSource(7).normal(100_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


@pytest.mark.parametrize("size", [None, 1, 7, 2**16 + 1, (3, 5)])
def test_random_source_normal_of_a_shape_is_the_flat_stream(size):
    # Sphere, KST and RFF draws of shape (n, p) rely on this C order.
    shaped, flat = RandomSource(9), RandomSource(9)
    z = shaped.normal(size)
    want = flat.normal(int(np.prod(size or 1)))
    if size is None:
        assert type(z) is float and z == want[0]
    else:
        assert z.shape == np.empty(size).shape
        assert z.tobytes() == want.tobytes()
    assert shaped.uniform(3).tobytes() == flat.uniform(3).tobytes()


# -- budget and spec validation ----------------------------------------------

def test_budget_validation():
    with pytest.raises(ValueError):
        PrivacyBudget(0.0)
    with pytest.raises(ValueError):
        PrivacyBudget(1.0, -0.1, APPROXIMATE)
    with pytest.raises(ValueError):
        PrivacyBudget(1.0, 1.0, APPROXIMATE)
    with pytest.raises(ValueError):
        PrivacyBudget(1.0, 0.1, PURE)  # pure means delta exactly 0
    with pytest.raises(ValueError):
        PrivacyBudget(1.0, 0.0, APPROXIMATE)
    with pytest.raises(ValueError):
        PrivacyBudget(1.0, variant="renyi")
    # epsilon >= 1 is legal at the type level for approximate budgets; only
    # the classical Gaussian calibration restricts it.
    PrivacyBudget(1.5, 0.1, APPROXIMATE)


def test_sensitivity_vector_validation():
    for mechanism, budget in ((laplace_mechanism, PrivacyBudget(1.0)),
                              (gaussian_mechanism,
                               PrivacyBudget(0.5, 0.01, APPROXIMATE))):
        for sens, message in (([-1.0], "finite and nonnegative"),
                              ([math.nan], "finite and nonnegative"),
                              ([math.inf], "finite and nonnegative"),
                              ([], "must be nonempty"),
                              ([1.0, 1.0], "length does not match")):
            with pytest.raises(ValueError, match=message):
                mechanism(np.zeros(1), budget, sens, rng=FixedUniform(0.5))


def test_budget_refuses_an_epsilon_that_is_not_finite_and_positive():
    # At an infinite epsilon every mechanism adds zero noise.
    for epsilon in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="^epsilon must be finite and "
                                             "positive$"):
            PrivacyBudget(epsilon)
    assert PrivacyBudget(1e308).epsilon == 1e308


def test_allocation_validation():
    with pytest.raises(ValueError):
        BudgetAllocation([0.5, 0.6])
    with pytest.raises(ValueError):
        BudgetAllocation([1.0, 0.0])
    for nan in ([math.nan, math.nan], [math.nan, 1.0], [0.5, 0.5, math.nan]):
        with pytest.raises(ValueError, match="must be positive"):
            BudgetAllocation(nan)
    BudgetAllocation([0.25, 0.75])


# -- Laplace -------------------------------------------------------------------

def test_laplace_identity_at_median_uniform():
    values = np.array([1.0, -2.0, 3.5])
    out = laplace_mechanism(values, PrivacyBudget(1.0), [1.0, 1.0, 1.0],
                            rng=FixedUniform(0.5))
    assert np.array_equal(out, values)


def test_laplace_default_scale_is_total_over_epsilon():
    # At u=0.75 the noise equals scale*ln 2 exactly, exposing the scale.
    sens = [1.0, 2.0, 3.0]
    out = laplace_mechanism(np.zeros(3), PrivacyBudget(2.0), sens,
                            rng=FixedUniform(0.75))
    expected_scale = 6.0 / 2.0
    assert np.allclose(out, expected_scale * math.log(2.0), rtol=1e-12)


def test_laplace_explicit_proportional_alloc_matches_default():
    sens = [1.0, 2.0, 3.0]
    alloc = BudgetAllocation([1 / 6, 2 / 6, 3 / 6])
    a = laplace_mechanism(np.zeros(3), PrivacyBudget(2.0), sens,
                          rng=FixedUniform(0.9))
    b = laplace_mechanism(np.zeros(3), PrivacyBudget(2.0), sens, alloc,
                          rng=FixedUniform(0.9))
    assert np.allclose(a, b, rtol=1e-12)


def test_laplace_custom_alloc_changes_scales():
    sens = [1.0, 1.0]
    alloc = BudgetAllocation([0.9, 0.1])
    out = laplace_mechanism(np.zeros(2), PrivacyBudget(1.0), sens, alloc,
                            rng=FixedUniform(0.75))
    # scale_i = sens_i / (eps * alloc_i)
    assert out[0] == pytest.approx(math.log(2.0) / 0.9, rel=1e-12)
    assert out[1] == pytest.approx(math.log(2.0) / 0.1, rel=1e-12)


def test_laplace_zero_sensitivity_coordinate_gets_no_noise():
    sens = [0.0, 1.0]
    out = laplace_mechanism(np.array([5.0, 5.0]), PrivacyBudget(1.0), sens,
                            rng=FixedUniform(0.9))
    assert out[0] == 5.0
    assert out[1] != 5.0


def test_laplace_marginal_standard_deviation():
    # 100k draws: empirical sd of Lap(0, s) should approach s*sqrt(2).
    sens = [1.0]
    rng = RandomSource(5)
    draws = np.array([
        laplace_mechanism(np.zeros(1), PrivacyBudget(0.5), sens, rng=rng)[0]
        for _ in range(1000)])
    big = laplace_mechanism(np.zeros(100_000), PrivacyBudget(0.5),
                            np.full(100_000, 1.0), alloc=None,
                            rng=RandomSource(6))
    # The vector call splits the budget across coordinates; instead rescale:
    # each coordinate has scale 100000/0.5, so normalize before comparing.
    z = big / (100_000 / 0.5)
    assert abs(z.std() - math.sqrt(2.0)) < 0.02
    assert abs(np.std(draws) - 2.0 * math.sqrt(2.0)) < 0.35


def test_laplace_rejects_wrong_budget_and_norm():
    with pytest.raises(ValueError):
        laplace_mechanism(np.zeros(1), PrivacyBudget(1.0, 0.1, APPROXIMATE),
                          [1.0], rng=FixedUniform(0.5))
    with pytest.raises(ValueError):
        laplace_mechanism(np.zeros(2), PrivacyBudget(1.0), [1.0],
                          rng=FixedUniform(0.5))


# -- Gaussian ------------------------------------------------------------------

def test_gaussian_sigma_frozen_approximate():
    budget = PrivacyBudget(0.9, 0.05, APPROXIMATE)
    assert gaussian_sigma(budget, 0.3) == pytest.approx(SIGMA_APPROX,
                                                        rel=1e-12)


def test_gaussian_sigma_frozen_probabilistic():
    budget = PrivacyBudget(0.9, 0.05, PROBABILISTIC)
    assert gaussian_sigma(budget, 0.3) == pytest.approx(SIGMA_PROB, rel=1e-9)


def test_gaussian_sigma_probabilistic_below_approximate():
    # For the same budget the probabilistic calibration needs less noise.
    a = PrivacyBudget(0.9, 0.05, APPROXIMATE)
    p = PrivacyBudget(0.9, 0.05, PROBABILISTIC)
    assert gaussian_sigma(p, 1.0) < gaussian_sigma(a, 1.0)


def test_gaussian_sigma_refuses_a_pure_budget_and_a_negative_sensitivity():
    with pytest.raises(ValueError, match="^Gaussian mechanism needs delta"):
        gaussian_sigma(PrivacyBudget(1.0), 1.0)
    with pytest.raises(ValueError, match="^sensitivity must be nonnegative"):
        gaussian_sigma(PrivacyBudget(0.5, 0.05, APPROXIMATE), -1e-300)


def test_gaussian_sigma_rejects_large_epsilon_approximate_only():
    with pytest.raises(ValueError):
        gaussian_sigma(PrivacyBudget(1.0, 0.05, APPROXIMATE), 1.0)
    assert gaussian_sigma(PrivacyBudget(1.0, 0.05, PROBABILISTIC), 1.0) > 0


def test_gaussian_composite_sensitivity_is_l2():
    budget = PrivacyBudget(0.5, 0.01, APPROXIMATE)
    sens = [3.0, 4.0]
    seed = 11
    out = gaussian_mechanism(np.zeros(2), budget, sens,
                             rng=RandomSource(seed))
    from dpkit import _kernels
    u = RandomSource(seed).uniform(2)
    expected = gaussian_sigma(budget, 5.0) * _kernels.normal_quantile(u)
    assert np.allclose(out, expected, rtol=1e-12)


def test_gaussian_alloc_splits_budget():
    budget = PrivacyBudget(0.5, 0.01, APPROXIMATE)
    sens = [1.0, 1.0]
    alloc = BudgetAllocation([0.5, 0.5])
    seed = 3
    out = gaussian_mechanism(np.zeros(2), budget, sens, alloc,
                             rng=RandomSource(seed))
    sub = PrivacyBudget(0.25, 0.005, APPROXIMATE)
    from dpkit import _kernels
    u = RandomSource(seed).uniform(2)
    expected = gaussian_sigma(sub, 1.0) * _kernels.normal_quantile(u)
    assert np.allclose(out, expected, rtol=1e-12)


def test_gaussian_rejects_pure_budget_and_l1():
    with pytest.raises(ValueError):
        gaussian_mechanism(np.zeros(1), PrivacyBudget(0.5), [1.0],
                           rng=FixedUniform(0.5))


# -- joint mechanism -----------------------------------------------------------

def test_joint_mechanism_validation():
    pure = PrivacyBudget(1.0)
    approx = PrivacyBudget(0.5, 0.01, APPROXIMATE)
    for budget, sens in ((pure, -1.0), (approx, math.inf),
                         (pure, math.nan)):
        with pytest.raises(ValueError):
            joint_mechanism(np.zeros(2), budget, sens, FixedUniform(0.5))


def test_joint_mechanism_draws_one_uniform_per_coordinate():
    rng = RandomSource(8)
    joint_mechanism(np.zeros(5), PrivacyBudget(1.0), 2.0, rng)
    assert rng.uniform() == RandomSource(8).uniform(6)[5]


def test_default_allocations_reduce_to_joint_mechanism():
    values = np.array([1.0, -2.0, 3.5])
    pure = PrivacyBudget(0.8)
    a = laplace_mechanism(values, pure, [1.0, 2.0, 3.0], rng=RandomSource(9))
    b = joint_mechanism(values, pure, 6.0, RandomSource(9))
    assert np.array_equal(a, b)
    approx = PrivacyBudget(0.5, 0.01, APPROXIMATE)
    a = gaussian_mechanism(values[:2], approx, [3, 4], rng=RandomSource(9))
    b = joint_mechanism(values[:2], approx, 5.0, RandomSource(9))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, bool,
                                   np.float32, np.float64])
def test_joint_mechanism_is_bitwise_the_reference_for_each_input_type(
        dtype):
    """Integer and bool vectors are added without a float copy, to noise
    written over the uniforms; the bits are those of the float copy plus
    the noise of the reference formulas."""
    values = (np.arange(2040) % 7 - 3).astype(dtype)
    pure = PrivacyBudget(0.7)
    approx = PrivacyBudget(0.5, 1e-6, APPROXIMATE)
    got = joint_mechanism(values, pure, 2.0, RandomSource(4))
    assert got.dtype == np.float64
    assert got.tobytes() == reference_laplace(values, 2.0 / 0.7, 4).tobytes()
    got = joint_mechanism(values, approx, 2.0, RandomSource(4))
    want = reference_gaussian(values, gaussian_sigma(approx, 2.0), 4)
    assert got.tobytes() == want.tobytes()
    assert values.dtype == np.dtype(dtype)  # the input is not written


@pytest.mark.parametrize("dtype", [np.int64, np.float64, bool])
def test_mechanisms_leave_the_caller_array_as_it_is(dtype):
    """Every public mechanism writes its release into a new array, also
    over 2^17 + 3 values, which the two ranges of the noise loop share."""
    n = 2**17 + 3
    values = (np.arange(n) % 5).astype(dtype)
    kept = values.copy()
    pure, approx = PrivacyBudget(1.0), PrivacyBudget(0.5, 1e-6, APPROXIMATE)
    sens, alloc = np.ones(n), BudgetAllocation(np.full(n, 1.0 / n))
    releases = [
        joint_mechanism(values, pure, 2.0, RandomSource(1)),
        joint_mechanism(values, approx, 2.0, RandomSource(2)),
        laplace_mechanism(values, pure, sens, rng=RandomSource(3)),
        laplace_mechanism(values, pure, sens, alloc, RandomSource(4)),
        gaussian_mechanism(values, approx, sens, rng=RandomSource(5)),
        gaussian_mechanism(values, approx, sens, alloc, RandomSource(6))]
    assert values.dtype == kept.dtype
    assert values.tobytes() == kept.tobytes()
    for release in releases:
        assert release.dtype == np.float64
        assert not np.shares_memory(release, values)


@pytest.mark.parametrize("values,message", [
    (np.array([1.0 + 2.0j, 3.0]), "values must be real numbers, not complex"),
    (np.array(["1", "2"]), "values must be numbers, not text"),
    (np.array([b"1", b"2"]), "values must be numbers, not text")],
    ids=["complex", "str", "bytes"])
def test_mechanisms_refuse_complex_and_text_vectors(values, message):
    pure, approx = PrivacyBudget(1.0), PrivacyBudget(0.5, 1e-6, APPROXIMATE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning before it
        for release in (
                lambda: joint_mechanism(values, pure, 1.0, RandomSource(1)),
                lambda: laplace_mechanism(values, pure, [1.0, 1.0]),
                lambda: gaussian_mechanism(values, approx, [1.0, 1.0])):
            with pytest.raises(ValueError, match=message):
                release()


def test_an_object_vector_is_released_as_its_float_copy():
    values = np.array([1, 2.5, Fraction(1, 3)], dtype=object)
    pure = PrivacyBudget(1.0)
    got = joint_mechanism(values, pure, 1.0, RandomSource(7))
    want = joint_mechanism(values.astype(np.float64), pure, 1.0,
                           RandomSource(7))
    assert got.tobytes() == want.tobytes()


def test_mech_releases_are_bitwise_the_reference_formulas():
    values = np.array([1.0, -2.5, 3.0, 1e6, 0.0])
    deltas = np.array([1.0, 0.0, 2.0, 0.5, 1.0])
    alloc = BudgetAllocation([0.1, 0.2, 0.3, 0.25, 0.15])
    pure = PrivacyBudget(0.8)
    got = laplace_mechanism(values, pure, deltas, rng=RandomSource(6))
    want = reference_laplace(values, deltas.sum() / 0.8, 6)
    assert got.tobytes() == np.where(deltas > 0, want, values).tobytes()
    got = laplace_mechanism(values, pure, deltas, alloc, RandomSource(6))
    scales = np.where(deltas > 0, deltas / (0.8 * alloc.proportions), 0.0)
    assert got.tobytes() == reference_laplace(values, scales, 6).tobytes()
    for variant in (APPROXIMATE, PROBABILISTIC):
        budget = PrivacyBudget(0.5, 1e-5, variant)
        got = gaussian_mechanism(values, budget, deltas, rng=RandomSource(6))
        sigma = gaussian_sigma(budget, math.sqrt(float(deltas @ deltas)))
        assert got.tobytes() == \
            reference_gaussian(values, sigma, 6).tobytes()
        got = gaussian_mechanism(values, budget, deltas, alloc,
                                 RandomSource(6))
        sigmas = np.array([
            gaussian_sigma(PrivacyBudget(0.5 * a, 1e-5 * a, variant), d)
            for a, d in zip(alloc.proportions, deltas)])
        assert got.tobytes() == \
            reference_gaussian(values, sigmas, 6).tobytes()


def _gaussian_release_bytes(n):
    """A seeded unallocated Gaussian release over n values."""
    g = np.random.default_rng(0)
    values, sens = g.normal(size=n), g.uniform(0, 2, n)
    budget = PrivacyBudget(0.5, 1e-6, APPROXIMATE)
    return gaussian_mechanism(values, budget, sens,
                              rng=RandomSource(5)).tobytes()


def test_gaussian_joint_sensitivity_does_not_depend_on_the_thread_count():
    """The l2 sensitivity is sqrt(fsum(delta_i^2)). A BLAS dot product
    sums in an order its thread count picks: at n = 2^17 its last bit
    differed between one thread and two, and so did the seeded release."""
    n = 2 ** 17
    g = np.random.default_rng(0)
    values, sens = g.normal(size=n), g.uniform(0, 2, n)
    budget = PrivacyBudget(0.5, 1e-6, APPROXIMATE)
    joint = joint_mechanism(values, budget,
                            math.sqrt(math.fsum((sens * sens).tolist())),
                            RandomSource(5))
    here = _gaussian_release_bytes(n)
    assert here == joint.tobytes()
    one_thread = {**os.environ, "PYTHONPATH": SRC}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        one_thread[var] = "1"
    done = subprocess.run(
        [sys.executable, "-c", "import sys, test_mechanisms as t; "
         f"sys.stdout.write(t._gaussian_release_bytes({n}).hex())"],
        capture_output=True, text=True, timeout=120, env=one_thread,
        cwd=os.path.dirname(__file__))
    assert done.returncode == 0, done.stderr
    assert bytes.fromhex(done.stdout) == here


def test_allocated_gaussian_sigmas_are_gaussian_sigma_of_each_coordinate():
    n = 2 ** 17
    g = np.random.default_rng(2)
    sens = g.uniform(0, 2, n)
    sens[::5] = 0.0
    weights = g.uniform(0.5, 1.5, n)
    alloc = BudgetAllocation(weights / weights.sum())
    for variant, eps in ((APPROXIMATE, 0.5), (PROBABILISTIC, 3.0)):
        got = _gaussian_sigmas(variant, eps * alloc.proportions,
                               1e-6 * alloc.proportions, sens)
        for i in range(0, n, 97):
            a = alloc.proportions[i]
            want = gaussian_sigma(PrivacyBudget(eps * a, 1e-6 * a, variant),
                                  float(sens[i]))
            assert got[i] == want, (variant, i)
        # The mechanism adds noise of exactly these scales.
        budget = PrivacyBudget(eps, 1e-6, variant)
        assert gaussian_mechanism(np.zeros(n), budget, sens, alloc,
                                  RandomSource(3)).tobytes() == (
            mechanisms._add_noise(np.zeros(n), budget, got,
                                  RandomSource(3)).tobytes())


@pytest.mark.parametrize("budget,sens,alloc,message", [
    # Coordinate 1's epsilon, 2 * 0.6, is past the approximate calibration.
    (PrivacyBudget(2.0, 0.01, APPROXIMATE), [1.0, 1.0], [0.4, 0.6],
     "approximate-DP Gaussian calibration requires epsilon < 1"),
    # Coordinate 0's delta, 1e-300 * 1e-30, rounds to 0.
    (PrivacyBudget(0.5, 1e-300, PROBABILISTIC), [1.0, 1.0],
     [1e-30, 1.0 - 1e-30], "delta must be 0 exactly when the variant is "
     "pure"),
    # Coordinate 0's epsilon rounds to 0, and is refused before its delta.
    (PrivacyBudget(1e-300, 1e-300, APPROXIMATE), [1.0, 1.0],
     [1e-30, 1.0 - 1e-30], "epsilon must be finite and positive"),
], ids=["epsilon-share-past-1", "delta-share-rounds-to-0",
        "epsilon-share-rounds-to-0"])
def test_allocated_gaussian_refuses_a_coordinate_budget(budget, sens, alloc,
                                                        message):
    with pytest.raises(ValueError, match=message):
        gaussian_mechanism(np.zeros(2), budget, sens,
                           BudgetAllocation(alloc), RandomSource(0))


def test_allocated_gaussian_takes_a_large_epsilon_share_of_no_sensitivity():
    # gaussian_sigma gives sensitivity 0 the scale 0 before it checks the
    # epsilon, so such a coordinate is released exactly.
    budget = PrivacyBudget(2.0, 0.01, APPROXIMATE)
    out = gaussian_mechanism(np.array([3.0, 4.0]), budget, [0.0, 1.0],
                             BudgetAllocation([0.6, 0.4]), RandomSource(0))
    assert out[0] == 3.0 and out[1] != 4.0


# -- exponential ---------------------------------------------------------------

def test_exponential_frozen_selection_probabilities():
    utility = np.array([0.0, 1.0, 2.0, 1.0, 0.0])
    budget = PrivacyBudget(1.0)
    rng = RandomSource(17)
    n = 100_000
    counts = np.bincount(
        [exponential_mechanism(utility, budget, 1.0, rng=rng)
         for _ in range(n)], minlength=5)
    freqs = counts / n
    assert np.max(np.abs(freqs - np.asarray(EXP_MECH_PROBS))) < 0.006


def test_exponential_determinism_at_huge_epsilon():
    utility = np.array([0.0, 3.0, 1.0])
    budget = PrivacyBudget(1e6)
    for seed in range(20):
        assert exponential_mechanism(utility, budget, 1.0,
                                     rng=RandomSource(seed)) == 1


def test_exponential_stable_for_extreme_utilities():
    utility = np.array([-1e6, 0.0, 1e6])
    idx = exponential_mechanism(utility, PrivacyBudget(1.0), 1.0,
                                rng=RandomSource(0))
    assert idx == 2  # everything else underflows to zero weight


def test_exponential_measure_reweights():
    # Constant utility: selection reduces to sampling from the measure.
    utility = np.zeros(3)
    measure = np.array([0.0, 0.0, 7.0])
    idx = exponential_mechanism(utility, PrivacyBudget(1.0), 1.0, measure,
                                RandomSource(0))
    assert idx == 2


def test_exponential_zero_sensitivity_rules():
    budget = PrivacyBudget(1.0)
    assert exponential_mechanism(np.zeros(2), budget, 0.0,
                                 rng=FixedUniform(0.1)) == 0
    with pytest.raises(ValueError):
        exponential_mechanism(np.array([0.0, 1.0]), budget, 0.0,
                              rng=FixedUniform(0.1))


def test_exponential_validation():
    budget = PrivacyBudget(1.0)
    with pytest.raises(ValueError):
        exponential_mechanism(np.array([]), budget, 1.0, rng=FixedUniform(0.5))
    with pytest.raises(ValueError):
        exponential_mechanism(np.zeros(2), budget, 1.0, np.zeros(2),
                              FixedUniform(0.5))
    with pytest.raises(ValueError):
        exponential_mechanism(np.zeros(2), budget, 1.0, np.array([-1.0, 2.0]),
                              FixedUniform(0.5))
    with pytest.raises(ValueError):
        exponential_mechanism(np.zeros(2),
                              PrivacyBudget(1.0, 0.1, APPROXIMATE), 1.0,
                              rng=FixedUniform(0.5))


def test_exponential_refuses_nan_and_infinite_inputs():
    budget = PrivacyBudget(1.0)
    for args, message in (
            (([0.0, 1.0], math.nan), "sensitivity must be finite"),
            (([0.0, 1.0], math.inf), "sensitivity must be finite"),
            (([0.0, math.inf], 1.0), "must not be NaN or \\+inf"),
            (([0.0, math.nan], 1.0), "must not be NaN or \\+inf"),
            (([0.0, 1.0], 1.0, [1.0, math.nan]), "measure weights must be"),
            (([0.0, 1.0], 1.0, [1.0, math.inf]), "measure weights must be"),
            (([-math.inf, 1.0], 1.0, [1.0, 0.0]), "positive measure is -inf")):
        utility, sens, *measure = args
        with pytest.raises(ValueError, match=message):
            exponential_mechanism(np.array(utility), budget, sens,
                                  *measure, FixedUniform(0.5))
    # -inf is a legal utility: weight 0, never selected, also where twice
    # the sensitivity is past the float range.
    for u in (0.001, 0.5, 0.999):
        for sens in (1.0, 1e308):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert exponential_mechanism(
                    np.array([0.0, -math.inf, 0.0]), budget, sens,
                    rng=FixedUniform(u)) != 1


def test_exponential_threshold_selection():
    # With two equal-weight options the first is picked iff u < 1/2.
    utility = np.zeros(2)
    budget = PrivacyBudget(1.0)
    assert exponential_mechanism(utility, budget, 1.0,
                                 rng=FixedUniform(0.4999)) == 0
    assert exponential_mechanism(utility, budget, 1.0,
                                 rng=FixedUniform(0.5001)) == 1
