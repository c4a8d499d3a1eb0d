import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import ndtri

from dpkit import _kernels, mechanisms
from dpkit.mechanisms import APPROXIMATE, PrivacyBudget, RandomSource

from oracles import NORMAL_QUANTILE_0_005


def test_normal_quantile_matches_scipy():
    u = np.linspace(1e-9, 1 - 1e-9, 10_001)
    got = _kernels.normal_quantile(u)
    want = ndtri(u)
    assert np.max(np.abs(got - want)) < 1e-9


def test_normal_quantile_returns_ndtri_in_a_new_array():
    u = np.linspace(1e-9, 1 - 1e-9, 1001)
    kept = u.copy()
    got = _kernels.normal_quantile(u)
    assert got is not u and got.tobytes() == ndtri(u).tobytes()
    assert u.tobytes() == kept.tobytes()


def _ordinal(x):
    """Floats as integers in the same order, so that adjacent floats differ
    by 1 and both zeros map to 0."""
    i = np.asarray(x, dtype=np.float64).view(np.int64)
    return np.where(i < 0, np.iinfo(np.int64).min - i, i)


def _ulps(got, want):
    return np.abs(_ordinal(got) - _ordinal(want))


# Below exp(-32) the Cephes tail switches from P1/Q1 to P2/Q2 (x >= 8).
_DEEP = np.exp(-32.0)


@pytest.mark.parametrize("u", [
    RandomSource(17).uniform(10**6),
    np.geomspace(_DEEP, np.exp(-2.0), 20_001),
    1.0 - np.geomspace(2.0 ** -53, np.exp(-2.0), 20_001),
    np.geomspace(5e-324, _DEEP, 20_001),
    # 2^-54, RandomSource's smallest midpoint, is in the x >= 8 branch.
    np.array([2.0 ** -54, 1e-300, 5e-324, 1.0 - 2.0 ** -53]),
], ids=["random", "tail", "upper-tail", "deep-tail", "extremes"])
def test_normal_quantile_is_within_8_ulp_of_scipy(u):
    got = _kernels.normal_quantile(u)
    assert np.all(np.isfinite(got))
    assert _ulps(got, ndtri(u)).max() <= 8


@pytest.mark.parametrize("n", [0, 1, 2**15 - 1, 2**15 + 1, 3 * 2**15 + 7,
                               2**16 - 1, 2**16 + 1, 3 * 2**16 + 7])
def test_normal_quantile_in_place_matches_a_new_array(n):
    u = RandomSource(n).uniform(n)
    # A Gaussian release writes its normals over its own uniforms, a span
    # at a time: at scale 1 over zeros it gives the kernel's new array.
    gaussian = PrivacyBudget(0.5, 1e-6, APPROXIMATE)
    got = mechanisms._add_noise(np.zeros(n), gaussian, 1.0, RandomSource(n))
    assert got.tobytes() == _kernels.normal_quantile(u).tobytes()
    u[:3] = [2.0 ** -54, 1.0 - 2.0 ** -53, 0.5][:n]
    kept = u.copy()
    want = _kernels.normal_quantile(u)
    assert u.tobytes() == kept.tobytes()
    assert _ulps(want, ndtri(kept)).max(initial=0) <= 8


def _laplace(u, scale=None):
    """Laplace noise of one scale per uniform, its position plus 1, so that
    a transposed input must carry its scales along."""
    if scale is None:
        scale = np.arange(1.0, u.size + 1.0).reshape(u.shape)
    return _kernels.laplace_noise(u, scale)


@pytest.mark.parametrize("kernel", [_kernels.normal_quantile, _laplace],
                         ids=["normal", "laplace"])
def test_kernels_keep_the_shape_and_leave_u_unchanged(kernel):
    u = RandomSource(3).uniform((4, 5))
    kept = u.copy()
    got = kernel(u.T)
    assert got.shape == (5, 4) and got.dtype == np.float64
    assert got.tobytes() == kernel(u.T.copy()).tobytes()
    assert u.tobytes() == kept.tobytes()
    if kernel is _laplace:
        for scale in (np.ones(3), np.ones((5, 4)), np.ones(20)):
            with pytest.raises(ValueError, match="^Laplace scale must be one "
                                                 "value or one per uniform$"):
                _laplace(u, scale=scale)


@pytest.mark.parametrize("u", [[0.3, math.nan], [math.nan], [math.nan, 0.3]])
def test_normal_quantile_rejects_nan(u):
    with pytest.raises(ValueError):
        _kernels.normal_quantile(np.array(u))


def test_normal_quantile_frozen_value():
    got = _kernels.normal_quantile(np.array([0.005]))[0]
    assert got == pytest.approx(NORMAL_QUANTILE_0_005, abs=1e-12)


def test_normal_quantile_symmetry_and_median():
    u = np.array([0.5, 0.1, 0.9])
    z = _kernels.normal_quantile(u)
    assert abs(z[0]) < 1e-15
    assert z[1] == pytest.approx(-z[2], abs=1e-12)


def test_normal_quantile_rejects_boundary():
    with pytest.raises(ValueError):
        _kernels.normal_quantile(np.array([0.0]))
    with pytest.raises(ValueError):
        _kernels.normal_quantile(np.array([1.0]))


@given(st.floats(min_value=1e-12, max_value=1.0 - 1e-12))
def test_normal_quantile_monotone_neighbourhood(u):
    eps = 1e-13
    lo = max(u - eps, 1e-13)
    hi = min(u + eps, 1.0 - 1e-13)
    z = _kernels.normal_quantile(np.array([lo, hi]))
    assert z[0] <= z[1]


def test_laplace_noise_median_is_zero():
    out = _kernels.laplace_noise(np.array([0.5]), np.array([3.0]))
    assert out[0] == 0.0


def test_laplace_noise_quartiles():
    # P(|Lap(0,s)| <= s ln 2) = 1/2, so u=0.25 and 0.75 map to -/+ s ln 2.
    out = _kernels.laplace_noise(np.array([0.25, 0.75]), np.array([2.0, 2.0]))
    assert out[0] == pytest.approx(-2.0 * math.log(2.0), rel=1e-12)
    assert out[1] == pytest.approx(2.0 * math.log(2.0), rel=1e-12)


def test_laplace_noise_scale_broadcast():
    u = np.full(4, 0.25)
    out = _kernels.laplace_noise(u, np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(out / out[0], [1.0, 2.0, 3.0, 4.0])


def _laplace_reference(u, scale):
    """The one-expression form the in-place kernel must match bit for bit."""
    v = u - 0.5
    return -scale * np.sign(v) * np.log1p(-2.0 * np.abs(v))


@pytest.mark.parametrize("scale", [0.0, 1.0, 0.37, np.array(1e-300),
                                   "vector"])
def test_laplace_noise_is_bitwise_the_reference_expression(scale):
    rng = np.random.default_rng(5)
    u = np.concatenate([(rng.integers(0, 1 << 53, 10_000) + 0.5) * 2.0 ** -53,
                        [0.5, 2.0 ** -54, 1.0 - 2.0 ** -53,
                         0.5 - 2.0 ** -54, 0.5 + 2.0 ** -53]])
    if isinstance(scale, str):
        scale = rng.uniform(0.0, 3.0, u.size)
    want = _laplace_reference(u, np.asarray(scale, dtype=np.float64))
    kept = u.copy()
    got = _kernels.laplace_noise(u, scale)
    assert u.tobytes() == kept.tobytes()  # u is only read
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got[u == 0.5].tolist() == [0.0]
    assert not np.signbit(got[u == 0.5]).any()


def test_laplace_noise_rejects_negative_scale():
    with pytest.raises(ValueError):
        _kernels.laplace_noise(np.array([0.5]), np.array([-1.0]))


@pytest.mark.parametrize("scale", [math.nan, [1.0, math.nan]])
def test_laplace_noise_rejects_nan_scale(scale):
    with pytest.raises(ValueError):
        _kernels.laplace_noise(np.array([0.3, 0.7]), np.array(scale))


def test_rff_features_row_norm_bound():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 3))
    freqs = rng.normal(size=(16, 3))
    phases = rng.uniform(0, 2 * math.pi, size=16)
    v = _kernels.rff_features(x, freqs, phases)
    assert v.shape == (50, 16)
    assert np.all(np.linalg.norm(v, axis=1) <= 1.0 + 1e-12)


def test_rff_features_matches_direct_cosine():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 2))
    freqs = rng.normal(size=(8, 2))
    phases = rng.uniform(0, 2 * math.pi, size=8)
    got = _kernels.rff_features(x, freqs, phases)
    want = np.cos(x @ freqs.T + phases) / math.sqrt(8)
    assert np.allclose(got, want, atol=1e-12)


def test_rff_features_dimension_mismatch():
    with pytest.raises(ValueError):
        _kernels.rff_features(np.zeros((3, 2)), np.zeros((4, 3)),
                              np.zeros(4))
