"""The noise loop of a release and the histogram bin search run in two
ranges, one on a helper thread, from 2^16 elements on; the uniform source
and the public noise kernels run in one. Each range must give exactly the
bytes of one pass, and the generator must end where one sequential draw
leaves it."""

import sys
import threading

import numpy as np
import pytest

from dpkit import _kernels, mechanisms
from dpkit.mechanisms import (APPROXIMATE, PrivacyBudget, RandomSource,
                              joint_mechanism)
from dpkit.stats import HistogramSpec, StatRequest, histogram_dp, table_dp

from oracles import reference_uniforms

SIZES = [2**16 - 1, 2**16, 2**16 + 1, 1_000_001]


def _uniform(n):
    rng = RandomSource(41)
    return rng.uniform(n), rng


def _normal(n):
    rng = RandomSource(42)
    return rng.normal(n), rng


def _laplace_scalar(n):
    return _kernels.laplace_noise(RandomSource(43).uniform(n), 2.5), None


def _laplace_vector(n):
    scale = np.random.default_rng(44).uniform(0.0, 3.0, n)
    return _kernels.laplace_noise(RandomSource(45).uniform(n), scale), None


def _joint(budget):
    def release(n):
        counts = np.random.default_rng(46).integers(0, 9, n)
        rng = RandomSource(47)
        return joint_mechanism(counts, budget, 2.0, rng), rng
    return release


def _gaussian_vector(n):
    # Per-coordinate sigmas, as an allocation gives gaussian_mechanism.
    sigma = np.random.default_rng(50).uniform(0.0, 3.0, n)
    rng = RandomSource(51)
    budget = PrivacyBudget(0.5, 1e-6, APPROXIMATE)
    return mechanisms._add_noise(np.arange(n), budget, sigma, rng), rng


def _laplace_alloc(n):
    # Per-coordinate Laplace scales, as an allocation gives
    # laplace_mechanism.
    scale = np.random.default_rng(52).uniform(0.0, 3.0, n)
    rng = RandomSource(53)
    return mechanisms._add_noise(np.arange(n), PrivacyBudget(1.0), scale,
                                 rng), rng


def _histogram(n):
    # n values into n bins: both the bin search and the noise are split.
    x = np.random.default_rng(48).uniform(-0.1, 1.1, n)
    spec = HistogramSpec(np.linspace(0.0, 1.0, n + 1), allow_negative=True)
    rng = RandomSource(49)
    req = StatRequest(PrivacyBudget(0.5, 1e-6, APPROXIMATE))
    return histogram_dp(x, spec, req, rng).value, rng


RELEASES = {
    "uniform": _uniform,
    "normal": _normal,
    "laplace-scalar": _laplace_scalar,
    "laplace-vector": _laplace_vector,
    "joint-pure": _joint(PrivacyBudget(1.0)),
    "joint-approximate": _joint(PrivacyBudget(0.5, 1e-6, APPROXIMATE)),
    "gaussian-vector": _gaussian_vector,
    "alloc-laplace": _laplace_alloc,
    "histogram": _histogram,
}
# Helper threads that a release of 2^16 elements or more starts on two
# CPUs: one for its noise loop, and one more for a histogram's bin search.
# The uniform source and the public kernels start none.
HELPERS = {"joint-pure": 1, "joint-approximate": 1, "gaussian-vector": 1,
           "alloc-laplace": 1, "histogram": 2}


@pytest.fixture
def threads_started(monkeypatch):
    """The number of helper threads started, counted at ``start``."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(_kernels.threading, "Thread", Counted)
    return started


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", RELEASES)
def test_two_ranges_give_the_bytes_of_one(monkeypatch, threads_started, name,
                                          n):
    release = RELEASES[name]
    monkeypatch.setattr(_kernels, "_cpus", lambda: 1)
    one, one_rng = release(n)
    assert not threads_started
    monkeypatch.setattr(_kernels, "_cpus", lambda: 2)
    two, two_rng = release(n)
    assert len(threads_started) == (HELPERS.get(name, 0) if n >= 2**16
                                    else 0)
    assert two.dtype == one.dtype and two.shape == one.shape
    assert two.tobytes() == one.tobytes()
    if one_rng is not None:  # the next draw continues the one stream
        assert two_rng.uniform(3).tobytes() == one_rng.uniform(3).tobytes()


@pytest.mark.parametrize("n", SIZES)
def test_a_split_draw_is_the_sequential_stream(monkeypatch, n):
    monkeypatch.setattr(_kernels, "_cpus", lambda: 2)
    rng = RandomSource(5)
    got = np.concatenate([rng.uniform(n), rng.uniform(4)])
    assert got.tobytes() == reference_uniforms(5, n + 4).tobytes()


def test_one_cpu_takes_one_range(monkeypatch):
    monkeypatch.setattr(_kernels, "_cpus", lambda: 1)
    assert _kernels._parts(2**20) == 1
    monkeypatch.setattr(_kernels, "_cpus", lambda: 2)
    assert _kernels._parts(2**16 - 1) == 1
    assert _kernels._parts(2**16) == 2


def test_a_million_cell_release_starts_one_helper_per_split_loop(
        monkeypatch, threads_started):
    monkeypatch.setattr(_kernels, "_cpus", lambda: 2)
    req = StatRequest(PrivacyBudget(1.0))
    cats = [f"c{i:02d}" for i in range(100)]
    factors = [[cats[(7 * i + k) % 100] for i in range(1000)]
               for k in range(3)]
    assert table_dp(factors, [cats] * 3, req, RandomSource(1)).value.size \
        == 10**6
    assert len(threads_started) == 1  # the noise loop
    x = np.random.default_rng(2).uniform(0.0, 1.0, 2**16)
    spec = HistogramSpec(np.linspace(0.0, 1.0, 10**6 + 1))
    assert histogram_dp(x, spec, req, RandomSource(1)).value.size == 10**6
    assert len(threads_started) == 1 + 2  # the bin search, the noise loop


@pytest.mark.parametrize("failing", [0, 1], ids=["caller", "helper"])
def test_a_range_exception_reaches_the_caller_silently(capfd, failing):
    ran = []

    def fn(part, lo, hi):
        ran.append((part, lo, hi))
        if part == failing:
            raise KeyError(f"range {part}")

    before = threading.active_count()
    with pytest.raises(KeyError, match=f"range {failing}"):
        _kernels._in_ranges(fn, 2**16 + 1, 2)
    # Both ranges ran and the helper is gone, joined before the raise.
    assert sorted(ran) == [(0, 0, 2**15), (1, 2**15, 2**16 + 1)]
    assert threading.active_count() == before
    assert capfd.readouterr() == ("", "")


def _both_noises(seed, n=2**17):
    counts = np.arange(n) % 7
    rng = RandomSource(seed)
    return b"".join(
        joint_mechanism(counts, budget, 2.0, rng).tobytes()
        for budget in (PrivacyBudget(1.0),
                       PrivacyBudget(0.5, 1e-6, APPROXIMATE))
    ) + rng.uniform(2).tobytes()


def test_concurrent_callers_each_get_the_bytes_of_one_range(monkeypatch):
    # More callers than cores, each with its own source and each splitting
    # its releases, with the interpreter switching threads every microsecond.
    monkeypatch.setattr(_kernels, "_cpus", lambda: 1)
    want = [_both_noises(seed) for seed in range(4)]
    monkeypatch.setattr(_kernels, "_cpus", lambda: 2)
    got = [None] * 4
    callers = [threading.Thread(target=lambda i=i: got.__setitem__(
        i, _both_noises(i))) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert got == want


@pytest.mark.parametrize("count,cpus", [(3, 3), (None, 1)])
def test_cpus_without_an_affinity_call_is_the_cpu_count(monkeypatch, count,
                                                        cpus):
    monkeypatch.delattr(_kernels.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(_kernels.os, "cpu_count", lambda: count)
    assert _kernels._cpus() == cpus
