"""Numeric kernels: uniform variates to Normal or Laplace noise, and random
cosine features, each computed by vectorized numpy calls.

The Normal quantile is ``ndtri`` of the Cephes library (S. L. Moshier,
*Methods and Programs for Mathematical Functions*, Prentice Hall, 1989),
ported to numpy with its coefficients, its branch points and its operation
order, so each step rounds as the C code's does. Only ``log`` can differ:
numpy dispatches it to SIMD code chosen for the CPU, whose last bits may
differ from libm's, so a tail value may differ from a C build of ``ndtri``
by a few ulp."""

from __future__ import annotations

import math
import os
import threading

import numpy as np

# Cephes ndtri: P0/Q0 on the centre, |u - 1/2| < 1/2 - exp(-2), in y^2 with
# y = u - 1/2; P1/Q1 and P2/Q2 in z = 1/x, x = sqrt(-2 log y), on the tails
# with x < 8 and x >= 8 (y below exp(-32)). Each Q is written with its
# leading 1, so Horner's first step, 1 z + q0, rounds as Cephes' z + q0.
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# The tails' P and Q have the same degree, so one Horner pass evaluates both:
# row 0 is P and row 1 is Q.
_PQ1 = np.array([
    (4.05544892305962419923E0, 1.0),
    (3.15251094599893866154E1, 1.57799883256466749731E1),
    (5.71628192246421288162E1, 4.53907635128879210584E1),
    (4.40805073893200834700E1, 4.13172038254672030440E1),
    (1.46849561928858024014E1, 1.50425385692907503408E1),
    (2.18663306850790267539E0, 2.50464946208309415979E0),
    (-1.40256079171354495875E-1, -1.42182922854787788574E-1),
    (-3.50424626827848203418E-2, -3.80806407691578277194E-2),
    (-8.57456785154685413611E-4, -9.33259480895457427372E-4),
])[:, :, None]
_PQ2 = np.array([
    (3.23774891776946035970E0, 1.0),
    (6.91522889068984211695E0, 6.02427039364742014255E0),
    (3.93881025292474443415E0, 3.67983563856160859403E0),
    (1.33303460815807542389E0, 1.37702099489081330271E0),
    (2.01485389549179081538E-1, 2.16236993594496635890E-1),
    (1.23716634817820021358E-2, 1.34204006088543189037E-2),
    (3.01581553508235416007E-4, 3.28014464682127739104E-4),
    (2.65806974686737550832E-6, 2.89247864745380683936E-6),
    (6.23974539184983293730E-9, 6.79019408009981274425E-9),
])[:, :, None]

_S2PI = 2.50662827463100050242E0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
# Elements per block: the centre pass's three work rows (1.5 MiB) stay in
# cache, and a block costs about 35 numpy calls whatever its size. On a
# 2-vCPU x86-64 VM a 1M-cell Gaussian count release, its noise written over
# the counts, took (median ms, one thread / two) 33 / 49 in blocks of 2^13,
# 30 / 30 in 2^14, 30 / 21 in 2^15, 29 / 17-19 in 2^16 and 33 / 20 in 2^17;
# a Laplace release took 11-13 / 8-9 ms from 2^14 on. Two threads gain most
# from fewer, longer calls, since at each call one range waits on the other
# for the GIL.
_BLOCK = 1 << 16
# The Normal quantile's tail pass runs once per this many blocks. Its 30 or
# so numpy calls on one block's tails (27% of it) were too short for two
# threads to gain on: each waited on the other for the GIL, and in blocks
# of 2^15 1M uniforms took 14.9 ms on two threads against 20.5 ms on one.
# Once per two blocks they took 13.1 ms (2-vCPU VM), and the tails still
# fit in the centre pass's rows.
_TAIL_BLOCKS = 2
_SPAN = _TAIL_BLOCKS * _BLOCK
# A loop over at least this many elements runs in two ranges, one on a
# helper thread, when the process may run on two CPUs. Starting and joining
# the thread costs about 75 us (2-vCPU VM); the vectors of count releases
# reach 1M cells, while those of scalar releases and model fits stay far
# below this.
_SPLIT_MIN = 1 << 16


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _parts(n: int) -> int:
    """The number of ranges ``_in_ranges`` splits a loop of ``n`` elements
    into: 2 from _SPLIT_MIN elements on, when the process may run on two
    CPUs or more, else 1."""
    return 2 if n >= _SPLIT_MIN and _cpus() >= 2 else 1


def _in_ranges(fn, n: int, parts: int | None = None) -> None:
    """Run the range function ``fn(part, lo, hi)`` over [0, n): as
    fn(0, 0, n), or, when ``parts`` (default ``_parts(n)``) is 2, as
    fn(0, 0, n // 2) here and fn(1, n // 2, n) on a helper thread.

    ``fn`` must give each element the same bits whichever range holds it.
    Callers allocate each part's scratch before the call, because glibc
    gives every thread its own malloc arena and keeps what a helper thread
    frees in it. ``fn`` must not call what a tracer may wrap (the public
    kernels, ``RandomSource.uniform``), whose spans belong to the calling
    thread. The helper thread is joined before return, and its exception
    is raised here, never reported by ``threading.excepthook``."""
    if (parts or _parts(n)) == 1:
        fn(0, 0, n)
        return
    mid, failed = n // 2, []

    def second():
        try:
            fn(1, mid, n)
        except BaseException as exc:  # raised again on the calling thread
            failed.append(exc)

    helper = threading.Thread(target=second, daemon=True)
    helper.start()
    try:
        fn(0, 0, mid)
    finally:
        helper.join()
    if failed:
        raise failed[0]


def _polevl(x, coeffs, out):
    """Horner's rule, c0 x^n + ... + cn, written into ``out``. Coefficients
    of shape (rows, 1) evaluate one polynomial per row of ``out``."""
    np.multiply(x, coeffs[0], out=out)
    for c in coeffs[1:-1]:
        out += c
        out *= x
    out += coeffs[-1]
    return out


def _tail_ratio(z, pq, out, where=True):
    """z P(z) / Q(z), in Cephes' order, for the tail table ``pq``, in the
    first row of ``out``, of shape (2, z.size)."""
    p, q = _polevl(z, pq, out)
    p *= z
    return np.divide(p, q, out=p, where=where)


def _ndtri_tail(t, rows):
    """ndtri(t) for t at most exp(-2) from 0 or 1: x0 - z P(z)/Q(z), with
    x = sqrt(-2 log y), y = min(t, 1 - t), x0 = x - log(x)/x and z = 1/x,
    negative below 1/2. ``t`` is a scratch copy and is overwritten;
    ``rows``, of shape (4, t.size), is scratch whose first row receives and
    returns the result."""
    x0, z, x, _ = rows
    np.subtract(1.0, t, out=x)
    np.minimum(t, x, out=x)
    np.log(x, out=x)
    x *= -2.0
    np.sqrt(x, out=x)
    np.divide(1.0, x, out=z)
    np.log(x, out=x0)
    x0 /= x
    np.subtract(x, x0, out=x0)
    # P1/Q1 has a pole near x = 8.8, so it is divided out only where x < 8.
    # P and Q go in the last two rows, over x.
    near, deep = x < 8.0, np.flatnonzero(x >= 8.0)
    x1 = _tail_ratio(z, _PQ1, rows[2:], where=near)
    if deep.size:
        x1[deep] = _tail_ratio(z[deep], _PQ2, np.empty((2, deep.size)))
    x0 -= x1
    t -= 0.5
    return np.copysign(x0, t, out=x0)


def _out(u, out):
    """``out``, checked as the kernels' result for ``u``, or a new array."""
    if out is None:
        return np.empty(u.shape)
    if not (isinstance(out, np.ndarray) and out.dtype == np.float64
            and out.shape == u.shape and out.flags.c_contiguous):
        raise ValueError("out must be a C-contiguous float64 array of the "
                         "uniforms' shape")
    return out


def _normal_spans(u, x, work):
    """ndtri of the flat uniforms ``u``, refused unless strictly inside
    (0, 1), into ``x``, which may be ``u``. ``work``, 3 min(u.size, _BLOCK)
    long, holds three rows for a block's centre pass, then four, as long as
    the tails of _TAIL_BLOCKS blocks, for their tail pass."""
    for span_lo in range(0, u.size, _SPAN):
        span = u[span_lo:span_lo + _SPAN]
        if not (span.min() > 0.0 and span.max() < 1.0):  # NaN too
            raise ValueError("uniform variates must lie strictly inside "
                             "(0, 1)")
        tails = np.flatnonzero((span <= _EXP_M2) | (span > 1.0 - _EXP_M2))
        t = span[tails]
        for start in range(span_lo, span_lo + span.size, _BLOCK):
            ub, xb = u[start:start + _BLOCK], x[start:start + _BLOCK]
            y2, p, q = work[:3 * ub.size].reshape(3, -1)
            # The centre formula, (y + y (y^2 P0(y^2) / Q0(y^2)))
            # sqrt(2 pi), over the whole block; Q0 has no root on
            # |y| <= 1/2, so the tail elements stay finite until they
            # are overwritten.
            y = np.subtract(ub, 0.5, out=xb)
            np.multiply(y, y, out=y2)
            _polevl(y2, _P0, p)
            p *= y2
            p /= _polevl(y2, _Q0, q)
            p *= y
            xb += p
            xb *= _S2PI
        if tails.size:
            rows = (work[:4 * t.size].reshape(4, -1)
                    if 4 * t.size <= work.size else np.empty((4, t.size)))
            x[span_lo:span_lo + span.size][tails] = _ndtri_tail(t, rows)


def _laplace_scale(scale, shape):
    """``scale`` as one value (0-d) or one per element of ``shape``, flat."""
    scale = np.asarray(scale, dtype=np.float64)
    if not np.all(scale >= 0.0):
        raise ValueError("Laplace scale must be nonnegative")
    if scale.size != 1 and scale.shape != shape:
        raise ValueError("Laplace scale must be one value or one per uniform")
    return scale.reshape(() if scale.size == 1 else -1)


def _laplace_blocks(u, x, work, scale):
    """Laplace noise of ``scale`` (from ``_laplace_scale``) for the flat
    uniforms ``u`` into ``x``, which may be ``u``, a block at a time."""
    for start in range(0, u.size, _BLOCK):
        xb = x[start:start + _BLOCK]
        v = np.subtract(u[start:start + _BLOCK], 0.5, out=work[:xb.size])
        # np.sign writes to x, never over v: numpy's sign with its input as
        # its output took 7.8 ms per 1M elements, against 1.4 ms into
        # another array (2-vCPU VM).
        np.sign(v, out=xb)
        # A single scale is negated; a vector of scales is multiplied in and
        # the product negated, which gives the same bits, since rounding a
        # product is symmetric in sign.
        if scale.ndim:
            xb *= scale[start:start + _BLOCK]
            np.negative(xb, out=xb)
        else:
            xb *= -scale
        np.abs(v, out=v)
        v *= -2.0
        np.log1p(v, out=v)
        xb *= v


def normal_quantile(u: np.ndarray, out: np.ndarray | None = None
                    ) -> np.ndarray:
    """Inverse standard normal CDF, elementwise, for u strictly in (0, 1).

    As in numpy, ``out`` receives the result and is returned. It must be a
    C-contiguous float64 array of u's shape and may be ``u`` itself: each
    block of u is read before out is written over it. Without ``out`` the
    result is a new array and ``u`` is left as it is."""
    u = np.asarray(u, dtype=np.float64)
    out = _out(u, out)
    _normal_spans(u.reshape(-1), out.reshape(-1),
                  np.empty(3 * min(u.size, _BLOCK)))
    return out


def laplace_noise(u: np.ndarray, scale,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Laplace(0, scale) noise by the inverse CDF, -scale sign(v)
    log1p(-2|v|) with v = u - 0.5; u = 0.5 gives exactly 0. ``scale`` is
    one value or one per uniform, and the result has at least one
    dimension.

    As in numpy, ``out`` receives the result and is returned. It must be a
    C-contiguous float64 array of u's shape and may be ``u`` itself: each
    block of u is read into the kernel's work array before out is written
    over it. Without ``out`` the result is a new array and ``u`` is left as
    it is."""
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    scale = _laplace_scale(scale, u.shape)
    out = _out(u, out)
    _laplace_blocks(u.reshape(-1), out.reshape(-1),
                    np.empty(min(u.size, _BLOCK)), scale)
    return out


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
