"""Special-function layer and error metrics.

Everything the benchmarks need to produce reference values lives here, with
no special-function dependency beyond the standard library's math.gamma:

* oscillatory-side Airy values through a hybrid evaluator with one seam
  at t = 50 in Ai(-t): Taylor-series analytic continuation of the Airy ODE
  up to it, the large-argument asymptotic expansion (DLMF 9.7) above it,
  which reaches double accuracy near t = 30 (see airy_pair),
* the parabolic cylinder origin values U(nu, 0), U'(nu, 0) in closed form,
  from which make_pcf_problem continues w'' = (z^2/4 + nu) w,
* global error norms over a trajectory.

The tests march the same certified series substeps point to point, as an
independent cross-check for the asymptotic expansion and for the
checkpoint tables.
"""

from __future__ import annotations

import bisect
import functools
import math
import threading
from array import array
from typing import Sequence

from .state import ContinuationError

SQRT_PI = math.sqrt(math.pi)

# The Airy seam in t of Ai(-t), and the series length of a table substep.
AIRY_VALUE_SWITCH = 50.0
SERIES_TERMS = 30

# ---------------------------------------------------------------------------
# double-double helpers
# ---------------------------------------------------------------------------
# The continuation marches through tens of thousands of oscillations; a plain
# float64 state loses ~eps of phase per radian, which is fatal for the large
# arguments the benchmarks reach. The series recurrence is linear with REAL
# polynomial coefficients, so every operation below acts componentwise on the
# real and imaginary parts; the error-free transformations therefore remain
# valid when the state is complex (two solution channels packed into one).
# The Airy reference packs its two solutions into one complex channel
# (see _AIRY_TABLE).

_SPLIT = 134217729.0  # 2**27 + 1


def _two_sum(a, b):
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _two_prod(a, b):
    p = a * b
    ca = _SPLIT * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLIT * b
    bhi = cb - (cb - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _dd_add(xh, xl, yh, yl):
    s, e = _two_sum(xh, yh)
    e = e + (xl + yl)
    return _two_sum(s, e)


def _dd_mul_d(xh, xl, b):
    """(xh + xl) * b with b a plain float (or duck-typed exact scalar)."""
    p, e = _two_prod(xh, b)
    e = e + xl * b
    return _two_sum(p, e)


def _dd_recip_int(k: int):
    """Double-double reciprocal of a positive integer."""
    rh = 1.0 / k
    p, e = _two_prod(rh, float(k))
    rl = ((1.0 - p) - e) / k
    return rh, rl


_TWO_PI_HI = 6.283185307179586
_TWO_PI_LO = 2.4492935982947064e-16
_QUARTER_PI = 0.25 * math.pi
_TWO_THIRDS_HI = 2.0 / 3.0
_TWO_THIRDS_LO = ((2.0 - _two_prod(3.0, _TWO_THIRDS_HI)[0])
                  - _two_prod(3.0, _TWO_THIRDS_HI)[1]) / 3.0


def _split(a: float):
    """Dekker's split of a into (hi, lo), as _two_prod splits each factor."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


# The splits of the constant factors of the Airy phase (see _airy_phase).
_TWO_THIRDS_SPLIT = _split(_TWO_THIRDS_HI)
_TWO_PI_SPLIT = _split(_TWO_PI_HI)


# ---------------------------------------------------------------------------
# Taylor continuation for w'' = q(x) w with polynomial q
# ---------------------------------------------------------------------------

def _series_phase_cap(terms: int) -> float:
    """Largest per-substep phase sqrt(|q|)*h whose order-`terms` series tail
    stays below 1e-24, the root of phi**terms / terms! = 1e-24 (the eight
    extra decades over the 1e-16 certificate absorb envelope slop near
    turning points, where the coefficient decay is not a clean power)."""
    return math.exp((math.lgamma(terms + 1) + math.log(1e-24)) / terms)


def _dd_shift_poly(coeffs: Sequence[float], x0: float):
    """Double-double coefficients of q(x0 + t), from real coefficients of q."""
    hi = [float(c) for c in coeffs]
    lo = [0.0] * len(hi)
    n = len(hi)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            ph, pl = _dd_mul_d(hi[j + 1], lo[j + 1], x0)
            hi[j], lo[j] = _dd_add(hi[j], lo[j], ph, pl)
    return hi, lo


@functools.lru_cache(maxsize=None)
def _recip_table(terms: int):
    """(rh, rl, split of rh) of _dd_recip_int((m+1)(m+2)), m < terms - 2."""
    table = []
    for m in range(terms - 2):
        rh, rl = _dd_recip_int((m + 1) * (m + 2))
        table.append((rh, rl, *_split(rh)))
    return tuple(table)


def _dd_series(qhi, qlo, wh, wl, dh, dl, terms: int):
    """Double-double Taylor coefficients of w(x0 + t) for w'' = q(x0 + t) w.

    (qhi, qlo) are the coefficients of the shifted polynomial and
    (wh + wl, dh + dl) the state at x0. The state may be float or complex
    (componentwise error-free transforms stay exact because the multipliers
    q_j are real). Returns the lists (chi, clo) of the `terms` coefficients
    c_m, with (m+1)(m+2) c_(m+2) = sum_j q_j c_(m-j).

    Each coefficient is that sum of double-double products (_two_prod of
    the heads plus the cross terms, then _two_sum) accumulated with _dd_add
    from zero, then such a product by the reciprocal, written out with the
    q_j and the reciprocals split once, so the result is bit-identical to
    composing those helpers.
    """
    split = _SPLIT
    qterms = []
    for qh, ql in zip(qhi, qlo):
        t = split * qh
        a = t - (t - qh)
        qterms.append((qh, ql, a, qh - a))
    chi = [wh, dh]
    clo = [wl, dl]
    zero = qhi[0] * 0.0
    for m, (rh, rl, bh, bl) in enumerate(_recip_table(terms)):
        sh = sl = zero
        for (yh, yl, qh, ql), xh, xl in zip(qterms, chi[m::-1], clo[m::-1]):
            # p = c_(m-j) * q_j
            p = xh * yh
            t = split * xh
            ah = t - (t - xh)
            al = xh - ah
            e = ((ah * qh - p) + ah * ql + al * qh) + al * ql
            e = e + (xh * yl + xl * yh)
            ph = p + e
            z = ph - p
            pl = (p - (ph - z)) + (e - z)
            # s = s + p
            p = sh + ph
            z = p - sh
            e = ((sh - (p - z)) + (ph - z)) + (sl + pl)
            sh = p + e
            z = sh - p
            sl = (p - (sh - z)) + (e - z)
        # c_(m+2) = s / ((m+1)(m+2))
        p = sh * rh
        t = split * sh
        ah = t - (t - sh)
        al = sh - ah
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
        e = e + (sh * rl + sl * rh)
        ch = p + e
        z = ch - p
        chi.append(ch)
        clo.append((p - (ch - z)) + (e - z))
    return chi, clo


def _dd_deriv_coeffs(chi, clo):
    """Double-double coefficients g_m = (m+1) c_(m+1) of the derivative
    series: _dd_mul_d by float(m+1), written out with the multiplier split
    once, so the result is bit-identical to the helper."""
    ghi = []
    glo = []
    for m, (xh, xl) in enumerate(zip(chi[1:], clo[1:]), 1):
        b = float(m)
        t = _SPLIT * b
        bh = t - (t - b)
        bl = b - bh
        p = xh * b
        t = _SPLIT * xh
        ah = t - (t - xh)
        al = xh - ah
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl + xl * b
        s = p + e
        z = s - p
        ghi.append(s)
        glo.append((p - (s - z)) + (e - z))
    return ghi, glo


def _dd_horner(hi, lo, h):
    """Value (vh, vl) at t = h of the double-double series with
    coefficients hi_m + lo_m.

    Each Horner step is _dd_mul_d by h followed by _dd_add of the next
    coefficient, written out with h split once, so the result is
    bit-identical to composing those helpers. state_at and table growth
    (_dd_substep) hop with it.
    """
    t = _SPLIT * h
    hh = t - (t - h)
    hl = h - hh
    vh = hi[0] * 0.0  # zero of the state's dtype
    vl = vh
    for yh, yl in zip(reversed(hi), reversed(lo)):
        p = vh * h
        t = _SPLIT * vh
        ahi = t - (t - vh)
        alo = vh - ahi
        e = ((ahi * hh - p) + ahi * hl + alo * hh) + alo * hl + vl * h
        s = p + e
        z = s - p
        e = (p - (s - z)) + (e - z)
        p = s + yh
        z = p - s
        e = ((s - (p - z)) + (yh - z)) + (e + yl)
        vh = p + e
        z = vh - p
        vl = (p - (vh - z)) + (e - z)
    return vh, vl


def _horner(hi, h):
    """Value at t = h of the series with plain coefficients hi_m: one
    Horner pass v = v * h + c from the last coefficient, in double. A
    complex series runs the pass on each part, as _horner_rows reads
    complex rows, so no complex product is formed. This is the scalar
    kernel of values_at without numpy; _horner_rows is its batch form."""
    v = hi[-1]
    if type(v) is complex:
        vr, vi = v.real, v.imag
        for c in hi[-2::-1]:
            vr = vr * h + c.real
            vi = vi * h + c.imag
        return complex(vr, vi)
    for c in hi[-2::-1]:
        v = v * h + c
    return v


def _horner_rows(hi, h, np):
    """_horner of every column of the numpy coefficient rows hi, one row
    per term and one column per hop h, as one array: an in-place multiply
    and add per term. Complex rows are read as interleaved real lanes,
    each hop repeated for the real and imaginary part of its column, so
    each part is multiplied only by the real h. Each column takes the
    scalar kernel's IEEE operations in its order, and so its bits."""
    if hi.dtype.kind == "c":
        return _horner_rows(hi.view(float), np.repeat(h, 2),
                            np).view(complex)
    v = hi[-1].copy()
    for c in hi[-2::-1]:
        v *= h
        v += c
    return v


def _check_tail(chi, h: float, x: float) -> None:
    """Convergence certificate of one substep: the last two terms of the
    series at t = h must stay within 1e-16 of a finite term-magnitude sum."""
    bulk = 0.0
    hpow = 1.0
    prev_mag = 0.0
    last_mag = 0.0
    for c in chi:
        mag = abs(c) * hpow
        bulk += mag
        prev_mag, last_mag = last_mag, mag
        hpow *= abs(h)
    tail = last_mag + prev_mag
    if not (bulk < math.inf and tail <= 1e-16 * bulk):
        raise ContinuationError(
            f"series tail {tail:.2e} above 1e-16 of partial sum at x={x}")


def _dd_substep(qpoly, x: float, state, x1: float, phase_cap: float,
                terms: int):
    """One certified series substep of w'' = q(x) w from x towards x1.

    The substep is as long as the series allows, min(1, phase_cap /
    sqrt(1 + |q|)), or shorter if x1 is nearer. Returns (x_next, state at
    x_next, value series, derivative series) with the state in
    double-double form (wh, wl, dh, dl) and each series a (hi, lo) pair of
    coefficient lists about x.
    """
    qhi, qlo = _dd_shift_poly(qpoly, x)
    # Coefficient-magnitude sum bounds |q| on the unit neighbourhood.
    qmag = sum(abs(qc) for qc in qhi)
    h_max = min(1.0, phase_cap / math.sqrt(1.0 + qmag))
    if abs(x1 - x) <= h_max:
        x_next = x1
    else:
        # Keep substep endpoints exactly representable.
        x_next = x + math.copysign(h_max, x1 - x)
    h = x_next - x
    series = _dd_series(qhi, qlo, *state, terms)
    _check_tail(series[0], h, x)
    dseries = _dd_deriv_coeffs(*series)
    return (x_next, _dd_horner(*series, h) + _dd_horner(*dseries, h),
            series, dseries)


class _ContinuationTable:
    """Double-double checkpoints of w'' = q w, grown lazily from x0.

    Each side of x0 is one march away from x0 in full substeps of
    min(1, _series_phase_cap(SERIES_TERMS) / sqrt(1 + |q|)), and the table
    keeps the key of every substep end, with the value and derivative
    series that the substep away from it was formed with, and the march
    state at the side's last key alone, where growth resumes. A checkpoint
    therefore depends only on its position, never on the order of earlier
    queries, and a side grown to its farthest point at once holds the
    checkpoints that growing it point by point leaves. A query hops from
    the checkpoint at or below x on its side over the series stored there,
    with h = 0.0 on a checkpoint, forms no series, and answers in plain
    values. What each query promises:

    * state_at, like growth, runs the compensated pass _dd_horner over the
      value and the derivative series and answers the head of each
      double-double pair. The pass ends in a two-sum, so the head is what
      summing the pair would give for every finite value; a non-finite
      head is returned as it is, where the sum could read nan for inf. No
      head is -0.0: under round to nearest, a sum of two terms is -0.0
      only if both are, and the pass's products and error terms never
      make both. A problem's initial data comes from state_at, so these
      bits fix its trajectories.
    * values_at, the verification batch, runs one plain Horner pass over
      the high parts c_k of the value series alone. Per real lane, barring
      underflow and overflow, it is within gamma_2n * sum |c_k| |h|^k of
      state_at's w, with n the number of terms and gamma_m = m u /
      (1 - m u), u = 2**-53. Higham's bound for the pass itself is
      gamma_2(n-1), for the degree n - 1 (Accuracy and Stability of
      Numerical Algorithms, 2nd ed., 5.1); the extra 2u covers the low
      parts that the pass leaves out and state_at's own rounding. The
      list and numpy forms give the same bits.

    Growth runs under a lock and publishes each checkpoint's series before
    its key, so a concurrent reader only ever finds complete checkpoints.
    """

    def __init__(self, q_coeffs, x0: float, state):
        self.q = [float(c) for c in q_coeffs]
        self.x0 = float(x0)
        self._phase_cap = _series_phase_cap(SERIES_TERMS)
        zero = state[0] * 0.0
        seed = (state[0], zero, state[1], zero)
        # Direction d -> [keys d*x in ascending order, (value series,
        # derivative series) of the substep from each x to the next, state
        # at the last key].
        self._sides = {1.0: [[self.x0], [], seed],
                       -1.0: [[-self.x0], [], seed]}
        # (series count per side) -> the numpy copy of both sides that
        # values_at reads (see _stacked).
        self._stacks = {}
        self._lock = threading.Lock()

    def _grow(self, d: float, key: float) -> None:
        side = self._sides[d]
        keys, series = side[0], side[1]
        with self._lock:
            while keys[-1] <= key:
                x, state, values, derivs = _dd_substep(
                    self.q, d * keys[-1], side[2], d * math.inf,
                    self._phase_cap, SERIES_TERMS)
                # Series before key: readers bisect the keys unlocked.
                series.append((values, derivs))
                side[2] = state
                keys.append(d * x)

    def _locate(self, x: float) -> tuple[float, int, float]:
        """(d, i, h): the side d of x, the index i on that side of the
        checkpoint at or below x, grown to where need be so that a key lies
        beyond x, and the hop h = x - d * keys[i]."""
        d = 1.0 if x >= self.x0 else -1.0
        keys = self._sides[d][0]
        key = d * x
        if not keys[-1] > key:  # at or beyond the table's end, or not finite
            if not math.isfinite(x):
                raise _not_finite(x)
            self._grow(d, key)
        i = bisect.bisect_right(keys, key) - 1
        return d, i, x - d * keys[i]

    def state_at(self, x: float):
        """The state (w, w') at x, as plain floats or complex numbers."""
        d, i, h = self._locate(x)
        values, derivs = self._sides[d][1][i]
        # The tail certificate was checked for the full substep from this
        # checkpoint when the table grew. It covers this shorter hop too,
        # because tail/bulk rises with |h|: every tail term gains on every
        # bulk term by a positive power of |h|.
        return _dd_horner(*values, h)[0], _dd_horner(*derivs, h)[0]

    def _stacked(self, np):
        """(up, stack, keys): the high parts of the value series of both
        sides stacked into one numpy array, one row per term and one column per
        checkpoint that has a series, the `up` columns of side 1.0 first,
        and keys mapping each side d to a float array of its keys d*x up to
        the last stacked column's far end. The counts are read from the
        keys, which growth publishes after the series, so every stacked
        column is complete. The arrays are rebuilt only after a side has
        grown, and published as one dict entry, so a concurrent reader that
        has grown a side finds every column and key it needs."""
        counts = tuple(len(self._sides[d][0]) - 1 for d in (1.0, -1.0))
        stack = self._stacks.get(counts)
        if stack is None:
            stack = (np.array([v[0] for d, n in zip((1.0, -1.0), counts)
                               for v, _ in self._sides[d][1][:n]]).T.copy(),
                     {d: np.array(self._sides[d][0][:n + 1])
                      for d, n in zip((1.0, -1.0), counts)})
            self._stacks.clear()
            self._stacks[counts] = stack
        return (counts[0], *stack)

    def values_at(self, xs):
        """The w at every x of xs by the plain Horner pass (see the class
        docstring): a list, or with numpy one array.

        With numpy the batch is located at once. The first point that is
        not finite raises state_at's ValueError; each side with points is
        grown once, past its farthest key; one searchsorted per side over
        the key array of _stacked finds every checkpoint at or below its
        point, and the hops h = x - d * keys[i] are formed elementwise, as
        state_at forms each. Every hop runs in one _horner_rows pass over
        the gathered high parts, one column per hop, which gives each hop
        the bits of _horner. Where numpy cannot be imported, each point is
        located as state_at does and hops alone through _horner.
        """
        np = _numpy() if len(xs) else None
        if np is None:
            ws = []
            for x in xs:
                d, i, h = self._locate(x)
                ws.append(_horner(self._sides[d][1][i][0][0], h))
            return ws
        x = np.asarray(xs, dtype=float)
        lo, hi = float(x.min()), float(x.max())  # not finite if a point is not
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise _not_finite(xs[int(np.isfinite(x).argmin())])
        if hi >= self.x0:
            self._grow(1.0, hi)
        if lo < self.x0:
            self._grow(-1.0, -lo)
        up, stack, keys = self._stacked(np)
        cols = np.empty(len(xs), dtype=np.intp)
        hops = np.empty(len(xs))
        mask = x >= self.x0
        for d, m in ((1.0, mask), (-1.0, ~mask)):
            k, xd = keys[d], x[m]
            i = np.searchsorted(k, d * xd, side="right") - 1
            cols[m] = i if d > 0 else i + up
            hops[m] = xd - d * k[i]
        # take, unlike [:, cols], gathers the columns in C order, so the
        # Horner pass reads each term's row contiguously.
        with np.errstate(all="ignore"):
            return _horner_rows(stack.take(cols, 1), hops, np)


def _not_finite(x) -> ValueError:
    return ValueError(f"continuation point must be finite, got {x!r}")


def _numpy():
    """numpy, imported on first use, or None where it cannot be imported."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy


# ---------------------------------------------------------------------------
# Airy functions on the oscillatory side
# ---------------------------------------------------------------------------

def airy_origin_values() -> tuple[complex, complex]:
    """Exact (w, w') at the origin, w = Ai + i Bi."""
    g13 = math.gamma(1.0 / 3.0)
    g23 = math.gamma(2.0 / 3.0)
    return (complex(3.0 ** (-2.0 / 3.0) / g23, 3.0 ** (-1.0 / 6.0) / g23),
            complex(-(3.0 ** (-1.0 / 3.0)) / g13, 3.0 ** (1.0 / 6.0) / g13))


_UV_CACHE: list[tuple[float, float]] = [(1.0, 1.0)]


def asymptotic_coeffs(k: int) -> tuple[float, float]:
    """Coefficients (u_k, v_k) of the large-argument Airy expansions."""
    if k < 0:
        raise ValueError("k must be >= 0")
    while len(_UV_CACHE) <= k:
        j = len(_UV_CACHE)
        u_prev = _UV_CACHE[-1][0]
        u = u_prev * (6 * j - 5) * (6 * j - 3) * (6 * j - 1) / ((2 * j - 1) * 216 * j)
        v = u * (6 * j + 1) / (1 - 6 * j)
        _UV_CACHE.append((u, v))
    return _UV_CACHE[k]


# The coefficients u_j and v_j, j <= 7, of the expansion's sums, each with
# the sign (-1)^(j // 2) that its sum gives it (see _asym_sums).
_ASYM_U, _ASYM_V = (
    tuple((-1.0 if j % 4 > 1 else 1.0) * asymptotic_coeffs(j)[i]
          for j in range(8)) for i in (0, 1))


def _airy_phase(t: float) -> tuple[float, float, float]:
    """(zeta, cos, sin) of the expansion at t > 0: zeta = (2/3) t^(3/2),
    and the cosine and sine of zeta - pi/4 with zeta reduced modulo 2 pi.

    zeta is formed in double-double, the square root of t as a pair times
    t times 2/3, and reduced by subtracting n * 2 pi, n = round(zeta / 2
    pi), formed with _two_prod and added with _dd_add. Every Dekker step is
    written out, with the constant factors split once at import, so the
    result has the bits of composing the double-double helpers (the tests
    keep that composition as the oracle); the head of the reduced pair is
    its sum, since the add ends in a two-sum. Raises OverflowError naming
    t where zeta is not finite: the splits overflow before zeta does, from
    about t = 1e200.
    """
    split = _SPLIT
    # (sh, sl) = sqrt(t), from sh * sh by _two_prod.
    sh = math.sqrt(t)
    c = split * sh
    ah = c - (c - sh)
    al = sh - ah
    p = sh * sh
    e = ((ah * ah - p) + ah * al + al * ah) + al * al
    sl = ((t - p) - e) / (2.0 * sh)
    # (zh, zl) = (sh, sl) * t.
    c = split * t
    bh = c - (c - t)
    bl = t - bh
    p = sh * t
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    e = e + sl * t
    zh = p + e
    z = zh - p
    zl = (p - (zh - z)) + (e - z)
    # (zh, zl) = (zh, zl) * 2/3 in double-double.
    bh, bl = _TWO_THIRDS_SPLIT
    c = split * zh
    ah = c - (c - zh)
    al = zh - ah
    p = zh * _TWO_THIRDS_HI
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    e = e + (zh * _TWO_THIRDS_LO + zl * _TWO_THIRDS_HI)
    zh = p + e
    z = zh - p
    zl = (p - (zh - z)) + (e - z)
    zeta = zh + zl
    if not math.isfinite(zeta):
        raise OverflowError(f"Airy phase overflows at t={t!r}")
    # (ph, pe) = n * 2 pi by _two_prod; n = 0 leaves zh + zl.
    n = float(round(zh / _TWO_PI_HI))
    bh, bl = _TWO_PI_SPLIT
    c = split * n
    ah = c - (c - n)
    al = n - ah
    ph = n * _TWO_PI_HI
    pe = ((ah * bh - ph) + ah * bl + al * bh) + al * bl
    # The head of (zh, zl) + (-ph, -(pe + n * 2 pi lo)).
    yh = -ph
    p = zh + yh
    z = p - zh
    e = (zh - (p - z)) + (yh - z)
    e = e + (zl + -(pe + n * _TWO_PI_LO))
    arg = (p + e) - _QUARTER_PI
    return zeta, math.cos(arg), math.sin(arg)


def _asym_sums(coeffs, zeta: float) -> tuple[float, float]:
    """The even and odd sums of the expansion over the signed coefficients
    coeffs (_ASYM_U or _ASYM_V): sum_k coeffs[2k] / zeta^(2k) and sum_k
    coeffs[2k+1] / zeta^(2k+1), each added up from k = 0 (the first even
    term is coeffs[0] = 1). Raises OverflowError where zeta ** 7 does."""
    c0, c1, c2, c3, c4, c5, c6, c7 = coeffs
    return (((c0 + c2 / zeta ** 2) + c4 / zeta ** 4) + c6 / zeta ** 6,
            ((c1 / zeta + c3 / zeta ** 3) + c5 / zeta ** 5) + c7 / zeta ** 7)


def _airy_w(t: float, zeta: float, cosz: float, sinz: float) -> complex:
    """w = Ai(-t) + i Bi(-t) by the expansion, from _airy_phase(t): the
    value-only kernel of airy_values above the seam, and the w of
    airy_asymptotic. Raises OverflowError naming t where the sums
    overflow, from t of about 2.985e29."""
    try:
        even, odd = _asym_sums(_ASYM_U, zeta)
    except OverflowError:
        raise OverflowError(
            f"Airy expansion overflows at t={t!r}") from None
    amp = 1.0 / (SQRT_PI * t ** 0.25)
    return complex(amp * (cosz * even + sinz * odd),
                   amp * (-sinz * even + cosz * odd))


def airy_asymptotic(t: float) -> tuple[complex, complex]:
    """Large-argument expansion of (w, w') at -t, w = Ai + i Bi, truncated
    after u_7 and v_7, four terms in each of the paired cosine and sine
    sums (see _asym_sums): the full-state query above the seam. Its w is
    _airy_w's, from the phase of _airy_phase.

    The phase zeta = (2/3) t^(3/2) is formed and reduced modulo 2 pi in
    double-double, yet its rounding still grows with zeta. Against mpmath
    (60 digits) at the float t, the error of w relative to |w| is 7.7e-17
    at t = 1e8 and 1.6e-16 at 1e10, 4.0e-15 at 1e12 and 2.7e-12 at 1e14,
    and 3.9e-9 at 1e16 and 1.1e-6 at 1e18. Raises ValueError for a t that
    is not positive, NaN included, and OverflowError naming t from about
    t = 2.985e29 up, where zeta ** 7 overflows in the sums, and at t = inf,
    where the phase does.
    """
    if not t > 0.0:
        raise ValueError("asymptotic branch needs t > 0")
    zeta, cosz, sinz = _airy_phase(t)
    w = _airy_w(t, zeta, cosz, sinz)
    even, odd = _asym_sums(_ASYM_V, zeta)
    damp = t ** 0.25 / SQRT_PI
    return w, complex(damp * (sinz * even - cosz * odd),
                      damp * (cosz * even + sinz * odd))


# Continuation checkpoints in the Airy variable y = -t, one per series
# substep of the march from the origin (see _ContinuationTable), of one
# complex solution w = Ai + i Bi: the recurrence has real coefficients, so
# the real and imaginary parts march as Ai and Bi alone would, bit for bit.
# The table grows on first use; building it here costs only the origin
# values.
_AIRY_TABLE = _ContinuationTable([0.0, 1.0], 0.0, airy_origin_values())


def _check_oscillatory(t: float) -> None:
    if not t >= 0.0:
        raise ValueError(
            f"only the oscillatory side t >= 0 is supported, got {t!r}")


def airy_pair(t: float) -> tuple[complex, complex]:
    """Hybrid (w, w') = (Ai(-t) + i Bi(-t), Ai'(-t) + i Bi'(-t)) by one
    route: the continuation table's (w, w') at -t for t <= AIRY_VALUE_SWITCH
    = 50, the asymptotic expansion above. Against mpmath, relative to the
    amplitude envelope, the expansion is within 5e-16 on 30 <= t <= 500 (as
    is the table) and 1.8e-14 on 20 <= t <= 30, so the seam leaves a margin
    and the table stops near t = 50."""
    _check_oscillatory(t)
    if t <= AIRY_VALUE_SWITCH:
        return _AIRY_TABLE.state_at(-t)
    return airy_asymptotic(t)


def airy_values(ts):
    """Ai(-t) + i Bi(-t) at every t of ts, each by the route airy_pair
    takes: a list, or with numpy one complex array. The points at or below
    the seam come from one values_at batch over the table, so each is
    within that batch's bound of airy_pair's w (see _ContinuationTable);
    those above it come one at a time from the expansion's value-only
    kernel, _airy_w of _airy_phase, with the bits of airy_pair's w and no
    w'. Every t is checked before any is evaluated, and the first NaN or
    negative t raises airy_pair's ValueError. With numpy the check and the
    route split are array passes, and the points above the seam are written
    into the table's array."""
    np = _numpy() if len(ts) else None
    if np is None:
        for t in ts:
            _check_oscillatory(t)
        high = [t > AIRY_VALUE_SWITCH for t in ts]
        table = iter(_AIRY_TABLE.values_at(
            [-t for t, up in zip(ts, high) if not up]))
        return [_airy_w(t, *_airy_phase(t)) if up else next(table)
                for t, up in zip(ts, high)]
    t = np.asarray(ts, dtype=float)
    ok = t >= 0.0
    if not ok.all():
        _check_oscillatory(ts[int(ok.argmin())])
    up = t > AIRY_VALUE_SWITCH
    if not up.any():
        return _AIRY_TABLE.values_at(-t)
    w = np.empty(len(t), dtype=complex)
    w[~up] = _AIRY_TABLE.values_at(-t[~up])
    w[up] = [_airy_w(x, *_airy_phase(x)) for x in t[up].tolist()]
    return w


# ---------------------------------------------------------------------------
# Parabolic cylinder function U(nu, z)
# ---------------------------------------------------------------------------

def _over_gamma(num: float, scale: float, x: float) -> float:
    """num / (scale * Gamma(x)), written with the reciprocal gamma so that
    it is exactly 0 at the poles of Gamma, where 1/Gamma(x) vanishes.
    Raises OverflowError when the quotient is not finite."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    out = num / (scale * math.gamma(x))
    if not math.isfinite(out):
        raise OverflowError(f"{num} / ({scale} * Gamma({x})) overflows")
    return out


def pcf_origin_values(nu: float) -> tuple[float, float]:
    """Closed-form (U(nu, 0), U'(nu, 0)).

    U(nu, 0) = sqrt(pi) / (2^(nu/2 + 1/4) Gamma(3/4 + nu/2)) and
    U'(nu, 0) = -sqrt(pi) / (2^(nu/2 - 1/4) Gamma(1/4 + nu/2)); either is 0
    where its gamma argument is a pole (nu = -1/2, -3/2, -5/2, ...). Below
    nu of about -288 they overflow: this raises OverflowError, or
    ZeroDivisionError once the denominator underflows to 0.
    """
    u0 = _over_gamma(SQRT_PI, 2.0 ** (0.5 * nu + 0.25), 0.75 + 0.5 * nu)
    du0 = _over_gamma(-SQRT_PI, 2.0 ** (0.5 * nu - 0.25), 0.25 + 0.5 * nu)
    return u0, du0


# ---------------------------------------------------------------------------
# Error metrics
# ---------------------------------------------------------------------------

def _exact_batch(problem, xs):
    """Exact phi of a benchmark problem at every x of xs, as the provider
    answers: one batch query where it has one (`exact.phis`), which may
    answer with a numpy array. A provider without one, or a batch that
    fails, is queried one full-state point at a time, so a failure names
    the first point that fails alone."""
    if problem.exact is None:
        raise ValueError("problem has no exact-solution provider")
    phis = getattr(problem.exact, "phis", None)
    if phis is not None:
        try:
            return phis(xs)
        except (ValueError, ArithmeticError, ContinuationError):
            pass
    return [problem.exact(x).phi for x in xs]


def exact_solution(problem, xs) -> list[complex]:
    """Exact phi of a benchmark problem at every x of xs, in one batch
    query where the provider has one (see _exact_batch), as a list of
    Python complex. A batch value is a reference in double precision, not
    the bits of the full-state query problem.exact(x): the benchmarks'
    providers read the table's plain Horner pass (_ContinuationTable's
    values_at), within its stated bound of the full query."""
    refs = _exact_batch(problem, xs)
    return refs.tolist() if hasattr(refs, "tolist") else refs


def global_error(trajectory, problem, norm: str = "sup"):
    """Global error of an accepted trajectory against the exact solution.

    norm="sup":   max over nodes of |phi_n - phi(x_n)| / |phi(x_n)|,
                  skipping nodes where the exact value vanishes.
    norm="l2rel": ||phi_n - phi(x_n)||_2 / ||phi(x_n)||_2 over the nodes.

    `trajectory` is a control.Trajectory, whose x and phi columns are read
    as they are, or a sequence of WaveState, read into the same two columns
    (see _nodes). The exact values of all nodes come from one batch query
    at the x column. Both norms read nan when a node's error is NaN, and
    raise ValueError when the exact solution vanishes at every node. A
    modulus beyond the largest float reads inf, where abs(complex) raises
    OverflowError. With numpy, "sup" is one array pass over the provider's
    batch and the phi column viewed as a complex array (see _sup_norm),
    with the bits of the list form.
    """
    if norm not in ("sup", "l2rel"):
        raise ValueError(f"unknown norm {norm!r}")
    xs, phis = _nodes(trajectory)
    if not xs:
        raise ValueError("empty trajectory")
    np = _numpy() if norm == "sup" else None
    if np is None:
        return _error_norm(_complexes(phis), exact_solution(problem, xs),
                           norm)
    return _sup_norm(np.frombuffer(phis, dtype=complex),
                     np.asarray(_exact_batch(problem, xs), dtype=complex), np)


def _nodes(trajectory) -> tuple[array, array]:
    """(xs, phis) of global_error's nodes as float arrays: the x of each,
    and the real and imaginary parts of each phi, interleaved. A trajectory
    with columns hands them over; a sequence of states is read into them."""
    if hasattr(trajectory, "phis"):
        return trajectory.xs, trajectory.phis
    states = list(trajectory)
    return (array("d", [s.x for s in states]),
            array("d", [part for s in states
                        for part in (s.phi.real, s.phi.imag)]))


def _complexes(parts) -> list[complex]:
    """The complex numbers whose real and imaginary parts `parts`
    interleaves, with their bits."""
    return list(map(complex, parts[0::2], parts[1::2]))


def _modulus(z) -> float:
    """abs(z), or inf where it passes the largest float (abs raises)."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _error_norm(phis, refs, norm: str) -> float:
    """global_error's `norm` of the node values phis (complex, in node
    order) against their exact values refs, so that a caller holding the
    exact values forms both norms from them."""
    if norm == "sup":
        rel = [_modulus(phi - ref) / _modulus(ref)
               for phi, ref in zip(phis, refs) if ref != 0]
        if not rel:
            raise ValueError("exact solution vanishes on all nodes")
        return math.nan if any(map(math.isnan, rel)) else max(rel)
    denom = math.hypot(*map(_modulus, refs))
    if denom == 0.0:
        raise ValueError("exact solution vanishes on all nodes")
    err = [_modulus(phi - r) for phi, r in zip(phis, refs)]
    # hypot reads inf, not nan, once any error is inf.
    return math.nan if any(map(math.isnan, err)) else math.hypot(*err) / denom


def _sup_norm(phi, ref, np) -> float:
    """_error_norm's sup norm of the complex arrays phi of the nodes and
    ref of their exact values, bit for bit. np.hypot(z.real, z.imag) gives
    abs(z) (np.abs of a complex array need not), and inf where abs raises;
    the difference is elementwise IEEE, and the max reads nan if any ratio
    does."""
    with np.errstate(all="ignore"):
        d = phi - ref
        rel = (np.hypot(d.real, d.imag)
               / np.hypot(ref.real, ref.imag))[ref != 0]
    if not len(rel):
        raise ValueError("exact solution vanishes on all nodes")
    return float(rel.max())
