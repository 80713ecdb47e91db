"""Prime generation, exact pi at Lucy points, prime sums, the
logarithmic integral, and the inequality sweep engine.

The sweep engine is the workhorse: it verifies each registered
prime-counting or prime-sum inequality over a range by evaluating the
margin (RHS - LHS, signed) at every point where the margin can attain an
extremum, and reports the worst margin with a three-way verdict.  It
reduces through ``core.sweep`` one chunk of states at a time, as they are
made, so only the prime table and its prefix sums are O(pi(x)).  A step
sweep puts a prime's two states on a second axis: li runs once per prime.
The pi-li checks keep no table: they floor brackets between exact pi at
Lucy points and sieve only a head window and the brackets that do not clear.

The sieve's segments (as in Oliveira e Silva, Herzog and Pardi, Math.
Comp. 83, 2014) flag odd numbers only and start from a pattern with the
odd multiples of 3..13 struck: the primes to 13, over half of a plain
sieve's writes, never run as strided writes.

The sweeps and ``log_integral`` read one li, ``_li``: the series below
2^16 and, from 2^16 up, a certified degree-8 expansion about a fixed grid
of anchors 2^(j/64), whose li comes from the same series.  Its half-width
bounds the series error at the anchor, every rounding of the expansion
and its truncation; ``_li`` lists each part.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import (
    EULER_GAMMA,
    MERTENS_BRACKET_HI,
    MERTENS_BRACKET_LO,
    MERTENS_M,
    MPRIME_COARSE_BOUND,
    PUBLISHED_V1,
)
from .core import (DEFAULT_ETA, ULP, Enclosure, SweepSummary, U, VerificationReport,
                   adaptive_simpson, anchored_grid, bisect_root, gamma_n, geometric_grid,
                   outward, spans, sweep)
from .errors import (
    DomainError,
    PrecisionError,
    PreconditionError,
    ResourceError,
    UsageError,
)

DEFAULT_SIEVE_CAP = 10 ** 9
_SEGMENT_SIZE = 1 << 20  # numbers per sieve segment; its odd-only flags are 512 KB
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL_PERIOD = 15015  # 3 * 5 * 7 * 11 * 13 odd slots: 30030 numbers

# Deterministic Miller-Rabin witness set, valid for all n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


# ---------------------------------------------------------------------------
# sieving and the prime table


_PREFIX_CHUNK = 1 << 13  # primes per prefix chunk: 64 KiB arrays, reused from the heap


def _compensated_prefix(primes: np.ndarray, term: Callable) -> np.ndarray:
    """Running sums s of the terms ``term(primes)``, with a leading 0, each
    plus the running sum of the exact TwoSum errors (s[i-1] - (s[i] - b))
    + (t[i] - b), b = s[i] - s[i-1], as in Sum2 of Ogita, Rump and Oishi
    (SIAM J. Sci. Comput. 26, 2005).

    ``term`` maps a chunk of ``_PREFIX_CHUNK`` primes to a new float array,
    which is overwritten.  Both cumsums run on from the last s and the last
    error sum, prepended to the chunk, so each entry has the bits of the
    whole-array sums; besides the output two chunk-sized arrays are live."""
    out = np.empty(primes.size + 1)
    out[0] = s_last = e_last = 0.0
    for a in range(0, primes.size, _PREFIX_CHUNK):
        t = term(primes[a : a + _PREFIX_CHUNK])
        e = np.concatenate(([s_last], t))
        s = out[a : a + e.size]
        done = s[0]  # entry a, finished by the chunk before
        np.cumsum(e, out=s)
        prev, cur = s[:-1], s[1:]
        err = np.subtract(cur, prev, out=e[1:])  # b
        t -= err
        np.subtract(cur, err, out=err)
        np.subtract(prev, err, out=err)
        err += t
        e[0] = e_last
        np.cumsum(e, out=e)
        s_last, e_last, s[0] = s[-1], e[-1], done
        cur += err
        del t, e, err  # before the next chunk's terms exist
    return out


class PrimeTable:
    """All primes up to ``limit``, immutable once built, plus the prefix
    sums the sweep engine needs (built lazily by ``_compensated_prefix``).
    Float work divides by and takes logs of the int64 primes directly:
    numpy casts each exactly, as it is below 2**53, so no float copy is
    kept."""

    def __init__(self, limit: int, primes: np.ndarray):
        self.limit = int(limit)
        self.primes = primes
        self._recip_prefix = None
        self._log2_prefix = None

    def __len__(self) -> int:
        return int(self.primes.size)

    def prime_pi(self, x: float) -> int:
        """pi(x) = number of primes <= x, by the integer key floor(x): a
        float key would cast the whole table to float64."""
        if not x < self.limit:  # inf and nan too, as a float search gives
            return len(self)
        return int(np.searchsorted(self.primes, math.floor(max(x, 0)), side="right"))

    def recip_prefix(self) -> np.ndarray:
        """R[k] = sum of 1/p over the first k primes, R[0] = 0."""
        if self._recip_prefix is None:
            self._recip_prefix = _compensated_prefix(self.primes, lambda p: 1.0 / p)
        return self._recip_prefix

    def log2_prefix(self) -> np.ndarray:
        """L[k] = sum of log(p)^2/p over the first k primes, L[0] = 0."""
        if self._log2_prefix is None:
            self._log2_prefix = _compensated_prefix(self.primes, lambda p: np.log(p) ** 2 / p)
        return self._log2_prefix


def _pi_upper(x: int) -> int:
    """An integer above pi(x) for x >= 2: pi(x) < x/log x (1 + 3/(2 log x))
    for x > 1 (Rosser and Schoenfeld, Illinois J. Math. 6, 1962, (3.3)),
    plus one for the rounding.  About 2% above pi(x) at 1e7."""
    log_x = math.log(x)
    return int(x / log_x * (1.0 + 1.5 / log_x)) + 1


def _wheel_pattern() -> np.ndarray:
    """Two periods of odd-number flags, slot i standing for 2i + 1, with
    the odd multiples of the wheel primes struck, the primes too."""
    flags = np.ones(2 * _WHEEL_PERIOD, dtype=bool)
    for p in _WHEEL_PRIMES:
        flags[(p - 1) // 2 :: p] = False
    return flags


_WHEEL = _wheel_pattern()


def sieve_limit(limit, cap: int | None = None) -> int:
    """``limit`` as an int: DomainError below 2, ResourceError above ``cap``."""
    limit, cap = int(limit), DEFAULT_SIEVE_CAP if cap is None else int(cap)
    if limit < 2:
        raise DomainError(f"sieve limit must be at least 2, got {limit}")
    if limit > cap:
        raise ResourceError(f"sieve limit {limit} exceeds cap {cap}")
    return limit


def sieve_primes(limit: int, cap: int | None = None) -> PrimeTable:
    """All primes up to ``limit``, at most ``cap``, as a table.  The sieve
    recurses through ``_segmented_primes``, so this runs once per table."""
    limit = sieve_limit(limit, cap)
    return PrimeTable(limit, _segmented_primes(limit))


def _segmented_primes(limit: int, start: int = 2, expect: int | None = None) -> np.ndarray:
    """The primes in [start, limit], limit >= 2, in bounded segments above
    the root, into one array trimmed in place, sized by ``_pi_upper`` or
    by their number ``expect`` (PrecisionError if the sieve finds another).

    The base primes, 2..13 and any others up to the root, come from this
    function at the root; below 14^2 they are the literal 2..13.  Flags
    stand for odd numbers only: slot i of a segment from odd lo is lo + 2i.
    Every segment lies above the wheel primes and starts from the wheel
    pattern; only base primes above 13 strike it, every p slots from their
    first odd multiple >= max(p^2, lo).  Base primes below ``start``, or
    above a small limit, are dropped.
    """
    root = max(math.isqrt(limit), _WHEEL_PRIMES[-1])  # base primes <= root
    if root > _WHEEL_PRIMES[-1]:
        base = _segmented_primes(root)
    else:
        base = np.array((2, *_WHEEL_PRIMES), dtype=np.int64)
    kept = base[base >= start]
    primes = np.empty(max(_pi_upper(limit) if expect is None else expect, kept.size),
                      dtype=np.int64)
    primes[: kept.size] = kept
    count = kept.size
    base_list = base[len(_WHEEL_PRIMES) + 1 :].tolist()  # the primes above 13
    lo = max(root + 1, start) | 1
    seg = np.empty(min(_SEGMENT_SIZE, max(limit + 1 - lo, 0)) // 2 + 1, dtype=bool)
    while lo <= limit:
        hi = min(lo + _SEGMENT_SIZE, limit + 1)
        flags = seg[: (hi - lo + 1) // 2]
        # whole periods of the wheel pattern, then the start of one
        period = _WHEEL[lo // 2 % _WHEEL_PERIOD :][:_WHEEL_PERIOD]
        q, r = divmod(flags.size, _WHEEL_PERIOD)
        flags[: q * _WHEEL_PERIOD].reshape(q, _WHEEL_PERIOD)[:] = period
        flags[q * _WHEEL_PERIOD :] = period[:r]
        for p in base_list:
            if p * p >= hi:
                break
            first = max(p * p, ((lo + p - 1) // p | 1) * p)  # an odd multiple
            flags[(first - lo) >> 1 :: p] = False
        found = np.flatnonzero(flags)
        if count + found.size > primes.size:
            raise PrecisionError(f"more than {primes.size} primes up to {limit}")
        out = primes[count : count + found.size]
        np.multiply(found, 2, out=out)
        out += lo
        count += found.size
        lo = hi
        del found  # before the next segment's primes exist
    count = int(np.searchsorted(primes[:count], limit, "right"))
    if expect is not None and count != expect:
        raise PrecisionError(f"the sieve finds {count} primes in [{start}, {limit}], not {expect}")
    primes.resize(count, refcheck=False)
    return primes


_LUCY_CELLS = 1 << 22  # entries of a Lucy pass's (tops x sqrt y) arrays: 32 MiB each


def prime_pi_points(tops) -> tuple:
    """Exact pi at the union of the quotient sets {floor(y/k)} of the
    ``tops`` y >= 1, as int64 (points ascending from 0, pis), by one pass
    of Lucy's recursion (the simple form of Lagarias, Miller and Odlyzko,
    Math. Comp. 44, 1985): O(y^(3/4)) work over a (tops x m) array and one
    small array of v = 0..m that every top shares, m = isqrt(max tops).

    S(v) starts as v - 1.  Each prime p <= m sets S(v) -= S(v // p) -
    S(p - 1) at every point v >= p^2, S(p - 1) = pi(p - 1) its index; then
    S = pi.  For v = y // k, v // p = y // (kp) is column kp of its row
    when kp <= m, else in the small array.  A round reads old values
    (numpy gathers first), as the classic descending loop does; S is
    monotone, so the difference is >= 0 at v >= p^2 and <= 0 below, where
    clamping it at 0 spares a mask per top.  ResourceError, before anything
    is allocated, when the arrays would pass ``_LUCY_CELLS`` entries.
    """
    tops = sorted({int(y) for y in tops}, reverse=True)
    m = math.isqrt(tops[0])
    if len(tops) * m > _LUCY_CELLS:
        raise ResourceError(f"{len(tops)} Lucy tops to {tops[0]} need over {_LUCY_CELLS} cells")
    q = np.array(tops, dtype=np.int64)[:, None] // np.arange(1, m + 1)  # floor(y/k)
    big = q - 1
    small = np.maximum(np.arange(-1, m), 0)  # S(v) at v = 0..m
    for i, p in enumerate(_segmented_primes(m).tolist() if m > 1 else ()):
        hi = min(m, tops[0] // (p * p))  # columns with a point >= p^2
        kp = min(hi, m // p)  # columns k with kp <= m
        d = np.empty((len(tops), hi), dtype=np.int64)
        d[:, :kp] = big[:, p - 1 : p * kp : p]
        d[:, kp:] = small[q[:, kp:hi] // p]
        d -= i
        np.maximum(d, 0, out=d)
        big[:, :hi] -= d
        if p * p <= m:
            small[p * p :] -= small[np.arange(p * p, m + 1) // p] - i
    points, first = np.unique(np.concatenate((np.arange(m + 1), q.ravel())), return_index=True)
    return points, np.concatenate((small, big.ravel()))[first]


def _is_prime_u64(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# the logarithmic integral


def _li_terms(x_max: float) -> int:
    """Terms of the li series for points up to ``x_max``, past which more
    terms move no bit; ``_li`` takes it at X0 and at each octave's top."""
    return max(80, int(5.2 * float(np.log(x_max))) + 20)


def _li_series(xs: np.ndarray, n_terms, ys: np.ndarray | None = None):
    """li over an array of x > 1 by the exponential-integral series at
    y = log x, summed to ``n_terms`` terms (see ``_li_terms``): one count,
    or a column of ascending counts for the rows of a 2-D ``xs``.  Returns
    (values, half_widths).  ``ys``, when given, must be ``np.log(xs)``.

    The half-width combines the truncation remainder (next term times a
    geometric factor) with per-term rounding, scaled by the terms'
    absolute sum; seeding that sum with |gamma| + |log y| bounds it by the
    triangle inequality for every x > 1.  It also carries the rounding of
    y itself, ULP y (``core``'s model), through dli/dy = x/y.

    Each x sees the same operations in the same order, so its value
    depends on it and its term count alone: an x listed twice gets the
    same bits twice, and a row stops at its own count while longer rows
    run on.  Only ``_li`` and ``_li_octaves`` call it.
    """
    ys = np.log(xs) if ys is None else ys
    n = np.asarray(n_terms)
    acc = np.log(ys)
    mag = np.abs(acc) + abs(EULER_GAMMA)
    acc += EULER_GAMMA
    t = np.ones_like(ys)
    buf = np.empty_like(ys)
    for k in range(1, int(n.max()) + 1):
        r = int(np.searchsorted(n.ravel(), k))  # the rows still summing
        np.divide(ys[r:], k, out=buf[r:])
        t[r:] *= buf[r:]
        np.divide(t[r:], k, out=buf[r:])
        acc[r:] += buf[r:]
        mag[r:] += buf[r:]
    nxt = t * ys / (n + 1) / (n + 1)
    trunc = nxt / (1.0 - ys / (n + 2))
    # xs: y = log x is rounded by up to ULP y, times dli/dy = x/y
    with np.errstate(over="ignore"):
        half = trunc + ULP * ((ys + 2.0) * mag + xs) + 1e-300
    top = np.isinf(half)  # the sum passes the float range near x = 9e307
    if top.any():
        half[top] = (trunc[top] + ULP * (ys[top] + 2.0) * mag[top]
                     + ULP * xs[top] + 1e-300)
    return acc, half


_LI_X0 = 2.0 ** 16  # li is the series below it and anchored at and above it
_LI_DEGREE = 8
_LI_CELL = 0.011  # |u| <= 2^(1/64) - 1 = 0.01089, plus the rounding of j and a
_LOG2 = math.log(2.0)
# the constants of the anchor half-width (see ``_li``), with 1% to spare
# for the rounding of the half-width itself
_LI_K0 = U * (1.0 + _LI_CELL) + _LI_CELL / (1.0 - 2.0 * _LI_CELL) * (
    1.01 * (2.0 * _LI_CELL) ** 9 + 20.1 * U)
_LI_K1 = 1.01 * ULP * _LI_CELL
_LI_K2 = 1.01 * _LI_CELL / (1.0 - 2.0 * _LI_CELL)


_LI_OCTAVES = {}  # octave -> its anchor table, made by ``_li_octaves``


def _li_octaves(octaves) -> list:
    """The tables of the ascending ``octaves``: the anchors a = 2^(j/64), j =
    64 octave + 0..63, as the rows a, li(a), a c_0, ..., a c_8 and the
    half-width of every x that a serves (see ``_li``).  The missing ones are
    made in one pass, li(a) to the term count of each octave's top anchor."""
    missing = [k for k in octaves if k not in _LI_OCTAVES]
    if missing:
        a = np.exp2((64 * np.array(missing)[:, None] + np.arange(64)) / 64.0)
        L = np.log(a)
        li_a, half_a = _li_series(a, np.array([[_li_terms(row[-1])] for row in a]), L)
        g = [1.0 / L]  # 1/(L + log1p s) = sum g_k s^k, log1p s = sum (-1)^(m+1) s^m/m
        for k in range(1, _LI_DEGREE + 1):
            s = g[k - 1].copy()
            for m in range(2, k + 1):
                s += (-1) ** (m + 1) / m * g[k - m]
            g.append(-s / L)
        w = a / (L - _LOG2)
        half = half_a + w * (_LI_K0 + _LI_K1 * L / (L - _LOG2)) + U * (li_a + w * _LI_K2)
        rows = np.stack([a, li_a, *(a * (g_k / (k + 1)) for k, g_k in enumerate(g)), half], axis=1)
        for k, table in zip(missing, rows):
            table.flags.writeable = False
            _LI_OCTAVES[k] = table
    return [_LI_OCTAVES[k] for k in octaves]


def _li(xs: np.ndarray, ys: np.ndarray | None = None):
    """li over an array of x > 1, ``ys`` = ``np.log(xs)`` if given:
    (values, half_widths).  Every li margin and ``log_integral`` read it.

    Below X0 = 2^16 it is ``_li_series`` to 80 terms, ``_li_terms(X0)``.
    From X0 up, x takes the anchor a = 2^(j/64), j = floor(64 y/log 2), and

        li(x) = li(a) + a * integral_0^u ds/(L + log1p s),  L = log a,

    with u = x/a - 1.  The integrand g(s) = 1/(L + log1p s) = sum g_k s^k
    has g_0 = 1/L and g_k = -(sum_{m=1..k} (-1)^(m+1) g_{k-m}/m)/L, so
    li(x) = li(a) + sum_{k<=8} a c_k u^(k+1) with c_k = g_k/(k+1).  li(a),
    from the series, and the a c_k are made once per octave of anchors
    (``_li_octaves``); each x then costs one Horner pass over its
    anchor's gathered coefficients.  The term counts and the anchor grid
    are fixed, so an x's value and half-width depend on x alone, and no
    chunking moves a bit.

    The half-width is one number per anchor, the sum of these bounds,
    with eps = U (``core``), T = 0.011 >= |u| and W = a/(L - log 2):

    1. the anchor's series half-width;
    2. the rounding of u.  fl(x/a) lies in [1/2, 2], so fl(x/a) - 1 is
       exact (Sterbenz) and |du| <= eps (1 + T).  On |s| <= T,
       |g| <= 1/(L - log 2), so this moves li by at most W eps (1 + T);
    3. the rounding of L = log a, |dL| <= ULP L as in the series,
       which moves the integral by at most a T |dL|/(L - log 2)^2;
    4. the coefficients.  On |s| <= 1/2, |log1p s| <= log 2, so
       |g| <= 1/(L - log 2) and, by Cauchy's estimate, |g_k| <= B_k =
       2^k/(L - log 2).  By induction on the recurrence (with L >= 11),
       the float g_k lie within (k + 1) eps B_k, so the stored a c_k lie
       within 3.02 eps a B_k; over the powers of u that is at most
       3.02 eps W T/(1 - 2T);
    5. Horner: 8 multiply-adds and the product with u, within
       gamma_17 <= 17.01 eps of sum |a c_k| |u|^(k+1) <= W T/(1 - 2T);
    6. the truncation: the terms past degree 8 sum to at most
       W T (2T)^9/(1 - 2T), by the same Cauchy bound;
    7. the final addition, eps |value| with |value| <= li(a) + W T/(1 - 2T).

    Parts 2-7 add at most 5% to the anchor's half-width.  j is computed
    from y, so it can land one cell off where 64 y/log 2 rounds across an
    integer; u is then just below 0 or just above 2^(1/64) - 1, still
    within T.  j stops at 65535, since 2^(65536/64) overflows.
    """
    ys = np.log(xs) if ys is None else ys
    small = xs < _LI_X0
    if small.all():
        return _li_series(xs, _li_terms(_LI_X0), ys)
    if small.any():
        value, half = np.empty_like(xs), np.empty_like(xs)
        for part in (small, ~small):
            value[part], half[part] = _li(xs[part], ys[part])
        return value, half
    u = np.multiply(ys, 64.0 / _LOG2)
    np.floor(u, out=u)
    np.minimum(u, 65535.0, out=u)
    j = u.astype(np.intp)
    # the table holds the octaves present, in order; cell indexes it
    octave = j >> 6
    first = int(octave.min())
    octave -= first
    seen = np.zeros(int(octave.max()) + 1, dtype=np.intp)
    seen[octave] = 1
    table = np.concatenate(_li_octaves((first + np.flatnonzero(seen)).tolist()), axis=1)
    np.cumsum(seen, out=seen)
    cell = np.take(seen, octave, mode="clip")
    cell -= 1
    cell <<= 6
    j &= 63
    cell |= j

    def gather(row, out=None):
        return np.take(table[row], cell, out=out, mode="clip")

    np.divide(xs, gather(0, u), out=u)
    u -= 1.0
    value = gather(_LI_DEGREE + 2)
    tmp = np.empty_like(value)
    for row in range(_LI_DEGREE + 1, 1, -1):
        value *= u
        value += gather(row, tmp)
    value *= u
    value += gather(1, tmp)
    return value, gather(_LI_DEGREE + 3)


def _graded_simpson(f, a: float, b: float, tol: float):
    """Adaptive Simpson over geometrically doubling panels from a to b.

    Splitting [a, b] at a, 2a, 4a, ... keeps each panel a bounded
    multiple of its distance from zero, so integrands with a pole at the
    origin stay tame on every panel even when a is tiny.
    """
    cuts = [a]
    v = a
    while 2.0 * v < b:
        v *= 2.0
        cuts.append(v)
    cuts.append(b)
    per = tol / len(cuts)
    vals = []
    err = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        val, e = adaptive_simpson(f, lo, hi, per)
        vals.append(val)
        err += e
    return math.fsum(vals), err


def _li_quad(x: float, tol: float):
    """li(x) as a principal-value integral, by adaptive quadrature.

    The singularity at t = 1 is removed by folding [1-u, 1+u] onto
    [0, u], where the symmetrized integrand 1/log(1+s) + 1/log(1-s) is
    smooth with limit 1 at s = 0.  The head piece over (0, 1-u] becomes
    the exponential integral of exp(-v)/v under t = exp(-v); the tail
    piece over [1+u, x] becomes exp(v)/v under t = exp(v).  Both
    substitutions move the awkward behavior to a simple 1/v factor
    bounded away from its pole.  The tail's mass lies near v = L = log x,
    so its panels double down from L: exp(L - w)/(L - w) over w = L - v.
    """

    def fold(s):
        if s == 0.0:
            return 1.0
        return 1.0 / math.log1p(s) + 1.0 / math.log1p(-s)

    def head(v):
        return math.exp(-v) / v

    def tail(w):
        return math.exp(L - w) / (L - w)

    u = min(0.5, (x - 1.0) / 2.0)
    v0 = -math.log1p(-u)
    v_top = v0 + 40.0
    v1, e1 = _graded_simpson(head, v0, v_top, tol / 3.0)
    e1 += math.exp(-v_top) / v_top
    v2, e2 = adaptive_simpson(fold, 0.0, u, tol / 3.0)
    L = math.log(x)
    w_top = L - math.log1p(u)
    w1 = min(1.0, w_top)
    v3, e3 = adaptive_simpson(tail, 0.0, w1, tol / 6.0)
    v4, e4 = _graded_simpson(tail, w1, w_top, tol / 6.0)
    return -v1 + v2 + v3 + v4, e1 + e2 + e3 + e4


def log_integral(x: float) -> Enclosure:
    """Enclosure of li(x) = PV integral of 1/log t from 0 to x.

    The enclosure is ``_li``'s, the sweeps' li, with its rigorous
    half-width; an independent adaptive quadrature of the principal-value
    integral must agree within the combined widths, otherwise a
    PrecisionError is raised.  Both edges are rounded outward.
    """
    if not 1.0 < x < math.inf:
        raise DomainError(f"log_integral needs finite x > 1, got {x}")
    (value,), (half,) = _li(np.array([x]))
    scale = max(1.0, abs(value))
    qtol = max(1e-13, 1e-12 * scale)
    qv, qe = _li_quad(x, qtol)
    if abs(qv - value) > half + qe + 1e-11 * scale:
        raise PrecisionError(
            f"log_integral methods disagree at x={x}: series {value}, quadrature {qv}"
        )
    return Enclosure(outward(value - half, -math.inf), outward(value + half, math.inf))


# ---------------------------------------------------------------------------
# prime sums


def _require_table(table: PrimeTable | None, x: float, what: str) -> PrimeTable:
    if table is None:
        raise PreconditionError(f"{what} needs a prime table")
    # the table holds every prime <= x exactly when floor(x) <= limit
    if x >= table.limit + 1:
        raise PreconditionError(
            f"{what} needs table.limit >= floor({x}), got {table.limit}"
        )
    return table


# every finite double is a whole multiple of 2**-1074, the least subnormal
RECIP_DENOM = 1 << 1074
_ROW = 1 << 9  # each term is below 2**54 in size, so a row of 2**9 sums below 2**63


def recip_numerator(m: np.ndarray, c: np.ndarray | None = None) -> int:
    """sum(c[i] * fl(1 / m[i])) * RECIP_DENOM exactly, as a Python int,
    for ascending integers 1 <= m[i] < 2**53 and integers |c[i]| <= 2
    (every c[i] = 1 when c is None).

    fl(1/m) is its 53-bit mantissa, implicit bit included, times
    2**(e - 1075), e its biased exponent field, both read from its bits;
    every fl(1/m) with m in (2**(k-1), 2**k] has the same e >= 1, so each
    binade of m has one shift, e - 1 >= 0.  A binade's terms are summed in
    int64 rows of at most _ROW, and the row sums are shifted and added as
    Python ints.  numerator / RECIP_DENOM, a correctly rounded int
    division, is then the value math.fsum gives.
    """
    if not m.size:
        return 0
    bits = np.divide(1.0, m).view(np.int64)
    starts = np.searchsorted(m, 1 << np.arange(int(m[-1]).bit_length()), side="right")
    edges = sorted({0, m.size, *starts.tolist()})
    shifts = ((bits[edges[:-1]] >> 52) - 1).tolist()
    bits &= (1 << 52) - 1
    bits |= 1 << 52
    if c is not None:
        bits *= c
    total = 0
    for a, b, shift in zip(edges, edges[1:], shifts):
        total += sum(np.add.reduceat(bits[a:b], np.arange(0, b - a, _ROW)).tolist()) << shift
    return total


def mertens_sum(x: float, table: PrimeTable) -> float:
    """Sum of 1/p over primes p <= x, correctly rounded: an exact sum over RECIP_DENOM."""
    if not x >= 2:  # NaN fails too
        raise DomainError(f"mertens_sum needs x >= 2, got {x}")
    _require_table(table, x, "mertens_sum")
    return recip_numerator(table.primes[: table.prime_pi(x)]) / RECIP_DENOM


def nu2(table: PrimeTable) -> Enclosure:
    """Enclosure of sum_{k>=2} P(k)/k, P the prime zeta function, which
    must bracket gamma - M.  Summed over k first it is sum_p g(1/p) with
    g(r) = -log(1 - r) - r: one pass over the primes p <= N = table.limit.

    Tail: f(t) = g(1/t) decreases to 0 and -f'(t) = 1/(t^2 (t - 1)), so
    by parts sum_{p>N} f(p) <= int_N^inf pi(t) (-f'(t)) dt, which
    pi(t) < 1.25506 t / log t (Rosser and Schoenfeld, Illinois J. Math. 6,
    1962) bounds by 1.25506 log(N/(N-1)) / log N, 9.1e-8 at N = 1e6.

    Rounding, u = U (``core``): r = fl(1/p) moves g by g'(r) u r <= 2u r^2
    <= u r (g'(r) = r/(1 - r)); log1p is allowed 4u L <= 5.6u r, twice its
    1 ulp; and r - L is exact by Sterbenz, r <= L <= 2r.  So each of the n
    terms is within 7u r of g(1/p), any summation order adds gamma_{n-1}
    sum|t|, the exact sums of r and t being at most their computed sums
    over 1 - gamma.  The tail gets 1 + 16u, and both edges round outward.
    """
    if table.limit < 10 ** 6:
        raise PreconditionError(f"nu2 needs table.limit >= 1e6, got {table.limit}")
    r = 1.0 / table.primes
    neg_terms = np.log1p(np.negative(r))
    neg_terms += r  # -g(r), exactly
    partial, r_sum = -float(np.sum(neg_terms)), float(np.sum(r))
    gamma = gamma_n(len(table) - 1)
    pad = (7.0 * U * r_sum + gamma * partial) / (1.0 - gamma)
    big_n = float(table.limit)
    tail = 1.25506 * -math.log1p(-1.0 / big_n) / math.log(big_n) * (1.0 + 16.0 * U)
    return Enclosure(outward(partial - pad, -math.inf), outward(partial + pad + tail, math.inf))


def tail_power_sum_bound(alpha):
    """The chain bound (1 + alpha) * 1.2551 / e for the prime tail sum
    over p > exp(1/alpha) of p**-(1+alpha), valid for 0 < alpha <= 1;
    elementwise on an array of alphas."""
    if not (0.0 < np.min(alpha) and np.max(alpha) <= 1.0):
        raise DomainError(f"tail_power_sum_bound needs 0 < alpha <= 1, got {alpha}")
    return (1.0 + alpha) * 1.2551 / math.e


# ---------------------------------------------------------------------------
# the inequality registry and sweep engine


_GAP_NOTE = (
    "critical points: pi(x) and the prime sums are constant on the open gap "
    "between consecutive primes while the smooth side is monotone there, so "
    "margin extrema land on the inclusive state at x_lo, both one-sided "
    "limits at each prime in (x_lo, x_hi], and x_hi; the left limit at x_lo "
    "itself lies outside the closed range and is excluded"
)


@dataclass(frozen=True)
class States:
    """A family of evaluation states.

    ``build(x_lo, x_hi, table, extra, prefix)`` yields (xs, state) chunks:
    the x of each evaluation and what the margin function reads there, one
    ``core.sweep`` chunk at a time.  Step states read a prime table, list
    the extra points last and carry the gap note into every report; their
    state is pi, or with a ``prefix`` (table -> the prefix-sum array build
    gets) the prime sum at pi, of shape (2, n) over the n primes of a chunk
    and one per x elsewhere.  Grid states carry the grid index j, or None
    for the endpoints off the grid; no grid check has extra points.
    """

    build: Callable
    needs_table: bool = False
    note: str | None = None
    prefix: Callable | None = None


def _prime_runs(primes, i0: int, prefix=None):
    """Sweep chunks of the step states at ``primes``, the (i0 + 1)th prime
    on: one x per prime, pis of shape (2, n), the left limit i and pi(p) =
    i + 1, or ``prefix`` at them: one view of n + 1 values, no copy."""
    for a, b in spans(i0, i0 + primes.size, width=2):
        run = np.arange(a, b + 1) if prefix is None else prefix[a : b + 1]
        yield primes[a - i0 : b - i0].astype(np.float64), np.lib.stride_tricks.as_strided(
            run, (2, b - a), run.strides * 2, writeable=False)


def _step_states(x_lo: float, x_hi: float, table: PrimeTable, extra, prefix=None):
    """Evaluation states for step-function sweeps, as (xs, state) chunks:
    x_lo first, then the primes p in (x_lo, x_hi] (``_prime_runs``), and
    x_hi and each extra x last, each with its inclusive state alone."""
    at = (lambda i: i) if prefix is None else prefix.__getitem__
    i_lo, i_hi = table.prime_pi(x_lo), table.prime_pi(x_hi)
    yield np.array([x_lo], dtype=float), at(np.array([i_lo]))
    yield from _prime_runs(table.primes[i_lo:i_hi], i_lo, prefix)
    ends = [x_hi, *extra]
    yield np.array(ends, dtype=float), at(np.array([table.prime_pi(x) for x in ends]))


PI_STATES = States(_step_states, True, _GAP_NOTE)
RECIP_SUMS = States(_step_states, True, _GAP_NOTE, lambda t: t.recip_prefix())
LOG2_SUMS = States(_step_states, True, _GAP_NOTE, lambda t: t.log2_prefix())
GEOMETRIC_GRID = States(lambda x_lo, x_hi, *_: geometric_grid(x_lo, x_hi))
ALPHA_GRID = States(lambda x_lo, x_hi, *_: anchored_grid(x_lo, x_hi, 2.0 ** -10))


@dataclass(frozen=True)
class CheckDef:
    """One registered inequality.

    ``valid(x_lo, x_hi)`` tells whether a range lies in the stated
    validity.  ``margins(xs, state)`` returns (margins, scales) over the
    states the check sweeps.  ``stationary`` lists extra x where the
    smooth side is stationary; those inside (x_lo, x_hi] are evaluated
    too.  ``crossover`` marks a grid check whose margin is bisected for
    its sign change when the sweep goes from negative to positive.
    ``floor``, if any, is its run floor (``_run_floors``); with ``ratio``
    too it is ``bracketed`` (``_bracket_sweep``) and reads no prime table.
    """

    check_id: str
    validity: str  # human-readable validity range for error messages
    valid: Callable
    states: States
    margins: Callable
    note: str | None = None
    stationary: tuple = ()
    crossover: bool = False
    floor: Callable | None = None
    ratio: Callable | None = None

    @property
    def bracketed(self) -> bool:
        return self.floor is not None and self.ratio is not None

    def check_range(self, x_lo: float, x_hi: float) -> None:
        """Raise UsageError for an empty range or a non-finite bound, and
        PreconditionError when the range leaves the stated validity (the
        message names the valid range)."""
        if not (x_lo <= x_hi):
            raise UsageError(f"empty range [{x_lo}, {x_hi}]")
        if not (math.isfinite(x_lo) and math.isfinite(x_hi)):
            raise UsageError(f"range [{x_lo}, {x_hi}] must be finite")
        if not self.valid(x_lo, x_hi):
            raise PreconditionError(
                f"check {self.check_id!r} is valid for {self.validity}; "
                f"requested range [{x_lo}, {x_hi}] lies outside it"
            )


def _compare(rhs, lhs=None, upper=True):
    """Margins of lhs <= rhs (``upper``) or lhs >= rhs, scaled by rhs.

    Both sides are functions of (xs, log xs, state); lhs defaults to the
    state itself, pi(x) or a prime sum.
    """

    def margins(xs, state):
        u = np.log(xs)
        left = state if lhs is None else lhs(xs, u, state)
        right = rhs(xs, u, state)
        return (right - left if upper else left - right), right

    return margins


def _mertens_bracket(xs, sums):
    """Margins of loglog x + LO <= S <= loglog x + HI: at each state the
    worse side, the lower on a tie, scaled by its bound; loglog x once."""
    L = np.log(np.log(xs))
    lo, hi = L + MERTENS_BRACKET_LO, np.add(L, MERTENS_BRACKET_HI, out=L)
    m1, m2 = sums - lo, hi - sums
    take_first = m1 <= m2
    return np.where(take_first, m1, m2), np.where(take_first, lo, hi)


def _rs(c):
    """The bound x/log x (1 + c/(2 log x))."""
    return lambda xs, u, *_: xs / u * (1.0 + c / (2.0 * u))


_LI2, _LI2_HALF = _li(np.array([2.0]))


def _li_dev(xs, u, pis):
    """|li(x) - pi(x)| plus the li error."""
    li, li_err = _li(xs, u)
    return np.abs(li - pis) + li_err


def _mertens_dev(xs, u, sums):
    """|S(x) - loglog x - M|."""
    return np.abs(sums - np.log(u) - MERTENS_M)


_FLOOR_RUN, _FLOOR_EPS = 1 << 9, 1e-12  # primes per run of a chunk floor; the floors' pad


def _li_sides(ends, ys):
    """li -+ half-width at ``ends``, and twice the largest over their octaves."""
    li, half = _li(ends, ys)
    # ``_li``'s octaves, monotone in x, at the first and last end
    j = np.floor(ys[[0, -1]] * (64.0 / _LOG2)).astype(int) >> 6
    h = max(table[-1].max() for table in _li_octaves(range(j[0], j[1] + 1)))
    return li - half, li + half, 2.0 * h


def _loglog_sides(ends, ys):
    side = np.log(ys) + MERTENS_M
    return side, side, 0.0


def _run_floors(rhs, sides, starts, stops, s_lo, s_hi):
    """Floors of the margins R - (|F - state| + w), R = rhs monotone and F
    within w of an increasing function, on ascending runs of step states:
    run i has its x in [a, b] = [starts[i], stops[i]] and its states in
    [S_lo, S_hi] = [s_lo[i], s_hi[i]].  Returns (floors, tops): each run's
    margins are at least its floor and its |R| at most its top.

    ``sides(ends, log ends)`` gives lo, hi, pad with F - w >= lo(a) - pad
    and F + w <= hi(b) + pad on [a, b]; so the margins there are at least
    min(R(a), R(b))(1 - eps) - (max(hi(b) - S_lo, S_hi - lo(a), 0)
    + pad)(1 + eps) - eps.  li and the pi-li R increase for x >= e^2
    (pi-li-3: d log R/d log x = 1 - 1/(2 sqrt(6.455 log x)) > 0), loglog x
    for x > 1.  eps = 1e-12 covers ten roundings a side: relative ones on
    R and the deviation, and ones within 2^-53 * 4 on loglog x + M and S
    (< 4 below 2^53) or 2^-52 b/9 < eps R(a) on li -+ (li < x/9 and
    R > 1e-3 x on [X0, 2^53], where the pi-li runs lie, and b <= 1.5 a).

    The runs are a chunk's runs of ``_FLOOR_RUN`` primes (``_chunk_floor``)
    or the brackets between exact pi points (``_bracket_sweep``), whose
    primes p in (a, b] have the states pi(p) - 1 >= pi(a) and pi(p) <= pi(b).
    """
    ends = np.concatenate((starts, stops), dtype=np.float64)
    ys = np.log(ends)
    lo, hi, pad = sides(ends, ys)
    m = starts.size
    dev = np.maximum(np.maximum(hi[m:] - s_lo, s_hi - lo[:m]), 0.0)
    r = np.broadcast_to(rhs(ends, ys), ends.shape)
    floors = (np.minimum(r[:m], r[m:]) * (1.0 - _FLOOR_EPS) - (dev + pad) * (1.0 + _FLOOR_EPS)
              - _FLOOR_EPS)
    return floors, np.maximum(r[:m], r[m:]) * (1.0 + _FLOOR_EPS) + _FLOOR_EPS


def _chunk_floor(floor):
    """A run floor as a ``core.sweep`` floor: the least floor and largest top
    of a chunk's runs of ``_FLOOR_RUN`` primes; None for end chunks."""

    def chunk(xs, state):
        if state.ndim == 1:
            return None
        first = np.arange(0, xs.size, _FLOOR_RUN)
        floors, tops = floor(xs[first], xs[np.minimum(first + _FLOOR_RUN, xs.size) - 1],
                             np.minimum.reduceat(state.min(axis=0), first),
                             np.maximum.reduceat(state.max(axis=0), first))
        return float(floors.min()), float(tops.max())

    return chunk


def _floored(check_id, validity, valid, states, rhs, lhs, sides, **kw):
    """The check lhs <= rhs, with the run floor of its sides."""
    return CheckDef(check_id, validity, valid, states, _compare(rhs, lhs),
                    floor=lambda *runs: _run_floors(rhs, sides, *runs), **kw)


REGISTRY = {
    c.check_id: c
    for c in [
        CheckDef("pnt-lower", "x >= 59", lambda a, b: a >= 59.0, PI_STATES,
                 _compare(_rs(1.0), upper=False)),
        CheckDef("pnt-upper", "x >= 59", lambda a, b: a >= 59.0, PI_STATES,
                 _compare(_rs(3.0))),
        CheckDef(
            "li-lower", "x >= 2", lambda a, b: a >= 2.0, GEOMETRIC_GRID,
            _compare(_rs(2.0), lambda xs, u, _: np.subtract(*_li(xs, u)), upper=False),
            note="margin derivative is 2/log^3 x > 0, so the margin increases in x "
                 "and the worst point is the left endpoint",
            crossover=True,
        ),
        CheckDef(
            "li-upper", "x >= 1865", lambda a, b: a >= 1865.0, GEOMETRIC_GRID,
            # li(x) - li(2) <= rhs as li(x) <= rhs + li(2), li at its upper edges
            _compare(lambda xs, u, _: _rs(3.0)(xs, u) + _LI2,
                     lambda xs, u, _: np.add(*_li(xs, u)) + _LI2_HALF),
            note="margin derivative is (log x - 6)/(2 log^3 x) > 0 for x > e^6, so "
                 "on the validity range the worst point is the left endpoint",
        ),
        _floored(
            "pi-li-1", "x >= 2", lambda a, b: a >= 2.0, PI_STATES,
            lambda xs, u, *_: 0.4897 * xs / u, _li_dev, _li_sides, ratio=lambda x: 1.4,
            note="on gaps RHS' - li' = -(0.5103 log x + 0.4897)/log^2 x < 0, so the "
                 "margin is monotone on each sign branch of li - pi and minima land "
                 "on gap endpoints",
        ),
        _floored(
            "pi-li-2", "x >= 2", lambda a, b: a >= 2.0, PI_STATES,
            lambda xs, u, *_: 1.3597 * xs / u ** 2, _li_dev, _li_sides,
            ratio=lambda x: 1.0 + 1.0 / math.log(x),
            note="on gaps RHS' - li' = (1.3597(log x - 2) - log^2 x)/log^3 x < 0 "
                 "(negative discriminant), so minima land on gap endpoints",
        ),
        _floored(
            "pi-li-3", "x >= 2", lambda a, b: a >= 2.0, PI_STATES,
            lambda xs, u, *_: 0.1522 * xs * np.exp(-np.sqrt(u / 6.455)), _li_dev,
            _li_sides, ratio=lambda x: 1.4,
            note="0.1522 u exp(-sqrt(u/6.455))(1 - 1/(2 sqrt(6.455 u))) peaks at "
                 "0.5113 < 1 (u = 25.82), so RHS' < li' everywhere and minima land "
                 "on gap endpoints",
        ),
        _floored(
            "mertens-remainder", "x > 1", lambda a, b: a > 1.0, RECIP_SUMS,
            lambda xs, u, *_: 1.0 / u ** 2, _mertens_dev, _loglog_sides,
            note="the upper-branch margin 1/log^2 x + loglog x + M - S has one "
                 "stationary point at x = exp(sqrt 2), evaluated explicitly when "
                 "in range",
            # d/dx [1/log^2 x + loglog x] = 0 at log^2 x = 2
            stationary=(math.exp(math.sqrt(2.0)),),
        ),
        # no floor: its lower margin M - 0.2614 is below a run's spread near 1e7
        CheckDef("mertens-bracket", "x >= 2", lambda a, b: a >= 2.0, RECIP_SUMS,
                 _mertens_bracket),
        _floored("mertens-mprime-coarse", "x >= 2", lambda a, b: a >= 2.0, RECIP_SUMS,
                 lambda *_: MPRIME_COARSE_BOUND, _mertens_dev, _loglog_sides),
        CheckDef("log2p-plain", "1 < x < 355991", lambda a, b: 1.0 < a and b < 355991.0,
                 LOG2_SUMS, _compare(lambda xs, u, *_: u ** 2 / 2.0)),
        CheckDef(
            "tail-power", "0 < alpha <= 1", lambda a, b: 0.0 < a and b <= 1.0,
            ALPHA_GRID,
            _compare(lambda *_: PUBLISHED_V1, lambda a, *_: tail_power_sum_bound(a)),
            note="alpha sweep of the chain bound (1+alpha)*1.2551/e against the "
                 "published 0.9235; grid step 1/1024 plus endpoints",
        ),
    ]
}


def check_def(check_id: str) -> CheckDef:
    """The registry entry of ``check_id``; UsageError names the known ids."""
    if check_id not in REGISTRY:
        raise UsageError(
            f"unknown check id {check_id!r}; known: {', '.join(sorted(REGISTRY))}"
        )
    return REGISTRY[check_id]


def _bracket_sweep(cd: CheckDef, x_lo: float, x_hi: float, eta: float):
    """The sweep summary of a ``bracketed`` check, from exact pi at the
    points of the tops floor(x_hi r^-j), j < log 2/log r, r = ratio(x_hi),
    and floor(x_lo) if x_lo > X0, which lie at most about r apart.  The
    head window, x_lo to the first point >= max(X0, x_lo), is sieved and
    evaluated; one run-floor pass covers the brackets [v_i, v_i+1] of
    points above it, their states in [pi(v_i), pi(v_i+1)].  A run of
    brackets that clears merges as covered, the states a table sweep would
    find passing above the worst point; any other run is sieved as a window
    and evaluated from index pi(v_i).  So every report keeps its bytes.
    """
    r = cd.ratio(x_hi)
    tops = [math.floor(x_hi * r ** -j) for j in range(math.ceil(_LOG2 / math.log(r)))]
    if x_lo > _LI_X0:
        tops.append(math.floor(x_lo))
    points, pis = prime_pi_points(tops)

    def pi(v):  # at a point
        return int(pis[np.searchsorted(points, v)])

    def window(a, b):  # the primes in (a, b], a and b points
        return _segmented_primes(b, a + 1, pi(b) - pi(a))

    at = slice(np.searchsorted(points, max(_LI_X0, x_lo)), np.searchsorted(points, x_hi, "right"))
    v, pv = points[at], pis[at]
    lo = math.floor(x_lo) if x_lo > _LI_X0 else 0
    head = window(lo, int(v[0]) if v.size else math.floor(x_hi))
    i_lo = pi(lo) + int(np.searchsorted(head, math.floor(x_lo), "right"))
    if v.size > 1:  # first, so that li makes every octave in one pass
        floors, caps = cd.floor(v[:-1], v[1:], pv[:-1], pv[1:])
    first = (np.array([x_lo], dtype=float), np.array([i_lo]))
    summary = sweep(itertools.chain([first], _prime_runs(head[i_lo - pi(lo):], i_lo)),
                    cd.margins, eta)
    i = 0
    while i < v.size - 1:
        clear = summary.clears(floors[i:], caps[i:], eta)
        j = i + (int(np.argmax(clear != clear[0])) or clear.size)
        if clear[0]:
            summary = summary.merge(SweepSummary.covered(2 * int(pv[j] - pv[i])))
        elif pv[j] > pv[i]:
            runs = _prime_runs(window(int(v[i]), int(v[j])), int(pv[i]))
            summary = summary.merge(sweep(runs, cd.margins, eta))
        i = j
    end = np.array([x_hi], dtype=float)
    return summary.merge(SweepSummary.of(end, *cd.margins(end, np.array([pi(math.floor(x_hi))])),
                                         eta))


def verify_inequality(
    check_id: str,
    x_lo: float,
    x_hi: float,
    table: PrimeTable | None = None,
    eta: float = DEFAULT_ETA,
) -> VerificationReport:
    """Sweep one registered inequality over [x_lo, x_hi].

    ``core.sweep`` evaluates the margins one chunk of states at a time, as
    the check's ``States`` make them, or covers the chunk by its floor; a
    ``bracketed`` check covers brackets (``_bracket_sweep``).  Every margin
    at an x depends on that x and its state alone, li included, so neither
    the chunking, the brackets nor x_hi moves a bit.

    Raises UsageError for an unknown check id, and whatever
    ``CheckDef.check_range`` raises for the range.
    """
    cd = check_def(check_id)
    cd.check_range(x_lo, x_hi)
    if cd.bracketed:
        summary = _bracket_sweep(cd, x_lo, x_hi, eta)
    else:
        if cd.states.needs_table:
            _require_table(table, x_hi, check_id)
        extra = [x for x in cd.stationary if x_lo < x <= x_hi]
        prefix = None if cd.states.prefix is None else cd.states.prefix(table)
        summary = sweep(cd.states.build(x_lo, x_hi, table, extra, prefix), cd.margins, eta,
                        cd.floor and _chunk_floor(cd.floor))
    notes = [n for n in (cd.states.note, cd.note) if n]
    if cd.crossover:
        (first, last), _ = cd.margins(np.array([x_lo, x_hi], dtype=float), None)
        if first < 0.0 < last:
            a, b = bisect_root(lambda t: cd.margins(np.array([t]), None)[0][0],
                               float(x_lo), float(x_hi), tol=1e-9)
            notes.append(
                f"margin changes sign at x = {0.5 * (a + b):.9f}; the stated "
                f"validity ({cd.validity}) is inconsistent with the computed "
                f"crossover and is reported, not adjusted"
            )
    return summary.report(check_id, x_lo, x_hi, notes)
