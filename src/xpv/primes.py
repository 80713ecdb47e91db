"""Prime generation, prime sums, the logarithmic integral, and the
inequality sweep engine.

The sweep engine is the workhorse: it verifies each registered
prime-counting or prime-sum inequality over a range by evaluating the
margin (RHS - LHS, signed) at every point where the margin can attain an
extremum, and reports the worst margin with a three-way verdict.  It
reduces through ``core.sweep`` one chunk of states at a time, as they are
made, so only the prime table and its prefix sums are O(pi(x)).  A step
sweep puts a prime's two states on a second axis: li runs once per prime.

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

import functools
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
from .core import (DEFAULT_ETA, ULP, Enclosure, U, VerificationReport, adaptive_simpson,
                   anchored_grid, bisect_root, gamma_n, geometric_grid, outward, spans, sweep)
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


def sieve_primes(limit: int, cap: int | None = None) -> PrimeTable:
    """All primes up to ``limit``, at most ``cap``, as a table.  The sieve
    recurses through ``_segmented_primes``, so this runs once per table."""
    limit = int(limit)
    cap = DEFAULT_SIEVE_CAP if cap is None else int(cap)
    if limit < 2:
        raise DomainError(f"sieve limit must be at least 2, got {limit}")
    if limit > cap:
        raise ResourceError(f"sieve limit {limit} exceeds cap {cap}")
    return PrimeTable(limit, _segmented_primes(limit))


def _segmented_primes(limit: int) -> np.ndarray:
    """The primes up to ``limit`` >= 2, in bounded segments above its root,
    into one array sized by ``_pi_upper`` and trimmed in place.

    The base primes, 2..13 and any others up to the root, come from this
    function at the root; below 14^2 they are the literal 2..13.  Flags
    stand for odd numbers only: slot i of a segment from odd lo is lo + 2i.
    Every segment lies above the wheel primes and starts from the wheel
    pattern; only base primes above 13 strike it, every p slots from their
    first odd multiple >= max(p^2, lo).  Base primes above a small limit
    are dropped at the end.
    """
    root = max(math.isqrt(limit), _WHEEL_PRIMES[-1])  # base primes <= root
    if root > _WHEEL_PRIMES[-1]:
        base = _segmented_primes(root)
    else:
        base = np.array((2, *_WHEEL_PRIMES), dtype=np.int64)
    primes = np.empty(_pi_upper(limit), dtype=np.int64)  # >= 7 slots
    primes[: base.size] = base
    count = base.size
    base_list = base[len(_WHEEL_PRIMES) + 1 :].tolist()  # the primes above 13
    lo = (root + 1) | 1
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
            start = max(p * p, ((lo + p - 1) // p | 1) * p)  # an odd multiple
            flags[(start - lo) >> 1 :: p] = False
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
    primes.resize(count, refcheck=False)
    return primes


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


def _li_series(xs: np.ndarray, n_terms: int, ys: np.ndarray | None = None):
    """li over an array of x > 1 by the exponential-integral series at
    y = log x, summed to ``n_terms`` terms (see ``_li_terms``).  Returns
    (values, half_widths).  ``ys``, when given, must be ``np.log(xs)``.

    The half-width combines the truncation remainder (next term times a
    geometric factor) with per-term rounding, scaled by the terms'
    absolute sum; seeding that sum with |gamma| + |log y| bounds it by the
    triangle inequality for every x > 1.  It also carries the rounding of
    y itself, ULP y (``core``'s model), through dli/dy = x/y.

    Each x sees the same operations in the same order, so its value
    depends on it and ``n_terms`` alone: an x listed twice gets the same
    bits twice.  Only ``_li`` and ``_li_octave`` call it.
    """
    ys = np.log(xs) if ys is None else ys
    acc = np.log(ys)
    mag = np.abs(acc) + abs(EULER_GAMMA)
    acc += EULER_GAMMA
    t = np.ones_like(ys)
    buf = np.empty_like(ys)
    for k in range(1, n_terms + 1):
        np.divide(ys, k, out=buf)
        t *= buf
        np.divide(t, k, out=buf)
        acc += buf
        mag += buf
    nxt = t * ys / (n_terms + 1) / (n_terms + 1)
    trunc = nxt / (1.0 - ys / (n_terms + 2))
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


@functools.lru_cache(maxsize=256)
def _li_octave(octave: int) -> np.ndarray:
    """The anchors a = 2^(j/64) of one octave, j = 64 octave + 0..63, as
    the rows a, li(a), a c_0, ..., a c_8 and the half-width of every x
    that a serves (see ``_li``).  Made once per octave, li(a) summed to
    the term count of the octave's largest anchor."""
    a = np.exp2(np.arange(64 * octave, 64 * octave + 64) / 64.0)
    L = np.log(a)
    li_a, half_a = _li_series(a, _li_terms(a[-1]), L)
    g = [1.0 / L]  # 1/(L + log1p s) = sum g_k s^k, log1p s = sum (-1)^(m+1) s^m/m
    for k in range(1, _LI_DEGREE + 1):
        s = g[k - 1].copy()
        for m in range(2, k + 1):
            s += (-1) ** (m + 1) / m * g[k - m]
        g.append(-s / L)
    w = a / (L - _LOG2)
    half = half_a + w * (_LI_K0 + _LI_K1 * L / (L - _LOG2)) + U * (li_a + w * _LI_K2)
    table = np.stack([a, li_a, *(a * (g_k / (k + 1)) for k, g_k in enumerate(g)), half])
    table.flags.writeable = False
    return table


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
    (``_li_octave``); each x then costs one Horner pass over its
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
    table = np.concatenate(
        [_li_octave(first + int(k)) for k in np.flatnonzero(seen)], axis=1)
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


def _step_states(x_lo: float, x_hi: float, table: PrimeTable, extra, prefix=None):
    """Evaluation states for step-function sweeps, as (xs, state) chunks.

    The primes p in (x_lo, x_hi] come in runs of indices i, one x per
    prime, with pis of shape (2, n): row 0 the left limit pi(p) - 1 = i
    and row 1 the inclusive state pi(p) = i + 1, or ``prefix`` at them:
    one view, strides (8, 8), of the n + 1 values at i = a..b, no copy.
    x_lo comes first, and x_hi and each extra x last, each with its
    inclusive state alone.
    """
    at = (lambda i: i) if prefix is None else prefix.__getitem__
    i_lo, i_hi = table.prime_pi(x_lo), table.prime_pi(x_hi)
    yield np.array([x_lo], dtype=float), at(np.array([i_lo]))
    for a, b in spans(i_lo, i_hi, width=2):
        run = np.arange(a, b + 1) if prefix is None else prefix[a : b + 1]
        yield table.primes[a:b].astype(np.float64), np.lib.stride_tricks.as_strided(
            run, (2, b - a), run.strides * 2, writeable=False)
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
    ``floor``, if any, is the check's ``core.sweep`` floor.
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


_FLOOR_RUN, _FLOOR_EPS = 1 << 9, 1e-12  # primes per run of a floor; its pad


def _li_sides(ends, ys):
    """li -+ half-width at ``ends``, and twice the largest over their octaves."""
    li, half = _li(ends, ys)
    # ``_li``'s octaves, monotone in x, at the first and last end
    j = np.floor(ys[[0, -1]] * (64.0 / _LOG2)).astype(int) >> 6
    h = max(_li_octave(k)[-1].max() for k in range(j[0], j[1] + 1))
    return li - half, li + half, 2.0 * h


def _loglog_sides(ends, ys):
    side = np.log(ys) + MERTENS_M
    return side, side, 0.0


def _step_floor(rhs, sides, x0=0.0):
    """The floor of R - (|F - state| + w), R = rhs monotone and F within w
    of an increasing function, on step states from x0 up (None below x0
    and for end chunks).  ``sides(ends, log ends)`` gives lo, hi, pad with
    F - w >= lo(p_s) - pad and F + w <= hi(p_e) + pad on each run of primes
    p_s..p_e, whose states lie in [S_lo, S_hi]; so its margins are at least
    min(R(p_s), R(p_e))(1 - eps) - (max(hi(p_e) - S_lo, S_hi - lo(p_s), 0)
    + pad)(1 + eps) - eps.  li and the pi-li R increase for x >= e^2
    (pi-li-3: d log R/d log x = 1 - 1/(2 sqrt(6.455 log x)) > 0), loglog x
    for x > 1.  eps = 1e-12 covers ten roundings a side: relative ones on
    R and the deviation, and ones within 2^-53 * 4 on loglog x + M and S
    (< 4 below 2^53) or 2^-52 p_s/9 < eps R(p_s) on li -+ (li < x/9 and
    R > 1e-3 x on [X0, 2^53]).
    """

    def floor(xs, state):
        if state.ndim == 1 or xs[0] < x0:
            return None
        first = np.arange(0, xs.size, _FLOOR_RUN)
        ends = xs[np.concatenate((first, np.minimum(first + _FLOOR_RUN, xs.size) - 1))]
        ys = np.log(ends)
        lo, hi, pad = sides(ends, ys)
        m = first.size
        dev = np.maximum(np.maximum(hi[m:] - np.minimum.reduceat(state.min(axis=0), first),
                                    np.maximum.reduceat(state.max(axis=0), first) - lo[:m]), 0.0)
        r = np.broadcast_to(rhs(ends, ys), ends.shape)
        bound = np.minimum(r[:m], r[m:]) * (1.0 - _FLOOR_EPS) - (dev + pad) * (1.0 + _FLOOR_EPS)
        return float(bound.min()) - _FLOOR_EPS, max(r[0], r[-1]) * (1.0 + _FLOOR_EPS) + _FLOOR_EPS

    return floor


def _floored(check_id, validity, valid, states, rhs, lhs, sides, x0=0.0, **kw):
    """The check lhs <= rhs, with the step floor of its sides from x0 up."""
    return CheckDef(check_id, validity, valid, states, _compare(rhs, lhs),
                    floor=_step_floor(rhs, sides, x0), **kw)


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
            lambda xs, u, *_: 0.4897 * xs / u, _li_dev, _li_sides, _LI_X0,
            note="on gaps RHS' - li' = -(0.5103 log x + 0.4897)/log^2 x < 0, so the "
                 "margin is monotone on each sign branch of li - pi and minima land "
                 "on gap endpoints",
        ),
        _floored(
            "pi-li-2", "x >= 2", lambda a, b: a >= 2.0, PI_STATES,
            lambda xs, u, *_: 1.3597 * xs / u ** 2, _li_dev, _li_sides, _LI_X0,
            note="on gaps RHS' - li' = (1.3597(log x - 2) - log^2 x)/log^3 x < 0 "
                 "(negative discriminant), so minima land on gap endpoints",
        ),
        _floored(
            "pi-li-3", "x >= 2", lambda a, b: a >= 2.0, PI_STATES,
            lambda xs, u, *_: 0.1522 * xs * np.exp(-np.sqrt(u / 6.455)), _li_dev,
            _li_sides, _LI_X0,
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


def verify_inequality(
    check_id: str,
    x_lo: float,
    x_hi: float,
    table: PrimeTable | None = None,
    eta: float = DEFAULT_ETA,
) -> VerificationReport:
    """Sweep one registered inequality over [x_lo, x_hi].

    ``core.sweep`` evaluates the margins one chunk of states at a time, as
    the check's ``States`` make them, or covers the chunk by its ``floor``.
    Every margin at an x depends on that x and its state alone, li
    included, so neither the chunking nor x_hi moves a bit.

    Raises UsageError for an unknown check id, and whatever
    ``CheckDef.check_range`` raises for the range.
    """
    cd = check_def(check_id)
    cd.check_range(x_lo, x_hi)
    if cd.states.needs_table:
        _require_table(table, x_hi, check_id)
    extra = [x for x in cd.stationary if x_lo < x <= x_hi]
    prefix = None if cd.states.prefix is None else cd.states.prefix(table)
    summary = sweep(cd.states.build(x_lo, x_hi, table, extra, prefix), cd.margins, eta,
                    cd.floor)
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
