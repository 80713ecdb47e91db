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

A sweep's li (``_li``) is the exponential-integral series below 2^16
and, from 2^16 up, a certified degree-8 expansion about a fixed grid of
anchors 2^(j/64), whose li comes from the same series.  Its half-width
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
from .core import (
    DEFAULT_ETA,
    Enclosure,
    VerificationReport,
    adaptive_simpson,
    anchored_grid,
    bisect_root,
    geometric_grid,
    runs,
    sweep,
)
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


def _sieve_flags(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def _compensated_prefix(terms: np.ndarray) -> np.ndarray:
    """Running sums s of ``terms``, with a leading 0, each plus the running
    sum of the exact TwoSum errors (s[i-1] - (s[i] - b)) + (t[i] - b),
    b = s[i] - s[i-1], as in Sum2 of Ogita, Rump and Oishi (SIAM J. Sci.
    Comput. 26, 2005).  About three arrays of ``terms``' size are live."""
    out = np.empty(terms.size + 1)
    out[0] = 0.0
    prev, cur = out[:-1], out[1:]
    np.cumsum(terms, out=cur)
    b = cur - prev
    err = cur - b
    np.subtract(prev, err, out=err)
    np.subtract(terms, b, out=b)
    err += b
    np.cumsum(err, out=err)
    cur += err
    return out


class PrimeTable:
    """All primes up to ``limit``, immutable once built, plus the prefix
    sums the sweep engine needs (built lazily by ``_compensated_prefix``)."""

    def __init__(self, limit: int, primes: np.ndarray):
        self.limit = int(limit)
        self.primes = primes
        self._recip_prefix = None
        self._log2_prefix = None
        self._float_primes = None

    def __len__(self) -> int:
        return int(self.primes.size)

    def prime_pi(self, x: float) -> int:
        """pi(x) = number of primes <= x, by the integer key floor(x): a
        float key would cast the whole table to float64."""
        if not x < self.limit:  # inf and nan too, as a float search gives
            return len(self)
        return int(np.searchsorted(self.primes, math.floor(max(x, 0)), side="right"))

    def float_primes(self) -> np.ndarray:
        if self._float_primes is None:
            self._float_primes = self.primes.astype(np.float64)
        return self._float_primes

    def recip_prefix(self) -> np.ndarray:
        """R[k] = sum of 1/p over the first k primes, R[0] = 0."""
        if self._recip_prefix is None:
            self._recip_prefix = _compensated_prefix(1.0 / self.float_primes())
        return self._recip_prefix

    def log2_prefix(self) -> np.ndarray:
        """L[k] = sum of log(p)^2/p over the first k primes, L[0] = 0."""
        if self._log2_prefix is None:
            ps = self.float_primes()
            self._log2_prefix = _compensated_prefix(np.log(ps) ** 2 / ps)
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
    """Sieve all primes up to ``limit``, in bounded segments above its root,
    into one array sized by ``_pi_upper`` and trimmed in place.

    Flags stand for odd numbers only: slot i of a segment from odd lo is
    lo + 2i.  The base primes run to at least 13, so every segment lies
    above the wheel primes and starts from the wheel pattern; only base
    primes above 13 strike it, every p slots from their first odd multiple
    >= max(p^2, lo).  Base primes above a small limit are dropped at the end.
    """
    limit = int(limit)
    cap = DEFAULT_SIEVE_CAP if cap is None else int(cap)
    if limit < 2:
        raise DomainError(f"sieve limit must be at least 2, got {limit}")
    if limit > cap:
        raise ResourceError(f"sieve limit {limit} exceeds cap {cap}")
    root = max(math.isqrt(limit), _WHEEL_PRIMES[-1])  # base primes <= root
    base = np.flatnonzero(_sieve_flags(root))
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
    return PrimeTable(limit, primes)


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


def least_prime_3mod4_above(x: float) -> int:
    """Least prime l > x with l congruent to 3 mod 4.

    Also checks (not assumes) the Breusch consequence l <= 2x for x >= 7.
    """
    if x < 1:
        raise DomainError(f"least_prime_3mod4_above needs x >= 1, got {x}")
    if x >= 2 ** 62:
        raise ResourceError("argument exceeds 64-bit primality range")
    n = int(math.floor(x)) + 1
    n += (3 - n) % 4
    while not _is_prime_u64(n):
        n += 4
    if x >= 7 and n > 2 * x:
        raise PrecisionError(f"prime 3 mod 4 after {x} exceeded 2x: {n}")
    return n


# ---------------------------------------------------------------------------
# the logarithmic integral


def _li_terms(x_max: float) -> int:
    """Terms of the li series for points up to ``x_max``; a sweep takes
    it from its largest x, so no value depends on its chunk."""
    return max(80, int(5.2 * float(np.log(x_max))) + 20)


def _li_series(xs: np.ndarray, n_terms: int, ys: np.ndarray | None = None):
    """li over an array of x > 1 by the exponential-integral series at
    y = log x, summed to ``n_terms`` terms (see ``_li_terms``).  Returns
    (values, half_widths).  ``ys``, when given, must be ``np.log(xs)``.

    The half-width combines the truncation remainder (next term times a
    geometric factor) with per-term rounding, scaled by the terms'
    absolute sum; seeding that sum with |gamma| + |log y| bounds it by the
    triangle inequality for every x > 1.  It also carries the rounding of
    y itself through dli/dy = x/y.

    Each x sees the same operations in the same order, so its value
    depends on it alone: an x listed twice gets the same bits twice.
    ``_li`` runs it on the x below 2^16 and on the anchors above, and
    ``log_integral`` on its one x.
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
    # xs: y = log x is rounded by up to 2.3e-16 y, times dli/dy = x/y
    with np.errstate(over="ignore"):
        half = trunc + 2.3e-16 * ((ys + 2.0) * mag + xs) + 1e-300
    top = np.isinf(half)  # the sum passes the float range near x = 9e307
    if top.any():
        half[top] = (trunc[top] + 2.3e-16 * (ys[top] + 2.0) * mag[top]
                     + 2.3e-16 * xs[top] + 1e-300)
    return acc, half


_LI_X0 = 2.0 ** 16  # li is the series below it and anchored at and above it
_LI_DEGREE = 8
_LI_CELL = 0.011  # |u| <= 2^(1/64) - 1 = 0.01089, plus the rounding of j and a
_LOG2 = math.log(2.0)
# the constants of the anchor half-width (see ``_li``), with 1% to spare
# for the rounding of the half-width itself
_LI_EPS = 1.01 * 2.0 ** -53
_LI_K0 = _LI_EPS * (1.0 + _LI_CELL) + _LI_CELL / (1.0 - 2.0 * _LI_CELL) * (
    1.01 * (2.0 * _LI_CELL) ** 9 + 20.1 * _LI_EPS)
_LI_K1 = 1.01 * 2.3e-16 * _LI_CELL
_LI_K2 = 1.01 * _LI_CELL / (1.0 - 2.0 * _LI_CELL)


@functools.lru_cache(maxsize=256)
def _li_octave(octave: int, n_li: int) -> np.ndarray:
    """The anchors a = 2^(j/64) of one octave, j = 64 octave + 0..63, as
    the rows a, li(a), a c_0, ..., a c_8 and the half-width of every x
    that a serves (see ``_li``).  Made once per octave and term count."""
    a = np.exp2(np.arange(64 * octave, 64 * octave + 64) / 64.0)
    L = np.log(a)
    li_a, half_a = _li_series(a, n_li, L)
    g = [1.0 / L]  # 1/(L + log1p s) = sum g_k s^k, log1p s = sum (-1)^(m+1) s^m/m
    for k in range(1, _LI_DEGREE + 1):
        s = g[k - 1].copy()
        for m in range(2, k + 1):
            s += (-1) ** (m + 1) / m * g[k - m]
        g.append(-s / L)
    w = a / (L - _LOG2)
    half = half_a + w * (_LI_K0 + _LI_K1 * L / (L - _LOG2)) + _LI_EPS * (li_a + w * _LI_K2)
    table = np.stack([a, li_a, *(a * (g_k / (k + 1)) for k, g_k in enumerate(g)), half])
    table.flags.writeable = False
    return table


def _li(xs: np.ndarray, ys: np.ndarray, n_li: int):
    """li over an array of x > 1, with ``ys = np.log(xs)``: (values,
    half_widths).  Every li margin reads li through it.

    Below X0 = 2^16 it is ``_li_series``, bit for bit.  At and above X0,
    x takes the anchor a = 2^(j/64), j = floor(64 y/log 2), and

        li(x) = li(a) + a * integral_0^u ds/(L + log1p s),  L = log a,

    with u = x/a - 1.  The integrand g(s) = 1/(L + log1p s) = sum g_k s^k
    has g_0 = 1/L and g_k = -(sum_{m=1..k} (-1)^(m+1) g_{k-m}/m)/L, so
    li(x) = li(a) + sum_{k<=8} a c_k u^(k+1) with c_k = g_k/(k+1).  li(a),
    from the series with the same ``n_li``, and the a c_k are made once
    per octave of anchors (``_li_octave``); each x then costs one Horner
    pass over its anchor's gathered coefficients.  The anchor grid is
    absolute, so an x's value and half-width depend on x and ``n_li``
    alone, as with the series, and no chunking moves a bit.

    The half-width is one number per anchor, the sum of these bounds,
    with eps = 2^-53, T = 0.011 >= |u| and W = a/(L - log 2):

    1. the anchor's series half-width;
    2. the rounding of u.  fl(x/a) lies in [1/2, 2], so fl(x/a) - 1 is
       exact (Sterbenz) and |du| <= eps (1 + T).  On |s| <= T,
       |g| <= 1/(L - log 2), so this moves li by at most W eps (1 + T);
    3. the rounding of L = log a, |dL| <= 2.3e-16 L as in the series,
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
    small = xs < _LI_X0
    if small.all():
        return _li_series(xs, n_li, ys)
    if small.any():
        value, half = np.empty_like(xs), np.empty_like(xs)
        value[small], half[small] = _li_series(xs[small], n_li, ys[small])
        big = ~small
        value[big], half[big] = _li(xs[big], ys[big], n_li)
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
        [_li_octave(first + int(k), n_li) for k in np.flatnonzero(seen)], axis=1)
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
    bounded away from its pole.
    """

    def fold(s):
        if s == 0.0:
            return 1.0
        return 1.0 / math.log1p(s) + 1.0 / math.log1p(-s)

    def head(v):
        return math.exp(-v) / v

    def tail(v):
        return math.exp(v) / v

    u = min(0.5, (x - 1.0) / 2.0)
    v0 = -math.log1p(-u)
    v_top = v0 + 40.0
    v1, e1 = _graded_simpson(head, v0, v_top, tol / 3.0)
    e1 += math.exp(-v_top) / v_top
    v2, e2 = adaptive_simpson(fold, 0.0, u, tol / 3.0)
    v3, e3 = _graded_simpson(tail, math.log1p(u), math.log(x), tol / 3.0)
    return -v1 + v2 + v3, e1 + e2 + e3


def log_integral(x: float) -> Enclosure:
    """Enclosure of li(x) = PV integral of 1/log t from 0 to x.

    The enclosure comes from the exponential-integral series with a
    rigorous truncation remainder; an independent adaptive quadrature of
    the principal-value integral must agree within the combined widths,
    otherwise a PrecisionError is raised.  Both edges are rounded outward.
    """
    if not 1.0 < x < math.inf:
        raise DomainError(f"log_integral needs finite x > 1, got {x}")
    (value,), (half,) = _li_series(np.array([x]), _li_terms(x))
    scale = max(1.0, abs(value))
    qtol = max(1e-13, 1e-12 * scale)
    qv, qe = _li_quad(x, qtol)
    if abs(qv - value) > half + qe + 1e-11 * scale:
        raise PrecisionError(
            f"log_integral methods disagree at x={x}: series {value}, quadrature {qv}"
        )
    return Enclosure(*np.nextafter([value - half, value + half], [-np.inf, np.inf]).tolist())


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


def mertens_sum(x: float, table: PrimeTable) -> float:
    """Sum of 1/p over primes p <= x, exactly-rounded accumulation."""
    if x < 2:
        raise DomainError(f"mertens_sum needs x >= 2, got {x}")
    _require_table(table, x, "mertens_sum")
    ps = table.float_primes()[: table.prime_pi(x)]
    return math.fsum((1.0 / ps).tolist())


def prime_zeta(k: int, table: PrimeTable) -> Enclosure:
    """Enclosure of P(k) = sum over all primes of p**(-k).

    Finite part over the table, tail bounded by N**(1-k)/(k-1) with
    N = table.limit.  For p > 2**(1080/k), p**-k < 2**-1080 is far below
    half the least subnormal, so pow gives +0: those entries are written
    as zeros, skipping libm's slow underflow path, in a full-length array
    that keeps np.sum's pairwise order.
    """
    if not isinstance(k, (int, np.integer)) or k < 2:
        raise DomainError(f"prime_zeta needs integer k >= 2, got {k!r}")
    k = int(k)
    ps = table.float_primes()
    powers = np.zeros_like(ps)
    cut = table.prime_pi(2.0 ** (1080 / k))
    np.power(ps[:cut], -float(k), out=powers[:cut])
    partial = float(np.sum(powers))
    tail = float(table.limit) ** (1 - k) / (k - 1)
    pad = 4e-15 * partial + 5e-324 * ps.size
    return Enclosure(partial - pad, partial + tail + pad)


def nu2(table: PrimeTable) -> Enclosure:
    """Enclosure of the constant sum_{k>=2} P(k)/k.

    Truncated at k = 64; the k-tail uses P(k) <= 2**(2-k), which gives a
    geometric bound below 1e-19.  Must bracket gamma - M.
    """
    if table.limit < 10 ** 6:
        raise PreconditionError(
            f"nu2 needs table.limit >= 1e6, got {table.limit}"
        )
    encs = [(prime_zeta(k, table), k) for k in range(2, 65)]
    k_tail = (4.0 / 65.0) * 2.0 ** -64 * 2.0
    return Enclosure(math.fsum(e.lo / k for e, k in encs),
                     math.fsum(e.hi / k for e, k in encs) + k_tail)


def tail_power_sum_bound(alpha: float) -> float:
    """The chain bound (1 + alpha) * 1.2551 / e for the prime tail sum
    over p > exp(1/alpha) of p**-(1+alpha), valid for 0 < alpha <= 1."""
    if not (0.0 < alpha <= 1.0):
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

    ``build(x_lo, x_hi, table, extra)`` yields (xs, state) chunks: the x
    of each evaluation and what the margin function reads there, one
    ``core.sweep`` chunk at a time.  Step states read a prime table,
    list the extra points last and carry the gap note into every report;
    their state is pi, or with a ``prefix`` (table -> prefix-sum array)
    the prime sum at pi, of shape (2, n) over the n primes of a chunk and
    one per x elsewhere.  Grid states carry the grid index j, or None
    for the endpoints off the grid; no grid check has extra points.
    """

    build: Callable
    needs_table: bool = False
    note: str | None = None
    prefix: Callable | None = None


def _step_states(x_lo: float, x_hi: float, table: PrimeTable, extra):
    """Evaluation states for step-function sweeps, as (xs, pis) chunks.

    The primes p in (x_lo, x_hi] come in runs of indices i, one x per
    prime, with pis of shape (2, n): row 0 the left limit pi(p) - 1 = i
    and row 1 the inclusive state pi(p) = i + 1.  x_lo comes first, and
    x_hi and each extra x last, each with its inclusive state alone.
    """
    i_lo, i_hi = table.prime_pi(x_lo), table.prime_pi(x_hi)
    yield np.array([x_lo], dtype=float), np.array([i_lo])
    for i in runs(i_lo, i_hi, width=2):
        yield table.primes[i].astype(np.float64), np.stack((i, i + 1))
    ends = [x_hi, *extra]
    yield np.array(ends, dtype=float), np.array([table.prime_pi(x) for x in ends])


PI_STATES = States(_step_states, True, _GAP_NOTE)
RECIP_SUMS = States(_step_states, True, _GAP_NOTE, lambda t: t.recip_prefix())
LOG2_SUMS = States(_step_states, True, _GAP_NOTE, lambda t: t.log2_prefix())
GEOMETRIC_GRID = States(lambda x_lo, x_hi, *_: geometric_grid(x_lo, x_hi))
ALPHA_GRID = States(lambda x_lo, x_hi, *_: anchored_grid(x_lo, x_hi, 2.0 ** -10))


@dataclass(frozen=True)
class CheckDef:
    """One registered inequality.

    ``valid(x_lo, x_hi)`` tells whether a range lies in the stated
    validity.  ``margins(xs, state, n_li)`` returns (margins, scales)
    over the states the check sweeps, li summed to ``n_li`` terms.
    ``stationary`` lists extra x where the smooth side is stationary;
    those inside (x_lo, x_hi] are evaluated too.  ``crossover`` marks a grid check whose margin is bisected for
    its sign change when the sweep goes from negative to positive.
    """

    check_id: str
    validity: str  # human-readable validity range for error messages
    valid: Callable
    states: States
    margins: Callable
    note: str | None = None
    stationary: tuple = ()
    crossover: bool = False


def _compare(rhs, lhs=None, upper=True):
    """Margins of lhs <= rhs (``upper``) or lhs >= rhs, scaled by rhs.

    Both sides are functions of (xs, log xs, state, li term count); lhs
    defaults to the state itself, pi(x) or a prime sum.
    """

    def margins(xs, state, n_li):
        u = np.log(xs)
        left = state if lhs is None else lhs(xs, u, state, n_li)
        right = rhs(xs, u, state, n_li)
        return (right - left if upper else left - right), right

    return margins


def _worse(first, second):
    """At each state, the worse of two margins, with its scale."""

    def margins(xs, state, n_li):
        (m1, s1), (m2, s2) = first(xs, state, n_li), second(xs, state, n_li)
        take_first = m1 <= m2
        return np.where(take_first, m1, m2), np.where(take_first, s1, s2)

    return margins


def _rs(c):
    """The bound x/log x (1 + c/(2 log x))."""
    return lambda xs, u, *_: xs / u * (1.0 + c / (2.0 * u))


def _loglog(c):
    """The bound loglog x + c."""
    return lambda xs, u, *_: np.log(u) + c


def _li_lower_edge(xs, u, _, n_li):
    li, li_err = _li(xs, u, n_li)
    return li - li_err


def _li_dev(xs, u, pis, n_li):
    """|li(x) - pi(x)| plus the li error."""
    li, li_err = _li(xs, u, n_li)
    return np.abs(li - pis) + li_err


_LI2, _LI2_HALF = _li_series(np.array([2.0]), _li_terms(2.0))


def _li_upper(xs, _, n_li):
    """li(x) - li(2) <= x/log x (1 + 3/(2 log x)), li errors counted."""
    u = np.log(xs)
    li, li_err = _li(xs, u, n_li)
    rhs = xs / u * (1.0 + 3.0 / (2.0 * u)) + _LI2
    return rhs - (li + li_err + _LI2_HALF), rhs


def _mertens_dev(xs, u, sums, _):
    """|S(x) - loglog x - M|."""
    return np.abs(sums - np.log(u) - MERTENS_M)


REGISTRY = {
    c.check_id: c
    for c in [
        CheckDef("pnt-lower", "x >= 59", lambda a, b: a >= 59.0, PI_STATES,
                 _compare(_rs(1.0), upper=False)),
        CheckDef("pnt-upper", "x >= 59", lambda a, b: a >= 59.0, PI_STATES,
                 _compare(_rs(3.0))),
        CheckDef(
            "li-lower", "x >= 2", lambda a, b: a >= 2.0, GEOMETRIC_GRID,
            _compare(_rs(2.0), _li_lower_edge, upper=False),
            note="margin derivative is 2/log^3 x > 0, so the margin increases in x "
                 "and the worst point is the left endpoint",
            crossover=True,
        ),
        CheckDef(
            "li-upper", "x >= 1865", lambda a, b: a >= 1865.0, GEOMETRIC_GRID,
            _li_upper,
            note="margin derivative is (log x - 6)/(2 log^3 x) > 0 for x > e^6, so "
                 "on the validity range the worst point is the left endpoint",
        ),
        CheckDef(
            "pi-li-1", "x >= 2", lambda a, b: a >= 2.0, PI_STATES,
            _compare(lambda xs, u, *_: 0.4897 * xs / u, _li_dev),
            note="on gaps RHS' - li' = -(0.5103 log x + 0.4897)/log^2 x < 0, so the "
                 "margin is monotone on each sign branch of li - pi and minima land "
                 "on gap endpoints",
        ),
        CheckDef(
            "pi-li-2", "x >= 2", lambda a, b: a >= 2.0, PI_STATES,
            _compare(lambda xs, u, *_: 1.3597 * xs / u ** 2, _li_dev),
            note="on gaps RHS' - li' = (1.3597(log x - 2) - log^2 x)/log^3 x < 0 "
                 "(negative discriminant), so minima land on gap endpoints",
        ),
        CheckDef(
            "pi-li-3", "x >= 2", lambda a, b: a >= 2.0, PI_STATES,
            _compare(lambda xs, u, *_: 0.1522 * xs * np.exp(-np.sqrt(u / 6.455)),
                     _li_dev),
            note="0.1522 u exp(-sqrt(u/6.455))(1 - 1/(2 sqrt(6.455 u))) peaks at "
                 "0.5113 < 1 (u = 25.82), so RHS' < li' everywhere and minima land "
                 "on gap endpoints",
        ),
        CheckDef(
            "mertens-remainder", "x > 1", lambda a, b: a > 1.0, RECIP_SUMS,
            _compare(lambda xs, u, *_: 1.0 / u ** 2, _mertens_dev),
            note="the upper-branch margin 1/log^2 x + loglog x + M - S has one "
                 "stationary point at x = exp(sqrt 2), evaluated explicitly when "
                 "in range",
            # d/dx [1/log^2 x + loglog x] = 0 at log^2 x = 2
            stationary=(math.exp(math.sqrt(2.0)),),
        ),
        CheckDef("mertens-bracket", "x >= 2", lambda a, b: a >= 2.0, RECIP_SUMS,
                 _worse(_compare(_loglog(MERTENS_BRACKET_LO), upper=False),
                        _compare(_loglog(MERTENS_BRACKET_HI)))),
        CheckDef("mertens-mprime-coarse", "x >= 2", lambda a, b: a >= 2.0, RECIP_SUMS,
                 _compare(lambda *_: MPRIME_COARSE_BOUND, _mertens_dev)),
        CheckDef("log2p-plain", "1 < x < 355991", lambda a, b: 1.0 < a and b < 355991.0,
                 LOG2_SUMS, _compare(lambda xs, u, *_: u ** 2 / 2.0)),
        CheckDef(
            "tail-power", "0 < alpha <= 1", lambda a, b: 0.0 < a and b <= 1.0,
            ALPHA_GRID,
            _compare(lambda *_: PUBLISHED_V1,
                     lambda a, *_: (1.0 + a) * 1.2551 / math.e),
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
    the check's ``States`` make them.  The li term count comes from x_hi,
    the largest x, so the chunking moves no bit.

    Raises UsageError for an unknown check id, an empty range or a
    non-finite bound, and PreconditionError when the range leaves the
    check's stated validity interval (the message names the valid range).
    """
    cd = check_def(check_id)
    if not (x_lo <= x_hi):
        raise UsageError(f"empty range [{x_lo}, {x_hi}]")
    if not (math.isfinite(x_lo) and math.isfinite(x_hi)):
        raise UsageError(f"range [{x_lo}, {x_hi}] must be finite")
    if not cd.valid(x_lo, x_hi):
        raise PreconditionError(
            f"check {check_id!r} is valid for {cd.validity}; "
            f"requested range [{x_lo}, {x_hi}] lies outside it"
        )
    if cd.states.needs_table:
        _require_table(table, x_hi, check_id)
    extra = [x for x in cd.stationary if x_lo < x <= x_hi]
    prefix = None if cd.states.prefix is None else cd.states.prefix(table)
    n_li = _li_terms(x_hi)

    def margins(xs, state):
        return cd.margins(xs, state if prefix is None else prefix[state], n_li)

    summary = sweep(cd.states.build(x_lo, x_hi, table, extra), margins, eta)
    notes = [n for n in (cd.states.note, cd.note) if n]
    if cd.crossover:
        (first, last), _ = cd.margins(np.array([x_lo, x_hi], dtype=float), None, n_li)
        if first < 0.0 < last:
            a, b = bisect_root(
                lambda t: cd.margins(np.array([t]), None, _li_terms(t))[0][0],
                float(x_lo), float(x_hi), tol=1e-9)
            notes.append(
                f"margin changes sign at x = {0.5 * (a + b):.9f}; the stated "
                f"validity ({cd.validity}) is inconsistent with the computed "
                f"crossover and is reported, not adjusted"
            )
    return summary.report(check_id, x_lo, x_hi, notes)
