"""Desk-scale laboratory for completely multiplicative f: Z -> [-1, 1].

Computes the running mean M_f, the logarithmic mean L_f, the prime
deficiency u and its normalized form Lambda, divisor-convolution means,
and quadratic character sums, then exercises the headline mean-value
inequalities on them.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache

import numpy as np

from .core import point_check
from .dickman import divisor_mean_lower_bound
from .errors import DomainError, PrecisionError, PreconditionError, ResourceError
from .meanvalue import delta
from .primes import RECIP_DENOM, PrimeTable, _is_prime_u64, mertens_sum, recip_numerator

STATS_X_CAP = 10 ** 8
CHAR_COMPOSITE_CAP = 10 ** 6
CHAR_PRIME_CAP = 10 ** 7

STATS_CSV_HEADER = "x,M,L,u,Lambda,conv_mean"
_BLOCK = 1 << 14  # elements per block where stats works through an array in pieces

KINDS = ("quadratic_character", "liouville", "random_pm1", "constant_one", "custom")


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1 by binary reciprocity."""
    if n <= 0 or n % 2 == 0:
        raise DomainError(f"jacobi needs odd n >= 1, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _prime_powers(n: int):
    """(p, e) for each prime power p^e of n >= 1, in increasing p, by
    trial division."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            yield d, e
        d += 1 if d == 2 else 2
    if n > 1:
        yield n, 1


def _odd_modulus_factors(q: int) -> list:
    """The prime powers (p, e) of an odd character modulus 3 <= q <=
    CHAR_PRIME_CAP, capped before it is factored; a composite q is
    capped at CHAR_COMPOSITE_CAP, decided from its factors."""
    if q < 3 or q % 2 == 0:
        raise DomainError(f"a character modulus must be odd and >= 3, got {q}")
    if q > CHAR_PRIME_CAP:
        raise ResourceError(f"character modulus capped at q <= {CHAR_PRIME_CAP:.0e}, got {q}")
    factors = list(_prime_powers(q))
    if q > CHAR_COMPOSITE_CAP and factors != [(q, 1)]:
        raise ResourceError(
            f"composite modulus capped at q <= {CHAR_COMPOSITE_CAP:.0e}, got {q}")
    return factors


@dataclass(frozen=True)
class MultiplicativeSpec:
    """One completely multiplicative function, defined by its values on
    primes.

    kinds: quadratic_character (Jacobi symbol mod odd squarefree q),
    liouville (-1 at every prime), random_pm1 (a fair sign per prime:
    -1 where the top bit of SplitMix64(k + p * 0x9E3779B97F4A7C15 mod
    2**64) is set, k the 8-byte blake2b digest of str(seed) read
    little-endian, so the draw is independent of evaluation order),
    constant_one, and custom (explicit prime table; primes absent from
    the table take the value 1, which keeps the function total).
    """

    kind: str
    q: int | None = None
    seed: int | None = None
    prime_values: tuple = ()
    description: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown kind {self.kind!r}; known: {KINDS}")
        if self.kind == "quadratic_character":
            if self.q is None or any(e > 1 for _, e in _odd_modulus_factors(self.q)):
                raise DomainError(f"quadratic_character needs squarefree q, got {self.q}")
        if self.kind == "random_pm1" and self.seed is None:
            raise DomainError("random_pm1 needs a seed")
        if self.kind == "custom":
            for p, v in self.prime_values:
                if not _is_prime_u64(p):
                    raise DomainError(f"custom key {p} is not a prime")
                if not (-1.0 <= v <= 1.0):
                    raise DomainError(f"custom value at prime {p} outside [-1, 1]: {v}")
        if not self.description:
            object.__setattr__(self, "description", self._describe())

    def _describe(self) -> str:
        if self.kind == "quadratic_character":
            return f"quadratic character mod {self.q}"
        if self.kind == "random_pm1":
            return f"random +-1 per prime, seed {self.seed}"
        if self.kind == "custom":
            return f"custom prime table ({len(self.prime_values)} primes)"
        return self.kind.replace("_", " ")

    def prime_value(self, p: int) -> float:
        if self.kind == "constant_one":
            return 1.0
        if self.kind == "liouville":
            return -1.0
        if self.kind == "quadratic_character":
            return float(jacobi(p, self.q))
        if self.kind == "random_pm1":
            return float(_random_signs(self.seed, np.array([p % 2**64], np.uint64))[0])
        return self._custom_values.get(p, 1.0)

    @cached_property
    def _custom_values(self) -> dict:
        return dict(self.prime_values)


def _random_signs(seed: int, primes: np.ndarray) -> np.ndarray:
    """The random_pm1 value at each p of the integer array ``primes``:
    -1 where the top bit of SplitMix64(k + p * 0x9E3779B97F4A7C15 mod
    2**64) is set, else +1, k the 8-byte blake2b digest of str(seed) read
    little-endian.  That is the p-th output of a SplitMix64 stream (Steele,
    Lea and Flood, OOPSLA 2014) started at k; uint64 arrays wrap silently."""
    digest = hashlib.blake2b(str(seed).encode(), digest_size=8).digest()
    z = primes.astype(np.uint64)
    z *= 0x9E3779B97F4A7C15
    z += int.from_bytes(digest, "little")
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    return 1.0 - 2.0 * (z >> 63)  # SplitMix64's last step, z ^= z >> 31, keeps this bit


def quadratic_character(q: int) -> MultiplicativeSpec:
    return MultiplicativeSpec(kind="quadratic_character", q=q)


def liouville() -> MultiplicativeSpec:
    return MultiplicativeSpec(kind="liouville")


def random_pm1(seed: int) -> MultiplicativeSpec:
    return MultiplicativeSpec(kind="random_pm1", seed=int(seed))


def constant_one() -> MultiplicativeSpec:
    return MultiplicativeSpec(kind="constant_one")


def custom(prime_values: dict) -> MultiplicativeSpec:
    items = tuple(sorted((int(p), float(v)) for p, v in prime_values.items()))
    return MultiplicativeSpec(kind="custom", prime_values=items)


def f_value(spec: MultiplicativeSpec, n: int) -> float:
    """f(n) through the prime factorization (trial division)."""
    if n < 1:
        raise DomainError(f"f_value needs n >= 1, got {n}")
    if n > 10 ** 12:
        raise ResourceError(f"f_value factors by trial division only up to 1e12, got {n}")
    out = 1.0
    for p, e in _prime_powers(n):
        out *= spec.prime_value(p) ** e
    return out


@dataclass(frozen=True)
class StatsRow:
    x: float
    M: float
    L: float
    u: float
    Lambda: float
    conv_mean: float

    def __post_init__(self):
        if not (abs(self.M) <= 1.0 and self.u >= 0.0 and 0.0 <= self.Lambda <= 2.0):
            raise PrecisionError(f"row statistics out of range: {self}")

    def as_dict(self) -> dict:
        return asdict(self)


def _prime_values(spec: MultiplicativeSpec, primes: np.ndarray) -> np.ndarray:
    """f(p) for each p of ``primes``, a run of consecutive primes of a table."""
    if spec.kind == "constant_one":
        return np.ones(primes.size)
    if spec.kind == "liouville":
        return -np.ones(primes.size)
    if spec.kind == "quadratic_character":
        return _chi_period(spec.q)[np.mod(primes, spec.q)].astype(np.float64)
    if spec.kind == "random_pm1":
        return _random_signs(spec.seed, primes)
    fp = np.ones(primes.size)
    if spec.prime_values and primes.size:
        keys, vals = np.array(spec.prime_values).T
        # ``primes`` holds every prime from its first to its last, so a
        # key inside that range sits exactly at its index
        idx = np.searchsorted(primes, keys)
        inside = (keys >= primes[0]) & (idx < primes.size)
        fp[idx[inside]] = vals[inside]
    return fp


def _values(spec: MultiplicativeSpec, lo: int, hi: int, primes: np.ndarray,
            fp: np.ndarray) -> np.ndarray:
    """f(lo + 1), ..., f(hi) from the primes up to hi and their values
    ``fp``: int8 when every prime value is -1, 0 or 1, else float64.

    Each prime p <= r = isqrt(hi) with f(p) != 1 scales the multiples of
    each p**e in the segment.  Then each prime Q > r scales its multiples
    jQ, one cofactor j at a time: the Q of one j are a run of the table,
    and two searchsorted calls find every run.  As j <= hi // (r + 1) <= r,
    Q is the largest prime factor of jQ and divides it once, so f(m) is
    the product of its prime contributions in increasing prime order,
    whatever the segment.
    """
    if spec.kind == "quadratic_character":
        period = _chi_period(spec.q)
        first = (lo + 1) % spec.q  # period index of lo + 1
        return np.tile(period, (first + hi - lo) // spec.q + 1)[first : first + hi - lo]
    exact = np.isin(fp, (-1.0, 0.0, 1.0)).all()
    v = np.ones(hi - lo, dtype=np.int8 if exact else np.float64)
    r = math.isqrt(hi)
    k = int(np.searchsorted(primes, r, side="right"))
    for p, val in zip(primes[:k].tolist(), fp[:k].astype(v.dtype).tolist()):
        pe = p
        while pe <= hi and val != 1:
            v[-(lo + 1) % pe :: pe] *= val  # from the first multiple of pe
            pe *= p
    big, f_big = primes[k:], fp[k:].astype(v.dtype)
    cofactors = np.arange(1, hi // (r + 1) + 1)
    runs = zip(cofactors.tolist(), np.searchsorted(big, lo // cofactors, side="right").tolist(),
               np.searchsorted(big, hi // cofactors, side="right").tolist())
    for j, a, b in runs:
        v[big[a:b] * j - (lo + 1)] *= f_big[a:b]
    return v


class _Held:
    """f(1..top) and f(p) for the primes p <= top of one (spec, table),
    kept for the next x.  On the int8 path, ``marks[k]`` holds the exact
    sums of f(m) and of f(m)/m (the latter over RECIP_DENOM) over
    m <= k * _BLOCK, so a row reads the mark below its n and sums the
    rest of that block.  A larger x appends the segment (top, n]; the
    values a row reads are those it would compute alone."""

    def __init__(self):
        self.top = 0
        self.fp = np.empty(0)
        self.values = np.empty(0, dtype=np.int8)
        self.marks = [(0, 0)]

    def grow(self, spec: MultiplicativeSpec, table: PrimeTable, n: int) -> None:
        n_pi = table.prime_pi(n)
        primes = table.primes[:n_pi]
        fp = _joined(self.fp, _prime_values(spec, primes[self.fp.size :]))
        values = _joined(self.values, _values(spec, self.top, n, primes, fp))
        if values.dtype == np.int8:
            m_total, l_num = self.marks[-1]
            for k in range(len(self.marks) - 1, n // _BLOCK):
                f = values[k * _BLOCK : (k + 1) * _BLOCK]
                m_total += int(f.sum(dtype=np.int64))
                l_num += _l_numerator(f, k * _BLOCK)
                self.marks.append((m_total, l_num))
        for a in (fp, values):
            a.flags.writeable = False  # shared by every later x
        self.top, self.fp, self.values = n, fp, values

    def partial_sums(self, v: np.ndarray) -> np.ndarray:
        """F(v) = f(1) + ... + f(v) at each v, 1 <= v <= top, of a descending
        array (int8 path): v's block mark plus an int32 cumsum in the block."""
        out = np.empty(v.size, dtype=np.int64)
        blocks = (v - 1) // _BLOCK
        edges = [0, *(np.flatnonzero(np.diff(blocks)) + 1).tolist(), v.size]
        for a, b in zip(edges, edges[1:]):
            start = int(blocks[a]) * _BLOCK
            run = np.cumsum(self.values[start : v[a]], dtype=np.int32)
            out[a:b] = run[v[a:b] - start - 1] + self.marks[start // _BLOCK][0]
        return out


def _joined(head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """head then tail, as float64 if either is; no copy when head is empty."""
    return np.concatenate([head, tail]) if head.size else tail


@lru_cache(maxsize=1)
def _held(spec: MultiplicativeSpec, table: PrimeTable) -> _Held:
    return _Held()


def _l_numerator(f: np.ndarray, lo: int) -> int:
    """The sum of f[i] / (lo + 1 + i), exact over RECIP_DENOM."""
    return recip_numerator(np.arange(lo + 1, lo + 1 + f.size, dtype=np.float64), f)


def _by_block(values: np.ndarray):
    """(f(m), m as float64) over consecutive blocks of m = 1..n."""
    for i in range(0, values.size, _BLOCK):
        f = values[i : i + _BLOCK]
        yield f, np.arange(i + 1, i + 1 + f.size, dtype=np.float64)


def _fsum(parts) -> float:
    """math.fsum over a sequence of arrays, one block of Python floats at a time."""
    return math.fsum(itertools.chain.from_iterable(p.tolist() for p in parts))


def check_stats_x(x: float) -> None:
    """Raise unless 2 <= x <= STATS_X_CAP; cheap, so callers check first."""
    if not x >= 2:  # NaN fails too
        raise DomainError(f"stats needs x >= 2, got {x}")
    if x > STATS_X_CAP:
        raise ResourceError(f"stats is O(x) and capped at {STATS_X_CAP:.0e}, got {x}")


def stats(spec: MultiplicativeSpec, x: float, table: PrimeTable) -> StatsRow:
    """All the row statistics of f up to x.

    f(1..n) comes from a one-entry memo per (spec, table): a larger x
    extends it by one segment, a smaller x reads it, and either way the
    row has the bits it would have alone.  When every prime value is -1,
    0 or 1, every sum is exact in integers and so equals math.fsum of the
    float terms: M directly; L and u as numerators over RECIP_DENOM
    (primes.recip_numerator; fl(c/p) = c fl(1/p) for c = 1 - f(p) in
    {0, 1, 2}); conv by the hyperbola, sum_{m<=n} f(m) floor(n/m) =
    sum_{m<=s} f(m) floor(n/m) + sum_{j<=s} F(floor(n/j)) - s F(s), F the
    partial sums of f and s = isqrt(n).  That is the float sum of f(m)
    floor(fl(x/m)): y = (q + 1) m, q = floor(n/m), is an integer <= 2x <
    2**53 above the float x, so x <= y (1 - 2**-53) and x/m lies over half
    an ulp below q + 1.  Otherwise every sum is math.fsum of the terms.
    """
    check_stats_x(x)
    n = int(math.floor(x))
    if table.limit < n:
        raise PreconditionError(f"stats needs table.limit >= {n}, got {table.limit}")
    held = _held(spec, table)
    if held.top < n:
        held.grow(spec, table, n)
    n_pi = table.prime_pi(n)
    fp = held.fp[:n_pi]
    values = held.values[:n]
    if values.dtype == np.int8:
        k, s = n // _BLOCK, math.isqrt(n)
        quotients = n // np.arange(1, s + 1)
        big_f = held.partial_sums(quotients)
        m_total = int(big_f[0])
        l_sum = (held.marks[k][1] + _l_numerator(values[k * _BLOCK :], k * _BLOCK)) / RECIP_DENOM
        conv_total = (int(np.dot(values[:s], quotients)) + int(big_f.sum())
                      - s * int(values[:s].sum(dtype=np.int64)))
        u = recip_numerator(table.primes[:n_pi], (1 - fp).astype(np.int8)) / RECIP_DENOM
    else:
        m_total = _fsum(f for f, _ in _by_block(values))
        l_sum = _fsum(f / m for f, m in _by_block(values))
        conv_total = _fsum(f * np.floor(x / m) for f, m in _by_block(values))
        u = math.fsum(((1.0 - fp) / table.primes[:n_pi]).tolist())
    recip = mertens_sum(x, table)
    lam = 0.0 if u == 0.0 else u / recip
    return StatsRow(x=float(x), M=m_total / x, L=l_sum / math.log(x), u=u,
                    Lambda=lam, conv_mean=conv_total / x)


# ---------------------------------------------------------------------------
# character sums


@lru_cache(maxsize=16)
def _chi_period(q: int) -> np.ndarray:
    """chi(n) = jacobi(n, q) for n = 0..q-1, as a read-only int8 array
    shared by every caller.  The Jacobi symbol is multiplicative in its
    modulus, so chi is the product of (n/p)^e over the prime powers p^e
    of q: each zeroes column 0 of the (q/p, p) view, and an odd e
    multiplies each row by the Legendre period of p."""
    factors = _odd_modulus_factors(q)
    if factors == [(q, 1)]:  # one factor: no table of ones to multiply into
        chi = _legendre_period(q)
    else:
        chi = np.ones(q, dtype=np.int8)
        for p, e in factors:
            rows = chi.reshape(q // p, p)
            rows[:, 0] = 0
            if e % 2:
                rows *= _legendre_period(p)
    chi.flags.writeable = False
    return chi


def _legendre_period(p: int) -> np.ndarray:
    """(n/p) for n = 0..p-1, p an odd prime: 0 at 0, 1 at the squares of
    1..(p-1)/2 mod p, made 2^20 (8 MB) at a time, and -1 elsewhere."""
    chi = np.full(p, -1, dtype=np.int8)
    chi[0] = 0
    half = (p + 1) // 2
    for lo in range(1, half, 1 << 20):
        squares = np.arange(lo, min(lo + (1 << 20), half), dtype=np.int64)
        np.multiply(squares, squares, out=squares)
        chi[np.mod(squares, p, out=squares)] = 1
    return chi


def char_sum(q: int, t: int) -> int:
    """Partial character sum: sum of jacobi(n, q) for 1 <= n <= t, an exact
    integer; the full-period sum tiles, so t may exceed q."""
    if t < 0:
        raise DomainError(f"char_sum needs t >= 0, got {t}")
    chi = _chi_period(q)
    whole, rest = divmod(int(t), q)
    return whole * int(chi.sum()) + int(chi[1 : rest + 1].sum())


@lru_cache(maxsize=1)
def char_sum_profile(q: int):
    """(full-period sum, max |S(t)|, its first argmax t) over 1 <= t < q,
    S(t) = char_sum(q, t), from one int32 partial-sum pass (|S| < q); the
    last q is cached, so a charsum row and its pv_ratio share the pass."""
    sums = _chi_period(q)[1:].astype(np.int32)
    np.cumsum(sums, out=sums)  # in place: with dtype= it keeps a cast copy
    full = int(sums[-1])  # chi(0) = 0
    np.abs(sums, out=sums)
    t = int(np.argmax(sums))
    return full, int(sums[t]), t + 1


def pv_ratio(q: int) -> float:
    """max over 1 <= t <= q of |S_chi(t)| / (sqrt(q) log q), q an odd prime."""
    if _odd_modulus_factors(q) != [(q, 1)]:
        raise DomainError(f"pv_ratio needs prime q, got {q}")
    return char_sum_profile(q)[1] / (math.sqrt(q) * math.log(q))


# ---------------------------------------------------------------------------
# the empirical checks


def empirical_checks(
    spec: MultiplicativeSpec, x: float, c: float, ledger, table: PrimeTable
) -> dict:
    """Exercise the three headline inequalities on one function at one x.

    (i) decay of |M| against final * exp(-K u); (ii) |M| >= c forcing a
    floor under the log-mean (compared in log space; astronomically
    vacuous at desk scale: with |M| < c the check is decided on the
    margin c - |M| and marked vacuous); (iii) the convolution mean against
    its lower bound.  Asymptotic lower-order terms are dropped throughout
    and stamped in the notes.

    Returns the ``mfunc`` report's entry for x: x, function, row (``stats``
    as a dict), checks (name -> ``core.point_check`` entry) and notes.
    """
    row = stats(spec, x, table)
    checks = {}

    rhs = ledger.final * math.exp(-ledger.K * row.u)
    abs_m = abs(row.M)
    checks["mean-decay"] = point_check(
        [rhs - abs_m], [rhs], abs_M=abs_m, bound=rhs,
        slack=math.inf if abs_m == 0.0 else rhs / abs_m)

    log_delta = delta(c)
    if abs_m >= c:
        log_l = math.log(row.L) if row.L > 0.0 else -math.inf
        checks["large-mean-floor"] = point_check(
            [log_l - log_delta], [abs(log_delta)], abs_M=abs_m, log_L=log_l, log_delta=log_delta)
    else:
        checks["large-mean-floor"] = point_check(
            [c - abs_m], [c], abs_M=abs_m, log_delta=log_delta, vacuous=True)

    bound = divisor_mean_lower_bound(x, row.u)
    checks["convolution-lower"] = point_check(
        [row.conv_mean - bound], [bound], conv_mean=row.conv_mean, bound=bound,
        slack=math.inf if bound == 0.0 else row.conv_mean / bound)
    return {"x": x, "function": spec.description, "row": row.as_dict(), "checks": checks,
            "notes": ["asymptotic lower-order terms dropped in every bound"]}
