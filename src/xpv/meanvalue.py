"""The halfplane-average constant K, the |cos t - K| error apparatus,
tail-series suprema, the four case constants with their grid optimizer,
the assembled constant ledger, and the headline delta/epsilon formulas
with the published-table reproduction report.

Astronomically small or large quantities (delta, epsilon without an
override) are carried as natural logs end to end; only the presentation
layer renders log10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .constants import (
    EPSILON_TABLE_C,
    EPSILON_TABLE_C1,
    EPSILON_TABLE_CELLS,
    EULER_GAMMA,
    MERTENS_M,
    PROVENANCE_COMPUTED,
    PROVENANCE_DERIVED,
    PROVENANCE_PUBLISHED,
    PUBLISHED_C0,
    PUBLISHED_FINAL,
)
from .core import Enclosure, adaptive_simpson, bisect_root, golden_max
from .errors import DomainError, PrecisionError, UsageError
from .primes import PrimeTable, nu2, tail_power_sum_bound

# Decay scale of the oscillation kernel: every exponent in the two tail
# series divides by 6.455 (times tau where applicable).
DECAY_SCALE = 6.455

# Coefficient of the S(f) term in both error bounds; the sum of its two
# published components (0.9794 + 1.3597) is checked as an identity in
# the tests, never re-derived.
SUP_COEFF = 2.3391

# Coefficient of the tail-series term in both error bounds.
TAIL_COEFF = 0.1522

TWO_PI = 2.0 * math.pi

LEDGER_PRIMES = 10 ** 6  # the prime limit of nu2 in assemble_ledger


# ---------------------------------------------------------------------------
# the constant K and the periodic weight


@lru_cache(maxsize=4)
def _abs_cos_mean(k: float):
    """(mean, err_bound) of |cos t - k| over one period, split at the kinks so
    each quadrature piece is smooth.  Cached: solve_K and build check one K."""
    theta = math.acos(k)

    def above(t):
        return math.cos(t) - k

    def below(t):
        return k - math.cos(t)

    v1, e1 = adaptive_simpson(above, 0.0, theta, 1e-14)
    v2, e2 = adaptive_simpson(below, theta, TWO_PI - theta, 1e-14)
    v3, e3 = adaptive_simpson(above, TWO_PI - theta, TWO_PI, 1e-14)
    return (v1 + v2 + v3) / TWO_PI, (e1 + e2 + e3) / TWO_PI


@lru_cache(maxsize=1)
def solve_K() -> Enclosure:
    """The root K of: mean of |cos t - K| over a period equals 1 - K.

    Bisection on the closed reduction (2/pi)(sin theta - K theta) = 1 - 2K,
    theta = arccos K; the quadrature mean at the midpoint must match 1 - K
    to 1e-10 plus its error bound, or a PrecisionError is raised.
    """

    def h(k):
        theta = math.acos(k)
        return (2.0 / math.pi) * (math.sin(theta) - k * theta) - (1.0 - 2.0 * k)

    lo, hi = bisect_root(h, 0.2, 0.45, tol=1e-11)
    # h's rounding moves the root by far less than the pad: h' > 1.2 here
    enc = Enclosure(lo - 1e-11, hi + 1e-11)
    k = enc.mid
    mean, err = _abs_cos_mean(k)
    if abs(mean - (1.0 - k)) > 1e-10 + err:
        raise PrecisionError(f"solve_K cross-check: quadrature mean {mean} vs {1.0 - k}")
    return enc


@dataclass(frozen=True)
class PeriodicF:
    """The weight f(t) = |cos t - K| with its mean, sup, and total
    variation over a period.  Construction verifies all three
    numerically; the stored fields are the closed forms."""

    K: float
    mean: float
    sup: float
    variation: float

    @classmethod
    def build(cls, K: float | None = None) -> "PeriodicF":
        k = solve_K().mid if K is None else float(K)

        def f(t):
            return abs(math.cos(t) - k)

        mean_q, mean_err = _abs_cos_mean(k)
        if abs(mean_q - (1.0 - k)) > 1e-8 + mean_err:
            raise PrecisionError(
                f"periodic mean check failed: quadrature {mean_q} vs {1.0 - k}"
            )
        ts = np.linspace(0.0, TWO_PI, 10001)
        vals = np.abs(np.cos(ts) - k)
        i = int(np.argmax(vals))
        a = ts[max(i - 2, 0)]
        b = ts[min(i + 2, ts.size - 1)]
        _, sup_ref = golden_max(f, float(a), float(b))
        sup_grid = max(float(vals[i]), sup_ref)
        if abs(sup_grid - (1.0 + k)) > 1e-6:
            raise PrecisionError(
                f"periodic sup check failed: grid {sup_grid} vs {1.0 + k}"
            )
        theta = math.acos(k)
        knots = [0.0, theta, math.pi, TWO_PI - theta, TWO_PI]
        var = sum(abs(f(knots[j + 1]) - f(knots[j])) for j in range(4))
        if abs(var - 4.0) > 1e-8:
            raise PrecisionError(f"periodic variation check failed: {var}")
        return cls(K=k, mean=1.0 - k, sup=1.0 + k, variation=4.0)


# ---------------------------------------------------------------------------
# tail series


@dataclass(frozen=True)
class ErrorParams:
    c: float
    k1: int
    eps: float
    k2: int

    def __post_init__(self):
        if not 1 <= self.c < math.inf:  # NaN fails too
            raise DomainError(f"c must be finite and >= 1, got {self.c}")
        if self.k1 < 0:
            raise DomainError(f"k1 must be >= 0, got {self.k1}")
        if not 0 < self.eps < math.inf:
            raise DomainError(f"eps must be finite and > 0, got {self.eps}")
        if self.k2 < 0:
            raise DomainError(f"k2 must be >= 0, got {self.k2}")


_TSS_TAUS = (1.0,) + tuple(i / 10.0 for i in range(1, 10))


def _tss_grid(cs: np.ndarray, k1: int) -> np.ndarray:
    """tail_sum_small at each c of ``cs`` for one k1 and each tau of _TSS_TAUS
    (1, where the sup sits, then the monotonicity samples): one (c, tau, k)
    array summed over its contiguous k axis, np.sum's order on one unpadded
    row.  ``last`` uses libm's exp, as numpy's may round differently."""
    scales = DECAY_SCALE * np.array(_TSS_TAUS)
    x = (cs[:, None, None] + TWO_PI * np.arange(k1 + 1.0)) / scales[:, None]
    sums = np.exp(-np.sqrt(x)).sum(axis=-1)
    ends = -np.sqrt((cs[:, None] + TWO_PI * k1) / scales)
    last = np.array(list(map(math.exp, ends.ravel().tolist()))).reshape(ends.shape)
    tail_factor = (math.sqrt(DECAY_SCALE) * np.sqrt(TWO_PI * k1 + cs)
                   + DECAY_SCALE) / math.pi
    vals = sums + last * tail_factor[:, None]
    bad = np.argwhere(vals[:, 1:] > vals[:, :1] * (1.0 + 1e-12))
    if bad.size:
        i, j = bad[0].tolist()
        raise PrecisionError(f"tail_sum_small monotonicity violated at c={cs[i]}, "
                             f"k1={k1}, tau={_TSS_TAUS[j + 1]}")
    return vals[:, 0]


def tail_sum_small(c: float, k1: int) -> float:
    """Supremum over tau in (0, 1] of the truncated small-range tail
    series plus its integral-comparison tail factor.

    Every summand and the tail term increase in tau, so the sup sits at
    tau = 1; that monotonicity is asserted by sampling, not assumed.  One
    row of the kernel the optimizer runs on its c grid, so both share bits.
    """
    if not 1 <= c < math.inf or k1 < 0:
        raise DomainError(f"tail_sum_small needs finite c >= 1 and k1 >= 0, got {c}, {k1}")
    return float(_tss_grid(np.array([float(c)]), k1)[0])


def _tsl_at(eps: float, k2: int, tau: float, two_pi_ks: np.ndarray,
            buf: np.ndarray) -> float:
    base = (1.0 + eps) * math.log(tau + 3.0) ** 2
    # terms exp(-sqrt(base + 2 pi k / (DECAY_SCALE tau))), k = 0..k2, in buf
    np.divide(two_pi_ks, DECAY_SCALE * tau, out=buf)
    np.add(base, buf, out=buf)
    np.sqrt(buf, out=buf)
    np.negative(buf, out=buf)
    np.exp(buf, out=buf)
    last = math.exp(-math.sqrt(base + TWO_PI * k2 / (DECAY_SCALE * tau)))
    tail_factor = (
        math.sqrt(DECAY_SCALE * tau)
        * math.sqrt(TWO_PI * k2 + tau * (1.0 + eps) * DECAY_SCALE * math.log(tau + 3.0) ** 2)
        + DECAY_SCALE * tau
    ) / math.pi
    return float(np.sum(buf)) + last * tail_factor


def _tsl_upper(eps: float, k2: int, s: np.ndarray) -> np.ndarray:
    """An upper bound on ``_tsl_at`` at tau = e^s for each s of ``s``, with
    no per-k work.  The terms f(k) = exp(-sqrt(a + b k)), a = (1 + eps)
    log^2(tau + 3), b = 2 pi / (DECAY_SCALE tau), are convex and decreasing
    in k, so f(k) is at most the integral of f over [k - 1/2, k + 1/2], and
    the sum over k = 1..k2 is at most min((2/b)(u + 1), k2) e^-u with
    u = sqrt(a + b/2): the closed form (2/b)(u + 1)e^-u of the integral from
    1/2 to infinity, or k2 f(1/2).  Neither subtracts, so nothing cancels.
    f(0) and the tail term are added as ``_tsl_at`` has them.

    Rounding: every argument x = sqrt(...) of an exp, here and in
    ``_tsl_at``, is off by a few ulps relative (tau from np.exp rather than
    math.exp included), so each term is off by at most 745 * 8 * 2^-53 <
    1e-12 relative while x <= 745, and by under 2^-1074 absolute where exp
    is subnormal, under 1e-311 for all k2 + 1 < 2^40 terms together; the
    pairwise sum of positive terms adds under 1e-14 relative.  The relative
    slack 1e-9 and the absolute 1e-300 cover both sides, two orders over;
    the raw bound was seen at most 4e-15 below ``_tsl_at``.
    """
    tau = np.exp(s)
    a = (1.0 + eps) * np.log(tau + 3.0) ** 2
    b = TWO_PI / (DECAY_SCALE * tau)
    u = np.sqrt(a + 0.5 * b)
    last = np.exp(-np.sqrt(a + b * k2))
    tail_factor = (np.sqrt(DECAY_SCALE * tau) * np.sqrt(TWO_PI * k2 + tau * DECAY_SCALE * a)
                   + DECAY_SCALE * tau) / math.pi
    total = (np.exp(-np.sqrt(a)) + np.minimum(2.0 / b * (u + 1.0), k2) * np.exp(-u)
             + last * tail_factor)
    return total * (1.0 + 1e-9) + 1e-300


def tail_sum_large(eps: float, k2: int) -> float:
    """Sup of the large-range tail series over tau >= 1, sampled over
    log tau in [0, 30]: a golden section, then a thousand-point grid
    (endpoints included) whose points win only if larger.  A sampled max,
    not a certified sup.  A grid point runs the series only where
    ``_tsl_upper`` is not below the running max: a skipped point cannot
    win, so the result has the bits of the full scan."""
    if not 0 < eps < math.inf:
        raise DomainError(f"tail_sum_large needs finite eps > 0, got {eps}")
    if k2 < 0:
        raise DomainError(f"tail_sum_large needs k2 >= 0, got {k2}")
    tau = math.exp(30.0)  # where the tail term's product, all factors >= 1, is largest
    if not math.isfinite(tau * (1.0 + eps) * DECAY_SCALE * math.log(tau + 3.0) ** 2):
        raise DomainError(f"tail_sum_large overflows at eps = {eps}")
    two_pi_ks = TWO_PI * np.arange(k2 + 1, dtype=np.float64)
    buf = np.empty_like(two_pi_ks)

    def g(s):
        return _tsl_at(eps, k2, math.exp(s), two_pi_ks, buf)

    best = golden_max(g, 0.0, 30.0)[1]
    grid = np.linspace(0.0, 30.0, 1000)
    for s, upper in zip(grid.tolist(), _tsl_upper(eps, k2, grid).tolist()):
        if not upper < best:  # NaN runs the series, as max(best, *grid) would
            best = max(best, g(s))
    return best


# ---------------------------------------------------------------------------
# error bounds and case constants


def error_bound_small(params: ErrorParams, f: PeriodicF) -> float:
    """Short-range error bound: the pi/(2c) window term plus the tail
    series, times the variation, plus the sup term."""
    return _small_bound(params.c, tail_sum_small(params.c, params.k1), f)


def _small_bound(c, tss, f: PeriodicF):
    # elementwise, so a (c, k1) grid of tail sums gets the scalar bits
    return (math.pi / (2.0 * c) + TAIL_COEFF * tss) * f.variation + (SUP_COEFF / c) * f.sup


def _error_bound_large_at(eps: float, f: PeriodicF, tau: float, tsl: float) -> float:
    log_w = (1.0 + eps) * DECAY_SCALE * math.log(tau + 3.0) ** 2
    return (
        math.pi / (2.0 * tau * log_w) + TAIL_COEFF * tsl
    ) * f.variation + SUP_COEFF / log_w * f.sup


def error_bound_large(params: ErrorParams, f: PeriodicF, tau: float) -> float:
    """Long-range error bound at a given tau >= 1; each term decreases
    in tau, so tau = 1 is the worst case."""
    if tau < 1:
        raise DomainError(f"error_bound_large needs tau >= 1, got {tau}")
    tsl = tail_sum_large(params.eps, params.k2)
    return _error_bound_large_at(params.eps, f, tau, tsl)


def _case_i(c: float, f: PeriodicF) -> float:
    return (1.0 - f.K) * (MERTENS_M + 1.0) + (1.0 + 1e-8) * c * c / 4.0


def _case_iv(eps: float, f: PeriodicF) -> float:
    w = (1.0 + eps) * DECAY_SCALE
    return (1.0 + f.K) * (
        math.log(w) + MERTENS_M + 1.0 / (w * w * math.log(4.0) ** 4)
    )


def _case_iii_sup(eps: float, k2: int, f: PeriodicF):
    """(sup, maximizer) over tau >= 1 of the long-range case constant.
    Every term decreases in tau (see ``error_bound_large``, and
    1/log^4(tau + 3)), so the sup is the value at tau = 1."""
    w = (1.0 + eps) * DECAY_SCALE
    sup = (
        2.0 * f.K * math.log(w)
        + (1.0 + f.K) * (MERTENS_M + 1.0 / (w * w * math.log(4.0) ** 4))
        + _error_bound_large_at(eps, f, 1.0, tail_sum_large(eps, k2))
    )
    return sup, 1.0


@dataclass(frozen=True)
class CaseBounds:
    params: ErrorParams
    c_i: float
    c_ii: float
    c_iii: float
    c_iii_tau: float
    c_iv: float
    c0: float


def case_bounds(params: ErrorParams, f: PeriodicF | None = None) -> CaseBounds:
    """The four additive case constants and their max.

    c_ii is the short-range case (the binding one at the reference
    parameter point); c_iii is a supremum over tau; c_iv is the
    trivial-range constant; c0 is the max of the three non-degenerate
    cases.
    """
    if f is None:
        f = PeriodicF.build()
    ci = _case_i(params.c, f)
    cii = ci + error_bound_small(params, f)
    ciii, tau_star = _case_iii_sup(params.eps, params.k2, f)
    civ = _case_iv(params.eps, f)
    return CaseBounds(
        params=params,
        c_i=ci,
        c_ii=cii,
        c_iii=ciii,
        c_iii_tau=tau_star,
        c_iv=civ,
        c0=max(cii, ciii, civ),
    )


DEFAULT_C_GRID = tuple(i / 100.0 for i in range(100, 501))
DEFAULT_K1_GRID = tuple(range(21))
DEFAULT_EPS_GRID = tuple(i / 100.0 for i in range(50, 1001))
DEFAULT_K2_GRID = (10 ** 3, 10 ** 4, 10 ** 5, 3 * 10 ** 5, 10 ** 6)


def _c_ii_grid(c_grid, k1_grid, f: PeriodicF) -> np.ndarray:
    """c_ii at every (c, k1) of the grids, one tail-sum kernel per k1."""
    cs = np.array(c_grid, dtype=np.float64)[:, None]
    tss = np.stack([_tss_grid(cs[:, 0], k1) for k1 in k1_grid], axis=1)
    return _case_i(cs, f) + _small_bound(cs, tss, f)


def optimize_C0(c_grid, k1_grid, eps_grid, k2_grid, f: PeriodicF | None = None):
    """Exhaustive-equivalent minimization of the max-of-cases constant
    over the grid product.  Returns (ErrorParams, achieved value).

    The objective splits as max(A(c, k1), G(eps, k2)) with
    A = c_ii and G = max(c_iii, c_iv), so the scan minimizes each half;
    the G half stops at the first (lex order) pair with G <= min A,
    which is then provably part of the lexicographically smallest
    argmin.  The trivial-range constant grows with eps, which prunes the
    remaining eps values once it passes both min A and the best G seen.
    A is one array over the grid, one tail-sum kernel per k1, with the
    bits of case_bounds' c_ii at each point.
    """
    c_grid = sorted({float(c) for c in c_grid})
    k1_grid = sorted({int(k) for k in k1_grid})
    eps_grid = sorted({float(e) for e in eps_grid})
    k2_grid = sorted({int(k) for k in k2_grid})
    if not (c_grid and k1_grid and eps_grid and k2_grid):
        raise UsageError("optimize_C0 grids must all be non-empty")
    # each grid's least and largest value (either NaN if one is) check it all
    for pick in (np.min, np.max):
        ErrorParams(pick(c_grid), k1_grid[0], pick(eps_grid), k2_grid[0])
    if f is None:
        f = PeriodicF.build()

    a_grid = _c_ii_grid(c_grid, k1_grid, f)
    a_min = float(a_grid.min())

    witness = None
    g_best = math.inf
    g_arg = None
    for eps in eps_grid:
        civ = _case_iv(eps, f)
        if civ > a_min and civ >= g_best:
            break
        for k2 in k2_grid:
            g = max(_case_iii_sup(eps, k2, f)[0], civ)
            if g <= a_min:
                witness = (eps, k2)
                break
            if g < g_best:
                g_best, g_arg = g, (eps, k2)
        if witness:
            break

    if witness is not None:
        achieved = a_min
        eps_best, k2_best = witness
    else:
        achieved = g_best
        eps_best, k2_best = g_arg
    i, j = divmod(int(np.argmax(a_grid.ravel() <= achieved)), len(k1_grid))
    c_best, k1_best = c_grid[i], k1_grid[j]
    params = ErrorParams(c=c_best, k1=k1_best, eps=eps_best, k2=k2_best)
    return params, achieved


# ---------------------------------------------------------------------------
# auxiliary constants


def integral_exp_over_square() -> Enclosure:
    """Enclosure of the integral of e^(2y)/y^2 over [1, 2].

    The upper end must stay below 9.45 (the constant consumed
    downstream) and the integrand bound e^2/4 puts the value above 1.85;
    both are checked here rather than by callers.
    """
    v, e = adaptive_simpson(lambda y: math.exp(2.0 * y) / (y * y), 1.0, 2.0, 1e-12)
    enc = Enclosure(v - e - 1e-12, v + e + 1e-12)
    if enc.hi > 9.45:
        raise PrecisionError(f"integral enclosure exceeds 9.45: {enc}")
    if enc.lo < 1.85:
        raise PrecisionError(f"integral enclosure sanity failed: {enc}")
    return enc


def nu3(k_trunc: int) -> Enclosure:
    """Enclosure of sqrt of the symmetric series
    sum over integer k of log^(2+2K)(|k|+4) / ((k-1/2)^2 + 1).

    The two-sided tail beyond k_trunc is bounded by an integral
    comparison: log(u+4.5) <= A log u for u >= T-1/2 with
    A = log(T+4)/log(T-1/2), then the incomplete-gamma style bound
    int_a^inf t^c e^-t dt <= a^c e^-a / (1 - c/a).  The sum runs in place in
    two buffers: log(|k| + 4)**c once per |k|, mirrored onto k < 0, then
    divided by (k - 1/2)^2 + 1.
    """
    if k_trunc < 10 ** 3:
        raise DomainError(f"nu3 needs k_trunc >= 1e3, got {k_trunc}")
    c = 2.0 + 2.0 * solve_K().mid
    d = np.arange(-k_trunc, k_trunc + 1, dtype=np.float64)
    terms = np.empty_like(d)
    pos = np.add(d[k_trunc:], 4.0, out=terms[k_trunc:])  # |k| + 4 for k >= 0
    np.power(np.log(pos, out=pos), c, out=pos)
    terms[:k_trunc] = pos[:0:-1]
    d -= 0.5
    terms /= np.add(np.square(d, out=d), 1.0, out=d)
    s = float(np.sum(terms))
    pad = 1e-12 * s
    a = math.log(k_trunc - 0.5)
    big_a = math.log(k_trunc + 4.0) / a
    tail = 2.0 * big_a ** c * a ** c * math.exp(-a) / (1.0 - c / a)
    return Enclosure(math.sqrt(s - pad), math.sqrt(s + tail + pad))


@dataclass(frozen=True)
class ConstantLedger:
    """The assembled constant chain, every value tagged with where it came
    from; K, nu2 and nu3 are read off their enclosures, which ``as_dict`` omits."""

    K_enclosure: Enclosure
    C0: float
    nu1: float
    nu2_enclosure: Enclosure
    nu3_enclosure: Enclosure
    M: float
    gamma: float
    C: float
    a: float
    final: float
    provenance: dict = field(default_factory=dict)

    K = property(lambda self: self.K_enclosure.mid)
    nu2 = property(lambda self: self.nu2_enclosure.hi)
    nu3 = property(lambda self: self.nu3_enclosure.hi)

    def as_dict(self) -> dict:
        names = ("K", "C0", "nu1", "nu2", "nu3", "M", "gamma", "C", "a", "final")
        return {name: {"value": getattr(self, name),
                       "provenance": self.provenance.get(name, PROVENANCE_COMPUTED)}
                for name in names}


def assemble_ledger(C0: float, table: PrimeTable) -> ConstantLedger:
    """Chain the constants from C0 to the final mean-value coefficient.

    nu1 is the tail-power bound at alpha = 1, where it is largest; nu2
    sums over the primes of ``table`` up to LEDGER_PRIMES only, so any
    table sieved at least that far gives the same ledger; nu2 and nu3 come
    in as enclosure upper ends, and C, a, final follow the ledger
    identities exactly as stated on the ConstantLedger type.
    """
    if C0 <= 0:
        raise DomainError(f"assemble_ledger needs C0 > 0, got {C0}")
    if table.limit > LEDGER_PRIMES:
        table = PrimeTable(LEDGER_PRIMES, table.primes[: table.prime_pi(LEDGER_PRIMES)])
    k_enc, nu2_enc, nu3_enc = solve_K(), nu2(table), nu3(10 ** 6)
    k, nu1 = k_enc.mid, tail_power_sum_bound(1.0)
    big_c = C0 + nu1 + nu2_enc.hi + k * (MERTENS_M + 1.0)
    a_const = 3.14 * nu3_enc.hi * math.exp(big_c) * math.exp(1.82 * k) / (1.0 - 2.0 * k)
    final = a_const * math.exp(2.0 * k * MERTENS_M + 1.21 * k)
    prov = {
        "K": PROVENANCE_COMPUTED,
        "C0": PROVENANCE_PUBLISHED if C0 == PUBLISHED_C0 else PROVENANCE_COMPUTED,
        "nu1": PROVENANCE_COMPUTED,
        "nu2": PROVENANCE_COMPUTED,
        "nu3": PROVENANCE_COMPUTED,
        "M": PROVENANCE_PUBLISHED,
        "gamma": PROVENANCE_PUBLISHED,
        "C": PROVENANCE_DERIVED,
        "a": PROVENANCE_DERIVED,
        "final": PROVENANCE_DERIVED,
    }
    return ConstantLedger(
        K_enclosure=k_enc,
        C0=C0,
        nu1=nu1,
        nu2_enclosure=nu2_enc,
        nu3_enclosure=nu3_enc,
        M=MERTENS_M,
        gamma=EULER_GAMMA,
        C=big_c,
        a=a_const,
        final=final,
        provenance=prov,
    )


# ---------------------------------------------------------------------------
# headline formulas


@dataclass(frozen=True)
class LogScaled:
    """A positive real carried by its natural log, since the value
    itself can sit far outside binary64 range."""

    log: float

    @property
    def value(self) -> float:
        if self.log < -745.0:
            return 0.0
        if self.log > 709.0:
            return math.inf
        return math.exp(self.log)

    @property
    def log10(self) -> float:
        return self.log / math.log(10.0)


def delta(c: float, big_constant: float = PUBLISHED_FINAL) -> LogScaled:
    """The headline delta(c), evaluated in log space.

    The formula's o(1) term is dropped; reports stamp that.  The result
    always satisfies delta <= 2/7, which is checked, and it underflows
    binary64 for every admissible c, which is why only the log is
    first-class.
    """
    if not (0.0 < c <= 1.0):
        raise DomainError(f"delta needs 0 < c <= 1, got {c}")
    if big_constant <= c:
        raise DomainError(
            f"delta needs big_constant > c, got {big_constant} vs {c}"
        )
    k = solve_K().mid
    ln_b = math.log(big_constant / c)
    power = math.exp(ln_b / (2.0 * k))
    log_d = math.log(0.2) - (ln_b / k) * (1.42 * power + 0.5)
    if log_d > math.log(2.0 / 7.0):
        raise PrecisionError(f"delta exceeded 2/7 at c = {c}")
    return LogScaled(log_d)


def delta_table_candidate(c: float, big_constant: float = PUBLISHED_FINAL) -> float:
    """Reverse-engineered closed form 0.2 (c/big_constant)^(1/2K) that
    reproduces the published delta table to a few percent.  This is a
    diagnostic for discrepancy reports, not ground truth."""
    if not (0.0 < c <= 1.0):
        raise DomainError(f"delta_table_candidate needs 0 < c <= 1, got {c}")
    k = solve_K().mid
    return 0.2 * (c / big_constant) ** (1.0 / (2.0 * k))


@dataclass(frozen=True)
class EpsilonValue:
    value: float
    log: float

    @property
    def log10(self) -> float:
        return self.log / math.log(10.0)


def epsilon_exponent(c1: float, c: float,
                     delta_override: float | None = None) -> EpsilonValue:
    """The exponent bound 4 pi c1 / delta^(3/2), o(1) dropped.

    With delta_override the value is finite and computed directly in
    floats (value = c1 times a factor depending only on the override),
    keeping scaling in c1 exact; without it, delta(c) underflows and
    only the log output is meaningful (value overflows to inf).
    """
    if c1 <= 0:
        raise DomainError(f"epsilon_exponent needs c1 > 0, got {c1}")
    if not (0.0 < c <= 1.0):
        raise DomainError(f"epsilon_exponent needs 0 < c <= 1, got {c}")
    if delta_override is not None:
        if not (0.0 < delta_override <= 2.0 / 7.0):
            raise DomainError(
                f"delta_override must lie in (0, 2/7], got {delta_override}"
            )
        factor = 4.0 * math.pi * delta_override ** -1.5
        value = c1 * factor
        return EpsilonValue(value=value, log=math.log(value))
    log_d = delta(c).log
    log_e = math.log(4.0 * math.pi) + math.log(c1) - 1.5 * log_d
    value = math.inf if log_e > 709.0 else math.exp(log_e)
    return EpsilonValue(value=value, log=log_e)


# ---------------------------------------------------------------------------
# published-table reproduction


@dataclass
class Table1Report:
    c1_values: list
    c_values: list
    delta_values: list
    cells: list  # rows (per c1) x columns (per c) of computed epsilon
    column_factors: list
    published: list | None
    ratios: list | None
    checks: dict
    discrepancies: list
    notes: list

    @property
    def passed(self) -> bool:
        return all(ch["passed"] for ch in self.checks.values())


def _published_cell(c1: float, c: float):
    """Published epsilon for (c1, c) when the pair is in the reference
    grid, else None.  Subsets of the grid match cell by cell."""
    for i, v in enumerate(EPSILON_TABLE_C1):
        if math.isclose(c1, v, rel_tol=1e-12):
            for j, w in enumerate(EPSILON_TABLE_C):
                if math.isclose(c, w, rel_tol=1e-12):
                    return EPSILON_TABLE_CELLS[i][j]
    return None


def table1_report(c1_list, c_list, delta_table: dict) -> Table1Report:
    """Reproduce the published epsilon table from the 4 pi formula with
    the published delta values as overrides, and report every law the
    table should satisfy plus every discrepancy it actually shows.
    """
    c1_values = [float(v) for v in c1_list]
    c_values = [float(v) for v in c_list]
    if not c1_values or not c_values:
        raise UsageError("table1_report needs non-empty c1 and c lists")
    try:
        deltas = [float(delta_table[c]) for c in c_values]
    except KeyError as exc:
        raise UsageError(f"delta_table is missing an entry for c = {exc.args[0]}")
    if not all(0.0 < d < math.inf for d in deltas):
        raise DomainError(f"table1_report needs finite deltas > 0, got {deltas}")
    try:  # delta^-1.5 overflows below about 3.2e-206, 4 pi times it below 1.7e-205
        column_factors = [4.0 * math.pi * d ** -1.5 for d in deltas]
    except OverflowError:
        column_factors = [math.inf]
    if not all(math.isfinite(f) for f in column_factors):
        raise DomainError(f"4 pi delta^-1.5 overflows for a delta in {deltas}")
    cells = [[c1 * fac for fac in column_factors] for c1 in c1_values]

    checks = {}
    discrepancies = []
    notes = [
        "epsilon cells are c1 times a per-column factor, so linearity in "
        "c1 is exact by construction",
        "asymptotic lower-order terms in the source formulas are dropped",
    ]

    linear_ok = all(
        cells[i][j] == c1_values[i] * column_factors[j]
        for i in range(len(c1_values))
        for j in range(len(c_values))
    )
    checks["linearity"] = {
        "passed": linear_ok,
        "detail": "cells[i][j] == c1[i] * column_factor[j] bitwise",
    }

    published = [[_published_cell(c1, c) for c in c_values] for c1 in c1_values]
    if all(v is None for row in published for v in row):
        published = None
    ratios = None
    if published is not None:
        # power law across columns, judged on the first requested row
        pairs = [
            j
            for j in range(len(c_values) - 1)
            if published[0][j] is not None and published[0][j + 1] is not None
        ]
        if pairs:
            worst_dev = 0.0
            for j in pairs:
                pub_ratio = published[0][j + 1] / published[0][j]
                law_ratio = (deltas[j] / deltas[j + 1]) ** 1.5
                worst_dev = max(worst_dev, abs(pub_ratio / law_ratio - 1.0))
            checks["column-power-law"] = {
                "passed": worst_dev <= 0.02,
                "detail": f"worst relative deviation {worst_dev:.6f} (allowed 0.02)",
            }
        else:
            notes.append("power-law check needs two adjacent reference columns")

        ratios = [
            [
                published[i][j] / cells[i][j]
                if published[i][j] is not None
                else None
                for j in range(len(c_values))
            ]
            for i in range(len(c1_values))
        ]
        # Data-driven outlier detection: within a column every ratio
        # should equal the same global factor; anything 10% off the
        # column median is a broken published cell.
        flat_ok = []
        for j in range(len(c_values)):
            col = sorted(
                ratios[i][j] for i in range(len(c1_values)) if ratios[i][j] is not None
            )
            if not col:
                continue
            median = col[len(col) // 2]
            for i in range(len(c1_values)):
                r = ratios[i][j]
                if r is None:
                    continue
                if abs(r / median - 1.0) > 0.10:
                    discrepancies.append({
                        "kind": "published-cell-outlier",
                        "c1": c1_values[i],
                        "c": c_values[j],
                        "published": published[i][j],
                        "computed": cells[i][j],
                        "ratio": r,
                        "note": "cell inconsistent with its own column; "
                                "excluded from the common-factor estimate",
                    })
                else:
                    flat_ok.append(r)
        mean_ratio = math.fsum(flat_ok) / len(flat_ok)
        spread = (max(flat_ok) - min(flat_ok)) / mean_ratio
        checks["common-factor-spread"] = {
            "passed": spread <= 0.02,
            "detail": f"spread {spread:.6f} over {len(flat_ok)} cells (allowed 0.02)",
        }
        discrepancies.append({
            "kind": "global-factor",
            "factor": mean_ratio,
            "sqrt2_deviation": mean_ratio / math.sqrt(2.0) - 1.0,
            "note": "published cells exceed the direct formula by a common "
                    "factor close to sqrt 2; reported, not corrected",
        })
        for c, d in zip(c_values, deltas):
            cand = delta_table_candidate(c)
            discrepancies.append({
                "kind": "delta-candidate",
                "c": c,
                "published_delta": d,
                "candidate": cand,
                "ratio": cand / d,
                "note": "reverse-engineered closed form, diagnostic only",
            })
    else:
        notes.append(
            "no requested cell matches the published reference grid; "
            "ratio checks skipped"
        )

    return Table1Report(
        c1_values=c1_values,
        c_values=c_values,
        delta_values=deltas,
        cells=cells,
        column_factors=column_factors,
        published=published,
        ratios=ratios,
        checks=checks,
        discrepancies=discrepancies,
        notes=notes,
    )
