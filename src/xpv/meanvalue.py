"""The halfplane-average constant K, the |cos t - K| error apparatus,
tail-series suprema, the four case constants with their grid optimizer,
the assembled constant ledger, the headline delta formula, and the
reproduction report of the published epsilon table.

delta, astronomically small, is carried as its natural log end to end
and never materialized as a float.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
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
from .core import U, Enclosure, adaptive_simpson, bisect_root, gamma_n, golden_max, outward
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
LEDGER_NU3_TERMS = 2000  # the head length T of nu3 in assemble_ledger


# ---------------------------------------------------------------------------
# the constant K and the periodic weight


@lru_cache(maxsize=1)
def solve_K() -> Enclosure:
    """The root K of: mean of |cos t - K| over a period equals 1 - K.

    Bisection on the closed reduction h(k) = (2/pi)(sin theta - k theta)
    - (1 - 2k), theta = arccos k, padded by 1e-11 each side.  h' = 2 -
    2 theta/pi > 0, so the one root lies in the enclosure when the computed
    h is below -B at its lower end and above B at its upper end, else a
    PrecisionError.  B = 32u (u = U, ``core``) bounds h's float error on
    [0.2, 0.45], with acos and sin taken at 4u, twice their 1 ulp: theta
    errs by 5.5u, sin theta by 6.5u, k theta by 3u, their difference by
    10u, its product with 2/pi by 8.1u and 1 - 2k by 0.3u; the last
    subtraction is exact.  |h| is about 1.2e-11 at the padded ends.
    """

    def h(k):
        theta = math.acos(k)
        return (2.0 / math.pi) * (math.sin(theta) - k * theta) - (1.0 - 2.0 * k)

    lo, hi = bisect_root(h, 0.2, 0.45, tol=1e-11)
    enc = Enclosure(lo - 1e-11, hi + 1e-11)
    if not (h(enc.lo) < -32.0 * U and h(enc.hi) > 32.0 * U):
        raise PrecisionError(f"solve_K: h does not change sign across {enc}")
    return enc


@dataclass(frozen=True)
class PeriodicF:
    """The weight f(t) = |cos t - K| with its mean, sup, and total
    variation over a period, as closed forms at K = ``solve_K().mid``.

    The mean 1 - K is K's defining equation: h(k) is exactly the mean of
    |cos t - k| minus (1 - k), and ``solve_K`` certifies the sign change
    of h.  For every k in [0, 1) the sup is 1 + k, at t = pi, and the
    variation is 4: f falls by 1 - k to 0 at arccos k, rises by 1 + k to
    t = pi, and mirrors both on [pi, 2 pi].
    """

    K: float
    mean: float
    sup: float
    variation: float

    @classmethod
    def build(cls) -> "PeriodicF":
        k = solve_K().mid
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


def _tss_grid(cs: np.ndarray, k1s) -> np.ndarray:
    """The small-range tail sum at each c of ``cs`` (rows) and k1 of ``k1s``
    (columns): the sup over tau in (0, 1] of the series truncated at k1 plus
    its tail factor, at tau = 1, as every term rises with tau.
    One (c, k) table of the terms up to the largest k1; each k1 sums its
    first k1 + 1 along the contiguous k axis, np.sum's order on one row.
    ``last`` uses libm's exp, as numpy's may round differently."""
    x = (cs[:, None] + TWO_PI * np.arange(max(k1s) + 1.0)) / DECAY_SCALE
    terms = np.exp(-np.sqrt(x))
    out = np.empty((cs.size, len(k1s)))
    for j, k1 in enumerate(k1s):
        ends = -np.sqrt((cs + TWO_PI * k1) / DECAY_SCALE)
        last = np.array(list(map(math.exp, ends.tolist())))
        tail_factor = (math.sqrt(DECAY_SCALE) * np.sqrt(TWO_PI * k1 + cs)
                       + DECAY_SCALE) / math.pi
        out[:, j] = terms[:, : k1 + 1].sum(axis=-1) + last * tail_factor
    return out


def _sum_prefixes(n: int):
    """The prefix lengths, longest first, whose np.sum is a left operand of
    numpy 2's pairwise np.sum over n contiguous float64 (a test guards it)."""
    while n > 128:
        n = n // 2 - n // 2 % 8
        yield n


def _tail_integral(a, b, t0):
    """The integral of exp(-sqrt(a + b t)) over t >= t0, with u = sqrt(a + b t0)."""
    u = np.sqrt(a + b * t0)
    return 2.0 / b * (u + 1.0) * np.exp(-u)


def _tsl_at(eps: float, k2: int, tau: float, two_pi_ks: np.ndarray,
            buf: np.ndarray) -> float:
    """The series at tau with the bits of np.sum over all k2 + 1 terms, from
    the shortest prefix m of ``_sum_prefixes`` whose tail bound B (the
    integral from m - 1/2, with ``_tsl_upper``'s slack, which also covers
    the integral's own underflow) is below ulp(f(0))/4: the full sum adds
    each dropped right part R <= B to the prefix sum L >= f(0), and
    B < ulp(L)/2 with numpy's f(0) a few ulps off libm's, so L + R rounds to L."""
    base = (1.0 + eps) * math.log(tau + 3.0) ** 2
    if math.sqrt(base) >= 746.0:
        return 0.0  # every term and the tail term underflow to 0, as in _tsl_upper
    b = TWO_PI / (DECAY_SCALE * tau)
    limit, m = math.ulp(math.exp(-math.sqrt(base))) / 4.0, k2 + 1
    for half in _sum_prefixes(m):
        if not _tail_integral(base, b, half - 0.5) * (1.0 + 1e-9) + 1e-300 < limit:
            break  # a NaN bound stops here too
        m = half
    # terms exp(-sqrt(base + 2 pi k / (DECAY_SCALE tau))), k = 0..m-1, in buf
    buf = buf[:m]
    np.divide(two_pi_ks[:m], DECAY_SCALE * tau, out=buf)
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
    in k, so f(k) is at most the integral of f over [k - 1/2, k + 1/2]: the
    sum over k = 1..k2 is at most ``_tail_integral`` from 1/2, (2/b)(u + 1)
    e^-u, and at most k2 f(1/2).  Neither subtracts, so nothing cancels.
    f(0) and the tail term are added as ``_tsl_at`` has them.

    Rounding: every argument x = sqrt(...) of an exp, here and in
    ``_tsl_at``, is off by a few ulps relative (tau from np.exp rather than
    math.exp included), so each term is off by at most 745 * 8 * 2^-53 <
    1e-12 relative while x <= 745, and by under 2^-1074 absolute where exp
    is subnormal, under 1e-311 for all k2 + 1 < 2^40 terms together; the
    pairwise sum of positive terms adds under 1e-14 relative.  The relative
    slack 1e-9 and the absolute 1e-300 cover both sides, two orders over;
    the raw bound was seen at most 4e-15 below ``_tsl_at``.  Where sqrt(a)
    >= 746, every exp argument in both is below -745.2, so every term and
    the series are exactly 0, and so is the bound.
    """
    tau = np.exp(s)
    a = (1.0 + eps) * np.log(tau + 3.0) ** 2
    b = TWO_PI / (DECAY_SCALE * tau)
    last = np.exp(-np.sqrt(a + b * k2))
    tail_factor = (np.sqrt(DECAY_SCALE * tau) * np.sqrt(TWO_PI * k2 + tau * DECAY_SCALE * a)
                   + DECAY_SCALE * tau) / math.pi
    total = (np.exp(-np.sqrt(a)) + last * tail_factor
             + np.minimum(_tail_integral(a, b, 0.5), k2 * np.exp(-np.sqrt(a + 0.5 * b))))
    return np.where(np.sqrt(a) >= 746.0, 0.0, total * (1.0 + 1e-9) + 1e-300)


def tail_sum_large(eps: float, k2: int) -> float:
    """Sup of the large-range tail series over tau >= 1, sampled over
    log tau in [0, 30]: a golden section, then a thousand-point grid
    (endpoints included) whose points win only if larger.  A sampled max,
    not a certified sup.  A grid point runs the series only where
    ``_tsl_upper`` is above the running max: a skipped point cannot win
    (on a tie max keeps the running max), so the result has the bits of
    the full scan, as each series has those of its full sum (``_tsl_at``)."""
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
        if not upper <= best:  # NaN runs the series, as max(best, *grid) would
            best = max(best, g(s))
    return best


# ---------------------------------------------------------------------------
# case constants and their optimizer


def _case_i(c: float, f: PeriodicF) -> float:
    return (1.0 - f.K) * (MERTENS_M + 1.0) + (1.0 + 1e-8) * c * c / 4.0


def _case_iv(eps: float, f: PeriodicF) -> float:
    w = (1.0 + eps) * DECAY_SCALE
    return (1.0 + f.K) * (
        math.log(w) + MERTENS_M + 1.0 / (w * w * math.log(4.0) ** 4)
    )


def _case_iii_sup(eps: float, k2: int, f: PeriodicF) -> float:
    """The sup over tau >= 1 of the long-range case constant, with w = (1 +
    eps) DECAY_SCALE and log_w = w log^2(tau + 3).  Term by term: 2 K log w
    is free of tau; (1 + K)(M + 1/(w^2 log^4(tau + 3))), (pi/(2 tau log_w) +
    TAIL_COEFF T) V, T the tail series' sup over tau >= 1, and SUP_COEFF
    S/log_w decrease in tau.  So the sup is at tau = 1: log(tau + 3) = log 4."""
    w = (1.0 + eps) * DECAY_SCALE
    log_w = w * math.log(4.0) ** 2
    return (
        2.0 * f.K * math.log(w)
        + (1.0 + f.K) * (MERTENS_M + 1.0 / (w * w * math.log(4.0) ** 4))
        + ((math.pi / (2.0 * log_w) + TAIL_COEFF * tail_sum_large(eps, k2)) * f.variation
           + SUP_COEFF / log_w * f.sup)
    )


def case_bounds(params: ErrorParams) -> dict:
    """The four additive case constants and their max, as the ``constants``
    report prints them less the gaps: params (as a dict), c_i, c_ii (the
    short-range case, one cell of ``_c_ii_grid``), c_iii (a sup over tau,
    at c_iii_tau = 1 by ``_case_iii_sup``), c_iv (the trivial range) and c0,
    the max of the three non-degenerate cases."""
    f = PeriodicF.build()
    cii = float(_c_ii_grid([params.c], [params.k1], f)[0, 0])
    ciii = _case_iii_sup(params.eps, params.k2, f)
    civ = _case_iv(params.eps, f)
    return {
        "params": asdict(params),
        "c_i": _case_i(params.c, f),
        "c_ii": cii,
        "c_iii": ciii,
        "c_iii_tau": 1.0,
        "c_iv": civ,
        "c0": max(cii, ciii, civ),
    }


# The optimizer's default grids and their steps; i/100 is the float nearest its decimal
_PER_UNIT = 100
GRID_STEPS = {"c": 1 / _PER_UNIT, "k1": 1, "eps": 1 / _PER_UNIT}
DEFAULT_C_GRID = tuple(i / _PER_UNIT for i in range(100, 501))
DEFAULT_K1_GRID = tuple(range(0, 21, GRID_STEPS["k1"]))
DEFAULT_EPS_GRID = tuple(i / _PER_UNIT for i in range(50, 1001))
DEFAULT_K2_GRID = (10 ** 3, 10 ** 4, 10 ** 5, 3 * 10 ** 5, 10 ** 6)


def _c_ii_grid(c_grid, k1_grid, f: PeriodicF) -> np.ndarray:
    """c_ii, case (i) plus (pi/(2c) + TAIL_COEFF tss) V + (SUP_COEFF/c) S, at
    every (c, k1) of the grids from one tail-sum table: the one c_ii formula,
    of which ``case_bounds`` reads a 1 x 1 grid."""
    cs = np.array(c_grid, dtype=np.float64)[:, None]
    tss = _tss_grid(cs[:, 0], k1_grid)
    return _case_i(cs, f) + (
        (math.pi / (2.0 * cs) + TAIL_COEFF * tss) * f.variation + (SUP_COEFF / cs) * f.sup)


def optimize_C0(c_grid, k1_grid, eps_grid, k2_grid):
    """Exhaustive-equivalent minimization of the max-of-cases constant
    over the grid product.  Returns (ErrorParams, achieved value).

    The objective splits as max(A(c, k1), G(eps, k2)) with
    A = c_ii and G = max(c_iii, c_iv), so the scan minimizes each half;
    the G half stops at the first (lex order) pair with G <= min A,
    which is then provably part of the lexicographically smallest
    argmin.  The trivial-range constant grows with eps, which prunes the
    remaining eps values once it passes both min A and the best G seen.
    A is one array over the grid, from one tail-sum table, whose cells
    are case_bounds' c_ii.
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
    f = PeriodicF.build()

    a_grid = _c_ii_grid(c_grid, k1_grid, f)
    a_min = float(a_grid.min())

    g_best = math.inf
    g_arg = None
    for eps in eps_grid:
        civ = _case_iv(eps, f)
        if civ > a_min and civ >= g_best:
            break
        for k2 in k2_grid:
            g = max(_case_iii_sup(eps, k2, f), civ)
            if g < g_best:  # a first G <= min A is below every G before it
                g_best, g_arg = g, (eps, k2)
            if g <= a_min:
                break
        if g_best <= a_min:
            break

    achieved = max(a_min, g_best)  # min A wherever a G <= min A was found
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
    """Enclosure of sqrt of s(c), the sum over integer k of log^c(|k|+4) /
    ((k-1/2)^2 + 1), over c = 2 + 2K for all K in ``solve_K()``.  Terms grow
    with c (log(|k|+4) > 1), so the ends are s at c from K.lo rounded down
    and from K.hi rounded up: the head |k| <= T = k_trunc (``_nu3_head``)
    plus the tail (``_nu3_tail``), padded, the square root rounded outward."""
    if k_trunc < 10 ** 3:
        raise DomainError(f"nu3 needs k_trunc >= 1e3, got {k_trunc}")
    ends = []
    for k, side in ((solve_K().lo, -math.inf), (solve_K().hi, math.inf)):
        c = outward(2.0 + 2.0 * k, side)
        (s, pad), (tail, tail_pad) = _nu3_head(k_trunc, c), _nu3_tail(k_trunc, c)
        s += tail + math.copysign(pad + tail_pad, side)
        ends.append(outward(math.sqrt(s), side))
    return Enclosure(*ends)


# 16-point Gauss-Legendre on [-1, 1], weights halved, as Golub-Welsch by np.linalg.eigh gave them
_GL_NODES = (
    -0.9894009349916495, -0.9445750230732327, -0.8656312023878319, -0.7554044083550033,
    -0.6178762444026443, -0.4580167776572275, -0.2816035507792588, -0.0950125098376372,
    0.09501250983763725, 0.28160355077925897, 0.4580167776572271, 0.617876244402644,
    0.7554044083550031, 0.8656312023878318, 0.9445750230732326, 0.9894009349916498)
_GL_WEIGHTS = (
    0.013576229705877282, 0.03112676196932351, 0.04757925584124631, 0.06231448562776711,
    0.07479799440828819, 0.08457825969750139, 0.0913017075224623, 0.09472530522753414,
    0.09472530522753445, 0.09130170752246193, 0.08457825969750142, 0.0747979944082887,
    0.06231448562776742, 0.047579255841246226, 0.03112676196932403, 0.013576229705877196)


def _nu3_tail(k_trunc: int, c: float) -> tuple:
    """(v, pad): the sum over k > T = k_trunc of g(k) = log^c(k+4) w(k), w(t)
    = 1/((t-1/2)^2 + 1) + 1/((t+1/2)^2 + 1) (k paired with -k), lies in
    v -+ pad, for T >= 1e3 and 2 <= c < 3.  Euler-Maclaurin gives I - g(T)/2
    - g'(T)/12 + R, I the integral of g over t >= T, |R| <= (sqrt 3/216)
    times the integral of |g'''|.  By Leibniz, with |(1/(1+x^2))^(j)| <=
    (j+1)!/x^(j+2) and |(L^c)^(j)| <= (j-1)! c L^(c-1)/t^j, L = log(t+4):
    |g'''| <= (48 + 52c/L) L^c/(t-1/2)^5 <= 71 L^c/(t-1/2)^5, and L^c/(t-1/2)
    decreases, so |R| <= 0.19 L(T)^c/(T-1/2)^4.

    I in s = log t: 16-point Gauss-Legendre (Golub-Welsch) on 17 panels of
    length l = 2 from log T.  F(s) = e^s g(e^s) is analytic for |Im s| <= d
    = 1.5, with |F| <= M(r) = 2r (log(r+4) + d^2/(2 log r))^c / ((r-1/2)^2
    - 1), r = e^(Re s), so Cauchy's estimate in the Gauss error term bounds a
    panel from a by l^33 (16!)^4 M(e^(a-d)) / (33 (32!)^2 d^32).  Past the
    panels, from t0, g <= 2 log^c(t+4)/(t-1/2)^2 and the decrease of
    log(t+4)/log(t-1/2) give at most 2 log^c(t0+4) e^-b/(1 - c/b), b =
    log(t0-1/2), by the incomplete gamma bound; doubled for its roundings.
    F's roundings (45u each), the nodes and weights (1e-14), the float panel
    ends and the sums stay under 1e-13 relative: the 1e-12 pad covers them."""
    n, d, width, panels = 16, 1.5, 2.0, 17
    starts = math.log(k_trunc) + width * np.arange(panels)
    t = np.exp(starts[:, None] + 0.5 * width * (1.0 + np.array(_GL_NODES)))
    w = 1.0 / ((t - 0.5) ** 2 + 1.0) + 1.0 / ((t + 0.5) ** 2 + 1.0)
    quad = width * float(np.sum(np.array(_GL_WEIGHTS) * t * np.log(t + 4.0) ** c * w))
    r = np.exp(starts - d)
    big_m = 2.0 * r * (np.log(r + 4.0) + d * d / (2.0 * np.log(r))) ** c / ((r - 0.5) ** 2 - 1.0)
    gauss = (width ** (2 * n + 1) * math.factorial(n) ** 4
             / ((2 * n + 1) * math.factorial(2 * n) ** 2 * d ** (2 * n)))
    t0 = math.exp(float(starts[-1]) + width)
    b = math.log(t0 - 0.5)
    far = 2.0 * math.log(t0 + 4.0) ** c * math.exp(-b) / (1.0 - c / b)
    big_l, ys = math.log(k_trunc + 4.0), (k_trunc - 0.5, k_trunc + 0.5)
    g = big_l ** c * sum(1.0 / (y * y + 1.0) for y in ys)
    dg = (c * g / (big_l * (k_trunc + 4.0))
          - 2.0 * big_l ** c * sum(y / (y * y + 1.0) ** 2 for y in ys))
    pad = (gauss * float(np.sum(big_m)) + 2.0 * far + 0.19 * big_l ** c / (k_trunc - 0.5) ** 4
           + 1e-12 * (quad + g / 2.0 - dg / 12.0))
    return quad - g / 2.0 - dg / 12.0, pad


def _nu3_head(k_trunc: int, c: float) -> tuple:
    """(s, pad): the head sum over |k| <= T = k_trunc lies in s -+ pad.
    k = 0 stands alone and each k >= 1 is paired with -k, log^c(k+4)
    weighted by 1/((k-1/2)^2 + 1) + 1/((k+1/2)^2 + 1), 2^16 pairs a block.

    Rounding, u = U (``core``), numpy's log and pow taken at 8u, four times
    their 1 ulp: log(k+4) errs by 8u, raised to 8cu by pow, which adds 8u;
    (k -+ 1/2)^2 + 1 rounds twice at most, its reciprocal and the weight's
    sum once each, 4u; the product once.  So each of the n = T + 1 terms is
    within E = (8c + 14)u, one u spare for second-order terms; any
    summation order adds gamma_{n-1} times their sum, at most s / (1 - gamma)."""
    s = math.log(4.0) ** c / 1.25  # k = 0
    for lo in range(1, k_trunc + 1, 1 << 16):
        k = np.arange(lo, min(lo + (1 << 16), k_trunc + 1), dtype=np.float64)
        w = 1.0 / ((k - 0.5) ** 2 + 1.0) + 1.0 / ((k + 0.5) ** 2 + 1.0)
        s += float(np.sum(np.log(k + 4.0) ** c * w))
    gamma = gamma_n(k_trunc)
    return s, ((8.0 * c + 14.0) * U + gamma) * s / (1.0 - gamma)


@dataclass(frozen=True)
class ConstantLedger:
    """The assembled constant chain; K (the midpoint), nu2 and nu3 (upper
    ends; nu3's holds over all of K's enclosure) are read off their
    enclosures, which ``as_dict`` omits.  The published M and gamma and the
    provenance tags belong to the type: ``as_dict`` tags as published M,
    gamma and a C0 equal to PUBLISHED_C0, C, a and final as derived, the rest
    as computed."""

    K_enclosure: Enclosure
    C0: float
    nu1: float
    nu2_enclosure: Enclosure
    nu3_enclosure: Enclosure
    C: float
    a: float
    final: float

    M = MERTENS_M
    gamma = EULER_GAMMA
    K = property(lambda self: self.K_enclosure.mid)
    nu2 = property(lambda self: self.nu2_enclosure.hi)
    nu3 = property(lambda self: self.nu3_enclosure.hi)

    def as_dict(self) -> dict:
        names = ("K", "C0", "nu1", "nu2", "nu3", "M", "gamma", "C", "a", "final")
        published = ("M", "gamma", "C0") if self.C0 == PUBLISHED_C0 else ("M", "gamma")
        return {name: {"value": getattr(self, name),
                       "provenance": PROVENANCE_PUBLISHED if name in published
                       else PROVENANCE_DERIVED if name in ("C", "a", "final")
                       else PROVENANCE_COMPUTED}
                for name in names}


def assemble_ledger(C0: float, table: PrimeTable) -> ConstantLedger:
    """Chain the constants from C0 to the final mean-value coefficient.

    nu1 is the tail-power bound at alpha = 1, where it is largest; nu2
    sums over the primes of ``table`` up to LEDGER_PRIMES only, so any
    table sieved at least that far gives the same ledger; nu2 and nu3 come
    in as enclosure upper ends, and C, a, final follow the ledger
    identities exactly as stated on the ConstantLedger type.  A C0 for
    which one of them is not finite (from about 704 up) is a DomainError.
    """
    if C0 <= 0:
        raise DomainError(f"assemble_ledger needs C0 > 0, got {C0}")
    if table.limit > LEDGER_PRIMES:
        table = PrimeTable(LEDGER_PRIMES, table.primes[: table.prime_pi(LEDGER_PRIMES)])
    k_enc, nu2_enc, nu3_enc = solve_K(), nu2(table), nu3(LEDGER_NU3_TERMS)
    k, nu1 = k_enc.mid, tail_power_sum_bound(1.0)
    big_c = C0 + nu1 + nu2_enc.hi + k * (MERTENS_M + 1.0)
    try:
        a_const = 3.14 * nu3_enc.hi * math.exp(big_c) * math.exp(1.82 * k) / (1.0 - 2.0 * k)
        final = a_const * math.exp(2.0 * k * MERTENS_M + 1.21 * k)
    except OverflowError:
        a_const = final = math.inf
    if not all(map(math.isfinite, (big_c, a_const, final))):
        raise DomainError(f"C0 = {C0} overflows the ledger: a = {a_const}, final = {final}")
    return ConstantLedger(
        K_enclosure=k_enc,
        C0=C0,
        nu1=nu1,
        nu2_enclosure=nu2_enc,
        nu3_enclosure=nu3_enc,
        C=big_c,
        a=a_const,
        final=final,
    )


# ---------------------------------------------------------------------------
# headline formulas


def delta(c: float, big_constant: float = PUBLISHED_FINAL) -> float:
    """The natural log of the headline delta(c), as a float.

    delta itself underflows binary64 for every admissible c, so only its
    log is computed and returned.  The formula's o(1) term is dropped;
    reports stamp that.  delta <= 2/7 always holds, and is checked.
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
    return log_d


def delta_table_candidate(c: float, big_constant: float = PUBLISHED_FINAL) -> float:
    """Reverse-engineered closed form 0.2 (c/big_constant)^(1/2K) that
    reproduces the published delta table to a few percent.  This is a
    diagnostic for discrepancy reports, not ground truth."""
    if not (0.0 < c <= 1.0):
        raise DomainError(f"delta_table_candidate needs 0 < c <= 1, got {c}")
    k = solve_K().mid
    return 0.2 * (c / big_constant) ** (1.0 / (2.0 * k))


# ---------------------------------------------------------------------------
# published-table reproduction


def _published_cell(c1: float, c: float):
    """Published epsilon for (c1, c) when the pair is in the reference
    grid, else None.  Subsets of the grid match cell by cell."""
    for i, v in enumerate(EPSILON_TABLE_C1):
        if math.isclose(c1, v, rel_tol=1e-12):
            for j, w in enumerate(EPSILON_TABLE_C):
                if math.isclose(c, w, rel_tol=1e-12):
                    return EPSILON_TABLE_CELLS[i][j]
    return None


def table1_report(c1_list, c_list, delta_table: dict):
    """Reproduce the published epsilon table from the 4 pi formula with
    the published delta values as overrides, and report every law the
    table should satisfy plus every other discrepancy it shows, as findings.

    Returns (result, findings): result is the ``table`` report's entry, with
    c1, c, delta, cells (a row per c1, a column per c), column_factors,
    published and ratios (None off the reference grid), checks and notes;
    findings are discrepancies that fail no check.
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
    findings = []
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
        outliers = set()
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
                    outliers.add((i, j))
                    findings.append({
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

        # power law across columns, judged on every requested row; a pair
        # touching an outlier cell is left out, so the verdict does not
        # depend on the order of the rows
        pairs = [
            (i, j)
            for i in range(len(c1_values))
            for j in range(len(c_values) - 1)
            if published[i][j] is not None and published[i][j + 1] is not None
            and (i, j) not in outliers and (i, j + 1) not in outliers
        ]
        if pairs:
            worst_dev = 0.0
            for i, j in pairs:
                pub_ratio = published[i][j + 1] / published[i][j]
                law_ratio = (deltas[j] / deltas[j + 1]) ** 1.5
                worst_dev = max(worst_dev, abs(pub_ratio / law_ratio - 1.0))
            checks["column-power-law"] = {
                "passed": worst_dev <= 0.02,
                "detail": f"worst relative deviation {worst_dev:.6f} (allowed 0.02)",
            }
        else:
            notes.append("power-law check needs two adjacent reference columns")

        mean_ratio = math.fsum(flat_ok) / len(flat_ok)
        spread = (max(flat_ok) - min(flat_ok)) / mean_ratio
        checks["common-factor-spread"] = {
            "passed": spread <= 0.02,
            "detail": f"spread {spread:.6f} over {len(flat_ok)} cells (allowed 0.02)",
        }
        findings.append({
            "kind": "global-factor",
            "factor": mean_ratio,
            "sqrt2_deviation": mean_ratio / math.sqrt(2.0) - 1.0,
            "note": "published cells exceed the direct formula by a common "
                    "factor close to sqrt 2; reported, not corrected",
        })
        for c, d in zip(c_values, deltas):
            cand = delta_table_candidate(c)
            findings.append({
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

    return {
        "c1": c1_values,
        "c": c_values,
        "delta": deltas,
        "cells": cells,
        "column_factors": column_factors,
        "published": published,
        "ratios": ratios,
        "checks": checks,
        "notes": notes,
    }, findings
