"""Log-domain Dickman rho and the smooth-number exponent checks.

rho(x) is 1 on [0,1], 1 - log x on [1,2], and beyond satisfies the
delay equation x*rho'(x) + rho(x-1) = 0, equivalently the integral
identity x*rho(x) = integral of rho over [x-1, x].  On [k, k+1],
rho(k + 1/2 + s) = e^{L_k} sum_{n<=N} a_n s^n with a_0 = 1 and the level
L_k kept as a log, so values near e^-700 never underflow (van de Lune
and Wattel, Math. Comp. 23, 1969; Marsaglia, Zaman and Marsaglia, Math.
Comp. 53, 1989).  The exponent checks sweep ``core.anchored_grid`` chunks,
reading the table at row j - 1/step and an off-grid endpoint by its series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_ETA, Enclosure, U, VerificationReport, anchored_grid, outward, sweep
from .errors import (
    DomainError,
    PrecisionError,
    PreconditionError,
    ResourceError,
    UsageError,
)

MAX_STEP = 2.0 ** -8
DEFAULT_STEP = 2.0 ** -10
# cap on (x_max - 1)/step, checked before allocating: x_max <= 4097 at 2^-10
MAX_TABLE_STEPS = 1 << 22
# series degree: the truncation tail stays below 1e-17 relative to x = 4097
_TERMS = 40


@dataclass(frozen=True)
class RhoLogTable:
    """log rho on the uniform grid x_j = 1 + j*step with per-point
    absolute error bounds, and the series behind it: row k-1 of ``coef``
    holds a_0..a_N on [k, k+1], ``level`` L_k and ``level_err`` a bound
    on |log(e^{L_k} sum a_n s^n) - log rho| there."""

    x_max: float
    step: float
    xs: np.ndarray
    log_values: np.ndarray
    err: np.ndarray
    coef: np.ndarray
    level: np.ndarray
    level_err: np.ndarray

    def __len__(self) -> int:
        return int(self.xs.size)


def _series(n_intervals: int):
    """Coefficients, levels and level errors of unit intervals 1..n.

    In the scale of the previous interval's coefficients b (rho = 1 on
    [0, 1] for k = 1), with c = k + 1/2, the delay equation gives
    A_m = (1/m) sum_{j<m} b_j (-1/c)^(m-j), terms of one sign as b
    alternates, and the integral identity at the midpoint gives
    k A_0 = int_0^{1/2} sum b_n s^n + int_{-1/2}^0 sum_{n>=1} A_n s^n, two
    positive parts.  The identity is a Volterra equation with a positive
    kernel, so a relative error passes to the next interval unamplified.
    Each interval adds, against a lower bound of its value at s = 1/2, the
    rounding of the A_m (3m roundings each) and of A_0, the tail past
    degree N (|A_m| shrinks by 1/c per term past N + 1, as b stops at N),
    the normalisation, and the rounding of log A_0 and of L_k; a factor 2
    covers second-order terms and the rounding of the bound itself; n
    roundings err by at most n U >= gamma_n (``core``).
    """
    N = _TERMS
    n = np.arange(N + 2)
    w = 0.5 ** (n + 1) / (n + 1)  # int_0^{1/2} s^n ds
    half = 0.5 ** n[:-1]
    g_coef, g_sum = 3 * n[1:] * U, (N + 3) * U
    coef = np.empty((n_intervals, N + 1))
    level, level_err = np.empty(n_intervals), np.empty(n_intervals)
    b = np.zeros(N + 1)
    b[0] = 1.0
    L = lam = 0.0
    for k in range(1, n_intervals + 1):
        c = k + 0.5
        pw = np.cumprod(np.concatenate(([1.0], np.full(N + 1, -c))))  # (-c)^j
        A = np.empty(N + 2)
        A[1:] = np.cumsum(b * pw[:-1]) / (pw[1:] * n[1:])
        absA = np.abs(A[1:])
        errA = g_coef * absA
        i_b, i_a = float(w[:-1] @ b), float(w[1:-1] @ absA[:-1])
        A[0] = a0 = (i_b + i_a) / k
        top = (absA[-1] + errA[-1]) / (1.0 - 0.5 / c)  # bounds sum_{m>N} |A_m| 2^(N+1-m)
        d = ((g_sum * (float(w[:-1] @ np.abs(b)) + i_a) + float(w[1:-1] @ errA[:-1])
              + top * w[-1] + U * (i_b + i_a)) / k + U * a0
             + float(half[1:] @ (errA[:-1] + U * absA[:-1])) + top * 0.5 ** (N + 1))
        p_low = float(half @ A[:-1]) - g_sum * (a0 + float(half[1:] @ absA[:-1])) - d
        if not p_low > 0.0:
            raise PrecisionError(f"rho series lost its lower bound on [{k}, {k + 1}]")
        lg = math.log(a0)
        L += lg
        lam = -math.log1p(-math.expm1(lam)) + 2.0 * (
            d / p_low + U * (2.0 * abs(lg) + abs(L)))
        b = coef[k - 1] = A[:-1] / a0
        level[k - 1], level_err[k - 1] = L, lam
    return coef, level, level_err


def _log_rho(coef, level, level_err, s, mirror):
    """log rho and its error bound at offsets s on the rows' intervals,
    where column ``mirror[i]`` of s holds -|s[i]|.

    The coefficients alternate, so the Horner value q at -|s| is
    sum |a_n| |s|^n, and Horner's rounding is at most g = 2N u times q,
    at most 2g q/p relative when g q <= p/4 (checked).  With the factor 2
    of ``_series`` the bound adds 4g q/p, and 2u(2|log p| + |v|) for the
    rounding of log p and v = log p + L, where |log p| <= |v| + |L|.
    """
    p = np.empty((coef.shape[0], s.size))
    p[...] = coef[:, -1:]
    for j in range(coef.shape[1] - 2, -1, -1):
        p *= s
        p += coef[:, j : j + 1]
    g = 2 * _TERMS * U
    ratio = p[:, mirror]
    ratio /= p
    if not ratio.max() * g <= 0.25:
        raise PrecisionError("rho series value lost to rounding")
    v = np.log(p, out=p)
    v += level[:, None]
    err = np.abs(v)
    err *= 6.0 * U
    ratio *= 4.0 * g
    err += ratio
    err += (level_err + 4.0 * U * np.abs(level))[:, None]
    return v, err


def build_rho_table(x_max: float, step: float = DEFAULT_STEP) -> RhoLogTable:
    """Build the log rho table on [1, x_max]: one series per unit
    interval (``_series``), evaluated by one Horner pass over an
    (intervals x 1/step) array.  err is a bound, not an estimate
    (``_log_rho``), and log rho(1) = 0 is exact.  The step is a power of
    two, so grid points and their offsets from the midpoints are exact.
    """
    if x_max < 2:
        raise DomainError(f"build_rho_table needs x_max >= 2, got {x_max}")
    if step > MAX_STEP:
        raise PrecisionError(f"step {step} too large; the table needs step <= 2^-8")
    n_real = (x_max - 1.0) / step
    if not n_real <= MAX_TABLE_STEPS:
        raise ResourceError(f"{n_real:.6g} table steps exceed the cap {MAX_TABLE_STEPS}")
    if not (n_real.is_integer() and math.frexp(step)[0] == 0.5):
        raise PreconditionError(
            f"step must be a power of two and (x_max - 1)/step an integer, "
            f"got x_max={x_max}, step={step}"
        )
    n, m = int(n_real), int(1.0 / step)
    coef, level, level_err = _series(n // m + 1)
    cols = np.arange(m)
    # column min(i, m - i) holds -|s_i|
    v, err = _log_rho(coef, level, level_err, (cols - m // 2) * step,
                      np.minimum(cols, m - cols))
    log_values, err = v.ravel()[: n + 1], err.ravel()[: n + 1]
    log_values[0] = err[0] = 0.0
    return RhoLogTable(x_max=float(x_max), step=float(step),
                       xs=1.0 + step * np.arange(n + 1), log_values=log_values,
                       err=err, coef=coef, level=level, level_err=level_err)


def rho_log(x: float, table: RhoLogTable) -> Enclosure:
    """Enclosure of log rho(x): the table entry on a grid point, else the
    interval's series at x with the same error bound."""
    if not (1.0 <= x <= table.x_max):
        raise DomainError(f"rho_log needs 1 <= x <= {table.x_max}, got {x}")
    pos = (x - 1.0) / table.step  # exact for a power-of-two step
    if pos == int(pos):
        v, e = table.log_values[int(pos)], table.err[int(pos)]
    else:
        k = min(int(x), table.level.size)
        s, r = x - (k + 0.5), slice(k - 1, k)
        v, e = _log_rho(table.coef[r], table.level[r], table.level_err[r],
                        np.array([s, -abs(s)]), [1, 1])
        v, e = v[0, 0], e[0, 0]
    return Enclosure(outward(v - e, -math.inf, e), outward(v + e, math.inf, e))


def _table_lower(table: RhoLogTable, xs: np.ndarray, j) -> np.ndarray:
    """Enclosure lower edges at an ``anchored_grid`` chunk: table row
    j - 1/step at x = j*step (both exact for a power-of-two step), or
    ``rho_log`` at the endpoints off the grid (j is None)."""
    if j is None:
        return np.array([rho_log(x, table).lo for x in xs])
    rows = j - round(1.0 / table.step)
    err = table.err[rows]
    return outward(table.log_values[rows] - err, -math.inf, err)


def _buchstab_vec(xs: np.ndarray) -> np.ndarray:
    logx = np.log(xs)
    delta = 1.0 / (logx + 1.0 + logx / xs)
    return -xs * (1.0 + 1.0 / logx) * (
        np.log(xs + delta) - np.log(delta) - 1.0
    ) - 2.0 * logx


def verify_rho_exponent(
    x_lo: float,
    x_hi: float,
    exponent: float,
    source: str,
    table: RhoLogTable | None = None,
    eta: float = DEFAULT_ETA,
) -> VerificationReport:
    """Check log rho(x) >= -exponent * x * log x over [x_lo, x_hi].

    source="table" reads enclosure lower edges off the table grid;
    source="buchstab" uses the closed-form lower bound on a 2^-10
    anchored grid of at most MAX_TABLE_STEPS steps.  Either way the
    check goes through a lower bound, so a pass is conservative.  The
    exponent must be finite and positive (DomainError).
    """
    if source not in ("table", "buchstab"):
        raise UsageError(f"source must be 'table' or 'buchstab', got {source!r}")
    if not 0.0 < exponent < math.inf:
        raise DomainError(f"exponent must be finite and positive, got {exponent}")
    if not (x_lo <= x_hi):
        raise UsageError(f"empty range [{x_lo}, {x_hi}]")
    notes = []
    if source == "table":
        if table is None:
            raise PreconditionError("source='table' needs a rho table")
        if not (1.0 <= x_lo and x_hi <= table.x_max):
            raise PreconditionError(
                f"range [{x_lo}, {x_hi}] must sit inside [1, {table.x_max}]"
            )
        chunks = anchored_grid(x_lo, x_hi, table.step)
        notes.append("margins use table enclosure lower edges")
    else:
        if x_lo < 6:
            raise PreconditionError(
                f"source='buchstab' is valid for x >= 6, requested x_lo = {x_lo}"
            )
        n_real = (x_hi - x_lo) / DEFAULT_STEP
        if not n_real <= MAX_TABLE_STEPS:
            raise ResourceError(
                f"{n_real:.6g} grid steps exceed the cap {MAX_TABLE_STEPS}")
        chunks = anchored_grid(x_lo, x_hi, DEFAULT_STEP)
        notes.append("margins use the closed-form lower bound")

    def margins(xs, j):
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = -exponent * xs * np.log(xs)
        lower = _buchstab_vec(xs) if source == "buchstab" else _table_lower(table, xs, j)
        return lower - bound, np.abs(bound)

    return sweep(chunks, margins, eta).report(f"rho-exponent-{source}", x_lo, x_hi, notes)


def max_exponent(table: RhoLogTable, x_lo: float, x_hi: float) -> float:
    """Largest e such that log rho(x) >= -e*x*log x holds at every grid
    point of [x_lo, x_hi] above 1, judged through enclosure lower edges."""
    if not (1.0 <= x_lo < x_hi <= table.x_max):
        raise PreconditionError(
            f"range [{x_lo}, {x_hi}] must sit inside [1, {table.x_max}]"
        )
    exponents = [float(np.max(-_table_lower(table, xs, j) / (xs * np.log(xs))))
                 for xs, j in anchored_grid(max(x_lo, 1.0 + table.step), x_hi, table.step)
                 if j is not None]
    if not exponents:
        raise PreconditionError(f"range [{x_lo}, {x_hi}] holds no grid point above 1")
    return max(exponents)


def divisor_mean_lower_bound(x: float, u: float) -> float:
    """Lower bound 0.2 * log x * exp(-u*(1.42*e^(u/2) + 1/2)) for the
    average of a convolved divisor-type sum; the asymptotic o(1) term in
    the source estimate is dropped, which every caller documents."""
    if not x > 1:  # NaN fails too
        raise DomainError(f"divisor_mean_lower_bound needs x > 1, got {x}")
    if not u >= 0:
        raise DomainError(f"divisor_mean_lower_bound needs u >= 0, got {u}")
    return 0.2 * math.log(x) * math.exp(-u * (1.42 * math.exp(u / 2.0) + 0.5))
