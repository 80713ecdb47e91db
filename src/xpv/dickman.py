"""Log-domain Dickman rho solver and the smooth-number exponent checks.

rho(x) is 1 on [0,1], 1 - log x on [1,2], and beyond satisfies the
delay equation x*rho'(x) + rho(x-1) = 0, equivalently the integral
identity x*rho(x) = integral of rho over [x-1, x].  The solver marches
the integral identity with an implicit trapezoid step, keeping the
moving window as ratios against its newest entry and the absolute level
as a separate log, so values near e^-700 never underflow.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_ETA, Enclosure, VerificationReport, sweep_report
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
# a position within this many steps of a grid index is that grid point
_ON_GRID = 1e-9


@dataclass(frozen=True)
class RhoLogTable:
    """log rho on the uniform grid x_j = 1 + j*step, with per-point
    absolute error bounds from step-doubling."""

    x_max: float
    step: float
    xs: np.ndarray
    log_values: np.ndarray
    err: np.ndarray

    def __len__(self) -> int:
        return int(self.xs.size)


def _march(x_max: float, h: float) -> np.ndarray:
    """March log rho from 1 to x_max at spacing h.  Returns log values.

    The window deque holds the last m+1 rho values as ratios against a
    running scale; A is the trapezoid integral of the window interior
    (Kahan-compensated incremental update, refreshed every m steps).
    """
    m = int(round(1.0 / h))
    n = int(round((x_max - 1.0) / h))
    xs = 1.0 + h * np.arange(n + 1)
    logv = np.empty(n + 1)
    logv[0] = 0.0
    logv[1 : m + 1] = np.log(1.0 - np.log(xs[1 : m + 1]))
    w = deque(np.exp(logv[: m + 1]), maxlen=m + 1)
    level = 0.0
    ww = list(w)
    A = h * (0.5 * ww[1] + math.fsum(ww[2:m]) + 0.5 * ww[m])
    comp = 0.0
    for j in range(m + 1, n + 1):
        x = 1.0 + h * j
        # implicit trapezoid: (x - h/2) rho_j = A + (h/2) rho_{j-1}
        rho = (A + 0.5 * h * w[-1]) / (x - 0.5 * h)
        logv[j] = math.log(rho) + level
        y = 0.5 * h * ((w[-1] + rho) - (w[1] + w[2])) - comp
        t = A + y
        comp = (t - A) - y
        A = t
        w.append(rho)
        if j % m == 0:
            ww = list(w)
            A = h * (0.5 * ww[1] + math.fsum(ww[2:m]) + 0.5 * ww[m])
            comp = 0.0
        if w[0] < 1e-250:
            s = 1.0 / w[0]
            level += math.log(w[0])
            w = deque([v * s for v in w], maxlen=m + 1)
            A *= s
            comp *= s
    return logv


def build_rho_table(x_max: float, step: float = DEFAULT_STEP) -> RhoLogTable:
    """Build the log rho table on [1, x_max].

    Error bounds come from a second march at step/2 and the standard
    Richardson factor 4/3 for a second-order scheme, plus a floor for
    rounding accumulation.
    """
    if x_max < 2:
        raise DomainError(f"build_rho_table needs x_max >= 2, got {x_max}")
    if step > MAX_STEP:
        raise PrecisionError(
            f"step {step} too large; the error model needs step <= 2^-8"
        )
    n_real = (x_max - 1.0) / step
    if not n_real <= MAX_TABLE_STEPS:
        raise ResourceError(f"{n_real:.6g} table steps exceed the cap {MAX_TABLE_STEPS}")
    if not (_on_grid(n_real) and _on_grid(1.0 / step)):
        raise PreconditionError(
            f"(x_max - 1)/step and 1/step must be integers, got x_max={x_max}, step={step}"
        )
    coarse = _march(x_max, step)
    fine = _march(x_max, step / 2.0)
    err = (4.0 / 3.0) * np.abs(coarse - fine[::2]) + 1e-13
    err[0] = 0.0
    n = coarse.size - 1
    xs = 1.0 + step * np.arange(n + 1)
    return RhoLogTable(x_max=float(x_max), step=float(step), xs=xs,
                       log_values=coarse, err=err)


def rho_log(x: float, table: RhoLogTable) -> Enclosure:
    """Enclosure of log rho(x) by cubic interpolation of the table.

    The interpolation error term is the cubic-vs-linear difference, a
    standard a posteriori surrogate, added to the worst tabulated error
    over the stencil.
    """
    if not (1.0 <= x <= table.x_max):
        raise DomainError(
            f"rho_log needs 1 <= x <= {table.x_max}, got {x}"
        )
    if x == 1.0:
        return Enclosure(0.0, 0.0)
    h = table.step
    pos = (x - 1.0) / h
    j = int(math.floor(pos))
    n = table.log_values.size - 1
    if _on_grid(pos):
        k = int(round(pos))
        v = float(table.log_values[k])
        e = float(table.err[k])
        return Enclosure(v - e, v + e)
    j0 = min(max(j - 1, 0), n - 3)
    xs = table.xs[j0 : j0 + 4]
    vs = table.log_values[j0 : j0 + 4]
    cubic = 0.0
    for a in range(4):
        w = 1.0
        for b in range(4):
            if a != b:
                w *= (x - xs[b]) / (xs[a] - xs[b])
        cubic += w * float(vs[a])
    t = (x - table.xs[j]) / h
    linear = (1.0 - t) * float(table.log_values[j]) + t * float(table.log_values[j + 1])
    e = float(table.err[j0 : j0 + 4].max()) + abs(cubic - linear)
    return Enclosure(cubic - e, cubic + e)


def _on_grid(pos: float) -> bool:
    return abs(pos - round(pos)) < _ON_GRID


def _grid_lower(table: RhoLogTable, x_lo: float, x_hi: float):
    """Grid points in [x_lo, x_hi] and their enclosure lower edges."""
    h = table.step
    i0 = int(math.ceil((x_lo - 1.0) / h - _ON_GRID))
    i1 = int(math.floor((x_hi - 1.0) / h + _ON_GRID))
    rows = slice(i0, i1 + 1)
    return table.xs[rows], table.log_values[rows] - table.err[rows]


def _buchstab_delta(logx, x):
    return 1.0 / (logx + 1.0 + logx / x)


def buchstab_lower_log(x: float) -> float:
    """Log of the Buchstab-style closed-form lower bound for rho(x).

    delta is the almost-optimal window 1/(log x + 1 + log x / x); the
    precondition delta < 1/3 is checked, not assumed.
    """
    if x < 6:
        raise DomainError(f"buchstab_lower_log needs x >= 6, got {x}")
    logx = math.log(x)
    delta = _buchstab_delta(logx, x)
    if delta >= 1.0 / 3.0:
        raise DomainError(f"window delta = {delta} >= 1/3 at x = {x}")
    return -x * (1.0 + 1.0 / logx) * (
        math.log(x + delta) + math.log(1.0 / delta) - 1.0
    ) - 2.0 * logx


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
    anchored grid.  Either way the check goes through a lower bound, so
    a pass is conservative.
    """
    if source not in ("table", "buchstab"):
        raise UsageError(f"source must be 'table' or 'buchstab', got {source!r}")
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
        xs, lower = _grid_lower(table, x_lo, x_hi)
        extra = [e for e in (x_lo, x_hi) if not _on_grid((e - 1.0) / table.step)]
        xs = np.concatenate([xs, extra])
        lower = np.concatenate([lower, [rho_log(e, table).lo for e in extra]])
        notes.append("margins use table enclosure lower edges")
    else:
        if x_lo < 6:
            raise PreconditionError(
                f"source='buchstab' is valid for x >= 6, requested x_lo = {x_lo}"
            )
        j0 = int(math.ceil(x_lo * 1024.0 - 1e-9))
        j1 = int(math.floor(x_hi * 1024.0 + 1e-9))
        xs = np.unique(np.concatenate([
            [x_lo], np.arange(j0, j1 + 1, dtype=np.float64) / 1024.0, [x_hi]
        ]))
        lower = _buchstab_vec(xs)
        notes.append("margins use the closed-form lower bound")
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = -exponent * xs * np.log(xs)
    return sweep_report(f"rho-exponent-{source}", x_lo, x_hi, xs,
                        lower - bound, np.abs(bound), notes, eta)


def max_exponent(table: RhoLogTable, x_lo: float, x_hi: float) -> float:
    """Largest e such that log rho(x) >= -e*x*log x holds at every grid
    point of (x_lo, x_hi], judged through enclosure lower edges."""
    if not (1.0 <= x_lo < x_hi <= table.x_max):
        raise PreconditionError(
            f"range [{x_lo}, {x_hi}] must sit inside [1, {table.x_max}]"
        )
    xs, lower = _grid_lower(table, x_lo, x_hi)
    keep = xs > 1.0
    xs, lower = xs[keep], lower[keep]
    return float(np.max(-lower / (xs * np.log(xs))))


def integral_identity_residual(table: RhoLogTable, x: float):
    """Residual of x*rho(x) = integral of rho over [x-1, x], evaluated
    from the table in ratio space (everything divided by rho(x)).

    x must be a grid point with x >= 2.  Returns (residual, allowance)
    where the identity holds when residual <= allowance."""
    h = table.step
    pos = (x - 1.0) / h
    j = int(round(pos))
    if not _on_grid(pos) or x < 2.0:
        raise PreconditionError(f"x = {x} must be a grid point with x >= 2")
    m = int(round(1.0 / h))
    window = table.log_values[j - m : j + 1] - table.log_values[j]
    w = np.exp(window)
    integral = h * (0.5 * w[0] + float(np.sum(w[1:-1])) + 0.5 * w[-1])
    residual = abs(x - integral)
    allowance = 10.0 * float(table.err[j]) * x
    return residual, allowance


def divisor_mean_lower_bound(x: float, u: float) -> float:
    """Lower bound 0.2 * log x * exp(-u*(1.42*e^(u/2) + 1/2)) for the
    average of a convolved divisor-type sum; the asymptotic o(1) term in
    the source estimate is dropped, which every caller documents."""
    if x <= 1:
        raise DomainError(f"divisor_mean_lower_bound needs x > 1, got {x}")
    if u < 0:
        raise DomainError(f"divisor_mean_lower_bound needs u >= 0, got {u}")
    return 0.2 * math.log(x) * math.exp(-u * (1.42 * math.exp(u / 2.0) + 0.5))
