"""The delay equation's integral identity x rho(x) = integral of rho over
[x-1, x], read off a rho table: the mpmath-free check of
``xpv.dickman.build_rho_table``."""

import numpy as np

from xpv.dickman import RhoLogTable
from xpv.errors import PreconditionError


def integral_identity_residual(table: RhoLogTable, x: float):
    """Residual of x*rho(x) = integral of rho over [x-1, x], from the
    table in ratio space (divided by rho(x)) by composite Simpson.

    x must be a grid point with x >= 2.  Returns (residual, allowance);
    the identity holds when residual <= allowance: 10 x times the window's
    largest tabulated error plus twice |Boole - Simpson| on the same
    nodes, an estimate (not a bound) of Simpson's remainder from two rule
    orders.  Not Boole itself: where a derivative of rho jumps, at the
    integer node inside the window, Boole panels lose their order, while
    Simpson is exact for a second-derivative jump at a panel midpoint.
    """
    h = table.step
    pos = (x - 1.0) / h
    if not pos.is_integer() or x < 2.0:
        raise PreconditionError(f"x = {x} must be a grid point with x >= 2")
    j = int(pos)
    m = int(round(1.0 / h))
    w = np.exp(table.log_values[j - m : j + 1] - table.log_values[j])
    ends = w[0] + w[-1]
    odd = float(np.sum(w[1:-1:2]))
    simpson = h / 3.0 * (ends + 4.0 * odd + 2.0 * float(np.sum(w[2:-1:2])))
    boole = 2.0 * h / 45.0 * (7.0 * ends + 32.0 * odd + 12.0 * float(np.sum(w[2:-1:4]))
                              + 14.0 * float(np.sum(w[4:-1:4])))
    residual = abs(x - simpson)
    allowance = (10.0 * float(table.err[j - m : j + 1].max()) * x
                 + 2.0 * abs(boole - simpson))
    return residual, allowance
