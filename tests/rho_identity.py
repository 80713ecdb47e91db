"""The delay equation's integral identity x rho(x) = integral of rho over
[x-1, x], read off a rho table: the mpmath-free check of
``xpv.dickman.build_rho_table``."""

import numpy as np

from xpv.core import U, gamma_n
from xpv.dickman import RhoLogTable
from xpv.errors import PreconditionError


def integral_identity_residual(table: RhoLogTable, x: float):
    """Residual of x*rho(x) = integral of rho over [x-1, x], from the
    table in ratio space (divided by rho(x)) by composite Simpson.

    x must be a grid point with x >= 2.  Returns (residual, allowance);
    the identity holds when residual <= allowance, the sum of three parts.

    1. The table's errors.  Its log values are log rho + d_i, |d_i| <=
       err_i, so the ratios it gives are w_i = r_i e^(d_i - d_j), r_i the
       true ones, and Simpson's positive weights give |S(w) - S(r)| <=
       (e^(2 e) - 1) S(r), e the window's largest err.  For e <= 7e-7,
       e^(2 e) - 1 <= 2 e + 1e-12; S(r) is x less Simpson's remainder, and
       the factor 1 + 1e-9 allows that remainder up to 1e-9 x.
    2. Rounding, in ``xpv.core``'s model: each log ratio t_i rounds within
       u |t_i| and its exp within 1 ulp, 2u; the sums of m + 1 positive
       terms and the few operations after them add gamma_(m+8).
    3. Simpson's remainder, estimated (not bounded) by twice |Boole -
       Simpson| on the same nodes.  Not Boole itself: where a derivative
       of rho jumps, at the integer node inside the window, Boole panels
       lose their order, while Simpson is exact for a second-derivative
       jump at a panel midpoint.
    """
    h = table.step
    pos = (x - 1.0) / h
    if not pos.is_integer() or x < 2.0:
        raise PreconditionError(f"x = {x} must be a grid point with x >= 2")
    j = int(pos)
    m = int(round(1.0 / h))
    err = float(table.err[j - m : j + 1].max())
    if err > 7e-7:
        raise PreconditionError(f"the table's error {err} near x = {x} exceeds 7e-7")
    t = table.log_values[j - m : j + 1] - table.log_values[j]
    w = np.exp(t)
    ends = w[0] + w[-1]
    odd = float(np.sum(w[1:-1:2]))
    simpson = h / 3.0 * (ends + 4.0 * odd + 2.0 * float(np.sum(w[2:-1:2])))
    boole = 2.0 * h / 45.0 * (7.0 * ends + 32.0 * odd + 12.0 * float(np.sum(w[2:-1:4]))
                              + 14.0 * float(np.sum(w[4:-1:4])))
    residual = abs(x - simpson)
    rounding = ((float(np.abs(t).max()) + 2.0) * U + gamma_n(m + 8)) * simpson
    allowance = ((2.0 * err + 1e-12) * x * (1.0 + 1e-9) + rounding
                 + 2.0 * abs(boole - simpson))
    return residual, allowance
