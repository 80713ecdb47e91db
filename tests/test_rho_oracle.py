"""Every rho enclosure against high-precision references.

Three references, each independent of the table's float arithmetic:
the closed form of rho on [2, 3] at 30 digits, the literature value of
rho(10), and the delay-equation series evaluated in mpmath at 50 digits
with 110 terms per unit interval, written as the plain term-by-term
recurrence.
"""

import numpy as np
import pytest

from xpv.dickman import rho_log

mp = pytest.importorskip("mpmath")

TERMS = 110


@pytest.fixture(scope="module")
def oracle():
    """log rho at 50 digits from the series about each k + 1/2."""
    with mp.workdps(50):
        half = mp.mpf(1) / 2
        prev = [mp.mpf(1)] + [mp.mpf(0)] * TERMS  # rho = 1 on [0, 1]
        series = []
        for k in range(1, 201):
            c = k + half
            a = [mp.mpf(0)] * (TERMS + 1)
            for m in range(1, TERMS + 1):
                a[m] = -(prev[m - 1] + (m - 1) * a[m - 1]) / (c * m)
            # k a_0 = int_0^{1/2} prev + int_{-1/2}^0 (a - a_0)
            total = sum(prev[n] * half ** (n + 1) / (n + 1) for n in range(TERMS + 1))
            total += sum(a[n] * (-half) ** (n + 1) / -(n + 1) for n in range(1, TERMS + 1))
            a[0] = total / k
            series.append(a)
            prev = a

    def log_rho(x):
        with mp.workdps(50):
            x = mp.mpf(x)
            if x == 1:
                return mp.mpf(0)
            k = min(int(mp.floor(x)), len(series))
            s = x - (k + mp.mpf(1) / 2)
            p = mp.mpf(0)
            for coef in reversed(series[k - 1]):
                p = p * s + coef
            return mp.log(p)

    return log_rho


def _contains(enc, value):
    return mp.mpf(enc.lo) <= value <= mp.mpf(enc.hi)


def test_closed_form_on_two_to_three(rho_table):
    # rho(x) = 1 - (1 - log(x-1)) log x + Li2(1-x) + pi^2/12 on [2, 3],
    # with Li2(1-x) = Li2(1/x) - pi^2/6 - log(x)^2/2 - log(1-1/x) log x
    # (Landen, then reflection): the series at 1/x <= 1/2 is fast
    missed = []
    with mp.workdps(30):
        for x in rho_table.xs[1024:2049]:
            x = float(x)
            xm = mp.mpf(x)
            lx = mp.log(xm)
            li2 = (mp.polylog(2, 1 / xm) - mp.pi ** 2 / 6 - lx ** 2 / 2
                   - mp.log(1 - 1 / xm) * lx)
            want = mp.log(1 - (1 - mp.log(xm - 1)) * lx + li2 + mp.pi ** 2 / 12)
            if not _contains(rho_log(x, rho_table), want):
                missed.append(x)
    assert missed == []


def test_literature_rho_ten(rho_table, oracle):
    with mp.workdps(50):
        want = mp.log(mp.mpf("2.770171837725958988758e-11"))
        assert abs(oracle(10.0) - want) < mp.mpf("1e-20")
        assert _contains(rho_log(10.0, rho_table), want)


def test_series_oracle_on_grid_and_off_it(rho_table, oracle):
    on_grid = rho_table.xs[::199]
    assert on_grid.size >= 1000
    rng = np.random.default_rng(11)
    off_grid = rng.uniform(1.0, 200.0, size=200)
    missed = [float(x) for x in np.concatenate([on_grid, off_grid, [200.0]])
              if not _contains(rho_log(float(x), rho_table), oracle(float(x)))]
    assert missed == []
