"""Oracle checks: each constant enclosure contains an mpmath value
computed independently at 30 digits."""

import pytest

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

from xpv.meanvalue import (  # noqa: E402
    LEDGER_NU3_TERMS,
    _nu3_head,
    nu3,
    solve_K,
)
from xpv.primes import nu2  # noqa: E402
from zeta_oracle import prime_zeta  # noqa: E402


def _h(k):
    # the closed reduction (2/pi)(sin theta - K theta) - (1 - 2K), theta = arccos K
    return 2 / mp.pi * (mp.sin(mp.acos(k)) - k * mp.acos(k)) - (1 - 2 * k)


def test_solve_K_contains_the_closed_reduction_root():
    with mp.workdps(30):
        root = mp.findroot(_h, mp.mpf("0.33"))
        assert abs(root - mp.mpf("0.32867416290854")) < 1e-14
    enc = solve_K()
    assert enc.lo <= root <= enc.hi


def test_h_changes_sign_across_solve_K():
    enc = solve_K()
    with mp.workdps(30):
        assert _h(mp.mpf(enc.lo)) < -1e-12 and _h(mp.mpf(enc.hi)) > 1e-12


def test_the_mean_quadrature_matches_one_minus_K():
    # h is exactly the mean of |cos t - k| minus (1 - k), so the sign
    # certificate of solve_K is a certificate of K's integral definition:
    # at both ends of K, the mean by mp.quad, split at the kinks, is 1 - k + h(k)
    enc = solve_K()
    with mp.workdps(30):
        for k in (mp.mpf(enc.lo), mp.mpf(enc.hi)):
            theta = mp.acos(k)
            mean = mp.quad(lambda t: abs(mp.cos(t) - k),
                           [0, theta, 2 * mp.pi - theta, 2 * mp.pi]) / (2 * mp.pi)
            assert abs(mean - (1 - k + _h(k))) < 1e-25


@pytest.mark.parametrize("k", [2, 3, 4, 5, 8, 16, 64])
def test_prime_zeta_contains_mpmath(prime_table, k):
    with mp.workdps(30):
        want = mp.primezeta(k)
    enc = prime_zeta(k, prime_table)
    assert enc.lo <= want <= enc.hi


def test_nu2_contains_gamma_minus_mertens(prime_table):
    with mp.workdps(30):
        want = mp.euler - mp.mertens
    enc = nu2(prime_table)
    assert enc.lo <= want <= enc.hi


def test_nu3_head_contains_the_30_digit_sum():
    # the float head with its rounding pad against the same 2001 terms at
    # 30 digits, with the same exponent c
    c = 2.0 + 2.0 * solve_K().mid
    s, pad = _nu3_head(10 ** 3, c)
    with mp.workdps(30):
        want = mp.fsum(mp.log(abs(k) + 4) ** mp.mpf(c) / ((k - mp.mpf(0.5)) ** 2 + 1)
                       for k in range(-10 ** 3, 10 ** 3 + 1))
    assert s - pad <= want <= s + pad
    assert pad < 1e-12 * s


def _nu3_series(k, head=10 ** 4):
    """sqrt of the series at c = 2 + 2k: the head |k| <= 10^4 summed term by
    term, and the tail past it by Euler-Maclaurin through g''' with mp.quad
    and mp.diff; the next term is below 1e-25 there."""
    c = 2 + 2 * mp.mpf(k)

    def g(t):  # the terms at t and -t
        return mp.log(t + 4) ** c * (1 / ((t - 0.5) ** 2 + 1) + 1 / ((t + 0.5) ** 2 + 1))

    s = mp.log(4) ** c / mp.mpf(1.25) + mp.fsum(g(t) for t in range(1, head + 1))
    tail = (mp.quad(g, [head, 10 * head, 10 ** 3 * head, mp.inf])
            - g(head) / 2 - mp.diff(g, head) / 12 + mp.diff(g, head, 3) / 720)
    return mp.sqrt(s + tail)


@pytest.fixture(scope="module")
def nu3_at_the_ends_of_K():
    enc = solve_K()
    with mp.workdps(30):
        return [_nu3_series(k) for k in (enc.lo, enc.hi)]


@pytest.mark.parametrize("k_trunc", [10 ** 3, LEDGER_NU3_TERMS, 10 ** 6])
def test_nu3_contains_the_series_at_both_ends_of_K(nu3_at_the_ends_of_K, k_trunc):
    enc = nu3(k_trunc)
    assert enc.width <= 1e-9
    for want in nu3_at_the_ends_of_K:
        assert enc.lo <= want <= enc.hi
    # below the upper end of the integral-comparison tail at K's midpoint
    assert enc.hi < 4.337872503543039
