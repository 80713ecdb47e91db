"""Oracle checks: each constant enclosure contains an mpmath value
computed independently at 30 digits."""

import pytest

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

from xpv.meanvalue import _nu3_head, solve_K  # noqa: E402
from xpv.primes import nu2  # noqa: E402
from zeta_oracle import prime_zeta  # noqa: E402


def test_solve_K_contains_the_closed_reduction_root():
    # (2/pi)(sin theta - K theta) = 1 - 2K with theta = arccos K
    with mp.workdps(30):
        root = mp.findroot(
            lambda k: 2 / mp.pi * (mp.sin(mp.acos(k)) - k * mp.acos(k)) - (1 - 2 * k),
            mp.mpf("0.33"),
        )
        assert abs(root - mp.mpf("0.32867416290854")) < 1e-14
    enc = solve_K()
    assert enc.lo <= root <= enc.hi


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
