"""The ulp bound of ``core``'s rounding model, checked against mpmath at
120 bits: numpy's log, log1p, exp and pow, and libm's acos, sin, log, log1p
and expm1, each within 1 ulp of the exact value of their float argument,
over seeded arguments in the ranges the package feeds them.  numpy runs
over whole arrays, as the package calls it, so its SIMD kernels are the
ones checked."""

import math

import mpmath as mp
import numpy as np
import pytest

N = 3000


def _worst_ulps(got, exact, *args):
    """The largest |got - exact(args)| over the points, in ulps of the
    exact value (mpmath at 120 bits, on the float arguments)."""
    worst = 0.0
    with mp.workprec(120):
        for g, *a in zip(np.asarray(got).tolist(), *(np.asarray(x).tolist() for x in args)):
            e = exact(*map(mp.mpf, a))
            worst = max(worst, float(abs(mp.mpf(g) - e) / math.ulp(float(e))))
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def test_oracle_sees_a_result_two_floats_off(rng):
    xs = np.exp2(rng.uniform(0.0, 64.0, 100))
    off = np.nextafter(np.nextafter(np.log(xs), np.inf), np.inf)
    assert 1.5 <= _worst_ulps(off, mp.log, xs) <= 2.5


def test_numpy_log_over_li_arguments(rng):
    # li takes y = log x for x in [1, 2^64], then log y
    xs = np.concatenate((np.exp2(rng.uniform(0.0, 64.0, N)), [2.0, 2.0 ** 16, 2.0 ** 64]))
    assert _worst_ulps(np.log(xs), mp.log, xs) <= 1.0
    ys = np.log(xs[xs > 1.0])
    assert _worst_ulps(np.log(ys), mp.log, ys) <= 1.0


def test_numpy_log1p_over_nu2_arguments(rng):
    r = np.negative(1.0 / rng.integers(2, 10 ** 9, N, endpoint=True))
    assert _worst_ulps(np.log1p(r), mp.log1p, r) <= 1.0


def test_numpy_exp_over_its_range(rng):
    xs = rng.uniform(-745.0, 709.0, N)
    assert _worst_ulps(np.exp(xs), mp.exp, xs) <= 1.0


def test_numpy_pow_over_nu3_arguments(rng):
    # nu3 raises log(k + 4), k <= 2e3 and beyond in its tail, to c in [2, 3)
    base = np.log(rng.integers(1, 10 ** 6, N) + 4.0)
    c = rng.uniform(2.0, 3.0, N)
    assert _worst_ulps(base ** c, mp.power, base, c) <= 1.0


def test_libm_acos_and_sin_over_K_bracket(rng):
    k = rng.uniform(0.2, 0.45, N)
    theta = np.array([math.acos(v) for v in k.tolist()])
    assert _worst_ulps(theta, mp.acos, k) <= 1.0
    assert _worst_ulps([math.sin(t) for t in theta.tolist()], mp.sin, theta) <= 1.0


def test_libm_log_log1p_and_expm1(rng):
    n = rng.integers(2, 10 ** 9, N // 3)
    xs = n.astype(float)
    assert _worst_ulps([math.log(x) for x in xs.tolist()], mp.log, xs) <= 1.0
    r = -1.0 / xs
    assert _worst_ulps([math.log1p(v) for v in r.tolist()], mp.log1p, r) <= 1.0
    lam = rng.uniform(0.0, 1.0, N // 3) * 10.0 ** rng.uniform(-16.0, 0.0, N // 3)
    assert _worst_ulps([math.expm1(v) for v in lam.tolist()], mp.expm1, lam) <= 1.0
