import dataclasses
import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from xpv import cli, core, mfunc, primes
from xpv.errors import (
    DomainError,
    PrecisionError,
    PreconditionError,
    ResourceError,
    UsageError,
)
from xpv.primes import (
    _SEGMENT_SIZE,
    _LI_X0,
    DEFAULT_SIEVE_CAP,
    RECIP_DENOM,
    REGISTRY,
    _compensated_prefix,
    _li_series,
    _li_terms,
    _pi_upper,
    _segmented_primes,
    log_integral,
    mertens_sum,
    nu2,
    prime_pi_points,
    recip_numerator,
    sieve_primes,
    tail_power_sum_bound,
    verify_inequality,
)
from zeta_oracle import nu2_by_k, prime_zeta


def _is_prime_trial(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# sieve


def test_sieve_small_counts(prime_table):
    assert prime_table.prime_pi(10) == 4
    assert prime_table.prime_pi(100) == 25
    assert prime_table.prime_pi(10 ** 5) == 9592
    assert prime_table.prime_pi(10 ** 6) == 78498


def test_sieve_against_trial_division(prime_table):
    rng = np.random.default_rng(20260816)
    ns = rng.integers(2, 10 ** 6, size=100)
    pset = set(int(p) for p in prime_table.primes[prime_table.primes < 1_000_100])
    for n in ns:
        n = int(n)
        assert (n in pset) == _is_prime_trial(n)


def _odd_only_sieve(n):
    """Reference primes <= n from a sieve over the odd numbers only."""
    odd = np.ones((n + 1) // 2, dtype=bool)  # odd[i] stands for 2i + 1
    odd[0] = False
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    return np.concatenate(([2], 2 * np.flatnonzero(odd) + 1))


def test_sieve_edge_and_multi_segment_limits():
    # limits 2 and 3 have no base primes below their square root
    for n in (2, 3, 4, 5):
        expected = [k for k in range(2, n + 1) if _is_prime_trial(k)]
        assert sieve_primes(n).primes.tolist() == expected
    n = 3 * _SEGMENT_SIZE + 7  # three segments, the last one short
    np.testing.assert_array_equal(sieve_primes(n).primes, _odd_only_sieve(n))


def _assert_sieve_is_the_reference(n, reference):
    primes = sieve_primes(n).primes
    assert primes.dtype == np.int64 and primes.flags.owndata
    np.testing.assert_array_equal(primes, reference[: np.searchsorted(reference, n, "right")])


def test_sieve_equals_the_reference_at_every_small_limit():
    # 168, 169 and 170 among them: below 169 the root is under 13, and the
    # base primes to 13 lie above the limit
    reference = _odd_only_sieve(3000)
    for n in range(2, 3001):
        _assert_sieve_is_the_reference(n, reference)


def test_sieve_equals_the_reference_at_segment_and_wheel_edges():
    # segments of _SEGMENT_SIZE numbers, with odd (1023, 1773) and even
    # (1024, 1448) roots; a segment takes whole wheel periods of 15015 odd
    # slots and the start of one, and the one segment below 30210 (60312)
    # holds 15013..15018 (30027..30033) slots
    edges = [k * _SEGMENT_SIZE + d for k in (1, 2, 3) for d in (-1, 0, 1, 2)]
    edges += [*range(30199, 30210), *range(60299, 60312), 168, 169, 170]
    reference = _odd_only_sieve(max(edges))
    for n in edges:
        _assert_sieve_is_the_reference(n, reference)


def test_sieve_equals_the_reference_at_random_limits():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(deadline=None, max_examples=40)
    @hypothesis.given(st.integers(2, 3 * 10 ** 6))
    def check(n):
        _assert_sieve_is_the_reference(n, _odd_only_sieve(n))

    check()


def test_sieve_holds_one_copy_of_the_table():
    tracemalloc.start()
    try:
        table = sieve_primes(10 ** 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 664579 and table.primes.flags.owndata
    # 11.7 MB, 2.3 times the 5.3 MB table, while segments were concatenated
    assert peak <= 1.4 * table.primes.nbytes, peak


def test_pi_upper_is_above_every_count():
    flags = np.ones(2 * 10 ** 5 + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(flags.size - 1) + 1):
        flags[p * p :: p] = False
    pis = np.cumsum(flags).tolist()
    assert all(pis[n] < _pi_upper(n) for n in range(2, len(pis)))
    # pi(10^k), k = 6..9
    for x, pi in ((10 ** 6, 78498), (10 ** 7, 664579), (10 ** 8, 5761455),
                  (10 ** 9, 50847534)):
        assert pi < _pi_upper(x) < 1.03 * pi


def test_sieve_domain_and_cap():
    with pytest.raises(DomainError):
        sieve_primes(1)
    with pytest.raises(ResourceError):
        sieve_primes(10 ** 7, cap=10 ** 6)


def test_verify_runs_the_public_sieve_once(monkeypatch):
    # the segmented sieve makes its own base primes without re-entering
    # sieve_primes, so a traced job counts one sieve per table
    calls, real = [], primes.sieve_primes

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(primes, "sieve_primes", counted)
    monkeypatch.setattr(cli, "sieve_primes", counted)
    cli.run(["verify", "--check", "pnt-lower", "--from", "59", "--to", "1e6"])
    assert calls == [(10 ** 6,)]
    # a pi-li check reads exact pi at Lucy points and sieves windows only
    cli.run(["verify", "--check", "pi-li-1", "--from", "2", "--to", "1e6"])
    assert calls == [(10 ** 6,)]


def _quotient_tops(x, r):
    return [math.floor(x * r ** -j) for j in range(math.ceil(math.log(2.0) / math.log(r)))]


@pytest.mark.parametrize("r", [1.4, 1.0 + 1.0 / math.log(1e7)])
def test_prime_pi_points_match_the_sieve(r):
    tops = _quotient_tops(1e7, r)
    assert len(tops) == (3 if r == 1.4 else 12)
    points, pis = prime_pi_points(tops)
    want = sorted({0, *range(math.isqrt(10 ** 7) + 1), *(y // k for y in tops
                                                          for k in range(1, math.isqrt(y) + 1))})
    assert points.tolist() == want
    table = sieve_primes(10 ** 7)
    assert np.array_equal(pis, np.searchsorted(table.primes, points, side="right"))


def test_prime_pi_points_at_powers_of_ten():
    # OEIS A006880
    known = [4, 25, 168, 1229, 9592, 78498, 664579, 5761455, 50847534, 455052511]
    for k, want in enumerate(known, 1):
        points, pis = prime_pi_points([10 ** k])
        assert (points[-1], pis[-1]) == (10 ** k, want)


@pytest.mark.parametrize("tops", [[10 ** 30], list(range(10 ** 12, 10 ** 12 + 6))])
def test_prime_pi_points_refuses_oversized_tops_before_allocating(tops):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            prime_pi_points(tops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16


def test_a_window_sieve_checks_its_count():
    assert _segmented_primes(200, 101, 21).tolist() == [p for p in range(101, 201)
                                                        if _is_prime_trial(p)]
    with pytest.raises(PrecisionError):
        _segmented_primes(200, 101, 20)


def test_prime_pi_step_semantics(prime_table):
    # pi jumps exactly at primes
    assert prime_table.prime_pi(7) == 4
    assert prime_table.prime_pi(6.999999) == 3
    assert prime_table.prime_pi(2) == 1
    assert prime_table.prime_pi(1.999) == 0


def test_prime_pi_integer_key_matches_the_float_search(prime_table):
    pr = prime_table.primes
    keys = [*pr[::97].tolist(), *(pr[::89] + 0.5).tolist(), *(pr[::83] - 0.5).tolist(),
            prime_table.limit, prime_table.limit + 0.5, 1e300, math.inf, -math.inf,
            -5, 0, 1.5, 2]
    for x in keys:
        assert prime_table.prime_pi(x) == int(np.searchsorted(pr, float(x), "right")), x
    assert prime_table.prime_pi(math.inf) == len(prime_table)
    # a float key cast the whole table (0.6 MB here) on every call
    tracemalloc.start()
    try:
        for x in (999983.5, 500000.5, math.inf):
            prime_table.prime_pi(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 2 ** 20, peak


# ---------------------------------------------------------------------------
# logarithmic integral


def test_li_reference_values():
    assert log_integral(2.0).mid == pytest.approx(1.0451637801174927, rel=1e-12)
    assert log_integral(5.0).mid == pytest.approx(3.634588310032651, rel=1e-12)
    assert log_integral(11.0).mid == pytest.approx(6.591009215721215, rel=1e-12)
    assert log_integral(29.0).mid == pytest.approx(12.727151404924387, rel=1e-12)
    assert log_integral(1e6).mid == pytest.approx(78627.549159462, rel=1e-12)


def test_li_domain():
    with pytest.raises(DomainError):
        log_integral(1.0)
    with pytest.raises(DomainError):
        log_integral(0.5)


def test_li_methods_overlap_log_spaced():
    # the constructor cross-checks the series against an independent
    # quadrature and raises when they disagree, so a clean pass over a
    # dense log-spaced set is the agreement statement itself
    xs = np.logspace(1e-3, 9.0, 1000)
    prev = -math.inf
    for x in xs:
        enc = log_integral(float(x))
        assert enc.hi - enc.lo < 1e-9 * max(1.0, abs(enc.mid)) + 1e-10
        assert enc.mid > prev
        prev = enc.mid


def test_li_zero_crossing_region():
    # li has one sign change; values straddle it
    assert log_integral(1.4).mid < 0.0
    assert log_integral(1.5).mid > 0.0


# the li series once ran its term loop over blocks of this many points;
# the inputs below still straddle those old block edges
_BLOCK = 1 << 14


def _li(xs):
    """The series with the term count of its largest x, as a sweep fixes it."""
    return _li_series(xs, _li_terms(np.max(xs)))


def _li_alone(x, top):
    """The series at x alone, with the term count of ``top``: no
    neighbours, duplicates or blocks around it."""
    acc, half = _li_series(np.array([x]), _li_terms(top))
    return acc[0], half[0]


def _assert_each_alone(xs, acc, half, indices):
    top = xs.max()
    for i in indices:
        assert (acc[i], half[i]) == _li_alone(xs[i], top), f"index {i}"


def test_li_series_bits_are_frozen():
    # sha256 of the values and half-widths, recorded before the series
    # was deduplicated and blocked; a change in the operations or their
    # order moves it.  The half-widths moved once, when they gained the
    # rounding of y = log x (was 47f1f397...); the values did not move.
    acc, half = _li(np.logspace(1e-3, 9.0, 2000))
    digest = hashlib.sha256(acc.tobytes() + half.tobytes()).hexdigest()
    assert digest == (
        "ad9c1fcab0dc3c229b47e04ebdb104263065ac38f0645d75b2e7acaadb4efc11")


def test_li_series_value_depends_on_x_alone(prime_table):
    # more than two blocks of distinct primes, and each listed twice: an
    # x gets the same bits wherever, and however often, it is listed
    xs = prime_table.primes.astype(np.float64)[: 2 * _BLOCK + 100]
    acc, half = _li(xs)
    acc2, half2 = _li(np.repeat(xs, 2))
    assert np.array_equal(acc2, np.repeat(acc, 2))
    assert np.array_equal(half2, np.repeat(half, 2))
    edges = [0, _BLOCK - 1, _BLOCK, _BLOCK + 1,
             2 * _BLOCK - 1, 2 * _BLOCK, xs.size - 1]
    _assert_each_alone(xs, acc, half, edges)

    # non-adjacent duplicates agree too
    mixed = np.concatenate([xs[:50], xs[:50][::-1], xs[-1:]])
    acc, half = _li(mixed)
    assert np.array_equal(acc[:50], acc[50:100][::-1])
    assert np.array_equal(half[:50], half[50:100][::-1])
    _assert_each_alone(mixed, acc, half, range(mixed.size))

    # unsorted input over a block boundary
    shuffled = np.random.default_rng(5).permutation(xs)
    acc, half = _li(shuffled)
    _assert_each_alone(shuffled, acc, half, edges)

    # one element
    (value,), (width,) = _li(np.array([7.5]))
    assert (value, width) == _li_alone(7.5, 7.5)


def test_li_series_error_model_against_mpmath(prime_table):
    """|series - li(x)| <= half-width, measured in mpmath arithmetic.

    This checks the series' own error model (truncation, rounding, and
    the rounding of y = log x).  A dense scan near x = 3.003, where the
    rounding of y decides, joins the sampled points, and
    ``log_integral``'s float edges, rounded outward, must contain li, up
    to the float max.
    """
    mp = pytest.importorskip("mpmath")
    xs = np.concatenate([[1.0 + 2.0 ** -30, 1.0 + 1e-6, 1.5, 2.0],
                         np.logspace(1e-3, 9.0, 300),
                         np.linspace(3.0030, 3.0043, 4001)])
    acc, half = _li(xs)
    # primes on both sides of the old block boundaries, evaluated as a
    # step sweep lists them
    ps = prime_table.primes.astype(np.float64)[: 3 * _BLOCK + 3]
    near = [i + d for i in (_BLOCK, 2 * _BLOCK, 3 * _BLOCK)
            for d in (-2, -1, 0, 1, 2)]
    pacc, phalf = _li(np.repeat(ps, 2))
    points = list(zip(xs, acc, half)) + [
        (ps[i], pacc[2 * i], phalf[2 * i]) for i in near]
    with mp.workdps(40):
        for x, value, width in points:
            err = abs(mp.mpf(float(value)) - mp.li(mp.mpf(float(x))))
            assert err <= mp.mpf(float(width)), f"x = {x!r}"
        for x in (3.0032275, 3.00365, 1.5, 1e9, 1e150, 1e300, 1.7976931348623157e308):
            enc = log_integral(x)
            assert mp.mpf(enc.lo) <= mp.li(mp.mpf(x)) <= mp.mpf(enc.hi), f"x = {x!r}"


def test_li_bits_are_frozen():
    # sha256 of ``_li``'s values and half-widths on the series' grid
    xs = np.logspace(1e-3, 9.0, 2000)
    acc, half = primes._li(xs)
    digest = hashlib.sha256(acc.tobytes() + half.tobytes()).hexdigest()
    assert digest == (
        "65db299ae33acd21cc31132b80784fc820849718434394592ed894674dc36f78")


def test_li_is_the_series_below_x0():
    xs = np.concatenate([np.logspace(1e-3, np.log10(_LI_X0), 500)[:-1],
                         [np.nextafter(_LI_X0, 0.0)]])
    got = primes._li(np.concatenate([xs, [_LI_X0, 1e9]]))
    want = _li_series(xs, _li_terms(_LI_X0))
    for g, w in zip(got, want):
        assert g[: xs.size].tobytes() == w.tobytes()


def _anchor_neighbours():
    """x at and one ulp around anchors 2^(j/64), among them x just below
    an anchor whose rounded 64 log x/log 2, as ``_li`` computes it, still
    floors to the anchor's own j, so that u = x/a - 1 is slightly
    negative."""
    xs, far = [], 0
    for j in (1024, 1025, 1087, 1088, 1300, 1471, 1600, 1663, 1850, 1913):
        a = float(np.exp2(j / 64.0))
        for x in (np.nextafter(a, 0.0), a, np.nextafter(a, np.inf)):
            xs.append(x)
            far += x < a and np.floor(np.log(x) * (64.0 / math.log(2.0))) == j
    assert far, "no x below an anchor lands on the anchor"
    return xs


def _next_prime_3mod4(x):
    n = int(x) + 1 + (2 - int(x)) % 4  # the least n > x with n = 3 mod 4
    while not primes._is_prime_u64(n):
        n += 4
    return n


def test_li_against_mpmath(prime_table):
    """li(x) lies within ``_li``'s value +- half-width, by mpmath at 40
    digits, around X0, around anchors, at a seeded sample of 2000 primes
    up to 1e8 and at 1e9; and the half-width stays within twice the
    series' own."""
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2016)
    ps = prime_table.primes.astype(np.float64)
    small = rng.choice(ps[ps > 2.0], 1000, replace=False)
    large = [_next_prime_3mod4(x)
             for x in np.exp(rng.uniform(np.log(1e6), np.log(1e8), 1000))]
    xs = np.array([np.nextafter(_LI_X0, 0.0), _LI_X0, np.nextafter(_LI_X0, np.inf),
                   *_anchor_neighbours(), *small, *large, 1e9])
    value, half = primes._li(xs)
    _, series_half = _li_series(xs, _li_terms(1e9))
    assert np.all(half <= 2.0 * series_half)
    with mp.workdps(40):
        for x, v, h in zip(xs, value, half):
            err = abs(mp.mpf(float(v)) - mp.li(mp.mpf(float(x))))
            assert err <= mp.mpf(float(h)), f"x = {x!r}"


_MOST_TERMS = _li_terms(1.7976931348623157e308)


def test_li_terms_past_the_count_move_no_bit():
    """``_li`` depends on x alone since its term counts are fixed: 80
    below X0 and the largest anchor's above.  More terms, up to the count
    of the float max, give the same values and half-widths, below X0 and
    at every anchor of a seeded sample of octaves, at each count an
    anchor of the octave would take by itself."""
    xs = np.concatenate([[1.0 + 2.0 ** -30, 1.0 + 1e-6, 1.4513692348833810, 1.5, 2.0],
                         np.logspace(1e-3, np.log10(_LI_X0), 2000)[:-1],
                         [np.nextafter(_LI_X0, 0.0)]])
    assert _li_terms(_LI_X0) == 80
    for got, want in zip(_li_series(xs, 80), _li_series(xs, _MOST_TERMS)):
        assert got.tobytes() == want.tobytes()
    rng = np.random.default_rng(18)
    octaves = [16, 17, 1023, *rng.choice(np.arange(18, 1023), 12, replace=False)]
    for octave in octaves:
        a = np.exp2(np.arange(64 * octave, 64 * octave + 64) / 64.0)
        want = _li_series(a, _MOST_TERMS)
        for n in range(_li_terms(a[0]), _li_terms(a[-1]) + 1):
            for g, w in zip(_li_series(a, n), want):
                assert g.tobytes() == w.tobytes(), f"octave {octave}, {n} terms"


@pytest.mark.parametrize("check, x_lo, x_hi, x_top, arg_min", [
    ("pi-li-1", 2.0, 1e5, 1e7, 11.0),
    ("li-lower", 1e5, 1e6, 1e9, 1e5),  # above X0, on the anchored path
])
def test_sweep_worst_point_does_not_depend_on_x_hi(check, x_lo, x_hi, x_top, arg_min):
    table = sieve_primes(int(x_top)) if REGISTRY[check].states.needs_table else None
    short = verify_inequality(check, x_lo, x_hi, table)
    long = verify_inequality(check, x_lo, x_top, table)
    assert short.arg_min == long.arg_min == arg_min
    assert np.float64(short.worst_margin).tobytes() == np.float64(long.worst_margin).tobytes()


# ---------------------------------------------------------------------------
# prime sums


def test_mertens_sum_values(prime_table):
    assert mertens_sum(2.0, prime_table) == 0.5
    assert mertens_sum(10.0, prime_table) == pytest.approx(
        0.5 + 1 / 3 + 0.2 + 1 / 7, rel=1e-15
    )
    assert mertens_sum(1e6, prime_table) == pytest.approx(
        2.887328099567673, rel=1e-14
    )


def test_mertens_sum_preconditions(prime_table):
    for x in (1.5, math.nan):
        with pytest.raises(DomainError):
            mertens_sum(x, prime_table)
    with pytest.raises(PreconditionError):
        mertens_sum(10.0, None)
    with pytest.raises(PreconditionError):
        mertens_sum(10 ** 7, prime_table)
    with pytest.raises(PreconditionError):
        mertens_sum(10 ** 6 + 1, prime_table)
    # a table to floor(x) holds every prime <= x
    assert mertens_sum(10 ** 6 + 0.5, prime_table) == mertens_sum(1e6, prime_table)


def test_recip_numerator_equals_fsum():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # c/m with c = f(m) in {-1, 0, 1} and c = 1 - f(p) in {0, 1, 2}: the
    # terms of L and u, each equal to c fl(1/m)
    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(st.integers(1, 10 ** 8), st.integers(0, 2 ** 32 - 1),
                      st.integers(1, 40000))
    def check(n, seed, size):
        rng = np.random.default_rng(seed)
        m = np.sort(rng.integers(1, n + 1, size))
        c = rng.integers(-2, 3, size).astype(np.int8)
        got = recip_numerator(m, c) / RECIP_DENOM
        assert got.hex() == math.fsum((c / m).tolist()).hex()

    check()


def _recip_oracle(m, c):
    return sum(int(ci) * Fraction(1.0 / int(mi)) for mi, ci in zip(m, c)) * RECIP_DENOM


def test_recip_numerator_against_fractions():
    rng = np.random.default_rng(28)
    for _ in range(20):  # random ascending m up to 1e8
        m = np.sort(rng.integers(1, 10 ** 8 + 1, int(rng.integers(1, 3000))))
        c = rng.integers(-2, 3, m.size).astype(np.int8)
        assert recip_numerator(m, c) == _recip_oracle(m, c)
    # every m at and beside a power of two, where fl(1/m) changes binade,
    # with m = 1, the largest term, and m = 2**53 - 1, the smallest shift
    m = {max(1, 2 ** k + d) for k in range(41) for d in (-1, 0, 1)}
    m = np.array(sorted(m | {1, 2 ** 53 - 1}))
    c = rng.integers(-2, 3, m.size).astype(np.int8)
    assert recip_numerator(m, c) == _recip_oracle(m, c)
    assert recip_numerator(m) == _recip_oracle(m, np.ones(m.size))
    assert recip_numerator(m[:0]) == 0


def test_recip_numerator_scale_guard():
    m = np.arange(mfunc.STATS_X_CAP - 20000, mfunc.STATS_X_CAP + 1)
    c = np.where(m % 2 == 0, 1, -1).astype(np.int8)
    got = recip_numerator(m, c) / RECIP_DENOM
    assert got.hex() == math.fsum((c / m).tolist()).hex()
    # fl(1/(2**40 + 1)) has mantissa 2**53 - 2**13, so full int64 rows of
    # c = +-2 sum to 2**63 - 2**23, next to the wrap
    assert (1.0 / (2 ** 40 + 1)).hex() == "0x1.fffffffffe000p-41"
    m = np.full(3 * 512 + 7, 2 ** 40 + 1)
    for sign in (2, -2):
        c = np.full(m.size, sign, dtype=np.int8)
        assert recip_numerator(m, c) == _recip_oracle(m, c)


# sha256 of each prefix array on the 1e6 table, recorded from the
# sequential Kahan loop that built them before the vectorised prefix
PREFIX_DIGESTS = {
    "recip_prefix":
        "37f121c9c87bbcc180484f0ef21c5b2a8c6e28b157b276eb5f6e342ec90e3f2a",
    "log2_prefix":
        "c39c96881ea50724f7e4c8f6cb6e6a50548f67729d76fb48c7f56c50513c6b40",
}


@pytest.mark.parametrize("name", sorted(PREFIX_DIGESTS))
def test_prefix_bits_are_frozen(prime_table, name):
    prefix = getattr(prime_table, name)()
    assert prefix.size == len(prime_table) + 1
    assert hashlib.sha256(prefix.tobytes()).hexdigest() == PREFIX_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(PREFIX_DIGESTS))
def test_prefix_within_one_ulp_of_fsum(prime_table, name):
    ps = prime_table.primes.astype(np.float64)
    terms = 1.0 / ps if name == "recip_prefix" else np.log(ps) ** 2 / ps
    prefix = getattr(prime_table, name)()
    rng = np.random.default_rng(8)
    ks = {0, 1, 2, 3, 100, terms.size}
    ks |= set(rng.integers(0, terms.size + 1, 150).tolist())
    for k in sorted(ks):
        want = math.fsum(terms[:k].tolist())
        assert abs(prefix[k] - want) <= np.spacing(want), k


def _sum2_whole(terms):
    """The whole-array Sum2 that the chunked prefix replaced, kept as its
    oracle: about four arrays of ``terms``' size are live."""
    out = np.empty(terms.size + 1)
    out[0] = 0.0
    prev, cur = out[:-1], out[1:]
    np.cumsum(terms, out=cur)
    b = cur - prev
    err = cur - b
    np.subtract(prev, err, out=err)
    np.subtract(terms, b, out=b)
    err += b
    np.cumsum(err, out=err)
    cur += err
    return out


def _prefix_of(terms):
    return _compensated_prefix(np.arange(terms.size), lambda i: terms[i])


@pytest.mark.parametrize("n", sorted({
    0, 1, 2 ** 15 - 1, 2 ** 15, 2 ** 15 + 1, 3 * 2 ** 15 + 5,
    primes._PREFIX_CHUNK - 1, primes._PREFIX_CHUNK, primes._PREFIX_CHUNK + 1}))
def test_chunked_prefix_is_the_whole_sum2(n):
    # the carried sums give every entry the bits of the whole-array prefix
    terms = np.random.default_rng(n).lognormal(0.0, 3.0, n)
    assert _prefix_of(terms).tobytes() == _sum2_whole(terms).tobytes()


def test_prefix_peak_memory_is_its_output(prime_table):
    table = primes.PrimeTable(prime_table.limit, prime_table.primes)
    tracemalloc.start()
    try:
        prefix = table.recip_prefix()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole-array prefix held about four arrays of the table's size
    assert peak < 1.3 * prefix.nbytes, (peak, prefix.nbytes)


def test_prefix_adds_small_to_large():
    terms = np.array([1e16] + [1.0] * 1000 + [-1e16])
    prefix = _prefix_of(terms)
    assert prefix[0] == 0.0 and prefix[-1] == 1000.0
    for k in range(terms.size + 1):
        want = math.fsum(terms[:k].tolist())
        assert abs(prefix[k] - want) <= np.spacing(want), k


def test_prime_zeta_decreasing_and_bounded(prime_table):
    prev = None
    for k in range(2, 20):
        enc = prime_zeta(k, prime_table)
        assert enc.hi <= 2.0 ** (1 - k) * 2.0
        if prev is not None:
            assert enc.hi < prev.lo
        prev = enc
    with pytest.raises(DomainError):
        prime_zeta(1, prime_table)


def test_prime_zeta_bits_are_frozen(prime_table):
    # sha256 of every enclosure's float.hex for k = 2..64, recorded before
    # the powers that round to +0 were written as zeros instead of
    # computed; it keeps the oracle of nu2 from drifting
    h = hashlib.sha256()
    for k in range(2, 65):
        enc = prime_zeta(k, prime_table)
        h.update(f"{k} {enc.lo.hex()} {enc.hi.hex()}\n".encode())
    assert h.hexdigest() == (
        "1db9f78419dca480af97b10fcf8f9130292bcb43ddf6a8aeb23ea8e822fb84de"
    )


def test_prime_zeta_p2(prime_table):
    enc = prime_zeta(2, prime_table)
    # prime zeta at 2, literature value
    assert enc.contains(0.4522474200410654)


def test_nu2_brackets_gamma_minus_m(prime_table):
    enc = nu2(prime_table)
    assert enc.contains(0.5772156649015329 - 0.26149721284764278)
    assert enc.hi <= 0.316
    assert enc.hi - enc.lo <= 1e-7


def test_nu2_within_the_k_by_k_sum(prime_table):
    # the same constant summed over k of P(k)/k, with a looser prime tail
    enc, oracle = nu2(prime_table), nu2_by_k(prime_table)
    assert enc.lo <= oracle.hi and oracle.lo <= enc.hi
    assert enc.hi <= oracle.hi


def test_nu2_needs_big_table():
    t = sieve_primes(10 ** 4)
    with pytest.raises(PreconditionError):
        nu2(t)


def test_tail_power_bound_formula():
    assert tail_power_sum_bound(1.0) == pytest.approx(2.0 * 1.2551 / math.e, rel=1e-15)
    with pytest.raises(DomainError):
        tail_power_sum_bound(0.0)
    with pytest.raises(DomainError):
        tail_power_sum_bound(1.5)


# ---------------------------------------------------------------------------
# the sweep registry: frozen worst margins over the reference ranges


def test_registry_lists_all_checks():
    assert set(REGISTRY) == {
        "pnt-lower", "pnt-upper", "li-lower", "li-upper",
        "pi-li-1", "pi-li-2", "pi-li-3",
        "mertens-remainder", "mertens-bracket", "mertens-mprime-coarse",
        "log2p-plain", "tail-power",
    }


def test_pnt_pair_passes_on_validity(prime_table):
    r = verify_inequality("pnt-lower", 59, 1e6, prime_table)
    assert r.verdict == "pass"
    assert r.worst_margin == pytest.approx(0.17056620124210146, rel=1e-9)
    assert r.arg_min == 67.0
    r = verify_inequality("pnt-upper", 59, 1e6, prime_table)
    assert r.verdict == "pass"
    assert r.worst_margin == pytest.approx(1.4877691457242742, rel=1e-9)
    assert r.arg_min == 113.0


def test_pi_li_1_fails_below_11(prime_table):
    r = verify_inequality("pi-li-1", 2, 1e6, prime_table)
    assert r.verdict == "fail"
    assert r.worst_margin == pytest.approx(-0.3445808328362272, rel=1e-9)
    assert r.arg_min == 11.0
    # the restriction to [11, 1e6] passes
    r2 = verify_inequality("pi-li-1", 11, 1e6, prime_table)
    assert r2.verdict == "pass"


def test_pi_li_2_fails_below_41(prime_table):
    r = verify_inequality("pi-li-2", 2, 1e6, prime_table)
    assert r.verdict == "fail"
    assert r.worst_margin == pytest.approx(-0.24956002711107894, rel=1e-9)
    assert r.arg_min == 29.0
    assert verify_inequality("pi-li-2", 41, 1e6, prime_table).verdict == "pass"


def test_pi_li_3_fails_below_67(prime_table):
    r = verify_inequality("pi-li-3", 2, 1e6, prime_table)
    assert r.verdict == "fail"
    assert r.worst_margin == pytest.approx(-1.6808676449500197, rel=1e-9)
    assert r.arg_min == 11.0
    assert verify_inequality("pi-li-3", 67, 1e6, prime_table).verdict == "pass"


def test_mertens_remainder_passes(prime_table):
    r = verify_inequality("mertens-remainder", 2, 1e6, prime_table)
    assert r.verdict == "pass"
    assert r.worst_margin == pytest.approx(0.0012817268006865973, rel=1e-9)
    assert r.arg_min == 19.0


def test_mertens_bracket_worst_at_two(prime_table):
    r = verify_inequality("mertens-bracket", 2, 1e6, prime_table)
    assert r.verdict == "pass"
    assert r.arg_min == 2.0
    assert 0.0 < r.worst_margin < 5e-4
    assert r.worst_margin == pytest.approx(8.707941833563382e-05, rel=1e-9)


def test_mprime_coarse_passes(prime_table):
    r = verify_inequality("mertens-mprime-coarse", 2, 1e6, prime_table)
    assert r.verdict == "pass"
    assert r.worst_margin == pytest.approx(8.429226597828077e-05, rel=1e-9)


def test_log2p_fails_at_three(prime_table):
    r = verify_inequality("log2p-plain", 2, 355990, prime_table)
    assert r.verdict == "fail"
    assert r.arg_min == 3.0
    assert r.worst_margin == pytest.approx(-0.03906834682367033, rel=1e-9)
    # equality at the left edge of the validity range is a pass
    assert verify_inequality("log2p-plain", 2, 2, prime_table).verdict == "pass"
    assert verify_inequality("log2p-plain", 2, 2, prime_table).worst_margin == 0.0
    # past the single bad prime the sweep is clean
    assert verify_inequality("log2p-plain", 3.2, 355990, prime_table).verdict == "pass"


def test_li_lower_fails_below_crossover(prime_table):
    r = verify_inequality("li-lower", 2, 1e6, prime_table)
    assert r.verdict == "fail"
    assert r.arg_min == 2.0
    assert r.worst_margin == pytest.approx(-6.002964263671649, rel=1e-9)
    assert any("10.397" in n for n in r.notes)
    assert verify_inequality("li-lower", 10.4, 1e6, prime_table).verdict == "pass"


def test_li_upper_passes(prime_table):
    r = verify_inequality("li-upper", 1865, 1e6, prime_table)
    assert r.verdict == "pass"
    assert r.arg_min == 1865.0
    assert r.worst_margin == pytest.approx(1.0452255410702904, rel=1e-9)


def test_tail_power_sweep(prime_table):
    r = verify_inequality("tail-power", 1e-3, 1.0, prime_table)
    assert r.verdict == "pass"
    assert r.arg_min == 1.0
    assert r.worst_margin == pytest.approx(4.902677144539596e-05, rel=1e-9)
    # a range starting just above a grid point does not evaluate it
    lo = float(np.nextafter(0.5, 1.0))
    build = REGISTRY["tail-power"].states.build
    chunks = list(build(lo, 1.0, None, []))
    # 512 grid points in one chunk, then the off-grid lo alone
    assert [xs.size for xs, _ in chunks] == [512, 1]
    assert chunks[-1][0].tolist() == [lo] and chunks[-1][1] is None
    assert sum(xs.size for xs, _ in build(0.5, 1.0, None, [])) == 513
    assert verify_inequality("tail-power", lo, 1.0).evaluation_count == 513


def test_verify_input_errors(prime_table):
    with pytest.raises(UsageError):
        verify_inequality("no-such-check", 2, 3, prime_table)
    with pytest.raises(UsageError):
        verify_inequality("pnt-lower", 100, 90, prime_table)
    with pytest.raises(UsageError):
        verify_inequality("li-lower", 2, math.inf)
    with pytest.raises(PreconditionError):
        verify_inequality("pnt-lower", 2, 100, prime_table)
    with pytest.raises(PreconditionError):
        verify_inequality("pnt-upper", 59, 100, None)
    with pytest.raises(PreconditionError):
        verify_inequality("log2p-plain", 2, 400000, prime_table)


def test_sweep_chunks_match_one_chunk(prime_table, monkeypatch):
    # 157k states: one chunk of 2^20, 154 chunks of 2^10;
    # mertens-remainder's stationary extra sits in the last chunk; the li
    # checks cross X0 = 2^16, where li turns from the series to the anchors
    for check_id, lo in (("pi-li-1", 2), ("pi-li-2", 2), ("li-upper", 1865),
                         ("mertens-remainder", 2), ("mertens-bracket", 2)):
        monkeypatch.setattr(core, "_SWEEP_CHUNK", 1 << 20)
        whole = repr(verify_inequality(check_id, lo, 1e6, prime_table).as_dict())
        monkeypatch.setattr(core, "_SWEEP_CHUNK", 1 << 10)
        chunked = repr(verify_inequality(check_id, lo, 1e6, prime_table).as_dict())
        assert chunked == whole, check_id


def test_sweep_peak_memory_is_one_chunk(prime_table, monkeypatch):
    prime_table.recip_prefix()

    def peak():
        tracemalloc.start()
        try:
            verify_inequality("mertens-bracket", 2, 1e6, prime_table)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(core, "_SWEEP_CHUNK", 1 << 30)
    whole = peak()
    monkeypatch.setattr(core, "_SWEEP_CHUNK", 1 << 14)
    chunked = peak()
    # 1.2 against 11.5 MB when written; the states come in chunks too
    assert chunked < 0.5 * whole, (chunked, whole)
    assert chunked < 2 * 2 ** 20, chunked


# ---------------------------------------------------------------------------
# the interleaved step states that the (2, n) state axis replaced, kept as
# the oracle: two states per prime, each with its own x


def _interleaved_step_states(x_lo, x_hi, table, extra, prefix=None):
    def at(i):  # pi, or the prime sum at pi by a gather
        return i if prefix is None else prefix[i]

    i_lo, i_hi = table.prime_pi(x_lo), table.prime_pi(x_hi)
    yield np.array([x_lo], dtype=float), at(np.array([i_lo]))
    # state k is prime k // 2, left limit for even k and inclusive for odd
    for k in core.runs(2 * i_lo, 2 * i_hi):
        yield table.primes[k >> 1].astype(np.float64), at((k + 1) >> 1)
    ends = [x_hi, *extra]
    yield np.array(ends, dtype=float), at(np.array([table.prime_pi(x) for x in ends]))


_STEP_CHECKS = sorted(c for c, cd in REGISTRY.items() if cd.states.needs_table)


def _step_ranges(check_id, rng):
    cd = REGISTRY[check_id]
    lo = 59 if check_id.startswith("pnt-") else 2
    # the range to 100 holds pi-li-2's three negative margins
    ranges = [(lo, 100), (lo, 1e5), (97, 97), (96.5, 101)]
    ranges += [tuple(sorted(rng.uniform(lo, 1e5, 2))) for _ in range(4)]
    return [r for r in ranges if cd.valid(*r)]


@pytest.mark.parametrize("check_id", _STEP_CHECKS)
def test_step_states_match_the_interleaved_oracle(check_id, prime_table, monkeypatch):
    ranges = _step_ranges(check_id, np.random.default_rng(sum(map(ord, check_id))))
    cd = REGISTRY[check_id]
    # the oracle evaluates every state of a table: no floor, and no brackets
    oracle = dataclasses.replace(
        cd, states=dataclasses.replace(cd.states, build=_interleaved_step_states), floor=None)
    # an odd chunk cuts the oracle's states between a prime's two limits
    for chunk in (core._SWEEP_CHUNK, 101):
        monkeypatch.setattr(core, "_SWEEP_CHUNK", chunk)
        for a, b in ranges:
            got = repr(verify_inequality(check_id, a, b, prime_table).as_dict())
            with monkeypatch.context() as m:
                m.setitem(REGISTRY, check_id, oracle)
                want = repr(verify_inequality(check_id, a, b, prime_table).as_dict())
            assert got == want, (check_id, a, b, chunk)
