import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from xpv import mfunc
from xpv.errors import DomainError, PreconditionError, ResourceError
from xpv.mfunc import (
    STATS_CSV_HEADER,
    _chi_period,
    _held,
    _odd_modulus_factors,
    _prime_values,
    _values,
    char_sum,
    constant_one,
    custom,
    empirical_checks,
    f_value,
    jacobi,
    liouville,
    pv_ratio,
    quadratic_character,
    random_pm1,
    stats,
)
from xpv.primes import sieve_primes


def test_jacobi_reference_values():
    assert jacobi(1, 3) == 1
    assert jacobi(3, 9) == 0
    assert jacobi(2, 3) == -1
    # second supplement: 2 is a square mod 7
    assert jacobi(2, 7) == 1
    with pytest.raises(DomainError):
        jacobi(2, 6)
    with pytest.raises(DomainError):
        jacobi(2, 0)


def test_jacobi_is_multiplicative_in_top_argument():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = int(rng.integers(1, 10 ** 6))
        b = int(rng.integers(1, 10 ** 6))
        n = int(rng.integers(1, 5 * 10 ** 5)) * 2 + 1
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


def test_spec_validation():
    with pytest.raises(DomainError):
        quadratic_character(4)
    with pytest.raises(DomainError):
        quadratic_character(9)  # not squarefree
    with pytest.raises(DomainError):
        quadratic_character(1)
    with pytest.raises(DomainError):
        custom({2: 1.5})
    with pytest.raises(DomainError):
        custom({4: 0.5})  # keys must be prime
    s = custom({2: 0.5, 3: -1.0})
    assert s.prime_value(2) == 0.5
    assert s.prime_value(3) == -1.0
    assert s.prime_value(5) == 1.0  # unlisted primes default to one


def test_f_value_examples():
    assert f_value(liouville(), 12) == -1.0
    assert f_value(quadratic_character(3), 10) == 1.0
    assert f_value(constant_one(), 987654) == 1.0
    assert f_value(liouville(), 1) == 1.0
    with pytest.raises(DomainError):
        f_value(liouville(), 0)
    with pytest.raises(DomainError):
        f_value(liouville(), -5)
    with pytest.raises(ResourceError):
        f_value(liouville(), 10 ** 12 + 1)


def test_random_pm1_is_deterministic_and_seed_sensitive():
    a = random_pm1(7)
    b = random_pm1(7)
    c = random_pm1(8)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    va = [a.prime_value(p) for p in primes]
    assert va == [b.prime_value(p) for p in primes]
    assert all(v in (-1.0, 1.0) for v in va)
    assert va != [c.prime_value(p) for p in primes]


_SIGN_SEEDS = (0, 1, 5, 777, -3, 2 ** 64 + 5)
_MASK64 = (1 << 64) - 1


def _splitmix_sign(seed, p):
    """The documented random_pm1 rule in Python integers."""
    key = int.from_bytes(hashlib.blake2b(str(seed).encode(), digest_size=8).digest(), "little")
    z = (key + p * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return -1.0 if (z ^ (z >> 31)) >> 63 else 1.0


@pytest.fixture(scope="module")
def primes_to_1_5e6():
    return sieve_primes(1_500_000).primes


@pytest.mark.parametrize("seed", _SIGN_SEEDS)
def test_random_signs_are_balanced(seed, primes_to_1_5e6):
    signs = mfunc._random_signs(seed, primes_to_1_5e6)
    assert np.isin(signs, (-1.0, 1.0)).all()
    assert abs(signs.sum()) <= 5.0 * math.sqrt(signs.size)


def test_random_signs_keep_seeds_past_2_64_apart(primes_to_1_5e6):
    a = mfunc._random_signs(5, primes_to_1_5e6)
    assert not np.array_equal(a, mfunc._random_signs(2 ** 64 + 5, primes_to_1_5e6))


@pytest.mark.parametrize("seed", _SIGN_SEEDS)
def test_random_prime_value_follows_the_vector_and_the_rule(seed, primes_to_1_5e6):
    sample = np.random.default_rng(seed % 1000).choice(primes_to_1_5e6, 200, replace=False)
    spec = random_pm1(seed)
    want = [_splitmix_sign(seed, int(p)) for p in sample]
    assert mfunc._random_signs(seed, sample).tolist() == want
    assert [spec.prime_value(int(p)) for p in sample] == want
    for p in (2 ** 63 + 29, 2 ** 64 + 13):  # past int64, and past the modulus
        assert spec.prime_value(p) == _splitmix_sign(seed, p)


def test_multiplicativity_on_random_coprime_pairs():
    rng = np.random.default_rng(42)
    specs = [constant_one(), liouville(), quadratic_character(3), random_pm1(7)]
    pairs = []
    while len(pairs) < 1000:
        m = int(rng.integers(2, 10 ** 6))
        n = int(rng.integers(2, 10 ** 6))
        if math.gcd(m, n) == 1:
            pairs.append((m, n))
    for spec in specs:
        for m, n in pairs[:250]:
            assert f_value(spec, m * n) == f_value(spec, m) * f_value(spec, n)


# ---------------------------------------------------------------------------
# running statistics


def test_stats_constant_one(prime_table):
    r = stats(constant_one(), 100.0, prime_table)
    assert r.M == 1.0
    assert r.u == 0.0
    assert r.Lambda == 0.0
    # harmonic number over log: H_100 / log 100
    h100 = sum(1.0 / n for n in range(1, 101))
    assert r.L == pytest.approx(h100 / math.log(100.0), rel=1e-12)
    assert r.conv_mean == pytest.approx(4.82, rel=1e-12)


def test_stats_liouville(prime_table):
    r = stats(liouville(), 100.0, prime_table)
    assert r.M == pytest.approx(-0.02, rel=1e-12)
    assert r.u == pytest.approx(3.605634402097742, rel=1e-12)
    assert r.Lambda == 2.0  # u equals twice the reciprocal sum, exactly
    assert r.conv_mean == pytest.approx(0.1, rel=1e-12)
    r6 = stats(liouville(), 10 ** 6, prime_table)
    assert r6.M == pytest.approx(-0.00053, rel=1e-10)
    assert r6.Lambda == 2.0


def test_stats_quadratic_character(prime_table):
    r = stats(quadratic_character(3), 10 ** 4, prime_table)
    assert r.M == pytest.approx(0.0001, rel=1e-12)
    assert r.L == pytest.approx(0.06565082580998652, rel=1e-12)
    assert r.Lambda == pytest.approx(1.2578606738908917, rel=1e-12)
    assert r.conv_mean == pytest.approx(0.6049, rel=1e-12)


def test_stats_lambda_stays_in_range(prime_table):
    for spec in (constant_one(), liouville(), quadratic_character(3), random_pm1(5)):
        for x in (10.0, 1000.0, 99991.0):
            r = stats(spec, x, prime_table)
            assert 0.0 <= r.Lambda <= 2.0
            assert abs(r.M) <= 1.0


def test_stats_validation(prime_table):
    small = sieve_primes(100)
    for x in (1.0, math.nan):
        with pytest.raises(DomainError):
            stats(liouville(), x, prime_table)
    with pytest.raises(ResourceError):
        stats(liouville(), 2e8, prime_table)
    with pytest.raises(PreconditionError):
        stats(liouville(), 10 ** 4, small)
    # a table to floor(x) is enough, at a non-integer x as well
    assert stats(liouville(), 100.5, small).x == 100.5


def test_conv_mean_against_bruteforce(prime_table):
    for spec in (liouville(), quadratic_character(3)):
        for x in (100, 1000):
            total = 0.0
            for n in range(1, x + 1):
                total += f_value(spec, n) * (x // n)
            want = total / x
            got = stats(spec, float(x), prime_table).conv_mean
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def _reference_stats(spec, x, table):
    """The row of ``stats`` by the direct method: f(p) through
    ``spec.prime_value`` for every prime, one in-place scaling of the
    value array per prime power, and math.fsum for every sum."""
    n = int(math.floor(x))
    primes = table.primes[: table.prime_pi(n)]
    fp = np.array([spec.prime_value(int(p)) for p in primes])
    v = np.ones(n + 1)
    v[0] = 0.0
    for p, val in zip(primes, fp):
        p = int(p)
        if val == 1.0:
            continue
        if val == 0.0:
            v[p::p] = 0.0
            continue
        pe = p
        while pe <= n:
            v[pe::pe] *= val
            pe *= p
    values = v[1:]
    m_mean = math.fsum(values) / x
    l_mean = math.fsum(values / np.arange(1, n + 1, dtype=np.float64)) / math.log(x)
    u = math.fsum((1.0 - fv) / float(p) for p, fv in zip(primes, fp))
    recip = math.fsum(1.0 / p for p in table.primes.astype(np.float64)[: table.prime_pi(x)])
    lam = 0.0 if u == 0.0 else u / recip
    if x == float(n):
        counts = n // np.arange(1, n + 1, dtype=np.int64)
    else:
        counts = np.floor(x / np.arange(1, n + 1, dtype=np.float64)).astype(np.int64)
    conv = math.fsum(values * counts) / x
    return [float(x), m_mean, l_mean, u, lam, conv], v


def _assert_matches_reference(spec, x, table):
    row, v = _reference_stats(spec, x, table)
    # a product taken in another order moves single values by an ulp,
    # which the rounded sums seldom show, so the values are compared too
    primes = table.primes[: table.prime_pi(x)]
    got = _values(spec, 0, int(x), primes, _prime_values(spec, primes))
    assert np.array_equal(got.astype(np.float64), v[1:]), x
    got = [value.hex() for value in stats(spec, x, table).as_dict().values()]
    assert got == [value.hex() for value in row], x


# non-integer values, whose products round differently in another order,
# and zeros at primes on both sides of sqrt(x)
CUSTOM_FLOAT = {2: 0.3, 3: -0.7, 5: 0.0, 7: -0.9, 11: 0.6, 13: 1 / 3,
                317: 0.0, 997: -0.7, 65537: 0.9}
# values in {-1, 0, 1} only, so the sums run in integers
CUSTOM_INT = {3: 0.0, 5: -1.0, 13: -1.0, 331: 0.0, 50021: -1.0}


@pytest.mark.parametrize("spec", [
    liouville(), constant_one(), random_pm1(777), quadratic_character(7),
    quadratic_character(15), custom(CUSTOM_FLOAT), custom(CUSTOM_INT),
], ids=["liouville", "one", "random", "qchar7", "qchar15", "custom-float",
        "custom-int"])
def test_stats_bits_match_reference(spec, prime_table):
    for x in (2.0, 3.0, 4.0, 10.0, 906.0, 1000.0, 1e5, 1e5 + 0.5):
        _assert_matches_reference(spec, x, prime_table)


def test_stats_bits_match_reference_on_random_custom_tables(prime_table):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # keys up to 200, so that products of several non-integer values
    # and a prime above sqrt(x) occur below x
    keys = [int(p) for p in prime_table.primes[: prime_table.prime_pi(200)]]
    value = st.one_of(st.sampled_from([-1.0, 0.0, 1.0]),
                      st.floats(-1.0, 1.0, allow_nan=False))

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.dictionaries(st.sampled_from(keys), value, max_size=10),
                      st.floats(2.0, 5000.0))
    def check(table, x):
        _assert_matches_reference(custom(table), x, prime_table)

    check()


_MEMO_SPECS = [liouville(), random_pm1(777), quadratic_character(7),
               custom(CUSTOM_FLOAT), custom(CUSTOM_INT)]
_REFERENCE_ROWS = {}


def _reference_hex(spec, x, table):
    if (spec, x) not in _REFERENCE_ROWS:
        _REFERENCE_ROWS[spec, x] = [v.hex() for v in _reference_stats(spec, x, table)[0]]
    return _REFERENCE_ROWS[spec, x]


def test_stats_rows_do_not_depend_on_the_other_x(prime_table):
    # x in any order, at and beside the _BLOCK edges, and just below an
    # earlier, larger x: each row has the bits of the direct method
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    x = st.one_of(st.sampled_from([16383.0, 16384.0, 16385.0, 32768.5, 2.0]),
                  st.floats(2.0, 40000.0))

    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(st.sampled_from(_MEMO_SPECS), st.lists(x, min_size=1, max_size=4))
    def check(spec, xs):
        for x in xs + [max(2.0, max(xs) - 1.0)]:
            got = [v.hex() for v in stats(spec, x, prime_table).as_dict().values()]
            assert got == _reference_hex(spec, x, prime_table), (xs, x)

    check()


@pytest.mark.parametrize("spec", _MEMO_SPECS, ids=lambda s: s.description)
def test_stats_row_alone_equals_row_after_a_larger_x(spec, prime_table, monkeypatch):
    segments = []

    def spy(spec, lo, hi, primes, fp):
        segments.append((lo, hi))
        return _values(spec, lo, hi, primes, fp)

    def row(x):
        return [v.hex() for v in stats(spec, x, prime_table).as_dict().values()]

    monkeypatch.setattr(mfunc, "_values", spy)
    _held.cache_clear()
    alone = row(16385.0)
    row(40000.5)
    assert row(16385.0) == alone
    # the memo grew by one segment, (16385, 40000], and holds the values
    # one segment to 40000 gives
    assert segments == [(0, 16385), (16385, 40000)]
    held = _held(spec, prime_table)
    primes = prime_table.primes[: prime_table.prime_pi(40000)]
    assert held.top == 40000
    assert np.array_equal(held.values, _values(spec, 0, 40000, primes, held.fp))
    assert np.array_equal(held.fp, _prime_values(spec, primes))


@pytest.mark.parametrize("spec", [liouville(), random_pm1(777), custom(CUSTOM_INT)],
                         ids=["liouville", "random", "custom-int"])
def test_conv_by_the_hyperbola_equals_the_direct_sum(spec, prime_table):
    # integer x, and x just below a multiple k m, where x/m is nearest
    # to rounding up to k
    xs = [2.0, 3.0, 16384.0, 16385.0, 99991.0, 1e5]
    xs += [math.nextafter(float(k * m), 0.0) for k, m in ((3, 4099), (7, 7), (2, 49999), (41, 2))]
    for x in xs:
        n = int(x)
        primes = prime_table.primes[: prime_table.prime_pi(n)]
        f = _values(spec, 0, n, primes, _prime_values(spec, primes)).astype(np.int64)
        m = np.arange(1, n + 1)
        exact = int(f @ (n // m))
        assert exact == int(f @ np.floor(x / m.astype(np.float64)).astype(np.int64)), x
        assert stats(spec, x, prime_table).conv_mean == exact / x, x


@pytest.mark.parametrize("spec", [liouville(), random_pm1(5), custom(CUSTOM_FLOAT),
                                  custom({2: 0.25, 3: -1 / 3, 71: 0.5, 73: -0.1})],
                         ids=["liouville", "random", "custom-float", "custom-float-73"])
def test_values_match_f_value_on_segments(spec, prime_table):
    # segments (lo, hi] that start below sqrt(hi), and some above it
    rng = np.random.default_rng(2028)
    for _ in range(12):
        hi = int(rng.integers(4, 5000))
        lo = int(rng.integers(0, 2 * math.isqrt(hi)))
        lo = min(lo, hi - 1)
        primes = prime_table.primes[: prime_table.prime_pi(hi)]
        got = _values(spec, lo, hi, primes, _prime_values(spec, primes))
        want = np.array([f_value(spec, m) for m in range(lo + 1, hi + 1)])
        if got.dtype == np.int8:
            assert np.array_equal(got, want), (lo, hi)
        else:  # f_value raises each p to its power; _values multiplies
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0, err_msg=f"{lo}, {hi}")


@pytest.mark.parametrize("spec", [liouville(), random_pm1(5)], ids=["liouville", "random"])
def test_stats_memory_is_a_few_bytes_per_integer(spec, prime_table):
    # the int8 values (1 MB at 1e6) and arrays of length pi(x) or a block,
    # but no int32 or float64 array of length x
    _held.cache_clear()
    tracemalloc.start()
    try:
        stats(spec, 1e6, prime_table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak


def test_stats_csv_shape(prime_table):
    # the CLI writes as_dict() values in order under this header
    r = stats(liouville(), 100.0, prime_table)
    assert list(r.as_dict()) == STATS_CSV_HEADER.split(",")
    assert STATS_CSV_HEADER == "x,M,L,u,Lambda,conv_mean"
    assert r.as_dict()["x"] == 100.0


# ---------------------------------------------------------------------------
# character sums


def test_char_sum_examples():
    assert char_sum(3, 2) == 0
    assert char_sum(3, 3) == 0
    assert [char_sum(7, t) for t in range(1, 8)] == [1, 2, 1, 2, 1, 0, 0]
    # tiling beyond one period
    assert char_sum(7, 7 * 9 + 3) == char_sum(7, 3)
    # every caller shares one cached period, so it is read-only
    chi = _chi_period(7)
    assert _chi_period(7) is chi and not chi.flags.writeable
    with pytest.raises(DomainError):
        char_sum(4, 2)
    with pytest.raises(DomainError):
        char_sum(3, -1)


def test_char_sum_full_period_vanishes_for_odd_primes(prime_table):
    qs = [int(p) for p in prime_table.primes[1 : prime_table.prime_pi(1000)]]
    for q in qs:
        assert char_sum(q, q) == 0
        assert char_sum(q, q - 1) == 0


def test_char_sum_squarefree_composite():
    assert char_sum(15, 15) == 0
    assert char_sum(21, 21) == 0


def test_chi_period_is_the_jacobi_symbol():
    # every odd modulus below 1000: primes, prime powers (9, 27, 243, 625,
    # 729) and composites that are not squarefree (45, 63, 99)
    for q in range(3, 1000, 2):
        assert _chi_period(q).tolist() == [jacobi(a, q) for a in range(q)], q
    rng = np.random.default_rng(22)
    for q in (255255, 999999):  # 3*5*7*11*13*17 and 3^3*7*11*13*37
        chi = _chi_period(q)
        for a in rng.integers(0, q, 3000).tolist():
            assert chi[a] == jacobi(a, q), (q, a)


def test_modulus_is_capped_before_it_is_factored():
    assert _odd_modulus_factors(999999) == [(3, 3), (7, 1), (11, 1), (13, 1), (37, 1)]
    assert _odd_modulus_factors(9999991) == [(9999991, 1)]
    assert _odd_modulus_factors(3 ** 12) == [(3, 12)]
    for q in (1, 2, 4, 0, -3):
        with pytest.raises(DomainError):
            _odd_modulus_factors(q)
    # a trial division of 10^18 + 3 would not finish
    for q in (10 ** 7 + 19, 10 ** 18 + 3):
        with pytest.raises(ResourceError):
            _odd_modulus_factors(q)
        with pytest.raises(ResourceError):
            quadratic_character(q)
        with pytest.raises(ResourceError):
            pv_ratio(q)
    # the composite cap, decided from the factors: 101 * 9901, and 3^13,
    # which is not squarefree either
    for q in (1000001, 3 ** 13):
        for refused in (_odd_modulus_factors, _chi_period, quadratic_character, pv_ratio):
            with pytest.raises(ResourceError):
                refused(q)


def test_pv_ratio_values():
    assert pv_ratio(3) == pytest.approx(0.5255268625199614, rel=1e-12)
    assert pv_ratio(7) == pytest.approx(0.38847063230819645, rel=1e-12)
    with pytest.raises(DomainError):
        pv_ratio(9)
    with pytest.raises(DomainError):
        pv_ratio(4)


def test_pv_ratio_below_one_small_primes(prime_table):
    qs = [int(p) for p in prime_table.primes[1:50]]
    ratios = [pv_ratio(q) for q in qs]
    assert all(r < 1.0 for r in ratios)
    assert max(ratios) == ratios[0]  # the extreme case is q = 3


# ---------------------------------------------------------------------------
# empirical checks


def test_empirical_checks_statuses(prime_table, ledger):
    rep = empirical_checks(liouville(), 10 ** 4, 0.5, ledger, prime_table)
    assert [ch["verdict"] for ch in rep["checks"].values()] == ["pass"] * 3
    floor = rep["checks"]["large-mean-floor"]
    assert floor["vacuous"] is True and floor["margin"] == 0.5 - floor["abs_M"]
    assert "vacuous" not in rep["checks"]["mean-decay"]
    assert any("lower-order" in n for n in rep["notes"])


def test_empirical_checks_active_floor(prime_table, ledger):
    # the constant-one function keeps |M| = 1, so the floor clause is live
    rep = empirical_checks(constant_one(), 100.0, 0.5, ledger, prime_table)
    floor = rep["checks"]["large-mean-floor"]
    assert floor["verdict"] == "pass" and "vacuous" not in floor
    assert floor["margin"] == floor["log_L"] - floor["log_delta"]
    assert all(ch["verdict"] == "pass" for ch in rep["checks"].values())


def test_empirical_checks_domain(prime_table, ledger):
    with pytest.raises(DomainError):
        empirical_checks(liouville(), 1.0, 0.5, ledger, prime_table)
