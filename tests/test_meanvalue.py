import math
import tracemalloc
import warnings

import numpy as np
import pytest

from tail_oracle import tsl_full
from xpv import meanvalue
from xpv.constants import (
    EPSILON_TABLE_C,
    EPSILON_TABLE_C1,
    MERTENS_M,
    PUBLISHED_C0,
    PUBLISHED_DELTA,
)
from xpv.errors import DomainError, PrecisionError, UsageError
from xpv.meanvalue import (
    DECAY_SCALE,
    DEFAULT_C_GRID,
    DEFAULT_EPS_GRID,
    DEFAULT_K1_GRID,
    DEFAULT_K2_GRID,
    SUP_COEFF,
    TAIL_COEFF,
    ErrorParams,
    assemble_ledger,
    case_bounds,
    delta,
    delta_table_candidate,
    integral_exp_over_square,
    nu3,
    optimize_C0,
    solve_K,
    table1_report,
    tail_sum_large,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# the kink constant and the periodic weight


def test_solve_K_value():
    enc = solve_K()
    assert enc.contains(0.32867416290854623)
    assert enc.width < 1e-10


def test_solve_K_defining_equation():
    k = solve_K().mid
    theta = math.acos(k)
    assert abs((2.0 / math.pi) * (math.sin(theta) - k * theta) - (1.0 - 2.0 * k)) < 1e-10


def test_solve_K_bits_are_frozen():
    enc = solve_K()
    assert (enc.lo.hex(), enc.hi.hex()) == ("0x1.508ff5b2c0d1dp-2", "0x1.508ff5b338c7dp-2")


def test_solve_K_runs_no_quadrature(monkeypatch):
    # the closed reduction is bisected and its signs certify the root; the
    # quadrature cross-check lives in test_constants_oracle
    def quadrature(*args):
        raise AssertionError("solve_K ran a quadrature")

    monkeypatch.setattr(meanvalue, "adaptive_simpson", quadrature)
    solve_K.cache_clear()
    try:
        assert solve_K().width < 1e-10
    finally:
        solve_K.cache_clear()


def test_solve_K_refuses_an_enclosure_without_a_sign_change(monkeypatch):
    # h < 0 at both ends of a bracket 1e-11 around 0.3, below the root
    monkeypatch.setattr(meanvalue, "bisect_root", lambda *args, **kw: (0.3, 0.3))
    solve_K.cache_clear()
    try:
        with pytest.raises(PrecisionError, match="sign"):
            solve_K()
    finally:
        solve_K.cache_clear()


def test_periodic_f_closed_forms(periodic_f):
    k = solve_K().mid
    assert periodic_f.mean == 1.0 - k
    assert periodic_f.sup == 1.0 + k
    assert periodic_f.variation == 4.0


def test_periodic_f_against_dense_grid(periodic_f):
    # the weight is |cos t - K|; check mean, sup, and total variation
    # against direct dense-grid evaluation, independent of build()
    k = periodic_f.K
    ts = (np.arange(2_000_000) + 0.5) * (TWO_PI / 2_000_000)
    f = np.abs(np.cos(ts) - k)
    assert abs(f.mean() - (1.0 - k)) < 1e-8
    assert abs(f.max() - (1.0 + k)) < 1e-6
    dense = np.abs(np.cos(np.linspace(0.0, TWO_PI, 400001)) - k)
    assert abs(np.abs(np.diff(dense)).sum() - 4.0) < 1e-4


def test_error_params_validation():
    ErrorParams(c=1.0, k1=0, eps=0.5, k2=0)
    with pytest.raises(DomainError):
        ErrorParams(c=0.5, k1=0, eps=0.5, k2=0)
    with pytest.raises(DomainError):
        ErrorParams(c=1.0, k1=-1, eps=0.5, k2=0)
    with pytest.raises(DomainError):
        ErrorParams(c=1.0, k1=0, eps=0.0, k2=0)
    with pytest.raises(DomainError):
        ErrorParams(c=1.0, k1=0, eps=0.5, k2=-2)
    for c, eps in ((math.nan, 0.5), (1.0, math.nan), (0.9, 0.5), (math.inf, 0.5),
                   (-math.inf, 0.5)):
        with pytest.raises(DomainError):
            ErrorParams(c=c, k1=0, eps=eps, k2=0)


# ---------------------------------------------------------------------------
# tail sums


def _tss(c, k1):
    """The small-range tail sum at (c, k1): one cell of the optimizer's kernel."""
    return float(meanvalue._tss_grid(np.array([c]), [k1])[0, 0])


def test_tss_reference_values():
    assert _tss(2.67, 0) == pytest.approx(2.3002696970183254, rel=1e-12)
    assert _tss(2.67, 20) == pytest.approx(2.073832662924796, rel=1e-12)
    assert _tss(5.0, 0) == pytest.approx(2.016885782, rel=1e-9)
    # more kept terms never hurt
    assert _tss(2.67, 20) < _tss(2.67, 10) < _tss(2.67, 0)


def test_tss_domain():
    with pytest.raises(DomainError):
        tail_sum_large(math.nan, 1000)
    for bad in (math.inf, -math.inf):
        with pytest.raises(DomainError):
            tail_sum_large(bad, 10)
    # c_iii was nan and c = inf went through
    with pytest.raises(DomainError):
        case_bounds(ErrorParams(2.67, 0, math.inf, 10))
    with pytest.raises(DomainError):
        ErrorParams(math.inf, 0, 3.61, 10)
    with pytest.raises(DomainError):
        optimize_C0([2.0, math.inf], [0], [3.61], [10])
    with pytest.raises(DomainError):
        optimize_C0([2.0], [0], [3.61, math.inf], [10])


def test_tsl_huge_finite_eps():
    # the tail term's tau (1 + eps) DECAY_SCALE log^2(tau + 3) overflows at
    # tau = e^30 from eps ~ 2.9e291: nan before, with a numpy warning
    for eps in (1e308, 1e295):
        with pytest.raises(DomainError):
            tail_sum_large(eps, 10)
        with pytest.raises(DomainError):
            case_bounds(ErrorParams(2.67, 0, eps, 10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tail_sum_large(1e290, 10) == 0.0
        assert math.isfinite(case_bounds(ErrorParams(2.67, 0, 1e290, 10))["c_iii"])


def test_tsl_reference_value():
    assert tail_sum_large(3.61, 300000) == pytest.approx(0.660049409, rel=1e-8)


def test_tsl_bits_are_frozen():
    # float.hex recorded before the series ran through one reused buffer
    frozen = {
        (3.61, 300000): "0x1.51f1ff042ac13p-1",
        (0.5, 0): "0x1.2d5729a9fe935p+2",
        (1.0, 7): "0x1.54aeb6fa09208p+1",
        (2.0, 1000): "0x1.5703e3de2e5c2p+0",
        (0.05, 20000): "0x1.f16f846db9370p+4",
        # the optimizer's k2, recorded from the sum over all k2 + 1 terms
        (0.5, 10 ** 5): "0x1.2d3455abd4c79p+2",
        (3.61, 10 ** 5): "0x1.51f1ff042ac12p-1",
        (0.5, 300000): "0x1.2d3455abd4c7bp+2",
        (0.5, 10 ** 6): "0x1.2d3455abd4c79p+2",
        (3.61, 10 ** 6): "0x1.51f1ff042ac0fp-1",
    }
    for (eps, k2), want in frozen.items():
        assert tail_sum_large(eps, k2).hex() == want, (eps, k2)


@pytest.mark.parametrize("k2", [0, 1, 300000, 10 ** 6])
def test_tsl_upper_bounds_the_series_at_every_grid_point(k2):
    s = np.linspace(0.0, 30.0, 1000)  # the grid of tail_sum_large, 0 and 30 included
    two_pi_ks = TWO_PI * np.arange(k2 + 1, dtype=np.float64)
    buf = np.empty_like(two_pi_ks)
    for eps in ((0.01, 3.61, 12.0) if k2 < 1000 else (3.61,)):
        upper = meanvalue._tsl_upper(eps, k2, s)
        exact = np.array([tsl_full(eps, k2, math.exp(x), two_pi_ks, buf)
                          for x in s.tolist()])
        assert np.all(upper >= exact), (eps, k2, s[np.argmin(upper - exact)])


def test_tsl_runs_the_series_at_few_grid_points(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return tsl_at(*args)

    tsl_at = meanvalue._tsl_at
    monkeypatch.setattr(meanvalue, "_tsl_at", counted)
    counting = _CountingSum()
    monkeypatch.setattr(meanvalue, "np", counting)
    # at eps = 1e200 every term underflows to 0, and so does the bound
    for eps, k2, want in ((3.61, 300000, "0x1.51f1ff042ac13p-1"), (1e200, 10 ** 5, "0x0.0p+0")):
        calls.clear()
        counting.terms = 0
        assert tail_sum_large(eps, k2).hex() == want
        # 83 golden-section points, then 1000 grid points before the pruning
        assert len(calls) <= 90, (eps, len(calls))
    # and no series sums a term: sqrt(base) >= 746 at every tau
    assert counting.terms == 0


class _CountingSum:
    """numpy with a count of the terms passed to np.sum."""
    terms = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def sum(self, a):
        self.terms += a.size
        return np.sum(a)


def test_tsl_sums_few_terms(monkeypatch):
    counting = _CountingSum()
    monkeypatch.setattr(meanvalue, "np", counting)
    assert tail_sum_large(3.61, 300000).hex() == "0x1.51f1ff042ac13p-1"
    # the full series would pass 84 x 300001 terms, 25.2 million
    assert 0 < counting.terms < 3 * 10 ** 6, counting.terms


def test_tss_dominates_truncated_series():
    # the certified bound must sit above a brute partial sum of the
    # actual series at any tau in (0, 1]
    rng = np.random.default_rng(101)
    ks = np.arange(1_000_001, dtype=np.float64)
    for _ in range(10):
        c = float(rng.uniform(1.0, 5.0))
        k1 = int(rng.integers(0, 21))
        tau = float(rng.uniform(0.05, 1.0))
        partial = float(
            np.exp(-np.sqrt((c + TWO_PI * ks) / (DECAY_SCALE * tau))).sum()
        )
        assert _tss(c, k1) >= partial


def test_tsl_dominates_truncated_series():
    rng = np.random.default_rng(202)
    ks = np.arange(1_000_001, dtype=np.float64)
    for _ in range(10):
        eps = float(rng.uniform(0.5, 6.0))
        k2 = int(rng.choice([1000, 10000, 100000]))
        tau = float(math.exp(rng.uniform(0.0, 30.0)))
        base = (1.0 + eps) * math.log(tau + 3.0) ** 2
        partial = float(
            np.exp(-np.sqrt(base + TWO_PI * ks / (DECAY_SCALE * tau))).sum()
        )
        assert tail_sum_large(eps, k2) >= partial


# ---------------------------------------------------------------------------
# error bounds and case constants


def test_error_bound_small_reference(periodic_f):
    p = ErrorParams(c=2.67, k1=0, eps=3.61, k2=300000)
    cb = case_bounds(p)
    got = cb["c_ii"] - cb["c_i"]
    assert got == pytest.approx(4.9176652558290135, rel=1e-10)
    # and it is exactly the three-term formula
    want = (
        math.pi / (2.0 * p.c) + TAIL_COEFF * _tss(p.c, p.k1)
    ) * periodic_f.variation + (SUP_COEFF / p.c) * periodic_f.sup
    assert got == want


def test_case_bounds_reference_point():
    p = ErrorParams(c=2.67, k1=0, eps=3.61, k2=300000)
    cb = case_bounds(p)
    assert set(cb) == {"params", "c_i", "c_ii", "c_iii", "c_iii_tau", "c_iv", "c0"}
    assert cb["c_i"] == pytest.approx(2.6291006902257292, rel=1e-10)
    assert cb["c_ii"] == pytest.approx(7.546765946054743, rel=1e-10)
    assert cb["c_iii"] == pytest.approx(3.144339373130324, rel=1e-8)
    assert cb["c_iii_tau"] == 1.0
    assert cb["c_iv"] == pytest.approx(4.85615240575092, rel=1e-10)
    assert cb["c0"] == max(cb["c_ii"], cb["c_iii"], cb["c_iv"]) == cb["c_ii"]
    # signed distances to the published claims
    assert cb["c_ii"] - PUBLISHED_C0 == pytest.approx(0.2667659, abs=1e-6)
    assert cb["c_iii"] - 3.25 == pytest.approx(-0.1056606, abs=1e-6)
    assert cb["c_iv"] - 4.87 == pytest.approx(-0.0138476, abs=1e-6)


def test_sup_coeff_split_identity():
    assert SUP_COEFF == 0.9794 + 1.3597


# ---------------------------------------------------------------------------
# the optimizer


def test_optimizer_degenerate_grid_reproduces_case_bounds(periodic_f):
    for point in ((2.67, 0, 3.61, 300000), (1.0, 20, 0.5, 1000), (5.0, 7, 10.0, 10 ** 4)):
        c, k1, eps, k2 = point
        cb = case_bounds(ErrorParams(c, k1, eps, k2))
        params, achieved = optimize_C0([c], [k1], [eps], [k2])
        assert achieved.hex() == cb["c0"].hex(), point
        assert meanvalue._c_ii_grid([c], [k1], periodic_f)[0, 0].hex() == cb["c_ii"].hex(), point
        assert (params.c, params.k1, params.eps, params.k2) == point


def test_optimizer_default_grids():
    params, achieved = optimize_C0(
        DEFAULT_C_GRID, DEFAULT_K1_GRID, DEFAULT_EPS_GRID, DEFAULT_K2_GRID
    )
    assert achieved == pytest.approx(7.407792810653899, rel=1e-10)
    assert achieved.hex() == "0x1.da19470452fc3p+2"  # the scalar loop's bits
    assert 6.5 <= achieved <= 8.0
    assert (params.c, params.k1) == (2.71, 20)
    # never worse than the reference point
    ref = case_bounds(ErrorParams(c=2.67, k1=0, eps=3.61, k2=300000))
    assert achieved <= ref["c0"]


def _tss_at(c, k1, tau):
    # the scalar tail sum the optimizer evaluated 10 times per (c, k1)
    ks = np.arange(k1 + 1, dtype=np.float64)
    terms = np.exp(-np.sqrt((c + TWO_PI * ks) / (DECAY_SCALE * tau)))
    last = math.exp(-math.sqrt((c + TWO_PI * k1) / (DECAY_SCALE * tau)))
    tail_factor = (
        math.sqrt(DECAY_SCALE) * math.sqrt(TWO_PI * k1 + c) + DECAY_SCALE
    ) / math.pi
    return float(np.sum(terms)) + last * tail_factor


def _loop_a_values(c_grid, k1_grid, f):
    """The optimizer's A half as the scalar loop it replaced: c_ii per (c, k1)."""
    rows = []
    for c in sorted(set(c_grid)):
        ci = (1.0 - f.K) * (MERTENS_M + 1.0) + (1.0 + 1e-8) * c * c / 4.0
        for k1 in sorted(set(k1_grid)):
            top = _tss_at(c, k1, 1.0)
            assert all(_tss_at(c, k1, i / 10.0) <= top * (1.0 + 1e-12) for i in range(1, 10))
            bound = (math.pi / (2.0 * c) + TAIL_COEFF * top) * f.variation + (
                SUP_COEFF / c
            ) * f.sup
            rows.append((c, k1, (ci + bound).hex()))
    return rows


@pytest.mark.parametrize("c_grid, k1_grid", [
    (DEFAULT_C_GRID, DEFAULT_K1_GRID),
    ([2.67], DEFAULT_K1_GRID),
    (DEFAULT_C_GRID, [0]),
    ([3.5, 1.0, 2.67, 3.5, 1.0, 4.99], [7, 0, 20, 7, 1]),
], ids=["default", "single-c", "k1-0", "unsorted-duplicates"])
def test_optimizer_a_half_bits_match_scalar_loop(periodic_f, monkeypatch, c_grid, k1_grid):
    grids = []
    real = meanvalue._c_ii_grid

    def spy(*args):
        grids.append(real(*args))
        return grids[-1]

    monkeypatch.setattr(meanvalue, "_c_ii_grid", spy)
    optimize_C0(c_grid, k1_grid, [0.5], [1000])
    (a_grid,) = grids
    cs, k1s = sorted(set(c_grid)), sorted(set(k1_grid))
    got = [(c, k1, float(a_grid[i, j]).hex())
           for i, c in enumerate(cs) for j, k1 in enumerate(k1s)]
    assert got == _loop_a_values(c_grid, k1_grid, periodic_f)


def test_tail_sum_small_is_the_scalar_tail_sum():
    for c, k1 in ((1.0, 0), (2.67, 0), (2.67, 20), (5.0, 3), (4.37, 11)):
        assert _tss(c, k1).hex() == _tss_at(c, k1, 1.0).hex(), (c, k1)


@pytest.mark.parametrize("grids", [
    ([2.0, 0.99], [0], [1.0], [1000]),
    ([2.0], [3, -1], [1.0], [1000]),
    ([2.0], [0], [1.0, 0.0], [1000]),
    ([2.0], [0], [1.0, -0.5], [1000]),
    ([2.0], [0], [1.0], [1000, -1]),
    ([2.0, math.nan, 3.0], [0], [1.0], [1000]),
    ([2.0], [0], [1.0, math.nan], [1000]),
], ids=["c", "k1", "eps-zero", "eps-negative", "k2", "c-nan", "eps-nan"])
def test_optimizer_rejects_out_of_domain_grid_values_first(grids, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the grids were checked")

    monkeypatch.setattr(meanvalue, "_c_ii_grid", no_work)
    monkeypatch.setattr(meanvalue, "_case_iii_sup", no_work)
    monkeypatch.setattr(meanvalue.PeriodicF, "build", no_work)
    with pytest.raises(DomainError):
        optimize_C0(*grids)


def test_optimizer_rejects_empty_grids():
    with pytest.raises(UsageError):
        optimize_C0([], [0], [3.61], [1000])
    with pytest.raises(UsageError):
        optimize_C0([2.67], [0], [], [1000])


# ---------------------------------------------------------------------------
# nu3 and the checked integral


def test_integral_window():
    enc = integral_exp_over_square()
    assert 9.43 <= enc.lo and enc.hi <= 9.45
    assert enc.contains(9.443261310467193)
    assert enc.lo >= 1.85


def test_nu3_values_and_nesting():
    # each enclosure holds the series over all of K's enclosure, so they
    # share its spread (about 1e-10) and overlap, whatever the head length
    small = nu3(10 ** 3)
    big = nu3(10 ** 6)
    assert big.hi <= 4.36
    assert max(small.lo, big.lo) <= min(small.hi, big.hi)
    assert big.contains(4.3378671481) and small.contains(4.3378671481)
    assert 5e-11 < small.width < big.width < 1e-9
    with pytest.raises(DomainError):
        nu3(999)


def test_nu3_bits_are_frozen():
    # float.hex recorded when the series came to be enclosed over K's
    # enclosure with an Euler-Maclaurin tail (were 0x1.11df3931c0509p+2,
    # 0x1.15fb4013d8d10p+2 and 0x1.159ab01baac74p+2, 0x1.159fb3fe3bd70p+2
    # at K's midpoint with the integral-comparison tail)
    got = [(e.lo.hex(), e.hi.hex()) for e in (nu3(10 ** 3), nu3(10 ** 6))]
    assert got == [
        ("0x1.159f9d87d2e6fp+2", "0x1.159f9d87f155fp+2"),
        ("0x1.159f9d87912c6p+2", "0x1.159f9d8833119p+2"),
    ]


def test_gauss_legendre_literals():
    # the stored nodes and weights are the 16-point rule on [-1, 1], with
    # weights halved, and symmetric to rounding
    nodes, weights = np.array(meanvalue._GL_NODES), np.array(meanvalue._GL_WEIGHTS)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(16)
    assert np.max(np.abs(nodes - ref_nodes)) <= 1e-15
    assert np.max(np.abs(2.0 * weights - ref_weights)) <= 1e-15
    assert np.max(np.abs(nodes + nodes[::-1])) <= 1e-15
    assert np.max(np.abs(weights - weights[::-1])) <= 1e-15
    assert np.all(np.diff(nodes) > 0) and abs(math.fsum(weights) - 1.0) <= 1e-14


def test_nu3_peak_memory():
    # blocks of 2^16 terms, well under one buffer of 1e6 + 1 floats (8 MB);
    # two buffers of 2e6 + 1 floats took 32 MB
    nu3(10 ** 6)
    tracemalloc.start()
    try:
        nu3(10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


# ---------------------------------------------------------------------------
# the constant ledger


def test_ledger_identities_are_exact(ledger):
    k, m = ledger.K, ledger.M
    assert ledger.C == ledger.C0 + ledger.nu1 + ledger.nu2 + k * (m + 1.0)
    assert ledger.a == 3.14 * ledger.nu3 * math.exp(ledger.C) * math.exp(
        1.82 * k
    ) / (1.0 - 2.0 * k)
    assert ledger.final == ledger.a * math.exp(2.0 * k * m + 1.21 * k)


def test_ledger_published_windows(ledger):
    assert 5.4e5 <= ledger.a <= 5.6e5
    assert 9.5e5 <= ledger.final <= 9.9e5
    assert ledger.nu1 == pytest.approx(0.9234509732285546, rel=1e-12)


def test_ledger_provenance_tags(ledger):
    d = ledger.as_dict()
    assert d["C0"]["provenance"] == "published"
    assert d["K"]["provenance"] == "computed"
    assert d["final"]["provenance"] == "derived"
    assert d["a"]["provenance"] == "derived"
    assert d["a"]["value"] == ledger.a


def test_ledger_custom_c0_marked_computed(prime_table):
    led = assemble_ledger(8.0, prime_table)
    assert led.as_dict()["C0"]["provenance"] == "computed"
    assert led.final > 0
    with pytest.raises(DomainError):
        assemble_ledger(0.0, prime_table)


def test_ledger_refuses_an_overflowing_c0(prime_table):
    # exp(C) passes the float range near C0 = 704: a and final turn inf,
    # and from C0 = 709 math.exp itself overflows
    assert 1e308 < assemble_ledger(703.0, prime_table).final < math.inf
    for c0 in (704.0, 1000.0, 1e300, math.inf, math.nan):
        with pytest.raises(DomainError):
            assemble_ledger(c0, prime_table)


# ---------------------------------------------------------------------------
# delta and the epsilon table


def test_delta_log_scale():
    assert delta(0.99) / math.log(10) == pytest.approx(-3.39381e10, rel=1e-4)
    with pytest.raises(DomainError):
        delta(0.0)
    with pytest.raises(DomainError):
        delta(1.5)
    with pytest.raises(DomainError):
        delta(0.5, big_constant=0.1)


def test_delta_candidate_close_to_published():
    for c, pub in PUBLISHED_DELTA.items():
        cand = delta_table_candidate(c)
        assert 0.97 < cand / pub < 0.99


def test_epsilon_override_reference():
    # the table's one epsilon formula, c1 * 4 pi delta^(-3/2), bit for bit
    d = PUBLISHED_DELTA[0.99]
    rep, _ = table1_report([1.0], [0.99], {0.99: d})
    assert rep["cells"][0][0] == 4.0 * math.pi * d ** -1.5
    assert rep["cells"][0][0] == pytest.approx(6.449454251627669e15, rel=1e-12)


def test_table1_full_grid():
    rep, findings = table1_report(
        list(EPSILON_TABLE_C1), list(EPSILON_TABLE_C), dict(PUBLISHED_DELTA)
    )
    assert sorted(rep["checks"]) == ["column-power-law", "common-factor-spread", "linearity"]
    assert rep["checks"]["linearity"]["passed"]
    assert rep["checks"]["column-power-law"]["passed"]
    assert rep["checks"]["common-factor-spread"]["passed"]
    outliers = [d for d in findings if d["kind"] == "published-cell-outlier"]
    assert len(outliers) == 1
    assert outliers[0]["published"] == 8.45e-14
    glob = [d for d in findings if d["kind"] == "global-factor"]
    assert len(glob) == 1
    assert glob[0]["factor"] == pytest.approx(1.415, abs=5e-3)
    assert abs(glob[0]["sqrt2_deviation"]) < 0.01


def test_table1_single_cell():
    rep, _ = table1_report([1.0], [0.99], {0.99: PUBLISHED_DELTA[0.99]})
    assert rep["cells"][0][0] == pytest.approx(6.449454251627669e15, rel=1e-12)
    assert rep["published"][0][0] == 9.15e15
    assert rep["ratios"][0][0] == pytest.approx(1.4187, abs=1e-3)


def test_table1_off_grid_skips_ratio_checks():
    rep, _ = table1_report([2.5], [0.7], {0.7: 1e-11})
    assert rep["published"] is None and rep["ratios"] is None
    assert rep["checks"]["linearity"]["passed"]
    assert any("skipped" in n for n in rep["notes"])


def test_table1_validation():
    with pytest.raises(UsageError):
        table1_report([], [0.99], {0.99: 1e-10})
    with pytest.raises(UsageError):
        table1_report([1.0], [0.99], {0.5: 1e-10})
