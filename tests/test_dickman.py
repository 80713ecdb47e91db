import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from rho_identity import integral_identity_residual
from xpv import core
from xpv.cli import json_dumps, run
from xpv.dickman import (
    _buchstab_vec,
    build_rho_table,
    divisor_mean_lower_bound,
    max_exponent,
    rho_log,
    verify_rho_exponent,
)
from xpv.errors import (
    DomainError,
    PrecisionError,
    PreconditionError,
    UsageError,
)


def test_build_validation():
    with pytest.raises(DomainError):
        build_rho_table(1.5)
    with pytest.raises(PrecisionError):
        build_rho_table(10.0, step=2.0 ** -7)
    with pytest.raises(PreconditionError):
        build_rho_table(10.0, step=0.0007)  # does not divide the range
    with pytest.raises(PreconditionError):
        build_rho_table(10.0, step=0.001)  # divides it, not a power of two
    with pytest.raises(PreconditionError):
        build_rho_table(10.0 + 1e-12)  # 1e-9 steps off the grid is off it


def test_density_at_one_is_exact(rho_table):
    enc = rho_log(1.0, rho_table)
    assert enc.lo == 0.0 and enc.hi == 0.0


def test_density_closed_form_region(rho_table):
    # on [1, 2] the density is 1 - log x
    enc = rho_log(2.0, rho_table)
    want = math.log(1.0 - math.log(1.0) + 0.0) + math.log1p(-math.log(2.0)) * 1.0
    assert abs(enc.mid - math.log(1.0 - math.log(2.0))) < 1e-8
    enc15 = rho_log(1.5, rho_table)
    assert abs(enc15.mid - math.log(0.594535)) < 1e-6


def test_density_reference_values(rho_table):
    enc3 = rho_log(3.0, rho_table)
    ref3 = math.log(0.0486083883)
    assert abs(enc3.mid - ref3) / abs(ref3) < 1e-6
    enc10 = rho_log(10.0, rho_table)
    assert abs(enc10.mid - math.log(2.77e-11)) < 1e-3
    # the literature value of rho(10); the 50-digit series oracle
    # matches it to 22 digits
    assert enc10.contains(math.log(2.770171837725958988758e-11))


def test_density_enclosure_err_grows(rho_table):
    assert rho_log(3.0, rho_table).width < 1e-5
    assert rho_log(100.0, rho_table).width < 1e-2
    assert rho_log(3.0, rho_table).width < rho_log(100.0, rho_table).width


def test_rho_log_domain(rho_table):
    with pytest.raises(DomainError):
        rho_log(0.5, rho_table)
    with pytest.raises(DomainError):
        rho_log(1000.0, rho_table)


def test_log_values_strictly_decreasing(rho_table):
    diffs = np.diff(rho_table.log_values)
    assert np.all(diffs < 0.0)


def test_log_values_steepening(rho_table):
    # the log-density falls faster and faster: increments keep shrinking
    diffs = np.diff(rho_table.log_values)
    second = np.diff(diffs)
    # allow roundoff slack right at the start of the table
    assert np.all(second[8:] < 1e-12)


def test_integral_identity_random_points(rho_table):
    rng = np.random.default_rng(7)
    idx = rng.integers(
        int(1.0 / rho_table.step), len(rho_table) - 1, size=100
    )
    for j in idx:
        x = float(rho_table.xs[int(j)])
        residual, allowance = integral_identity_residual(rho_table, x)
        assert residual <= allowance


def test_integral_identity_catches_a_small_table_error(rho_table):
    # a smooth 1e-8 error in log rho, with err left as it was
    bad = dataclasses.replace(
        rho_table, log_values=rho_table.log_values + 1e-8 * np.sin(rho_table.xs))
    for x in (2.5, 10.0, 50.0, 150.0, 199.0):
        residual, allowance = integral_identity_residual(bad, x)
        assert residual > allowance


def test_integral_identity_needs_grid_point(rho_table):
    with pytest.raises(PreconditionError):
        integral_identity_residual(rho_table, 2.0001)
    with pytest.raises(PreconditionError):
        integral_identity_residual(rho_table, 10.0 + 1e-12)


def test_table_cross_step_agreement(rho_table):
    coarse = build_rho_table(20.0, step=2.0 ** -9)
    for x in (3.0, 10.0, 17.0):
        a = rho_log(x, rho_table)
        b = rho_log(x, coarse)
        assert abs(a.mid - b.mid) <= a.width / 2 + b.width / 2 + 1e-12


def test_buchstab_floor_values():
    v = _buchstab_vec(np.array([130.0]))[0]
    assert v == pytest.approx(-894.29158882669, rel=1e-10)


def test_buchstab_window_stays_below_one_third():
    # the bound needs its window delta = 1/D, D = log x + 1 + log x / x, below
    # 1/3.  D' = (x + 1 - log x)/x^2 > 0 since log x < x + 1, so delta falls
    # in x and its value at x = 6, the buchstab source's least x, bounds it
    def window(x):
        return 1.0 / (np.log(x) + 1.0 + np.log(x) / x)

    assert window(6.0) == pytest.approx(0.3236, abs=1e-4)
    assert window(6.0) < 1.0 / 3.0
    d = window(np.geomspace(6.0, 1e6, 10 ** 6))
    assert np.all(d < 1.0 / 3.0) and np.all(np.diff(d) < 0.0)


def test_buchstab_stays_below_table(rho_table):
    xs = np.arange(6.0, 130.0 + 1e-9, 0.25)
    lower = _buchstab_vec(xs)
    for x, v in zip(xs, lower):
        assert v <= rho_log(float(x), rho_table).lo + 1e-12


def test_exponent_sweep_table_source(rho_table):
    r = verify_rho_exponent(1.0, 130.0, 1.15, "table", table=rho_table)
    assert r.verdict == "pass"
    assert r.check_id == "rho-exponent-table"
    # equality holds structurally at x = 1 where both sides vanish
    assert r.worst_margin == 0.0 and r.arg_min == 1.0


def test_exponent_sweep_buchstab_source():
    r = verify_rho_exponent(130.0, 1000.0, 1.42, "buchstab")
    assert r.verdict == "pass"
    assert r.check_id == "rho-exponent-buchstab"
    assert r.arg_min == 130.0
    assert r.worst_margin == pytest.approx(4.255270727410448, rel=1e-9)
    # [6, 10] holds 4097 grid points; a range starting just above 6
    # leaves 6 out and evaluates its own left end instead
    for lo in (6.0, 6.0000000000001):
        assert verify_rho_exponent(lo, 10.0, 1.0, "buchstab").evaluation_count == 4097


# sha256 of each report, recorded while the table was still marched: the
# closed-form bound reads no table, so the series left these bytes alone
BUCHSTAB_DIGESTS = {
    (130.0, 1000.0, 1.42):
        "9a0e8d8dc65ae210d4b2813a7732c35a6bc192405c531b3156db7e901e6447fb",
    (6.0, 100.0, 1.1):
        "8e1ff9ab761043e6e7e1e9b53ae6209af45eb4807ed1fd99ee6a1cbfb45fb319",
    (6.0, 10.0, 1.0):
        "e3d295f163c639e8e32e1c79d82bb2b45d10b159961bdc4e4d496566d13707f8",
    (7.3, 512.5, 1.2):
        "15bed96fed47c18cb3fbc2e741a050b69eae1df4325db14aca879ace0720c86b",
    (6.0, 4097.0, 1.15):
        "528d94a285405e8e058dd8994531041eab6a3051764e429f3eeff562df46ca32",
}


@pytest.mark.parametrize("args", sorted(BUCHSTAB_DIGESTS))
def test_buchstab_reports_are_unchanged(args):
    r = verify_rho_exponent(*args, "buchstab")
    digest = hashlib.sha256(json_dumps(r.as_dict()).encode()).hexdigest()
    assert digest == BUCHSTAB_DIGESTS[args]


def test_exponent_sweep_failing_exponent(rho_table):
    # 1.10 is too small an exponent for the mid range
    r = verify_rho_exponent(2.0, 130.0, 1.10, "table", table=rho_table)
    assert r.verdict == "fail"


def test_exponent_sweep_negative_onsets_by_value():
    # the off-grid endpoints are appended after the grid points, so the
    # onsets must be the smallest and largest x, not the first and last
    # states in array order
    table = build_rho_table(10.0)
    r = verify_rho_exponent(5.0003, 9.9997, 0.3, "table", table=table)
    assert r.evaluation_count == 5121
    assert r.notes[-1] == (
        "negative margins at 5121 of 5121 evaluation points; "
        "first at x = 5.0003, last at x = 9.9997"
    )


@pytest.mark.parametrize("check", [
    "6.0000000000001,10,1.15,table",  # the worst point is x_lo
    "6,9.9999999999999,0.3,table",  # the worst point is x_hi
])
def test_exponent_check_evaluates_only_its_range(check, capsys):
    # an endpoint a hair off the grid is evaluated where it lies, not at
    # the grid point next to it, outside the range
    run(["dickman", "--xmax", "10", "--exponent-check", check])
    rep = json.loads(capsys.readouterr().out)["results"][1]
    assert rep["arg_min"] in rep["range"]
    assert rep["evaluation_count"] == 4097


@pytest.mark.parametrize("offset", [0.0, 5e-10, 5e-6, 0.3])
def test_exponent_table_evaluates_the_endpoint(offset):
    # [6, 9) holds 3072 grid points; x_hi = 9 - offset*step adds one
    # more, as grid point 9 itself at offset 0, else through rho_log
    table = build_rho_table(10.0)
    x_hi = 9.0 - offset * table.step
    r = verify_rho_exponent(6.0, x_hi, 1.0, "table", table=table)
    assert r.evaluation_count == 3073


@pytest.mark.parametrize("check", [
    "5.0001,5.0001,1.15,table", "5,5,1.15,table", "6.0001,6.0001,1.0,buchstab"])
def test_exponent_check_degenerate_range_counts_its_point_once(check, capsys):
    # x_lo == x_hi off the grid is one state, not one per endpoint
    run(["dickman", "--xmax", "10", "--exponent-check", check])
    rep = json.loads(capsys.readouterr().out)["results"][1]
    assert rep["evaluation_count"] == 1
    assert rep["arg_min"] == rep["range"][0] == rep["range"][1]


def test_exponent_sweep_chunks_match_one_chunk(rho_table, monkeypatch):
    # each off-grid x_hi is the last state, so it lands in the last chunk
    # of 2^10: alone there for [5.0003, 9.9997] (5121 states), whose
    # negative onsets are both off-grid endpoints
    cases = [((5.0003, 9.9997, 0.3, "table"), build_rho_table(10.0)),
             ((1.0, 129.9999, 1.15, "table"), rho_table),
             ((6.0, 100.3, 1.1, "buchstab"), None),
             ((130.0, 1000.0, 1.42, "buchstab"), None)]
    for args, table in cases:
        monkeypatch.setattr(core, "_SWEEP_CHUNK", 1 << 30)
        whole = repr(verify_rho_exponent(*args, table=table).as_dict())
        monkeypatch.setattr(core, "_SWEEP_CHUNK", 1 << 10)
        chunked = repr(verify_rho_exponent(*args, table=table).as_dict())
        assert chunked == whole, args


def test_exponent_sweep_peak_memory_is_one_chunk(monkeypatch):
    def peak():
        tracemalloc.start()
        try:
            verify_rho_exponent(6.0, 1000.0, 1.42, "buchstab")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(core, "_SWEEP_CHUNK", 1 << 30)
    whole = peak()
    monkeypatch.setattr(core, "_SWEEP_CHUNK", 1 << 14)
    chunked = peak()
    assert chunked < 0.7 * whole, (chunked, whole)


def test_exponent_sweep_grid_comes_in_chunks(monkeypatch):
    # 4.09M grid points; the whole grid alone is 33 MB, and the check
    # peaked at 136 MB when the grid was built before the sweep
    monkeypatch.setattr(core, "_SWEEP_CHUNK", 1 << 14)
    tracemalloc.start()
    try:
        rep = verify_rho_exponent(6.0, 4000.0, 1.0, "buchstab")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.evaluation_count == 3994 * 1024 + 1
    assert peak < 10 * 2 ** 20, peak


def test_exponent_sweep_validation(rho_table):
    with pytest.raises(UsageError):
        verify_rho_exponent(1.0, 10.0, 1.15, "nonsense", table=rho_table)
    with pytest.raises(UsageError):
        verify_rho_exponent(10.0, 1.0, 1.15, "table", table=rho_table)
    with pytest.raises(PreconditionError):
        verify_rho_exponent(1.0, 10.0, 1.15, "table", table=None)
    with pytest.raises(PreconditionError):
        verify_rho_exponent(1.0, 10 ** 4, 1.15, "table", table=rho_table)
    with pytest.raises(PreconditionError):
        verify_rho_exponent(3.0, 10.0, 1.42, "buchstab")
    # a bad exponent is refused before any work, whatever the source
    for exponent in (math.nan, math.inf, 0.0, -1.0):
        for source in ("table", "buchstab"):
            with pytest.raises(DomainError):
                verify_rho_exponent(6.0, 10.0, exponent, source, table=rho_table)


def test_max_exponent_values(rho_table):
    got = max_exponent(rho_table, 1.0, 130.0)
    assert got == pytest.approx(1.1481092052735624, rel=1e-9)
    wider = max_exponent(rho_table, 1.0, 200.0)
    assert wider == pytest.approx(1.1516739852759068, rel=1e-9)
    assert wider > got
    # hence 1.15 does not survive past the reference range
    assert wider > 1.15 > got


def test_max_exponent_needs_a_grid_point_above_one():
    table = build_rho_table(3.0)
    for x_lo, x_hi in ((1.0, 1.0005), (1.5003, 1.5007)):
        with pytest.raises(PreconditionError):
            max_exponent(table, x_lo, x_hi)
    assert max_exponent(table, 1.0, 1.0 + 2.0 * table.step) > 0.0


def test_divisor_mean_lower_bound():
    assert divisor_mean_lower_bound(math.e, 0.0) == pytest.approx(0.2, rel=1e-15)
    assert divisor_mean_lower_bound(math.e ** 2, 0.0) == pytest.approx(0.4, rel=1e-14)
    v = divisor_mean_lower_bound(math.e ** 2, 2.0)
    want = 0.4 * math.exp(-2.0 * (1.42 * math.e + 0.5))
    assert v == pytest.approx(want, rel=1e-14)
    # increasing u only hurts
    assert divisor_mean_lower_bound(100.0, 3.0) < divisor_mean_lower_bound(100.0, 1.0)
    for x, u in ((1.0, 0.0), (10.0, -0.1), (math.nan, 0.0), (10.0, math.nan)):
        with pytest.raises(DomainError):
            divisor_mean_lower_bound(x, u)
