"""The ten acceptance criteria, one test each, in order.

Each test records a single PASS/FAIL line (echoed in the terminal
summary) and then asserts the criterion.  Criteria 1, 2, and 4 fail on
honest grounds: the swept inequalities are false at small arguments and
the computed kink constant sits farther from its published rounding
than the stated tolerance allows.  The failures are real properties of
the formulas as stated, not implementation defects; the reports carry
the exact fail ranges.
"""

import json
import math
import time

import numpy as np
import pytest

from xpv import core, meanvalue
from xpv.cli import run
from xpv.dickman import build_rho_table, rho_log, verify_rho_exponent
from xpv.meanvalue import (
    DEFAULT_C_GRID,
    DEFAULT_EPS_GRID,
    DEFAULT_K1_GRID,
    DEFAULT_K2_GRID,
    ErrorParams,
    case_bounds,
    integral_exp_over_square,
    nu3,
    optimize_C0,
    solve_K,
    table1_report,
)
from xpv.mfunc import (
    char_sum,
    constant_one,
    empirical_checks,
    f_value,
    liouville,
    pv_ratio,
    quadratic_character,
    random_pm1,
)
from xpv.primes import nu2, tail_power_sum_bound, verify_inequality
from xpv.constants import (
    EPSILON_TABLE_C,
    EPSILON_TABLE_C1,
    PUBLISHED_DELTA,
)


def _record(lines, n, ok, detail):
    line = "criterion %2d: %s  %s" % (n, "PASS" if ok else "FAIL", detail)
    lines.append(line)
    print(line)
    assert ok, line


_CONSTANTS_REPORT = {}


def _constants_report(capsys):
    if "report" not in _CONSTANTS_REPORT:
        code = run(["constants", "--optimize"])
        out = capsys.readouterr().out
        _CONSTANTS_REPORT["report"] = json.loads(out)
        _CONSTANTS_REPORT["code"] = code
    return _CONSTANTS_REPORT["code"], _CONSTANTS_REPORT["report"]


def test_criterion_01_pi_li_sweeps(acceptance_lines, prime_table):
    t0 = time.perf_counter()
    r1 = verify_inequality("pi-li-1", 2, 1e6, prime_table)
    r2 = verify_inequality("pi-li-2", 2, 1e6, prime_table)
    elapsed = time.perf_counter() - t0
    r3 = verify_inequality("pi-li-3", 2, 1e6, prime_table)
    ok = (
        r1.verdict == "pass" and r2.verdict == "pass"
        and elapsed < 60.0 and r3.verdict == "pass"
    )
    detail = (
        "pi-li-1 %s (worst %.4g at %g), pi-li-2 %s (worst %.4g at %g), "
        "pi-li-3 %s (worst %.4g at %g), %.1fs; all three are false at "
        "small prime left-limits, true onsets x >= 11 / 41 / 67"
        % (r1.verdict, r1.worst_margin, r1.arg_min,
           r2.verdict, r2.worst_margin, r2.arg_min,
           r3.verdict, r3.worst_margin, r3.arg_min, elapsed)
    )
    _record(acceptance_lines, 1, ok, detail)


def test_criterion_02_log_sums(acceptance_lines, prime_table):
    r_log = verify_inequality("log2p-plain", 2, 355990, prime_table)
    r_br = verify_inequality("mertens-bracket", 2, 1e6, prime_table)
    bracket_ok = (
        r_br.verdict == "pass" and r_br.arg_min == 2.0
        and 0.0 < r_br.worst_margin < 5e-4
    )
    ok = r_log.verdict == "pass" and bracket_ok
    detail = (
        "log2p %s (worst %.4g at x=%g; false only on [3, 3.1069)), "
        "bracket %s (worst %.4g at x=%g, under 5e-4)"
        % (r_log.verdict, r_log.worst_margin, r_log.arg_min,
           r_br.verdict, r_br.worst_margin, r_br.arg_min)
    )
    _record(acceptance_lines, 2, ok, detail)


def test_criterion_03_nu_family(acceptance_lines, prime_table, capsys):
    enc2 = nu2(prime_table)
    target = 0.5772156649015329 - 0.26149721284764278
    nu2_ok = enc2.contains(target) and enc2.hi <= 0.316
    alphas = np.arange(1, 1025) / 1024.0
    v1 = max(tail_power_sum_bound(float(a)) for a in alphas)
    v1_ok = v1 <= 0.9235 and 0.9235 - v1 < 1e-4
    integ = integral_exp_over_square()
    int_ok = 9.43 <= integ.lo and integ.hi <= 9.45
    enc3 = nu3(10 ** 6)
    nu3_ok = enc3.hi <= 4.36
    code, rep = _constants_report(capsys)
    failed = [d for d in rep["discrepancies"] if d["kind"] == "check-not-passed"]
    isolated = (
        code == 1
        and all(d["check_id"] == "K-near-published" for d in failed)
        and len(failed) == 1
    )
    ok = nu2_ok and v1_ok and int_ok and nu3_ok and isolated
    detail = (
        "nu2 in [%.6f, %.6f] brackets gamma-M, hi<=0.316: %s; "
        "nu1 %.6f gap %.2e; integral [%.4f, %.4f]; nu3 hi %.4f <= 4.36; "
        "only failure isolated in discrepancies: %s"
        % (enc2.lo, enc2.hi, nu2_ok, v1, 0.9235 - v1,
           integ.lo, integ.hi, enc3.hi, isolated)
    )
    _record(acceptance_lines, 3, ok, detail)


def test_criterion_04_kink_constant(acceptance_lines, periodic_f):
    enc = solve_K()
    # nearest point of the enclosure to the published rounding
    dist = max(0.0, abs(enc.mid - 0.3286) - (enc.hi - enc.lo) / 2.0)
    k_ok = dist <= 5e-5
    f_ok = (
        periodic_f.mean == 1.0 - periodic_f.K
        and periodic_f.sup == 1.0 + periodic_f.K
        and periodic_f.variation == 4.0
    )
    ok = k_ok and f_ok
    detail = (
        "K = %.11f, distance to 0.3286 is %.3e (needs <= 5e-5): %s; "
        "periodic weight invariants: %s"
        % (enc.mid, dist, k_ok, f_ok)
    )
    _record(acceptance_lines, 4, ok, detail)


def test_criterion_05_density_table(acceptance_lines):
    t0 = time.perf_counter()
    table = build_rho_table(130.0)
    build_s = time.perf_counter() - t0
    r115 = verify_rho_exponent(1.0, 130.0, 1.15, "table", table=table)
    r142 = verify_rho_exponent(130.0, 1000.0, 1.42, "buchstab")
    e2 = rho_log(2.0, table)
    e3 = rho_log(3.0, table)
    ref2 = math.log(1.0 - math.log(2.0))
    ref3 = math.log(0.0486083883)
    vals_ok = (
        abs(e2.mid - ref2) / abs(ref2) < 1e-6
        and abs(e3.mid - ref3) / abs(ref3) < 1e-6
    )
    ok = (
        r115.verdict == "pass" and r142.verdict == "pass"
        and vals_ok and build_s < 30.0
    )
    detail = (
        "exp 1.15 on [1,130] %s, exp 1.42 on [130,1000] %s, "
        "log-density at 2 and 3 within 1e-6 relative: %s, build %.2fs"
        % (r115.verdict, r142.verdict, vals_ok, build_s)
    )
    _record(acceptance_lines, 5, ok, detail)


def test_criterion_06_ledger(acceptance_lines, ledger):
    k, m = ledger.K, ledger.M
    ids_ok = (
        ledger.C == ledger.C0 + ledger.nu1 + ledger.nu2 + k * (m + 1.0)
        and ledger.a
        == 3.14 * ledger.nu3 * math.exp(ledger.C) * math.exp(1.82 * k)
        / (1.0 - 2.0 * k)
        and ledger.final == ledger.a * math.exp(2.0 * k * m + 1.21 * k)
    )
    a_ok = 5.4e5 <= ledger.a <= 5.6e5
    f_ok = 9.5e5 <= ledger.final <= 9.9e5
    ok = ids_ok and a_ok and f_ok
    detail = (
        "a = %.1f in [5.4e5, 5.6e5]: %s; final = %.1f in [9.5e5, 9.9e5]: %s; "
        "chain identities exact: %s"
        % (ledger.a, a_ok, ledger.final, f_ok, ids_ok)
    )
    _record(acceptance_lines, 6, ok, detail)


def test_criterion_07_optimizer(acceptance_lines, periodic_f, capsys):
    params, achieved = optimize_C0(
        DEFAULT_C_GRID, DEFAULT_K1_GRID, DEFAULT_EPS_GRID, DEFAULT_K2_GRID,
    )
    window_ok = 6.5 <= achieved <= 8.0
    code, rep = _constants_report(capsys)
    gaps = [
        r["optimizer"]["gap_to_published"]
        for r in rep["results"]
        if "optimizer" in r
    ]
    gap_ok = len(gaps) == 1 and gaps[0] == pytest.approx(achieved - 7.28, rel=1e-12)
    c = 2.67
    comp_angle = math.pi / (2.0 * c) * periodic_f.variation
    comp_sup = 2.3391 / c * periodic_f.sup
    comp_ok = (
        abs(comp_angle - 2.3533) < 1e-3 and abs(comp_sup - 1.1640) < 1e-3
    )
    rebuilt = (
        comp_angle + comp_sup
        + 0.1522 * meanvalue._tss_grid(np.array([c]), [0])[0, 0] * periodic_f.variation
    )
    cb = case_bounds(ErrorParams(c=c, k1=0, eps=3.61, k2=1000))
    direct = cb["c_ii"] - cb["c_i"]
    comp_ok = comp_ok and abs(rebuilt - direct) < 1e-12
    ok = window_ok and gap_ok and comp_ok
    detail = (
        "achieved %.6f at (c=%.2f, k1=%d) in [6.5, 8.0]: %s; signed gap "
        "%+0.4f reported: %s; error-bound components at c=2.67 match "
        "pi/(2c)*4 and (2.3391/c)(1+K) to 1e-3: %s"
        % (achieved, params.c, params.k1, window_ok,
           achieved - 7.28, gap_ok, comp_ok)
    )
    _record(acceptance_lines, 7, ok, detail)


def test_criterion_08_exponent_table(acceptance_lines):
    rep, findings = table1_report(
        list(EPSILON_TABLE_C1), list(EPSILON_TABLE_C), dict(PUBLISHED_DELTA)
    )
    lin_ok = rep["checks"]["linearity"]["verdict"] == "pass"
    law_ok = rep["checks"]["column-power-law"]["verdict"] == "pass"
    spread_ok = rep["checks"]["common-factor-spread"]["verdict"] == "pass"
    glob = [d for d in findings if d["kind"] == "global-factor"]
    factor_ok = len(glob) == 1 and abs(glob[0]["factor"] - 1.42) < 0.02
    ok = lin_ok and law_ok and spread_ok and factor_ok
    detail = (
        "linearity exact: %s; power law within 2%%: %s; ratio spread "
        "under 2%%: %s; common factor %.4f (near sqrt 2) reported as a "
        "discrepancy, absolute reproduction out of scope"
        % (lin_ok, law_ok, spread_ok, glob[0]["factor"] if glob else math.nan)
    )
    _record(acceptance_lines, 8, ok, detail)


def test_criterion_09_multiplicative_checks(acceptance_lines, prime_table, ledger):
    rng = np.random.default_rng(6455)
    specs = [constant_one(), liouville(), quadratic_character(3), random_pm1(11)]
    pairs = []
    while len(pairs) < 1000:
        m = int(rng.integers(2, 10 ** 6))
        n = int(rng.integers(2, 10 ** 6))
        if math.gcd(m, n) == 1:
            pairs.append((m, n))
    mult_ok = all(
        f_value(s, m * n) == f_value(s, m) * f_value(s, n)
        for s in specs
        for m, n in pairs
    )
    odd_primes = [int(p) for p in prime_table.primes[1 : prime_table.prime_pi(1000)]]
    orth_ok = all(char_sum(q, q) == 0 for q in odd_primes)
    first_100 = [int(p) for p in prime_table.primes[1:101]]
    pv_ok = all(pv_ratio(q) < 1.0 for q in first_100)
    emp_ok = True
    for spec in (constant_one(), liouville(), quadratic_character(3)):
        for x in (1e2, 1e4, 1e6):
            rep = empirical_checks(spec, x, 0.5, ledger, prime_table)
            emp_ok = emp_ok and (
                rep["checks"]["mean-decay"]["verdict"] == "pass"
                and rep["checks"]["convolution-lower"]["verdict"] == "pass"
            )
    ok = mult_ok and orth_ok and pv_ok and emp_ok
    detail = (
        "multiplicativity on 1000 coprime pairs x 4 functions: %s; "
        "full-period sums vanish for odd primes to 1000: %s; "
        "normalized peaks below 1 for the first 100 odd primes: %s; "
        "decay and convolution checks pass at x = 1e2, 1e4, 1e6: %s"
        % (mult_ok, orth_ok, pv_ok, emp_ok)
    )
    _record(acceptance_lines, 9, ok, detail)


def test_criterion_10_determinism(acceptance_lines, capsys, monkeypatch):
    argv = ["verify", "--check", "mertens-remainder", "--from", "2",
            "--to", "100000"]
    assert run(list(argv)) == 0
    first = capsys.readouterr().out
    assert run(list(argv)) == 0
    second = capsys.readouterr().out
    bytes_ok = first == second
    # 19185 states: the 9591 primes in one chunk of 2^16 states, or in 19 of 2^10
    monkeypatch.setattr(core, "_SWEEP_CHUNK", 1 << 10)
    assert run(list(argv)) == 0
    split_ok = capsys.readouterr().out == first
    ok = bytes_ok and split_ok
    detail = (
        "identical argv gives byte-identical JSON: %s; the sweep in chunks of "
        "2^10 states gives the report of one chunk: %s" % (bytes_ok, split_ok)
    )
    _record(acceptance_lines, 10, ok, detail)
