import dataclasses
import json
import math
import time
import tracemalloc

import pytest

from xpv import cli, core, meanvalue, mfunc, primes
from xpv.cli import json_dumps, run
from xpv.constants import EPSILON_TABLE_C, EPSILON_TABLE_C1, PUBLISHED_DELTA


def _run(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# serializer


def test_json_dumps_sorted_and_fixed_width():
    s = json_dumps({"b": 1.0, "a": [True, None, "x"], "c": 2})
    assert s == '{"a":[true,null,"x"],"b":1,"c":2}'


def test_json_dumps_seventeen_digits():
    s = json_dumps(0.1)
    assert s == "0.10000000000000001"
    assert json_dumps(1e6) == "1000000"
    assert json_dumps(6.449454251627669e15) == "6449454251627669"


def test_json_dumps_non_finite_as_strings():
    assert json_dumps(math.inf) == '"inf"'
    assert json_dumps(-math.inf) == '"-inf"'
    assert json_dumps(math.nan) == '"nan"'


def test_json_dumps_escapes():
    assert json_dumps('a"b\\c\n') == '"a\\"b\\\\c\\u000a"'


# ---------------------------------------------------------------------------
# exit codes


def test_exit_zero_on_pass(capsys):
    code, out = _run(capsys, "verify", "--check", "mertens-bracket",
                     "--from", "2", "--to", "10000")
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True
    assert rep["command"] == "verify"
    assert rep["version"] == "0.1.0"


def test_exit_one_on_failed_check(capsys):
    code, out = _run(capsys, "verify", "--check", "pi-li-1",
                     "--from", "2", "--to", "100")
    assert code == 1
    rep = json.loads(out)
    assert rep["pass"] is False
    assert rep["discrepancies"]
    assert rep["discrepancies"][0]["kind"] == "check-not-passed"


def _exit_code(argv):
    try:
        return run(argv)
    except SystemExit as exc:  # argparse refuses the argv
        return exc.code


def test_exit_two_on_usage(capsys):
    assert run(["verify", "--check", "nope", "--from", "2", "--to", "3"]) == 2
    assert run(["verify", "--check", "pnt-lower", "--from", "2", "--to", "9"]) == 2
    assert _exit_code(["constants", "--format", "csv"]) == 2
    # refused before the table is allocated
    assert run(["dickman", "--xmax", "1e9"]) == 2
    # an option the subcommand does not take
    assert _exit_code(["charsum", "--q", "7", "--seed", "3"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    "verify --check pnt-lower --from 59 --to 1e5",
    "charsum --q 7",
])
def test_report_depends_on_its_argv_alone(argv, capsys, monkeypatch):
    monkeypatch.delenv("XPV_SIEVE_LIMIT", raising=False)
    plain = _run(capsys, *argv.split())
    for value in ("abc", "1000"):
        monkeypatch.setenv("XPV_SIEVE_LIMIT", value)
        assert _run(capsys, *argv.split()) == plain, value


@pytest.mark.parametrize("argv", [
    ["verify", "--check", "pnt-lower", "--from", "59", "--to", "inf"],
    ["verify", "--check", "li-lower", "--from", "2", "--to", "inf"],
    ["mfunc", "--kind", "liouville", "--x", "nan"],
    ["dickman", "--xmax", "130", "--step", "0"],
    *(["verify", "--check", "pnt-lower", "--from", "59", "--to", "1000",
       "--safety-margin", eta] for eta in ("nan", "inf", "-1")),
])
def test_non_finite_or_non_positive_input_is_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "finite and positive" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("check", ["li-lower", "li-upper"])
def test_li_checks_at_the_top_of_the_float_range(check, capsys):
    # the series half-width's sum passes the float range near 9e307, and
    # the grid's candidate j = 2^17 is 2^1024: neither warns nor fails
    code, out = _run(capsys, "verify", "--check", check, "--from", "1e308",
                     "--to", "1.7976931348623157e308")
    rep = json.loads(out)["results"][0]
    assert code == 0 and rep["verdict"] == "pass", rep
    assert 0.0 < rep["worst_margin"] < math.inf and rep["arg_min"] == 1e308


def test_bad_exponent_check_numbers_are_exit_two(capsys):
    for spec in ("1,inf,1.15,table", "1,8,x,table", "0,8,1.15,table"):
        assert run(["dickman", "--xmax", "8", "--exponent-check", spec]) == 2
    capsys.readouterr()


def test_argparse_error_is_exit_two():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--check"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# determinism and schema


def test_byte_identical_reruns(capsys):
    argv = ["verify", "--check", "log2p-plain", "--from", "2", "--to", "5000"]
    _, first = _run(capsys, *argv)
    _, second = _run(capsys, *argv)
    assert first == second
    argv2 = ["charsum", "--q", "3,7,11,101", "--pv-ratio"]
    _, a = _run(capsys, *argv2)
    _, b = _run(capsys, *argv2)
    assert a == b


def test_schema_keys(capsys):
    _, out = _run(capsys, "charsum", "--q", "7")
    rep = json.loads(out)
    assert sorted(rep.keys()) == [
        "command", "config", "discrepancies", "pass", "results",
        "stamps", "version",
    ]
    assert rep["config"]["q"] == [7]
    assert rep["stamps"]
    assert rep["results"][0]["provenance"] == "computed"


def test_config_echo_includes_flags(capsys):
    _, out = _run(capsys, "verify", "--check", "tail-power",
                  "--from", "0.5", "--to", "1", "--safety-margin", "1e-9")
    rep = json.loads(out)
    cfg = rep["config"]
    assert cfg["check"] == "tail-power"
    assert cfg["x_from"] == 0.5 and cfg["x_to"] == 1
    assert cfg["sieve_limit"] == 10 ** 9


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = _run(capsys, "charsum", "--q", "7", "--out", str(target))
    assert code == 0
    assert out == ""
    rep = json.loads(target.read_text())
    assert rep["results"][0]["q"] == 7


@pytest.mark.parametrize("where", ["missing/report.json", "."])
def test_out_that_cannot_be_written_is_exit_two(where, tmp_path, capsys):
    # a missing directory, then a directory: an OSError, not a traceback
    target = tmp_path / where
    code = run(["charsum", "--q", "7", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")


def test_out_is_checked_before_the_work(tmp_path, capsys, monkeypatch):
    def no_sieve(*args, **kwargs):
        raise AssertionError("sieved before --out was checked")

    monkeypatch.setattr(cli, "sieve_primes", no_sieve)
    target = tmp_path / "missing" / "r.json"
    code = run(["verify", "--check", "pi-li-1", "--from", "2", "--to", "1e7",
                "--out", str(target)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")


def test_out_keeps_its_bytes_when_the_run_is_exit_two(tmp_path, capsys):
    # exit 2 for a reason other than --out: an existing file is left as
    # it was, and the probe leaves no new file behind
    kept = tmp_path / "kept.json"
    kept.write_bytes(b"earlier report\n")
    fresh = tmp_path / "fresh.json"
    for target in (kept, fresh):
        assert run(["mfunc", "--kind", "liouville", "--x", "1.5",
                    "--out", str(target)]) == 2
    assert "x >= 2, got 1.5" in capsys.readouterr().err
    assert kept.read_bytes() == b"earlier report\n"
    assert not fresh.exists()


# ---------------------------------------------------------------------------
# subcommand behavior


def test_dickman_csv_grid(capsys):
    code, out = _run(capsys, "dickman", "--xmax", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,log_rho,err"
    assert len(lines) == 2 + 3 * 1024  # header plus the [1,4] grid
    first = lines[1].split(",")
    assert float(first[0]) == 1.0 and float(first[1]) == 0.0


def test_dickman_exponent_check_flag(capsys):
    code, out = _run(capsys, "dickman", "--xmax", "8",
                     "--exponent-check", "1,8,1.15,table")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"][1]["check_id"] == "rho-exponent-table"
    assert rep["results"][1]["verdict"] == "pass"
    assert run(["dickman", "--xmax", "8", "--exponent-check", "oops"]) == 2
    capsys.readouterr()


def test_mfunc_csv(capsys):
    code, out = _run(capsys, "mfunc", "--kind", "liouville", "--x", "100,1000",
                     "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,M,L,u,Lambda,conv_mean"
    assert len(lines) == 3
    assert float(lines[1].split(",")[1]) == -0.02


def test_mfunc_row_does_not_depend_on_other_x(capsys):
    # the ledger behind the mean-decay bound sums over the primes up to
    # 1e6 however far the largest x makes the command sieve
    rows = []
    for xs in ("1000", "1000,2000000"):
        code, out = _run(capsys, "mfunc", "--kind", "liouville", "--x", xs)
        assert code == 0
        rows.append(json_dumps(json.loads(out)["results"][0]))
    assert rows[0] == rows[1]


def test_mfunc_rows_keep_argv_order_and_grow_the_memo_once(capsys, monkeypatch):
    def results(xs):
        code, out = _run(capsys, "mfunc", "--kind", "liouville", "--x", xs)
        assert code == 0
        return [json_dumps(r) for r in json.loads(out)["results"]]

    alone = {xs: results(xs)[0] for xs in ("1000", "1e5")}
    segments = []
    real = mfunc._values

    def spy(spec, lo, hi, primes, fp):
        segments.append((lo, hi))
        return real(spec, lo, hi, primes, fp)

    monkeypatch.setattr(mfunc, "_values", spy)
    for xs in ("1e5,1000,1e5", "1000,1e5,1000"):
        segments.clear()
        mfunc._held.cache_clear()
        assert results(xs) == [alone[x] for x in xs.split(",")]
        # the largest x runs first, so one segment serves every row
        assert segments == [(0, 100000)], xs


def test_mfunc_ledger_reads_only_the_primes_to_its_limit(capsys, monkeypatch, ledger):
    # mfunc sieves to its largest x; the ledger it builds from that table
    # is the ledger of a table sieved to exactly 1e6
    seen = []
    real = mfunc.empirical_checks

    def spy(spec, x, c, led, table):
        seen.append(led)
        return real(spec, x, c, led, table)

    monkeypatch.setattr(cli, "empirical_checks", spy)
    assert _run(capsys, "mfunc", "--kind", "liouville", "--x", "1500000")[0] == 0
    for f in dataclasses.fields(ledger):
        assert getattr(seen[0], f.name) == getattr(ledger, f.name), f.name


def test_constants_evaluates_each_ledger_input_once(capsys, monkeypatch):
    counts = {"nu2": 0, "nu3": 0}
    for name, fn in (("nu2", primes.nu2), ("nu3", meanvalue.nu3)):
        def counted(*args, _fn=fn, _name=name):
            counts[_name] += 1
            return _fn(*args)

        for module in (primes, meanvalue, cli):  # every binding of the name
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted)
    _run(capsys, "constants")
    assert counts == {"nu2": 1, "nu3": 1}


def _quadratures(capsys, monkeypatch, *argv):
    """(calls, integrand evaluations) of ``core.adaptive_simpson``, through
    every module that binds it, in one job."""
    evals = []
    real = core.adaptive_simpson

    def counted(f, *args):
        evals.append(0)
        n = len(evals) - 1

        def g(t):
            evals[n] += 1
            return f(t)

        return real(g, *args)

    for module in (core, primes):
        monkeypatch.setattr(module, "adaptive_simpson", counted)
    _run(capsys, *argv)
    return len(evals), sum(evals)


def test_constants_runs_no_quadrature(capsys, monkeypatch):
    # K, the weight's fields and integral_exp_over_square are closed forms
    assert _quadratures(capsys, monkeypatch, "constants") == (0, 0)


def test_mfunc_runs_no_mean_quadrature(capsys, monkeypatch):
    argv = ("mfunc", "--kind", "liouville", "--x", "1000")
    assert _quadratures(capsys, monkeypatch, *argv) == (0, 0)


def test_random_signs_hashed_once_per_job(capsys, monkeypatch):
    hashed = []
    real = mfunc._random_signs

    def counted(seed, ps):
        hashed.append(len(ps))
        return real(seed, ps)

    monkeypatch.setattr(mfunc, "_random_signs", counted)
    assert _run(capsys, "mfunc", "--kind", "random:5", "--x", "1000000,1500000")[0] == 0
    assert sum(hashed) == 114155  # pi(1.5e6): the primes to 1e6 are not hashed again
    hashed.clear()
    assert _run(capsys, "mfunc", "--kind", "random:5", "--x", "1000")[0] == 0
    assert sum(hashed) == 168  # pi(1000), though the command sieves to 1e6


def test_random_jobs_of_the_benchmark_pass(capsys):
    # the mean-value workload draws random:S with S in [1, 1e6] and
    # expects every such job to exit 0
    for seed in range(1, 10 ** 6 + 1, 66666):
        code, out = _run(capsys, "mfunc", "--kind", f"random:{seed}",
                         "--x", "1000000,1500000")
        verdicts = [c["verdict"] for r in json.loads(out)["results"]
                    for c in r["checks"].values()]
        assert code == 0 and verdicts == ["pass"] * 6, (seed, verdicts)


def test_mfunc_x_checked_before_sieving(capsys, monkeypatch):
    def no_sieve(*args, **kwargs):
        raise AssertionError("sieved before --x was checked")

    monkeypatch.setattr("xpv.cli.sieve_primes", no_sieve)
    for xs in ("300000000", "1.5", "1000,300000000"):
        assert run(["mfunc", "--kind", "liouville", "--x", xs]) == 2
    err = capsys.readouterr().err
    assert err.count("capped at 1e+08") == 2
    assert "x >= 2, got 1.5" in err


def test_mfunc_c_checked_before_sieving(capsys, monkeypatch):
    calls = []

    def no_sieve(*args, **kwargs):
        calls.append(args)
        raise AssertionError("sieved before --c was checked")

    monkeypatch.setattr("xpv.cli.sieve_primes", no_sieve)
    for c in ("2", "1.0000000000000002", "0", "-0.5", "nan", "inf", "-inf", "x"):
        with pytest.raises(SystemExit) as exc:
            run(["mfunc", "--kind", "liouville", "--x", "100", "--c", c])
        assert exc.value.code == 2
    assert calls == []
    assert "0 < c <= 1, got '2'" in capsys.readouterr().err


def test_mfunc_kind_parsing(capsys):
    assert run(["mfunc", "--kind", "qchar", "--x", "100"]) == 2
    assert run(["mfunc", "--kind", "martian", "--x", "100"]) == 2
    for kind in ("qchar:abc", "custom:2=x", "custom:x=1", "random", "random:abc",
                 "custom:4=0.5", "custom:1=0.5", "custom:2=0.5,2=-1"):
        assert run(["mfunc", "--kind", kind, "--x", "100"]) == 2
    code, out = _run(capsys, "mfunc", "--kind", "random:9", "--x", "100")
    assert code in (0, 1)
    rep = json.loads(out)
    assert "random" in rep["results"][0]["function"]


def test_table_subcommand_published_slice(capsys):
    code, out = _run(capsys, "table", "--c1", "1", "--c", "0.99", "--delta-paper")
    assert code == 0
    rep = json.loads(out)
    res = rep["results"][0]
    assert res["ratios"][0][0] == pytest.approx(1.4187, abs=1e-3)
    factors = [d for d in rep["discrepancies"] if d["kind"] == "global-factor"]
    assert len(factors) == 1


@pytest.mark.parametrize("paper", [[], ["--delta-paper"]])
def test_table_failed_checks_are_check_not_passed(paper, capsys):
    # the published c1 = 1e-20 row holds the broken cell 8.45e-14 at
    # c = 0.99; alone, no other row outvotes it, so both ratio checks fail
    code, out = _run(capsys, "table", "--c1", "1e-20", "--c", "0.99,0.5", *paper)
    assert code == 1
    rep = json.loads(out)
    assert rep["pass"] is False
    kinds = [d["kind"] for d in rep["discrepancies"]]
    assert kinds == ["check-not-passed"] * 2 + ["global-factor"] + ["delta-candidate"] * 2
    assert [d["check_id"] for d in rep["discrepancies"][:2]] == [
        "column-power-law", "common-factor-spread"]


@pytest.mark.parametrize("paper", [[], ["--delta-paper"]])
def test_table_verdict_does_not_depend_on_the_row_order(paper, capsys):
    # the broken published cell sits in the c1 = 1e-20 row; the power law
    # leaves out its pairs whichever row comes first
    outcomes = []
    for c1 in ("1e-20,1", "1,1e-20"):
        code, out = _run(capsys, "table", "--c1", c1, "--c", "0.99,0.5", *paper)
        kinds = {d["kind"] for d in json.loads(out)["discrepancies"]}
        outcomes.append((code, kinds))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == (0, {"published-cell-outlier", "global-factor",
                               "delta-candidate"})


def test_table_csv(capsys):
    code, out = _run(capsys, "table", "--c1", "1,2", "--c", "0.99,0.5",
                     "--delta-paper", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert lines[1].startswith("1,")


def _as_printed(obj):
    return json.loads(json_dumps(obj))


def test_table_and_mfunc_print_what_the_library_returns(capsys, prime_table, ledger):
    # the CLI adds provenance, and for table the delta-source note, and
    # passes the rest of each library result through
    result, findings = meanvalue.table1_report(
        list(EPSILON_TABLE_C1), list(EPSILON_TABLE_C), dict(PUBLISHED_DELTA))
    code, out = _run(capsys, "table", "--delta-paper")
    rep = json.loads(out)
    (printed,) = rep["results"]
    assert printed["notes"].pop() == "delta overrides are the published values"
    assert printed == _as_printed({**result, "provenance": "computed"})
    assert rep["discrepancies"] == _as_printed(findings)

    code, out = _run(capsys, "mfunc", "--kind", "qchar:7", "--x", "1000,100000")
    rows = [mfunc.empirical_checks(mfunc.quadratic_character(7), x, 0.5, ledger, prime_table)
            for x in (1000.0, 100000.0)]
    assert json.loads(out)["results"] == _as_printed(
        [{**row, "provenance": "computed"} for row in rows])


def test_table_delta_past_the_float_range_is_exit_two(capsys):
    # the delta candidate of c = 1e-300 underflows to 0, and that of
    # c = 1e-200 (about 9e-315) gives a column factor past the float range;
    # c = 2.2e-129 (delta about 3e-206) overflows delta^-1.5 itself, and
    # c = 5e-129 (about 1e-205) only 4 pi times it
    for c in ("1e-300", "1e-200", "2.2e-129", "5e-129"):
        assert run(["table", "--c1", "1", "--c", c]) == 2
    err = capsys.readouterr().err
    assert "needs finite deltas > 0" in err and err.count("overflows") == 3
    # c = 7.1e-129 (delta about 1.72e-205) has a finite factor
    assert run(["table", "--c1", "1", "--c", "7.1e-129"]) in (0, 1)
    out = capsys.readouterr().out
    assert "inf" not in out.lower()


def test_charsum_rows(capsys):
    code, out = _run(capsys, "charsum", "--q", "7,15", "--pv-ratio")
    # 15 is not prime, so the ratio path must refuse it
    assert code == 2
    code, out = _run(capsys, "charsum", "--q", "7,15")
    assert code == 0
    rep = json.loads(out)
    assert [r["full_period_sum"] for r in rep["results"]] == [0, 0]
    assert rep["results"][0]["max_abs_partial"] == 2


def test_sieve_limit_flag_blocks_large_builds(capsys):
    code = run(["verify", "--check", "pnt-lower", "--from", "59",
                "--to", "100000", "--sieve-limit", "1000"])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("check,lo,hi", [("li-lower", "2", "100"), ("tail-power", "0.001", "1"),
                                         ("pnt-lower", "59", "1000")])
@pytest.mark.parametrize("limit", ["-1", "0", "1.5", "nan"])
def test_sieve_limit_must_be_a_positive_whole_number(capsys, check, lo, hi, limit):
    # the grid checks read no limit, yet refuse a bad one like the step checks
    argv = ["verify", "--check", check, "--from", lo, "--to", hi, "--sieve-limit", limit]
    assert _exit_code(argv) == 2
    assert "--sieve-limit" in capsys.readouterr().err


def test_sieve_limit_reads_a_number_as_to_does(capsys):
    code, out = _run(capsys, "verify", "--check", "pnt-lower", "--from", "59", "--to", "1e3",
                     "--sieve-limit", "1e3")
    assert code == 0
    assert json.loads(out)["config"]["sieve_limit"] == 1000


def test_text_format(capsys):
    code, out = _run(capsys, "charsum", "--q", "7", "--format", "text")
    assert code == 0
    assert "full_period_sum: 0" in out
    assert "version: 0.1.0" in out


def test_text_format_spells_scalars_as_json(capsys):
    code, out = _run(capsys, "mfunc", "--kind", "liouville", "--x", "1000", "--format", "text")
    assert code in (0, 1)
    words = {w for line in out.splitlines() for w in line.split()}
    assert not words & {"True", "False", "None"}
    assert {"pass:", "true", "null"} <= words


@pytest.mark.parametrize("argv", [
    "mfunc --kind liouville --x 2e8",
    "charsum --q 10000019",
    "charsum --q 1000001",
    "mfunc --kind qchar:1000000000000000003 --x 100",
    "mfunc --kind qchar:1000001 --x 1e8",
    "dickman --xmax 5000",
    "verify --check pi-li-1 --from 2 --to 2e9",
    "verify --check log2p-plain --from 2 --to 1e8",
    "verify --check pnt-lower --from 2 --to 1e9",
    "dickman --xmax 10 --exponent-check 6,1e300,1.0,buchstab",
    "dickman --xmax 10 --exponent-check 6,5000,1.0,buchstab",
])
def test_size_guards_fire_before_allocating(argv, capsys):
    # each cap is checked before its array exists, so a refused run is
    # fast and small; a failure here means a guard came too late, never
    # that a cap should be raised
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = run(argv.split())
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "error:" in capsys.readouterr().err
    assert code == 2
    assert elapsed < 1.0
    assert peak < 4 * 2 ** 20
