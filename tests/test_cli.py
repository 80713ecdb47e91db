import dataclasses
import json
import math
import time
import tracemalloc

import pytest

from xpv import cli, meanvalue, mfunc, primes
from xpv.cli import json_dumps, run


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


def test_exit_two_on_usage(capsys, monkeypatch):
    assert run(["verify", "--check", "nope", "--from", "2", "--to", "3"]) == 2
    assert run(["verify", "--check", "pnt-lower", "--from", "2", "--to", "9"]) == 2
    assert run(["constants", "--format", "csv"]) == 2
    # refused before the table is allocated
    assert run(["dickman", "--xmax", "1e9"]) == 2
    monkeypatch.setenv("XPV_SIEVE_LIMIT", "abc")
    assert run(["charsum", "--q", "7"]) == 2
    capsys.readouterr()


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


def test_partitions_capped_before_splitting(capsys):
    start = time.perf_counter()
    code = run(["verify", "--check", "pi-li-1", "--from", "2", "--to", "1e5",
                "--partitions", "100000000"])
    assert code == 2
    assert time.perf_counter() - start < 1.0
    assert "--partitions" in capsys.readouterr().err
    assert run(["verify", "--check", "tail-power", "--from", "0.5", "--to", "1",
                "--partitions", "0"]) == 2
    # the cap is the geometric grid on the range: 2^(j/128) for
    # j = -128..0 on [0.5, 1], 129 points
    for parts, code in ((129, 0), (130, 2)):
        assert run(["verify", "--check", "tail-power", "--from", "0.5", "--to", "1",
                    "--partitions", str(parts)]) == code
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
                  "--from", "0.5", "--to", "1", "--partitions", "1",
                  "--safety-margin", "1e-9")
    rep = json.loads(out)
    cfg = rep["config"]
    assert cfg["check"] == "tail-power"
    assert cfg["x_from"] == 0.5 and cfg["x_to"] == 1
    assert cfg["sieve_cap"] == 10 ** 9


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = _run(capsys, "charsum", "--q", "7", "--out", str(target))
    assert code == 0
    assert out == ""
    rep = json.loads(target.read_text())
    assert rep["results"][0]["q"] == 7


# ---------------------------------------------------------------------------
# subcommand behavior


def test_verify_partitions_match_single(capsys):
    # pi-li-2 on [2, 100] has negative margins at 3 of its 50 states
    for check, to, parts in (("mertens-remainder", "20000", "5"),
                             ("pi-li-2", "100", "4")):
        base = ["verify", "--check", check, "--from", "2", "--to", to]
        _, single = _run(capsys, *base)
        _, split = _run(capsys, *base, "--partitions", parts)
        assert json.loads(split)["results"] == json.loads(single)["results"]


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


def test_constants_runs_the_mean_quadrature_once(capsys):
    # solve_K's cross-check and PeriodicF.build's mean check share one K
    meanvalue.solve_K.cache_clear()
    meanvalue._abs_cos_mean.cache_clear()
    _run(capsys, "constants")
    info = meanvalue._abs_cos_mean.cache_info()
    assert (info.misses, info.hits) == (1, 1)


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
    for kind in ("qchar:abc", "custom:2=x", "custom:x=1", "random:abc",
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


def test_table_csv(capsys):
    code, out = _run(capsys, "table", "--c1", "1,2", "--c", "0.99,0.5",
                     "--delta-paper", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert lines[1].startswith("1,")


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


def test_sieve_limit_env(monkeypatch, capsys):
    monkeypatch.setenv("XPV_SIEVE_LIMIT", "1000")
    code = run(["verify", "--check", "pnt-lower", "--from", "59", "--to", "100000"])
    assert code == 2
    monkeypatch.setenv("XPV_SIEVE_LIMIT", "200000")
    code = run(["verify", "--check", "pnt-lower", "--from", "59", "--to", "100000"])
    assert code == 0
    capsys.readouterr()


def test_text_format(capsys):
    code, out = _run(capsys, "charsum", "--q", "7", "--format", "text")
    assert code == 0
    assert "full_period_sum: 0" in out
    assert "version: 0.1.0" in out


@pytest.mark.parametrize("argv", [
    "mfunc --kind liouville --x 2e8",
    "charsum --q 10000019",
    "charsum --q 1000001",
    "dickman --xmax 5000",
    "verify --check pi-li-1 --from 2 --to 2e9",
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
