"""Fast tests of the benchmark harness itself, at tiny sizes."""

import contextlib
import io
import json
import math
import sys

import pytest

import run
import spans
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

from xpv import cli  # noqa: E402

TINY_TO = 20000


def _report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(list(argv))
    return {"code": code, "error": None, "report": out.getvalue()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plan_depends_only_on_the_seed(workload):
    first = workloads.plan(workload, 7)
    assert [j.argv for j in first] == [j.argv for j in workloads.plan(workload, 7)]
    other = {tuple(j.argv for j in workloads.plan(workload, s)) for s in range(8)}
    assert len(other) > 1
    for job in first:
        assert job.expect_code in (0, 1)
        assert all(isinstance(tok, str) for tok in job.argv)


def test_plan_sizes_stay_in_their_bands():
    for seed in range(20):
        for job in workloads.plan("sweep-li", seed) + workloads.plan("sweep-sum", seed):
            a, b = job.facts["range"]
            centre = (workloads.SWEEP_LI_TO if "pi-li" in job.label
                      else workloads.SWEEP_SUM_TO)
            assert a == 2 and abs(b / centre - 1.0) <= workloads.BAND + 1e-6
        (rho,) = workloads.plan("rho", seed)
        xmax = float(rho.argv[2])
        assert abs(xmax / workloads.RHO_XMAX - 1.0) <= workloads.BAND + 1e-3
        assert rho.facts["points"] == 1024 * (xmax - 1) + 1
        mean_value = workloads.plan("mean-value", seed)
        commands = [j.argv[0] for j in mean_value]
        assert commands.count("mfunc") == 2 * commands.count("constants")


def test_prime_pi_matches_known_counts():
    got = workloads.prime_pi([1, 2, 3, 10, 100, 7919, 10 ** 6])
    assert got == {1: 0, 2: 1, 3: 2, 10: 4, 100: 25, 7919: 1000, 10 ** 6: 78498}


@pytest.mark.parametrize("check", ["pi-li-2", "mertens-remainder", "mertens-bracket"])
def test_gate_accepts_a_correct_report(check):
    job = workloads._sweep(check, TINY_TO, 1 if check.startswith("pi-li") else 0)
    pi = workloads.prime_pi(workloads.sweep_bounds([job]))
    assert workloads.gate(job, _report(job.argv), pi) == []


def test_gate_rejects_wrong_outcomes():
    job = workloads._sweep("pi-li-1", TINY_TO, 1)
    pi = workloads.prime_pi(workloads.sweep_bounds([job]))
    good = _report(job.argv)
    report = json.loads(good["report"])

    def with_result(**changes):
        bad = json.loads(good["report"])
        bad["results"][0].update(changes)
        return dict(good, report=json.dumps(bad))

    assert workloads.gate(job, dict(good, code=0), pi)
    assert workloads.gate(job, dict(good, report="{"), pi)
    assert workloads.gate(job, dict(good, error="Traceback\nValueError: x"), pi)
    assert workloads.gate(job, dict(good, report=json.dumps(
        {k: v for k, v in report.items() if k != "stamps"})), pi)
    assert workloads.gate(job, with_result(arg_min=13.0), pi)
    assert workloads.gate(job, with_result(
        evaluation_count=report["results"][0]["evaluation_count"] + 2), pi)


def test_gate_checks_the_rho_table_size():
    argv = ("dickman", "--xmax", "3", "--exponent-check", "1,3,1.15,table")
    good = workloads.Job(argv, 0, {"points": 1024 * 2 + 1})
    assert workloads.gate(good, _report(argv), {}) == []
    bad = workloads.Job(argv, 0, {"points": 1024 * 2})
    assert workloads.gate(bad, _report(argv), {})


def test_tail_is_the_order_statistic_with_ten_above():
    assert run.tail(list(range(30))) == (19, 100.0 * 20 / 30)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3)


def test_fold_computes_self_time_per_module():
    recs = [
        ["cli.run", 0.0, 10.0, -1, {}],
        ["primes.sieve_primes", 1.0, 4.0, 0, {"primes": 5, "rss_growth_kb": 2048}],
        ["core.adaptive_simpson", 2.0, 3.0, 1, {"evals": 9}],
        ["cli.json_dumps", 8.0, 9.0, 0, {}],
        ["meanvalue.solve_K", 4.0, 6.0, 0, {}],
        ["meanvalue.solve_K", 6.0, 6.5, 0, {}],
    ]
    got = spans.fold(recs)
    assert got["trace.report_s"] == 10.0
    assert got["primes.self_s"] == 2.0
    assert got["core.self_s"] == 1.0
    assert got["meanvalue.self_s"] == 2.5
    assert got["cli.self_s"] == 4.5
    assert sum(got[f"{m}.self_s"] for m in spans.MODULES) == 10.0
    assert got["primes.sieve_s"] == 3.0
    assert got["primes.sieve_primes"] == 5
    assert got["primes.sieve_rss_growth_mb"] == 2.0
    assert got["core.quad_evals"] == 9 and got["core.quad_calls"] == 1
    assert got["meanvalue.solve_K_s"] == 2.5
    assert got["cli.serialize_s"] == 1.0


def test_fold_needs_a_single_root():
    with pytest.raises(ValueError):
        spans.fold([["primes.nu2", 0.0, 1.0, -1, {}]])


def test_benchmark_json_names_every_metric():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    folded = spans.fold([["cli.run", 0.0, 1.0, -1, {}]])
    derived = {"cli.report_bytes", "primes.sweep_points_per_s",
               "mfunc.stats_n_per_s", "trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == set(folded) | derived


def test_traced_child_matches_untraced_and_folds_to_its_run_time():
    argv = ("verify", "--check", "mertens-remainder", "--from", "2", "--to", str(TINY_TO))
    plain = run.run_job(run.ROOT / "src", argv)
    traced = run.run_job(run.ROOT / "src", argv, traced=True)
    assert plain["code"] == traced["code"] == 0
    assert plain["report"] == traced["report"]
    assert plain["setup_s"] > 0 and plain["maxrss_kb"] > 0
    folded = spans.fold(traced["spans"])
    total = sum(folded[f"{m}.self_s"] for m in spans.MODULES)
    assert math.isclose(total, folded["trace.report_s"], rel_tol=1e-9)
    assert folded["primes.prefix_calls"] == 2
    assert folded["primes.sweep_points"] == json.loads(
        traced["report"])["results"][0]["evaluation_count"]
