"""Seeded job lists for the four workloads, and the correctness gate.

A job is one ``xpv`` argv with the facts its report must show.  The
seed picks each argv inside a narrow band, so every seed exercises the
same code at nearly the same size; the program only ever sees the argv.
Sizes are chosen so that one run of the benchmark holds enough jobs for
a median and a tail (see README.md).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("sweep-li", "sweep-sum", "rho", "mean-value")

SWEEP_LI_TO = 5_000_000
SWEEP_SUM_TO = 10_000_000
RHO_XMAX = 100
MFUNC_X = 1_500_000
BAND = 0.003  # relative half-width of the seeded size bands
QCHAR_MODULI = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

# arg_min is pinned by the binding point just under a small prime.
PINNED_ARG_MIN = {
    "pi-li-1": 11.0,
    "pi-li-2": 29.0,
    "pi-li-3": 11.0,
    "mertens-remainder": 19.0,
}

# mertens-remainder adds its stationary point exp(sqrt 2) to the states
# when the range contains it (primes._REMAINDER_STATIONARY_X).
REMAINDER_STATIONARY_X = math.exp(math.sqrt(2.0))

REPORT_KEYS = {"version", "command", "config", "stamps", "results",
               "discrepancies", "pass"}
SWEEP_KEYS = {"check_id", "range", "worst_margin", "arg_min", "pass",
              "evaluation_count", "verdict", "notes"}
MFUNC_KEYS = {"x", "function", "row", "checks", "notes", "provenance"}
CONSTANTS_KEYS = [{"ledger", "provenance"}, {"case_bounds", "provenance"},
                  {"checks", "provenance"}, {"optimizer", "provenance"}]


@dataclass(frozen=True)
class Job:
    argv: tuple
    expect_code: int
    facts: dict = field(default_factory=dict, compare=False)

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _band(rng: random.Random, centre: float) -> int:
    return int(round(centre * rng.uniform(1.0 - BAND, 1.0 + BAND)))


def _sweep(check: str, to: int, expect: int) -> Job:
    facts = {"range": (2, to)}
    if check in PINNED_ARG_MIN:
        facts["arg_min"] = PINNED_ARG_MIN[check]
    argv = ("verify", "--check", check, "--from", "2", "--to", str(to))
    return Job(argv, expect, facts)


def plan(workload: str, seed: int) -> list:
    """The job cycle of one workload; the harness runs it round-robin.

    Exit code 1 is expected where the checked claim fails by design:
    pi-li-1/2/3 are false at small x, the Buchstab bound misses at the
    left end of its range, and ``constants`` misses the published K.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep-li":
        return [_sweep(f"pi-li-{k}", _band(rng, SWEEP_LI_TO), 1) for k in (1, 2, 3)]
    if workload == "sweep-sum":
        checks = ("mertens-remainder", "mertens-bracket", "mertens-mprime-coarse")
        return [_sweep(c, _band(rng, SWEEP_SUM_TO), 0) for c in checks]
    if workload == "rho":
        steps = _band(rng, 1024 * (RHO_XMAX - 1))  # xmax stays on the 2^-10 grid
        xmax = repr(1 + steps / 1024)
        exponent = round(rng.uniform(1.0, 1.2), 2)
        argv = ("dickman", "--xmax", xmax,
                "--exponent-check", f"1,{xmax},1.15,table",
                "--exponent-check", f"6,{xmax},{exponent:.2f},buchstab")
        return [Job(argv, 1, {"points": steps + 1})]
    x = f"1000000,{_band(rng, MFUNC_X)}"

    def mfunc(kind):
        return Job(("mfunc", "--kind", kind, "--x", x), 0)

    qchar = mfunc(f"qchar:{rng.choice(QCHAR_MODULI)}")
    constants = Job(("constants", "--optimize"), 1)
    # Two mfunc jobs and one constants job per round.  qchar, the cheapest
    # kind, runs in every round and liouville and random (about equal in
    # cost) alternate, so the median sits among liouville and random jobs
    # and the tail order statistic among qchar jobs whatever the count.
    return [qchar, mfunc("liouville"), constants,
            qchar, mfunc(f"random:{rng.randint(1, 10 ** 6)}"), constants]


def sweep_bounds(jobs) -> set:
    """Every x at which the gate needs pi(x)."""
    return {x for job in jobs for x in job.facts.get("range", ())}


def prime_pi(xs) -> dict:
    """pi(x) for each integer x, from an odd-only sieve of the harness's own."""
    xs = sorted({int(x) for x in xs})
    if not xs:
        return {}
    n = max(xs[-1], 2)
    odd = np.ones(n // 2 + 1, dtype=bool)  # odd[i] stands for 2i + 1
    odd[0] = False
    for i in range(1, (math.isqrt(n) - 1) // 2 + 1):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    counts = np.cumsum(odd)
    return {x: 0 if x < 2 else 1 + int(counts[(x - 1) // 2]) for x in xs}


def expected_evaluations(check: str, a: int, b: int, pi: dict) -> int:
    """States of a step sweep on [a, b]: both limits at each prime in
    (a, b], plus the two endpoints."""
    count = 2 * (pi[b] - pi[a]) + 2
    if check == "mertens-remainder" and a < REMAINDER_STATIONARY_X <= b:
        count += 1
    return count


def result_shapes(argv) -> list:
    """Key set of each entry of ``results`` in the report of ``argv``."""
    command = argv[0]
    if command == "verify":
        return [SWEEP_KEYS]
    if command == "dickman":
        return [{"table", "provenance"}] + [SWEEP_KEYS] * argv.count("--exponent-check")
    if command == "mfunc":
        return [MFUNC_KEYS] * len(argv[argv.index("--x") + 1].split(","))
    return CONSTANTS_KEYS


def gate(job: Job, record: dict, pi: dict) -> list:
    """Problems with one job's outcome; an empty list means it passed."""
    if record.get("error"):
        return [f"raised: {record['error'].strip().splitlines()[-1]}"]
    problems = []
    if record["code"] != job.expect_code:
        problems.append(f"exit code {record['code']}, expected {job.expect_code}")
    try:
        report = json.loads(record["report"])
    except ValueError as exc:
        return problems + [f"report is not JSON: {exc}"]
    if not isinstance(report, dict) or set(report) != REPORT_KEYS:
        return problems + ["report does not have the fixed top-level keys"]
    command = job.argv[0]
    if report["command"] != command:
        problems.append(f"command {report['command']!r}")
    if report["pass"] is not (job.expect_code == 0):
        problems.append(f"pass is {report['pass']!r}")
    results = report["results"]
    if [set(r) for r in results] != result_shapes(job.argv):
        return problems + ["result entries do not match the report schema"]
    if command == "verify":
        res = results[0]
        check = job.argv[job.argv.index("--check") + 1]
        if "arg_min" in job.facts and res["arg_min"] != job.facts["arg_min"]:
            problems.append(f"arg_min {res['arg_min']}, expected {job.facts['arg_min']}")
        a, b = job.facts["range"]
        want = expected_evaluations(check, a, b, pi)
        if res["evaluation_count"] != want:
            problems.append(f"evaluation_count {res['evaluation_count']}, expected {want}")
    elif command == "dickman":
        points = results[0]["table"]["points"]
        if points != job.facts["points"]:
            problems.append(f"rho table points {points}, expected {job.facts['points']}")
    return problems
