"""The xpv benchmark: seeded ``xpv`` invocations, closed loop, one at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job is one ``xpv`` invocation in a fresh interpreter (child.py),
so ``solve_K``'s cache and the character cache start cold as they do
for a user of the command.  A single loop runs one job at a time and
starts the next when the previous one has ended, until ``--seconds``
have passed.  Numerical thread pools are pinned to one thread.

Every report goes through the correctness gate in workloads.py, and
repeats of one argv, traced or not, must be byte-identical.  A job that
fails the gate counts into ``fail_ratio`` and makes the command exit 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
argv both untraced and traced (spans.py), writes the spans under
``.perfbench_out/`` and prints the per-layer metrics.  The last line of
standard output is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT_DIR = ROOT / ".perfbench_out"
JOB_TIMEOUT_S = 120
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
TAIL_BEYOND = 10


def clock() -> float:
    """CLOCK_MONOTONIC, which the child reads too: one time base for both."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_job(src: Path, argv, traced: bool = False) -> dict:
    """Run one invocation in a fresh interpreter; return the child's record
    plus ``setup_s`` (spawn until ``xpv.cli`` was ready) and ``wall_s``."""
    cmd = [sys.executable, str(CHILD), str(src), "trace" if traced else "plain",
           *argv]
    env = dict(os.environ, **THREAD_PINS)
    spawn = clock()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=JOB_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"no result within {JOB_TIMEOUT_S} s", "wall_s": clock() - spawn}
    wall = clock() - spawn
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()}",
                "wall_s": wall}
    record = json.loads(lines[-1])
    record["setup_s"] = record["ready"] - spawn
    record["wall_s"] = wall
    return record


def tail(samples):
    """The highest order statistic with at least TAIL_BEYOND samples above
    it, and the percentile it stands at.  With TAIL_BEYOND samples or
    fewer none qualifies, and the smallest sample stands in for it."""
    ordered = sorted(samples)
    rank = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


class Run:
    """The jobs of one benchmark run and what the gate said about them."""

    def __init__(self, jobs, src: Path, pi: dict):
        self.jobs, self.src, self.pi = jobs, src, pi
        self.done = []  # (job, traced, record, problems)
        self.digests = {}
        self.wall_s = 0.0

    def one(self, job, traced: bool):
        record = run_job(self.src, job.argv, traced)
        problems = workloads.gate(job, record, self.pi)
        if "report" in record:
            digest = hashlib.sha256(record["report"].encode()).hexdigest()
            if self.digests.setdefault(job.argv, digest) != digest:
                problems.append("report bytes differ from an earlier run of this argv")
        for p in problems:
            print(f"FAIL [{'traced' if traced else 'plain'}] {job.label}: {p}")
        self.done.append((job, traced, record, problems))

    def loop(self, seconds: float, traced: bool):
        """Closed loop over the job cycle until ``seconds`` have passed; a
        traced run also goes on until every argv has run traced once."""
        untraced_argvs = {job.argv for job in self.jobs} if traced else set()
        start = clock()
        i = 0
        while not self.done or clock() - start < seconds or untraced_argvs:
            job = self.jobs[i % len(self.jobs)]
            i += 1
            self.one(job, False)
            if traced:
                self.one(job, True)
                untraced_argvs.discard(job.argv)
        self.wall_s = clock() - start

    @property
    def failed(self) -> int:
        return sum(1 for *_, problems in self.done if problems)

    def records(self, traced: bool):
        return [r for _, t, r, _ in self.done if t == traced and "run_s" in r]


def end_to_end(run: Run) -> dict:
    recs = run.records(False)
    times = [r["run_s"] for r in recs]
    tail_s, pct = tail(times)
    correct = len(run.done) - run.failed
    values = {
        "report_s": statistics.median(times),
        "report_s_tail": tail_s,
        "reports_per_min": 60.0 * correct / run.wall_s,
        "setup_s": statistics.median(r["setup_s"] for r in recs),
        "peak_rss_mb": max(r["maxrss_kb"] for r in recs) / 1024.0,
    }
    print(f"samples: {len(times)} jobs in {run.wall_s:.2f} s of closed loop")
    print(f"report_s_tail is p{pct:.1f} of {len(times)} samples: "
          f"{min(TAIL_BEYOND, len(times) - 1)} samples lie above it")
    return values


def per_layer(run: Run, workload: str, seed: int) -> dict:
    traced = [(job, r) for job, t, r, _ in run.done if t and "spans" in r]
    folds = [spans.fold(r["spans"]) for _, r in traced]
    n = len(folds)
    values = {k: sum(f[k] for f in folds) / n for k in folds[0]}
    values["cli.report_bytes"] = sum(len(r["report"].encode()) for _, r in traced) / n
    values["primes.sweep_points_per_s"] = _rate(folds, "primes.sweep_points",
                                                "primes.sweep_s")
    values["mfunc.stats_n_per_s"] = _rate(folds, "mfunc.stats_n", "mfunc.stats_s")
    # Every argv ran once untraced and once traced, so the sums pair up.
    values["trace.overhead_ratio"] = (sum(r["run_s"] for r in run.records(True))
                                      / sum(r["run_s"] for r in run.records(False)))
    module_sum = sum(values[f"{m}.self_s"] for m in spans.MODULES)
    print(f"traced jobs: {n}; module self times sum to {module_sum!r} s, "
          f"trace.report_s is {values['trace.report_s']!r} s")
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    with open(out, "w") as fh:
        json.dump([{"argv": job.argv, "spans": r["spans"]} for job, r in traced], fh)
    print(f"spans written to {out.relative_to(ROOT)}")
    return values


def _rate(folds, work: str, seconds: str) -> float:
    busy = sum(f[seconds] for f in folds)
    return sum(f[work] for f in folds) / busy if busy else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "xpv" / "cli.py").is_file():
        print(f"no xpv source under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    jobs = workloads.plan(args.workload, args.seed)
    pi = workloads.prime_pi(workloads.sweep_bounds(jobs))
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    print(f"machine: nproc {os.cpu_count()} (usable {len(os.sched_getaffinity(0))}), "
          f"python {platform.python_version()}, numpy {np.__version__}")
    for job in dict.fromkeys(jobs):
        print(f"argv: xpv {job.label}  (expected exit {job.expect_code})")

    run = Run(jobs, src, pi)
    run.loop(args.seconds, bool(args.trace))
    attempted, failed = len(run.done), run.failed
    print(f"fail_ratio = {failed / attempted!r} ({failed} of {attempted} jobs "
          f"failed the gate)")
    metrics = {}
    if run.records(False) and (not args.trace or run.records(True)):
        values = (per_layer(run, args.workload, args.seed) if args.trace
                  else end_to_end(run))
        for m in wanted:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"{m['name']} = {values[m['name']]!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
