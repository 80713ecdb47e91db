"""Spans recorded from outside xpv, and their folding into layer metrics.

``install`` wraps the public functions the workloads reach, in every
``xpv`` module namespace that holds them (``cli`` and ``meanvalue``
bind them with ``from ... import ...``, so patching the defining
module alone would miss those calls).  Each call becomes one span
``[name, start, end, parent, counters]`` kept in memory; the child
process ships the list to the harness when the job ends.

``fold`` turns one job's spans into the per-layer metrics.  Self time
is a span's duration minus the durations of its child spans; the
benchmark never passes ``--partitions``, so every span runs on the main
thread and child spans never overlap.
"""

from __future__ import annotations

import functools
import math
import resource
import sys
import time

MODULES = ("primes", "dickman", "meanvalue", "mfunc", "core", "cli")

# (module, attribute path, counter) for every wrapped callable.  The
# counter names a hook below that adds work counts to the span.
TARGETS = (
    ("cli", "run", None),
    ("cli", "json_dumps", "outermost"),
    ("primes", "sieve_primes", "sieve"),
    ("primes", "PrimeTable.recip_prefix", None),
    ("primes", "PrimeTable.log2_prefix", None),
    ("primes", "verify_inequality", "sweep"),
    ("primes", "nu2", None),
    ("primes", "mertens_sum", None),
    ("dickman", "build_rho_table", "rho_table"),
    ("dickman", "rho_log", None),
    ("dickman", "verify_rho_exponent", None),
    ("dickman", "max_exponent", None),
    ("dickman", "divisor_mean_lower_bound", None),
    ("meanvalue", "solve_K", None),
    ("meanvalue", "PeriodicF.build", None),
    ("meanvalue", "case_bounds", None),
    ("meanvalue", "optimize_C0", None),
    ("meanvalue", "nu3", None),
    ("meanvalue", "assemble_ledger", None),
    ("meanvalue", "integral_exp_over_square", None),
    ("meanvalue", "delta", None),
    ("mfunc", "stats", "stats"),
    ("mfunc", "empirical_checks", None),
    ("core", "adaptive_simpson", "quad"),
    ("core", "bisect_root", None),
    ("core", "golden_max", None),
    ("core", "margins_verdict", None),
)

ROOT = "cli.run"


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Recorder:
    """Span list plus the stack of open spans (main thread only)."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        depth = [0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter == "outermost" and depth[0]:
                return fn(*args, **kwargs)
            counts = {}
            if counter == "quad":
                args, kwargs = _count_integrand(args, kwargs, counts)
            if counter in ("sieve", "sweep"):
                rss0 = _maxrss_kb()
            entry = [name, 0.0, 0.0, stack[-1] if stack else -1, counts]
            stack.append(len(spans))
            spans.append(entry)
            depth[0] += 1
            entry[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                entry[2] = clock()
                depth[0] -= 1
                stack.pop()
            if counter == "sieve":
                counts["primes"] = len(out)
            elif counter == "sweep":
                counts["points"] = out.evaluation_count
            elif counter == "rho_table":
                counts["points"] = len(out)
            elif counter == "stats":
                counts["n"] = math.floor(args[1] if len(args) > 1 else kwargs["x"])
            if counter in ("sieve", "sweep"):
                counts["rss_growth_kb"] = _maxrss_kb() - rss0
            return out

        return traced


def _count_integrand(args, kwargs, counts):
    counts["evals"] = 0
    f = args[0] if args else kwargs["f"]

    def counted(x):
        counts["evals"] += 1
        return f(x)

    if args:
        return (counted,) + tuple(args[1:]), kwargs
    return args, dict(kwargs, f=counted)


def install() -> Recorder:
    """Wrap every target in every loaded ``xpv`` module; return the recorder."""
    rec = Recorder()
    xpv_modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "xpv" or n.startswith("xpv."))]
    for module, path, counter in TARGETS:
        home = sys.modules["xpv." + module]
        name = f"{module}.{path}"
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(home, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(rec.wrap(name, raw.__func__, counter)))
            else:
                setattr(cls, attr, rec.wrap(name, raw, counter))
            continue
        original = getattr(home, path)
        wrapper = rec.wrap(name, original, counter)
        for mod in xpv_modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    return rec


def _durations(spans):
    return [end - start for _, start, end, _, _ in spans]


def self_times(spans):
    """Self time of each span: duration minus its children's durations."""
    out = _durations(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _outermost(spans):
    """Indices of spans with no ancestor of the same name."""
    keep = []
    for i, (name, _, _, parent, _) in enumerate(spans):
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            keep.append(i)
    return keep


def fold(spans) -> dict:
    """Per-layer values of one traced job (times in s, sizes in MB)."""
    dur = _durations(spans)
    own = self_times(spans)
    outer = _outermost(spans)
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    if [spans[i][0] for i in roots] != [ROOT]:
        raise ValueError(f"expected one root span {ROOT!r}, got "
                         f"{[spans[i][0] for i in roots]}")

    def incl(*names):
        return sum(dur[i] for i in outer if spans[i][0] in names)

    def self_of(name):
        return sum(own[i] for i, s in enumerate(spans) if s[0] == name)

    def count(name, key=None):
        picked = [s for s in spans if s[0] == name]
        if key is None:
            return len(picked)
        return sum(s[4].get(key, 0) for s in picked)

    out = {"trace.report_s": dur[roots[0]]}
    for module in MODULES:
        out[f"{module}.self_s"] = sum(
            own[i] for i, s in enumerate(spans) if s[0].split(".", 1)[0] == module
        )
    prefix = ("primes.PrimeTable.recip_prefix", "primes.PrimeTable.log2_prefix")
    out.update({
        "primes.sieve_s": incl("primes.sieve_primes"),
        "primes.sieve_primes": count("primes.sieve_primes", "primes"),
        "primes.sieve_rss_growth_mb":
            count("primes.sieve_primes", "rss_growth_kb") / 1024.0,
        "primes.prefix_s": incl(*prefix),
        "primes.prefix_calls": sum(count(n) for n in prefix),
        "primes.sweep_s": incl("primes.verify_inequality"),
        "primes.sweep_points": count("primes.verify_inequality", "points"),
        "primes.sweep_rss_growth_mb":
            count("primes.verify_inequality", "rss_growth_kb") / 1024.0,
        "primes.prime_sums_s": incl("primes.nu2", "primes.mertens_sum"),
        "dickman.table_s": incl("dickman.build_rho_table"),
        "dickman.table_points": count("dickman.build_rho_table", "points"),
        "dickman.exponent_check_s": incl("dickman.verify_rho_exponent"),
        "dickman.rho_log_calls": count("dickman.rho_log"),
        "meanvalue.solve_K_s": incl("meanvalue.solve_K"),
        "meanvalue.case_bounds_s": incl("meanvalue.case_bounds"),
        "meanvalue.optimize_s": incl("meanvalue.optimize_C0"),
        "meanvalue.ledger_s": self_of("meanvalue.assemble_ledger"),
        "meanvalue.nu3_s": incl("meanvalue.nu3"),
        "mfunc.stats_s": incl("mfunc.stats"),
        "mfunc.stats_n": count("mfunc.stats", "n"),
        "mfunc.checks_s": self_of("mfunc.empirical_checks"),
        "core.quad_calls": count("core.adaptive_simpson"),
        "core.quad_evals": count("core.adaptive_simpson", "evals"),
        "core.quad_s": incl("core.adaptive_simpson"),
        "core.search_s": incl("core.bisect_root", "core.golden_max"),
        "cli.serialize_s": incl("cli.json_dumps"),
    })
    return out
