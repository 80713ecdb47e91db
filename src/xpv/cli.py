"""Batch front-end.

Subcommands map one-to-one onto the library surface; every run emits a
single report with a fixed schema: {version, command, config, results,
discrepancies, pass}.  JSON output is byte-identical across runs with
identical argv: keys are sorted, floats are printed with 17 significant
digits, and nothing time- or host-dependent enters the report.

Exit codes: 0 all checks passed, 1 at least one check failed or was
indeterminate, 2 usage or precondition error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .constants import (
    EPSILON_TABLE_C,
    EPSILON_TABLE_C1,
    PUBLISHED_BEST_C,
    PUBLISHED_C0,
    PUBLISHED_CASE_III,
    PUBLISHED_CASE_IV,
    PUBLISHED_DELTA,
    PUBLISHED_EPS,
    PUBLISHED_K,
    PUBLISHED_K2,
    PUBLISHED_NU2_BOUND,
    PUBLISHED_NU3_BOUND,
    PUBLISHED_V1,
)
from .core import DEFAULT_ETA, geometric_grid
from .dickman import (
    build_rho_table,
    max_exponent,
    rho_log,
    verify_rho_exponent,
)
from .errors import UsageError, XpvError
from .meanvalue import (
    DEFAULT_C_GRID,
    DEFAULT_EPS_GRID,
    DEFAULT_K1_GRID,
    DEFAULT_K2_GRID,
    LEDGER_PRIMES,
    ErrorParams,
    PeriodicF,
    assemble_ledger,
    case_bounds,
    delta_table_candidate,
    integral_exp_over_square,
    optimize_C0,
    table1_report,
)
from .mfunc import (
    STATS_CSV_HEADER,
    MultiplicativeSpec,
    char_sum_profile,
    check_stats_x,
    constant_one,
    custom,
    empirical_checks,
    liouville,
    pv_ratio,
    quadratic_character,
    random_pm1,
)
from .primes import (
    DEFAULT_SIEVE_CAP,
    check_def,
    sieve_primes,
    verify_inequality,
)

STAMPS = [
    "asymptotic lower-order terms are dropped wherever the source "
    "estimates include them",
]

_TABULAR = {"dickman", "table", "mfunc", "charsum"}


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return "%.17g" % x


def json_dumps(obj) -> str:
    """Minimal deterministic JSON: sorted keys, fixed float format."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        out = ['"']
        for ch in obj:
            if ch == '"':
                out.append('\\"')
            elif ch == "\\":
                out.append("\\\\")
            elif ord(ch) < 0x20:
                out.append("\\u%04x" % ord(ch))
            else:
                out.append(ch)
        out.append('"')
        return "".join(out)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(json_dumps(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(
            json_dumps(str(k)) + ":" + json_dumps(v) for k, v in items
        ) + "}"
    raise UsageError(f"cannot serialize {type(obj).__name__}")


def _render_text(obj, indent=0) -> list:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k in sorted(obj, key=str):
            v = obj[k]
            if isinstance(v, (dict, list, tuple)):
                lines.append(f"{pad}{k}:")
                lines.extend(_render_text(v, indent + 1))
            else:
                sv = _fmt_float(float(v)).strip('"') if isinstance(v, float) else v
                lines.append(f"{pad}{k}: {sv}")
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            if isinstance(v, (dict, list, tuple)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{obj}")
    return lines


# ---------------------------------------------------------------------------
# argument plumbing


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")


def _positive(text: str) -> float:
    value = _number(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def _non_negative(text: str) -> float:
    """Zero, or else a _positive number."""
    value = _number(text)
    return value if value == 0.0 else _positive(text)


def _pv_constant(text: str) -> float:
    """A PV constant c, a _positive number at most 1."""
    value = _positive(text)
    if value > 1.0:
        raise argparse.ArgumentTypeError(f"must satisfy 0 < c <= 1, got {text!r}")
    return value


def _float_list(text: str):
    return [_positive(tok) for tok in text.split(",") if tok]


def _int_list(text: str):
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default="json")
    common.add_argument("--out", default=None, help="write the report to a file")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--sieve-limit", type=int, default=None,
                        help="override the sieve cap (or set XPV_SIEVE_LIMIT)")
    common.add_argument("--safety-margin", type=_non_negative, default=DEFAULT_ETA,
                        help="relative threshold separating pass from indeterminate")

    parser = argparse.ArgumentParser(prog="xpv")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="sweep one registered inequality over a range")
    p.add_argument("--check", required=True)
    p.add_argument("--from", dest="x_from", type=_positive, required=True)
    p.add_argument("--to", dest="x_to", type=_positive, required=True)
    p.add_argument("--partitions", type=int, default=1)

    p = sub.add_parser("dickman", parents=[common],
                       help="build the log-rho table and run exponent checks")
    p.add_argument("--xmax", type=_positive, required=True)
    p.add_argument("--step", type=_positive, default=2.0 ** -10)
    p.add_argument("--exponent-check", action="append", default=[],
                   metavar="LO,HI,E,SOURCE")

    p = sub.add_parser("constants", parents=[common],
                       help="assemble the constant ledger and case bounds")
    p.add_argument("--c0", type=_positive, default=PUBLISHED_C0)
    p.add_argument("--optimize", action="store_true")

    p = sub.add_parser("table", parents=[common],
                       help="reproduce the published exponent table")
    p.add_argument("--c1", type=_float_list, default=None)
    p.add_argument("--c", type=_float_list, default=None)
    p.add_argument("--delta-paper", action="store_true", dest="delta_published",
                   help="use the published delta values as overrides")

    p = sub.add_parser("mfunc", parents=[common],
                       help="statistics and empirical checks for one function")
    p.add_argument("--kind", required=True)
    p.add_argument("--x", type=_float_list, required=True)
    p.add_argument("--c", type=_pv_constant, default=0.5)

    p = sub.add_parser("charsum", parents=[common],
                       help="quadratic character sums")
    p.add_argument("--q", type=_int_list, required=True)
    p.add_argument("--pv-ratio", action="store_true", dest="pv")
    return parser


def _sieve_cap(args) -> int:
    if args.sieve_limit is not None:
        return int(args.sieve_limit)
    env = os.environ.get("XPV_SIEVE_LIMIT")
    if env:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"XPV_SIEVE_LIMIT must be an integer, got {env!r}")
    return DEFAULT_SIEVE_CAP


def _config_echo(args) -> dict:
    out = {k: v for k, v in vars(args).items() if k != "command"}
    out["sieve_cap"] = _sieve_cap(args)
    return out


def _parse_kind(text: str, seed: int) -> MultiplicativeSpec:
    def number(kind, tok):
        try:
            return kind(tok)
        except ValueError:
            raise UsageError(f"bad {kind.__name__} {tok!r} in --kind {text!r}")

    head, _, rest = text.partition(":")
    if head in ("constant_one", "one"):
        return constant_one()
    if head == "liouville":
        return liouville()
    if head in ("qchar", "quadratic_character"):
        if not rest:
            raise UsageError("qchar needs a modulus, e.g. qchar:3")
        return quadratic_character(number(int, rest))
    if head in ("random", "random_pm1"):
        return random_pm1(number(int, rest) if rest else seed)
    if head == "custom":
        if not rest:
            raise UsageError("custom needs prime=value pairs, e.g. custom:2=0.5,3=-1")
        pairs = {}
        for tok in rest.split(","):
            p, _, v = tok.partition("=")
            p = number(int, p)
            if p in pairs:
                raise UsageError(f"prime {p} given twice in --kind {text!r}")
            pairs[p] = number(float, v)
        return custom(pairs)
    raise UsageError(
        f"unknown kind {text!r}; use constant_one, liouville, qchar:Q, "
        f"random:SEED, or custom:P=V,..."
    )


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (results, discrepancies, passed, csv),
# csv being None or (header, rows of values); run() formats the rows, and
# only under --format csv


def _discrepancy(report) -> list:
    """The check-not-passed entry of a sweep report, if it did not pass."""
    if report.verdict == "pass":
        return []
    return [{
        "kind": "check-not-passed",
        "check_id": report.check_id,
        "verdict": report.verdict,
        "worst_margin": report.worst_margin,
        "arg_min": report.arg_min,
    }]


def _cmd_verify(args):
    cd = check_def(args.check)
    # --partitions is checked and echoed, but the one chunked sweep gives
    # the same results for every accepted value
    most = max(1, sum(xs.size for xs, _ in geometric_grid(args.x_from, args.x_to)))
    if not 1 <= args.partitions <= most:
        raise UsageError(
            f"--partitions must lie in [1, {most}], the number of points of "
            f"the 2^(1/128) geometric grid on the range"
        )
    table = None
    if cd.states.needs_table:
        table = sieve_primes(int(math.ceil(args.x_to)), cap=_sieve_cap(args))
        if cd.states.prefix is not None:
            # the prime sums are table work: build them before the sweep,
            # so they stay out of the sweep's own time
            cd.states.prefix(table)
    report = verify_inequality(cd.check_id, args.x_from, args.x_to, table,
                               eta=args.safety_margin)
    return [report.as_dict()], _discrepancy(report), report.verdict == "pass", None


def _parse_exponent_check(text: str):
    toks = text.split(",")
    if len(toks) != 4:
        raise UsageError(
            f"--exponent-check wants LO,HI,E,SOURCE, got {text!r}"
        )
    try:
        return _positive(toks[0]), _positive(toks[1]), _positive(toks[2]), toks[3]
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"--exponent-check {text!r}: {exc}")


def _cmd_dickman(args):
    checks = [_parse_exponent_check(t) for t in args.exponent_check]
    table = build_rho_table(args.xmax, args.step)
    landmarks = {}
    for x in (2.0, 3.0, 4.0, 10.0, 30.0, 100.0, 130.0, args.xmax):
        if 1.0 <= x <= table.x_max:
            enc = rho_log(x, table)
            landmarks["%.17g" % x] = {"lo": enc.lo, "hi": enc.hi}
    diag_hi = min(200.0, table.x_max)
    results = [{
        "table": {
            "x_max": table.x_max,
            "step": table.step,
            "points": len(table),
            "max_err": float(table.err.max()),
            "log_rho": landmarks,
            "largest_exponent": {
                "range": [1.0, diag_hi],
                "value": max_exponent(table, 1.0, diag_hi),
                "note": "largest admissible exponent on the diagnostic range, "
                        "through enclosure lower edges",
            },
        },
        "provenance": "computed",
    }]
    discrepancies = []
    for lo, hi, e, source in checks:
        rep = verify_rho_exponent(lo, hi, e, source, table=table,
                                  eta=args.safety_margin)
        results.append(rep.as_dict())
        discrepancies += _discrepancy(rep)
    csv = ("x,log_rho,err", zip(table.xs, table.log_values, table.err))
    return results, discrepancies, not discrepancies, csv


def _cmd_constants(args):
    ledger = assemble_ledger(args.c0, sieve_primes(LEDGER_PRIMES, cap=_sieve_cap(args)))
    k_enc, nu2_enc, nu3_enc = ledger.K_enclosure, ledger.nu2_enclosure, ledger.nu3_enclosure
    f = PeriodicF.build()
    cb = case_bounds(ErrorParams(PUBLISHED_BEST_C, 0, PUBLISHED_EPS, PUBLISHED_K2), f)
    integral_enc = integral_exp_over_square()
    gamma_minus_m = ledger.gamma - ledger.M

    checks = {
        "K-near-published": {
            "passed": abs(k_enc.mid - PUBLISHED_K) <= 5e-5 + k_enc.width,
            "computed": k_enc.mid,
            "published": PUBLISHED_K,
            "distance": abs(k_enc.mid - PUBLISHED_K),
            "tolerance": 5e-5,
        },
        "nu1-under-published": {
            "passed": ledger.nu1 <= PUBLISHED_V1
            and PUBLISHED_V1 - ledger.nu1 < 1e-4,
            "computed": ledger.nu1,
            "published": PUBLISHED_V1,
        },
        "nu2-bracket": {
            "passed": (nu2_enc.lo <= gamma_minus_m <= nu2_enc.hi)
            and nu2_enc.hi <= PUBLISHED_NU2_BOUND,
            "lo": nu2_enc.lo,
            "hi": nu2_enc.hi,
            "target": gamma_minus_m,
            "published_cap": PUBLISHED_NU2_BOUND,
        },
        "nu3-cap": {
            "passed": nu3_enc.hi <= PUBLISHED_NU3_BOUND,
            "lo": nu3_enc.lo,
            "hi": nu3_enc.hi,
            "published_cap": PUBLISHED_NU3_BOUND,
        },
        "integral-window": {
            "passed": 9.43 <= integral_enc.lo and integral_enc.hi <= 9.45,
            "lo": integral_enc.lo,
            "hi": integral_enc.hi,
        },
    }
    if args.c0 == PUBLISHED_C0:
        checks["ledger-ranges"] = {
            "passed": 5.4e5 <= ledger.a <= 5.6e5 and 9.5e5 <= ledger.final <= 9.9e5,
            "a": ledger.a,
            "final": ledger.final,
        }

    results = [
        {"ledger": ledger.as_dict(), "provenance": "computed"},
        {
            "case_bounds": {
                **asdict(cb),
                "gaps_to_published": {
                    "c_ii_vs_c0": cb.c_ii - PUBLISHED_C0,
                    "c_iii": cb.c_iii - PUBLISHED_CASE_III,
                    "c_iv": cb.c_iv - PUBLISHED_CASE_IV,
                },
            },
            "provenance": "computed",
        },
        {"checks": checks, "provenance": "computed"},
    ]
    discrepancies = []
    for name, ch in checks.items():
        if not ch["passed"]:
            entry = {"kind": "published-value-mismatch", "check": name}
            entry.update({k: v for k, v in ch.items() if k != "passed"})
            discrepancies.append(entry)
    gaps = [("short-range case constant exceeds the published C0", cb.c_ii)]
    if args.optimize:
        params, achieved = optimize_C0(
            DEFAULT_C_GRID, DEFAULT_K1_GRID, DEFAULT_EPS_GRID, DEFAULT_K2_GRID, f
        )
        results.append({
            "optimizer": {
                "achieved": achieved,
                "argmin": asdict(params),
                "gap_to_published": achieved - PUBLISHED_C0,
                "grids": {
                    "c": [DEFAULT_C_GRID[0], DEFAULT_C_GRID[-1], 0.01],
                    "k1": [DEFAULT_K1_GRID[0], DEFAULT_K1_GRID[-1], 1],
                    "eps": [DEFAULT_EPS_GRID[0], DEFAULT_EPS_GRID[-1], 0.01],
                    "k2": list(DEFAULT_K2_GRID),
                },
            },
            "provenance": "computed",
        })
        gaps.append(("optimized constant stays above the published C0", achieved))
    discrepancies += [{"kind": "constant-gap", "detail": detail, "computed": v,
                       "published": PUBLISHED_C0, "gap": v - PUBLISHED_C0}
                      for detail, v in gaps if v > PUBLISHED_C0]
    passed = all(ch["passed"] for ch in checks.values())
    return results, discrepancies, passed, None


def _cmd_table(args):
    c1_values = args.c1 if args.c1 is not None else list(EPSILON_TABLE_C1)
    c_values = args.c if args.c is not None else list(EPSILON_TABLE_C)
    if args.delta_published:
        try:
            deltas = {c: PUBLISHED_DELTA[c] for c in c_values}
        except KeyError as exc:
            raise UsageError(
                f"no published delta for c = {exc.args[0]}; "
                f"published columns: {sorted(PUBLISHED_DELTA)}"
            )
        source_note = "delta overrides are the published values"
    else:
        deltas = {c: delta_table_candidate(c) for c in c_values}
        source_note = (
            "delta overrides use the reverse-engineered candidate form "
            "0.2 (c/final)^(1/2K); diagnostic only"
        )
    report = table1_report(c1_values, c_values, deltas)
    report.notes.append(source_note)
    results = [{
        "c1": report.c1_values,
        "c": report.c_values,
        "delta": report.delta_values,
        "cells": report.cells,
        "column_factors": report.column_factors,
        "published": report.published,
        "ratios": report.ratios,
        "checks": report.checks,
        "notes": report.notes,
        "provenance": "computed",
    }]
    header = "c1\\c," + ",".join("%.17g" % c for c in report.c_values)
    rows = ((c1, *row) for c1, row in zip(report.c1_values, report.cells))
    return results, report.discrepancies, report.passed, (header, rows)


def _cmd_mfunc(args):
    spec = _parse_kind(args.kind, args.seed)
    xs = args.x
    if not xs:
        raise UsageError("--x needs at least one value")
    for x in xs:
        check_stats_x(x)
    table = sieve_primes(max(LEDGER_PRIMES, int(max(xs))), cap=_sieve_cap(args))
    ledger = assemble_ledger(PUBLISHED_C0, table)
    results = []
    passed = True
    discrepancies = []
    for x in xs:
        rep = empirical_checks(spec, x, args.c, ledger, table)
        results.append({
            "x": x,
            "function": spec.description,
            "row": rep.row.as_dict(),
            "checks": rep.checks,
            "notes": rep.notes,
            "provenance": "computed",
        })
        if not rep.passed:
            passed = False
            for name, ch in rep.checks.items():
                if ch["status"] == "fail":
                    discrepancies.append({
                        "kind": "check-not-passed",
                        "check_id": name,
                        "x": x,
                        "function": spec.description,
                    })
    rows = (r["row"].values() for r in results)
    return results, discrepancies, passed, (STATS_CSV_HEADER, rows)


def _cmd_charsum(args):
    if not args.q:
        raise UsageError("--q needs at least one modulus")
    results = []
    discrepancies = []
    for q in args.q:
        full, partial_max, best_t = char_sum_profile(q)
        entry = {
            "q": q,
            "full_period_sum": full,
            "max_abs_partial": partial_max,
            "arg_max": best_t,
            "provenance": "computed",
        }
        if args.pv:
            ratio = pv_ratio(q)
            entry["pv_ratio"] = ratio
            entry["pv_below_one"] = ratio < 1.0
            if ratio >= 1.0:
                discrepancies.append({
                    "kind": "check-not-passed",
                    "check_id": "pv-ratio-below-one",
                    "q": q,
                    "ratio": ratio,
                })
        results.append(entry)
    header = ("q", "full_period_sum", "max_abs_partial", "pv_ratio")
    rows = ([entry.get(k) for k in header] for entry in results)
    return results, discrepancies, not discrepancies, (",".join(header), rows)


_HANDLERS = {
    "verify": _cmd_verify,
    "dickman": _cmd_dickman,
    "constants": _cmd_constants,
    "table": _cmd_table,
    "mfunc": _cmd_mfunc,
    "charsum": _cmd_charsum,
}


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.format == "csv" and args.command not in _TABULAR:
            raise UsageError(
                f"csv output is only available for: {', '.join(sorted(_TABULAR))}"
            )
        config = _config_echo(args)
        results, discrepancies, passed, csv = _HANDLERS[args.command](args)
    except XpvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {
        "version": __version__,
        "command": args.command,
        "config": config,
        "stamps": STAMPS,
        "results": results,
        "discrepancies": discrepancies,
        "pass": passed,
    }
    if args.format == "json":
        payload = json_dumps(report) + "\n"
    elif args.format == "csv":
        header, rows = csv
        lines = [",".join("" if v is None else "%.17g" % v for v in r) for r in rows]
        payload = "\n".join([header] + lines) + "\n"
    else:
        payload = "\n".join(_render_text(report)) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0 if passed else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
