"""Batch front-end.

Subcommands map one-to-one onto the library surface; every run emits a
single report with a fixed schema: {version, command, config, stamps,
results, discrepancies, pass}.  JSON output is byte-identical across runs
with identical argv: keys are sorted, floats are printed with 17
significant digits, and nothing time- or host-dependent enters the report.

The discrepancies open with one check-not-passed entry per check that
failed or was indeterminate; every other kind is a finding and fails
nothing.  Exit codes: 0 no check-not-passed entry, 1 at least one, 2 usage
or precondition error, or a report that cannot be written.
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
from .core import DEFAULT_ETA, PASS, gamma_n, outward, point_check
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
    GRID_STEPS,
    LEDGER_PRIMES,
    ErrorParams,
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
    sieve_limit,
    sieve_primes,
    verify_inequality,
)

STAMPS = [
    "asymptotic lower-order terms are dropped wherever the source "
    "estimates include them",
]

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
    """The report as indented lines; a scalar reads as in JSON, a string bare."""
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k in sorted(obj, key=str):
            v = obj[k]
            if isinstance(v, (dict, list, tuple)):
                lines.append(f"{pad}{k}:")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_render_text(v)[0]}")
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            if isinstance(v, (dict, list, tuple)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {_render_text(v)[0]}")
    else:
        lines.append(pad + (obj if isinstance(obj, str) else json_dumps(obj).strip('"')))
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


def _positive_int(text: str) -> int:
    """A _positive number that is a whole number, such as 1e9."""
    value = _positive(text)
    if value != int(value):
        raise argparse.ArgumentTypeError(f"must be a whole number, got {text!r}")
    return int(value)


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
    def report(*formats):
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", default=None, help="write the report to a file")
        return p

    plain, tabular = report("json", "text"), report("json", "csv", "text")
    margin = argparse.ArgumentParser(add_help=False)
    margin.add_argument("--safety-margin", type=_non_negative, default=DEFAULT_ETA,
                        help="relative threshold separating pass from indeterminate")

    parser = argparse.ArgumentParser(prog="xpv")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[plain, margin],
                       help="sweep one registered inequality over a range")
    p.add_argument("--check", required=True)
    p.add_argument("--from", dest="x_from", type=_positive, required=True)
    p.add_argument("--to", dest="x_to", type=_positive, required=True)
    p.add_argument("--sieve-limit", type=_positive_int, default=DEFAULT_SIEVE_CAP,
                   help="the largest number a step check may sieve to")

    p = sub.add_parser("dickman", parents=[tabular, margin],
                       help="build the log-rho table and run exponent checks")
    p.add_argument("--xmax", type=_positive, required=True)
    p.add_argument("--step", type=_positive, default=2.0 ** -10)
    p.add_argument("--exponent-check", action="append", default=[],
                   metavar="LO,HI,E,SOURCE")

    p = sub.add_parser("constants", parents=[plain],
                       help="assemble the constant ledger and case bounds")
    p.add_argument("--c0", type=_positive, default=PUBLISHED_C0)
    p.add_argument("--optimize", action="store_true")

    p = sub.add_parser("table", parents=[tabular],
                       help="reproduce the published exponent table")
    p.add_argument("--c1", type=_float_list, default=None)
    p.add_argument("--c", type=_float_list, default=None)
    p.add_argument("--delta-paper", action="store_true", dest="delta_published",
                   help="use the published delta values as overrides")

    p = sub.add_parser("mfunc", parents=[tabular],
                       help="statistics and empirical checks for one function")
    p.add_argument("--kind", required=True)
    p.add_argument("--x", type=_float_list, required=True)
    p.add_argument("--c", type=_pv_constant, default=0.5)

    p = sub.add_parser("charsum", parents=[tabular],
                       help="quadratic character sums")
    p.add_argument("--q", type=_int_list, required=True)
    p.add_argument("--pv-ratio", action="store_true", dest="pv")
    return parser


def _parse_kind(text: str) -> MultiplicativeSpec:
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
        if not rest:
            raise UsageError("random needs a seed, e.g. random:5")
        return random_pm1(number(int, rest))
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
# subcommand handlers: each returns (results, checks, findings, csv).
# checks holds one entry per check the run made, with its check_id and its
# verdict from core.margins_verdict (a point check's from core.point_check);
# run() turns each entry whose verdict is not a pass into a check-not-passed
# discrepancy and sets the exit code.  findings are discrepancies that fail
# nothing.  csv is None or (header, rows of values); run() formats the rows,
# and only under --format csv


def _sweep_check(report):
    """The check entry of a sweep report."""
    return {
        "check_id": report.check_id,
        "verdict": report.verdict,
        "worst_margin": report.worst_margin,
        "arg_min": report.arg_min,
    }


def _cmd_verify(args):
    cd = check_def(args.check)
    cd.check_range(args.x_from, args.x_to)  # before the sieve, which may be large
    table = None
    if cd.bracketed:  # it sieves small windows only, under the same cap
        sieve_limit(math.ceil(args.x_to), args.sieve_limit)
    elif cd.states.needs_table:
        table = sieve_primes(int(math.ceil(args.x_to)), cap=args.sieve_limit)
        if cd.states.prefix is not None:
            # the prime sums are table work: build them before the sweep,
            # so they stay out of the sweep's own time
            cd.states.prefix(table)
    report = verify_inequality(cd.check_id, args.x_from, args.x_to, table,
                               eta=args.safety_margin)
    return [report.as_dict()], [_sweep_check(report)], [], None


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
    reports = [verify_rho_exponent(lo, hi, e, source, table=table, eta=args.safety_margin)
               for lo, hi, e, source in checks]
    results += [rep.as_dict() for rep in reports]
    csv = ("x,log_rho,err", zip(table.xs, table.log_values, table.err))
    return results, [_sweep_check(rep) for rep in reports], [], csv


def _cmd_constants(args):
    ledger = assemble_ledger(args.c0, sieve_primes(LEDGER_PRIMES))
    k_enc, nu2_enc, nu3_enc = ledger.K_enclosure, ledger.nu2_enclosure, ledger.nu3_enclosure
    cb = case_bounds(ErrorParams(PUBLISHED_BEST_C, 0, PUBLISHED_EPS, PUBLISHED_K2))
    integral_enc = integral_exp_over_square()
    target = ledger.gamma - ledger.M
    nu1_gap = PUBLISHED_V1 - ledger.nu1
    nu2_cap, nu3_cap = PUBLISHED_NU2_BOUND, PUBLISHED_NU3_BOUND

    # each check's sides as margins RHS - LHS, scaled by the size of the
    # numbers they compare
    checks = {
        "K-near-published": point_check(
            [5e-5 - max(abs(k_enc.lo - PUBLISHED_K), abs(k_enc.hi - PUBLISHED_K))],
            [PUBLISHED_K], lo=k_enc.lo, hi=k_enc.hi, published=PUBLISHED_K, tolerance=5e-5),
        "nu1-under-published": point_check(
            [nu1_gap, 1e-4 - nu1_gap], [PUBLISHED_V1] * 2,
            computed=ledger.nu1, published=PUBLISHED_V1),
        "nu2-bracket": point_check(
            [target - nu2_enc.lo, nu2_enc.hi - target, nu2_cap - nu2_enc.hi],
            [target, target, nu2_cap],
            lo=nu2_enc.lo, hi=nu2_enc.hi, target=target, published_cap=nu2_cap),
        "nu3-cap": point_check([nu3_cap - nu3_enc.hi], [nu3_cap],
                               lo=nu3_enc.lo, hi=nu3_enc.hi, published_cap=nu3_cap),
        "integral-window": point_check(
            [integral_enc.lo - 9.43, 9.45 - integral_enc.hi], [9.43, 9.45],
            lo=integral_enc.lo, hi=integral_enc.hi),
    }
    if args.c0 == PUBLISHED_C0:
        checks["ledger-ranges"] = point_check(
            [ledger.a - 5.4e5, 5.6e5 - ledger.a, ledger.final - 9.5e5, 9.9e5 - ledger.final],
            [5.4e5, 5.6e5, 9.5e5, 9.9e5], a=ledger.a, final=ledger.final)

    results = [
        {"ledger": ledger.as_dict(), "provenance": "computed"},
        {
            "case_bounds": {
                **cb,
                "gaps_to_published": {
                    "c_ii_vs_c0": cb["c_ii"] - PUBLISHED_C0,
                    "c_iii": cb["c_iii"] - PUBLISHED_CASE_III,
                    "c_iv": cb["c_iv"] - PUBLISHED_CASE_IV,
                },
            },
            "provenance": "computed",
        },
        {"checks": checks, "provenance": "computed"},
    ]
    gaps = [("short-range case constant exceeds the published C0", cb["c_ii"])]
    if args.optimize:
        params, achieved = optimize_C0(
            DEFAULT_C_GRID, DEFAULT_K1_GRID, DEFAULT_EPS_GRID, DEFAULT_K2_GRID
        )
        results.append({
            "optimizer": {
                "achieved": achieved,
                "argmin": asdict(params),
                "gap_to_published": achieved - PUBLISHED_C0,
                "grids": {
                    "c": [DEFAULT_C_GRID[0], DEFAULT_C_GRID[-1], GRID_STEPS["c"]],
                    "k1": [DEFAULT_K1_GRID[0], DEFAULT_K1_GRID[-1], GRID_STEPS["k1"]],
                    "eps": [DEFAULT_EPS_GRID[0], DEFAULT_EPS_GRID[-1], GRID_STEPS["eps"]],
                    "k2": list(DEFAULT_K2_GRID),
                },
            },
            "provenance": "computed",
        })
        gaps.append(("optimized constant stays above the published C0", achieved))
    findings = [{"kind": "constant-gap", "detail": detail, "computed": v,
                 "published": PUBLISHED_C0, "gap": v - PUBLISHED_C0}
                for detail, v in gaps if v > PUBLISHED_C0]
    return results, [{"check_id": name, **ch} for name, ch in checks.items()], findings, None


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
    result, findings = table1_report(c1_values, c_values, deltas)
    result["notes"].append(source_note)
    result["provenance"] = "computed"
    header = "c1\\c," + ",".join("%.17g" % c for c in result["c"])
    rows = ((c1, *row) for c1, row in zip(result["c1"], result["cells"]))
    checks = [{"check_id": name, **ch} for name, ch in result["checks"].items()]
    return [result], checks, findings, (header, rows)


def _cmd_mfunc(args):
    spec = _parse_kind(args.kind)
    xs = args.x
    if not xs:
        raise UsageError("--x needs at least one value")
    for x in xs:
        check_stats_x(x)
    table = sieve_primes(max(LEDGER_PRIMES, int(max(xs))))
    ledger = assemble_ledger(PUBLISHED_C0, table)
    # largest x first, so the values memo grows once; the report keeps argv order
    reps = {x: empirical_checks(spec, x, args.c, ledger, table)
            for x in sorted(set(xs), reverse=True)}
    results = [{**reps[x], "provenance": "computed"} for x in xs]
    checks = [{"check_id": name, "x": r["x"], "function": r["function"], **ch}
              for r in results for name, ch in r["checks"].items()]
    rows = (r["row"].values() for r in results)
    return results, checks, [], (STATS_CSV_HEADER, rows)


def _cmd_charsum(args):
    if not args.q:
        raise UsageError("--q needs at least one modulus")
    results = []
    checks = []
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
            # sqrt, log (1 ulp, two roundings of u) and the product make pv
            # within gamma_4 of sqrt(q) log q, so within gamma_5 pv of it
            pv = math.sqrt(q) * math.log(q)
            pv_lo = outward(pv - gamma_n(5) * pv, -math.inf)
            check = point_check([pv_lo - partial_max], [pv])
            entry["checks"] = {"pv-ratio-below-one": check}
            checks.append({"check_id": "pv-ratio-below-one", "q": q, "ratio": ratio, **check})
        results.append(entry)
    header = ("q", "full_period_sum", "max_abs_partial", "pv_ratio")
    rows = ([entry.get(k) for k in header] for entry in results)
    return results, checks, [], (",".join(header), rows)


_HANDLERS = {
    "verify": _cmd_verify,
    "dickman": _cmd_dickman,
    "constants": _cmd_constants,
    "table": _cmd_table,
    "mfunc": _cmd_mfunc,
    "charsum": _cmd_charsum,
}


def _probe_writable(path: str) -> None:
    """Raise OSError unless ``path`` can be opened for writing.  An
    existing file keeps its bytes; a file the probe makes is removed."""
    existed = os.path.lexists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def _cannot_write(path: str, exc: OSError) -> int:
    print(f"error: cannot write {path}: {exc.strerror}", file=sys.stderr)
    return 2


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.out:  # before the work, which may take long
        try:
            _probe_writable(args.out)
        except OSError as exc:
            return _cannot_write(args.out, exc)
    try:
        results, checks, findings, csv = _HANDLERS[args.command](args)
    except XpvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = [{"kind": "check-not-passed", **entry} for entry in checks if entry["verdict"] != PASS]
    report = {
        "version": __version__,
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k != "command"},
        "stamps": STAMPS,
        "results": results,
        "discrepancies": failed + findings,
        "pass": not failed,
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
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            return _cannot_write(args.out, exc)
    else:
        sys.stdout.write(payload)
    return 1 if failed else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
