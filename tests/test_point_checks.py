"""Every point check of ``constants``, ``table``, ``mfunc`` and ``charsum``
carries a verdict that its own margin and scale classify to, and the exit
code is 1 exactly when some check does not pass."""

import json
import math

import pytest

from test_pinned_reports import PINNED
from xpv import cli, mfunc
from xpv.cli import run
from xpv.core import classify

# the pinned argv of the point-check commands, in JSON, and a few more:
# constants at a C0 whose ledger-ranges check is left out, a table off the
# published grid, one whose broken published cell fails both ratio checks,
# and a charsum PV run, whose results carry their checks too
ARGV = sorted(a for a in PINNED if a.split()[0] in ("constants", "table", "mfunc")
              and "--format" not in a) + [
    "constants --c0 700", "table --c 0.7", "table --delta-paper --c1 1e-20",
    "charsum --q 3,7,101 --pv-ratio"]


def _check_entries(report):
    """(check_id, entry) of each point check in the report's results."""
    return [(name, entry) for result in report["results"]
            for name, entry in result.get("checks", {}).items()]


@pytest.mark.parametrize("argv", ARGV)
def test_each_check_verdict_is_its_margin_classified(argv, capsys):
    code = run(argv.split())
    report = json.loads(capsys.readouterr().out)
    entries = _check_entries(report)
    assert entries
    for name, entry in entries:
        assert entry["verdict"] == classify(float(entry["margin"]), float(entry["scale"])), name
    not_passed = [name for name, entry in entries if entry["verdict"] != "pass"]
    assert code == (1 if not_passed else 0)
    assert [d["check_id"] for d in report["discrepancies"]
            if d["kind"] == "check-not-passed"] == not_passed


def _legendre_max(q):
    """max |sum of (n/q) over 1 <= n <= t| over 1 <= t < q, by Euler's criterion."""
    s, top = 0, 0
    for n in range(1, q):
        s += 1 if pow(n, (q - 1) // 2, q) == 1 else -1
        top = max(top, abs(s))
    return top


def test_pv_check_against_brute_force_sums_and_mpmath():
    mpmath = pytest.importorskip("mpmath")
    qs = [3, 5, 7, 11, 13]
    args = cli._build_parser().parse_args(["charsum", "--q", "3,5,7,11,13", "--pv-ratio"])
    results, checks, _, _ = cli._cmd_charsum(args)
    assert len(checks) == len(qs)
    for q, result, check in zip(qs, results, checks):
        top = _legendre_max(q)
        assert result["max_abs_partial"] == top
        assert (check["check_id"], check["q"], check["verdict"]) == ("pv-ratio-below-one", q, "pass")
        with mpmath.workdps(30):
            room = mpmath.sqrt(q) * mpmath.log(q) - top  # the exact margin
            # the check's margin is the lower end of sqrt(q) log q minus max|S|
            assert room - mpmath.mpf("1e-12") < check["margin"] < room


def test_pv_check_fails_when_max_s_reaches_the_bound(capsys, monkeypatch):
    def profile(q):
        return 0, math.ceil(math.sqrt(q) * math.log(q)), 1

    for module in (cli, mfunc):  # every binding of the name
        monkeypatch.setattr(module, "char_sum_profile", profile)
    assert run(["charsum", "--q", "7", "--pv-ratio"]) == 1
    report = json.loads(capsys.readouterr().out)
    failed = report["discrepancies"]
    assert [(d["kind"], d["check_id"], d["verdict"]) for d in failed] == [
        ("check-not-passed", "pv-ratio-below-one", "fail")]
    entry = report["results"][0]["checks"]["pv-ratio-below-one"]
    assert entry == {k: failed[0][k] for k in ("verdict", "margin", "scale")}
