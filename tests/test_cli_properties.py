"""Fuzzed argv: every ``xpv`` invocation ends with exit code 0, 1 or 2,
never a traceback.

Each argv is drawn from small values, and about a third of them do
work: ranges up to 1e4, rho tables to x = 30, mfunc x to 1e4, moduli q
to about 1e4.  In half of them one argument takes an extreme value
(1e300, inf, nan, a negative number, a size above the sieve, table or
character cap, a malformed token), always one that a parse-time or
pre-allocation check refuses, so no example starts a large job.
"""

import contextlib
import io

import pytest

from xpv.cli import run
from xpv.primes import REGISTRY

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# refused by the parser wherever a positive number is expected
_UNPARSABLE = st.sampled_from(["inf", "-inf", "nan", "-1", "0", "-1e300", "abc", ""])
# the least valid x of each check, scaled up for the start of its range
_LEAST = {c: 59.0 if c.startswith("pnt-") else 1865.0 if c == "li-upper"
          else 1e-3 if c == "tail-power" else 2.0 for c in REGISTRY}


@st.composite
def _argv_slots(draw, slots):
    """One value per (good, bad) slot: all good, or one slot bad."""
    bad = draw(st.sampled_from([-1] * len(slots) + list(range(len(slots)))))
    return [draw(b if i == bad else g) for i, (g, b) in enumerate(slots)]


@st.composite
def _verify(draw):
    check = draw(st.sampled_from(sorted(REGISTRY)))
    top = 1.0 if check == "tail-power" else 1e4
    lo = draw(st.floats(_LEAST[check], min(3.0 * _LEAST[check], top)))
    hi = draw(st.floats(lo, top))
    # past the sieve cap is refused before a step check's sieve; a grid
    # check would sweep such a range, so it gets only unparsable ones
    huge = ["2e9", "1e300"] if REGISTRY[check].states.needs_table else ["abc"]
    check, lo, hi, parts, eta = draw(_argv_slots([
        (st.just(check), st.just("nope")),
        (st.just(repr(lo)), st.one_of(_UNPARSABLE, st.just("1e300"))),
        (st.just(repr(hi)), st.one_of(_UNPARSABLE, st.sampled_from(huge))),
        (st.just("1"), st.sampled_from(["-2", "0", str(10 ** 40), "1.5"])),
        (st.sampled_from(["1e-9", "0", "0.5", "1e300"]), _UNPARSABLE),
    ]))
    return ["verify", "--check", check, "--from", lo, "--to", hi,
            "--partitions", parts, "--safety-margin", eta]


@st.composite
def _dickman(draw):
    xmax, step, check = draw(_argv_slots([
        (st.sampled_from(["2", "2.5", "10.5", "17", "30"]),
         st.one_of(_UNPARSABLE, st.sampled_from(["1e9", "1e300", "1.5"]))),
        (st.sampled_from(["0.0009765625", "0.00390625"]),
         st.one_of(_UNPARSABLE, st.sampled_from(["0.001", "0.5", "1e-300"]))),
        (st.sampled_from(["1,2,1.15,table", "2,10,1,table", "1,30,0.5,table",
                          "6,30,1.15,buchstab", "6.5,8,1e300,buchstab"]),
         st.sampled_from(["1e300,2,1,table", "1,1e300,1,table", "6,1e300,1,buchstab",
                          "1,2,nan,table", "1,2,0,table", "1,inf,1,table", "0,2,1,table",
                          "1,2,1,other", "1,2,1", "x,2,1,table"])),
    ]))
    return ["dickman", "--xmax", xmax, "--step", step, "--exponent-check", check]


@st.composite
def _mfunc(draw):
    kind, x, extra, c = draw(_argv_slots([
        (st.sampled_from(["liouville", "one", "qchar:3", "qchar:15", "random:5", "random",
                          "custom:2=0.5,3=-1"]),
         st.sampled_from(["qchar:", "qchar:9", "custom:4=1", "custom:2=2", "custom:2=nan",
                          "custom:", "random:x", "nope"])),
        (st.sampled_from(["2", "100", "1000.5", "1e4"]),
         st.one_of(_UNPARSABLE, st.sampled_from(["1", "0.5", "2e8", "1e300"]))),
        (st.sampled_from(["", ",2", ",1e4"]), st.sampled_from([",2e8", ",nan", ",,"])),
        (st.sampled_from(["0.5", "1"]), st.sampled_from(["0", "-1", "2", "nan", "inf", "x"])),
    ]))
    return ["mfunc", "--kind", kind, "--x", x + extra, "--c", c]


@st.composite
def _constants(draw):
    (c0,) = draw(_argv_slots([(st.sampled_from(["7.28", "7.5"]), _UNPARSABLE)]))
    # the optimizer takes about a third of a second, so it runs rarely
    return ["constants", "--c0", c0] + (["--optimize"] if draw(st.integers(0, 9)) == 0 else [])


@st.composite
def _table(draw):
    # None leaves the list out, for the published grid; a tiny c gives a
    # delta candidate that underflows, or whose epsilon column factor
    # 4 pi delta^-1.5 overflows
    c1, c = draw(_argv_slots([
        (st.sampled_from([None, "1", "1e-5,1", "1,1e-10,1e-20", "1e-300", "1e300", "5e-324"]),
         st.one_of(_UNPARSABLE, st.sampled_from([",", "1,,x"]))),
        (st.sampled_from([None, "0.99", "0.5,0.25", "0.025,0.05,0.99", "1", "1e-100"]),
         st.one_of(_UNPARSABLE, st.sampled_from(["1e-200", "1e-300", "2", "1e300", ","]))),
    ]))
    lists = [tok for flag, v in (("--c1", c1), ("--c", c)) if v is not None for tok in (flag, v)]
    return ["table", *lists] + (["--delta-paper"] if draw(st.booleans()) else [])


@st.composite
def _charsum(draw):
    # past the character caps (a prime above 1e7, an odd composite above
    # 1e6, 10^30 + 1) is refused before the period is allocated
    (q,) = draw(_argv_slots([(
        st.lists(st.sampled_from(["3", "5", "9", "15", "101", "1001", "9973", "10007"]),
                 min_size=1, max_size=4).map(",".join),
        st.sampled_from(["1", "2", "0", "-3", "4", "10000019", "1000001", str(10 ** 30 + 1),
                         "3,x", "1e3", ",", ""]),
    )]))
    return ["charsum", "--q", q] + (["--pv-ratio"] if draw(st.booleans()) else [])


_COMMON = st.tuples(
    st.sampled_from(["json"] * 4 + ["text"] * 3 + ["csv", "xml"]),
    st.sampled_from(["0", "7", "-3", str(10 ** 30)]),
    st.sampled_from([[]] * 6 + [["--sieve-limit", "100"], ["--sieve-limit", "1e3"]]),
).map(lambda t: ["--format", t[0], "--seed", t[1], *t[2]])


@hypothesis.settings(deadline=None, max_examples=90)
@hypothesis.given(st.one_of(_verify(), _dickman(), _mfunc(), _constants(), _table(),
                            _charsum()), _COMMON)
def test_every_argv_exits_0_1_or_2(argv, common):
    argv = argv + common
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse refuses the argv
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
