"""The sweep floors: each run floor is at or below every margin of its
run, and its top at or above every |scale|, on a chunk's runs of primes and
on the pi-li brackets between exact pi points; a sweep that skips what a
floor clears gives the same report bytes as a table sweep that evaluates
every state."""

import contextlib
import dataclasses
import importlib.util
import io
import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from test_pinned_reports import PINNED

from xpv import cli, core, primes
from xpv.primes import REGISTRY, sieve_primes, verify_inequality

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

FLOORED = sorted(c for c, cd in REGISTRY.items() if cd.floor is not None)
TOP = 3_000_000
# across X0 = 2^16, and through the octaves 2^17 to 2^22
FIXED = [(2.0, 2e5), (60000.0, 2.0 ** 18),
         *((2.0 ** k - 3000.0, 2.0 ** k + 3000.0) for k in range(17, 23)),
         (2.0, float(TOP))]
CHUNKS = [1 << 10, core._SWEEP_CHUNK]


@pytest.fixture(scope="module")
def table():
    return sieve_primes(2 ** 22 + 3000)


def _chunks(cd, x_lo, x_hi, table):
    extra = [x for x in cd.stationary if x_lo < x <= x_hi]
    prefix = None if cd.states.prefix is None else cd.states.prefix(table)
    return cd.states.build(x_lo, x_hi, table, extra, prefix)


def _violations(cd, x_lo, x_hi, table, floor=None):
    """Runs of ``_FLOOR_RUN`` primes, from X0 up for a bracketed check,
    whose floor lies above a margin, or whose top lies below a |scale|,
    and the number of runs with a floor."""
    floor = floor or cd.floor
    bad, floored = [], 0
    for xs, state in _chunks(cd, x_lo, x_hi, table):
        if state.ndim == 1:
            continue
        keep = xs >= (primes._LI_X0 if cd.bracketed else 0.0)
        xs, state = xs[keep], state[:, keep]
        if not xs.size:
            continue
        first = np.arange(0, xs.size, primes._FLOOR_RUN)
        last = np.minimum(first + primes._FLOOR_RUN, xs.size) - 1
        floors, tops = floor(xs[first], xs[last], np.minimum.reduceat(state.min(axis=0), first),
                             np.maximum.reduceat(state.max(axis=0), first))
        floored += first.size
        margins, scales = cd.margins(xs, state)
        least = np.minimum.reduceat(margins.min(axis=0), first)
        most = np.maximum.reduceat(
            np.broadcast_to(np.abs(scales), margins.shape).max(axis=0), first)
        for k in np.flatnonzero((floors > least) | (tops < most)):
            bad.append((float(xs[first[k]]), float(floors[k]), float(least[k])))
    return bad, floored


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("check_id", FLOORED)
@pytest.mark.parametrize("x_lo, x_hi", FIXED)
def test_floor_holds_on_fixed_ranges(table, check_id, chunk, x_lo, x_hi):
    with mock.patch.object(core, "_SWEEP_CHUNK", chunk):
        bad, floored = _violations(REGISTRY[check_id], x_lo, x_hi, table)
    assert not bad
    assert floored  # every range reaches past X0 with a full chunk


@st.composite
def _range(draw):
    a, b = sorted(draw(st.floats(2.0, TOP)) for _ in range(2))
    return a, b


@hypothesis.settings(deadline=None, max_examples=25)
@hypothesis.given(st.sampled_from(FLOORED), st.sampled_from(CHUNKS), _range())
def test_floor_holds_on_generated_ranges(table, check_id, chunk, bounds):
    with mock.patch.object(core, "_SWEEP_CHUNK", chunk):
        assert not _violations(REGISTRY[check_id], *bounds, table)[0]


# ---------------------------------------------------------------------------
# teeth: the pi-li proof holds for any li inside its half-widths, not only
# for ``_li``'s values, which sit far closer to li than their half-widths
# and increase with x.  An li K times as wide, moved anywhere inside that
# width, is such an li; the floor must hold for it, and mutated floors
# must not.  On sub-runs of two primes, the li below sits high at each
# run's first prime and low at its last, as far as the proof allows.

_K = 2e10  # K times the half-width, about 5e-16 x, is 1 to 10 on [1e5, 1e6]


@contextlib.contextmanager
def _wide_li(low):
    """``_li`` K times as wide from X0 up, moved by 0.9 of that width:
    down at the x in ``low``, up elsewhere."""
    real_li, real_octaves = primes._li, primes._li_octaves

    def octaves(ks):
        tables = [table.copy() for table in real_octaves(ks)]
        for rows in tables:
            rows[-1] *= _K
        return tables

    def li(xs, ys=None):
        value, half = real_li(xs, ys)  # half is K times wider from X0 up
        shift = np.where(np.isin(xs, low), -0.9, 0.9) * (xs >= primes._LI_X0)
        return value + shift * half, half

    with mock.patch.object(primes, "_li_octaves", octaves), \
            mock.patch.object(primes, "_li", li):
        yield


def _swapped(floor):
    """``floor`` with li- and li+ swapped: its li reads the half-widths negated."""

    def swapped(*runs):
        wide = primes._li
        with mock.patch.object(primes, "_li", lambda xs, ys=None: (
                lambda v, h: (v, -h))(*wide(xs, ys))):
            return floor(*runs)

    return swapped


def _without_2h(floor):
    """``floor`` less its 2 h_max term."""

    def without(starts, stops, s_lo, s_hi):
        floors, tops = floor(starts, stops, s_lo, s_hi)
        j = np.floor(np.log([starts[0], stops[-1]]) * (64.0 / primes._LOG2)).astype(int) >> 6
        h = max(t[-1].max() for t in primes._li_octaves(range(j[0], j[1] + 1)))
        return floors + 2.0 * h * (1.0 + primes._FLOOR_EPS), tops

    return without


@pytest.mark.parametrize("check_id", ["pi-li-1", "pi-li-2", "pi-li-3"])
def test_oracle_catches_a_mutated_pi_li_floor(table, check_id):
    cd = REGISTRY[check_id]
    with mock.patch.object(primes, "_FLOOR_RUN", 2):
        low = [xs[np.minimum(np.arange(1, xs.size + 1, 2), xs.size - 1)]
               for xs, _ in _chunks(cd, 2.0, 1e6, table)]  # each run's last prime
        with _wide_li(np.concatenate(low)):
            assert not _violations(cd, 2.0, 1e6, table)[0]
            for mutant in (_swapped(cd.floor), _without_2h(cd.floor)):
                assert _violations(cd, 2.0, 1e6, table, mutant)[0]


# ---------------------------------------------------------------------------
# the pi-li brackets: exact pi at Lucy points, one floor per bracket


def _brackets(cd, x_lo, x_hi):
    """The brackets a sweep over [x_lo, x_hi] floors: their ends and pis,
    from the tops floor(x_hi r^-j), j < log 2/log r, and floor(x_lo)."""
    r = cd.ratio(x_hi)
    tops = [math.floor(x_hi * r ** -j) for j in range(math.ceil(math.log(2.0) / math.log(r)))]
    if x_lo > primes._LI_X0:
        tops.append(math.floor(x_lo))
    points, pis = primes.prime_pi_points(tops)
    keep = (points >= max(primes._LI_X0, x_lo)) & (points <= x_hi)
    return points[keep], pis[keep]


@pytest.mark.parametrize("check_id", ["pi-li-1", "pi-li-2", "pi-li-3"])
@pytest.mark.parametrize("x_lo, x_hi", [(2.0, float(TOP)), (1e5 + 0.5, 2.5e6), (2.0, 2.0 ** 22)])
def test_bracket_floors_hold(table, check_id, x_lo, x_hi):
    cd = REGISTRY[check_id]
    v, pv = _brackets(cd, x_lo, x_hi)
    assert np.array_equal(pv, [table.prime_pi(x) for x in v.tolist()])
    floors, tops = cd.floor(v[:-1], v[1:], pv[:-1], pv[1:])
    ps = table.primes[pv[0]:pv[-1]]  # the primes in (v_0, v_last]
    i = np.arange(pv[0], pv[-1])
    state = np.stack([i, i + 1])
    margins, scales = cd.margins(ps.astype(np.float64), state)
    full = pv[1:] > pv[:-1]  # brackets with a prime
    least = np.minimum.reduceat(margins.min(axis=0), pv[:-1][full] - pv[0])
    most = np.maximum.reduceat(np.abs(scales), pv[:-1][full] - pv[0])
    assert np.all(floors[full] <= least)
    assert np.all(tops[full] >= most)
    assert np.all(v[1:] <= 1.5 * v[:-1])  # the spacing the floor's rounding allows
    assert (floors > 0).all()  # and every bracket clears a pass


# ---------------------------------------------------------------------------
# floors on and off give the same bytes: with its floor off, a pi-li check
# sweeps a sieved table and evaluates every state


def _floors_off():
    return mock.patch.dict(REGISTRY, {c: dataclasses.replace(REGISTRY[c], floor=None)
                                      for c in FLOORED})


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(list(argv))
    return code, out.getvalue()


# pi-li ranges from above 2^16: the head window starts at x_lo, and the
# worst margin so far is positive, so the brackets near x_lo do not clear
# and are sieved and evaluated as windows
ABOVE_X0 = [
    "verify --check pi-li-1 --from 65536 --to 3e6",
    "verify --check pi-li-2 --from 70000.5 --to 2e6",
    "verify --check pi-li-3 --from 1000003 --to 1000033",
    "verify --check pi-li-1 --from 2500000.5 --to 2500000.7",
    "verify --check pi-li-2 --from 2 --to 65535.5",
]


def _verify_argv():
    """The pinned verify argv, the benchmark's seed-0 ones and ABOVE_X0."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: workloads}):  # for its dataclass
        spec.loader.exec_module(workloads)
    bench = [job.argv for w in ("sweep-li", "sweep-sum") for job in workloads.plan(w, 0)]
    pinned = [a for a in sorted(PINNED) if a.startswith("verify")]
    return [a.split() for a in pinned + ABOVE_X0] + bench


@pytest.mark.parametrize("argv", _verify_argv(), ids=" ".join)
def test_floors_leave_the_bytes(argv):
    on = _run(argv)
    with _floors_off():
        assert _run(argv) == on


def test_a_bracket_that_does_not_clear_is_evaluated():
    """A floor that fails one mid-range bracket sends it to the sieve as
    a window of its own, and the report keeps its bytes."""
    cd = REGISTRY["pi-li-1"]
    argv = ["verify", "--check", "pi-li-1", "--from", "2", "--to", "3e6"]
    want = _run(argv)
    v, _ = _brackets(cd, 2.0, 3e6)
    mid = v.size // 2

    def floor(starts, stops, s_lo, s_hi):
        floors, tops = cd.floor(starts, stops, s_lo, s_hi)
        return np.where(starts == v[mid], -np.inf, floors), tops

    windows, sieve = [], primes._segmented_primes

    def spy(limit, start=2, expect=None):
        windows.append((start, limit))
        return sieve(limit, start, expect)

    with mock.patch.dict(REGISTRY, {"pi-li-1": dataclasses.replace(cd, floor=floor)}), \
            mock.patch.object(primes, "_segmented_primes", spy):
        assert _run(argv) == want
    assert (int(v[mid]) + 1, int(v[mid + 1])) in windows
    assert max(limit for _, limit in windows) == v[mid + 1]  # no other window


@hypothesis.settings(deadline=None, max_examples=15)
@hypothesis.given(st.sampled_from(FLOORED), _range())
def test_floors_leave_the_bytes_on_generated_ranges(check_id, bounds):
    argv = ["verify", "--check", check_id, "--from", repr(bounds[0]), "--to", repr(bounds[1])]
    on = _run(argv)
    with _floors_off():
        assert _run(argv) == on


# ---------------------------------------------------------------------------
# the floors prune: a loosening that stops them fails here


@pytest.mark.parametrize("check_id, x_hi", [
    ("pi-li-1", 5e6), ("pi-li-2", 5e6), ("pi-li-3", 5e6), ("mertens-mprime-coarse", 1e7)])
def test_floors_leave_few_states_to_evaluate(check_id, x_hi):
    cd = REGISTRY[check_id]
    seen = []

    def margins(xs, state):
        out = cd.margins(xs, state)
        seen.append(out[0].size)
        return out

    with mock.patch.dict(REGISTRY, {check_id: dataclasses.replace(cd, margins=margins)}):
        report = verify_inequality(check_id, 2.0, x_hi, sieve_primes(math.ceil(x_hi)))
    assert sum(seen) <= 0.05 * report.evaluation_count, (sum(seen), report.evaluation_count)
