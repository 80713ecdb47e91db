"""The sweep floors: each is at or below every margin of its chunk, its
scale bound at or above every |scale|, and a sweep that skips the chunks
a floor clears gives the same report bytes as one that evaluates all."""

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
    """Chunks whose floor lies above a margin, or whose scale bound lies
    below a |scale|, and the number of chunks with a floor."""
    floor = floor or cd.floor
    bad, floored = [], 0
    for xs, state in _chunks(cd, x_lo, x_hi, table):
        bound = floor(xs, state)
        if bound is None:
            continue
        floored += 1
        margins, scales = cd.margins(xs, state)
        lo, top = bound
        if not (lo <= margins.min() and np.abs(scales).max() <= top):
            bad.append((float(xs[0]), lo, float(margins.min())))
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
    real_li, real_octave = primes._li, primes._li_octave

    def octave(k):
        rows = real_octave(k).copy()
        rows[-1] *= _K
        return rows

    def li(xs, ys=None):
        value, half = real_li(xs, ys)  # half is K times wider from X0 up
        shift = np.where(np.isin(xs, low), -0.9, 0.9) * (xs >= primes._LI_X0)
        return value + shift * half, half

    with mock.patch.object(primes, "_li_octave", octave), \
            mock.patch.object(primes, "_li", li):
        yield


def _swapped(floor):
    """``floor`` with li- and li+ swapped: its li reads the half-widths negated."""

    def swapped(xs, state):
        wide = primes._li
        with mock.patch.object(primes, "_li", lambda xs, ys=None: (
                lambda v, h: (v, -h))(*wide(xs, ys))):
            return floor(xs, state)

    return swapped


def _without_2h(floor):
    """``floor`` less its 2 h_max term."""

    def without(xs, state):
        bound = floor(xs, state)
        if bound is None:
            return None
        j = np.floor(np.log(xs[[0, -1]]) * (64.0 / primes._LOG2)).astype(int) >> 6
        h = max(primes._li_octave(k)[-1].max() for k in range(j[0], j[1] + 1))
        return bound[0] + 2.0 * h * (1.0 + primes._FLOOR_EPS), bound[1]

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
# floors on and off give the same bytes


def _floors_off():
    return mock.patch.dict(REGISTRY, {c: dataclasses.replace(REGISTRY[c], floor=None)
                                      for c in FLOORED})


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(list(argv))
    return code, out.getvalue()


def _verify_argv():
    """The pinned verify argv and the benchmark's seed-0 ones."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: workloads}):  # for its dataclass
        spec.loader.exec_module(workloads)
    bench = [job.argv for w in ("sweep-li", "sweep-sum") for job in workloads.plan(w, 0)]
    return [a.split() for a in sorted(PINNED) if a.startswith("verify")] + bench


@pytest.mark.parametrize("argv", _verify_argv(), ids=" ".join)
def test_floors_leave_the_bytes(argv):
    on = _run(argv)
    with _floors_off():
        assert _run(argv) == on


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
