"""Properties of the one sweep reducer and the chunked grids, over
generated inputs."""

import math
from unittest import mock

import numpy as np
import pytest

from xpv import core
from xpv.core import SweepSummary, anchored_grid, geometric_grid, runs, sweep

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# few distinct x and margins, so ties are common; 0.0 and -0.0 tie
_XS = st.sampled_from([1.0, 2.0, 3.0, 5.0])
_MARGINS = st.sampled_from([-1.0, -1e-12, -0.0, 0.0, 1e-12, 1.0])
_SCALES = st.sampled_from([0.5, 1.0, 1e4])


@st.composite
def _states(draw):
    n = draw(st.integers(1, 40))
    return tuple(np.array(draw(st.lists(s, min_size=n, max_size=n)))
                 for s in (_XS, _MARGINS, _SCALES))


@hypothesis.settings(deadline=None)
@hypothesis.given(_states(), st.integers(1, 50))
def test_sweep_equals_the_whole_summary(states, chunk):
    xs, margins, scales = states
    with mock.patch.object(core, "_SWEEP_CHUNK", chunk):
        chunked = sweep(((xs[k], k) for k in runs(0, xs.size)),
                        lambda _, k: (margins[k], scales[k]))
    assert repr(chunked) == repr(SweepSummary.of(xs, margins, scales))


@hypothesis.settings(deadline=None)
@hypothesis.given(_states(), _states(), _states())
def test_summary_merge_is_associative(a, b, c):
    a, b, c = (SweepSummary.of(*s) for s in (a, b, c))
    assert repr(a.merge(b).merge(c)) == repr(a.merge(b.merge(c)))


# ---------------------------------------------------------------------------
# the materialising grids that ``core.grid`` replaced, kept as the oracle


def _geometric_grid_whole(lo, hi, per_octave=128):
    if not (lo < hi):
        return np.array([lo] if lo == hi else [], dtype=float)
    j_lo = math.ceil(per_octave * math.log2(lo) - 1e-12)
    j_hi = math.floor(per_octave * math.log2(hi) + 1e-12)
    pts = np.exp2(np.arange(j_lo, j_hi + 1, dtype=float) / per_octave)
    pts = pts[(pts >= lo) & (pts <= hi)]
    return np.unique(np.concatenate([[lo], pts, [hi]]))


def _anchored_grid_whole(lo, hi, step):
    pts = np.arange(math.ceil(lo / step), math.floor(hi / step) + 1,
                    dtype=float) * step
    pts = pts[(pts >= lo) & (pts <= hi)]
    return np.unique(np.concatenate([[lo], pts, [hi]]))


@st.composite
def _range(draw, point, j_lo, j_hi):
    """lo <= hi, each a grid point, one ulp beside one, or any x between."""

    def end():
        x = point(draw(st.integers(j_lo, j_hi)))
        kind = draw(st.sampled_from(["on", "below", "above", "any"]))
        if kind == "any":
            return draw(st.floats(point(j_lo), point(j_hi)))
        if kind == "on":
            return float(x)
        return float(np.nextafter(x, -math.inf if kind == "below" else math.inf))

    return tuple(sorted((end(), end())))


def _check_chunks(chunks, chunk, point, want):
    for xs, j in chunks:
        if j is not None:
            assert 0 < xs.size <= chunk and xs.tolist() == point(j).tolist()
    # the endpoints off the grid, if any, are the one last chunk
    assert all(j is not None for _, j in chunks[:-1])
    xs = np.concatenate([xs for xs, _ in chunks] or [np.empty(0)])
    assert np.sort(xs).tolist() == want.tolist()


@hypothesis.settings(deadline=None)
@hypothesis.given(st.data(), st.integers(1, 50), st.sampled_from([8, 128]))
def test_geometric_chunks_equal_the_whole_grid(data, chunk, per_octave):
    # 6 octaves from 2 up
    lo, hi = data.draw(_range(lambda j: float(np.exp2(j / per_octave)),
                              per_octave, 7 * per_octave))
    with mock.patch.object(core, "_SWEEP_CHUNK", chunk):
        chunks = list(geometric_grid(lo, hi, per_octave))
    _check_chunks(chunks, chunk, lambda j: np.exp2(j / per_octave),
                  _geometric_grid_whole(lo, hi, per_octave))


@hypothesis.settings(deadline=None)
@hypothesis.given(st.data(), st.integers(1, 50), st.sampled_from([0.25, 2.0 ** -10]))
def test_anchored_chunks_equal_the_whole_grid(data, chunk, step):
    # 400 steps from 6 up
    lo, hi = data.draw(_range(lambda j: j * step, round(6 / step), round(6 / step) + 400))
    with mock.patch.object(core, "_SWEEP_CHUNK", chunk):
        chunks = list(anchored_grid(lo, hi, step))
    _check_chunks(chunks, chunk, lambda j: j * step, _anchored_grid_whole(lo, hi, step))
