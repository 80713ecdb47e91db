"""Properties of the one sweep reducer, over generated inputs."""

from unittest import mock

import numpy as np
import pytest

from xpv import core
from xpv.core import SweepSummary, sweep

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
        chunked = sweep(xs, lambda part: (margins[part], scales[part]))
    assert repr(chunked) == repr(SweepSummary.of(xs, margins, scales))


@hypothesis.settings(deadline=None)
@hypothesis.given(_states(), _states(), _states())
def test_summary_merge_is_associative(a, b, c):
    a, b, c = (SweepSummary.of(*s) for s in (a, b, c))
    assert repr(a.merge(b).merge(c)) == repr(a.merge(b.merge(c)))
