"""``core.point_check`` decides a point check by ``margins_verdict`` and
reports the side that decides it, so that its margin and scale classify
to its verdict, whatever mix of exact zeros and severities its sides hold."""

import pytest

from xpv.core import DEFAULT_ETA, classify, margins_verdict, point_check

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@st.composite
def _side(draw):
    """(margin, scale): an exact zero, a margin near the eta band, or any
    margin, infinities included."""
    scale = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e6)))
    band = DEFAULT_ETA * scale
    margin = draw(st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(-4.0, 4.0).map(lambda k: k * band),
        st.floats(allow_nan=False)))
    return margin, scale


@hypothesis.settings(deadline=None)
@hypothesis.given(st.lists(_side(), min_size=1, max_size=6))
@hypothesis.example([(0.0, 0.0), (-1.0, 1.0)])  # exact zero beside a failure
@hypothesis.example([(0.0, 1.0), (1e-12, 1.0), (1.0, 1.0)])  # beside an indeterminate side
@hypothesis.example([(-0.0, 5.0), (0.0, 1e9)])  # exact zeros pass at any scale
def test_point_check_is_margins_verdict_of_its_deciding_side(sides):
    margins, scales = [m for m, _ in sides], [s for _, s in sides]
    entry = point_check(margins, scales, check_id="c", q=7)
    verdict = margins_verdict(margins, scales)
    assert entry["verdict"] == verdict
    assert classify(entry["margin"], entry["scale"]) == verdict
    deciding = [m for m, s in sides if classify(m, s) == verdict]
    assert entry["margin"] == min(deciding)
    assert (entry["margin"], entry["scale"]) in sides
    assert (entry["check_id"], entry["q"]) == ("c", 7)
