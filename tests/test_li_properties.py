"""li's value and half-width at an x depend on that x alone: not on the
other x of its chunk, their order or repeats, across X0 = 2^16 (where
the series hands over to the anchors) and across anchor edges."""

import numpy as np
import pytest

from xpv.primes import _LI_X0, _li

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def _ulps(x, k):
    """x moved k ulps."""
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else 0.0)
    return float(x)


# near X0, near an anchor 2^(j/64), or log-uniform in [1.5, 1e9]
_X = st.one_of(
    st.integers(-3, 3).map(lambda k: _ulps(_LI_X0, k)),
    st.tuples(st.integers(1000, 1913), st.integers(-3, 3)).map(
        lambda t: _ulps(float(np.exp2(t[0] / 64.0)), t[1])),
    st.floats(np.log(1.5), np.log(1e9)).map(lambda y: float(np.exp(y))),
)


def _li_bits(xs):
    xs = np.array(xs, dtype=float)
    value, half = _li(xs)
    return [(v.tobytes(), h.tobytes()) for v, h in zip(value, half)]


@hypothesis.settings(deadline=None)
@hypothesis.given(st.lists(_X, min_size=1, max_size=40), st.randoms(use_true_random=False))
def test_li_value_depends_on_x_alone(xs, rnd):
    alone = {x: _li_bits([x])[0] for x in xs}
    shuffled = list(xs)
    rnd.shuffle(shuffled)
    for chunk in (sorted(xs), shuffled, [x for x in xs for _ in (0, 1)]):
        assert _li_bits(chunk) == [alone[x] for x in chunk]
