"""Properties of the report serializer and the Jacobi symbol code, over
generated inputs."""

import json
import math
import struct

import pytest

from xpv.cli import json_dumps
from xpv.mfunc import char_sum, jacobi

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=20,
)
_ODD = st.integers(0, 5000).map(lambda k: 2 * k + 1)


@hypothesis.given(_VALUES)
def test_json_dumps_output_parses(obj):
    json.loads(json_dumps(obj))


@hypothesis.given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8))
def test_json_dumps_round_trips_finite_floats(xs):
    # every bit, the sign of zero included, survives the %.17g text
    for x in xs:
        assert struct.pack("<d", float(json_dumps(x))) == struct.pack("<d", x)
    assert [float(v) for v in json.loads(json_dumps(xs))] == xs


@hypothesis.given(_ODD, _ODD)
def test_jacobi_reciprocity(m, n):
    if math.gcd(m, n) != 1:
        assert jacobi(m, n) == jacobi(n, m) == 0
    else:
        sign = -1 if (m % 4 == 3 and n % 4 == 3) else 1
        assert jacobi(m, n) * jacobi(n, m) == sign


@hypothesis.given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6), _ODD)
def test_jacobi_is_multiplicative_in_the_top_argument(a, b, n):
    assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


@hypothesis.given(st.integers(1, 1000).map(lambda k: 2 * k + 1), st.integers(0, 10 ** 4),
                  st.integers(0, 10 ** 6))
def test_char_sum_tiles_by_the_full_period(q, t, k):
    assert char_sum(q, t + k * q) == char_sum(q, t) + k * char_sum(q, q)
