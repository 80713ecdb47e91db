"""The pruned tau scan of tail_sum_large against the full scan it
replaced, over generated (eps, k2)."""

import math

import numpy as np
import pytest

from xpv.core import golden_max
from xpv.meanvalue import TWO_PI, _tsl_at, tail_sum_large

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def _full_scan(eps, k2):
    """The scan before pruning: the golden section, then the series at
    every point of the thousand-point grid, kept only when strictly larger."""
    two_pi_ks = TWO_PI * np.arange(k2 + 1, dtype=np.float64)
    buf = np.empty_like(two_pi_ks)

    def g(s):
        return _tsl_at(eps, k2, math.exp(s), two_pi_ks, buf)

    best = golden_max(g, 0.0, 30.0)[1]
    return max(best, *(g(s) for s in np.linspace(0.0, 30.0, 1000).tolist()))


@hypothesis.settings(deadline=None, max_examples=40)
@hypothesis.given(st.floats(0.01, 12.0), st.sampled_from([0, 1, 2, 7, 10, 1000, 10 ** 4]))
def test_pruned_scan_has_the_bits_of_the_full_scan(eps, k2):
    assert tail_sum_large(eps, k2).hex() == _full_scan(eps, k2).hex()
