"""tail_sum_large and its series against the full sums they replaced,
over generated (eps, k2, s): the pruned tau scan against the scan of
every grid point, and the truncated series of ``_tsl_at`` against the
sum of all of its terms, both with the oracle's series."""

import math

import numpy as np
import pytest

from tail_oracle import tsl_full
from xpv.core import golden_max
from xpv.meanvalue import TWO_PI, _sum_prefixes, _tsl_at, tail_sum_large

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def _full_scan(eps, k2):
    """The scan before pruning: the golden section, then the series at
    every point of the thousand-point grid, kept only when strictly larger."""
    two_pi_ks = TWO_PI * np.arange(k2 + 1, dtype=np.float64)
    buf = np.empty_like(two_pi_ks)

    def g(s):
        return tsl_full(eps, k2, math.exp(s), two_pi_ks, buf)

    best = golden_max(g, 0.0, 30.0)[1]
    return max(best, *(g(s) for s in np.linspace(0.0, 30.0, 1000).tolist()))


@hypothesis.settings(deadline=None, max_examples=40)
@hypothesis.given(st.floats(0.01, 12.0), st.sampled_from([0, 1, 2, 7, 10, 1000, 10 ** 4]))
def test_pruned_scan_has_the_bits_of_the_full_scan(eps, k2):
    assert tail_sum_large(eps, k2).hex() == _full_scan(eps, k2).hex()


@hypothesis.settings(deadline=None, max_examples=150)
@hypothesis.given(st.one_of(st.floats(0.01, 12.0), st.sampled_from([1e3, 1e200])),
                  st.sampled_from([0, 1, 7, 128, 129, 1000, 10 ** 5, 3 * 10 ** 5, 10 ** 6]),
                  st.one_of(st.floats(0.0, 30.0), st.sampled_from([0.0, 30.0])))
def test_truncated_series_has_the_bits_of_the_full_sum(eps, k2, s):
    two_pi_ks = TWO_PI * np.arange(k2 + 1, dtype=np.float64)
    tau = math.exp(s)
    got = _tsl_at(eps, k2, tau, two_pi_ks, np.empty_like(two_pi_ks))
    assert got.hex() == tsl_full(eps, k2, tau, two_pi_ks, np.empty_like(two_pi_ks)).hex()


@hypothesis.settings(deadline=None, max_examples=12)
@hypothesis.given(st.integers(129, 2 * 10 ** 6), st.integers(0, 2 ** 32 - 1))
def test_numpy_sum_keeps_a_prefix_when_the_rest_is_below_its_rounding(n, seed):
    # np.sum over n terms adds the sum past each prefix of _sum_prefixes to
    # that prefix's own sum; terms of wide magnitude make any other tree
    # round differently
    rng = np.random.default_rng(seed)
    terms = np.exp(rng.normal(0.0, 8.0, n))
    for m in _sum_prefixes(n):
        a = terms.copy()
        a[m:] *= math.ulp(a[0]) / 16.0 / float(np.sum(a[m:]))
        assert float(np.sum(a)).hex() == float(np.sum(a[:m])).hex(), (
            f"np.sum over {n} terms no longer ends in the sum of its first {m}: "
            "numpy's reduction order changed, and the truncation in "
            "meanvalue._tsl_at no longer keeps the bits of the full sum")
