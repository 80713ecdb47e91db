import math

import numpy as np
import pytest

from xpv import core
from xpv.core import (
    Enclosure,
    SweepSummary,
    VerificationReport,
    adaptive_simpson,
    anchored_grid,
    bisect_root,
    classify,
    gamma_n,
    geometric_grid,
    golden_max,
    grid,
    margins_verdict,
    outward,
    runs,
    sweep,
)
from xpv.errors import PrecisionError, UsageError


def test_enclosure_basics():
    e = Enclosure(1.0, 2.0)
    assert e.width == 1.0
    assert e.mid == 1.5
    assert e.contains(1.0) and e.contains(2.0) and 1.7 in e
    assert not e.contains(2.0000001)
    with pytest.raises(PrecisionError):
        Enclosure(2.0, 1.0)


def test_enclosure_degenerate():
    e = Enclosure(3.0, 3.0)
    assert e.width == 0.0 and e.contains(3.0)


def test_classify_thresholds():
    assert classify(1e-3, 1.0) == "pass"
    assert classify(-1e-3, 1.0) == "fail"
    assert classify(1e-12, 1.0) == "indeterminate"
    assert classify(-1e-12, 1.0) == "indeterminate"
    # boundary equality is structural, not numerical noise
    assert classify(0.0, 0.0) == "pass"
    assert classify(0.0, 1e9) == "pass"


def test_margins_verdict_matches_scalar():
    rng = np.random.default_rng(11)
    margins = rng.normal(scale=1e-6, size=200)
    scales = np.abs(rng.normal(scale=1.0, size=200)) + 0.1
    vec = margins_verdict(margins, scales)
    scalars = [classify(m, s) for m, s in zip(margins, scales)]
    if "fail" in scalars:
        assert vec == "fail"
    elif "indeterminate" in scalars:
        assert vec == "indeterminate"
    else:
        assert vec == "pass"


def test_margins_verdict_exact_zero_passes():
    assert margins_verdict([0.0, 1.0], [0.0, 1.0]) == "pass"
    assert margins_verdict([0.0, -1.0], [0.0, 1.0]) == "fail"


def test_margins_verdict_threshold_past_the_float_range():
    # eta * |scale| = 1e600 reads inf without a warning, as classify's does
    for margin, want in ((1e300, "indeterminate"), (-1e300, "indeterminate"), (0.0, "pass")):
        assert classify(margin, 1e300, eta=1e300) == want
        assert margins_verdict([margin], [1e300], eta=1e300) == want


def test_unit_roundoff_and_gamma():
    assert core.U == 1.01 * 2.0 ** -53 and 2.0 ** -52 < core.ULP
    assert gamma_n(0) == 0.0 and gamma_n(1000) == 1000 * core.U / (1.0 - 1000 * core.U)
    # n U covers the exact gamma_n = n u/(1 - n u), u = 2^-53, while n U <= 0.0099
    u = 2.0 ** -53
    assert all(n * core.U >= n * u / (1.0 - n * u) for n in (1, 130, 10 ** 6, 10 ** 13))


def test_outward_moves_one_float_and_keeps_exact_ends():
    lo, hi = outward(1.0, -math.inf), outward(1.0, math.inf)
    assert type(lo) is float and lo == math.nextafter(1.0, 0.0)
    assert hi == math.nextafter(1.0, 2.0)
    # an end with zero error stays exact, and -0.0 keeps its sign
    assert outward(0.0, -math.inf, 0.0) == 0.0
    assert math.copysign(1.0, outward(-0.0, math.inf, 0.0)) == -1.0
    assert outward(0.0, -math.inf, 1e-300) == -5e-324
    ends = outward(np.array([1.0, 2.0]), -np.inf, np.array([0.5, 0.0]))
    assert ends.tolist() == [math.nextafter(1.0, 0.0), 2.0]


def test_adaptive_simpson_polynomial_exact():
    val, err = adaptive_simpson(lambda t: t ** 3, 0.0, 2.0, 1e-12)
    assert val == pytest.approx(4.0, abs=1e-12)
    assert err >= 0.0


def test_adaptive_simpson_exp():
    val, err = adaptive_simpson(math.exp, 0.0, 1.0, 1e-13)
    assert abs(val - (math.e - 1.0)) <= 1e-12
    assert abs(val - (math.e - 1.0)) <= err + 1e-13


def test_bisect_root_bracket():
    lo, hi = bisect_root(lambda t: t * t - 2.0, 0.0, 2.0)
    assert lo <= math.sqrt(2.0) <= hi
    assert hi - lo <= 1e-11
    with pytest.raises(UsageError):
        bisect_root(lambda t: t * t + 1.0, -1.0, 1.0)


def test_golden_max_parabola():
    x, v = golden_max(lambda t: -(t - 0.3) ** 2, 0.0, 1.0)
    assert abs(x - 0.3) < 1e-9
    assert v <= 0.0


def _points(chunks):
    """The sorted, flattened points of grid chunks."""
    return np.sort(np.concatenate([xs for xs, _ in chunks]))


def test_geometric_grid_endpoints_and_absolute_anchoring():
    g = _points(geometric_grid(2.0, 1000.0))
    assert g[0] == 2.0 and g[-1] == 1000.0
    assert np.all(np.diff(g) > 0)
    # anchored to absolute powers of two: a shifted range shares nodes
    h = _points(geometric_grid(3.0, 1000.0))
    shared = np.intersect1d(g[1:-1], h[1:-1])
    assert shared.size > 100


def test_anchored_grid_clips_to_the_range():
    g = _points(anchored_grid(0.3, 1.0, 0.25))
    assert g.tolist() == [0.3, 0.5, 0.75, 1.0]
    # a range starting just above a grid point leaves that point out
    lo = float(np.nextafter(0.5, 1.0))
    assert _points(anchored_grid(lo, 1.0, 0.25)).tolist() == [lo, 0.75, 1.0]
    hi = float(np.nextafter(1.0, 0.0))
    assert _points(anchored_grid(0.5, hi, 0.25)).tolist() == [0.5, 0.75, hi]
    # on-grid endpoints appear once, and a point range is one point
    assert _points(anchored_grid(0.5, 1.0, 0.25)).tolist() == [0.5, 0.75, 1.0]
    assert _points(anchored_grid(0.6, 0.6, 0.25)).tolist() == [0.6]
    # anchored to multiples of the step: a shifted range shares nodes
    shared = np.intersect1d(_points(anchored_grid(6.0, 10.0, 2.0 ** -10)),
                            _points(anchored_grid(7.3, 12.0, 2.0 ** -10)))
    assert shared.size == 2765


def test_grid_chunks_and_endpoint_rule(monkeypatch):
    # lo > hi gives no states, even one ulp apart on the grid
    assert list(anchored_grid(1.0, 0.5, 0.25)) == []
    assert list(geometric_grid(8.0, float(np.nextafter(8.0, 0.0)))) == []
    # lo == hi: a grid point is one grid state, any other x one endpoint
    ((xs, j),) = anchored_grid(0.75, 0.75, 0.25)
    assert xs.tolist() == [0.75] and j.tolist() == [3]
    ((xs, j),) = geometric_grid(3.0, 3.0)
    assert xs.tolist() == [3.0] and j is None
    # an endpoint one ulp off a grid point is its own state, off the grid
    lo, hi = float(np.nextafter(4.0, 0.0)), float(np.nextafter(8.0, 16.0))
    *runs_, (ends, none) = geometric_grid(lo, hi, per_octave=4)
    assert none is None and ends.tolist() == [lo, hi]
    assert np.concatenate([xs for xs, _ in runs_]).tolist() == [
        4.0, 2 ** 2.25, 2 ** 2.5, 2 ** 2.75, 8.0]
    # runs of _SWEEP_CHUNK candidate j, each x = point(j); the tolerance
    # makes j = 2 a candidate for lo one ulp above 0.5, and it is dropped
    monkeypatch.setattr(core, "_SWEEP_CHUNK", 3)
    lo = float(np.nextafter(0.5, 1.0))
    chunks = list(grid(lo, 2.0, lambda j: j * 0.25, lambda x: x / 0.25))
    assert [xs.tolist() for xs, _ in chunks] == [
        [0.75, 1.0], [1.25, 1.5, 1.75], [2.0], [lo]]
    assert [None if j is None else j.tolist() for _, j in chunks] == [
        [3, 4], [5, 6, 7], [8], None]
    assert [k.tolist() for k in runs(5, 12)] == [[5, 6, 7], [8, 9, 10], [11]]
    assert list(runs(5, 5)) == []


def test_report_dict_shape():
    r = VerificationReport(
        check_id="demo", x_lo=1.0, x_hi=2.0, worst_margin=0.5,
        arg_min=1.5, passed=True, evaluation_count=3, verdict="pass",
    )
    d = r.as_dict()
    assert d["range"] == [1.0, 2.0]
    assert d["pass"] is True
    assert d["verdict"] == "pass"


def _sweep_report(x_lo, x_hi, xs, margins, notes):
    # chunks of _SWEEP_CHUNK states, each carrying its state indices
    xs, margins = np.array(xs), np.array(margins)
    chunks = ((xs[k], k) for k in runs(0, xs.size))
    return sweep(chunks, lambda x, k: (margins[k], np.ones(k.size))).report(
        "demo", x_lo, x_hi, notes)


def test_sweep_report_reduces_unsorted_states(monkeypatch):
    for chunk in (core._SWEEP_CHUNK, 1, 2):
        monkeypatch.setattr(core, "_SWEEP_CHUNK", chunk)
        r = _sweep_report(1.5, 5.0, [2.0, 3.0, 5.0, 4.0, 1.5],
                          [0.5, -0.2, -0.1, -0.2, -0.3], ["given"])
        assert r.worst_margin == -0.3 and r.arg_min == 1.5
        assert r.verdict == "fail" and not r.passed
        assert r.evaluation_count == 5
        assert r.notes == [
            "given",
            "negative margins at 4 of 5 evaluation points; "
            "first at x = 1.5, last at x = 5",
        ]
        # ties on the margin go to the smaller x; no negative margin, no note
        tie = _sweep_report(1.0, 3.0, [3.0, 1.0], [0.25, 0.25], [])
        assert tie.arg_min == 1.0 and tie.verdict == "pass" and tie.notes == []
        # a tie among unsorted xs goes to the smallest x of the tie
        r = _sweep_report(1.0, 9.0, [7.0, 3.0, 9.0, 2.0, 5.0, 1.0],
                          [-0.5, 0.1, -0.5, 0.2, -0.5, 0.4], [])
        assert r.worst_margin == -0.5 and r.arg_min == 5.0, chunk
        # 0.0 and -0.0 tie: the smaller x wins and keeps its sign
        for margins, sign in (([-0.0, 0.0], 1.0), ([0.0, -0.0], -1.0)):
            zero = _sweep_report(2.0, 3.0, [3.0, 2.0], margins, [])
            assert zero.arg_min == 2.0 and zero.worst_margin == 0.0
            assert math.copysign(1.0, zero.worst_margin) == sign
            assert zero.verdict == "pass" and zero.notes == []


def _summary(xs, margins):
    return SweepSummary.of(np.array(xs), np.array(margins), np.ones(len(xs)))


def test_summary_merge_tie_goes_to_the_smaller_x():
    early = _summary([5.0, 6.0], [0.25, 0.5])
    late = _summary([3.0, 9.0], [0.25, 0.75])
    for merged in (early.merge(late), late.merge(early)):
        assert (merged.worst_margin, merged.arg_min, merged.count) == (0.25, 3.0, 4)
    # at the same x the earlier state wins, and a 0.0/-0.0 tie keeps its sign
    for first, second in ((-0.0, 0.0), (0.0, -0.0)):
        merged = _summary([2.0], [first]).merge(_summary([2.0], [second]))
        assert merged.worst_margin == 0.0 and merged.arg_min == 2.0
        assert math.copysign(1.0, merged.worst_margin) == math.copysign(1.0, first)


def test_summary_merge_verdict_and_negatives():
    fail = _summary([4.0, 2.0], [-1.0, 1.0])
    unsure = _summary([3.0], [-1e-12])
    ok = _summary([1.0], [1.0])
    assert (fail.verdict, unsure.verdict, ok.verdict) == ("fail", "indeterminate", "pass")
    assert unsure.merge(fail).verdict == fail.merge(unsure).verdict == "fail"
    assert ok.merge(unsure).verdict == unsure.merge(ok).verdict == "indeterminate"
    assert ok.merge(ok).verdict == "pass"
    merged = ok.merge(fail).merge(unsure)
    assert (merged.negative_count, merged.first_negative_x,
            merged.last_negative_x) == (2, 3.0, 4.0)
    assert merged.report("c", 1.0, 4.0, ["n"]).notes == [
        "n", "negative margins at 2 of 4 evaluation points; "
        "first at x = 3, last at x = 4"]


def test_summary_merge_equals_the_whole_at_every_split():
    # few distinct margins and x, so ties across the split are common
    rng = np.random.default_rng(11)
    for _ in range(20):
        xs = rng.choice([1.0, 2.0, 3.0], 12)
        margins = rng.choice([-1.0, -0.0, 0.0, 1e-12, 1.0], 12)
        whole = repr(_summary(xs, margins))
        for cut in range(1, 12):
            parts = _summary(xs[:cut], margins[:cut]).merge(
                _summary(xs[cut:], margins[cut:]))
            assert repr(parts) == whole, (xs, margins, cut)
