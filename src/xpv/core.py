"""Shared numeric plumbing.

Enclosures, margin verdicts, the one sweep reducer (state chunks into
mergeable summaries) and its reports, the chunked absolute grids,
adaptive quadrature, and the small root-finding and line-search helpers.
Compensated prefix sums: ``primes._compensated_prefix``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PrecisionError, UsageError

# Safety factor for inequality verdicts: a margin must clear eta*|scale|
# before it counts as a pass, and must undershoot -eta*|scale| before it
# counts as a fail.  Anything in between is reported as indeterminate so
# that float noise can never flip a verdict.
DEFAULT_ETA = 1e-9

_SWEEP_CHUNK = 1 << 16  # states per chunk of every sweep


@dataclass(frozen=True)
class Enclosure:
    """A closed interval [lo, hi] certified to contain a real quantity.

    Quadrature and truncation errors are always pushed to the safe side,
    so the true value lies inside by construction of each producer.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise PrecisionError(f"empty enclosure: lo={self.lo!r} > hi={self.hi!r}")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def __contains__(self, value: float) -> bool:
        return self.contains(value)


def classify(margin: float, scale: float, eta: float = DEFAULT_ETA) -> str:
    """Three-way verdict for a signed margin (RHS - LHS at the worst point).

    pass           margin >= eta*|scale|, or margin is exactly 0.0
    fail           margin <= -eta*|scale|
    indeterminate  anything in between

    The exact-zero case is deliberate: when an inequality is attained with
    equality at a stated boundary point, both sides are computed by the
    identical float expression and the margin comes out as a true 0.0.
    That is a structural equality, not rounding noise.
    """
    threshold = eta * abs(scale)
    if margin == 0.0 or margin >= threshold:
        return "pass"
    if margin <= -threshold:
        return "fail"
    return "indeterminate"


def margins_verdict(margins, scales, eta: float = DEFAULT_ETA) -> str:
    """Vectorized verdict over a sweep: fail if any point fails, else
    indeterminate if any point is too close to call, else pass."""
    margins = np.asarray(margins)
    thresholds = eta * np.abs(np.asarray(scales))
    ok = (margins == 0.0) | (margins >= thresholds)
    bad = (margins <= -thresholds) & (margins != 0.0)
    if bad.any():
        return "fail"
    if not ok.all():
        return "indeterminate"
    return "pass"


@dataclass
class VerificationReport:
    """Outcome of sweeping one named inequality over a range.

    worst_margin is RHS - LHS at its minimum over all evaluated points,
    signed, so negative means the inequality failed somewhere.
    """

    check_id: str
    x_lo: float
    x_hi: float
    worst_margin: float
    arg_min: float
    passed: bool
    evaluation_count: int
    verdict: str
    notes: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "range": [self.x_lo, self.x_hi],
            "worst_margin": self.worst_margin,
            "arg_min": self.arg_min,
            "pass": self.passed,
            "evaluation_count": self.evaluation_count,
            "verdict": self.verdict,
            "notes": list(self.notes),
        }


_SEVERITY = ("pass", "indeterminate", "fail")


@dataclass(frozen=True)
class SweepSummary:
    """The reduction of a run of consecutive sweep states.

    Summaries of adjacent runs merge, earlier run first, into the
    summary of their union, so a sweep can be reduced chunk by chunk
    and still give the report of the whole.  The worst point is the
    smallest margin, ties going to the smaller x and then to the
    earlier state; 0.0 and -0.0 tie, and the winner keeps its sign.
    """

    count: int
    worst_margin: float
    arg_min: float
    verdict: str
    negative_count: int
    first_negative_x: float  # inf when there is none
    last_negative_x: float  # -inf when there is none

    @classmethod
    def of(cls, xs, margins, scales, eta: float = DEFAULT_ETA) -> SweepSummary:
        """Summarize one run of states; the xs need not be sorted.  Margins
        (k, n) over n xs hold k states per x, x by x; scales broadcast."""
        xs = np.broadcast_to(xs, margins.shape)
        # ties in C order: index r n + j is state k j + r of the n xs
        ties = np.flatnonzero(margins == margins.min())
        n = margins.shape[-1]
        ties_x = xs.flat[ties]
        ties = ties[ties_x == ties_x.min()]
        worst = int(ties[np.argmin(ties % n * (margins.size // n) + ties // n)])
        neg_xs = xs[margins < 0.0]
        return cls(int(margins.size), float(margins.flat[worst]), float(xs.flat[worst]),
                   margins_verdict(margins, scales, eta), int(neg_xs.size),
                   float(neg_xs.min(initial=math.inf)), float(neg_xs.max(initial=-math.inf)))

    def merge(self, later: SweepSummary) -> SweepSummary:
        """The summary of these states followed by ``later``'s."""
        worst = self if (self.worst_margin, self.arg_min) <= (
            later.worst_margin, later.arg_min) else later
        return SweepSummary(
            self.count + later.count, worst.worst_margin, worst.arg_min,
            max(self.verdict, later.verdict, key=_SEVERITY.index),
            self.negative_count + later.negative_count,
            min(self.first_negative_x, later.first_negative_x),
            max(self.last_negative_x, later.last_negative_x))

    def report(self, check_id, x_lo, x_hi, notes) -> VerificationReport:
        """Render the report, noting the negative margins' count and x range."""
        notes = list(notes)
        if self.negative_count:
            notes.append(
                f"negative margins at {self.negative_count} of {self.count} "
                f"evaluation points; first at x = {self.first_negative_x:.9g}, "
                f"last at x = {self.last_negative_x:.9g}"
            )
        return VerificationReport(check_id, float(x_lo), float(x_hi), self.worst_margin,
                                  self.arg_min, self.verdict == "pass", self.count,
                                  self.verdict, notes)


def runs(lo: int, hi: int, width: int = 1):
    """lo..hi-1 as ``np.arange`` chunks of ``_SWEEP_CHUNK`` states, ``width`` per index."""
    step = _SWEEP_CHUNK // width
    for a in range(lo, hi, step):
        yield np.arange(a, min(a + step, hi))


def sweep(chunks, margins, eta: float = DEFAULT_ETA) -> SweepSummary:
    """Summarize the non-empty (xs, state) ``chunks`` a state builder
    yields; ``margins(xs, state)`` returns (margins, scales) of one.

    Margins are elementwise and the merge is exact, so the summary is the
    whole sweep's; only one chunk's states and temporaries are live.
    """
    return functools.reduce(SweepSummary.merge, (
        SweepSummary.of(xs, *margins(xs, state), eta) for xs, state in chunks))


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-12,
                     max_depth: int = 48):
    """Adaptive Simpson quadrature with a conservative error bound.

    Returns (value, err_bound).  The bound accumulates the standard
    |S_fine - S_coarse|/15 estimate for every accepted panel, inflated by
    a factor of 4 so the reported bound stays on the safe side of the
    usual Richardson model.
    """

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, tol_i, depth):
        x1 = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + x1)
        xr = 0.5 * (x1 + x2)
        fl = f(xl)
        fr = f(xr)
        left = simpson(x0, x1, f0, fl, f1)
        right = simpson(x1, x2, f1, fr, f2)
        delta = left + right - whole
        if depth >= max_depth:
            raise PrecisionError("adaptive_simpson: max depth exceeded")
        if abs(delta) <= 15.0 * tol_i:
            return left + right + delta / 15.0, abs(delta) / 15.0 * 4.0
        lv, le = recurse(x0, x1, f0, fl, f1, left, tol_i / 2.0, depth + 1)
        rv, re_ = recurse(x1, x2, f1, fr, f2, right, tol_i / 2.0, depth + 1)
        return lv + rv, le + re_

    if a == b:
        return 0.0, 0.0
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


def bisect_root(g, lo: float, hi: float, tol: float = 1e-12,
                max_iter: int = 200):
    """Bisection with a sign-change bracket.  Returns the final (lo, hi)."""
    glo = g(lo)
    ghi = g(hi)
    if glo == 0.0:
        return lo, lo
    if ghi == 0.0:
        return hi, hi
    if (glo > 0) == (ghi > 0):
        raise UsageError(f"bisect_root: no sign change on [{lo}, {hi}]")
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            return mid, mid
        if (gm > 0) == (glo > 0):
            lo, glo = mid, gm
        else:
            hi = mid
    return lo, hi


def golden_max(f, lo: float, hi: float, iters: int = 80):
    """Golden-section maximization on [lo, hi].  Returns (x, f(x))."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
    x = 0.5 * (a + b)
    return x, f(x)


def grid(lo: float, hi: float, point, coord):
    """Sweep chunks of the absolute grid x = point(j), j integer: (xs, j)
    for the grid points in [lo, hi] in runs of ``_SWEEP_CHUNK`` j, then
    (xs, None) with the endpoints off the grid; nothing when lo > hi.

    ``point`` is increasing and ``coord`` its inverse, which only picks
    the candidate j (1e-12 tolerance): exact comparisons decide what lies
    in the range and which endpoint is on the grid.
    """
    ends = dict.fromkeys((lo, hi) if lo <= hi else ())
    for js in runs(math.ceil(coord(lo) - 1e-12), math.floor(coord(hi) + 1e-12) + 1):
        xs = point(js)
        keep = (xs >= lo) & (xs <= hi)
        if keep.any():
            xs, js = xs[keep], js[keep]
            ends.pop(xs[0], None)
            ends.pop(xs[-1], None)
            yield xs, js
    if ends:
        yield np.array(list(ends), dtype=float), None


def geometric_grid(lo: float, hi: float, per_octave: int = 128):
    """``grid`` chunks of the geometric grid 2**(j/per_octave) on [lo, hi]."""

    def point(j):
        with np.errstate(over="ignore"):  # a j past the float range gives inf > hi
            return np.exp2(j / per_octave)

    return grid(lo, hi, point, lambda x: per_octave * math.log2(x))


def anchored_grid(lo: float, hi: float, step: float):
    """``grid`` chunks of the grid j*step on [lo, hi]."""
    return grid(lo, hi, lambda j: j * step, lambda x: x / step)
