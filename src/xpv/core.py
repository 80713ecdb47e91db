"""Shared numeric plumbing.

The rounding model, enclosures, the margin verdict and the point-check
entry it decides, the one sweep reducer (state chunks into mergeable
summaries) and its reports, the chunked absolute grids, adaptive
quadrature, and the small root-finding and line-search helpers.
Compensated prefix sums: ``primes._compensated_prefix``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PrecisionError, UsageError

# The rounding model every error pad's proof cites.  +, -, *, / and sqrt
# round to nearest, within u = 2^-53 relative; U is u with 1% to spare for
# a pad's own rounding, and n U >= gamma_n while n U <= 0.0099.  numpy's log,
# log1p, exp and pow, and libm's acos, sin, log, log1p and expm1, err by at
# most 1 ulp: within 2^-52 = 2u relative, below ULP.  A pad that allows
# more ulps stays valid, only conservative.
U = 1.01 * 2.0 ** -53
ULP = 2.3e-16


def gamma_n(n):
    """n U/(1 - n U), the relative error bound of n chained roundings (Higham,
    Accuracy and Stability of Numerical Algorithms, SIAM 2002, section 3.1)."""
    return n * U / (1.0 - n * U)


def outward(end, toward, err=None):
    """An enclosure end one float further toward ``toward`` (-inf or inf),
    for the rounding of the step that made it; where its error ``err`` is
    given and 0, the end is exact and stays.  Elementwise; floats stay floats."""
    out = np.nextafter(end, toward)
    if err is not None:
        out = np.where(err > 0.0, out, end)
    return out if np.ndim(out) else float(out)


# The verdict rule's safety factor (``margins_verdict``): a margin within
# eta*|scale| of 0 is indeterminate, so float noise never flips a verdict.
DEFAULT_ETA = 1e-9

# States per chunk of every sweep.  A chunk's float temporaries are then at
# most 128 KiB, which glibc serves again from the heap; at 2^16 states they
# are 256-512 KiB, mapped and faulted in anew on every chunk.
_SWEEP_CHUNK = 1 << 14


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
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    __contains__ = contains


# The three verdicts, mildest first
PASS, INDETERMINATE, FAIL = _SEVERITY = ("pass", "indeterminate", "fail")


def classify(margin: float, scale: float, eta: float = DEFAULT_ETA) -> str:
    """Three-way verdict for a signed margin (RHS - LHS at the worst
    point): ``margins_verdict`` on this one point."""
    return margins_verdict([margin], [scale], eta)


def point_check(margins, scales, **fields) -> dict:
    """A point check's report entry: ``fields``, the ``margins_verdict`` of
    its sides' signed margins (RHS - LHS) and scales at DEFAULT_ETA, and
    the margin and scale of the side that decides it, the most severe side
    first and then the least margin, so classify(margin, scale) == verdict."""
    verdict = margins_verdict(margins, scales)
    margin, scale = min((m, s) for m, s in zip(margins, scales) if classify(m, s) == verdict)
    return {**fields, "verdict": verdict, "margin": margin, "scale": scale}


def margins_verdict(margins, scales, eta: float = DEFAULT_ETA) -> str:
    """The verdict rule, eta >= 0.  A point passes when its margin (RHS -
    LHS) is >= eta*|scale| or exactly 0.0, fails when it is <=
    -eta*|scale| and not 0.0, and is indeterminate in between.  A sweep
    fails if any point fails, else is indeterminate if any point is, else
    passes.

    The exact-zero case is deliberate: when an inequality is attained with
    equality at a stated boundary point, both sides are computed by the
    identical float expression and the margin comes out as a true 0.0.
    That is a structural equality, not rounding noise.
    """
    margins = np.asarray(margins)
    # a threshold past the float range reads inf
    with np.errstate(over="ignore"):
        thresholds = eta * np.abs(np.asarray(scales))
    if ((margins <= -thresholds) & (margins != 0.0)).any():
        return FAIL
    return PASS if ((margins == 0.0) | (margins >= thresholds)).all() else INDETERMINATE


@dataclass
class VerificationReport:
    """Outcome of sweeping one named inequality over a range.

    worst_margin is RHS - LHS at its minimum over all points, evaluated or
    covered by a proven floor (``sweep``), signed, so negative means the
    inequality failed somewhere; evaluation_count counts both.
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

    @classmethod
    def covered(cls, count: int) -> SweepSummary:
        """``count`` states a floor proves pass, above the worst point."""
        return cls(count, math.inf, math.inf, PASS, 0, math.inf, -math.inf)

    def clears(self, lo, top, eta: float = DEFAULT_ETA):
        """Whether states with every margin >= lo and every |scale| <= top,
        merged after these, may be covered: lo > 0, lo > the worst so far
        and lo >= eta top (eta >= 0, fl(eta |s|) monotone) prove no negative
        margin, no new worst or tie, and a pass; a new summary field extends
        these tests.  Elementwise over arrays of lo and top."""
        return (0.0 < lo) & (self.worst_margin < lo) & (eta * top <= lo)

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
                                  self.arg_min, self.verdict == PASS, self.count,
                                  self.verdict, notes)


def spans(lo: int, hi: int, width: int = 1):
    """lo..hi-1 as (a, b) runs a..b-1 of ``_SWEEP_CHUNK`` states, ``width`` per index."""
    step = _SWEEP_CHUNK // width
    for a in range(lo, hi, step):
        yield a, min(a + step, hi)


def runs(lo: int, hi: int, width: int = 1):
    """``spans`` as ``np.arange`` chunks."""
    return (np.arange(a, b) for a, b in spans(lo, hi, width))


def sweep(chunks, margins, eta: float = DEFAULT_ETA, floor=None) -> SweepSummary:
    """Summarize the non-empty (xs, state) ``chunks`` a state builder
    yields; ``margins(xs, state)`` returns (margins, scales) of one.

    Each chunk is evaluated, or else covered by a proven floor, its states
    still counted: past the first, ``floor(xs, state)`` may give (lo, top),
    lo <= every margin and top >= every |scale| there, and the chunk is
    covered when the summary so far ``clears`` them.

    Margins are elementwise and the merge is exact, so the summary is the
    whole sweep's; only one chunk's states and temporaries are live.
    """
    summary = None
    for xs, state in chunks:
        bound = floor(xs, state) if summary and floor else None
        part = (SweepSummary.covered(np.broadcast(xs, state).size)
                if bound and summary.clears(*bound, eta)
                else SweepSummary.of(xs, *margins(xs, state), eta))
        summary = part if summary is None else summary.merge(part)
    return summary


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-12):
    """Adaptive Simpson quadrature with a conservative error bound.

    Returns (value, err_bound).  The bound accumulates the standard
    |S_fine - S_coarse|/15 estimate for every accepted panel, inflated by
    a factor of 4 so the reported bound stays on the safe side of the
    usual Richardson model.  A panel split 48 times raises PrecisionError.
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
        if depth >= 48:
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


def bisect_root(g, lo: float, hi: float, tol: float = 1e-12):
    """Bisection with a sign-change bracket, 200 steps at most.  Returns (lo, hi)."""
    glo = g(lo)
    ghi = g(hi)
    if glo == 0.0:
        return lo, lo
    if ghi == 0.0:
        return hi, hi
    if (glo > 0) == (ghi > 0):
        raise UsageError(f"bisect_root: no sign change on [{lo}, {hi}]")
    for _ in range(200):
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


def golden_max(f, lo: float, hi: float):
    """Golden-section maximization on [lo, hi], 80 steps.  Returns (x, f(x))."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(80):
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
