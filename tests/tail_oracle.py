"""The large-range tail series summed over all of its terms: an oracle
for ``xpv.meanvalue._tsl_at``, which sums only the prefix of them that
can reach the bits of this sum."""

import math

import numpy as np

from xpv.meanvalue import DECAY_SCALE, TWO_PI


def tsl_full(eps: float, k2: int, tau: float, two_pi_ks: np.ndarray,
             buf: np.ndarray) -> float:
    """``_tsl_at`` with np.sum over every term k = 0..k2; ``two_pi_ks``
    holds 2 pi k for those k and ``buf`` is scratch of the same size."""
    base = (1.0 + eps) * math.log(tau + 3.0) ** 2
    # terms exp(-sqrt(base + 2 pi k / (DECAY_SCALE tau))), k = 0..k2, in buf
    np.divide(two_pi_ks, DECAY_SCALE * tau, out=buf)
    np.add(base, buf, out=buf)
    np.sqrt(buf, out=buf)
    np.negative(buf, out=buf)
    np.exp(buf, out=buf)
    last = math.exp(-math.sqrt(base + TWO_PI * k2 / (DECAY_SCALE * tau)))
    tail_factor = (
        math.sqrt(DECAY_SCALE * tau)
        * math.sqrt(TWO_PI * k2 + tau * (1.0 + eps) * DECAY_SCALE * math.log(tau + 3.0) ** 2)
        + DECAY_SCALE * tau
    ) / math.pi
    return float(np.sum(buf)) + last * tail_factor
