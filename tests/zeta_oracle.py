"""Sum over k of the prime zeta function, k by k: an independent oracle
for ``xpv.primes.nu2``, which sums the same constant prime by prime."""

import math

import numpy as np

from xpv.core import Enclosure
from xpv.errors import DomainError


def prime_zeta(k: int, table) -> Enclosure:
    """Enclosure of P(k) = sum over all primes of p**(-k).

    Finite part over the table, tail bounded by N**(1-k)/(k-1) with
    N = table.limit.  For p > 2**(1080/k), p**-k < 2**-1080 is far below
    half the least subnormal, so pow gives +0: those entries are written
    as zeros, skipping libm's slow underflow path, in a full-length array
    that keeps np.sum's pairwise order.
    """
    if not isinstance(k, (int, np.integer)) or k < 2:
        raise DomainError(f"prime_zeta needs integer k >= 2, got {k!r}")
    k = int(k)
    ps = table.primes.astype(np.float64)
    powers = np.zeros_like(ps)
    cut = table.prime_pi(2.0 ** (1080 / k))
    np.power(ps[:cut], -float(k), out=powers[:cut])
    partial = float(np.sum(powers))
    tail = float(table.limit) ** (1 - k) / (k - 1)
    pad = 4e-15 * partial + 5e-324 * ps.size
    return Enclosure(partial - pad, partial + tail + pad)


def nu2_by_k(table) -> Enclosure:
    """Enclosure of sum_{k>=2} P(k)/k from 63 prime_zeta passes.

    Truncated at k = 64; the k-tail uses P(k) <= 2**(2-k), which gives a
    geometric bound below 1e-19.
    """
    encs = [(prime_zeta(k, table), k) for k in range(2, 65)]
    k_tail = (4.0 / 65.0) * 2.0 ** -64 * 2.0
    return Enclosure(math.fsum(e.lo / k for e, k in encs),
                     math.fsum(e.hi / k for e, k in encs) + k_tail)
