"""Explicit verification toolkit for prime-counting and character-sum bounds.

The package has five layers:

- ``core``: the rounding model, enclosures, verdicts, reports, shared numerics.
- ``primes``: sieves, the logarithmic integral, and swept prime inequalities.
- ``dickman``: the smooth-number density table and exponent certificates.
- ``meanvalue``: periodic-weight error bounds, the constant ledger, and the
  exponent table reproduction.
- ``mfunc``: multiplicative functions bounded by one, their running means,
  and quadratic character sums.

``cli`` wires the layers into a batch interface with deterministic JSON.
"""

__version__ = "0.1.0"

from .core import Enclosure, VerificationReport, classify
from .errors import (
    DomainError,
    PrecisionError,
    PreconditionError,
    ResourceError,
    UsageError,
    XpvError,
)

__all__ = [
    "__version__",
    "Enclosure",
    "VerificationReport",
    "classify",
    "DomainError",
    "PrecisionError",
    "PreconditionError",
    "ResourceError",
    "UsageError",
    "XpvError",
]
