"""Published reference constants used across the toolkit.

Values tagged "published" are taken verbatim from the literature the
toolkit verifies against; everything the toolkit computes itself is
tagged "computed" or "derived" at the point of use.
"""

import math

# Classical constants (binary64 roundings of the published decimal values).
EULER_GAMMA = 0.5772156649015329
MERTENS_M = 0.26149721284764278

# Headline reference values the computations are compared against.
PUBLISHED_K = 0.3286
PUBLISHED_V1 = 0.9235
PUBLISHED_NU2_BOUND = 0.316
PUBLISHED_NU3_BOUND = 4.36
PUBLISHED_C0 = 7.28
PUBLISHED_CASE_III = 3.25
PUBLISHED_CASE_IV = 4.87
PUBLISHED_FINAL = 9.75e5
PUBLISHED_BEST_C = 2.67
PUBLISHED_EPS = 3.61
PUBLISHED_K2 = 300000

# Mertens bracket literals as printed in the source statement.
MERTENS_BRACKET_LO = 0.2614
MERTENS_BRACKET_HI = 0.8666

# Coarse remainder bound used in the ledger assembly.
MPRIME_COARSE_BOUND = 0.6051

# Published delta values quoted alongside the epsilon table (inputs, not
# reproducible from the printed delta formula; see meanvalue.delta).
PUBLISHED_DELTA = {
    0.99: 1.56e-10,
    0.5: 5.51e-11,
    0.25: 1.92e-11,
    0.05: 1.65e-12,
    0.025: 5.78e-13,
}

# The published epsilon sample table: rows indexed by c1, columns by c.
EPSILON_TABLE_C1 = (1.0, 1.0 / (2.0 * math.pi ** 2), 1e-5, 1e-10, 1e-15, 1e-20)
EPSILON_TABLE_C = (0.99, 0.5, 0.25, 0.05, 0.025)
EPSILON_TABLE_CELLS = (
    (9.15e15, 4.35e16, 2.12e17, 8.32e18, 4.05e19),
    (4.64e14, 2.21e15, 1.08e16, 4.22e17, 2.05e18),
    (9.15e10, 4.35e11, 2.12e12, 8.32e13, 4.05e14),
    (9.15e5, 4.35e6, 2.12e7, 8.32e8, 4.05e9),
    (9.15, 43.5, 212.0, 8320.0, 4.05e4),
    (8.45e-14, 4.35e-4, 2.12e-3, 8.32e-2, 0.405),
)

PROVENANCE_PUBLISHED = "published"
PROVENANCE_DERIVED = "derived"
PROVENANCE_COMPUTED = "computed"
