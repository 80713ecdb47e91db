import pytest

from xpv.dickman import build_rho_table
from xpv.meanvalue import PeriodicF, assemble_ledger
from xpv.primes import sieve_primes

# One line per acceptance criterion, filled in by test_acceptance and
# echoed after the run so the verdicts are visible even when the
# individual tests pass.
ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_lines():
    return ACCEPTANCE_LINES


@pytest.fixture(scope="session")
def prime_table():
    return sieve_primes(10 ** 6)


@pytest.fixture(scope="session")
def rho_table():
    # one table up to 200 serves both the [1,130] checks and the
    # diagnostic range; each unit interval's series depends only on the
    # intervals before it, so the entries to 130 are a table to 130's
    return build_rho_table(200.0)


@pytest.fixture(scope="session")
def periodic_f():
    return PeriodicF.build()


@pytest.fixture(scope="session")
def ledger(prime_table):
    return assemble_ledger(7.28, prime_table)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
