import csv

import numpy as np
import pytest

from mollint.arith import sieve_build
from mollint.zeta import find_zeros


@pytest.fixture(scope="session")
def sieve():
    return sieve_build(20_000)


@pytest.fixture(scope="session")
def zeros_low():
    """Zeros with ordinates in (10, 100)."""
    return find_zeros(10.0, 100.0)


@pytest.fixture(scope="session")
def zeros_1k():
    """Complete zero table covering [1000, 2000] (used by the pair
    correlation, Gonek, and inequality suites)."""
    table = find_zeros(995.0, 2005.0)
    assert table.claimed_complete
    return table


@pytest.fixture()
def short_table(tmp_path):
    """A zero-table file of the 21 zeros in (10, 80) less the 5th-10th,
    so the 15 ordinates miss six zeros between 30.42 and 52.97."""
    g = ["14.134725142", "21.022039639", "25.010857580", "30.424876126",
         "52.970321478", "56.446247697", "59.347044003", "60.831778525",
         "65.112544048", "67.079810529", "69.546401711", "72.067157674",
         "75.704690699", "77.144840069", "79.337375020"]
    path = tmp_path / "short.txt"
    path.write_text("".join(x + "\n" for x in g))
    return path


@pytest.fixture()
def rng():
    return np.random.default_rng(20260823)


# one line per acceptance criterion, echoed after the test summary so the
# verdicts survive output capture
ACCEPTANCE_LINES: list = []


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture()
def csv_writer_bytes():
    """The oracle of dirichlet.export_coeffs: write(A, path) returns the
    bytes csv.writer writes to path for the rows [n, repr(re), repr(im)]
    under the header n,re,im."""
    def write(A, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "re", "im"])
            for n in range(1, A.length_N + 1):
                c = A.coeffs[n]
                writer.writerow([n, repr(float(c.real)), repr(float(c.imag))])
        return path.read_bytes()
    return write
