"""Shared helpers for the test suite."""

import numpy as np
import pytest

from eigensphere.polynomial import GaussianRational, Polynomial
from eigensphere.selftest import random_polynomial as random_poly  # noqa: F401


def random_homogeneous(rng, nvars, degree, terms=5, complex_coeffs=True):
    data = {}
    for _ in range(terms):
        exps = tuple(int(e) for e in rng.multinomial(degree, np.ones(nvars) / nvars))
        re = int(rng.integers(-5, 6))
        im = int(rng.integers(-5, 6)) if complex_coeffs else 0
        data[exps] = data.get(exps, GaussianRational()) + GaussianRational(re, im)
    return Polynomial(nvars, data)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# One line per acceptance criterion, echoed after the run summary so the
# verdicts stay visible under captured output.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
