"""Shared helpers for the test suite."""

from fractions import Fraction

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


def random_rational_poly(rng, nvars, max_degree=4, terms=8):
    """Random polynomial with Gaussian-rational coefficients, denominators up to 12."""
    data = {}
    for _ in range(terms):
        exps = tuple(int(e) for e in rng.multinomial(rng.integers(0, max_degree + 1),
                                                     np.ones(nvars) / nvars))
        re = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 13)))
        im = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 13)))
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
