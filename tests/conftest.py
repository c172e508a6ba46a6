"""Shared helpers for the test suite."""

from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from eigensphere.polynomial import FIELD_BITS, MAX_DEGREE, GaussianRational, Polynomial
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


def assert_canonical(r):
    """The storage invariant: Gaussian-integer pairs over one positive denominator D,
    no (0, 0) pair, gcd(D, every re, every im) == 1, and D == 1 for the zero polynomial.
    Each pair is keyed by an int packing N + 1 fields of FIELD_BITS bits: a top field
    at most MAX_DEGREE that equals the sum of the N exponent fields below it."""
    pairs, den = r._pairs, r._den
    for key in pairs:
        assert isinstance(key, int) and key >= 0
        fields = [(key >> (FIELD_BITS * k)) & MAX_DEGREE for k in range(r.nvars)]
        assert key >> (FIELD_BITS * r.nvars) == sum(fields) <= MAX_DEGREE
    assert isinstance(den, int) and den >= 1
    assert all(isinstance(v, int) for pair in pairs.values() for v in pair)
    assert all(pair != (0, 0) for pair in pairs.values())
    assert gcd(den, *(v for pair in pairs.values() for v in pair)) == 1
    assert all(isinstance(c, GaussianRational) and c for _exps, c in r.items())
    assert all(isinstance(c.re, Fraction) and isinstance(c.im, Fraction)
               for _exps, c in r.items())
    assert Polynomial(r.nvars, dict(r.items())) == r


def plant_draws(monkeypatch, draw):
    """Make row i of every sampling stream the vector draw(i) wherever that is
    not None: each generator that default_rng builds from now on counts the
    rows of its standard normal draws from 0 across calls."""
    default_rng = np.random.default_rng

    class Planted:
        def __init__(self, seed):
            self._generator = default_rng(seed)
            self._rows = 0

        def standard_normal(self, size):
            drawn = self._generator.standard_normal(size)
            for row in range(len(drawn)):
                vector = draw(self._rows + row)
                if vector is not None:
                    drawn[row] = vector
            self._rows += len(drawn)
            return drawn

    monkeypatch.setattr(np.random, "default_rng", Planted)


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
