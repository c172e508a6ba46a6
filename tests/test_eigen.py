"""Eigenfunction verification with independent finite-difference oracles."""

from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigensphere import eigen
from eigensphere.calculus import kappa, laplacian, r2_coprime
from eigensphere.eigen import verify_eigenfamily, verify_eigenfunction
from eigensphere.errors import (
    DimensionMismatch,
    MixedDegrees,
    NotAnEigenfunction,
    SphereDimensionTooSmall,
)
from eigensphere.minimality import lawson_polynomial
from eigensphere.parsing import parse, render
from eigensphere.polynomial import GaussianRational, Polynomial, complex_variable, r_squared

from conftest import random_homogeneous
from oracles import laplace_beltrami_fd, tangential_square_fd, unit_sphere_points


def harmonic_combo(rng, nvars, degree):
    """Random harmonic homogeneous polynomial from planar power blocks."""
    total = Polynomial.zero(nvars)
    for pair_start in range(1, nvars, 2):
        block = parse(f"z{(pair_start + 1) // 2}", nvars) ** degree
        u, v = block.real_imag_parts()
        total = total + int(rng.integers(-3, 4)) * u + int(rng.integers(-3, 4)) * v
    return total


class TestVerifyEigenfunction:
    def test_linear_isotropic(self):
        p = parse("z1", 3)
        report = verify_eigenfunction(p, 2)
        assert report.is_eigen
        assert report.k == 1
        assert report.lam == -2
        assert report.mu == -1

    def test_quadric_sum(self):
        p = parse("z1^2 + z2^2", 4)
        report = verify_eigenfunction(p, 3)
        assert report.is_eigen
        assert (report.k, report.lam, report.mu) == (2, -8, -4)

    def test_r2_fails_harmonicity(self):
        report = verify_eigenfunction(r_squared(4), 3)
        assert not report.is_eigen
        assert report.failure.condition == "laplacian_P"
        assert report.failure.residual == Polynomial.constant(4, 8)

    def test_real_harmonic_fails_square(self):
        report = verify_eigenfunction(Polynomial.variable(3, 1), 2)
        assert not report.is_eigen
        assert report.failure.condition == "laplacian_P2"

    def test_inhomogeneous_fails(self):
        p = Polynomial.variable(3, 1) + Polynomial.variable(3, 2) ** 2
        report = verify_eigenfunction(p, 2)
        assert not report.is_eigen
        assert report.failure.condition == "homogeneity"

    def test_dimension_guards(self):
        with pytest.raises(SphereDimensionTooSmall):
            verify_eigenfunction(parse("z1", 2), 1)
        with pytest.raises(DimensionMismatch):
            verify_eigenfunction(parse("z1", 3), 3)

    def test_constant_is_trivial_eigen(self):
        report = verify_eigenfunction(Polynomial.constant(3, 5), 2)
        assert report.is_eigen
        assert (report.k, report.lam, report.mu) == (0, 0, 0)

    @pytest.mark.parametrize("poly, nvars", [("z1^2 + z2^2", 4), ("x1", 3)])
    def test_product_rule_self_check_fires(self, monkeypatch, poly, nvars):
        # kappa(P, P) and laplacian(P*P)/2 are computed along independent
        # paths; on harmonic P a kappa that disagrees must stop the verdict
        true_kappa = eigen.kappa
        monkeypatch.setattr(
            eigen, "kappa", lambda p, q: true_kappa(p, q) + Polynomial.variable(p.nvars, 1))
        with pytest.raises(AssertionError, match="product-rule"):
            verify_eigenfunction(parse(poly, nvars), nvars - 1)

    def test_json_shape(self):
        payload = verify_eigenfunction(parse("z1^2+z2^2", 4), 3).to_json()
        assert payload == {
            "is_eigen": True,
            "k": 2,
            "n": 3,
            "lambda": -8,
            "mu": -4,
            "failure": None,
        }


class TestTwoFormEquivalence:
    def test_harmonic_square_iff_kappa(self, rng):
        # for harmonic P:  laplacian(P^2) = 2*kappa(P, P) exactly
        for nvars, degree in ((4, 2), (4, 3), (6, 2)):
            for _ in range(6):
                p = harmonic_combo(rng, nvars, degree)
                if p.is_zero():
                    continue
                assert laplacian(p).is_zero()
                assert laplacian(p * p) == 2 * kappa(p, p)
                assert laplacian(p * p).is_zero() == kappa(p, p).is_zero()


class TestFiniteDifferenceOracles:
    def test_eigenvalue_fd(self, rng):
        cases = [
            (parse("z1", 3), 2),
            (parse("z1^2 + z2^2", 4), 3),
            (parse("z1^3 + z2^3", 5), 4),
        ]
        for p, n in cases:
            report = verify_eigenfunction(p, n)
            assert report.is_eigen
            lam = float(report.lam)
            for x in unit_sphere_points(n + 1, 20, rng):
                fd = laplace_beltrami_fd(p, x)
                expected = lam * p.evaluate(x)
                scale = max(abs(expected), 1e-3)
                assert abs(fd - expected) <= 1e-5 * scale

    def test_mu_fd(self, rng):
        # tangential bilinear square equals mu * P^2 on the sphere
        p = parse("z1^2 + z2^2", 4)
        report = verify_eigenfunction(p, 3)
        mu = float(report.mu)
        for x in unit_sphere_points(4, 20, rng):
            fd = tangential_square_fd(p, x)
            expected = mu * p.evaluate(x) ** 2
            assert abs(fd - expected) <= 1e-6 * max(abs(expected), 1e-3)

    def test_fd_rejects_off_sphere_point(self):
        with pytest.raises(ValueError):
            laplace_beltrami_fd(parse("z1", 3), [2.0, 0.0, 0.0])

    def test_non_eigen_control(self, rng):
        # r^2-multiples restrict with the WRONG eigenvalue; the oracle must see it
        p = r_squared(4) * Polynomial.variable(4, 1)
        x = unit_sphere_points(4, 1, rng)[0]
        fd = laplace_beltrami_fd(p, x)
        wrong = float(-3 * (3 + 3 - 1)) * p.evaluate(x)
        right = float(-1 * (1 + 3 - 1)) * p.evaluate(x)
        assert abs(fd - right) <= 1e-5 * max(abs(right), 1e-3)
        assert abs(fd - wrong) > 1e-2


class TestEigenfamily:
    def test_quadratic_family(self):
        members = [parse("z1*z2", 4), parse("z1^2", 4), parse("z2^2", 4)]
        report = verify_eigenfamily(members, 3)
        assert report.is_family
        assert (report.k, report.lam, report.mu) == (2, -8, -4)

    def test_singleton(self):
        report = verify_eigenfamily([parse("z1", 3)], 2)
        assert report.is_family
        assert report.k == 1

    def test_conjugate_pair_rejected(self):
        members = [parse("z1", 3), parse("conj(z1)", 3)]
        report = verify_eigenfamily(members, 2)
        assert not report.is_family
        assert report.failing_pair == (0, 1)
        assert report.pair_residual == Polynomial.constant(3, 2)

    def test_mixed_degrees(self):
        with pytest.raises(MixedDegrees):
            verify_eigenfamily([parse("z1", 4), parse("z1^2", 4)], 3)

    def test_non_member_fails_first(self):
        report = verify_eigenfamily([parse("z1", 3), Polynomial.variable(3, 1)], 2)
        assert not report.is_family
        assert report.failing_pair is None


@st.composite
def eigen_inputs(draw):
    """(P, n): a Lawson polynomial on S^3, or a holomorphic one in z1..z_p on S^(2p-1)."""
    if draw(st.booleans()):
        n, m = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda e: sum(e)))
        return lawson_polynomial(n, m), 3
    pairs = draw(st.integers(2, 3))
    degree = draw(st.integers(1, 2))
    monomials = st.lists(st.integers(1, pairs), min_size=degree, max_size=degree)
    coefficients = st.builds(GaussianRational, st.integers(-3, 3), st.integers(-3, 3))
    P = Polynomial.zero(2 * pairs)
    for slots, c in draw(st.lists(st.tuples(monomials, coefficients), min_size=1, max_size=3)):
        term = Polynomial.constant(2 * pairs, c)
        for j in slots:
            term = term * complex_variable(2 * pairs, j)
        P = P + term
    hypothesis.assume(not P.is_zero())
    return P, 2 * pairs - 1


@hypothesis.settings(max_examples=25, derandomize=True, database=None, deadline=None)
@hypothesis.given(eigen_inputs(), st.integers(0, 2**32 - 1))
def test_powers_and_square_eigenvalue(case, seed):
    # P^m is an eigenfunction of degree m*k, mu = lambda(P^2)/2 - lambda(P),
    # and the oracle sees lambda(P^2) on P^2
    P, n = case
    P2 = P**2
    report = verify_eigenfunction(P, n)
    square = verify_eigenfunction(P2, n)
    assert report.is_eigen
    for m, power in ((2, square), (3, verify_eigenfunction(P2 * P, n))):
        assert power.is_eigen and power.k == m * report.k
    assert report.mu == square.lam / 2 - report.lam
    points = unit_sphere_points(n + 1, 5, np.random.default_rng(seed))
    expected = [float(square.lam) * P2.evaluate(x) for x in points]
    # the stencil's truncation error scales with the size of P^2 on the sphere
    scale = max(np.abs(expected))
    for x, value in zip(points, expected):
        assert abs(laplace_beltrami_fd(P2, x) - value) <= 1e-5 * scale


class TestRadialCoprimality:
    def test_eigen_implies_coprime(self):
        for text, n in (("z1", 2), ("z1^2 + z2^2", 3), ("z1^3 + z2^3", 4)):
            p = parse(text, n + 1)
            assert verify_eigenfunction(p, n).is_eigen
            assert r2_coprime(p)
            assert r2_coprime(p * p)
