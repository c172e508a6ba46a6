"""Differential operators: partials, Laplacian, Hessian, bilinear gradient product."""

from fractions import Fraction

import numpy as np
import pytest

import eigensphere.calculus as calculus
from eigensphere.calculus import (
    euler,
    gradient,
    hess_grad_grad,
    hessian,
    hessian_entries,
    identity_one_check,
    kappa,
    laplacian,
    partial,
    r2_coprime,
)
from eigensphere.errors import DimensionMismatch, IndexOutOfRange, ZeroPolynomial
from eigensphere.parsing import parse
from eigensphere.polynomial import GaussianRational, Polynomial, r_squared

from conftest import assert_canonical, random_homogeneous, random_poly, random_rational_poly

I = GaussianRational(0, 1)


def x(i, nvars=4):
    return Polynomial.variable(nvars, i)


def mul_reference(p, q):
    """Product term by term in GaussianRational arithmetic, no common denominator."""
    terms = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            exps = tuple(a + b for a, b in zip(ea, eb))
            terms[exps] = terms.get(exps, GaussianRational()) + ca * cb
    return Polynomial(p.nvars, terms)


def partial_reference(p, i):
    """d_i p term by term in GaussianRational arithmetic, no common denominator."""
    terms = {}
    for exps, coeff in p.items():
        e = exps[i - 1]
        if e:
            dropped = list(exps)
            dropped[i - 1] = e - 1
            terms[tuple(dropped)] = coeff * GaussianRational(Fraction(e))
    return Polynomial(p.nvars, terms)


def kappa_reference(p, q):
    """kappa by its definition: sum_i (d_i p)(d_i q), as in the two references above."""
    total = Polynomial.zero(p.nvars)
    for i in range(1, p.nvars + 1):
        total = total + mul_reference(partial_reference(p, i), partial_reference(q, i))
    return total


class TestPartial:
    def test_monomials(self):
        assert partial(x(1, 2) ** 3, 1) == 3 * x(1, 2) ** 2
        assert partial(x(1, 2) * x(2, 2), 2) == x(1, 2)
        assert partial(Polynomial.constant(2, 5), 1) == Polynomial.zero(2)

    def test_index_bounds(self):
        with pytest.raises(IndexOutOfRange):
            partial(x(1, 2), 3)
        with pytest.raises(IndexOutOfRange):
            partial(x(1, 2), 0)

    def test_schwarz_symmetry(self, rng):
        for _ in range(20):
            p = random_poly(rng, nvars=3, max_degree=4)
            for i in range(1, 4):
                for j in range(i + 1, 4):
                    assert partial(partial(p, i), j) == partial(partial(p, j), i)

    def test_linearity(self, rng):
        p = random_poly(rng)
        q = random_poly(rng)
        assert partial(p + q, 2) == partial(p, 2) + partial(q, 2)

    def test_product_rule(self, rng):
        for _ in range(10):
            p = random_poly(rng, max_degree=2)
            q = random_poly(rng, max_degree=2)
            assert partial(p * q, 1) == partial(p, 1) * q + p * partial(q, 1)

    @pytest.mark.parametrize("nvars", range(1, 7))
    def test_matches_reference(self, nvars):
        rng = np.random.default_rng([nvars, 0xD1FF])
        for _ in range(8):
            p = random_rational_poly(rng, nvars)
            for i in range(1, nvars + 1):
                got = partial(p, i)
                assert got == partial_reference(p, i)
                assert_canonical(got)
        # a variable p lacks: every term drops, and the result is stored empty
        lacking = Polynomial(nvars + 1, {exps + (0,): c for exps, c in p.items()})
        dropped = partial(lacking, nvars + 1)
        assert dict(dropped.items()) == {}
        assert_canonical(dropped)


class TestGradient:
    def test_quadric(self):
        g = gradient(x(1) ** 2 - x(2) ** 2 + x(3) ** 2 - x(4) ** 2)
        assert list(g) == [2 * x(1), -2 * x(2), 2 * x(3), -2 * x(4)]

    def test_radius_squared(self):
        g = gradient(r_squared(5))
        assert list(g) == [2 * Polynomial.variable(5, i) for i in range(1, 6)]

    def test_constant(self):
        g = gradient(Polynomial.constant(3, 7))
        assert all(c.is_zero() for c in g)

    @pytest.mark.parametrize("nvars", [1, 2, 3, 5, 8])
    def test_one_pass_matches_partial(self, nvars):
        # Gaussian-rational coefficients, so the common factor of D matters,
        # and a last variable that no term has
        rng = np.random.default_rng([nvars, 0x6AD])
        for _ in range(8):
            p = random_rational_poly(rng, nvars)
            lacking = Polynomial(nvars + 1, {exps + (0,): c for exps, c in p.items()})
            for q in (p, lacking):
                g = gradient(q)
                assert len(g) == q.nvars
                for i, got in enumerate(g, start=1):
                    assert got == partial(q, i)
                    assert_canonical(got)


class TestLaplacian:
    def test_harmonic_quadric(self):
        assert laplacian(x(1, 2) ** 2 - x(2, 2) ** 2).is_zero()

    def test_r2(self):
        for n in (2, 3, 5):
            assert laplacian(r_squared(n)) == Polynomial.constant(n, 2 * n)

    def test_radial_power_law(self):
        # Delta r^(2k) = 2k(N+2k-2) r^(2k-2), checked symbolically
        for nvars in range(2, 7):
            r2 = r_squared(nvars)
            for k in range(1, 6):
                lhs = laplacian(r2**k)
                coeff = 2 * k * (nvars + 2 * k - 2)
                assert lhs == coeff * r2 ** (k - 1)

    @pytest.mark.parametrize("nvars", range(1, 7))
    def test_matches_reference(self, nvars):
        rng = np.random.default_rng([nvars, 0x1A9])
        for _ in range(8):
            p = random_rational_poly(rng, nvars)
            expected = Polynomial.sum(nvars, (partial_reference(partial_reference(p, i), i)
                                              for i in range(1, nvars + 1)))
            got = laplacian(p)
            assert got == expected
            assert_canonical(got)

    def test_trace_of_hessian(self, rng):
        for _ in range(15):
            p = random_poly(rng, nvars=3, max_degree=4)
            h = hessian(p)
            assert laplacian(p) == sum((h[i][i] for i in range(3)), Polynomial.zero(3))


class TestHessian:
    def test_diagonal_quadric(self):
        h = hessian(x(1) ** 2 - x(2) ** 2 + x(3) ** 2 - x(4) ** 2)
        signs = [2, -2, 2, -2]
        for i in range(4):
            for j in range(4):
                expected = signs[i] if i == j else 0
                assert h[i][j] == Polynomial.constant(4, expected)

    def test_off_diagonal(self):
        h = hessian(2 * x(1) * x(2) + 2 * x(3) * x(4))
        assert h[0][1] == Polynomial.constant(4, 2)
        assert h[2][3] == Polynomial.constant(4, 2)
        assert h[0][2].is_zero()
        assert h[0][0].is_zero()

    def test_exact_symmetry(self, rng):
        for _ in range(10):
            p = random_poly(rng, nvars=3, max_degree=4)
            h = hessian(p)
            for i in range(3):
                for j in range(3):
                    assert h[i][j] == h[j][i]

    @staticmethod
    def reference(p):
        return tuple(tuple(partial_reference(partial_reference(p, i), j)
                           for j in range(1, p.nvars + 1)) for i in range(1, p.nvars + 1))

    @staticmethod
    def partial_calls(monkeypatch, p):
        calls = []

        def counted(p, i):
            calls.append(i)
            return partial(p, i)

        monkeypatch.setattr(calculus, "partial", counted)
        assert hessian(p) == TestHessian.reference(p)
        return len(calls)

    def test_zero_rows_call_no_partial(self, monkeypatch):
        assert self.partial_calls(monkeypatch, Polynomial.variable(40, 1)) <= 2 * 40

    def test_partials_only_of_occurring_variables(self, monkeypatch):
        # N first partials, then d_j of each only for the x_j that occur in it
        assert self.partial_calls(monkeypatch, r_squared(40)) <= 2 * 40

    def test_matches_reference_with_missing_variables(self, rng):
        # x2 and x4 never appear, so their rows and columns are zero
        for _ in range(10):
            p = random_poly(rng, nvars=3, max_degree=4)
            spread = Polynomial(5, {(a, 0, b, 0, c): coeff for (a, b, c), coeff in p.items()})
            assert hessian(spread) == self.reference(spread)

    def test_entries_are_the_nonzero_ones_in_row_major_order(self, rng):
        for _ in range(10):
            p = random_poly(rng, nvars=3, max_degree=4)
            spread = Polynomial(5, {(a, 0, b, c, 0): coeff for (a, b, c), coeff in p.items()})
            entries = hessian_entries(gradient(spread))
            dense = self.reference(spread)
            nonzero = [(i, j) for i in range(5) for j in range(5) if not dense[i][j].is_zero()]
            assert list(entries) == nonzero
            assert all(entries[key] == dense[key[0]][key[1]] for key in nonzero)


class TestKappa:
    def test_isotropic_linear(self):
        p = x(1, 2) + Polynomial.constant(2, I) * x(2, 2)
        assert kappa(p, p).is_zero()

    def test_isotropic_quadric(self):
        f = parse("z1^2 + z2^2", 4)
        assert kappa(f, f).is_zero()

    def test_simple_values(self):
        assert kappa(x(1, 2), x(2, 2)).is_zero()
        assert kappa(x(1, 2) ** 2, x(1, 2) ** 2) == 4 * x(1, 2) ** 2

    def test_bilinear_not_hermitian(self):
        # conjugation would make kappa(z1, z1) = 2; the bilinear product gives 0
        z1 = parse("z1", 2)
        assert kappa(z1, z1).is_zero()
        assert kappa(z1, z1.conjugate()) == Polynomial.constant(2, 2)

    def test_symmetry_and_bilinearity(self, rng):
        for _ in range(10):
            p = random_poly(rng)
            q = random_poly(rng)
            s = random_poly(rng)
            assert kappa(p, q) == kappa(q, p)
            assert kappa(p + s, q) == kappa(p, q) + kappa(s, q)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kappa(x(1, 2), x(1, 3))

    @pytest.mark.parametrize("nvars", range(1, 7))
    def test_matches_reference(self, nvars):
        rng = np.random.default_rng([nvars, 0xCAFE])
        for _ in range(8):
            p = random_rational_poly(rng, nvars)
            copy = Polynomial(nvars, dict(p.items()))
            q = random_rational_poly(rng, nvars)
            expected_square = kappa_reference(p, p)
            for left, right, expected in (
                (p, p, expected_square),
                (p, copy, expected_square),
                (p, q, kappa_reference(p, q)),
            ):
                got = kappa(left, right)
                assert got == expected
                assert_canonical(got)

    @pytest.mark.parametrize("nvars, left, right", [
        (4, "(z1 + 2*z2)^3 + i*z1*z2 - 1/3", "z1^2*z2 - 3*z2"),  # holomorphic
        (4, "conj((z1 + 2*z2)^3 + i*z1*z2)", "conj(z1^2*z2) - 3/2"),  # antiholomorphic
        (5, "z1^3*conj(z2)^2 + x5", "conj(z1)*z2^2 + 2*x5^2"),  # mixed, odd N
        (4, "z1^2*conj(z2) + conj(z1)^2 + z1*conj(z1)", "(z1 + conj(z2))^2"),  # mixed
        (6, "x1^2*x3 - 2*x1*x2*x4 + 1/3*x5^3", "x2*x3 + x1^2 - x6"),  # real
        (5, "x1^2 - 2/7*x2*x5 + x5^3", "x1*x4 - 1/2*x3^2"),  # real, odd N
        (4, "x1^2 - x2^2 + x3*x4", "z1^2 + i*conj(z2)"),  # real x complex
        (5, "x1*x5^2 - x3", "z1*conj(z2) + i*x5^2"),  # real x complex, odd N
    ], ids=["holomorphic", "antiholomorphic", "mixed-odd", "mixed", "real", "real-odd",
            "real-complex", "real-complex-odd"])
    def test_operand_kinds_match_reference(self, nvars, left, right):
        p, q = parse(left, nvars), parse(right, nvars)
        for a, b in ((p, q), (q, p)):
            copy = Polynomial(nvars, dict(a.items()))
            square = kappa_reference(a, a)
            for got, expected in ((kappa(a, a), square), (kappa(a, copy), square),
                                  (kappa(a, b), kappa_reference(a, b))):
                assert got == expected
                assert_canonical(got)

    def test_cancellation_is_canonical(self):
        # kappa(z1, z1) cancels every coefficient; kappa(u, v) of z1^2 too
        z1 = parse("z1", 2)
        assert dict(kappa(z1, z1).items()) == {}
        assert_canonical(kappa(z1, z1))
        u, v = parse("z1^2", 2).real_imag_parts()
        assert dict(kappa(u, v).items()) == {}
        assert_canonical(kappa(u, v))


class TestProduct:
    @pytest.mark.parametrize("nvars", range(1, 7))
    def test_matches_reference(self, nvars):
        rng = np.random.default_rng([nvars, 0xBEEF])
        for _ in range(8):
            p = random_rational_poly(rng, nvars)
            copy = Polynomial(nvars, dict(p.items()))
            q = random_rational_poly(rng, nvars)
            expected_square = mul_reference(p, p)
            for left, right, expected in (
                (p, p, expected_square),
                (p, copy, expected_square),
                (p, q, mul_reference(p, q)),
            ):
                got = left * right
                assert got == expected
                assert_canonical(got)

    def test_square_cross_terms_cancel(self):
        # 2*(x1^2)(2*x2^2) + (2i*x1*x2)^2 = 0: the square has no x1^2*x2^2 term
        p = parse("x1^2 + 2*x2^2 + 2*i*x1*x2", 2)
        square = p * p
        assert square.coefficient((2, 2)).is_zero()
        assert (2, 2) not in dict(square.items())
        assert square == p * Polynomial(2, dict(p.items())) == mul_reference(p, p)
        assert_canonical(square)

    def test_cancellation_is_canonical(self):
        # the two x1*x2 products cancel inside the loop and must not be stored
        product = parse("x1 + i*x2", 2) * parse("x1 - i*x2", 2)
        assert dict(product.items()).keys() == {(2, 0), (0, 2)}
        assert_canonical(product)


class TestHessGradGrad:
    def test_golden_quadric(self):
        p = x(1) ** 2 - x(2) ** 2 + x(3) ** 2 - x(4) ** 2
        assert hess_grad_grad(p) == 8 * p

    def test_hyperbolic_pair(self):
        p = x(1) * x(3) - x(2) * x(4)
        assert hess_grad_grad(p) == 2 * p

    def test_linear_vanishes(self):
        p = 3 * x(1) - x(4)
        assert hess_grad_grad(p).is_zero()

    def test_definition_agreement(self, rng):
        # trace form matches the explicit double sum
        for _ in range(5):
            p = random_poly(rng, nvars=3, max_degree=3)
            g = gradient(p)
            h = hessian(p)
            total = Polynomial.zero(3)
            for i in range(3):
                for j in range(3):
                    total = total + h[i][j] * g[i] * g[j]
            assert hess_grad_grad(p) == total


class TestEuler:
    def test_homogeneous_scaling(self, rng):
        for k in range(5):
            p = random_homogeneous(rng, 3, k)
            if p.is_zero():
                continue
            assert euler(p) == k * p

    def test_r2(self):
        assert euler(r_squared(3)) == 2 * r_squared(3)

    def test_mixed_degrees(self):
        p = x(1, 2) + x(2, 2) ** 2
        assert euler(p) == x(1, 2) + 2 * x(2, 2) ** 2

    def test_euler_via_kappa_pairing(self, rng):
        # kappa(r^2/2, p) recovers the Euler operator
        half_r2 = Fraction(1, 2) * r_squared(3)
        for k in (1, 2, 3):
            p = random_homogeneous(rng, 3, k)
            if p.is_zero():
                continue
            assert kappa(half_r2, p) == euler(p) == k * p


class TestR2Coprime:
    def test_harmonic_is_coprime(self):
        assert r2_coprime(x(1, 2) ** 2 - x(2, 2) ** 2)

    def test_multiple_is_not(self):
        assert not r2_coprime(r_squared(3) * Polynomial.variable(3, 1))

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            r2_coprime(Polynomial.zero(3))

    def test_random_harmonics_coprime(self, rng):
        # harmonic polynomials built from powers of x1 + i*x2
        base = parse("z1", 4)
        for k in range(1, 7):
            u, v = (base**k).real_imag_parts()
            a = int(rng.integers(-4, 5))
            b = int(rng.integers(-4, 5))
            combo = a * u + b * v
            if combo.is_zero():
                continue
            assert laplacian(combo).is_zero()
            assert r2_coprime(combo)


class TestProductRuleIdentity:
    def test_specific_pairs(self):
        one = Polynomial.variable(2, 1)
        assert identity_one_check(one, one)
        assert identity_one_check(r_squared(3), Polynomial.variable(3, 1))

    def test_random_pairs(self, rng):
        for _ in range(25):
            p = random_poly(rng, nvars=3, max_degree=4)
            q = random_poly(rng, nvars=3, max_degree=4)
            assert identity_one_check(p, q)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            identity_one_check(x(1, 2), x(1, 3))
