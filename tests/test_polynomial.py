"""Exact polynomial arithmetic: ring axioms, homogeneity, division, evaluation."""

from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigensphere.calculus import kappa, partial
from eigensphere.errors import (
    BudgetExceeded,
    DimensionMismatch,
    DivisionByZeroPolynomial,
    IndexOutOfRange,
    ZeroPolynomial,
)
from eigensphere.parsing import parse
from eigensphere.polynomial import (
    FIELD_BITS, MAX_DEGREE, GaussianRational, Polynomial, _pack, _unpack, r_squared,
)

from conftest import assert_canonical, random_poly, random_rational_poly


def x(i, nvars=3):
    return Polynomial.variable(nvars, i)


class TestGaussianRational:
    def test_arithmetic(self):
        a = GaussianRational(Fraction(1, 2), Fraction(3))
        b = GaussianRational(Fraction(-2), Fraction(1, 3))
        assert a + b == GaussianRational(Fraction(-3, 2), Fraction(10, 3))
        assert a * b == GaussianRational(Fraction(-2), Fraction(-35, 6))
        assert (a / b) * b == a

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational(1) / GaussianRational()

    def test_conjugate_and_complex(self):
        g = GaussianRational(Fraction(3, 4), Fraction(-2))
        assert g.conjugate() == GaussianRational(Fraction(3, 4), Fraction(2))
        assert complex(g) == 0.75 - 2j

    def test_coercion(self):
        assert GaussianRational.of(3) == GaussianRational(Fraction(3))
        assert GaussianRational.of(Fraction(1, 7)).re == Fraction(1, 7)


class TestConstruction:
    def test_canonical_form_drops_zeros(self):
        p = Polynomial(2, {(1, 0): 1, (0, 1): 0})
        assert p.num_terms() == 1

    def test_wrong_exponent_length(self):
        with pytest.raises(DimensionMismatch):
            Polynomial(3, {(1, 0): 1})

    def test_variable_bounds(self):
        with pytest.raises(IndexOutOfRange):
            Polynomial.variable(3, 4)
        with pytest.raises(IndexOutOfRange):
            Polynomial.variable(3, 0)

    def test_immutability(self):
        p = x(1)
        with pytest.raises(AttributeError):
            p.nvars = 5


class TestCanonicalForm:
    """Equal polynomials reached by different routes are == and hash alike.

    Storage is Gaussian-integer pairs over one denominator, reduced to
    lowest terms, so equality and hashing compare the stored form as is.
    """

    @staticmethod
    def assert_same(p, q):
        assert p == q
        assert hash(p) == hash(q)

    def test_parsed(self):
        half, sixth = Fraction(1, 2), Fraction(1, 6)
        built = Polynomial(3, {
            (1, 0, 0): GaussianRational(half),
            (0, 2, 0): GaussianRational(Fraction(2, 6), Fraction(3, 6)),
            (0, 0, 0): GaussianRational(0, -sixth),
        })
        self.assert_same(parse("1/2*x1 + (2/6+3/6*i)*x2^2 - 1/6*i", 3), built)

    def test_exact_divide_roundtrip(self, rng):
        for nvars in (2, 3):
            for _ in range(10):
                p = random_rational_poly(rng, nvars, max_degree=3, terms=5)
                q = random_rational_poly(rng, nvars, max_degree=2, terms=3)
                if q.is_zero():
                    continue
                self.assert_same((p * q).exact_divide(q), p)

    def test_sum_cancelling_to_zero(self, rng):
        p = random_rational_poly(rng, 3)
        zero = p + (-p)
        self.assert_same(zero, Polynomial.zero(3))
        self.assert_same(p - p, Polynomial.zero(3))
        self.assert_same(Fraction(1, 2) * p + Fraction(1, 2) * p, p)

    @pytest.mark.parametrize("k", [2, 3, 6, 35])
    def test_scalar_roundtrip(self, rng, k):
        p = random_rational_poly(rng, 3)
        self.assert_same(p * Fraction(1, k) * k, p)

    def test_double_conjugate(self, rng):
        p = random_rational_poly(rng, 4)
        self.assert_same(p.conjugate().conjugate(), p)

    def test_zero_has_denominator_one(self, rng):
        p = random_rational_poly(rng, 2)
        z1 = parse("z1", 2)
        for zero in (Polynomial.zero(2), p - p, p * 0, p * Fraction(1, 3) - p * Fraction(1, 3),
                     Polynomial(2, {(1, 0): Fraction(0, 7)}), kappa(z1, z1)):
            assert zero.is_zero()
            assert zero._den == 1
            self.assert_same(zero, Polynomial.zero(2))

    def test_items_roundtrip(self, rng):
        for nvars in (1, 3, 5):
            p = random_rational_poly(rng, nvars)
            self.assert_same(Polynomial(nvars, dict(p.items())), p)


class TestPackedKeys:
    """Monomials are stored under packed int keys: their order, the round trip
    through exponent tuples, and the total-degree limit MAX_DEGREE."""

    @hypothesis.settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @hypothesis.given(st.integers(1, 6), st.integers(0, 2**32 - 1),
                      st.sampled_from([1, 2**20, MAX_DEGREE // 4]))
    def test_order_and_roundtrip(self, nvars, seed, stride):
        # stride spreads exponents over the fields; degrees stay <= 4 * stride <= MAX_DEGREE
        small = random_rational_poly(np.random.default_rng(seed), nvars)
        p = Polynomial(nvars, {tuple(stride * e for e in exps): c for exps, c in small.items()})
        terms = list(p.items())
        grlex = [(sum(exps), exps) for exps, _c in terms]
        assert grlex == sorted(set(grlex), reverse=True)
        assert Polynomial(nvars, dict(terms)) == p
        assert all(p.coefficient(exps) == c for exps, c in terms)
        if not terms:
            return
        assert p.leading_term() == terms[0]
        degrees = {degree for degree, _exps in grlex}
        assert p.degree() == max(degrees)
        assert p.homogeneity() == (min(degrees) if len(degrees) == 1 else None)

    def test_fields_at_their_top_value(self):
        top = MAX_DEGREE
        middle = Polynomial.monomial(3, (0, top, 0), 5)
        assert middle.degree() == middle.homogeneity() == top
        assert middle.leading_term() == ((0, top, 0), GaussianRational(5))
        assert partial(middle, 2) == Polynomial.monomial(3, (0, top - 1, 0), 5 * top)
        assert partial(middle, 1).is_zero() and partial(middle, 3).is_zero()
        assert partial(Polynomial.monomial(3, (1, 0, top - 1), 1), 3) == \
            Polynomial.monomial(3, (1, 0, top - 2), top - 1)

        divisor = x(1) + x(2)
        quotient = (Polynomial.monomial(3, (top - 1, 0, 0)) + Polynomial.monomial(3, (0, top - 1, 0), 3)
                    + Polynomial.monomial(3, (0, 0, top - 1), 2))
        product = divisor * quotient
        assert product.degree() == top
        assert product.exact_divide(divisor) == quotient
        # the remainder ends at x3^top, whose x1 field is below the divisor's
        assert (product + Polynomial.monomial(3, (0, 0, top))).exact_divide(divisor) is None
        assert middle.exact_divide(x(1)) is None
        assert middle.exact_divide(Polynomial.monomial(3, (0, top, 0), 2)) == \
            Polynomial.constant(3, Fraction(5, 2))

    @pytest.mark.parametrize("nvars", [1, 6, 1000])
    def test_unpack_roundtrip(self, nvars):
        # one field at MAX_DEGREE (the most a key can hold) in each position
        # that matters, and a spread of small fields; checked against a shift
        # per field
        def shifted(key):
            return tuple((key >> (FIELD_BITS * (nvars - i))) & MAX_DEGREE
                         for i in range(1, nvars + 1))

        rng = np.random.default_rng(nvars)
        cases = [tuple(int(e) for e in rng.integers(0, 4, nvars)), (0,) * nvars]
        for position in sorted({0, nvars // 2, nvars - 1}):
            exps = [0] * nvars
            exps[position] = MAX_DEGREE
            cases.append(tuple(exps))
        for exps in cases:
            key = _pack(exps)
            assert _unpack(key, nvars) == shifted(key) == exps

    def test_real_float_items_match_items(self):
        rng = np.random.default_rng(13)
        third = Fraction(10**400 + 1, 3 * 10**100)  # a numerator past float range
        polys = [random_rational_poly(rng, 4) for _ in range(20)]
        polys.append(Polynomial(2, {(1, 0): third, (0, 2): GaussianRational(1, third)}))
        for p in polys:
            assert list(p.real_float_items()) == [(e, float(c.re)) for e, c in p.items()]
        with pytest.raises(OverflowError):
            list(Polynomial(2, {(1, 0): 10**400}).real_float_items())

    def test_variables(self):
        assert Polynomial.zero(3).variables() == Polynomial.constant(3, 5).variables() == ()
        assert parse("x3^2*x1 - x1 + 7", 4).variables() == (1, 3)
        assert Polynomial.monomial(3, (0, MAX_DEGREE, 0)).variables() == (2,)
        assert r_squared(1000).variables() == tuple(range(1, 1001))

    def test_degree_limit(self):
        top = MAX_DEGREE
        assert Polynomial(1, {(top,): 1}).degree() == top
        with pytest.raises(BudgetExceeded):
            Polynomial(2, {(top, 1): 1})
        assert (x(1) ** (top - 1) * x(2)).leading_term()[0] == (top - 1, 1, 0)
        with pytest.raises(BudgetExceeded):
            x(1) ** top * x(2)
        with pytest.raises(BudgetExceeded):
            x(1) ** (top + 1)
        with pytest.raises(BudgetExceeded):
            parse("x1^4294967296", 3)

    def test_kappa_degree_limit(self):
        half = 2**31
        a, b = x(1) ** half, x(1) ** (half + 1)
        # deg a + deg b - 2 == MAX_DEGREE
        assert kappa(a, b) == Polynomial.monomial(3, (MAX_DEGREE, 0, 0), half * (half + 1))
        assert kappa(a, a) == Polynomial.monomial(3, (MAX_DEGREE - 1, 0, 0), half * half)
        with pytest.raises(BudgetExceeded):
            kappa(b, b)
        with pytest.raises(BudgetExceeded):
            kappa(b, b * 1)

    def test_kappa_checks_the_products_it_forms(self):
        # deg p + deg q - 2 is over MAX_DEGREE, but d_i p d_i q == 0 for every i:
        # no product is formed, so the exact zero comes back
        power = 2**31 + 1
        p, q = x(1, 4) ** power, x(3, 4) ** power
        assert p.degree() + q.degree() - 2 > MAX_DEGREE
        zero = kappa(p, q)
        assert zero.is_zero()
        assert_canonical(zero)


class TestRingOperations:
    def test_ring_axioms_random(self, rng):
        for _ in range(30):
            a = random_poly(rng)
            b = random_poly(rng)
            c = random_poly(rng)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_scalar_coercion(self):
        p = x(1)
        assert 2 * p == p + p
        assert p - 1 == p + (-1)
        assert Fraction(1, 2) * (p + p) == p

    def test_zero_factor_gives_canonical_zero(self):
        p = parse("1/3*x1^2 + i*x2", 3)
        zero = Polynomial.zero(3)
        for product in (p * zero, zero * p, zero * zero):
            assert product.is_zero()
            assert_canonical(product)

    def test_pow(self):
        p = x(1) + x(2)
        assert p**0 == Polynomial.constant(3, 1)
        assert p**3 == p * p * p
        with pytest.raises(ValueError):
            p**-1

    def test_cross_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            x(1, 3) + x(1, 4)


class TestSum:
    """`Polynomial.sum` is the n-ary form of `+`, and every sum goes through it."""

    @hypothesis.settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @hypothesis.given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.integers(0, 6),
                      st.booleans())
    def test_matches_left_fold_and_coefficient_sums(self, nvars, seed, count, cancel):
        rng = np.random.default_rng(seed)
        polys = [random_rational_poly(rng, nvars, max_degree=3, terms=int(rng.integers(0, 6)))
                 for _ in range(count)]
        if cancel:
            # every operand's negation joins the list, so the sum cancels to zero
            polys += [-p for p in polys]
        total = Polynomial.sum(nvars, polys)
        assert_canonical(total)
        fold = Polynomial.zero(nvars)
        for p in polys:
            fold = fold + p
        assert total == fold
        # the reference adds GaussianRational coefficients, with no Polynomial sum
        reference = {}
        for p in polys:
            for exps, c in p.items():
                reference[exps] = reference.get(exps, GaussianRational()) + c
        assert dict(total.items()) == {e: c for e, c in reference.items() if c}
        if cancel:
            assert total.is_zero()

    def test_empty_is_canonical_zero(self):
        zero = Polynomial.sum(3, [])
        assert zero.is_zero() and zero._den == 1
        assert zero == Polynomial.zero(3)

    def test_mixed_denominators(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        total = Polynomial.sum(2, [half * x(1, 2), third * x(1, 2), x(2, 2) * Fraction(1, 6)])
        assert_canonical(total)
        assert total._den == 6
        assert total == Fraction(5, 6) * x(1, 2) + Fraction(1, 6) * x(2, 2)
        # the common factor of the lcm and the numerators is divided out
        assert Polynomial.sum(2, [half * x(1, 2), half * x(1, 2)]) == x(1, 2)
        assert Polynomial.sum(2, [half * x(1, 2), half * x(1, 2)])._den == 1

    def test_mixed_spaces_rejected(self):
        with pytest.raises(DimensionMismatch):
            Polynomial.sum(3, [x(1, 3), x(1, 4)])
        with pytest.raises(DimensionMismatch):
            Polynomial.sum(4, [x(1, 3)])


class TestStructure:
    def test_degree_and_homogeneity(self):
        p = x(1) ** 2 + x(2) * x(3)
        assert p.degree() == 2
        assert p.homogeneity() == 2
        q = x(1) + x(2) ** 2
        assert q.homogeneity() is None
        with pytest.raises(ZeroPolynomial):
            Polynomial.zero(3).degree()
        with pytest.raises(ZeroPolynomial):
            Polynomial.zero(3).homogeneity()

    def test_real_imag_parts(self):
        i = GaussianRational(0, 1)
        p = (x(1) + i * x(2)) ** 2
        u, v = p.real_imag_parts()
        assert u == x(1) ** 2 - x(2) ** 2
        assert v == 2 * x(1) * x(2)
        assert u + Polynomial.constant(3, i) * v == p

    def test_real_imag_recombine_random(self, rng):
        for _ in range(20):
            p = random_poly(rng)
            u, v = p.real_imag_parts()
            assert u.is_real() and v.is_real()
            i = Polynomial.constant(3, GaussianRational(0, 1))
            assert u + i * v == p

    def test_conjugate(self):
        i = GaussianRational(0, 1)
        p = x(1) + Polynomial.constant(3, i) * x(2)
        assert p.conjugate() == x(1) - Polynomial.constant(3, i) * x(2)
        assert p.conjugate().conjugate() == p

    def test_r_squared(self):
        r2 = r_squared(4)
        assert r2 == sum((x(i, 4) ** 2 for i in range(1, 5)), Polynomial.zero(4))

    def test_coefficient_norm(self, rng):
        # (3 - 2i)x1 + x2/2 = ((6 - 4i)x1 + x2)/2
        assert parse("(3 - 2*i)*x1 + 1/2*x2", 3).coefficient_norm() == (11, 2)
        assert Polynomial.zero(3).coefficient_norm() == (0, 1)
        for _ in range(10):
            p = random_rational_poly(rng, 3)
            norm, den = p.coefficient_norm()
            assert all(max(abs(c.re), abs(c.im)) <= Fraction(norm, den) for _e, c in p.items())
            square_norm, square_den = (p * p).coefficient_norm()
            assert Fraction(square_norm, square_den) <= Fraction(norm, den) ** 2
            assert square_den <= den ** 2


class TestDivision:
    def test_exact_quotient(self):
        p = x(1) ** 2 - x(2) ** 2
        d = x(1) + x(2)
        assert p.exact_divide(d) == x(1) - x(2)

    def test_inexact_returns_none(self):
        assert (x(1) ** 2 + x(2)).exact_divide(x(1) + x(2)) is None
        assert x(1).exact_divide(x(2)) is None

    def test_zero_dividend(self):
        assert Polynomial.zero(3).exact_divide(x(1)) == Polynomial.zero(3)

    def test_zero_divisor(self):
        with pytest.raises(DivisionByZeroPolynomial):
            x(1).exact_divide(Polynomial.zero(3))

    def test_roundtrip_random(self, rng):
        for _ in range(30):
            p = random_poly(rng)
            d = random_poly(rng, max_degree=2, terms=3)
            if d.is_zero():
                continue
            assert (p * d).exact_divide(d) == p


class TestEvaluation:
    def test_point_values(self):
        p = x(1) ** 2 + 2 * x(2) - 1
        assert p.evaluate([3.0, 0.5, 0.0]) == 9 + 1 - 1

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            x(1).evaluate([1.0, 2.0])

    def test_scaling_law_homogeneous(self, rng):
        from conftest import random_homogeneous

        for k in (1, 2, 3, 4):
            p = random_homogeneous(rng, 3, k)
            if p.is_zero():
                continue
            v = rng.standard_normal(3)
            t = float(rng.uniform(0.5, 2.0))
            lhs = p.evaluate(t * v)
            rhs = t**k * p.evaluate(v)
            assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_deterministic_summation(self, rng):
        p = random_poly(rng, terms=12)
        v = rng.standard_normal(3)
        first = p.evaluate(v)
        again = p.evaluate(list(v))
        assert first == again

    def test_complex_coefficients(self):
        i = GaussianRational(0, 1)
        p = Polynomial.constant(2, i) * x(1, 2)
        assert p.evaluate([2.0, 0.0]) == 2j
