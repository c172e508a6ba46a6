"""Expression grammar: parsing, complex shorthand expansion, rendering round-trips."""

import importlib.util
import itertools
import re
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import hypothesis
import hypothesis.strategies as st
import pytest

from eigensphere.errors import BudgetExceeded, NegativeExponent, ParseError, VariableOutOfRange
from eigensphere.parsing import (
    MAX_COEFF_DIGITS, MAX_NESTING, MAX_TERMS, _comb_capped, _tokenize, parse, render)
from eigensphere.polynomial import GaussianRational, Polynomial

from conftest import random_poly
from oracles import render_reference

I = GaussianRational(0, 1)


def x(i, nvars=4):
    return Polynomial.variable(nvars, i)


def const(c, nvars=4):
    return Polynomial.constant(nvars, c)


class TestBasicParsing:
    def test_integers_and_rationals(self):
        assert parse("3", 2) == Polynomial.constant(2, 3)
        assert parse("1/2 * x1", 2) == Fraction(1, 2) * Polynomial.variable(2, 1)
        assert parse("-7/3", 1) == Polynomial.constant(1, Fraction(-7, 3))

    def test_imaginary_unit(self):
        assert parse("i", 1) == Polynomial.constant(1, I)
        assert parse("i*i", 1) == Polynomial.constant(1, -1)

    def test_precedence(self):
        # ^ over * over +/-
        assert parse("2*x1^2 + x2", 2) == 2 * x(1, 2) ** 2 + x(2, 2)
        assert parse("x1 + x2 * x1 ^ 3", 2) == x(1, 2) + x(2, 2) * x(1, 2) ** 3

    def test_unary_minus(self):
        assert parse("-x1", 2) == -x(1, 2)
        assert parse("--x1", 2) == x(1, 2)
        assert parse("3 - -2", 1) == Polynomial.constant(1, 5)
        # a run of signs far longer than the interpreter's recursion limit
        assert parse("-" * 1001 + "x1", 2) == -x(1, 2)
        assert parse("x2 -" + "-" * 1000 + "x1", 2) == x(2, 2) - x(1, 2)

    def test_parentheses(self):
        assert parse("(x1 + x2)^2", 2) == (x(1, 2) + x(2, 2)) ** 2

    def test_whitespace_insensitive(self):
        assert parse("x1+x2", 2) == parse(" x1  +  x2 ", 2)


class TestComplexShorthand:
    def test_z_expansion(self):
        # z_j covers the real pair x_{2j-1}, x_{2j}
        assert parse("z1", 4) == x(1) + const(I) * x(2)
        assert parse("z2", 4) == x(3) + const(I) * x(4)

    def test_isotropic_quadric(self):
        p = parse("z1^2 + z2^2", 4)
        expected = (
            x(1) ** 2
            - x(2) ** 2
            + 2 * const(I) * x(1) * x(2)
            + x(3) ** 2
            - x(4) ** 2
            + 2 * const(I) * x(3) * x(4)
        )
        assert p == expected

    def test_conjugation(self):
        p = parse("z1^2 * conj(z2)", 4)
        expected = (x(1) + const(I) * x(2)) ** 2 * (x(3) - const(I) * x(4))
        assert p == expected

    def test_conj_of_sum(self):
        p = parse("conj(z1 + 2*i)", 4)
        assert p == x(1) - const(I) * x(2) - 2 * const(I)

    def test_z_plus_conj_is_real_part(self):
        for j, n in ((1, 2), (1, 4), (2, 4), (3, 6)):
            got = parse(f"z{j}", n) + parse(f"conj(z{j})", n)
            assert got == 2 * Polynomial.variable(n, 2 * j - 1)


# One row per raise site of the parser: test id, input, error class, offset,
# and a fragment of the message.  Every message ends with the offset it reports.
ERROR_TABLE = [
    ("zero_denominator", "1/0", ParseError, 2, "zero denominator"),
    ("denominator_not_integer", "1/x1", ParseError, 2, "integer denominator"),
    ("exponent_not_integer", "x1^x2", ParseError, 3, "non-negative integer exponent"),
    ("exponent_dangling_minus", "x1^-", ParseError, 3, "integer exponent, found '-'"),
    ("negative_exponent", "x1^-2", NegativeExponent, 3, "exponent -2 is negative"),
    ("conj_unclosed", "conj(z1", ParseError, 7, "expected ')', found end of input"),
    ("paren_unclosed", "(x1+x2", ParseError, 6, "expected ')', found end of input"),
    ("conj_without_paren", "conj z1", ParseError, 5, "expected '(', found 'z1'"),
    ("unexpected_character", "x1 @ x2", ParseError, 3, "unexpected character '@'"),
    ("decimal_rejected_with_hint", "0.3 * x1", ParseError, 1, "exact rational"),
    ("variable_out_of_range", "x5", VariableOutOfRange, 0, "outside the declared"),
    ("variable_out_of_range_later", "x1 + x5", VariableOutOfRange, 5, "outside the declared"),
    ("z_out_of_range", "z3", VariableOutOfRange, 0, "only 4 are declared"),
    ("x0_out_of_range", "x0", VariableOutOfRange, 0, "outside the declared"),
    ("unknown_token", "sin(x1)", ParseError, 0, "unknown identifier 'sin'"),
    ("implicit_multiplication_rejected", "2 x1", ParseError, 2, "unexpected 'x1'"),
    ("trailing_garbage", "x1 + x2)", ParseError, 7, "unexpected ')'"),
    ("syntax_error_has_position", "x1 + + x2", ParseError, 5, "expected a value, found '+'"),
    ("empty_input", "", ParseError, 0, "expected a value, found end of input"),
    ("nesting_too_deep", "(" * 101 + "x1" + ")" * 101, ParseError, 100,
     "nest deeper than 100 levels"),
]


class TestErrors:
    @pytest.mark.parametrize(
        "text, cls, pos, fragment", [pytest.param(*row, id=name) for name, *row in ERROR_TABLE]
    )
    def test_error_table(self, text, cls, pos, fragment):
        with pytest.raises(ParseError) as exc:
            parse(text, 4)
        assert type(exc.value) is cls
        assert isinstance(exc.value, SyntaxError)
        assert exc.value.pos == pos
        assert fragment in str(exc.value)
        assert str(exc.value).endswith(f"(at position {pos})")

    def test_nonpositive_nvars(self):
        with pytest.raises(ValueError):
            parse("1", 0)


class TestTokenizer:
    def test_unicode_whitespace_and_positions(self):
        # every character str.strip removes separates tokens, and positions
        # are offsets into the original text
        tokens = _tokenize("\u2003x1\t+\u00a0 2 \n")
        assert [(t.kind, t.text, t.pos) for t in tokens] == [
            ("name", "x1", 1), ("op", "+", 4), ("int", "2", 7), ("end", "", 10)]

    def test_linear_in_input_length(self):
        # 1 MB of input; a tokenizer that copies the rest of the text per
        # token needs about 20 s here
        text = "x1 + " * 200_000 + "x1"
        start = time.perf_counter()
        tokens = _tokenize(text)
        elapsed = time.perf_counter() - start
        assert len(tokens) == 400_002
        assert elapsed < 8.0, f"tokenizing {len(text)} characters took {elapsed:.1f} s"


class TestLongInput:
    def test_long_sum_is_linear(self):
        # 32,000 distinct cubic monomials in 59 variables (432 KB); folding the
        # sum left, copying the partial sum per operator, took about 12 s on a
        # 2-CPU x86_64 host
        monomials = itertools.islice(itertools.combinations_with_replacement(range(1, 60), 3),
                                     32_000)
        text = " + ".join(f"x{a}*x{b}*x{c}" for a, b, c in monomials)
        start = time.perf_counter()
        p = parse(text, 59)
        elapsed = time.perf_counter() - start
        assert p.num_terms() == 32_000
        assert elapsed < 5.0, f"parsing {len(text)} characters took {elapsed:.1f} s"

    def test_nesting_at_the_limit(self):
        text = "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING
        assert parse(text, 4) == Polynomial.variable(4, 1)
        mixed = "conj(-(" * (MAX_NESTING // 2) + "z1" + "))" * (MAX_NESTING // 2)
        # an even number of conjugations and of negations
        assert parse(mixed, 4) == parse("z1", 4)
        with pytest.raises(ParseError, match="nest deeper"):
            parse("conj(" + mixed + ")", 4)


class TestCoefficientBudget:
    # the largest and the smallest integer of MAX_COEFF_DIGITS digits
    LARGEST = "9" * MAX_COEFF_DIGITS
    SMALLEST = "1" + "0" * (MAX_COEFF_DIGITS - 1)

    def test_literals_at_the_limit_parse(self):
        largest = int(self.LARGEST)
        assert parse(f"{self.LARGEST}*x1", 2).coefficient((1, 0)) == GaussianRational(largest)
        assert parse(f"-1/{self.LARGEST}*x2", 2).coefficient((0, 1)) == GaussianRational(
            Fraction(-1, largest))

    @pytest.mark.parametrize("text", ["9{big}", "1/1{big}*x1", "x1^1{big}"])
    def test_long_literal_is_refused(self, text):
        with pytest.raises(BudgetExceeded, match=f"limit of {MAX_COEFF_DIGITS} digits"):
            parse(text.format(big=self.LARGEST), 2)

    @pytest.mark.parametrize("text", ["z1^500", "x1^100000", "(x1 + x2)^300",
                                      "(1/2*x1)^1000", "10^999", "(10^333)^3", "0^4000"])
    def test_powers_within_the_bound_expand(self, text):
        norm, den = parse(text, 4).coefficient_norm()
        assert max(norm, den) < 10**MAX_COEFF_DIGITS

    @pytest.mark.parametrize("text", ["10^5000", "z1^2 + 10^5000*x1^2", "10^2200*z1^2",
                                      "(1/10*x1)^1001", "(2*z1)^1700", "z1^3400",
                                      "z1^4294967295", "(x1 + x2)^" + LARGEST])
    def test_powers_past_the_bound_are_refused_unexpanded(self, monkeypatch, text):
        expand = Polynomial.__pow__

        def squares_only(base, k):
            assert k <= 2, f"^{k} was expanded"
            return expand(base, k)

        monkeypatch.setattr(Polynomial, "__pow__", squares_only)
        with pytest.raises(BudgetExceeded, match=f"limit of {MAX_COEFF_DIGITS} digits"):
            parse(text, 4)

    def test_exponent_past_float_range(self):
        # k * log10(norm) once overflowed a float for an exponent of 309 digits
        with pytest.raises(BudgetExceeded, match="total degree"):
            parse(f"x1^{self.LARGEST}", 2)
        assert parse(f"1^{self.LARGEST}", 2) == Polynomial.constant(2, 1)

    @pytest.mark.parametrize("text", ["{small}*{small}*x1", "{small}*x1 + {largest}*x2",
                                      "1/{small}*x1 + 1/{largest}*x2", "10^1000"])
    def test_parsed_result_is_checked(self, text):
        with pytest.raises(BudgetExceeded, match="numerator sum or denominator"):
            parse(text.format(small=self.SMALLEST, largest=self.LARGEST), 2)


def _workload_inputs():
    """(nvars, text) of every --poly and --constraint in cycles 0-2 of the
    benchmark workloads at seeds 1 and 2."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    inputs = set()
    for name, seed, cycle in itertools.product(workloads.WORKLOADS, (1, 2), range(3)):
        for check in workloads.make_cycle(name, seed, cycle, "unused"):
            argv = check.argv
            nvars = int(argv[argv.index("--vars") + 1])
            inputs.update((nvars, value) for flag, value in zip(argv, argv[1:])
                          if flag in ("--poly", "--constraint"))
    return sorted(inputs)


class TestTermBudget:
    SUM8 = "(x1+x2+x3+x4+x5+x6+x7+x8)"

    def test_comb_capped(self):
        for n in range(40):
            for k in range(n + 1):
                assert _comb_capped(n, k) == min(comb(n, k), MAX_TERMS + 1)
        # a few steps, however large the arguments
        assert _comb_capped(10**999 + 7, 10**999) == MAX_TERMS + 1

    def test_within_the_bound_expands(self):
        assert parse(self.SUM8 + "^12", 8).num_terms() == comb(19, 12)

    @pytest.mark.parametrize("text, what", [
        (SUM8 + "^40", "^40"),
        (SUM8 + "^6*" + SUM8 + "^6", "'*'"),
        ("*".join([SUM8] * 13), "'*'"),
    ], ids=["power", "product-of-powers", "product-chain"])
    def test_past_the_bound_is_refused_unexpanded(self, monkeypatch, text, what):
        expand = Polynomial.__pow__

        def small_powers_only(base, k):
            assert k <= 6, f"^{k} was expanded"
            return expand(base, k)

        monkeypatch.setattr(Polynomial, "__pow__", small_powers_only)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded,
                           match=rf"^{re.escape(what)} .* over the limit of {MAX_TERMS} terms"):
            parse(text, 8)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("nvars, text", _workload_inputs())
    def test_benchmark_inputs_parse(self, nvars, text):
        assert parse(text, nvars).num_terms() <= MAX_TERMS


class TestRender:
    def test_zero(self):
        assert render(Polynomial.zero(3)) == "0"

    def test_named_roundtrip(self):
        p = parse("2*x1*x2 + 2*x3*x4", 4)
        assert parse(render(p), 4) == p

    def test_simple_fraction(self):
        text = render(parse("1/2 * x1", 2))
        assert parse(text, 2) == Fraction(1, 2) * Polynomial.variable(2, 1)

    def test_roundtrip_random(self, rng):
        for _ in range(40):
            p = random_poly(rng, nvars=4, max_degree=4, terms=6)
            assert parse(render(p), 4) == p

    def test_roundtrip_complex_coefficients(self):
        p = parse("(3 - 2*i) * x1^2 * x3 + i * x2 - 5/7", 4)
        assert parse(render(p), 4) == p

    def test_deterministic(self, rng):
        p = random_poly(rng, nvars=3, terms=8)
        assert render(p) == render(p)

    @hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @hypothesis.given(st.data())
    def test_matches_reference_renderer(self, data):
        # parts of 0 and +-1 give the real, imaginary, unit and negative forms;
        # denominators drawn from one small set make terms share them
        nvars = data.draw(st.integers(1, 4))
        part = st.one_of(
            st.sampled_from([0, 1, -1]),
            st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 12])),
            st.integers(-10**30, 10**30),
        ).map(Fraction)
        terms = data.draw(st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * nvars), st.builds(GaussianRational, part, part),
            max_size=6))
        p = Polynomial(nvars, terms)
        assert render(p) == render_reference(p)
        for (exps, re, re_den, im, im_den), (ref_exps, coeff) in zip(
                p.rational_items(), p.items(), strict=True):
            assert exps == ref_exps
            assert (re, re_den, im, im_den) == (coeff.re.numerator, coeff.re.denominator,
                                                coeff.im.numerator, coeff.im.denominator)


class TestConjInvolution:
    def test_double_conj(self):
        for text in ("z1^2 + z2^2", "conj(z1)*z2 - 3*i", "(1/2 + i)*x1*x4"):
            p = parse(text, 4)
            assert p.conjugate().conjugate() == p
            assert parse(f"conj(conj({text}))", 4) == p
