"""Differential test of the parser and the exact kernel against sympy.

Each generated expression is written twice: as text in the parser's grammar,
and as a sympy expression built directly from the same tree, with z_j mapped
to x_{2j-1} + I*x_{2j}, `i` to I and `conj` to `conjugate` over real symbols.
`parse` must return, term by term, the coefficients of `sympy.expand`; the
product `*`, the partial derivatives `partial`, the `laplacian`, the
bilinear gradient product `kappa` and `exact_divide` of parsed expressions
must return those of the same operation done by sympy, with `sympy.diff`
for the derivatives and `sympy.div` for the division.  Everything runs in 4
variables; `kappa`, `partial` and `laplacian` run in 5 as well, where x5 has
no partner to form a z_j with.
"""

from fractions import Fraction
from typing import Any, NamedTuple

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from eigensphere.calculus import kappa, laplacian, partial  # noqa: E402
from eigensphere.parsing import parse  # noqa: E402

NVARS = 4
# an odd variable count, whose x5 has no partner: z1, z2 and x5
ODD_NVARS = 5
X_ALL = sympy.symbols(f"x1:{ODD_NVARS + 1}", real=True)
X = X_ALL[:NVARS]
MAX_DEGREE = 6

# Binding strength of each form; an operand weaker than its slot needs
# parentheses.  A rational literal p/q is a primary, so it binds like a name.
SUM, PRODUCT, NEGATION, POWER, ATOM = range(5)


class Generated(NamedTuple):
    text: str
    strength: int
    expr: Any  # the sympy expression
    degree: int  # an upper bound on the total degree


@st.composite
def leaves(draw, budget, nvars):
    choices = (["x", "z"] if budget >= 1 else []) + ["i", "int", "ratio"]
    kind = draw(st.sampled_from(choices))
    if kind == "x":
        k = draw(st.integers(1, nvars))
        return f"x{k}", X_ALL[k - 1], 1
    if kind == "z":
        j = draw(st.integers(1, nvars // 2))
        return f"z{j}", X_ALL[2 * j - 2] + sympy.I * X_ALL[2 * j - 1], 1
    if kind == "i":
        return "i", sympy.I, 0
    p = draw(st.integers(0, 9))
    if kind == "int":
        return str(p), sympy.Integer(p), 0
    q = draw(st.integers(1, 9))
    return f"{p}/{q}", sympy.Rational(p, q), 0


def _wrap(node: Generated, slot: int) -> str:
    """Text of an operand that must bind at least as tightly as `slot`."""
    return node.text if node.strength >= slot else f"({node.text})"


@st.composite
def expressions(draw, depth=4, budget=MAX_DEGREE, nvars=NVARS):
    """An expression in `nvars` variables nested at most `depth` deep, of total
    degree at most `budget`."""
    kind = draw(st.sampled_from(["leaf", "sum", "product", "neg", "conj", "pow"]))
    if depth == 0 or kind == "leaf":
        text, expr, degree = draw(leaves(budget, nvars))
        return Generated(text, ATOM, expr, degree)
    space = draw(st.sampled_from(["", " "]))
    if kind == "sum":
        left = draw(expressions(depth - 1, budget, nvars))
        right = draw(expressions(depth - 1, budget, nvars))
        op = draw(st.sampled_from("+-"))
        text = f"{_wrap(left, SUM)}{space}{op}{space}{_wrap(right, PRODUCT)}"
        expr = left.expr + right.expr if op == "+" else left.expr - right.expr
        return Generated(text, SUM, expr, max(left.degree, right.degree))
    if kind == "product":
        left = draw(expressions(depth - 1, budget, nvars))
        right = draw(expressions(depth - 1, budget - left.degree, nvars))
        text = f"{_wrap(left, PRODUCT)}{space}*{space}{_wrap(right, NEGATION)}"
        return Generated(text, PRODUCT, left.expr * right.expr, left.degree + right.degree)
    inner = draw(expressions(depth - 1, budget, nvars))
    if kind == "neg":
        return Generated(f"-{_wrap(inner, NEGATION)}", NEGATION, -inner.expr, inner.degree)
    if kind == "conj":
        return Generated(f"conj({inner.text})", ATOM, sympy.conjugate(inner.expr), inner.degree)
    top = 3 if inner.degree == 0 else min(3, budget // inner.degree)
    k = draw(st.integers(0, top))
    return Generated(f"{_wrap(inner, ATOM)}^{k}", POWER, inner.expr**k, inner.degree * k)


def _fraction(value) -> Fraction:
    return Fraction(int(value.p), int(value.q))


def _terms(poly) -> dict:
    return {exps: (c.re, c.im) for exps, c in poly.items()}


def sympy_terms(expr, nvars=NVARS) -> dict:
    poly = sympy.Poly(sympy.expand(expr), *X_ALL[:nvars])
    return {
        tuple(monom): (_fraction(sympy.re(c)), _fraction(sympy.im(c)))
        for monom, c in poly.terms()
        if c != 0
    }


@hypothesis.settings(max_examples=200, derandomize=True, database=None, deadline=None)
@hypothesis.given(expressions())
def test_parse_matches_sympy_expand(generated):
    assert _terms(parse(generated.text, NVARS)) == sympy_terms(generated.expr), generated.text


def sympy_kappa(f, g, nvars=NVARS):
    f, g = sympy.expand(f), sympy.expand(g)
    return sum(sympy.diff(f, x) * sympy.diff(g, x) for x in X_ALL[:nvars])


# Operands of degree at most 3, so products stay within MAX_DEGREE.
operands = expressions(depth=3, budget=3)
odd_operands = expressions(depth=3, budget=3, nvars=ODD_NVARS)


@hypothesis.settings(max_examples=100, derandomize=True, database=None, deadline=None)
@hypothesis.given(operands, operands)
def test_product_matches_sympy(left, right):
    p, q = parse(left.text, NVARS), parse(right.text, NVARS)
    assert _terms(p * q) == sympy_terms(left.expr * right.expr), (left.text, right.text)
    assert _terms(p * p) == sympy_terms(left.expr * left.expr), left.text


def _check_kappa(left, right, nvars):
    p, q = parse(left.text, nvars), parse(right.text, nvars)
    expected = sympy_terms(sympy_kappa(left.expr, right.expr, nvars), nvars)
    assert _terms(kappa(p, q)) == expected, (left.text, right.text)
    assert _terms(kappa(p, p)) == sympy_terms(
        sympy_kappa(left.expr, left.expr, nvars), nvars), left.text


def _check_partial_and_laplacian(generated, nvars):
    p, expr = parse(generated.text, nvars), sympy.expand(generated.expr)
    xs = X_ALL[:nvars]
    for i, x in enumerate(xs, start=1):
        assert _terms(partial(p, i)) == sympy_terms(sympy.diff(expr, x), nvars), (
            generated.text, i)
    assert _terms(laplacian(p)) == sympy_terms(
        sum(sympy.diff(expr, x, 2) for x in xs), nvars), generated.text


@hypothesis.settings(max_examples=100, derandomize=True, database=None, deadline=None)
@hypothesis.given(operands, operands)
def test_kappa_matches_sympy(left, right):
    _check_kappa(left, right, NVARS)


@hypothesis.settings(max_examples=100, derandomize=True, database=None, deadline=None)
@hypothesis.given(odd_operands, odd_operands)
def test_kappa_matches_sympy_odd_nvars(left, right):
    _check_kappa(left, right, ODD_NVARS)


@hypothesis.settings(max_examples=100, derandomize=True, database=None, deadline=None)
@hypothesis.given(expressions())
def test_partial_and_laplacian_match_sympy(generated):
    _check_partial_and_laplacian(generated, NVARS)


@hypothesis.settings(max_examples=100, derandomize=True, database=None, deadline=None)
@hypothesis.given(expressions(nvars=ODD_NVARS))
def test_partial_and_laplacian_match_sympy_odd_nvars(generated):
    _check_partial_and_laplacian(generated, ODD_NVARS)


def _kappa_example():
    """(kappa(F, kappa(F, conj F)), F) for F = z1^3*conj(z2)^2.

    The dividend's text is rendered from the package's own kappa, but its
    sympy expression is built from sympy's derivatives, so the assertions
    below compare the package against the oracle end to end."""
    f_text = "z1^3*conj(z2)^2"
    z1, z2 = X[0] + sympy.I * X[1], X[2] + sympy.I * X[3]
    f_expr = z1**3 * sympy.conjugate(z2) ** 2
    F = parse(f_text, NVARS)
    K = kappa(F, kappa(F, F.conjugate()))
    k_expr = sympy_kappa(f_expr, sympy_kappa(f_expr, sympy.conjugate(f_expr)))
    return (Generated(str(K), SUM, k_expr, K.degree()),
            Generated(f_text, PRODUCT, f_expr, F.degree()))


# a divisor led by a complex rational of norm other than 1, so the integer
# remainder is rescaled, dividing a rational polynomial
_NON_UNIT_LEAD = (
    Generated("1/2*x1^2 - 3/7*x2*x4 + 5/3", SUM,
              X[0] ** 2 / 2 - sympy.Rational(3, 7) * X[1] * X[3] + sympy.Rational(5, 3), 2),
    Generated("(2/5+3/5*i)*x1 + 1/3*x2", SUM,
              (sympy.Rational(2, 5) + sympy.Rational(3, 5) * sympy.I) * X[0] + X[1] / 3, 1),
)


@hypothesis.settings(max_examples=100, derandomize=True, database=None, deadline=None)
@hypothesis.given(operands, operands)
@hypothesis.example(*_NON_UNIT_LEAD)
@hypothesis.example(*_kappa_example())
def test_exact_divide_matches_sympy(left, right):
    p, q = parse(left.text, NVARS), parse(right.text, NVARS)
    hypothesis.assume(not q.is_zero())
    # a product divides by either factor, with the other as its quotient
    assert _terms((p * q).exact_divide(q)) == sympy_terms(left.expr), (left.text, right.text)
    # one divisor is a Groebner basis of its ideal: a zero remainder means q divides p
    quotient, remainder = sympy.div(sympy.expand(left.expr), sympy.expand(right.expr), *X)
    result = p.exact_divide(q)
    if remainder == 0:
        assert _terms(result) == sympy_terms(quotient), (left.text, right.text)
    else:
        assert result is None, (left.text, right.text)
