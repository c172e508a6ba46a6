"""Text format for polynomials: recursive-descent parser and canonical renderer.

Grammar (whitespace insensitive):

    expression := term { ('+' | '-') term }
    term       := factor { '*' factor }
    factor     := '-' factor | power
    power      := primary [ '^' exponent ]
    primary    := integer [ '/' integer ]      rational literal
                | 'i'                          imaginary unit
                | 'x<k>'                       real variable, 1-based
                | 'z<j>'                       complex shorthand x_{2j-1} + i*x_{2j}
                | 'conj' '(' expression ')'    complex conjugation
                | '(' expression ')'

Multiplication is always explicit; exponents must be non-negative integer
literals.  `conj` conjugates the coefficients of its argument's expansion,
which is exactly complex conjugation because the variables are real-valued.

`parse` builds the polynomial in one pass, in source order: each grammar rule
returns the expansion of the text it reads.  A product is applied as soon as
its right operand has been read, and the terms of an expression, each
subtracted one negated, are merged once by `Polynomial.sum`.  Groups nest at
most MAX_NESTING deep and a run of unary minus signs is read in a loop, so no
input exhausts the interpreter's stack.

Coefficients stay below 10**MAX_COEFF_DIGITS: an integer literal has at most
MAX_COEFF_DIGITS digits, a power is refused before it is expanded when the
bound Polynomial.coefficient_norm gives for it could pass the limit, and the
parsed polynomial's numerator sum and denominator are checked once more.
Past the limit `parse` raises BudgetExceeded.  The limit keeps the quadratic
objects built from an input (the kappa residual, a certificate quotient such
as 8*c^2*(a^2 + 1)) within the 4300 digits Python converts to text.

Terms are bounded the same way: before each '*' and '^' is applied, the
result's term count is bounded, by Ta*Tb for a product of Ta and Tb terms
and by C(T+k-1, k) for a k-th power of T terms, each capped by C(N+d, N),
the number of monomials of degree at most d in N variables.  A bound past
MAX_TERMS raises BudgetExceeded, so no expansion runs out of memory.

`render` produces a canonical string in the same grammar (x-variables only,
terms in descending graded-lexicographic order), and `parse(render(p), p.nvars)`
returns a polynomial equal to `p`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import log10
from typing import List, NamedTuple, Tuple

from .errors import BudgetExceeded, NegativeExponent, ParseError, VariableOutOfRange
from .polynomial import I, Polynomial, complex_variable

# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(r"(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[+\-*^()/])")
# anchored at a position, so skipping whitespace copies nothing; \s is the
# whitespace set of str.strip
_SPACE_RE = re.compile(r"\s*")

#: The most decimal digits of an integer literal, and of the numerator sum
#: and the denominator of a parsed polynomial's coefficients.
MAX_COEFF_DIGITS = 1000
_COEFF_LIMIT = 10**MAX_COEFF_DIGITS
#: The most terms a product or power may be bounded to before it is expanded.
MAX_TERMS = 100_000


class Token(NamedTuple):
    kind: str  # "int", "name", "op", "end"
    text: str
    pos: int


def _tokenize(text: str) -> List[Token]:
    tokens = []
    pos = _SPACE_RE.match(text).end()
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            char = text[pos]
            if char == ".":
                raise ParseError(
                    "decimal literals are not accepted; write an exact rational like 3/10", pos
                )
            raise ParseError(f"unexpected character {char!r}", pos)
        if match.lastgroup == "int" and len(match.group()) > MAX_COEFF_DIGITS:
            raise BudgetExceeded(
                f"integer literal of {len(match.group())} digits at position {pos} is over "
                f"the limit of {MAX_COEFF_DIGITS} digits")
        tokens.append(Token(match.lastgroup, match.group(), pos))
        pos = _SPACE_RE.match(text, match.end()).end()
    tokens.append(Token("end", "", len(text)))
    return tokens


def _comb_capped(n: int, k: int) -> int:
    """C(n, k) when it is at most MAX_TERMS, else MAX_TERMS + 1.

    Builds C(n - k + i, i) for i = 1 .. min(k, n - k), which is at least
    2**i, so it stops after a few steps however large n and k are.
    """
    k = min(k, n - k)
    value = 1
    for i in range(1, k + 1):
        value = value * (n - k + i) // i
        if value > MAX_TERMS:
            return MAX_TERMS + 1
    return value


# ---------------------------------------------------------------------------
# Parser

_VAR_RE = re.compile(r"^([xz])([0-9]+)$")

#: The deepest nesting of '(' and 'conj(' groups `parse` accepts.  Each group
#: costs six Python frames, so the limit keeps parsing far below the
#: interpreter's recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, nvars: int):
        self.text = text
        self.nvars = nvars
        self.tokens = _tokenize(text)
        self.at = 0
        self.depth = 0  # groups open at the current token

    def peek(self) -> Token:
        return self.tokens[self.at]

    def advance(self) -> Token:
        token = self.tokens[self.at]
        self.at += 1
        return token

    def expect_op(self, op: str) -> Token:
        token = self.peek()
        if token.kind != "op" or token.text != op:
            raise ParseError(f"expected {op!r}, found {self._describe(token)}", token.pos)
        return self.advance()

    @staticmethod
    def _describe(token: Token) -> str:
        return "end of input" if token.kind == "end" else repr(token.text)

    def parse(self) -> Polynomial:
        poly = self.expression()
        trailing = self.peek()
        if trailing.kind != "end":
            raise ParseError(f"unexpected {self._describe(trailing)}", trailing.pos)
        return poly

    def expression(self) -> Polynomial:
        terms = [self.term()]
        while True:
            token = self.peek()
            if token.kind == "op" and token.text in "+-":
                self.advance()
                right = self.term()
                terms.append(right if token.text == "+" else -right)
            else:
                return Polynomial.sum(self.nvars, terms)

    def term(self) -> Polynomial:
        poly = self.factor()
        while True:
            token = self.peek()
            if token.kind == "op" and token.text == "*":
                self.advance()
                right = self.factor()
                self._bound_terms("'*'", token, poly.num_terms() * right.num_terms(),
                                  lambda: poly.degree() + right.degree())
                poly = poly * right
            else:
                return poly

    def _bound_terms(self, what: str, token: Token, terms: int, degree) -> None:
        """Refuse a product or power whose result could have more than
        MAX_TERMS terms: `terms` of them, capped by C(N + degree(), N).  The
        cap is worked out only when `terms` alone is past the limit."""
        if terms > MAX_TERMS and _comb_capped(self.nvars + degree(), self.nvars) > MAX_TERMS:
            raise BudgetExceeded(
                f"{what} at position {token.pos} could give a result over the limit of "
                f"{MAX_TERMS} terms")

    def factor(self) -> Polynomial:
        # a run of unary minus signs is read in a loop, so its length costs no stack
        negate = False
        while self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            negate = not negate
        base = self.power()
        return -base if negate else base

    def power(self) -> Polynomial:
        base = self.primary()
        token = self.peek()
        if token.kind == "op" and token.text == "^":
            self.advance()
            k = self.exponent()
            if k > 1:
                # base**k has numerator sum at most norm**k over den**k; exact, as
                # k may be too large for a float
                norm, den = base.coefficient_norm()
                digits = k * Fraction(log10(max(norm, den)))
                if digits > MAX_COEFF_DIGITS:
                    raise BudgetExceeded(
                        f"^{k} at position {token.pos} could give coefficients of "
                        f"{int(digits) + 1} digits, over the limit of {MAX_COEFF_DIGITS} digits")
                self._bound_terms(f"^{k}", token, _comb_capped(base.num_terms() + k - 1, k),
                                  lambda: k * base.degree())
            return base ** k
        return base

    def exponent(self) -> int:
        token = self.peek()
        if token.kind == "op" and token.text == "-":
            self.advance()
            follow = self.peek()
            if follow.kind == "int":
                raise NegativeExponent(
                    f"exponent -{follow.text} is negative; exponents must be >= 0", token.pos
                )
            raise ParseError(f"expected an integer exponent, found '-'", token.pos)
        if token.kind != "int":
            raise ParseError(
                f"expected a non-negative integer exponent, found {self._describe(token)}",
                token.pos,
            )
        self.advance()
        return int(token.text)

    def primary(self) -> Polynomial:
        token = self.peek()
        if token.kind == "int":
            self.advance()
            value = Fraction(int(token.text))
            slash = self.peek()
            if slash.kind == "op" and slash.text == "/":
                self.advance()
                denom = self.peek()
                if denom.kind != "int":
                    raise ParseError(
                        f"expected an integer denominator, found {self._describe(denom)}",
                        denom.pos,
                    )
                self.advance()
                if int(denom.text) == 0:
                    raise ParseError("zero denominator in rational literal", denom.pos)
                value = value / int(denom.text)
            return Polynomial.constant(self.nvars, value)
        if token.kind == "name":
            if token.text == "i":
                self.advance()
                return Polynomial.constant(self.nvars, I)
            if token.text == "conj":
                self.advance()
                return self.group().conjugate()
            var = _VAR_RE.match(token.text)
            if var:
                kind, index = var.group(1), int(var.group(2))
                self.advance()
                if kind == "x" and not 1 <= index <= self.nvars:
                    raise VariableOutOfRange(
                        f"x{index} is outside the declared variables x1..x{self.nvars}",
                        token.pos,
                    )
                if kind == "z" and not (index >= 1 and 2 * index <= self.nvars):
                    raise VariableOutOfRange(
                        f"z{index} needs variables x{2 * index - 1}, x{2 * index}"
                        f" but only {self.nvars} are declared",
                        token.pos,
                    )
                if kind == "x":
                    return Polynomial.variable(self.nvars, index)
                return complex_variable(self.nvars, index)
            raise ParseError(f"unknown identifier {token.text!r}", token.pos)
        if token.kind == "op" and token.text == "(":
            return self.group()
        raise ParseError(f"expected a value, found {self._describe(token)}", token.pos)

    def group(self) -> Polynomial:
        """'(' expression ')', at most MAX_NESTING groups deep."""
        opening = self.expect_op("(")
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"parentheses nest deeper than {MAX_NESTING} levels", opening.pos)
        self.depth += 1
        inner = self.expression()
        self.expect_op(")")
        self.depth -= 1
        return inner


def parse(text: str, nvars: int) -> Polynomial:
    """Parse an expression into a canonical Polynomial in x1..x<nvars>."""
    if nvars < 1:
        raise ValueError(f"nvars must be positive, got {nvars}")
    poly = _Parser(text, nvars).parse()
    if max(poly.coefficient_norm()) >= _COEFF_LIMIT:
        raise BudgetExceeded(
            f"the coefficients of the parsed polynomial are over the limit of "
            f"{MAX_COEFF_DIGITS} digits in their numerator sum or denominator")
    return poly


# ---------------------------------------------------------------------------
# Renderer


def _ratio(num: int, den: int) -> str:
    """num/den in lowest terms as str(Fraction(num, den)) writes it."""
    return str(num) if den == 1 else f"{num}/{den}"


def _render_term(exps, re: int, re_den: int, im: int, im_den: int) -> Tuple[str, str]:
    """One term, coefficient re/re_den + (im/im_den)*i, as (sign, body) with
    sign in {"+", "-"}.

    Mixed complex coefficients keep their sign inside parentheses so the
    joining logic never has to negate them.
    """
    mono = "*".join(f"x{position}" if e == 1 else f"x{position}^{e}"
                    for position, e in enumerate(exps, 1) if e)

    if re and im:
        im_sign = "+" if im > 0 else "-"
        body = f"({_ratio(re, re_den)}{im_sign}{_ratio(abs(im), im_den)}*i)"
        return "+", f"{body}*{mono}" if mono else body
    if im:
        sign = "+" if im > 0 else "-"
        scale = "i" if abs(im) == im_den else f"{_ratio(abs(im), im_den)}*i"
        return sign, f"{scale}*{mono}" if mono else scale
    sign = "+" if re > 0 else "-"
    magnitude = _ratio(abs(re), re_den)
    if not mono:
        return sign, magnitude
    if abs(re) == re_den:
        return sign, mono
    return sign, f"{magnitude}*{mono}"


def render(p: Polynomial) -> str:
    """Canonical text form; terms in descending graded-lexicographic order."""
    if p.is_zero():
        return "0"
    pieces = []
    for term in p.rational_items():
        sign, body = _render_term(*term)
        if not pieces:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)
