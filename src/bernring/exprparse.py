"""A small expression grammar for elements, used by the command line.

Supported constructs (whitespace-insensitive)::

    expr    := term (('+' | '-') term)*
    term    := unary ('*' unary)*
    unary   := '-' unary | power
    power   := primary ('^' exponent)?
    primary := RATIONAL | 'T' | 'B' ['(' scalar 'T' ')']
             | 'e' '^' '{' scalar 'T' '}' | '(' expr ')' | 'd' '[' expr ']'

``scalar`` is an optionally signed rational (defaulting to 1), so ``B(2T)``,
``B(-3/2T)``, ``e^{T}`` and ``e^{-1/2T}`` all parse.  ``d[...]`` takes the
derivative of the enclosed element.  Exponents are integers of absolute value
at most ``MAX_EXPONENT``, optionally braced or parenthesized; a negative
exponent is accepted on a single-atom base (it inverts T-powers, exponentials
and B-factors exactly).  A product whose operands' largest B-powers add up to
more than ``MAX_PRODUCT_POWER``, or with a pair of atoms of distinct scales whose rewrite
measure is past ``MAX_PRODUCT_MEASURE``, is refused before it is reduced.

Multiplication of elements is the exact ring product (fully reduced), so every
parsed expression is again a plain element.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .elements import BElement, atom, from_scalar
from .reduction import invert_term, product_reduce
from .weyl import derivative_of_element

#: the largest exponent (in absolute value) after ``^``
MAX_EXPONENT = 6

#: the largest sum of the two operands' largest B-powers in one product, so that nested powers
#: and long ``*`` chains stay bounded
MAX_PRODUCT_POWER = 12

#: the largest measure q (b1 n1 + b2 n2), q the lcm of the scales' denominators, that a pair of
#: atoms B(b1 T)^n1, B(b2 T)^n2 of distinct scales starts its rewriting from in one product.  Of
#: the inputs tried, the slowest accepted, ``B(2/3T)^6*B(7/4T)^6`` (174), takes 0.1-0.2 s to parse
#: and lower to first order, 0.45-0.75 s as a cold ``reduce product ... --to-first-order`` command;
#: past the cap, ``B(97T)^6*B(89T)^6`` (1,116) takes 1.3-2.2 s to multiply and lower (single runs
#: in fresh interpreters, start-up counted for the command only, five sets of four; Python 3.11 on
#: a shared 2-core x86_64 host whose speed varied by up to half between sets)
MAX_PRODUCT_MEASURE = 180


class ExprError(ValueError):
    """Parse or evaluation error, with the offending position for diagnostics."""

    def __init__(self, message: str, text: str, pos: int):
        super().__init__(message)
        self.text = text
        self.pos = pos

    def diagnostic(self) -> str:
        caret = " " * self.pos + "^"
        return f"error: {self} at column {self.pos + 1}\n{self.text}\n{caret}"


_TOKEN_RE = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([BTed])|([-+*^(){}\[\]]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExprError(f"unexpected character {text[pos:].lstrip()[0]!r}", text, len(text) - len(stripped))
        kind = "number" if match.group(1) else "name" if match.group(2) else "symbol"
        value = match.group(1) or match.group(2) or match.group(3)
        start = match.end() - len(value)
        tokens.append((kind, value, start))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.peek()
        if val != value:
            raise ExprError(f"expected {value!r}", self.text, pos)
        return self.advance()

    def fail(self, message: str):
        raise ExprError(message, self.text, self.peek()[2])

    # -- grammar -----------------------------------------------------------

    def parse(self) -> BElement:
        value = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprError(f"unexpected trailing input {val!r}", self.text, pos)
        return value

    def expr(self) -> BElement:
        value = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> BElement:
        """A product of factors.  A monomial factor c T^k e^{aT} only scales and shifts the atoms of
        the others, so the monomials are multiplied together and into the rest once, at the end; each
        factor is still checked against the caps as it comes, as the product so far has the atoms of
        the rest, shifted, or, while there is no rest, no B-factor."""
        rest = monomial = None
        factor = self.unary()
        while True:
            if len(factor.nums) == 1 and next(iter(factor.nums)).n == 0:
                monomial = factor if monomial is None else product_reduce(monomial, factor)
            else:
                rest = factor if rest is None else product_reduce(rest, factor)
            if self.peek()[1] != "*":
                break
            self.advance()
            factor = self.unary()
            self.check_caps(BElement() if rest is None else rest, factor)
        if monomial is None:
            return rest
        if rest is None:
            return monomial
        ((at, v),) = monomial.nums.items()
        return rest.mul_monomial(at.m, at.an, at.ad).scale(Fraction(v, monomial.den))

    def product(self, x: BElement, y: BElement) -> BElement:
        self.check_caps(x, y)
        return product_reduce(x, y)

    def check_caps(self, x: BElement, y: BElement) -> None:
        """Refuse the product x*y if it is past ``MAX_PRODUCT_POWER`` or ``MAX_PRODUCT_MEASURE``."""
        total = sum(max((at.n for at in z.nums), default=0) for z in (x, y))
        if total > MAX_PRODUCT_POWER:
            self.fail(f"B-power {total} of a product is past the cap of {MAX_PRODUCT_POWER}")
        xs, ys = ({(at.bn, at.bd, at.n) for at in z.nums if at.n} for z in (x, y))
        measure = max(  # q (b1 n1 + b2 n2) for b1 = p1 / d1, b2 = p2 / d2 and q = lcm(d1, d2)
            (math.lcm(d1, d2) * (p1 * n1 * d2 + p2 * n2 * d1) // (d1 * d2)
             for p1, d1, n1 in xs for p2, d2, n2 in ys if (p1, d1) != (p2, d2)),
            default=0,
        )
        if measure > MAX_PRODUCT_MEASURE:
            self.fail(f"rewrite measure {measure} of a product is past the cap of {MAX_PRODUCT_MEASURE}")

    def unary(self) -> BElement:
        if self.peek()[1] == "-":
            self.advance()
            return -self.unary()
        return self.power()

    def power(self) -> BElement:
        base = self.primary()
        if self.peek()[1] != "^":
            return base
        self.advance()
        exponent = self.exponent()
        return _element_power(base, exponent, self)

    def exponent(self) -> int:
        closing = None
        if self.peek()[1] in ("{", "("):
            closing = "}" if self.peek()[1] == "{" else ")"
            self.advance()
        sign = 1
        if self.peek()[1] == "-":
            self.advance()
            sign = -1
        kind, val, pos = self.peek()
        if kind != "number" or "/" in val:
            raise ExprError("expected an integer exponent", self.text, pos)
        if int(val) > MAX_EXPONENT:
            raise ExprError(f"exponent {sign * int(val)} is past the cap of {MAX_EXPONENT}", self.text, pos)
        self.advance()
        if closing:
            self.expect(closing)
        return sign * int(val)

    def number(self) -> Fraction:
        """The ``p`` or ``p/q`` literal at the cursor; a zero denominator is refused at the literal."""
        _, val, pos = self.advance()
        num, _, den = val.partition("/")
        if den and int(den) == 0:
            raise ExprError(f"zero denominator in {val!r}", self.text, pos)
        return Fraction(int(num), int(den or 1))

    def scalar(self, default=Fraction(1)) -> Fraction:
        sign = 1
        if self.peek()[1] == "-":
            self.advance()
            sign = -1
        return sign * (self.number() if self.peek()[0] == "number" else default)

    def primary(self) -> BElement:
        kind, val, pos = self.peek()
        if kind == "number":
            return from_scalar(self.number())
        if val == "T":
            self.advance()
            return atom(1, 0, 1)
        if val == "B":
            self.advance()
            if self.peek()[1] == "(":
                self.advance()
                scale = self.scalar()
                self.expect("T")
                self.expect(")")
                if scale == 0:
                    raise ExprError("argument scale must be nonzero", self.text, pos)
                return atom(0, 1, scale)
            return atom(0, 1, 1)
        if val == "e":
            self.advance()
            self.expect("^")
            self.expect("{")
            shift = self.scalar()
            self.expect("T")
            self.expect("}")
            return atom(0, 0, 1, shift)
        if val == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return inner
        if val == "d":
            self.advance()
            self.expect("[")
            inner = self.expr()
            self.expect("]")
            return derivative_of_element(inner)
        raise ExprError(f"expected a value, found {val!r}" if val else "unexpected end of input", self.text, pos)


def _element_power(base: BElement, exponent: int, parser: _Parser) -> BElement:
    if exponent >= 0:
        result = from_scalar(1)
        for _ in range(exponent):
            result = parser.product(result, base)
        return result
    if len(base.nums) != 1:
        parser.fail("negative powers are only defined for a single generator term")
    ((at, coeff),) = base.terms.items()
    return _element_power(invert_term(at, coeff), -exponent, parser)


def parse_element(text: str) -> BElement:
    """Parse an expression into a fully reduced element."""
    return _Parser(text).parse()
