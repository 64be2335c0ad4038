"""A small expression grammar for elements, used by the command line.

Supported constructs (whitespace-insensitive)::

    expr    := term (('+' | '-') term)*
    term    := unary ('*' unary)*
    unary   := '-'* power
    power   := primary ('^' exponent)?
    primary := RATIONAL | 'T' | 'B' ['(' scalar 'T' ')']
             | 'e' '^' '{' scalar 'T' '}' | '(' expr ')' | 'd' '[' expr ']'

A RATIONAL ``p`` or ``p/q`` has at most ``MAX_RATIONAL_DIGITS`` digits in each part, and a
``scalar`` is an optionally signed RATIONAL (defaulting to 1), so ``B(2T)``,
``B(-3/2T)``, ``e^{T}`` and ``e^{-1/2T}`` all parse.  ``d[...]`` takes the
derivative of the enclosed element, nested at most ``MAX_DERIVATIVE_DEPTH``
deep, and ``(...)`` and ``d[...]`` together nest at most ``MAX_NESTING_DEPTH``
deep.  Exponents are integers of absolute value at most ``MAX_EXPONENT``,
optionally braced or parenthesized; a negative exponent is accepted on a
single-atom base (it inverts T-powers, exponentials and B-factors exactly).  A
power of one atom whose T-power or coefficient size is past ``MAX_POWER_SIZE``
is refused before it is formed.  A product whose operands' largest B-powers add up to more than
``MAX_PRODUCT_POWER``, or with a pair of atoms of distinct scales whose rewrite
measure is past ``MAX_PRODUCT_MEASURE``, is refused before it is reduced; a
power counts as the product of its factors one at a time.  So is a product past ``MAX_PRODUCT_PAIRS``
atom pairs or ``MAX_REWRITE_WORK`` rewrite work, each counted over all products of the parse.
A parsed element whose T-power weight is past ``MAX_T_POWER_WEIGHT``, or whose numerators have more
bits in all than ``MAX_COEFFICIENT_BITS``, is refused.

Multiplication of elements is the exact ring product (fully reduced), so every
parsed expression is again a plain element.  A power of one atom is read in closed form, and the
monomial factors c T^k e^{aT} of a term ride in the last factor of its last product into ``product_reduce``.
"""

from __future__ import annotations

import math
import re

from .elements import Atom, BElement, _atom, _new, _reduced, atom, from_scalar, times_monomial
from .reduction import invert_term, product_reduce
from .weyl import derivative_of_element

#: the largest exponent (in absolute value) after ``^``
MAX_EXPONENT = 6

#: the most digits in a numerator or denominator, of a number in an expression or a rational argument of
#: the command line.  ``bern poly 1000`` at a 20-digit/20-digit point prints about 42,000 characters in
#: 0.35 s; uncapped, ``reduce product "(e^{<number>T}+B)^6*B(2T)" --to-first-order`` at 20,000 digits
#: printed 6.3 MB in 6.4 s (a single cold run; Python 3.11 on a shared 2-core x86_64 host)
MAX_RATIONAL_DIGITS = 20

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

#: the most atom pairs that the products of one parse multiply, all products counted.  ``(B(2T)*(e^{T}+...
#: +e^{NT}))*(B(3T)*(e^{1/7T}+...+e^{N/7T}))`` makes N^2 + 2N: N = 800 took 35.7 s before the cap; N = 140
#: (19,880), the slowest of these accepted, takes 0.5-0.85 s as a cold ``reduce product`` (single runs;
#: Python 3.11 on a shared 2-core x86_64 host).  A pair counts one here; ``MAX_REWRITE_WORK`` weighs its rewrite
MAX_PRODUCT_PAIRS = 20_000

#: the most rewrite work of the products of one parse, measure^2 for each row ``product_reduce`` rewrites
#: (``_rows``): a row takes 0.03 s at measure 144, 0.04-0.07 s at 174 and 0.27-0.29 s at 600.  Each shift of
#: ``B(2/3T)^6*(e^{1/13T}+...+e^{1/(12+N)T})*B(7/4T)^6`` is a row at 174: N = 16 (484,416) takes 0.63-0.65 s,
#: N = 17 is refused (the pair cap let 10,000 through), and ``(B(2T)+B(3T)+...+B(13T))^6`` (324,310) takes
#: 0.09-0.13 s (in-process, best and worst of three; Python 3.11 on a shared 2-core x86_64 host)
MAX_REWRITE_WORK = 500_000

#: the largest |T-power| k |m|, and coefficient size k (bits of the numerator or denominator of c), of a power
#: (c T^m ...)^k of one atom, read in closed form: nested ``(...)^6`` multiply them by 6 a level.  Before the cap,
#: seven levels of ``T`` (279,936) times ``B^6`` took 3.5 s as a cold ``reduce product ... --to-first-order``
#: command and of ``2`` (279,942) 0.27 s; eight levels, 20 s and 4.4 s; nine levels of ``2`` ran past 60 s, and
#: twelve of ``T`` times ``B`` asked ``_lowered`` for a list of 2.2 billion entries.  Six levels (46,656 and
#: 46,662) take 0.55 s and 0.12 s (single runs; Python 3.11 on a shared 2-core x86_64 host)
MAX_POWER_SIZE = 100_000

#: the largest sum of |T-power| over the atoms of a parsed element, as first-order operators hold rows from T^0:
#: ``B(2/3T)^6*B(7/4T)^6`` times 216, 280 and 1,296 ``T^6`` (3,086,480, 3,995,792 and 18,431,120) takes 1.3, 2.0 and
#: 6.3 s as a cold ``reduce product ... --to-first-order`` (single runs; Python 3.11 on a shared 2-core x86_64 host)
MAX_T_POWER_WEIGHT = 4_000_000

#: the most bits of the parsed element's numerators in all: ``*`` chains of monomials put a coefficient in every atom
#: past the power caps.  ``(((((2)^6)^6)^6)^6)^6*B(2/3T)^6*B(7/4T)^6`` (18,634,969) takes 2.0 s as a cold ``reduce
#: product ... --to-first-order`` (3.0 s as JSON), one more level (110,702,809) 44 s, and three ``((((2)^6)^6)^6)^6``
#: before the product (9,428,185) 0.9 s (1.6 s) (single runs; Python 3.11 on a shared 2-core x86_64 host)
MAX_COEFFICIENT_BITS = 10_000_000

#: the deepest nesting of ``d[...]``.  Each derivative raises the B-power by one and widens the
#: T-powers, and no product cap sees a derivative alone.  Of the inputs tried, the slowest accepted,
#: six ``d[`` around ``B(2/3T)^6*B(7/4T)^6``, takes 1.3 s as a cold ``reduce product ...
#: --to-first-order`` command (2.0 s with ``--format json``); before the cap, 8 deep took 2.1 s, 12
#: deep 4.4 s and 24 deep 22 s (best of three or single runs in fresh interpreters; Python 3.11 on a
#: shared 2-core x86_64 host)
MAX_DERIVATIVE_DEPTH = 6

#: the deepest nesting of ``(...)`` and ``d[...]`` together.  The parser descends five Python frames
#: per level, so at Python's default recursion limit of 1,000 a cold ``reduce product`` command
#: parsed 195 levels and 197 ended in a ``RecursionError``; the cap keeps every accepted input, and
#: a parse called from a deeper stack, clear of that limit
MAX_NESTING_DEPTH = 100


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

_KINDS = (None, "number", "name", "symbol")


def _tokenize(text: str):
    """The tokens (kind, value, start) of ``text``, in one pass of matches that each start where the
    last ended; at the first character no token starts with, the scan stops and it is refused."""
    tokens, pos = [], 0
    for match in _TOKEN_RE.finditer(text):
        if match.start() != pos:
            break
        group = match.lastindex
        tokens.append((_KINDS[group], match[group], match.start(group)))
        pos = match.end()
    stripped = text[pos:].lstrip()
    if stripped:
        raise ExprError(f"unexpected character {stripped[0]!r}", text, len(text) - len(stripped))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0  # of the d[...] the cursor is in
        self.nesting = 0  # of the (...) and d[...] the cursor is in
        self.pairs = 0  # of atoms, multiplied by product_reduce so far in this parse
        self.work = 0  # of those products, measure^2 a row (_rows)

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
        if (weight := sum(abs(at.m) for at in value.nums)) > MAX_T_POWER_WEIGHT:
            self.fail(f"T-power weight {weight} of the element is past the cap of {MAX_T_POWER_WEIGHT}")
        if (bits := sum(map(int.bit_length, value.nums.values()))) > MAX_COEFFICIENT_BITS:
            self.fail(f"coefficient size {bits} bits of the element is past the cap of {MAX_COEFFICIENT_BITS}")
        return value

    def expr(self) -> BElement:
        value = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> BElement:
        """A product of factors, one pass over the atoms of each product: a B-factor is held back until the next
        arrives or the term ends, then multiplied in by ``product_reduce`` with the term's monomials c T^k e^{aT} so far
        folded into it.  Caps and counts are taken as each factor comes; a monomial shifts every atom alike, so it
        moves none of them; one after a product skips ``check_caps``, as no product's B-power passes its operands'."""
        rest = last = monomial = caps = None  # the term so far is rest * last * monomial, rest None while last is alone
        factor = self.unary()
        while True:
            if len(factor.nums) == 1 and next(iter(factor.nums)).n == 0:
                if rest is None and last is not None and caps is None:  # once, as no monomial moves the B-power
                    self.check_caps(caps := _scales(last), {})
                monomial = times_monomial(monomial, factor) if monomial else factor
            elif last is None:
                if monomial:  # after a '*'
                    self.check_caps({}, caps := _scales(factor))
                last = factor
            else:
                if rest is not None:
                    last, monomial = product_reduce(rest, times_monomial(last, monomial) if monomial else last), None
                self.check_caps(rest_caps := _scales(last), caps := _scales(factor))
                self.count(last, factor, rest_caps, caps)
                rest, last = last, factor
            if self.peek()[1] != "*":
                break
            self.advance()
            factor = self.unary()
        if last is None:
            return monomial
        last = times_monomial(last, monomial) if monomial else last
        return last if rest is None else product_reduce(rest, last)

    def check_caps(self, xs: dict, ys: dict) -> None:
        """Refuse the product of two operands, given by their ``_scales``, if it is past
        ``MAX_PRODUCT_POWER`` or ``MAX_PRODUCT_MEASURE``."""
        total = sum(max((n for _, _, n in z), default=0) for z in (xs, ys))
        if total > MAX_PRODUCT_POWER:
            self.fail(f"B-power {total} of a product is past the cap of {MAX_PRODUCT_POWER}")
        measure = max((_measure(s, t) for s in xs for t in ys if s[:2] != t[:2]), default=0)
        if measure > MAX_PRODUCT_MEASURE:
            self.fail(f"rewrite measure {measure} of a product is past the cap of {MAX_PRODUCT_MEASURE}")

    def count(self, x: BElement, y: BElement, xs: dict, ys: dict) -> None:
        """Count x*y, of ``_scales`` xs and ys, refused past ``MAX_PRODUCT_PAIRS``, then ``MAX_REWRITE_WORK``."""
        self.pairs += len(x.nums) * len(y.nums)
        if self.pairs > MAX_PRODUCT_PAIRS:
            self.fail(f"atom-pair count {self.pairs} of the products is past the cap of {MAX_PRODUCT_PAIRS}")
        self.work += sum(_rows(sa, ta, math.lcm(s[1], t[1])) * _measure(s, t) ** 2
                         for s, sa in xs.items() for t, ta in ys.items() if s[:2] != t[:2])
        if self.work > MAX_REWRITE_WORK:
            self.fail(f"rewrite work {self.work} of the products is past the cap of {MAX_REWRITE_WORK}")

    def unary(self) -> BElement:
        """A power after a run of minuses, read in a loop so that no run is too long to parse."""
        negate = False
        while self.peek()[1] == "-":
            self.advance()
            negate = not negate
        value = self.power()
        return -value if negate else value

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
        digits = val.lstrip("0")  # counted, as in number(), so that no integer is read from a long one
        if len(digits) > 40:
            raise ExprError(f"{len(digits)}-digit exponent is past the cap of {MAX_EXPONENT}", self.text, pos)
        if (value := int(digits or "0")) > MAX_EXPONENT:
            raise ExprError(f"exponent {sign * value} is past the cap of {MAX_EXPONENT}", self.text, pos)
        self.advance()
        if closing:
            self.expect(closing)
        return sign * value

    def number(self) -> tuple[int, int]:
        """The ``p`` or ``p/q`` literal at the cursor as an integer pair in lowest terms; a zero denominator, or a part
        past ``MAX_RATIONAL_DIGITS`` digits (counted, so that no integer is read from a long one), is refused there."""
        _, val, pos = self.advance()
        num, slash, den = (part.lstrip("0") for part in val.partition("/"))  # int() reads no leading zero
        digits = max(len(num), len(den))
        if digits > MAX_RATIONAL_DIGITS:
            raise ExprError(f"{digits}-digit number is past the cap of {MAX_RATIONAL_DIGITS} digits", self.text, pos)
        if slash and not den:
            raise ExprError(f"zero denominator in {val!r}", self.text, pos)
        return _reduced(int(num or "0"), int(den or "1"))

    def scalar(self) -> tuple[int, int]:
        """An optionally signed literal, 1 if there is none, as an integer pair in lowest terms."""
        sign = 1
        if self.peek()[1] == "-":
            self.advance()
            sign = -1
        num, den = self.number() if self.peek()[0] == "number" else (1, 1)
        return sign * num, den

    def primary(self) -> BElement:
        kind, val, pos = self.peek()
        if kind == "number":
            num, den = self.number()
            return BElement({_new(Atom, (1, 1, 0, 0, 0, 1)): num}, den)
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
                if not scale[0]:
                    raise ExprError("argument scale must be nonzero", self.text, pos)
                return _atom(0, 1, *scale, 0, 1)
            return atom(0, 1, 1)
        if val == "e":
            self.advance()
            self.expect("^")
            self.expect("{")
            shift = self.scalar()
            self.expect("T")
            self.expect("}")
            return _atom(0, 0, 1, 1, *shift)
        if val == "(" or val == "d":
            derivative = val == "d"
            if derivative and self.depth == MAX_DERIVATIVE_DEPTH:
                self.fail(f"derivative depth {self.depth + 1} is past the cap of {MAX_DERIVATIVE_DEPTH}")
            if self.nesting == MAX_NESTING_DEPTH:
                self.fail(f"nesting depth {self.nesting + 1} is past the cap of {MAX_NESTING_DEPTH}")
            self.advance()
            if derivative:
                self.expect("[")
            self.depth += derivative
            self.nesting += 1
            inner = self.expr()
            self.depth -= derivative
            self.nesting -= 1
            self.expect("]" if derivative else ")")
            return derivative_of_element(inner) if derivative else inner
        raise ExprError(f"expected a value, found {val!r}" if val else "unexpected end of input", self.text, pos)


def _element_power(base: BElement, exponent: int, parser: _Parser) -> BElement:
    if exponent < 0:
        if len(base.nums) != 1:
            parser.fail("negative powers are only defined for a single generator term" if base.nums
                        else "zero has no negative power")
        ((at, coeff),) = base.terms.items()
        base, exponent = invert_term(at, coeff), -exponent
    if len(base.nums) != 1:
        result, caps = from_scalar(1), _scales(base)
        for _ in range(exponent):
            parser.check_caps(summary := _scales(result), caps)
            parser.count(result, base, summary, caps)
            result = product_reduce(result, base)
        return result
    # (c T^m B(bT)^n e^{aT})^k = c^k T^(km) B(bT)^(kn) e^{kaT}, refused where the products one factor
    # at a time would be: at the first step past the cap, B(bT)^(n floor(cap / n)) times B(bT)^n
    ((bn, bd, n, m, an, ad), v), = base.nums.items()
    k = exponent
    if n * k > MAX_PRODUCT_POWER:
        parser.check_caps({(bn, bd, MAX_PRODUCT_POWER // n * n): []}, {(bn, bd, n): []})
    if abs(m * k) > MAX_POWER_SIZE:
        parser.fail(f"T-power {m * k} of a power is past the cap of {MAX_POWER_SIZE}")
    if (size := k * max(abs(v).bit_length(), base.den.bit_length())) > MAX_POWER_SIZE:
        parser.fail(f"coefficient size {size} bits of a power is past the cap of {MAX_POWER_SIZE}")
    if not n * k:  # an atom with n = 0 has b = 1
        bn = bd = 1
    return BElement({_new(Atom, (bn, bd, n * k, m * k, *_reduced(an * k, ad))): v**k}, base.den**k)


def _scales(x: BElement) -> dict:
    """The cap summary of x: the (m, an, ad) of its atoms with n >= 1, by scale and B-power (bn, bd, n)."""
    summary: dict = {}
    for bn, bd, n, m, an, ad in x.nums:
        if n:
            summary.setdefault((bn, bd, n), []).append((m, an, ad))
    return summary


def _measure(x: tuple, y: tuple) -> int:
    """q (b1 n1 + b2 n2) of B(b1 T)^n1 and B(b2 T)^n2 given as (p1, d1, n1) and (p2, d2, n2), q = lcm(d1, d2)."""
    (p1, d1, n1), (p2, d2, n2) = x, y
    return math.lcm(d1, d2) * (p1 * n1 * d2 + p2 * n2 * d1) // (d1 * d2)


def _rows(xa: list, ya: list, q: int) -> int:
    """At most how many rows of ``product_reduce``, one T-power m1 + m2 and one shift a1 + a2 mod 1/q each, the pairs
    of atoms (m, an, ad) of xa and ya fall on, q the lcm of their two scales' denominators."""
    return math.prod(len({(m, _reduced(an * q % ad, ad)) for m, an, ad in atoms}) for atoms in (xa, ya))


def parse_element(text: str) -> BElement:
    """Parse an expression into a fully reduced element."""
    return _Parser(text).parse()
