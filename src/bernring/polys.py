"""Exact univariate polynomial arithmetic over the rationals, and the renderer.

``Rational`` is an alias for :class:`fractions.Fraction`: arbitrary precision,
always stored gcd-reduced with a positive denominator, so equality is
structural.  ``Poly`` is a dense univariate polynomial over ``Rational`` with
an abstract indeterminate (used for X, T and s in different contexts).
``Style`` and the helpers after it spell values as plain text or LaTeX.

Everything here is immutable and safe to share between threads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Rational = Fraction

#: degree of the zero polynomial
NEG_INFINITY = -math.inf


def binomial(n: int, k: int) -> Fraction:
    """Exact binomial coefficient, zero outside the triangle (k < 0 or k > n)."""
    if k < 0 or k > n:
        return Fraction(0)
    return Fraction(math.comb(n, k))


def factorial(n: int) -> Fraction:
    return Fraction(math.factorial(n))


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class Poly:
    """Dense univariate polynomial with Fraction coefficients.

    Coefficients are indexed by exponent; the highest stored coefficient is
    nonzero (the zero polynomial stores an empty tuple).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly([1])

    @staticmethod
    def const(c: Fraction | int) -> "Poly":
        return Poly([c])

    @staticmethod
    def monomial(exponent: int, coeff: Fraction | int = 1) -> "Poly":
        if exponent < 0:
            raise ValueError("monomial exponent must be nonnegative")
        return Poly([0] * exponent + [coeff])

    @staticmethod
    def X() -> "Poly":
        return Poly([0, 1])

    @property
    def degree(self) -> int | float:
        """Degree, with -inf as the marker for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, exponent: int) -> Fraction:
        if 0 <= exponent < len(self.coeffs):
            return self.coeffs[exponent]
        return Fraction(0)

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("Poly", self.coeffs))

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Poly":
        scalar = _as_fraction(scalar)
        if scalar == 0:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return Poly([c / scalar for c in self.coeffs])

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Euclidean division: self = other * quot + rem, deg rem < deg other."""
        if not isinstance(other, Poly):
            other = Poly.const(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(other.coeffs) - 1
        lead = other.coeffs[-1]
        quot = [Fraction(0)] * max(len(rem) - dq, 0)
        for i in range(len(rem) - dq - 1, -1, -1):
            c = rem[i + dq]
            if c == 0:
                continue
            q = c / lead
            quot[i] = q
            for j, b in enumerate(other.coeffs):
                rem[i + j] -= q * b
        return Poly(quot), Poly(rem)

    def exact_div(self, other: "Poly") -> "Poly":
        """Division that must leave no remainder."""
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def compose_power(self, ell: int) -> "Poly":
        """Substitute X -> X^ell."""
        if ell < 1:
            raise ValueError("compose_power requires ell >= 1")
        if ell == 1 or not self.coeffs:
            return self
        out = [Fraction(0)] * ((len(self.coeffs) - 1) * ell + 1)
        for i, c in enumerate(self.coeffs):
            out[i * ell] = c
        return Poly(out)

    def __call__(self, x: Fraction | int) -> Fraction:
        """Horner evaluation at an exact rational point."""
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def integral(self) -> "Poly":
        """Antiderivative with zero constant term."""
        return Poly([Fraction(0)] + [c / (i + 1) for i, c in enumerate(self.coeffs)])

    def shift(self, k: int) -> "Poly":
        """Multiply by X^k (k >= 0)."""
        if k < 0:
            raise ValueError("negative shift")
        if not self.coeffs:
            return self
        return Poly((Fraction(0),) * k + self.coeffs)

    def trailing_valuation(self) -> int:
        """Lowest exponent with a nonzero coefficient (0 for the zero poly)."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return 0

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)})"


def gcd_ext(p: Poly, q: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: returns (g, u, v) with g = gcd(p, q) monic and u*p + v*q = g."""
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd of two zero polynomials is undefined")
    r0, r1 = p, q
    u0, u1 = Poly.one(), Poly.zero()
    v0, v1 = Poly.zero(), Poly.one()
    while not r1.is_zero():
        quot, rem = divmod(r0, r1)
        r0, r1 = r1, rem
        u0, u1 = u1, u0 - quot * u1
        v0, v1 = v1, v0 - quot * v1
    lead = r0.leading
    return r0 / lead, u0 / lead, v0 / lead


def x_power_minus_one(n: int) -> Poly:
    """X^n - 1."""
    if n < 1:
        raise ValueError("x_power_minus_one requires n >= 1")
    return Poly([-1] + [0] * (n - 1) + [1])


class Style:
    """How rendered values are spelled: plain text (``TEXT``) or LaTeX (``LATEX``)."""

    def __init__(self, latex: bool):
        self.latex = latex

    @property
    def times(self) -> str:
        return "" if self.latex else "*"

    def rational(self, x: Fraction) -> str:
        if not self.latex or x.denominator == 1:
            return str(x)
        sign = "-" if x < 0 else ""
        return f"{sign}\\frac{{{abs(x.numerator)}}}{{{x.denominator}}}"

    def power(self, base: str, k: int) -> str:
        """``base^k``, or plain ``base`` for k = 1."""
        if k == 1:
            return base
        return f"{base}^{{{k}}}" if self.latex else f"{base}^{k}"

    def bracket(self, body: str) -> str:
        return f"\\left({body}\\right)" if self.latex else f"({body})"

    def d(self, k: int) -> str:
        """The k-th derivative in T, k >= 1."""
        if self.latex:
            return f"\\frac{{{self.power('d', k)}}}{{{self.power('dT', k)}}}"
        return self.power("d", k)


TEXT = Style(latex=False)
LATEX = Style(latex=True)


def scaled(c: Fraction, body: str, style: Style = TEXT) -> str:
    """``c`` times ``body`` with a unit coefficient dropped; ``body`` "1" gives ``c`` alone."""
    if body == "1":
        return style.rational(c)
    mag = "" if abs(c) == 1 else style.rational(abs(c)) + style.times
    return ("-" if c < 0 else "") + mag + body


def join_signed(chunks: Sequence[str]) -> str:
    """``a + b - c`` from the chunks ``a``, ``b``, ``-c``; ``0`` if there are none."""
    if not chunks:
        return "0"
    rest = (f" - {c[1:]}" if c.startswith("-") else f" + {c}" for c in chunks[1:])
    return chunks[0] + "".join(rest)


def format_poly(p: Poly, var: str = "X", style: Style = TEXT) -> str:
    """Render ascending by exponent, e.g. ``-1/2 + 1/3*X^2``."""
    return join_signed(
        [scaled(c, style.power(var, i) if i else "1", style) for i, c in enumerate(p.coeffs) if c]
    )
