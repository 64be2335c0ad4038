"""Exact univariate polynomial arithmetic over the rationals, and the renderer.

``Rational`` is an alias for :class:`fractions.Fraction`: arbitrary precision,
always stored gcd-reduced with a positive denominator, so equality is
structural.  ``Poly`` is a dense univariate polynomial over ``Rational``, stored as
integer numerators over one denominator, with an abstract indeterminate (used
for X, T and s in different contexts).
``Style`` and the helpers after it spell values as plain text or LaTeX.

Everything here is immutable and safe to share between threads.  ``Frozen`` is the base of every
value and record of the package, and ``lowest_terms`` the one rule by which each value keeps its
integer numerators over one positive denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import add, mul
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


def _ratio(value) -> tuple[int, int]:
    """The numerator and positive denominator of an exact rational, an int or a Fraction, with no
    Fraction built: the one rule by which every entry point takes a scalar, so a float is refused."""
    if isinstance(value, (int, Fraction)):
        return value.as_integer_ratio()
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _as_fraction(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(_ratio(value)[0])


_set = object.__setattr__


class Frozen:
    """Base of the package's immutable values and records.  ``__slots__`` lists the fields in the order
    the constructor takes them, then any caches, named with ``_`` (a class whose fields are views over
    private slots names them in ``_fields``); ``__init__`` sets the slots once with ``_init``, and a cache
    is filled on first read with ``_keep``.  Unless a class defines its own,
    ``==`` holds between objects of one class with equal fields, ``hash`` is the hash of the fields'
    tuple (or a last slot ``_hash``, set once), and ``repr`` shows the fields; ``copy`` and ``pickle``
    rebuild an object through its constructor from its fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("_fields") or tuple(name for name in cls.__slots__ if not name.startswith("_"))
        if cls.__slots__[-1:] == ("_hash",) and "__hash__" not in cls.__dict__:
            cls.__hash__ = _stored_hash

    def _init(self, *values) -> None:
        """Set the slots, in order, to ``values``: the fields, then any cache slots."""
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def _keep(self, name: str, value):
        """Fill the cache slot ``name`` with ``value`` and return it."""
        _set(self, name, value)
        return value

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __reduce__(self):
        return type(self), self.key()

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"


def _stored_hash(self) -> int:
    return self._hash


def lowest_terms(den: int, nums: Iterable[int]) -> int:
    """The gcd of ``den`` and the integers ``nums``, with the sign of ``den``: dividing by it leaves a
    positive denominator with no factor common to every numerator.  A zero ``den`` is refused."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    g = math.gcd(den, *nums)
    return -g if den < 0 else g


def common_numerators(values: list[Fraction]) -> tuple[int, list[int]]:
    """(d, [d * x for x in values]) for the least common denominator d."""
    d = math.lcm(*(x.denominator for x in values))
    return d, [x.numerator * (d // x.denominator) for x in values]


@property
def fraction_view(self) -> tuple[Fraction, ...]:
    """``coeffs`` of ``Poly`` and ``TruncatedSeries``: ``nums`` over ``den`` as Fractions, kept in ``_coeffs``."""
    if self._coeffs is None:
        return self._keep("_coeffs", tuple(Fraction(n, self.den) for n in self.nums))
    return self._coeffs


def subtract(self, other):
    """``self + (-other)``: the ``-`` of ``Poly``, ``BElement`` and ``WeylOp``."""
    return self + (-other)


class Poly(Frozen):
    """Dense univariate polynomial with exact rational coefficients.

    The coefficients, indexed by exponent, are stored as integer numerators ``nums`` over one
    positive denominator ``den``, with no trailing zero (the zero polynomial stores none, over 1)
    and no factor common to ``den`` and every numerator, so equal polynomials store equal
    numerators; ``coeffs`` hands them out as Fractions.
    """

    __slots__ = ("nums", "den", "_coeffs")

    def __init__(self, coeffs: Iterable = (), den: int | None = None):
        """The polynomial of the rationals ``coeffs`` or, given ``den``, of the integers ``coeffs`` over ``den``."""
        if den is None:
            den, coeffs = common_numerators([_as_fraction(c) for c in coeffs])
        end = len(coeffs)
        while end and not coeffs[end - 1]:
            end -= 1
        nums = tuple(coeffs[:end])
        if (g := lowest_terms(den, nums)) != 1:
            nums, den = tuple(n // g for n in nums), den // g
        self._init(nums, den, None)

    coeffs = fraction_view

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
        return len(self.nums) - 1 if self.nums else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self.nums

    def coeff(self, exponent: int) -> Fraction:
        if 0 <= exponent < len(self.nums):
            return self.coeffs[exponent]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:  # Frozen's, with a scalar read as a constant
        return Frozen.__eq__(self, Poly.const(other) if isinstance(other, (int, Fraction)) else other)

    def __hash__(self) -> int:
        return hash(("Poly", self.den, self.nums))

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        den = math.lcm(self.den, other.den)
        a = [v * (den // self.den) for v in self.nums]
        b = [v * (den // other.den) for v in other.nums]
        if len(a) < len(b):
            a, b = b, a
        a[: len(b)] = map(add, a, b)
        return Poly(a, den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-v for v in self.nums], self.den)

    __sub__ = subtract

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([v * other.numerator for v in self.nums], self.den * other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.nums or not other.nums:
            return Poly()
        b, size = other.nums, len(other.nums)
        out = [0] * (len(self.nums) + size - 1)
        for i, a in enumerate(self.nums):
            if a:
                out[i : i + size] = map(add, out[i : i + size], map(mul, b, repeat(a)))
        return Poly(out, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Poly":
        scalar = _as_fraction(scalar)
        if scalar == 0:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return Poly([v * scalar.denominator for v in self.nums], self.den * scalar.numerator)

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
        if ell == 1 or not self.nums:
            return self
        out = [0] * ((len(self.nums) - 1) * ell + 1)
        out[::ell] = self.nums
        return Poly(out, self.den)

    def __call__(self, x: Fraction | int) -> Fraction:
        """Horner evaluation at an exact rational point."""
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        return Poly([i * v for i, v in enumerate(self.nums)][1:], self.den)

    def integral(self) -> "Poly":
        """Antiderivative with zero constant term."""
        return Poly([Fraction(0)] + [c / (i + 1) for i, c in enumerate(self.coeffs)])

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
    lead = r0.coeffs[-1]
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
        [scaled(Fraction(v, p.den), style.power(var, i) if i else "1", style) for i, v in enumerate(p.nums) if v]
    )
