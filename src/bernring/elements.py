"""Symbolic linear combinations of the generators T^m * B(bT)^n * e^{aT}.

A :class:`BElement` is a finite Q-linear combination of :class:`Atom` terms.
Atoms are kept with a positive argument scale b; constructing one with b < 0
rewrites it through B(-T) = B(T) + T, so every stored atom is in the regime
the product-reduction algorithms expect.

Equality of elements is semantic, not structural: distinct atom combinations
can denote the same Laurent series (e.g. B*e^T and B + T).  The exact zero
test multiplies by enough factors of (e^{bT} - 1) to clear every B; what is
left is again an element, of atoms T^m e^{aT}, and it vanishes iff it has no
terms, because distinct T^m e^{aT} are linearly independent over Q.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import factorial
from typing import Iterator, Mapping

from .polys import TEXT, Style, binomial, join_signed, scaled
from .series import (
    TruncatedSeries,
    bernoulli_power_series,
    exp_series,
    fraction_sum,
    grown_size,
    poly_value_numerator,
)


_set = object.__setattr__


class Frozen:
    """Base of small immutable records.  ``__slots__`` names the fields and then ``_hash``, which
    the record sets once, from integers it is known by; equality compares the fields."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__[:-1])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self.key() == other.key()

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return type(self), self.key()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__slots__[:-1])})"


@total_ordering
class Atom(Frozen):
    """One generator T^m * B(bT)^n * e^{aT}.

    Ordering (b, n, m, a) is the deterministic rendering order.
    """

    __slots__ = ("b", "n", "m", "a", "_hash")

    def __init__(self, b: Fraction, n: int, m: int, a: Fraction):
        if n < 0:
            raise ValueError("B-power must be nonnegative")
        if b.numerator <= 0:  # a denominator is positive
            raise ValueError("stored atoms must have positive argument scale")
        if n == 0 and b != 1:
            raise ValueError("scale is meaningless for n = 0 atoms; use b = 1")
        _set(self, "b", b)
        _set(self, "n", n)
        _set(self, "m", m)
        _set(self, "a", a)
        _set(self, "_hash", hash((b.numerator, b.denominator, n, m, a.numerator, a.denominator)))

    def key(self) -> tuple:
        return (self.b, self.n, self.m, self.a)

    def __lt__(self, other) -> bool:
        return self.key() < other.key() if other.__class__ is Atom else NotImplemented


def _make_atom(m: int, n: int, b, a) -> Atom:
    return Atom(b=Fraction(b), n=n, m=m, a=Fraction(a))


class BElement:
    """Finite Q-linear combination of atoms; the empty combination is zero."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[Atom, Fraction] | None = None):
        cleaned: dict[Atom, Fraction] = {}
        if terms:
            for at, c in terms.items():
                if c.__class__ is not Fraction:
                    c = Fraction(c)
                if c:
                    cleaned[at] = c
        object.__setattr__(self, "terms", cleaned)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("BElement is immutable")

    # -- vector-space structure ---------------------------------------------

    @staticmethod
    def zero() -> "BElement":
        return BElement()

    def is_structurally_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "BElement") -> "BElement":
        out = dict(self.terms)
        for at, c in other.terms.items():
            out[at] = out[at] + c if at in out else c
        return BElement(out)

    def __neg__(self) -> "BElement":
        return BElement({at: -c for at, c in self.terms.items()})

    def __sub__(self, other: "BElement") -> "BElement":
        return self + (-other)

    def scale(self, c) -> "BElement":
        c = Fraction(c)
        return BElement({at: c * v for at, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        """Structural equality (same atoms, same coefficients); use equals() for semantic."""
        if not isinstance(other, BElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:  # computed once: the element is immutable
            object.__setattr__(self, "_hash", hash(frozenset(self.terms.items())))
        return self._hash

    def mul_monomial(self, k: int, a_shift=0) -> "BElement":
        """Multiply by T^k * e^{a_shift * T}: a pure shift of every atom."""
        a_shift = Fraction(a_shift)
        return BElement(
            {
                Atom(b=at.b, n=at.n, m=at.m + k, a=at.a + a_shift): c
                for at, c in self.terms.items()
            }
        )

    def atoms(self) -> Iterator[tuple[Atom, Fraction]]:
        return iter(sorted(self.terms.items(), key=lambda item: item[0].key()))

    # -- semantics -----------------------------------------------------------

    def expand(self, bound: int) -> TruncatedSeries:
        """The Laurent series of this element, exact to the given bound."""
        return TruncatedSeries.combination([(_atom_series(at, bound), 0, c) for at, c in self.terms.items()], bound)

    def coeff(self, i: int) -> Fraction:
        """The exact T^i coefficient, read in closed form with no series built.

        From T^n e^{xT}/(e^T - 1)^n = sum_j B^(n)_j(x) T^j/j!, the atom c T^m B(bT)^n e^{aT}
        contributes c b^j B^(n)_j(a/b)/j! with j = i - m, and c a^j/j! when n = 0.  With
        a/b = p/q for p = a.num b.den and q = a.den b.num, the term is c H / (d (a.den b.den)^j j!),
        H / (d q^j) the Horner value of :func:`poly_value_numerator`.
        """
        parts = []
        for at, c in self.terms.items():
            j = i - at.m
            if j < 0:
                continue
            a, b = at.a, at.b
            if at.n:
                h, d = poly_value_numerator(at.n, j, a.numerator * b.denominator, a.denominator * b.numerator)
            else:
                h, d = a.numerator**j, 1
            parts.append((c.numerator * h, c.denominator * d * (a.denominator * b.denominator) ** j * factorial(j)))
        return fraction_sum(parts)

    def to_exp_poly(self) -> tuple["BElement", str]:
        """Clear all B-factors: x*D as an element of atoms T^m e^{aT}, and a description of D.

        D = prod over distinct scales b of (e^{bT}-1)^{M_b}, M_b the largest B-power at that
        scale, is a unit multiple of a monomial in the Laurent field, and distinct T^m e^{aT}
        are linearly independent over Q; so x == 0 iff x*D has no terms.
        """
        max_power: dict[Fraction, int] = {}
        for at in self.terms:
            if at.n >= 1:
                max_power[at.b] = max(max_power.get(at.b, 0), at.n)
        cleared: dict[tuple[Fraction, int], Fraction] = {}
        for at, c in self.terms.items():
            # B(bT)^n * (e^{bT}-1)^n = (bT)^n; leftover factors expand binomially
            base: dict[Fraction, Fraction] = {at.a: c * at.b**at.n}
            for scale, mult in max_power.items():
                k = mult - at.n if scale == at.b else mult  # n = 0 gives mult either way
                if k == 0:
                    continue
                grown: dict[Fraction, Fraction] = {}
                for r in range(k + 1):
                    w = binomial(k, r) * (-1) ** (k - r)
                    for shift, coeff in base.items():
                        key = shift + r * scale
                        grown[key] = grown.get(key, Fraction(0)) + w * coeff
                base = grown
            for shift, coeff in base.items():
                key = (shift, at.m + at.n)
                cleared[key] = cleared.get(key, Fraction(0)) + coeff
        desc = " * ".join(
            f"(e^{{{scale}T}}-1)^{mult}" for scale, mult in sorted(max_power.items())
        )
        return BElement({Atom(Fraction(1), 0, m, a): c for (a, m), c in cleared.items()}), (desc or "1")

    def is_zero(self) -> bool:
        """Exact zero test (sound and complete on the whole space)."""
        return not self.terms or self.to_exp_poly()[0].is_structurally_zero()

    def equals(self, other: "BElement") -> bool:
        """Semantic equality: the two elements denote the same Laurent series."""
        return (self - other).is_zero()

    # -- rendering -----------------------------------------------------------

    def render(self, style: Style = TEXT) -> str:
        return join_signed([scaled(c, render_atom(at, style), style) for at, c in self.atoms()])

    def __repr__(self) -> str:
        return f"<BElement {self.render()}>"


def render_atom(at: Atom, style: Style = TEXT) -> str:
    """``T^m*B(bT)^n*e^{aT}`` with trivial factors left out; ``1`` for the unit atom."""

    def times_t(value: Fraction) -> str:
        return "T" if value == 1 else f"{style.rational(value)}T"

    factors = []
    if at.m != 0:
        factors.append(style.power("T", at.m))
    if at.n >= 1:
        factors.append(style.power("B" if at.b == 1 else f"B({times_t(at.b)})", at.n))
    if at.a != 0:
        factors.append(f"e^{{{times_t(at.a)}}}")
    return style.times.join(factors) or "1"


# -- construction ------------------------------------------------------------


def atom(m: int, n: int, b, a=0) -> BElement:
    """Element for T^m * B(bT)^n * e^{aT}, normalizing negative scales away.

    For b < 0 the identity B(-T) = B(T) + T turns B(bT)^n into the binomial
    expansion of (B(|b|T) + |b|T)^n, so the result may have several atoms.
    """
    b, a = Fraction(b), Fraction(a)
    if b == 0:
        raise ValueError("argument scale b must be nonzero")
    if n == 0:
        return BElement({_make_atom(m, 0, 1, a): Fraction(1)})
    if b > 0:
        return BElement({_make_atom(m, n, b, a): Fraction(1)})
    mag = -b  # the atoms of the binomial expansion have distinct B-powers j
    return BElement({_make_atom(m + n - j, j, mag if j else 1, a): binomial(n, j) * mag ** (n - j) for j in range(n + 1)})


def from_scalar(c) -> BElement:
    return BElement({_make_atom(0, 0, 1, 0): Fraction(c)})


def b_element() -> BElement:
    """The series B itself as an element."""
    return atom(0, 1, 1)


def t_element(power: int = 1) -> BElement:
    return atom(power, 0, 1)


# -- series cache ------------------------------------------------------------

_SERIES_CACHE: dict[tuple[Fraction, int], TruncatedSeries] = {}


def _cached_series(c: Fraction, n: int, bound: int) -> TruncatedSeries:
    """B(cT)^n for n >= 1 and e^{cT} for n = 0, kept grown by grown_size and cut to the bound."""
    cached = _SERIES_CACHE.get((c, n))
    if cached is None or cached.bound < bound:
        work = grown_size(cached.bound if cached is not None else 0, bound)
        cached = bernoulli_power_series(n, work).scale_arg(c) if n else exp_series(c, work)
        _SERIES_CACHE[(c, n)] = cached
    return cached.truncate(bound)


def _atom_series(at: Atom, bound: int) -> TruncatedSeries:
    work = bound - at.m
    if work < 0:  # T^m times a power series has no term up to the bound
        return TruncatedSeries.zero(bound)
    if at.n == 0:
        return _cached_series(at.a, 0, work).shift(at.m)
    ser = _cached_series(at.b, at.n, work)
    if at.a != 0:
        ser = ser * _cached_series(at.a, 0, work)
    return ser.shift(at.m)
