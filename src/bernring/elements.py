"""Symbolic linear combinations of the generators T^m * B(bT)^n * e^{aT}.

A :class:`BElement` is a finite Q-linear combination of :class:`Atom` terms,
stored as integer numerators over one positive denominator with no factor
common to all of them, so ``==`` and ``hash`` compare the stored form and the
arithmetic runs on integers; ``terms`` is the Fraction view.  Atoms are kept
with a positive argument scale b; constructing one with b < 0 rewrites it
through B(-T) = B(T) + T, so every stored atom is in the regime the
product-reduction algorithms expect.

Whether two elements denote the same Laurent series is a semantic question:
distinct atom combinations can (e.g. B*e^T and B + T), and ``equals`` decides
it.  The exact zero test multiplies by enough factors of (e^{bT} - 1) to clear
every B; what is left is again an element, of atoms T^m e^{aT}, and it
vanishes iff it has no terms, because distinct T^m e^{aT} are linearly
independent over Q.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering
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


#: the scale of every atom with n = 0, and the shift of a constant
_ONE, _ZERO = Fraction(1), Fraction(0)


class BElement:
    """Finite Q-linear combination of atoms; the empty combination is zero.

    The coefficients are stored as integer numerators ``nums`` {atom: numerator} over one positive
    denominator ``den``, with no zero entry (zero stores none, over 1) and no factor common to
    ``den`` and every numerator, so equal combinations store equal numerators; ``terms`` hands
    the coefficients out as Fractions.
    """

    __slots__ = ("nums", "den", "_terms", "_hash")

    def __init__(self, terms: Mapping[Atom, Fraction] | None = None, den: int | None = None):
        """The element of the rationals ``terms`` or, given ``den``, of the integers ``terms`` over ``den``."""
        terms = terms or {}
        if den is None:
            terms = {at: c if c.__class__ is Fraction else Fraction(c) for at, c in terms.items()}
            den = math.lcm(*(c.denominator for c in terms.values()))
            terms = {at: c.numerator * (den // c.denominator) for at, c in terms.items()}
        elif not den:
            raise ZeroDivisionError("element over a zero denominator")
        nums = {at: v for at, v in terms.items() if v}
        g = math.gcd(den, *nums.values())
        if den < 0:
            g = -g
        if g != 1:
            nums, den = {at: v // g for at, v in nums.items()}, den // g
        for name, value in zip(self.__slots__, (nums, den, None, None)):
            _set(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("BElement is immutable")

    @property
    def terms(self) -> dict[Atom, Fraction]:
        """The coefficients {atom: Fraction}, built on first use and kept."""
        if self._terms is None:
            _set(self, "_terms", {at: Fraction(v, self.den) for at, v in self.nums.items()})
        return self._terms

    # -- vector-space structure ---------------------------------------------

    @staticmethod
    def zero() -> "BElement":
        return BElement()

    def is_structurally_zero(self) -> bool:
        return not self.nums

    def __add__(self, other: "BElement") -> "BElement":
        den = math.lcm(self.den, other.den)
        out, f = {at: v * (den // self.den) for at, v in self.nums.items()}, den // other.den
        for at, v in other.nums.items():
            out[at] = out.get(at, 0) + v * f
        return BElement(out, den)

    def __neg__(self) -> "BElement":
        return BElement({at: -v for at, v in self.nums.items()}, self.den)

    def __sub__(self, other: "BElement") -> "BElement":
        return self + (-other)

    def scale(self, c) -> "BElement":
        c = Fraction(c)
        return BElement({at: c.numerator * v for at, v in self.nums.items()}, self.den * c.denominator)

    def __eq__(self, other) -> bool:
        """Structural equality (same atoms, same coefficients); use equals() for semantic."""
        if not isinstance(other, BElement):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        if self._hash is None:  # computed once: the element is immutable
            _set(self, "_hash", hash((self.den, frozenset(self.nums.items()))))
        return self._hash

    def mul_monomial(self, k: int, a_shift=0) -> "BElement":
        """Multiply by T^k * e^{a_shift * T}: a pure shift of every atom."""
        a_shift = Fraction(a_shift)
        return BElement({Atom(at.b, at.n, at.m + k, at.a + a_shift): v for at, v in self.nums.items()}, self.den)

    def atoms(self) -> Iterator[tuple[Atom, Fraction]]:
        return iter(sorted(self.terms.items(), key=lambda item: item[0].key()))

    # -- semantics -----------------------------------------------------------

    def expand(self, bound: int) -> TruncatedSeries:
        """The Laurent series of this element, exact to the given bound."""
        ser = TruncatedSeries.combination([(_atom_series(at, bound), 0, v) for at, v in self.nums.items()], bound)
        return ser if self.den == 1 else TruncatedSeries(ser.low, ser.nums, ser.bound, ser.den * self.den)

    def coeff(self, i: int) -> Fraction:
        """The exact T^i coefficient, read in closed form with no series built.

        From T^n e^{xT}/(e^T - 1)^n = sum_j B^(n)_j(x) T^j/j!, the atom c T^m B(bT)^n e^{aT}
        contributes c b^j B^(n)_j(a/b)/j! with j = i - m, and c a^j/j! when n = 0.  With
        a/b = p/q for p = a.num b.den and q = a.den b.num, the term is c H / (d (a.den b.den)^j j!),
        H / (d q^j) the Horner value of :func:`poly_value_numerator`.
        """
        parts = []
        for at, v in self.nums.items():
            j = i - at.m
            if j < 0:
                continue
            (an, ad), (bn, bd) = at.a.as_integer_ratio(), at.b.as_integer_ratio()
            if at.n:
                h, d = poly_value_numerator(at.n, j, an * bd, ad * bn)
            else:
                h, d = an**j, 1
            parts.append((v * h, self.den * d * (ad * bd) ** j * math.factorial(j)))
        return fraction_sum(parts)

    def to_exp_poly(self) -> tuple["BElement", str]:
        """Clear all B-factors: x*D as an element of atoms T^m e^{aT}, and a description of D.

        D = prod over distinct scales b of (e^{bT}-1)^{M_b}, M_b the largest B-power at that
        scale, is a unit multiple of a monomial in the Laurent field, and distinct T^m e^{aT}
        are linearly independent over Q; so x == 0 iff x*D has no terms.  The shifts are summed
        as integers over the lcm A of their denominators and the scales', the coefficients over
        den times the lcm of the b.den^n.
        """
        max_power: dict[Fraction, int] = {}
        for at in self.nums:
            if at.n >= 1:
                max_power[at.b] = max(max_power.get(at.b, 0), at.n)
        shift_den = math.lcm(*(at.a.denominator for at in self.nums), *(b.denominator for b in max_power))
        coeff_den = math.lcm(*(at.b.denominator**at.n for at in self.nums))
        cleared: dict[tuple[int, int], int] = {}  # (A a, m) -> coefficient of T^m e^{aT}
        for at, v in self.nums.items():
            # B(bT)^n * (e^{bT}-1)^n = (bT)^n; leftover factors expand binomially
            (bn, bd), (an, ad) = at.b.as_integer_ratio(), at.a.as_integer_ratio()
            base = {an * (shift_den // ad): v * bn**at.n * (coeff_den // bd**at.n)}
            for scale, mult in max_power.items():
                k = mult - at.n if scale == at.b else mult  # n = 0 gives mult either way
                if k == 0:
                    continue
                step, grown = scale.numerator * (shift_den // scale.denominator), {}
                for r in range(k + 1):
                    w = math.comb(k, r) * (-1) ** (k - r)
                    for shift, c in base.items():
                        grown[shift + r * step] = grown.get(shift + r * step, 0) + w * c
                base = grown
            for shift, c in base.items():
                key = (shift, at.m + at.n)
                cleared[key] = cleared.get(key, 0) + c
        terms = {Atom(_ONE, 0, m, Fraction(shift, shift_den)): c for (shift, m), c in cleared.items() if c}
        desc = " * ".join(f"(e^{{{scale}T}}-1)^{mult}" for scale, mult in sorted(max_power.items()))
        return BElement(terms, self.den * coeff_den), (desc or "1")

    def is_zero(self) -> bool:
        """Exact zero test (sound and complete on the whole space)."""
        return not self.nums or self.to_exp_poly()[0].is_structurally_zero()

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
        return BElement({Atom(_ONE, 0, m, a): 1}, 1)
    if b > 0:
        return BElement({Atom(b, n, m, a): 1}, 1)
    mag = -b  # the atoms of the binomial expansion have distinct B-powers j
    return BElement({Atom(mag if j else _ONE, j, m + n - j, a): binomial(n, j) * mag ** (n - j) for j in range(n + 1)})


def from_scalar(c) -> BElement:
    return BElement({Atom(_ONE, 0, 0, _ZERO): Fraction(c)})


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
