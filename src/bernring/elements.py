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
it.  As the stored form is canonical, equal stored forms settle it at once;
only distinct ones are subtracted and put to the zero test.  The exact zero
test multiplies by enough factors of (e^{bT} - 1) to clear every B, in
integers; what is left is a sum of terms T^m e^{aT}, and it vanishes iff every
coefficient is 0, because distinct T^m e^{aT} are linearly independent over Q.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .polys import TEXT, Frozen, Style, _as_fraction, _ratio, join_signed, lowest_terms, scaled, subtract
from .series import (
    TruncatedSeries,
    bernoulli_power_series,
    exp_series,
    fraction_sum,
    grown_size,
    poly_value_numerator,
)


_new = tuple.__new__


def _by_key(compare):
    """The comparison ``compare`` of two atoms' keys."""
    return lambda self, other: compare(self.key(), other.key()) if other.__class__ is Atom else NotImplemented


class Atom(namedtuple("_AtomFields", "bn bd n m an ad")):
    """One generator T^m * B(bT)^n * e^{aT}, stored as the integers of b = bn/bd and a = an/ad in lowest
    terms with bd, ad > 0, so ``==`` and ``hash`` are the six integers' and build no Fraction; ``b`` and
    ``a`` are Fraction views, built on each read.  The library builds atoms of reduced pairs straight
    from the integers, ``_new(Atom, (bn, bd, n, m, an, ad))``.

    Ordering (b, n, m, a) is the deterministic rendering order.
    """

    __slots__ = ()

    def __new__(cls, b: Fraction, n: int, m: int, a: Fraction):
        if n < 0:
            raise ValueError("B-power must be nonnegative")
        (bn, bd), (an, ad) = _ratio(b), _ratio(a)
        if bn <= 0:  # a denominator is positive
            raise ValueError("stored atoms must have positive argument scale")
        if n == 0 and bn != bd:
            raise ValueError("scale is meaningless for n = 0 atoms; use b = 1")
        return _new(cls, (bn, bd, n, m, an, ad))

    b = property(lambda self: Fraction(self.bn, self.bd))
    a = property(lambda self: Fraction(self.an, self.ad))

    def key(self) -> tuple:
        return (self.b, self.n, self.m, self.a)

    __lt__, __le__, __gt__, __ge__ = map(_by_key, (operator.lt, operator.le, operator.gt, operator.ge))

    def __reduce__(self):
        return Atom, self.key()

    def __repr__(self) -> str:
        return f"Atom(b={self.b!r}, n={self.n!r}, m={self.m!r}, a={self.a!r})"


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num/den, den > 0, as an integer pair in lowest terms."""
    g = math.gcd(num, den)
    return (num // g, den // g) if g != 1 else (num, den)


def _shift_product(row: Mapping[int, int], terms: Iterable[tuple[int, int]]) -> dict[int, int]:
    """A sparse row {power of X: integer} times the polynomial sum v X^d of the integer terms (d, v), one term at
    a time, so it costs the product of the two term counts, not the span of the powers.  Entries can cancel to 0."""
    out: dict[int, int] = {}
    for d, v in terms:
        for shift, c in row.items():
            out[shift + d] = out.get(shift + d, 0) + v * c
    return out


def _times_exp_minus_one(row: Mapping[int, int], step: int, k: int) -> dict[int, int]:
    """The terms {A a: c} of sum c e^{aT} times (e^{bT}-1)^k = sum C(k, r) (-1)^(k-r) X^(r step), step = A b."""
    return _shift_product(row, [(r * step, math.comb(k, r) * (-1) ** (k - r)) for r in range(k + 1)])


class BElement(Frozen):
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
            terms = {at: _as_fraction(c) for at, c in terms.items()}
            den = math.lcm(*(c.denominator for c in terms.values()))
            terms = {at: c.numerator * (den // c.denominator) for at, c in terms.items()}
        nums = {at: v for at, v in terms.items() if v}
        if (g := lowest_terms(den, nums.values())) != 1:
            nums, den = {at: v // g for at, v in nums.items()}, den // g
        self._init(nums, den, None, None)

    @property
    def terms(self) -> dict[Atom, Fraction]:
        """The coefficients {atom: Fraction}, built on first use and kept."""
        if self._terms is None:
            return self._keep("_terms", {at: Fraction(v, self.den) for at, v in self.nums.items()})
        return self._terms

    # -- vector-space structure ---------------------------------------------

    @staticmethod
    def zero() -> "BElement":
        return BElement()

    def __add__(self, other: "BElement") -> "BElement":
        den = math.lcm(self.den, other.den)
        out, f = {at: v * (den // self.den) for at, v in self.nums.items()}, den // other.den
        for at, v in other.nums.items():
            out[at] = out.get(at, 0) + v * f
        return BElement(out, den)

    def __neg__(self) -> "BElement":
        return BElement({at: -v for at, v in self.nums.items()}, self.den)

    __sub__ = subtract

    def scale(self, c) -> "BElement":
        num, den = _ratio(c)
        return BElement({at: num * v for at, v in self.nums.items()}, self.den * den)

    def __hash__(self):
        if self._hash is None:  # computed once: the element is immutable
            return self._keep("_hash", hash((self.den, frozenset(self.nums.items()))))
        return self._hash

    def mul_monomial(self, k: int, a_shift=0) -> "BElement":
        """Multiply by T^k * e^{a_shift T}, a_shift an int or a Fraction: a pure shift of every atom."""
        return times_monomial(self, atom(k, 0, 1, a_shift))

    def atoms(self) -> Iterator[tuple[Atom, Fraction]]:
        return iter(sorted(self.terms.items(), key=lambda item: item[0].key()))

    # -- semantics -----------------------------------------------------------

    def expand(self, bound: int) -> TruncatedSeries:
        """The Laurent series of this element, exact to the given bound.  A cached series enters the sum uncut,
        its atom's T-power the offset, so only the two operands of a product are cut to the bound."""
        ser = TruncatedSeries.combination([(*_atom_part(at, bound), v) for at, v in self.nums.items()], bound)
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
            bn, bd, n, _, an, ad = at
            if n:
                h, d = poly_value_numerator(n, j, an * bd, ad * bn)
            else:
                h, d = an**j, 1
            parts.append((v * h, self.den * d * (ad * bd) ** j * math.factorial(j)))
        return fraction_sum(parts)

    def _cleared(self) -> tuple[dict[tuple[int, int], int], int, int]:
        """x*D in integers: the map (A a, m) -> c with x*D = sum (c / d) T^m e^{aT}, and A and d.  D = prod
        over the scales b of (e^{bT}-1)^{M_b}, M_b the largest B-power at b, is a unit times a monomial in the
        Laurent field and the T^m e^{aT} are linearly independent over Q, so x == 0 iff every c is 0.  A is the
        lcm of the shifts' and scales' denominators, d = den times the lcm of the b.den^n."""
        max_power: dict[tuple[int, int], int] = {}  # by the scale as an integer pair
        for at in self.nums:
            if at.n >= 1:
                max_power[at.bn, at.bd] = max(max_power.get((at.bn, at.bd), 0), at.n)
        shift_den = math.lcm(*(at.ad for at in self.nums), *(bd for _, bd in max_power))
        coeff_den = math.lcm(*(at.bd**at.n for at in self.nums))
        cleared: dict[tuple[int, int], int] = {}
        for (bn, bd, n, m, an, ad), v in self.nums.items():
            # B(bT)^n * (e^{bT}-1)^n = (bT)^n; the leftover factors are expanded
            row = {an * (shift_den // ad): v * bn**n * (coeff_den // bd**n)}
            for (sn, sd), mult in max_power.items():  # n = 0 leaves mult factors at every scale
                row = _times_exp_minus_one(row, sn * (shift_den // sd), mult - n if (sn, sd) == (bn, bd) else mult)
            for shift, c in row.items():
                cleared[shift, m + n] = cleared.get((shift, m + n), 0) + c
        return cleared, shift_den, self.den * coeff_den

    def is_zero(self) -> bool:
        """Exact zero test (sound and complete on the whole space)."""
        return not any(self._cleared()[0].values())

    def equals(self, other: "BElement") -> bool:
        """Semantic equality: the two elements denote the same Laurent series.  Equal stored forms need
        no subtraction; distinct ones can still be equal (B*e^T and B + T) and take the zero test."""
        return self == other or (self - other).is_zero()

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
    (bn, bd), (an, ad) = _ratio(b), _ratio(a)
    if bn == 0:
        raise ValueError("argument scale b must be nonzero")
    if n == 0 or bn > 0:
        return BElement({_new(Atom, (bn, bd, n, m, an, ad) if n else (1, 1, 0, m, an, ad)): 1}, 1)
    bn = -bn  # the atoms of the binomial expansion have distinct B-powers j, over the common bd^n
    return BElement({_new(Atom, (bn, bd, j, m + n - j, an, ad) if j else (1, 1, 0, m + n, an, ad)):
                     math.comb(n, j) * bn ** (n - j) * bd**j for j in range(n + 1)}, bd**n)


def times_monomial(x: BElement, y: BElement) -> BElement:
    """x*y for y a monomial c T^k e^{sT}, one atom of B-power 0: every atom of x scaled and shifted, in one pass."""
    ((_, _, _, k, sn, sd), c), = y.nums.items()
    return BElement({_new(Atom, (bn, bd, n, m + k, *_reduced(an * sd + sn * ad, ad * sd))): v * c
                     for (bn, bd, n, m, an, ad), v in x.nums.items()}, x.den * y.den)


def from_scalar(c) -> BElement:
    num, den = _ratio(c)
    return BElement({_new(Atom, (1, 1, 0, 0, 0, 1)): num}, den)


def b_element() -> BElement:
    """The series B itself as an element."""
    return atom(0, 1, 1)


def t_element(power: int = 1) -> BElement:
    return atom(power, 0, 1)


# -- series cache ------------------------------------------------------------

_SERIES_CACHE: dict[tuple[int, int, int], TruncatedSeries] = {}


def _cached_series(cn: int, cd: int, n: int, bound: int) -> TruncatedSeries:
    """B(cT)^n for n >= 1 and e^{cT} for n = 0, c = cn/cd, exact to at least the bound: kept grown by grown_size."""
    cached = _SERIES_CACHE.get((cn, cd, n))
    if cached is None or cached.bound < bound:
        work, c = grown_size(cached.bound if cached is not None else 0, bound), Fraction(cn, cd)
        cached = bernoulli_power_series(n, work).scale_arg(c) if n else exp_series(c, work)
        _SERIES_CACHE[cn, cd, n] = cached
    return cached


def _atom_part(at: Atom, bound: int) -> tuple[TruncatedSeries, int]:
    """(x, d) with T^d x the series of the atom, exact to at least the bound."""
    bn, bd, n, m, an, ad = at
    work = bound - m
    if work < 0:  # T^m times a power series has no term up to the bound
        return TruncatedSeries.zero(bound), 0
    if n and an:
        return _cached_series(bn, bd, n, work).truncate(work) * _cached_series(an, ad, 0, work).truncate(work), m
    return _cached_series(bn, bd, n, work) if n else _cached_series(an, ad, 0, work), m
