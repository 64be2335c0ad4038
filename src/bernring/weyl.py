"""Normal-form operators in the Weyl algebra Q<T, d/dT> and their actions.

An operator is kept as sum f_k(T) * d^k with the polynomial parts on the left,
as integer rows over one denominator, so equality of operators is structural
equality of the normal form.  Products are normalized with the commutation rule
d * f(T) = f'(T) + f(T) * d.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from .elements import Atom, BElement, _new
from .polys import TEXT, Frozen, Poly, Style, binomial, format_poly, join_signed, lowest_terms, scaled, subtract
from .series import TruncatedSeries


class WeylOp(Frozen):
    """Element of the Weyl algebra in normal form: sum over k of f_k(T) d^k.

    The polynomial parts are stored as integer rows ``rows`` {k: coefficients of f_k(T) in T}
    over one positive denominator ``den``.  A row is never empty and has no trailing zero, and
    no factor is common to ``den`` and every numerator, so equal operators store equal rows;
    ``parts`` hands the parts out as ``Poly``s.
    """

    __slots__ = ("rows", "den")

    def __init__(self, parts: Mapping[int, Poly] | None = None, den: int | None = None):
        """The operator of the ``Poly``s ``parts`` or, given ``den``, of the integer rows ``parts`` over ``den``."""
        parts = parts or {}
        if den is None:
            polys = {k: f if isinstance(f, Poly) else Poly.const(f) for k, f in parts.items()}
            den = math.lcm(*(f.den for f in polys.values()))
            parts = {k: [v * (den // f.den) for v in f.nums] for k, f in polys.items()}
        rows: dict[int, tuple[int, ...]] = {}
        common = 0  # the gcd of every entry, taken as the rows are trimmed
        for k, row in parts.items():
            if k < 0:
                raise ValueError("derivative order must be nonnegative")
            end = len(row)
            while end and not row[end - 1]:
                end -= 1
            if end:
                rows[k] = row = tuple(row[:end])
                common = math.gcd(common, *row)
        if (g := lowest_terms(den, (common,))) != 1:
            den //= g
            for k, row in rows.items():
                rows[k] = tuple([v // g for v in row])
        self._init(rows, den)

    @property
    def parts(self) -> dict[int, Poly]:
        """The parts {derivative order: Poly in T}, a view built on each read."""
        return {k: Poly(row, self.den) for k, row in self.rows.items()}

    # -- algebra -------------------------------------------------------------

    @staticmethod
    def zero() -> "WeylOp":
        return WeylOp()

    def is_zero(self) -> bool:
        return not self.rows

    def order(self) -> int:
        return max(self.rows) if self.rows else -1

    def __hash__(self):
        return hash((self.den, frozenset(self.rows.items())))

    def __add__(self, other: "WeylOp") -> "WeylOp":
        out = dict(self.parts)
        for k, f in other.parts.items():
            out[k] = out.get(k, Poly.zero()) + f
        return WeylOp(out)

    def __neg__(self) -> "WeylOp":
        return WeylOp({k: -f for k, f in self.parts.items()})

    __sub__ = subtract

    def scale(self, c) -> "WeylOp":
        return WeylOp({k: f * c for k, f in self.parts.items()})

    def __mul__(self, other: "WeylOp") -> "WeylOp":
        """Noncommutative product, renormalized with d^i f = sum C(i,r) f^(r) d^(i-r)."""
        if not isinstance(other, WeylOp):
            return NotImplemented
        out: dict[int, Poly] = {}
        other_parts = other.parts
        for i, f in self.parts.items():
            for j, g in other_parts.items():
                deriv = g
                for r in range(i + 1):
                    if deriv.is_zero():
                        break
                    key = i - r + j
                    contrib = f * deriv if r in (0, i) else f * deriv * binomial(i, r)
                    out[key] = out.get(key, Poly.zero()) + contrib
                    deriv = deriv.derivative()
        return WeylOp(out)

    # -- actions -------------------------------------------------------------

    def apply_series(self, x: TruncatedSeries) -> TruncatedSeries:
        """Left-module action on a truncated series, with exact bound tracking."""
        max_order = self.order()
        if max_order < 0:
            return TruncatedSeries.zero(x.bound)
        terms, deriv = [], x
        for k in range(max_order + 1):
            if (row := self.rows.get(k)) is not None:
                terms += [(deriv, d, Fraction(v, self.den)) for d, v in enumerate(row) if v]
            if k < max_order:
                deriv = deriv.derivative()
        return TruncatedSeries.combination(terms)

    def apply_element(self, x: BElement) -> BElement:
        """Action on symbolic elements; stays inside the generated subspace."""
        max_order = self.order()
        derivs, deriv = [], x  # (row of d^k, the k-th derivative of x)
        for k in range(max_order + 1):
            if (row := self.rows.get(k)) is not None:
                derivs.append((row, deriv))
            if k < max_order:
                deriv = derivative_of_element(deriv)
        den = math.lcm(*(deriv.den for _, deriv in derivs))
        out: dict[Atom, int] = {}  # numerators over self.den den
        for row, deriv in derivs:
            for (bn, bd, n, m, an, ad), v in deriv.nums.items():
                v *= den // deriv.den
                for d, c in enumerate(row):
                    if c:
                        key = _new(Atom, (bn, bd, n, m + d, an, ad))
                        out[key] = out.get(key, 0) + c * v
        return BElement(out, self.den * den)

    # -- rendering -----------------------------------------------------------

    def render(self, style: Style = TEXT) -> str:
        chunks = []
        for k, row in sorted(self.rows.items()):
            terms = [(j, v) for j, v in enumerate(row) if v]
            if k and len(terms) == 1:  # c*T^j*d^k, with a unit c dropped like in any other term
                (j, v), = terms
                t_part = style.power("T", j) + style.times if j else ""
                chunks.append(scaled(Fraction(v, self.den), t_part + style.d(k), style))
            else:
                body = format_poly(Poly(row, self.den), "T", style)
                chunks.append(style.bracket(body) + style.times + style.d(k) if k else body)
        return join_signed(chunks)

    def __repr__(self) -> str:
        return f"<WeylOp {self.render()}>"


def derivative_of_atom(at: Atom) -> BElement:
    """d/dT of one generator, as an element."""
    return derivative_of_element(BElement({at: 1}, 1))


def derivative_of_element(x: BElement) -> BElement:
    """d/dT by the first-order formula for B(bT)^n e^{aT}, which gives the n/T, -nb and -(n/T) B^(n+1)
    terms, and the product rule for the T^m factor."""
    terms: dict[Atom, int] = {}  # numerators over x.den den, den the lcm of the a.den b.den
    den = math.lcm(*(at.ad * at.bd for at in x.nums))
    for (bn, bd, n, m, an, ad), v in x.nums.items():
        # (m, n, coefficient times den) of each term; an atom with n = 0 already has b = 1
        parts = [(m - 1, n, m * den), (m, n, an * (den // ad))]
        if n >= 1:
            parts += [(m - 1, n, n * den), (m, n, -n * bn * (den // bd)), (m - 1, n + 1, -n * den)]
        for pm, pn, coeff in parts:
            if coeff:
                key = _new(Atom, (bn, bd, pn, pm, an, ad))
                terms[key] = terms.get(key, 0) + v * coeff
    return BElement(terms, x.den * den)
