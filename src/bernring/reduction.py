"""Rewriting algorithms on B-elements.

* ``lowering_op`` / ``reduce_to_first_order``: express higher B-powers through
  first-order generators with Weyl operators in front (order lowering).
* ``product_reduce``: the exact ring product of two elements, written again as
  an element.  Distinct argument scales are rescaled to a least common
  denominator and then eliminated pairwise through the two partial-fraction
  identities (divisor scales first, then general pairs through the gcd scale);
  a strictly decreasing measure is asserted at every rewrite.
* ``negative_power_expand``: B^-k as a combination of pure T/exponential atoms,
  which also encodes the Stirling-number generating function.
* ``f_n_closed`` / ``f_n_inductive``: the integer polynomials f_n(U, V) with
  T^-n f_n(T, B) = n-th derivative of B, by closed Stirling form and by the
  first-order recursion; the two must agree.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from .elements import Atom, BElement, render_atom
from .partfrac import g_pair, h_f
from .polys import TEXT, BiPoly, Poly, Style, binomial
from .series import common_numerators
from .weyl import WeylOp


class ReductionError(Exception):
    """A rewriting step violated its invariants."""


# -- Stirling numbers of the second kind -------------------------------------

_STIRLING_ROWS: list[list[int]] = [[1]]


def stirling(n: int, j: int) -> int:
    """S(n, j) by the triangular recurrence S(n+1,j) = S(n,j-1) + j*S(n,j).

    The table grows on demand; rows are appended whole, so concurrent readers
    see either the old or the new table, never a partial row.
    """
    if n < 0 or j < 0:
        return 0
    while len(_STIRLING_ROWS) <= n:
        prev = _STIRLING_ROWS[-1]
        _STIRLING_ROWS.append([left + j * right for j, (left, right) in enumerate(zip([0, *prev], [*prev, 0]))])
    row = _STIRLING_ROWS[n]
    return row[j] if j < len(row) else 0


# -- order lowering -----------------------------------------------------------


def lowering_op(n: int, b: Fraction, a: Fraction) -> WeylOp:
    """The operator carrying B^n(bT)e^{aT} to B^(n+1)(bT)e^{aT}: 1 - bT + aT/n - (T/n)d."""
    if n < 1:
        raise ValueError("lowering operator defined for source order >= 1")
    return WeylOp({0: Poly([1, Fraction(a, n) - b]), 1: Poly([0, Fraction(-1, n)])})


#: chain(n) = L(n-1)...L(1) at (b, a) = (1, 0), carrying B to B^n, as integer numerators over
#: (n-1)!; row n holds at [k][e] the coefficient of T^e d^k.  Row 0 is the identity, as row 1.
_CHAIN_ROWS: list[list[list[int]]] = [[[1]], [[1]]]


def _chain_row(n: int) -> list[list[int]]:
    """Row n of the lowering table, grown a row at a time by the left product with
    j L(j) = j - jT - T d (j = n-1): c'[k][e] = (j-e) c[k][e] - j c[k][e-1] - c[k-1][e-1]."""
    while len(_CHAIN_ROWS) <= n:
        j, prev = len(_CHAIN_ROWS) - 1, _CHAIN_ROWS[-1]
        row = [[0] * (j + 1) for _ in range(j + 1)]
        for k, cs in enumerate(prev):
            for e, c in enumerate(cs):
                if c:
                    row[k][e] += (j - e) * c
                    row[k][e + 1] -= j * c
                    row[k + 1][e + 1] -= c
        _CHAIN_ROWS.append(row)
    return _CHAIN_ROWS[n]


def _lowered(atoms: list[tuple[Atom, Fraction]], b: Fraction, a: Fraction, pole: int) -> WeylOp:
    """T^-pole times the sum of c T^m chain(n) at (b, a) over the atoms, as Phi_{b,a} of the sum of
    c b^(pole-m) T^(m-pole) chain(n) at (1, 0), taken in integers over one denominator."""
    den, weights = common_numerators([c / b ** (at.m - pole) / math.factorial(max(at.n - 1, 0)) for at, c in atoms])
    frame: dict[tuple[int, int], int] = {}
    for w, (at, _) in zip(weights, atoms):
        for k, cs in enumerate(_chain_row(at.n)):
            for e, v in enumerate(cs, at.m - pole):
                frame[k, e] = frame.get((k, e), 0) + w * v
    (bn, bd), (an, ad) = b.as_integer_ratio(), a.as_integer_ratio()
    top_k, top_e = max(k for k, _ in frame), max(e for _, e in frame)
    parts: dict[int, list[int]] = {}  # times bn^top_k bd^top_e ad^top_k
    for (k, e), c in frame.items():
        c *= bn ** (e - k + top_k) * bd ** (top_e - e + k)
        for i in range(0 if an else k, k + 1):  # (d - a)^k = sum_i C(k, i) (-a)^(k-i) d^i
            w = math.comb(k, i) * (-an) ** (k - i) * ad ** (top_k - k + i)
            parts.setdefault(i, [0] * (top_e + 1))[e] += c * w
    scale = den * bn**top_k * bd**top_e * ad**top_k
    return WeylOp({i: Poly([Fraction(v, scale) for v in row]) for i, row in parts.items()})


class DCombination:
    """D-linear combination over first-order generators.

    Keys are atoms with n in {0, 1}; the value of an entry (gen -> op) is
    T^gen.m * op(B^gen.n(gen.b T) e^{gen.a T}).  Generators carry m = 0
    whenever the T-powers can be absorbed into the operator; a negative m
    survives only when the combination genuinely needs a T-pole in front.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[Atom, WeylOp] | None = None):
        cleaned: dict[Atom, WeylOp] = {}
        if entries:
            for gen, op in entries.items():
                if gen.n not in (0, 1):
                    raise ValueError("generators must have B-power 0 or 1")
                if not op.is_zero():
                    cleaned[gen] = op
        object.__setattr__(self, "entries", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("DCombination is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, DCombination):
            return NotImplemented
        return self.entries == other.entries

    def op_for(self, n: int, b, a, m: int = 0) -> WeylOp:
        gen = Atom(b=Fraction(b) if n else Fraction(1), n=n, m=m, a=Fraction(a))
        return self.entries.get(gen, WeylOp.zero())

    def semantic_element(self) -> BElement:
        """The element sum T^m op(B^n(bT)e^{aT}) over the generators, in closed form.

        op(B(bT)e^{aT}) = e^{aT} op(T, d + a)[B(bT)], d^r B(bT) = T^-r f_r(bT, B(bT)), and for n = 0
        only the d^0 part of op(T, d + a) acts, on 1.  Each generator is summed in integers.
        """
        groups: dict[tuple[Fraction, int, Fraction], dict[tuple[int, int], Fraction]] = {}
        for gen, op in self.entries.items():
            (bn, bd), (an, ad), top = gen.b.as_integer_ratio(), gen.a.as_integer_ratio(), op.order()
            den = math.lcm(*(c.denominator for p in op.parts.values() for c in p.coeffs))
            shifted: dict[int, list[int]] = {}  # r -> the T-coefficients of d^r in op(T, d + a), times den ad^top
            for k, p in op.parts.items():
                coeffs = [c.numerator * (den // c.denominator) for c in p.coeffs]
                for r in range(k + 1) if gen.n else (0,):
                    if w := math.comb(k, r) * an ** (k - r) * ad ** (top - k + r):
                        q = shifted.setdefault(r, [])
                        q.extend([0] * (len(coeffs) - len(q)))
                        for d, c in enumerate(coeffs):
                            q[d] += w * c
            acc: dict[tuple[int, int], int] = {}  # (B-power, T-power) -> coefficient, times den ad^top bd^(top+1)
            for r, q in shifted.items():
                for (i, j), f in _derivative_row(r).items() if gen.n else (((0, 0), 1),):
                    f *= bn**i * bd ** (top + 1 - i)
                    for d, c in enumerate(q, gen.m + i - r):
                        acc[j, d] = acc.get((j, d), 0) + f * c
            scale, group = den * ad**top * bd ** (top + 1), groups.setdefault((gen.b, gen.n, gen.a), {})
            for key, c in acc.items():
                if c:
                    group[key] = group[key] + Fraction(c, scale) if key in group else Fraction(c, scale)
        return BElement({Atom(b, j, m, a): c for (b, _, a), group in groups.items() for (j, m), c in group.items()})

    def equals(self, other: "DCombination") -> bool:
        return self.semantic_element().equals(other.semantic_element())

    def render(self, style: Style = TEXT) -> str:
        """One ``[op] (gen)`` line per generator, or one LaTeX sum of ``(op)(gen)``."""
        if not self.entries:
            return "0"
        pairs = [
            (self.entries[gen].render(style), render_atom(gen, style))
            for gen in sorted(self.entries, key=lambda g: g.key())
        ]
        if style.latex:
            return " + ".join(f"{style.bracket(op)}\\!{style.bracket(gen)}" for op, gen in pairs)
        return "\n".join(f"[{op}] ({gen})" for op, gen in pairs)

    def __repr__(self) -> str:
        return f"<DCombination of {len(self.entries)} generators>"


def reduce_to_first_order(x: BElement) -> DCombination:
    """Rewrite an element as Weyl operators applied to first-order generators.

    Each B^n(bT)e^{aT} is chain(n) at (b, a) applied to B(bT)e^{aT}.  The automorphism Phi_{b,a}:
    T -> bT, d -> (d - a)/b of the Weyl algebra takes c T^e d^k to c b^(e-k) T^e (d - a)^k and L(j),
    so chain(n), at (1, 0) to the same at (b, a).  As T^m Phi(X) = Phi(b^-m T^m X), the atoms of one
    generator are summed against the lowering table at (1, 0) and Phi is applied once.  Atoms with
    negative T-powers are summed times T^-pole, the lowest, and divided again: if every operator
    coefficient is divisible the pole disappears, otherwise it stays on the generator.
    """
    groups: dict[tuple[int, Fraction, Fraction], list[tuple[Atom, Fraction]]] = {}
    for at, c in x.terms.items():
        groups.setdefault((1 if at.n else 0, at.b, at.a), []).append((at, c))
    entries: dict[Atom, WeylOp] = {}
    for (gen_n, b, a), atoms in groups.items():
        pole = min(0, *(at.m for at, _ in atoms))
        total = _lowered(atoms, b, a, pole)
        if (divided := total.left_divide_t_power(-pole)) is not None:
            total, pole = divided, 0
        entries[Atom(b=b, n=gen_n, m=pole, a=a)] = total
    return DCombination(entries)


# -- products -----------------------------------------------------------------


def product_reduce(x: BElement, y: BElement) -> BElement:
    """The exact product x*y in the Laurent field, expressed again as an element.

    A pair of atoms with distinct scales becomes a pending state c * U^r * e^{(f + sigma/q)T} *
    prod_p B(pU)^factors[p] in U = T/q, q the common denominator of its scales and 0 <= f < 1/q;
    equal states of all pairs are merged.
    """
    out: dict[Atom, Fraction] = {}
    pending: dict[tuple[int, Fraction], list[dict]] = {}
    for at1, c1 in x.terms.items():
        for at2, c2 in y.terms.items():
            m, a, c = at1.m + at2.m, at1.a + at2.a, c1 * c2
            if at1.n == 0 or at2.n == 0 or at1.b == at2.b:  # an atom with n = 0 has b = 1
                key = Atom(b=at1.b if at1.n else at2.b, n=at1.n + at2.n, m=m, a=a)
                out[key] = out.get(key, Fraction(0)) + c
                continue
            q = math.lcm(at1.b.denominator, at2.b.denominator)
            sigma = math.floor(a * q)
            buckets = pending.setdefault((q, a - Fraction(sigma, q)), [])
            _push(buckets, c * Fraction(q) ** m, m, sigma, {int(at1.b * q): at1.n, int(at2.b * q): at2.n})
    for (q, f), buckets in pending.items():
        _drain(q, f, buckets, out)
    return BElement(out)


def _measure(factors: dict[int, int]) -> int:
    return sum(p * n for p, n in factors.items())


def _push(buckets: list[dict], coeff: Fraction, r: int, sigma: int, factors: dict[int, int]) -> None:
    measure, state = _measure(factors), (r, sigma, frozenset(factors.items()))
    buckets.extend({} for _ in range(measure + 1 - len(buckets)))
    pending = buckets[measure].get(state)
    buckets[measure][state] = (pending[0] + coeff, factors) if pending else (coeff, factors)


def _drain(q: int, f: Fraction, buckets: list[dict], out: dict[Atom, Fraction]) -> None:
    """Rewrite the states of one (q, f) into ``out`` from the highest measure down; as a rewrite
    lowers the measure, each state is rewritten once, after every contribution to it arrived."""
    for measure in range(len(buckets) - 1, -1, -1):
        for (r, sigma, _), (coeff, factors) in buckets[measure].items():
            if len(factors) > 1:
                for ns in _rewrite_step(coeff, r, sigma, factors):
                    if _measure(ns[3]) >= measure:
                        raise ReductionError("product-reduction measure failed to decrease")
                    _push(buckets, *ns)
                continue
            ((p, n),) = factors.items() or [(q, 0)]  # no factor left: the unit atom, b = 1
            key = Atom(b=Fraction(p, q), n=n, m=r, a=f + Fraction(sigma, q))
            out[key] = out.get(key, Fraction(0)) + coeff * Fraction(1, q) ** r


def _rewrite_step(coeff: Fraction, r: int, sigma: int, factors: dict[int, int]):
    """Eliminate one pair of distinct scales from a pending product term.

    Scales live in units of U = T/q; the state tracks the accumulated power of
    U (r), the integer exponential shift (sigma, in e^U units) and the multiset
    of remaining B-factors {scale: power}.
    """
    scales = sorted(factors)
    div_pair = None
    for small in scales:
        for big in scales:
            if small != big and big % small == 0:
                div_pair = (small, big)
                break
        if div_pair:
            break
    new_states = []
    if div_pair:
        # B^k(l U) B(n U) with l | n: raises the pole order at l, or trades
        # the whole B^k(l U) for a T-power in front of B(n U).
        ell, nsc = div_pair
        k = factors[ell]
        pair = h_f(k, ell, nsc)
        fa = dict(factors)
        del fa[ell]
        lead = coeff * Fraction(ell) ** k
        for d, fd in enumerate(pair.f.coeffs):
            if fd != 0:
                new_states.append((lead * fd, r + k, sigma + d, fa))
        fb = dict(factors)
        fb[ell] = k + 1
        fb[nsc] -= 1
        if fb[nsc] == 0:
            del fb[nsc]
        ratio = coeff * Fraction(nsc, ell)
        for d, hd in enumerate(pair.h.coeffs):
            if hd != 0:
                new_states.append((ratio * hd, r, sigma + d, fb))
    else:
        # incomparable pair: one B-factor of each combines into B^2 at the gcd
        # scale plus simple terms weighted by the g-polynomials.
        ps, pn = scales[0], scales[1]
        gp = g_pair(ps, pn)
        base = dict(factors)
        for p in (ps, pn):
            base[p] -= 1
            if base[p] == 0:
                del base[p]
        fa = dict(base)
        fa[gp.ell] = fa.get(gp.ell, 0) + 2
        new_states.append((coeff, r, sigma, fa))
        fb = dict(base)
        fb[pn] = fb.get(pn, 0) + 1
        for d, gd in enumerate(gp.g_nm.coeffs):
            if gd != 0:
                new_states.append((coeff * ps * gd, r + 1, sigma + d, fb))
        fc = dict(base)
        fc[ps] = fc.get(ps, 0) + 1
        for d, gd in enumerate(gp.g_mn.coeffs):
            if gd != 0:
                new_states.append((coeff * pn * gd, r + 1, sigma + d, fc))
    return new_states


def negative_power_expand(k: int) -> BElement:
    """B^-k = (T^-1 (e^T - 1))^k, expanded into n = 0 atoms."""
    if k < 1:
        raise ValueError("negative power must be at least 1")
    terms = {}
    for j in range(k + 1):
        terms[Atom(b=Fraction(1), n=0, m=-k, a=Fraction(j))] = binomial(k, j) * (-1) ** (k - j)
    return BElement(terms)


# -- derivative polynomials ----------------------------------------------------


#: f_n(U, V) as {(i, j): integer coefficient of U^i V^j}, appended a row at a time
_DERIVATIVE_ROWS: list[dict[tuple[int, int], int]] = []


def _derivative_row(n: int) -> dict[tuple[int, int], int]:
    """f_n from Stirling numbers of the second kind:
    (-1)^n f_n = sum_j (j-1)! (S(n+1, j) U^(n-j+1) - n S(n, j) U^(n-j)) V^j."""
    while len(_DERIVATIVE_ROWS) <= n:
        k = len(_DERIVATIVE_ROWS)
        stirling(k + 1, 0)
        upper, lower = _STIRLING_ROWS[k + 1], _STIRLING_ROWS[k]
        row: dict[tuple[int, int], int] = {}
        for j in range(1, k + 2):
            w = (-1) ** k * math.factorial(j - 1)
            row[k - j + 1, j] = w * upper[j]
            if j <= k:
                row[k - j, j] = -w * k * lower[j]
        _DERIVATIVE_ROWS.append(row)
    return _DERIVATIVE_ROWS[n]


def f_n_closed(n: int) -> BiPoly:
    """Closed form of f_n(U, V) from Stirling numbers of the second kind."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return BiPoly(_derivative_row(n))


_F_INDUCTIVE_CACHE: list[BiPoly] = [BiPoly.monomial(0, 1)]


def f_n_inductive(n: int) -> BiPoly:
    """f_n by the first-order recursion f_n = (1-n + U d_U + (1 - U - V) V d_V) f_(n-1)."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    while len(_F_INDUCTIVE_CACHE) <= n:
        k = len(_F_INDUCTIVE_CACHE)
        prev = _F_INDUCTIVE_CACHE[-1]
        dv = prev.d_v()
        nxt = (
            prev * (1 - k)
            + prev.d_u().shift(1, 0)
            + dv.shift(0, 1)
            - dv.shift(1, 1)
            - dv.shift(0, 2)
        )
        _F_INDUCTIVE_CACHE.append(nxt)
    return _F_INDUCTIVE_CACHE[n]


def element_from_bipoly(bp: BiPoly) -> BElement:
    """Substitute (U, V) -> (T, B): each monomial U^i V^j becomes T^i B^j."""
    return BElement(
        {
            Atom(b=Fraction(1), n=j, m=i, a=Fraction(0)): c
            for (i, j), c in bp.terms.items()
        }
    )


def derivative_power_element(n: int) -> BElement:
    """The n-th derivative of B as an element: T^-n f_n(T, B)."""
    return element_from_bipoly(f_n_closed(n)).mul_monomial(-n)


def agoh_dilcher_reduce(m: int, n: int) -> DCombination:
    """Write (d^m B/dT^m)(d^n B/dT^n) as an operator combination on B.

    The product equals T^-(m+n) f_m(T,B) f_n(T,B); lowering the B-powers and
    dividing out the T-pole leaves a single polynomial operator on B.
    """
    fp = f_n_closed(m) * f_n_closed(n)
    elem = element_from_bipoly(fp).mul_monomial(-(m + n))
    return reduce_to_first_order(elem)
