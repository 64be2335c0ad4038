"""Rewriting algorithms on B-elements.

* ``lowering_op`` / ``reduce_to_first_order``: express higher B-powers through
  first-order generators with Weyl operators in front (order lowering).
* ``product_reduce``: the exact ring product of two elements, written again as
  an element.  Distinct argument scales are rescaled to a least common
  denominator and then eliminated pairwise through the two partial-fraction
  identities (divisor scales first, then general pairs through the gcd scale);
  a strictly decreasing measure is asserted at every rewrite.
* ``invert_term`` / ``negative_power_expand``: the inverse of one term, and B^-k,
  as combinations of pure T/exponential atoms; B^-k also encodes the
  Stirling-number generating function.
* ``f_n_closed`` / ``f_n_inductive``: the elements f_n(T, B), integer
  combinations of T^i B^j with T^-n f_n(T, B) = n-th derivative of B, by the
  closed Stirling form and by n first-order derivatives; the two must agree.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count, repeat
from operator import add, mul
from typing import Callable, Iterator, Mapping, Sequence

from .elements import Atom, BElement, _new, _reduced, _shift_product, _times_exp_minus_one, b_element, render_atom
from .partfrac import g_pair, h_f
from .polys import TEXT, Frozen, Poly, Style
from .weyl import WeylOp, derivative_of_element


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


#: the most lowering tables kept, one for each (n, top, bn, bd): a ``reduce`` benchmark stream reads 72.  Of the
#: inputs tried, d^6 of ``(B(2T)+...+B(13T))^6*B(1/2T)^6`` reads the most, 456, yet misses each once; 256 held 0.9 MB
@lru_cache(maxsize=256)
def _chain_table(n: int, top: int, bn: int, bd: int) -> tuple[tuple[int, int, int], ...]:
    """The nonzero c T^e d^k of chain(n), as (k, e, c b^(e-k) (bn bd)^top top!/(n-1)!) in integers, n - 1 <= top."""
    return tuple((k, e, math.factorial(top) // math.factorial(n - 1) * c * bn ** (e - k + top) * bd ** (top - e + k))
                 for k, cs in enumerate(_chain_row(n)) for e, c in enumerate(cs) if c)


def _lowered(atoms: list[tuple[Atom, int]], den: int, bn: int, bd: int, pole: int) -> tuple[dict[int, list[int]], int]:
    """T^-pole times the sum of (v / den) T^m chain(n) at (bn/bd, a) over the atoms, as op(T, d + a) = Phi_{b,0} of the
    same at (1, 0): each c T^e d^k of chain(n) becomes c b^(e-k) T^e d^k, read off ``_chain_table``.  Returned as
    the integer rows {k: coefficients of T^0, T^1, ... in front of d^k} over one denominator, untrimmed, unreduced."""
    top = max(1, *(at.n for at, _ in atoms)) - 1  # the largest k, and the largest e, of any chain(n)
    width = max(at.m for at, _ in atoms) - pole + top + 1
    parts = [[0] * width for _ in range(top + 1)]
    for at, v in atoms:
        for k, e, c in _chain_table(at.n or 1, top, bn, bd):  # chain(0) is chain(1), 1
            parts[k][at.m - pole + e] += v * c
    return dict(enumerate(parts)), math.factorial(top) * den * (bn * bd) ** top


def _shifted(op: tuple[Mapping[int, Sequence[int]], int], an: int, ad: int) -> WeylOp:
    """op(T, d + a), a = an/ad, for op as integer rows over a denominator, its top row nonzero: row r is the sum
    over k >= r of C(k, r) a^(k-r) row k, from the lowest T-power."""
    rows, den = op
    top, low = max(rows), min(next(compress(count(), row), len(row)) for row in rows.values())
    out = [[0] * (max(map(len, rows.values())) - low) for _ in range(top + 1)]
    for k, row in rows.items():
        for r, q in enumerate(out[: k + 1]):
            w = math.comb(k, r) * an ** (k - r) * ad ** (top - k + r)
            q[: len(row) - low] = map(add, q, map(mul, row[low:], repeat(w)))
    return WeylOp({r: [0] * low + q for r, q in enumerate(out)}, den * ad**top)


def _reframed(ops: Mapping[Atom, tuple], sign: int) -> dict[Atom, WeylOp]:
    """Each operator with d -> d + sign a, a its generator's shift; one of order 0, or at a = 0, is only reduced."""
    return {gen: _shifted(op, sign * gen.an, gen.ad) if gen.an and max(op[0]) else WeylOp(*op) for gen, op in ops.items()}


class DCombination(Frozen):
    """D-linear combination over first-order generators.

    Keys are atoms with n in {0, 1}; the value of an entry (gen -> op) is
    T^gen.m * op(B^gen.n(gen.b T) e^{gen.a T}).  Generators carry m = 0
    whenever the T-powers can be absorbed into the operator; a negative m
    survives only when the combination genuinely needs a T-pole in front.
    Each operator is stored as op(T, d + a), as op(B^n(bT)e^{aT}) = e^{aT} op(T, d + a)[B^n(bT)], in
    the integer rows that the lowering leaves; ``entries``, the map gen -> op, is a view built on first
    read and kept.
    """

    __slots__ = ("_rows", "_entries")
    _fields = ("entries",)  # a view: ``==``, copy and pickle read it
    __hash__ = None  # the operators are held in a dict

    def __init__(self, entries: Mapping[Atom, WeylOp] | None = None):
        if any(gen.n not in (0, 1) for gen in entries or ()):
            raise ValueError("generators must have B-power 0 or 1")
        cleaned = {gen: op for gen, op in (entries or {}).items() if not op.is_zero()}
        shifted = _reframed({gen: (op.rows, op.den) for gen, op in cleaned.items()}, 1)
        self._init({gen: (op.rows, op.den) for gen, op in shifted.items()}, cleaned)

    @classmethod
    def _of_rows(cls, rows: dict[Atom, tuple]) -> "DCombination":
        """The combination of the nonzero operators op(T, d + a), each as (rows {k: coefficients of T^0, T^1, ...
        in front of d^k}, denominator), its top row nonzero."""
        (self := object.__new__(cls))._init(rows, None)
        return self

    @property
    def entries(self) -> dict[Atom, WeylOp]:
        """{generator: op} with op acting on B^n(bT) e^{aT}, built on first read and kept."""
        if self._entries is None:
            return self._keep("_entries", _reframed(self._rows, -1))
        return self._entries

    def op_for(self, n: int, b, a, m: int = 0) -> WeylOp:
        gen = Atom(b=Fraction(b) if n else Fraction(1), n=n, m=m, a=Fraction(a))
        return self.entries.get(gen, WeylOp.zero())

    def semantic_element(self) -> BElement:
        """The element sum T^m op(B^n(bT)e^{aT}) over the generators, in closed form.

        The generator is T^m e^{aT} op(T, d + a)[B^n(bT)], read off the stored rows g_r: d^r B(bT) =
        T^-r f_r(bT, B(bT)), and for n = 0 only g_0 acts, on 1.  Each generator is summed in integers, one update
        a nonzero entry of g_r and term of ``_derivative_table``, and the generators over the lcm of their denominators.
        """
        pieces = []  # (generator, [(B-power, coefficients of T^lo, T^(lo+1), ...)], lo, denominator)
        for gen, (rows, den) in self._rows.items():
            if (top := max(rows)) == 0 or not gen.n:  # T^m f_0(T) B^n(bT) e^{aT}
                if 0 in rows:
                    pieces.append((gen, [(gen.n, rows[0])], gen.m, den))
                continue
            table, width = _derivative_table(top, gen.bn, gen.bd), max(map(len, rows.values())) + top
            acc = [[0] * width for _ in range(top + 2)]  # by B-power, from T^(m - top), times den bd^(top+1)
            for r, row in rows.items():
                terms = table[r]
                for e, c in compress(enumerate(row), row):
                    for j, start, w in terms:
                        acc[j][start + e] += c * w
            pieces.append((gen, enumerate(acc), gen.m - top, den * gen.bd ** (top + 1)))
        den, nums = math.lcm(*(scale for *_, scale in pieces)), {}
        for (bn, bd, _, _, an, ad), acc, lo, scale in pieces:
            f = den // scale
            for j, row in acc:
                for m, c in compress(enumerate(row, lo), row):
                    key = _new(Atom, (bn, bd, j, m, an, ad))
                    nums[key] = nums.get(key, 0) + c * f
        return BElement(nums, den)

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
        return f"<DCombination of {len(self._rows)} generators>"


def reduce_to_first_order(x: BElement) -> DCombination:
    """Rewrite an element as Weyl operators applied to first-order generators.

    Each B^n(bT)e^{aT} is chain(n) at (b, a) applied to B(bT)e^{aT}.  The automorphism Phi_{b,a}:
    T -> bT, d -> (d - a)/b of the Weyl algebra takes c T^e d^k to c b^(e-k) T^e (d - a)^k and L(j),
    so chain(n), at (1, 0) to the same at (b, a).  As T^m Phi(X) = Phi(b^-m T^m X), the atoms of one
    generator are summed against the lowering table at (1, 0) and Phi is applied once, in the stored
    frame d -> d + a.  Atoms with negative T-powers are summed times T^-pole, the lowest, and divided
    again: if every coefficient is divisible (in either frame) the pole disappears, else it stays.
    """
    groups: dict[tuple[int, int, int, int, int], list[tuple[Atom, int]]] = {}  # by the generator (bn, bd, n, an, ad)
    for at, v in x.nums.items():
        groups.setdefault((at.bn, at.bd, 1 if at.n else 0, at.an, at.ad), []).append((at, v))
    shifted: dict[Atom, tuple] = {}
    for (bn, bd, gen_n, an, ad), atoms in groups.items():
        if len(atoms) == 1 and atoms[0][0].n <= 1:  # v T^m B^n(bT)e^{aT}: the row v T^m, or v behind T^m if m < 0
            ((at, v),) = atoms
            pole, op = min(at.m, 0), ({0: [0] * max(at.m, 0) + [v]}, x.den)
        else:
            pole = min(0, *(at.m for at, _ in atoms))
            rows, den = op = _lowered(atoms, x.den, bn, bd, pole)
            if pole and not any(any(row[:-pole]) for row in rows.values()):
                op, pole = ({k: row[-pole:] for k, row in rows.items()}, den), 0
        shifted[_new(Atom, (bn, bd, gen_n, pole, an, ad))] = op
    return DCombination._of_rows(shifted)


# -- products -----------------------------------------------------------------

#: the work charged for one atom pair of ``product_reduce``, and for one level of measure that its rows may take, in
#: units of one entry multiplied in a rewrite: a pair that starts a row took about 9 us, and a unit of the product's
#: work, mostly entries, about 0.09 us (in-process; Python 3.11 on a shared 2-core x86_64 host)
PAIR_WORK = 64


def product_reduce(x: BElement, y: BElement, spend: Callable[[int], None] | None = None) -> BElement:
    """The exact product x*y in the Laurent field, expressed again as an element.

    A pair of atoms with distinct scales becomes a pending term c * U^r * X^sigma * e^{fT} *
    prod_p B(pU)^factors[p] in U = T/q and X = e^U, q the common denominator of its scales and
    0 <= f < 1/q.  The terms of all pairs with one (q, f) and one (r, factors) are one row: a
    Laurent polynomial in X, kept sparse as ({power of X: integer numerator}, one denominator), so
    shifts far apart cost no more than near ones.  Rows hold products of numerators over each operand's content,
    the gcd of its numerators, which is multiplied back once a drained row, in the weight of its atoms; each pair
    of shifts is added once, and each row is rewritten by the cached plan of its factors (``_plan``).

    ``spend``, if given, is charged before each piece of work and may raise to stop the product: ``PAIR_WORK`` an
    atom pair and a level of measure that a bucket list grows by, and a row's entries times a polynomial's terms.
    """
    out: dict[Atom, int] = {}  # numerators over x.den y.den
    pending: dict[tuple[int, int, int], list[dict]] = {}  # by q and f as a reduced integer pair
    (x_by_shift, gx), (y_by_shift, gy) = _by_shift(x), _by_shift(y)
    if spend:
        spend(PAIR_WORK * len(x.nums) * len(y.nums))
    for (an1, ad1), xs in x_by_shift.items():
        for (an2, ad2), zs in y_by_shift.items():
            an, ad = _reduced(an1 * ad2 + an2 * ad1, ad1 * ad2)
            for bn1, bd1, n1, m1, v1 in xs:
                for bn2, bd2, n2, m2, v2 in zs:
                    m, c = m1 + m2, v1 * v2
                    if not n1 or not n2 or (bn1 == bn2 and bd1 == bd2):  # an atom with n = 0 has b = 1
                        key = _new(Atom, (bn1, bd1, n1 + n2, m, an, ad) if n1 else (bn2, bd2, n2, m, an, ad))
                        out[key] = out.get(key, 0) + c * gx * gy
                        continue
                    q = math.lcm(bd1, bd2)
                    sigma = an * q // ad
                    buckets = pending.setdefault((q, *_reduced(an * q - sigma * ad, ad * q)), [])
                    row = ({sigma: c * q**m}, 1) if m >= 0 else ({sigma: c}, q**-m)
                    _push(buckets, m, {bn1 * (q // bd1): n1, bn2 * (q // bd2): n2}, row, spend)
    drained = [(key, *step) for key, buckets in pending.items() for step in _drain(buckets, spend)]
    # entry v of a row stands for v q^-r gx gy / den: over bottom, times q^-r if r < 0
    bottoms = [den * q**r if r >= 0 else den for (q, _, _), r, _, (_, den) in drained]
    scale = math.lcm(*bottoms)
    if scale != 1:
        out = {at: v * scale for at, v in out.items()}
    for ((q, fn, fd), r, factors, (num, _)), bottom in zip(drained, bottoms):
        ((p, n),) = factors.items() or [(q, 0)]  # no factor left: the unit atom, b = 1
        (bn, bd), w = _reduced(p, q), (scale // bottom) * (q**-r if r < 0 else 1) * gx * gy
        for sigma, v in num.items():
            if v:  # at e^{(f + sigma/q)T}
                key = _new(Atom, (bn, bd, n, r, *_reduced(fn * q + sigma * fd, fd * q)))
                out[key] = out.get(key, 0) + v * w
    return BElement(out, x.den * y.den * scale)


def _by_shift(x: BElement) -> tuple[dict[tuple[int, int], list[tuple[int, int, int, int, int]]], int]:
    """The atoms of x as (bn, bd, n, m, numerator / g) by their shift a as an integer pair, and g, their content."""
    groups: dict[tuple[int, int], list] = {}
    g = math.gcd(*x.nums.values())
    for (bn, bd, n, m, an, ad), v in x.nums.items():
        groups.setdefault((an, ad), []).append((bn, bd, n, m, v // g))
    return groups, g


def _measure(factors: dict[int, int]) -> int:
    return sum(p * n for p, n in factors.items())


def _push(buckets: list[dict], r: int, factors: dict[int, int], row: tuple, spend: Callable | None = None) -> None:
    measure, key = _measure(factors), (r, tuple(sorted(factors.items())))
    if spend and measure >= len(buckets):
        spend(PAIR_WORK * (measure + 1 - len(buckets)))
    buckets.extend({} for _ in range(measure + 1 - len(buckets)))
    held = buckets[measure].get(key)
    buckets[measure][key] = _merged(held, row) if held else row


def _merged(x: tuple, y: tuple) -> tuple:
    """The sum of two rows ({power of X: numerator}, den), over the lcm of their denominators and divided
    by the gcd; entries that cancel are dropped."""
    (xs, xd), (ys, yd) = x, y
    den = math.lcm(xd, yd)
    fx, fy = den // xd, den // yd
    total = {d: v * fx for d, v in xs.items()} if fx != 1 else dict(xs)
    for d, v in ys.items():
        total[d] = total.get(d, 0) + v * fy
    g = math.gcd(den, *total.values())
    return {d: v // g for d, v in total.items() if v}, den // g


def _drain(buckets: list[dict], spend: Callable | None = None) -> Iterator[tuple]:
    """Rewrite the rows in ``buckets`` by ``_plan`` from the highest measure down; yield each row left with at
    most one scale as ``(r, factors, row)``; as a rewrite lowers the measure, each row is rewritten
    or yielded once, after every contribution to it arrived.  Each multiplication of a row is charged to ``spend``."""
    for measure in range(len(buckets) - 1, -1, -1):
        for (r, factors), row in buckets[measure].items():
            if len(factors) <= 1:
                yield r, dict(factors), row
                continue
            for s, lower, fs, terms, den in _plan(factors):
                if spend and terms is not None:
                    spend(len(row[0]) * len(terms))
                child = row if terms is None else (_shift_product(row[0], terms), row[1] * den)
                held = buckets[lower].get(key := (r + s, fs))
                buckets[lower][key] = _merged(held, child) if held else child


#: the most rewrite plans kept, one for each factor multiset: a ``reduce`` benchmark stream reads 155,
#: ``B(2/3T)^6*B(7/4T)^6`` 166 and ``(B(2T)+B(3T)+B(5T)+B(7T)+B(11T)+B(13T))^6*B(1/2T)^6`` 341
@lru_cache(maxsize=512)
def _plan(factors: tuple) -> tuple[tuple, ...]:
    """The rewrite step of a row of ``factors``, sorted (scale, power) pairs, in units of U = T/q: one pair of
    distinct scales goes by a partial-fraction identity in X = e^U, divisor scales first (``h_f``), else through
    the gcd scale (``g_pair``).  Each child is (U-power added, measure, factors, terms (d, v) of the polynomial in X
    that multiplies the row, or None for the row itself, denominator)."""
    scales, powers = [p for p, _ in factors], dict(factors)
    pair = next(((s, big) for s in scales for big in scales if s != big and big % s == 0), None)
    ps, pn = pair or scales[:2]
    k = powers[ps] if pair else 1
    rest = {p: e for p, e in {**powers, ps: powers[ps] - k, pn: powers[pn] - 1}.items() if e}
    with_pn = {**rest, pn: rest.get(pn, 0) + 1}
    if pair:
        # B^k(l U) B(n U) with l | n: trades the whole B^k(l U) for U^k in front of B(n U) (l^k f),
        # or raises the pole order at l ((n/l) h).
        hf, children = h_f(k, ps, pn), []
        pieces = [(k, with_pn, hf.f, ps**k), (0, {**rest, ps: k + 1}, hf.h, pn // ps)]
    else:
        # incomparable pair: one B-factor of each combines into B^2 at the gcd scale, passing the row
        # whole, plus simple terms weighted by ps g_nm and pn g_mn.
        g, ell = g_pair(ps, pn), math.gcd(ps, pn)
        children = [(0, {**rest, ell: rest.get(ell, 0) + 2}, None, 1)]
        pieces = [(1, with_pn, g.g_nm, ps), (1, {**rest, ps: rest.get(ps, 0) + 1}, g.g_mn, pn)]
    for s, fs, poly, factor in pieces:
        c = math.gcd(poly.den, factor)
        children.append((s, fs, tuple((d, v * factor // c) for d, v in enumerate(poly.nums) if v), poly.den // c))
    measure = _measure(powers)
    plan = tuple((s, _measure(fs), tuple(sorted(fs.items())), terms, den) for s, fs, terms, den in children)
    if any(child[1] >= measure for child in plan):  # checked once for each plan
        raise ReductionError("product-reduction measure failed to decrease")
    return plan


def invert_term(at: Atom, coeff: Fraction) -> BElement:
    """(coeff T^m B(bT)^n e^{aT})^-1 = T^-(m+n) e^{-aT} (e^{bT} - 1)^n / (coeff b^n), expanded into n = 0 atoms."""
    bn, bd, n, m, an, ad = at
    row = _times_exp_minus_one({-an * bd: bd**n * coeff.denominator}, bn * ad, n)  # shifts over bd ad
    return BElement({_new(Atom, (1, 1, 0, -m - n, *_reduced(shift, bd * ad))): c for shift, c in row.items()},
                    bn**n * coeff.numerator)


def negative_power_expand(k: int) -> BElement:
    """B^-k = (T^-1 (e^T - 1))^k, expanded into n = 0 atoms."""
    if k < 1:
        raise ValueError("negative power must be at least 1")
    return invert_term(Atom(1, k, 0, 0), Fraction(1))


# -- derivative polynomials ----------------------------------------------------


#: f_n(T, B) as {(i, j): integer coefficient of T^i B^j}, appended a row at a time
_DERIVATIVE_ROWS: list[dict[tuple[int, int], int]] = []


def _derivative_row(n: int) -> dict[tuple[int, int], int]:
    """f_n from Stirling numbers of the second kind:
    (-1)^n f_n = sum_j (j-1)! (S(n+1, j) T^(n-j+1) - n S(n, j) T^(n-j)) B^j."""
    while len(_DERIVATIVE_ROWS) <= n:
        k = len(_DERIVATIVE_ROWS)
        row: dict[tuple[int, int], int] = {}
        for j in range(1, k + 2):
            w = (-1) ** k * math.factorial(j - 1)
            row[k - j + 1, j] = w * stirling(k + 1, j)
            if j <= k:
                row[k - j, j] = -w * k * stirling(k, j)
        _DERIVATIVE_ROWS.append(row)
    return _DERIVATIVE_ROWS[n]


#: the most derivative tables kept, one for each (top, bn, bd): a ``reduce`` benchmark stream reads 30.  Of the
#: inputs tried, d^6 of ``(B(2T)+...+B(13T))^6*B(1/2T)^6`` reads the most, 48, which held 0.55 MB
@lru_cache(maxsize=64)
def _derivative_table(top: int, bn: int, bd: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """For r = 0..top, the terms c T^i B^j of f_r as (j, i - r + top, c b^i bd^(top+1)) in integers."""
    return tuple(tuple((j, i - r + top, c * bn**i * bd ** (top + 1 - i)) for (i, j), c in _derivative_row(r).items())
                 for r in range(top + 1))


def f_n_closed(n: int) -> BElement:
    """f_n(T, B), the element with T^-n f_n(T, B) = d^n B, read off the Stirling closed form."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return BElement({Atom(1, j, i, 0): c for (i, j), c in _derivative_row(n).items()}, 1)


def f_n_inductive(n: int) -> BElement:
    """f_n(T, B) as T^n d^n B, by n first-order derivatives of B: no Stirling numbers involved."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    x = b_element()
    for _ in range(n):
        x = derivative_of_element(x)
    return x.mul_monomial(n)


def derivative_power_element(n: int) -> BElement:
    """The n-th derivative of B as an element: T^-n f_n(T, B)."""
    return f_n_closed(n).mul_monomial(-n)


def agoh_dilcher_reduce(m: int, n: int) -> DCombination:
    """Write (d^m B/dT^m)(d^n B/dT^n) as an operator combination on B.

    The product equals T^-(m+n) f_m(T,B) f_n(T,B), a product at one scale; lowering the
    B-powers and dividing out the T-pole leaves a single polynomial operator on B.
    """
    return reduce_to_first_order(product_reduce(derivative_power_element(m), derivative_power_element(n)))
