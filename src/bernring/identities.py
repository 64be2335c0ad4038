"""Derivation and exact verification of Bernoulli-number/polynomial identities.

Each ``verify_*`` function checks one named identity at given parameters with
exact rational arithmetic and returns an :class:`IdentityReport`; a report is
``verified`` iff both sides are equal as rationals (or coefficient-wise for the
series-shaped identities, whose report values collapse to a fingerprint pair
that provably differs when verification fails).  Its definition, registered by
:func:`_identity`, is the family's only declaration.

``coefficient_identity`` is the derivation half: it equates the coefficient of
a chosen power of T on an element (or a formal product of elements) against a
first-order operator combination, emitting both sides as sums of symbolic
Bernoulli values.  The product families read both sides of their identity off
the same reduction, at any n (``_product_sides``).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .elements import Atom, BElement, atom, b_element
from .polys import LATEX, TEXT, Frozen, Poly, Style, _as_fraction, binomial, factorial
from .reduction import (
    DCombination,
    derivative_power_element,
    lowering_op,
    negative_power_expand,
    product_reduce,
    reduce_to_first_order,
    stirling,
)
from .series import (
    InsufficientBoundError,
    TruncatedSeries,
    bernoulli_number,
    bernoulli_poly_value,
    bernoulli_series,
    exp_series,
    fraction_sum,
    harmonic,
    norlund_numerators,
    poly_value_numerator,
)
from .weyl import WeylOp, derivative_of_element


# -- symbolic identities -------------------------------------------------------


class BernSymbol(Frozen):
    """Symbolic value scale^index * B^(order)_index(argument)."""

    __slots__ = ("order", "index", "argument", "scale", "_hash")

    def __init__(self, order: int, index: int, argument: Fraction, scale: Fraction):
        ints = (order, index, argument.numerator, argument.denominator, scale.numerator, scale.denominator)
        self._init(order, index, argument, scale, hash(ints))

    def pair(self) -> tuple[int, int]:
        """The value as integers (n, d), d > 0, read off the table's numerators with no Fraction built."""
        (sn, sd), (p, q), i = self.scale.as_integer_ratio(), self.argument.as_integer_ratio(), self.index
        h, d = poly_value_numerator(self.order, i, p, q)
        return sn**i * h, (sd * q) ** i * d

    def value(self) -> Fraction:
        return Fraction(*self.pair())

    sort_key = Frozen.key


class IdentityTerm(Frozen):
    __slots__ = ("coeff", "factors")

    def __init__(self, coeff: Fraction, factors: tuple[BernSymbol, ...]):
        self._init(coeff, factors)

    def value(self) -> Fraction:
        v = self.coeff
        for s in self.factors:
            v *= s.value()
        return v


class CoefficientIdentity(Frozen):
    """An exact identity between two sums of Bernoulli-symbol products."""

    __slots__ = ("lhs", "rhs", "order", "provenance")

    def __init__(self, lhs: tuple[IdentityTerm, ...], rhs: tuple[IdentityTerm, ...], order: int, provenance: str):
        self._init(lhs, rhs, order, provenance)

    def lhs_value(self) -> Fraction:
        return sum((t.value() for t in self.lhs), Fraction(0))

    def rhs_value(self) -> Fraction:
        return sum((t.value() for t in self.rhs), Fraction(0))


def _combine_terms(raw: Iterable[tuple[Fraction, tuple[BernSymbol, ...]]]) -> tuple[IdentityTerm, ...]:
    merged: dict[tuple[BernSymbol, ...], Fraction] = {}
    for coeff, factors in raw:
        factors = tuple(sorted(factors, key=lambda s: s.sort_key()))
        merged[factors] = merged[factors] + coeff if factors in merged else coeff
    out = [IdentityTerm(coeff=c, factors=f) for f, c in merged.items() if c != 0]
    out.sort(key=lambda t: tuple(s.sort_key() for s in t.factors))
    return tuple(out)


def _compositions(total: int, parts: int):
    """All tuples of nonnegative integers of the given length summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _lhs_terms_for_product(atoms: Sequence[tuple[Atom, Fraction]], m: int):
    """Symbolic coefficient of T^m (times m!) of a product of atoms."""
    coeff = Fraction(1)
    shift = 0
    exp_total = Fraction(0)
    b_scales: list[Fraction] = []
    for at, c in atoms:
        coeff *= c
        shift += at.m
        exp_total += at.a
        b_scales.extend([at.b] * at.n)
    rem = m - shift
    if rem < 0:
        return
    slots = len(b_scales) + (1 if exp_total != 0 else 0)
    for combo in _compositions(rem, slots):
        term_coeff = coeff * factorial(m)
        factors = []
        for idx, scale in zip(combo, b_scales):
            term_coeff /= factorial(idx)
            factors.append(BernSymbol(order=1, index=idx, argument=Fraction(0), scale=scale))
        if exp_total != 0:
            i_e = combo[-1]
            term_coeff /= factorial(i_e)
            factors.append(BernSymbol(order=0, index=i_e, argument=exp_total, scale=Fraction(1)))
        yield term_coeff, tuple(factors)


@functools.lru_cache(maxsize=None)
def _symbol_frame(gen: Atom) -> tuple[Fraction, Fraction]:
    """The argument a/b (a when n = 0) and the scale b of the Bernoulli symbols of a generator."""
    return Fraction(gen.an * gen.bd, gen.ad * gen.bn) if gen.n else Fraction(gen.an, gen.ad), Fraction(gen.bn, gen.bd)


def _rhs_weights(dc: DCombination, m: int) -> tuple[int, dict[BernSymbol, int]]:
    """Symbolic coefficient of T^m (times m!) of a first-order combination, as integer weights of
    Bernoulli symbols over one denominator.

    The term c T^d d^k of the operator on T^g B(bT)^n e^{aT} gives c m!/(m-g-d)! b^(m-g-d+k)
    B^(n)_(m-g-d+k)(a/b); each (m-g-d)! divides top!, top the largest m - g.
    """
    top = max(0, m - min((gen.m for gen in dc.entries), default=0))
    den = math.lcm(*(op.den for op in dc.entries.values())) * math.factorial(top)
    weights: dict[BernSymbol, int] = {}
    for gen, op in dc.entries.items():
        eff, unit = m - gen.m, den // op.den
        argument, scale = _symbol_frame(gen)
        for k, row in op.rows.items():
            for d, v in enumerate(row[: max(eff + 1, 0)]):
                if v:
                    sym = BernSymbol(order=gen.n, index=eff - d + k, argument=argument, scale=scale)
                    w = unit * v * math.factorial(m) // math.factorial(eff - d)
                    weights[sym] = weights.get(sym, 0) + w
    return den, weights


def coefficient_identity(
    lhs: BElement | Sequence[BElement],
    rhs: DCombination,
    m: int,
    provenance: str = "",
) -> CoefficientIdentity:
    """Equate the coefficient of T^m across an element product and a combination.

    Both sides are normalized by m!, so order-one products come out in the
    familiar binomial-convolution shape.  The two inputs must denote the same
    series; symbolic sides are additionally evaluated and compared exactly.
    """
    factors = [lhs] if isinstance(lhs, BElement) else list(lhs)
    if not functools.reduce(product_reduce, factors).equals(rhs.semantic_element()):
        raise ValueError("left and right sides are not semantically equal")
    raw_lhs = []
    for chosen in itertools.product(*(f.atoms() for f in factors)):
        raw_lhs.extend(_lhs_terms_for_product(chosen, m))
    lhs_terms = _combine_terms(raw_lhs)
    den, weights = _rhs_weights(rhs, m)
    rhs_terms = _combine_terms((Fraction(w, den), (sym,)) for sym, w in weights.items())
    ident = CoefficientIdentity(lhs=lhs_terms, rhs=rhs_terms, order=m, provenance=provenance)
    if ident.lhs_value() != ident.rhs_value():
        raise ValueError("internal error: emitted identity does not evaluate equal")
    return ident


@functools.lru_cache(maxsize=None)
def _product_combination(factors: tuple[BElement, ...]) -> DCombination:
    """The first-order combination of a product, derived once per factor tuple.

    Product and order reduction never read the Bernoulli table, so the cache
    stays right when a test patches an entry of it.
    """
    return reduce_to_first_order(functools.reduce(product_reduce, factors))


def _product_sides(factors: tuple[BElement, ...], n: int) -> tuple[Fraction, Fraction]:
    """n! [T^n] of a product of elements, two ways: the parametric product identity at n.

    The left side convolves the factors' expansions, each distinct factor
    expanded once; the T^n coefficient of the last convolution is one dot
    product of the two windows' integer numerators.  The right side reads the
    coefficient off the product's first-order combination as integer weights
    over one denominator, each distinct Bernoulli value evaluated once as an
    integer pair, and sums them into one Fraction.
    """
    expansions = {f: f.expand(n) for f in set(factors)}
    *head, last = (expansions[f] for f in factors)
    partial = functools.reduce(operator.mul, head)
    if n > min(partial.bound + last.low, last.bound + partial.low):
        raise InsufficientBoundError(f"the product of the factors' expansions is not exact to T^{n}")
    size = max(n - partial.low - last.low + 1, 0)  # terms partial_i * last_(n-i) with both stored
    dot = sum(map(operator.mul, partial.nums[:size], last.nums[size - 1 :: -1])) if size else 0
    lhs = Fraction(math.factorial(n) * dot, partial.den * last.den)
    den, weights = _rhs_weights(_product_combination(factors), n)
    pairs = ((w, sym.pair()) for sym, w in weights.items() if w)
    return lhs, fraction_sum((w * v, den * d) for w, (v, d) in pairs)


#: the factors whose products the product families read their identities off
_B2, _B3, _B5 = atom(0, 1, 2), atom(0, 1, 3), atom(0, 1, 5)
_B_PRIME = derivative_of_element(b_element())


# -- verification reports -------------------------------------------------------


class IdentityReport(Frozen):
    """Exact verification record for one identity instance."""

    __slots__ = ("name", "params", "lhs_value", "rhs_value", "verified", "degenerate")

    def __init__(
        self,
        name: str,
        params: tuple[tuple[str, Fraction], ...],
        lhs_value: Fraction,
        rhs_value: Fraction,
        verified: bool,
        degenerate: bool = False,
    ):
        self._init(name, params, lhs_value, rhs_value, verified, degenerate)

    def render(self, style: Style = TEXT) -> str:
        """``name(k=v, ...): lhs = rhs [ok]``, ``[FAILED]`` when not verified; in LaTeX the name set
        upright and ``\\neq`` for a failure."""
        args = ", ".join(f"{k}={v}" for k, v in self.params)
        lhs, rhs = style.rational(self.lhs_value), style.rational(self.rhs_value)
        if style.latex:
            rel = "=" if self.verified else "\\neq"
            return f"\\mathrm{{{self.name}}}({args}):\\ {lhs} {rel} {rhs}"
        return f"{self.name}({args}): {lhs} = {rhs} [{'ok' if self.verified else 'FAILED'}]"

    def to_json_dict(self) -> dict:
        out = {
            "name": self.name,
            "params": [{"name": k, "value": str(v)} for k, v in self.params],
            "lhs": str(self.lhs_value),
            "rhs": str(self.rhs_value),
            "verified": self.verified,
            "latex": self.render(LATEX),
        }
        if self.degenerate:
            out["degenerate"] = True
        return out


#: family name -> its ``verify_*`` function, in declaration order: the grid of ``bernring verify NAME``
IDENTITY_REGISTRY: dict[str, Callable[..., IdentityReport]] = {}


def _identity(name: str, **least: int):
    """Register a ``verify_*`` body in ``IDENTITY_REGISTRY`` as the identity family ``name``.

    The body's positional parameters are the family's: one annotated ``int`` is an integer that must be at
    least ``least[param]`` (0 when none is given), and one left unannotated is a rational, passed to the
    body as a Fraction.  The body returns (lhs, rhs) or (lhs, rhs, degenerate).  The registered function
    refuses an integer below its least value with ValueError and returns the IdentityReport, ``verified``
    iff lhs == rhs.  Its ``params`` map each parameter to its least value (None for a rational) and its
    ``options`` each keyword-only option of the body to its default.
    """

    def register(body):
        names = body.__code__.co_varnames[: body.__code__.co_argcount]
        params = {p: least.pop(p, 0) if body.__annotations__.get(p) in ("int", int) else None for p in names}
        if least:
            raise TypeError(f"{name} has no integer parameter {', '.join(least)}")

        @functools.wraps(body)
        def verify(*args, **options):
            if len(args) != len(params):
                raise TypeError(f"{body.__name__} takes {len(params)} positional arguments, got {len(args)}")
            values, named = [], []
            for (pname, low), v in zip(params.items(), args):
                if low is None:
                    v = _as_fraction(v)
                    named.append((pname, v))
                elif v < low:
                    raise ValueError(f"{name} requires {pname} >= {low}")
                else:
                    named.append((pname, Fraction(v)))
                values.append(v)
            lhs, rhs, *degenerate = body(*values, **options)
            return IdentityReport(name, tuple(named), lhs, rhs, lhs == rhs, *degenerate)

        verify.params, verify.options = params, body.__kwdefaults__ or {}
        IDENTITY_REGISTRY[name] = verify
        return verify

    return register


@_identity("euler", m=2)
def verify_euler(m: int):
    """sum_{i=1}^{m-1} C(2m,2i) B_2i B_{2m-2i} = -(2m+1) B_2m for m >= 2."""
    d, b = norlund_numerators(1, 2 * m + 1)
    lhs = fraction_sum((math.comb(2 * m, 2 * i) * b[2 * i] * b[2 * m - 2 * i], d * d) for i in range(1, m))
    return lhs, -(2 * m + 1) * bernoulli_number(2 * m)


@_identity("recurrence")
def verify_recurrence(n: int):
    """sum C(n,i) B_i = (-1)^n B_n; equal to B_n itself once n >= 2."""
    d, b = norlund_numerators(1, n + 1)
    total = Fraction(sum(math.comb(n, i) * b[i] for i in range(n + 1)), d)
    # from n = 2 on the sum must be B_n as well; where it is not, the report holds B_n
    plain = n >= 2 and total != bernoulli_number(n)
    return total, bernoulli_number(n) if plain else Fraction((-1) ** n) * bernoulli_number(n)


@_identity("multiplication", n=1)
def verify_multiplication(m: int, n: int, a):
    """sum_{i<n} B_m(a + i/n) = n^(1-m) B_m(n a)."""
    # with a = p/q, the points a + i/n = (p n + i q)/(q n) and n^(1-m) B_m(p n/q) = n H / (d q^m n^m)
    # are all over d (q n)^m, so both sides sum Horner numerators
    p, q = a.numerator, a.denominator
    den = norlund_numerators(1, m + 1)[0] * (q * n) ** m
    lhs = Fraction(sum(poly_value_numerator(1, m, p * n + i * q, q * n)[0] for i in range(n)), den)
    return lhs, Fraction(n * poly_value_numerator(1, m, p * n, q)[0], den)


@_identity("lowering", n=1, i=1)
def verify_lowering(n: int, i: int, a):
    """B^(n+1)_i(a) = (1 - i/n) B^(n)_i(a) + (a - n)(i/n) B^(n)_{i-1}(a)."""
    lhs = bernoulli_poly_value(n + 1, i, a)
    # with a = p/q both terms are over n d q^i: ((n - i) H_i + i (p - n q) H_(i-1)) / (n d q^i)
    p, q = a.numerator, a.denominator
    (h, d), (h_low, _) = poly_value_numerator(n, i, p, q), poly_value_numerator(n, i - 1, p, q)
    return lhs, Fraction((n - i) * h + i * (p - n * q) * h_low, n * d * q**i)


@_identity("euler-polynomial", n=1)
def verify_euler_polynomial(n: int, a, b):
    """sum C(n,i) B_i(a) B_{n-i}(b) = (1-n) B_n(a+b) + n(a+b-1) B_{n-1}(a+b)."""
    return _product_sides((atom(0, 1, 1, a), atom(0, 1, 1, b)), n)


@_identity("agoh-dilcher")
def verify_agoh_dilcher_example(n: int):
    """sum C(n,i) B_{1+i} B_{1+n-i} = (n-1)/6 B_n - B_{n+1} - (n+3)/6 B_{n+2}."""
    return _product_sides((_B_PRIME, _B_PRIME), n)


@_identity("rademacher", n=3)
def verify_rademacher(n: int):
    """The weighted convolution of B_{2i}/2i equaling -(2n+1)(n-3)/(6n) B_2n.

    n = 3 is the degenerate instance: the sum is empty and the right side
    carries the factor n - 3 = 0.
    """
    d, b = norlund_numerators(1, 2 * n + 1)
    f = math.factorial
    lhs = fraction_sum(
        (f(2 * n - 2) // (f(2 * i - 2) * f(2 * n - 2 * i - 2)) * b[2 * i] * b[2 * n - 2 * i], d * d * 4 * i * (n - i))
        for i in range(2, n - 1)
    )
    return lhs, -Fraction((2 * n + 1) * (n - 3), 6 * n) * bernoulli_number(2 * n), n == 3


@_identity("product-23", n=1)
def verify_23(n: int):
    """sum 3^i 2^(n-i) C(n,i) B_i B_{n-i} against the scaled-argument right side."""
    return _product_sides((_B2, _B3), n)


@_identity("product-23-even", n=2)
def verify_23_even(n: int):
    """The even-index restriction of the 2,3-product identity (n >= 2)."""
    # the product identity at 2n: its odd-index terms carry B_{2n-1} = 0
    return _product_sides((_B2, _B3), 2 * n)


@_identity("product-235", n=2)
def verify_235(n: int):
    """The multinomial identity from the 2*3*5 product reduction (n >= 2)."""
    return _product_sides((_B2, _B3, _B5), n)


@_identity("miki", n=4)
def verify_miki(n: int):
    """Miki's identity for n >= 4 (odd n degenerates to 0 = 0)."""
    d, b = norlund_numerators(1, n + 1)
    terms = [(b[i] * b[n - i], d * d * i * (n - i)) for i in range(2, n - 1)]
    lhs = fraction_sum(terms)
    rhs = Fraction(2, n) * harmonic(n) * bernoulli_number(n) + fraction_sum(
        (math.comb(n, i) * t, den) for i, (t, den) in enumerate(terms, 2)
    )
    return lhs, rhs, n % 2 == 1


# -- series-shaped identities ----------------------------------------------------


def _witness_values(lhs_items, rhs_items) -> tuple[Fraction, Fraction]:
    """Collapse two coefficient lists to a fingerprint pair, equal exactly when the lists are.

    Equal lists produce their common sum twice; differing lists produce their
    first differing coefficients, which differ.
    """
    if lhs_items == rhs_items:
        total = sum(lhs_items, Fraction(0))
        return total, total
    for left, right in zip(lhs_items, rhs_items):
        if left != right:
            return left, right
    raise AssertionError("lists compared unequal but no differing entry found")


@_identity("miki-s-relation", N=1)
def verify_miki_s_relation(N: int):
    """The parameterized product relation, decided exactly at rational points.

    B(sT) B((1-s)T) = (1-s)(B(sT) + sT/2) B + s(B((1-s)T) + (1-s)T/2) B,
    as an identity of series in T whose coefficients are polynomials in s,
    checked for the coefficients of T^0 .. T^N.

    Proof that the finite check decides it: on each side the T^i coefficient
    has degree at most i+1 in s, and both sides are unchanged by s -> 1-s.
    So their difference is a polynomial of degree at most (i+1)//2 in
    u = s(1-s).  The points s = 2, 3, ..., (N+1)//2 + 2 have distinct u,
    and there are (N+1)//2 + 1 of them, so exact equality of every T^i,
    i <= N, at all of them makes each difference the zero polynomial.

    The right side is evaluated as ((1-s)B(sT) + sB((1-s)T) + s(1-s)T) B, one
    product per point.  The verified fingerprint is the value at s = 1, where
    both sides are B: the sum of [T^i]B for i <= N.  On failure the report
    holds the two sides of the first differing coefficient at the first point
    that separates them.
    """
    base = bernoulli_series(N)
    for point in range(2, (N + 1) // 2 + 3):
        s = Fraction(point)
        b_s = base.scale_arg(s)
        b_1ms = base.scale_arg(1 - s)
        lhs = b_s * b_1ms
        t_term = TruncatedSeries.monomial(1, s * (1 - s), N)
        rhs = (b_s.scale(1 - s) + b_1ms.scale(s) + t_term) * base
        lhs_list = [lhs.coeff(i) for i in range(N + 1)]
        rhs_list = [rhs.coeff(i) for i in range(N + 1)]
        if lhs_list != rhs_list:
            break
    else:
        lhs_list = rhs_list = [base.coeff(i) for i in range(N + 1)]
    return _witness_values(lhs_list, rhs_list)


def beta_integral(i: int, j: int) -> Fraction:
    """The exact Beta value: integral of s^i (1-s)^j / (s(1-s)) over [0, 1]."""
    if i < 1 or j < 1:
        raise ValueError("both exponents must be at least 1")
    return factorial(i - 1) * factorial(j - 1) / factorial(i + j - 1)


def beta_integral_by_quadrature(i: int, j: int) -> Fraction:
    """Same value by exact polynomial integration (the independent route)."""
    if i < 1 or j < 1:
        raise ValueError("both exponents must be at least 1")
    s = Poly.X()
    integrand = s ** (i - 1) * (Poly.one() - s) ** (j - 1)
    return integrand.integral()(1)


def harmonic_integral(n: int) -> Fraction:
    """integral of (1 - s^n - (1-s)^n)/(s(1-s)) over [0, 1], equal to 2 H_{n-1}.

    The integer numerator has no constant term, so dividing it by s drops that term, and
    dividing by 1 - s takes running sums: p = (1 - s) q gives q_i = p_0 + ... + p_i.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    s = Poly.X()
    *quotient, rem = itertools.accumulate((Poly.one() - s**n - (Poly.one() - s) ** n).nums[1:] or (0,))
    if rem:
        raise ValueError("inexact division by 1 - s")
    return Poly(quotient).integral()(1)


def kaneko_operator(k: int) -> WeylOp:
    """(k+1) d^k + T d^(k+1): the normal form of d^(k+1) composed with (T *)."""
    return WeylOp({k: Poly.const(k + 1), k + 1: Poly.monomial(1)})


@_identity("kaneko", k=1)
def verify_kaneko(k: int):
    """Both routes to the vanishing sum sum C(k+1,j) (k+j+1) B_{k+j} = 0.

    The direct route evaluates the sum; the operator route reads the
    coefficient of T^(k+1) in e^T applied after the Kaneko operator on B.
    Verification requires both to be zero; they are equal by construction, for any
    table, so the report holds the direct sum against 0.
    """
    direct = sum(
        (binomial(k + 1, j) * (k + j + 1) * bernoulli_number(k + j) for j in range(k + 2)),
        Fraction(0),
    )
    # the operator lowers the bound of B's series by k, and the T^(k+1) coefficient needs bound - k >= k + 1
    bound = 2 * k + 1
    acted = kaneko_operator(k).apply_series(bernoulli_series(bound))
    coeff = (exp_series(1, bound) * acted).coeff(k + 1)
    if factorial(k + 1) * coeff != direct:
        raise RuntimeError(f"internal error: the two Kaneko routes differ at k = {k}")
    return direct, Fraction(0)


@_identity("stirling-gf", k=1)
def verify_stirling_gf(n: int, k: int):
    """S(n,k)/n! equals the T^n coefficient of (T^k/k!) B^-k."""
    return Fraction(stirling(n, k)) / factorial(n), _stirling_generating_element(k).coeff(n)


@functools.lru_cache(maxsize=None)
def _stirling_generating_element(k: int) -> BElement:
    """(T^k/k!) B^-k, built once per k: it reads no Bernoulli table, so the cache stays right
    when a test patches an entry of it."""
    return negative_power_expand(k).mul_monomial(k).scale(1 / factorial(k))


@_identity("f-derivative")
def verify_f_derivative(n: int, *, order: int = 30):
    """d^n B/dT^n = T^-n f_n(T, B), compared as series to the given order."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    direct = bernoulli_series(order + n)
    for _ in range(n):
        direct = direct.derivative()
    via_f = derivative_power_element(n).expand(order)
    lo = min(direct.low, via_f.low, -n)
    lhs_list = [direct.coeff(i) for i in range(lo, order + 1)]
    rhs_list = [via_f.coeff(i) for i in range(lo, order + 1)]
    return _witness_values(lhs_list, rhs_list)


def rademacher_operator(n: int) -> WeylOp:
    """The combined operator with T^2 (B')^2 - (2n-1) B^2 = op(B)."""
    squared = WeylOp(
        {
            3: Poly.monomial(3, Fraction(-1, 6)),
            2: Poly.monomial(2, Fraction(-1, 2)),
            1: Poly.monomial(3, Fraction(1, 6)) - Poly.monomial(2),
            0: Poly.monomial(2, Fraction(-1, 6)),
        }
    )
    return squared - lowering_op(1, 1, 0).scale(2 * n - 1)
