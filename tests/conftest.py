import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, repeat
from operator import add, mul

import pytest
from hypothesis import strategies as st

from bernring import elements, exprparse, reduction, series
from bernring.elements import Atom, BElement, Frozen, _new, _reduced, _shift_product, from_scalar, times_monomial
from bernring.identities import BernSymbol
from bernring.polys import LATEX, Poly, binomial, common_numerators, gcd_ext, lowest_terms
from bernring.partfrac import g_pair, h_f
from bernring.reduction import (
    PAIR_WORK,
    DCombination,
    ReductionError,
    _chain_row,
    _derivative_row,
    _measure,
    invert_term,
    lowering_op,
    product_reduce,
)
from bernring.selftest import run_all
from bernring.series import (
    TruncatedSeries,
    bernoulli_number,
    bernoulli_number_order,
    bernoulli_poly_value,
    bernoulli_power_series,
    exp_minus_one_over_t,
    exp_series,
)
from bernring.weyl import WeylOp, derivative_of_atom

small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)

coefficient_lists = st.lists(small_rationals, max_size=13)
polys = st.builds(Poly, coefficient_lists)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


@pytest.fixture(autouse=True)
def derived_tables_per_test(monkeypatch):
    """Give each test its own Nörlund rows and element series cache.

    Each test starts from the shared row 1 of the Bernoulli table, which is
    computed from tangent numbers alone; a row that grows or is patched is
    replaced in the test's own table.  The rows of order >= 2, each built from
    the row below it and so from row 1, and the element expansion cache are
    never rebuilt, so entries made while a test had a B_i patched would
    otherwise outlive the patch.
    """
    monkeypatch.setattr(series, "_ROWS", {1: series._ROWS[1]})
    monkeypatch.setattr(elements, "_SERIES_CACHE", {})


def tamper_bernoulli(monkeypatch, i: int, value: Fraction) -> None:
    """Patch B_i to ``value`` in the test's own row 1, as a row that grows later keeps it."""
    d, nums = series.norlund_numerators(1, i + 1)
    values = [Fraction(n, d) for n in nums]
    values[i] = value
    monkeypatch.setitem(series._ROWS, 1, common_numerators(values))


@pytest.fixture(scope="session")
def selftest_results():
    """The acceptance suite, run once per test session for every test that checks its results."""
    return run_all()


@pytest.fixture
def rng():
    return random.Random(0xBE57)


def staudt_clausen_denominator(n: int) -> int:
    """The denominator of B_n for even n >= 2: the product of the primes p with (p - 1) | n."""
    primes = [p for p in range(2, n + 2) if all(p % q for q in range(2, int(p**0.5) + 1))]
    return math.prod(p for p in primes if n % (p - 1) == 0)


def random_rational(rng, num=9, den=5) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_poly(rng, max_degree=12) -> Poly:
    return Poly([random_rational(rng) for _ in range(rng.randint(0, max_degree + 1))])


# -- the Fraction-list routes of Poly arithmetic, kept as oracles ---------------
#
# Each takes and returns coefficient lists of Fractions, indexed by exponent, with
# no trailing zero: the dense Fraction arithmetic Poly did before it stored integers.


def fraction_trim(cs) -> list[Fraction]:
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def fraction_poly_add(a: list, b: list) -> list[Fraction]:
    if len(a) < len(b):
        a, b = b, a
    out = [Fraction(c) for c in a]
    for i, c in enumerate(b):
        out[i] += c
    return fraction_trim(out)


def fraction_poly_scale(a: list, c: Fraction) -> list[Fraction]:
    return fraction_trim([x * c for x in a])


def fraction_poly_mul(a: list, b: list) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return fraction_trim(out)


def fraction_poly_pow(a: list, n: int) -> list[Fraction]:
    out = [Fraction(1)]
    for _ in range(n):
        out = fraction_poly_mul(out, a)
    return out


def fraction_poly_compose_power(a: list, ell: int) -> list[Fraction]:
    out = [Fraction(0)] * ((len(a) - 1) * ell + 1) if a else []
    for i, c in enumerate(a):
        out[i * ell] = Fraction(c)
    return fraction_trim(out)


def fraction_poly_derivative(a: list) -> list[Fraction]:
    return fraction_trim([i * c for i, c in enumerate(a)][1:])


def fraction_poly_integral(a: list) -> list[Fraction]:
    return fraction_trim([Fraction(0)] + [Fraction(c) / (i + 1) for i, c in enumerate(a)])


def fraction_poly_eval(a: list, x: Fraction) -> Fraction:
    return sum((Fraction(c) * x**i for i, c in enumerate(a)), Fraction(0))


def fraction_poly_divmod(a: list, b: list) -> tuple[list[Fraction], list[Fraction]]:
    rem, dq = [Fraction(c) for c in a], len(b) - 1
    quot = [Fraction(0)] * max(len(rem) - dq, 0)
    for i in range(len(quot) - 1, -1, -1):
        q = rem[i + dq] / b[-1]
        quot[i] = q
        for j, c in enumerate(b):
            rem[i + j] -= q * c
    return fraction_trim(quot), fraction_trim(rem)


def fraction_poly_gcd_ext(a: list, b: list) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    """(g, u, v), g monic, u a + v b = g, by the extended Euclid of ``gcd_ext`` on Fraction lists."""
    r0, r1, u0, u1, v0, v1 = fraction_trim(a), fraction_trim(b), [Fraction(1)], [], [], [Fraction(1)]
    while r1:
        quot, rem = fraction_poly_divmod(r0, r1)
        r0, r1 = r1, rem
        u0, u1 = u1, fraction_poly_add(u0, fraction_poly_scale(fraction_poly_mul(quot, u1), Fraction(-1)))
        v0, v1 = v1, fraction_poly_add(v0, fraction_poly_scale(fraction_poly_mul(quot, v1), Fraction(-1)))
    lead = 1 / r0[-1]
    return tuple(fraction_poly_scale(p, lead) for p in (r0, u0, v0))


def poly_cauchy(x: list[Poly], y: list[Poly]) -> list[Poly]:
    """Cauchy product of two power series given as coefficient lists in Q[s].

    The symbolic oracle for series whose coefficients are polynomials; the
    result is as long as the shorter operand.
    """
    return [
        sum((x[j] * y[i - j] for j in range(i + 1)), Poly.zero())
        for i in range(min(len(x), len(y)))
    ]


@functools.lru_cache(maxsize=None)
def bernoulli_by_inversion(bound: int) -> TruncatedSeries:
    """B = T/(e^T - 1) by inverting (e^T - 1)/T: the slow route, kept as the table's oracle."""
    return exp_minus_one_over_t(bound).inverse()


@functools.lru_cache(maxsize=None)
def norlund_by_products(n: int, bound: int) -> TruncatedSeries:
    """B^n (n >= 1) by n - 1 Cauchy products of the inverted series."""
    if n == 1:
        return bernoulli_by_inversion(bound)
    return fraction_cauchy(norlund_by_products(n - 1, bound), bernoulli_by_inversion(bound))


# -- the Fraction routes of the series kernels, kept as oracles ---------------


def fraction_cauchy(x: TruncatedSeries, y: TruncatedSeries) -> TruncatedSeries:
    """x * y as a schoolbook Cauchy product, one Fraction multiply-add per pair of terms."""
    bound = min(x.bound + y.low, y.bound + x.low)
    low = x.low + y.low
    if low > bound:
        return TruncatedSeries.zero(bound)
    window = [Fraction(0)] * (bound - low + 1)
    for i, a in enumerate(x.coeffs):
        if not a:
            continue
        ei = x.low + i
        for j in range(min(len(y.coeffs) - 1, bound - ei - y.low) + 1):
            window[ei + y.low + j - low] += a * y.coeffs[j]
    return TruncatedSeries(low, window, bound)


def fraction_combination(parts, bound: int | None = None) -> TruncatedSeries:
    """The sum of c T^d x over the parts (x, d, c), summed term by term in Fractions."""
    bound = min([x.bound + d for x, d, _ in parts] + ([] if bound is None else [bound]))
    low = min([x.low + d for x, d, _ in parts], default=bound + 1)
    if low > bound:
        return TruncatedSeries.zero(bound)
    window = [Fraction(0)] * (bound - low + 1)
    for x, d, c in parts:
        for i, v in enumerate(x.coeffs[: max(0, bound - x.low - d + 1)], x.low + d - low):
            window[i] += c * v
    return TruncatedSeries(low, window, bound)


def fraction_poly_value(n: int, i: int, x: Fraction) -> Fraction:
    """B^(n)_i(x) by Horner's rule in Fractions, with one math.comb per term."""
    acc = Fraction(0)
    for k in range(i + 1):
        acc = acc * x + math.comb(i, k) * bernoulli_number_order(n, k)
    return acc


# -- the slow routes of the reduce path, kept as oracles ----------------------


def rewrite_state(coeff: Fraction, r: int, sigma: int, factors: dict[int, int]) -> list[tuple]:
    """Eliminate one pair of distinct scales from one pending state c * U^r * X^sigma * prod B(pU)^k_p,
    one Fraction per power of X: the children ``(coeff, r, sigma, factors)``."""
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


def _push_state(buckets: list[dict], coeff: Fraction, r: int, sigma: int, factors: dict[int, int]) -> None:
    measure, state = _measure(factors), (r, sigma, frozenset(factors.items()))
    buckets.extend({} for _ in range(measure + 1 - len(buckets)))
    pending = buckets[measure].get(state)
    buckets[measure][state] = (pending[0] + coeff, factors) if pending else (coeff, factors)


def _drain_states(q: int, f: Fraction, buckets: list[dict], out: dict[Atom, Fraction]) -> None:
    for measure in range(len(buckets) - 1, -1, -1):
        for (r, sigma, _), (coeff, factors) in buckets[measure].items():
            if len(factors) > 1:
                for ns in rewrite_state(coeff, r, sigma, factors):
                    if _measure(ns[3]) >= measure:
                        raise ReductionError("product-reduction measure failed to decrease")
                    _push_state(buckets, *ns)
                continue
            ((p, n),) = factors.items() or [(q, 0)]
            key = Atom(b=Fraction(p, q), n=n, m=r, a=f + Fraction(sigma, q))
            out[key] = out.get(key, Fraction(0)) + coeff * Fraction(1, q) ** r


def product_reduce_by_states(x: BElement, y: BElement) -> BElement:
    """x * y with one pending state, and one Fraction, per (r, sigma, factors): equal states of all
    atom pairs merged and rewritten from the highest measure down, as the row route does per (r, factors)."""
    out: dict[Atom, Fraction] = {}
    pending: dict[tuple[int, Fraction], list[dict]] = {}
    for at1, c1 in x.terms.items():
        for at2, c2 in y.terms.items():
            m, a, c = at1.m + at2.m, at1.a + at2.a, c1 * c2
            if at1.n == 0 or at2.n == 0 or at1.b == at2.b:
                key = Atom(b=at1.b if at1.n else at2.b, n=at1.n + at2.n, m=m, a=a)
                out[key] = out.get(key, Fraction(0)) + c
                continue
            q = math.lcm(at1.b.denominator, at2.b.denominator)
            sigma = math.floor(a * q)
            buckets = pending.setdefault((q, a - Fraction(sigma, q)), [])
            _push_state(buckets, c * Fraction(q) ** m, m, sigma, {int(at1.b * q): at1.n, int(at2.b * q): at2.n})
    for (q, f), buckets in pending.items():
        _drain_states(q, f, buckets, out)
    return BElement(out)


def tree_walk_atom_product(at1: Atom, at2: Atom, c: Fraction) -> BElement:
    """c * at1 * at2 by walking the tree of pending states, none merged."""
    m = at1.m + at2.m
    a = at1.a + at2.a
    if at1.n == 0 or at2.n == 0 or at1.b == at2.b:
        n = at1.n + at2.n
        b = at1.b if at1.n else at2.b
        return BElement({Atom(b=b if n else Fraction(1), n=n, m=m, a=a): c})
    q = math.lcm(at1.b.denominator, at2.b.denominator)
    done = []
    states = [(c, 0, 0, {int(at1.b * q): at1.n, int(at2.b * q): at2.n})]
    while states:
        state = states.pop()
        if len(state[3]) <= 1:
            done.append(state)
            continue
        new_states = rewrite_state(*state)
        for ns in new_states:
            if _measure(ns[3]) >= _measure(state[3]):
                raise ReductionError("product-reduction measure failed to decrease")
        states.extend(new_states)
    out: dict[Atom, Fraction] = {}
    for coeff, r, sigma, factors in done:
        if factors:
            ((p, n),) = factors.items()
            key = Atom(b=Fraction(p, q), n=n, m=m + r, a=a + Fraction(sigma, q))
        else:
            key = Atom(b=Fraction(1), n=0, m=m + r, a=a + Fraction(sigma, q))
        out[key] = out.get(key, Fraction(0)) + coeff * Fraction(1, q) ** r
    return BElement(out)


def fold_product_reduce(x: BElement, y: BElement) -> BElement:
    """x * y as a running sum ``acc = acc + ...`` of tree-walked atom products."""
    acc = BElement.zero()
    for at1, c1 in x.terms.items():
        for at2, c2 in y.terms.items():
            acc = acc + tree_walk_atom_product(at1, at2, c1 * c2)
    return acc


def fold_derivative_of_element(x: BElement) -> BElement:
    acc = BElement.zero()
    for at, c in x.terms.items():
        acc = acc + derivative_of_atom(at).scale(c)
    return acc


def fold_apply_element(op, x: BElement) -> BElement:
    """op(x) for a WeylOp, summing one scaled T-shift at a time."""
    max_order = op.order()
    acc = BElement.zero()
    deriv = x
    for k in range(max_order + 1):
        f = op.parts.get(k)
        if f is not None:
            for d, c in enumerate(f.coeffs):
                if c != 0:
                    acc = acc + deriv.mul_monomial(d).scale(c)
        if k < max_order:
            deriv = fold_derivative_of_element(deriv)
    return acc


def window(ser: TruncatedSeries) -> tuple:
    """What a series is, compared exactly: its first stored exponent, its bound and its coefficients."""
    return ser.low, ser.bound, ser.coeffs


def atom_series(at: Atom, bound: int) -> TruncatedSeries:
    """The series of one atom, exact to the bound, from its factor series and not the element cache: the product
    of B(bT)^n and e^{aT}, each exact to bound - m, shifted by T^m; zero to the bound when m > bound."""
    work = bound - at.m
    if work < 0:
        return TruncatedSeries.zero(bound)
    return (bernoulli_power_series(at.n, work).scale_arg(at.b) * exp_series(at.a, work)).shift(at.m)


def fold_expand(x: BElement, bound: int) -> TruncatedSeries:
    """x's series as a running sum of scaled atom series."""
    acc = TruncatedSeries.zero(bound)
    for at, c in x.terms.items():
        acc = acc + atom_series(at, bound).scale(c)
    return acc


def trailing_valuation(p: Poly) -> int:
    """Lowest exponent with a nonzero coefficient (0 for the zero poly)."""
    for i, c in enumerate(p.coeffs):
        if c != 0:
            return i
    return 0


def fold_mul_poly_in_t(x: TruncatedSeries, p: Poly) -> TruncatedSeries:
    """x times a nonzero polynomial in T, one shifted and scaled copy at a time."""
    val = trailing_valuation(p)
    acc = TruncatedSeries.zero(x.bound + val)
    for d in range(val, p.degree + 1):
        if p.coeff(d) != 0:
            acc = acc + x.shift(d).truncate(x.bound + val).scale(p.coeff(d))
    return acc


def fold_apply_series(op: WeylOp, x: TruncatedSeries) -> TruncatedSeries:
    """op(x) as a running sum of f_k(T) times the k-th derivative of x."""
    if op.is_zero():
        return TruncatedSeries.zero(x.bound)
    acc = None
    deriv = x
    for k in range(op.order() + 1):
        if k in op.parts:
            term = fold_mul_poly_in_t(deriv, op.parts[k])
            acc = term if acc is None else acc + term
        deriv = deriv.derivative()
    return acc


def fold_semantic_element(combo) -> BElement:
    """The element a DCombination denotes, summed one generator at a time."""
    acc = BElement.zero()
    for gen, op in combo.entries.items():
        base = BElement({Atom(b=gen.b, n=gen.n, m=0, a=gen.a): Fraction(1)})
        acc = acc + fold_apply_element(op, base).mul_monomial(gen.m)
    return acc


def weyl_rows_by_passes(parts: dict[int, list[int]], den: int) -> tuple[dict[int, tuple[int, ...]], int]:
    """The stored rows and denominator of integer rows over ``den``, by a pass that trims every row,
    one gcd over the rows' gcds, and a pass that divides."""
    rows = {}
    for k, row in parts.items():
        end = len(row)
        while end and not row[end - 1]:
            end -= 1
        if end:
            rows[k] = tuple(row[:end])
    g = lowest_terms(den, (math.gcd(*row) for row in rows.values()))
    return {k: tuple(v // g for v in row) for k, row in rows.items()}, den // g


def left_divide_t_power(op: WeylOp, k: int) -> WeylOp | None:
    """op = T^k * rest read off the integer rows: rest, or None if some row has a lower T-power (the
    route the library took before it divided the T-pole out of the lowering's rows)."""
    if k == 0:
        return op
    if any(any(row[:k]) for row in op.rows.values()):
        return None
    return WeylOp({order: row[k:] for order, row in op.rows.items()}, op.den)


def left_divide_t_power_by_polys(op: WeylOp, k: int) -> WeylOp | None:
    """op = T^k * rest read off the Poly parts: rest, or None if some part has a lower T-power."""
    out = {}
    for order, f in op.parts.items():
        if trailing_valuation(f) < k:
            return None
        out[order] = Poly(f.coeffs[k:])
    return WeylOp(out)


def lowering_chain_by_products(n: int, b: Fraction, a: Fraction) -> WeylOp:
    """L(n-1) * ... * L(1), multiplied from the left end, with nothing reused."""
    chain = WeylOp({0: Poly.one()})
    for j in range(n - 1, 0, -1):
        chain = chain * lowering_op(j, b, a)
    return chain


def lowering_chain(n: int, b: Fraction, a: Fraction, chains: dict[tuple, WeylOp]) -> WeylOp:
    """chain(n) = L(n-1) * chain(n-1), carrying B(bT)e^{aT} to B^n(bT)e^{aT}; ``chains`` keeps each by (n, b, a)."""
    start = n
    while start > 1 and (start, b, a) not in chains:
        start -= 1
    chain = chains.get((start, b, a), WeylOp({0: Poly.one()}))
    for j in range(start, n):
        chain = lowering_op(j, b, a) * chain
        chains[(j + 1, b, a)] = chain
    return chain


def reduce_to_first_order_by_chains(x: BElement) -> DCombination:
    """The first-order combination with one Weyl product per atom: T^m c times its lowering chain."""
    buckets: dict[tuple[int, Fraction, Fraction], dict[int, WeylOp]] = {}
    chains: dict[tuple, WeylOp] = {}
    for at, c in x.terms.items():
        chain = lowering_chain(at.n, at.b, at.a, chains) if at.n >= 1 else WeylOp({0: Poly.one()})
        gen_n = 1 if at.n >= 1 else 0
        slot = buckets.setdefault((gen_n, at.b if gen_n else Fraction(1), at.a), {})
        if at.m >= 0:
            op = WeylOp({0: Poly.monomial(at.m, c)}) * chain
            slot[0] = slot.get(0, WeylOp.zero()) + op
        else:
            slot[at.m] = slot.get(at.m, WeylOp.zero()) + chain.scale(c)
    entries: dict[Atom, WeylOp] = {}
    for (gen_n, b, a), slots in buckets.items():
        slots = {m: op for m, op in slots.items() if not op.is_zero()}
        if not slots:
            continue
        m_min = min(slots)
        if m_min >= 0:
            total, gen_m = slots[0], 0
        else:
            total = WeylOp.zero()
            for m, op in slots.items():
                total = total + WeylOp({0: Poly.monomial(m - m_min)}) * op
            divided = left_divide_t_power(total, -m_min)
            total, gen_m = (divided, 0) if divided is not None else (total, m_min)
        if not total.is_zero():
            entries[Atom(b=b, n=gen_n, m=gen_m, a=a)] = total
    return DCombination(entries)


# -- the routes of f_n, the zero test and h^(k)_{1,n} before they moved onto the ring --------


def f_n_by_recursion(n: int) -> dict[tuple[int, int], Fraction]:
    """f_n(U, V) as {(i, j): coefficient of U^i V^j}, by f_n = (1-n + U d_U + (1-U-V) V d_V) f_(n-1)
    from f_0 = V, on plain dicts."""
    f = {(0, 1): Fraction(1)}
    for k in range(1, n + 1):
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in f.items():
            for key, w in (((i, j), 1 - k + i + j), ((i + 1, j), -j), ((i, j + 1), -j)):
                out[key] = out.get(key, Fraction(0)) + w * c
        f = {key: c for key, c in out.items() if c}
    return f


def exp_poly_by_nested_dicts(x: BElement) -> dict[Fraction, dict[int, Fraction]]:
    """x*D as {a: {m: coefficient of T^m e^{aT}}}, with D = prod over scales b of (e^{bT}-1)^{M_b},
    cleared one atom and one scale at a time; rows and entries that vanish are pruned."""
    max_power: dict[Fraction, int] = {}
    for at in x.terms:
        if at.n >= 1:
            max_power[at.b] = max(max_power.get(at.b, 0), at.n)
    epoly: dict[Fraction, dict[int, Fraction]] = {}
    for at, c in x.terms.items():
        tpow = at.m + at.n
        base: dict[Fraction, Fraction] = {at.a: c * at.b**at.n}
        for scale, mult in max_power.items():
            k = mult - at.n if (at.n >= 1 and scale == at.b) else mult
            if k == 0:
                continue
            grown: dict[Fraction, Fraction] = {}
            for r in range(k + 1):
                w = math.comb(k, r) * (-1) ** (k - r)
                for shift, coeff in base.items():
                    key = shift + r * scale
                    grown[key] = grown.get(key, Fraction(0)) + w * coeff
            base = grown
        for shift, coeff in base.items():
            if coeff == 0:
                continue
            row = epoly.setdefault(shift, {})
            row[tpow] = row.get(tpow, Fraction(0)) + coeff
    pruned = {shift: {e: c for e, c in row.items() if c} for shift, row in epoly.items()}
    return {shift: row for shift, row in pruned.items() if row}


def exact_div(p: Poly, q: Poly) -> Poly:
    """p / q by Euclidean division, which must leave no remainder."""
    quot, rem = divmod(p, q)
    if not rem.is_zero():
        raise ValueError("inexact polynomial division")
    return quot


def h_via_bezout(k: int, n: int) -> Poly:
    """Independent route to h^(k)_{1,n}: invert 1+X+...+X^(n-1) modulo (X-1)^k."""
    modulus = Poly([-1, 1]) ** k
    g, u, _ = gcd_ext(cyclotomic_sum(n), modulus)
    if g != Poly.one():
        raise ValueError("cofactors unexpectedly not coprime")
    return divmod(u, modulus)[1]


# -- the Fraction routes of the partial-fraction data, kept as oracles --------


def cyclotomic_sum(n: int) -> Poly:
    """1 + X + ... + X^(n-1), the quotient (X^n - 1)/(X - 1)."""
    if n < 1:
        raise ValueError("cyclotomic_sum requires n >= 1")
    return Poly([1] * n)


def g_pair_by_euclid(m: int, n: int) -> tuple[Poly, Poly]:
    """(g_mn, g_nm) of ``g_pair`` in Fraction polynomials, the Bezout cofactor by extended Euclid."""
    ell = math.gcd(m, n)
    mh, nh = m // ell, n // ell
    phi_m, phi_n = cyclotomic_sum(mh), cyclotomic_sum(nh)
    lhs = exact_div(Poly.one() - phi_m * phi_n / Fraction(mh * nh), Poly([-1, 1]))
    _, _, v = gcd_ext(phi_m, phi_n)
    g_mn = divmod(lhs * v, phi_m)[1]
    g_nm = exact_div(lhs - g_mn * phi_n, phi_m)
    return g_mn.compose_power(ell), g_nm.compose_power(ell)


def _times_phi(p: list[int], n: int) -> list[int]:
    """p times 1 + X + ... + X^(n-1): each coefficient a sum over a window of p."""
    return [sum(p[max(0, e - n + 1) : e + 1]) for e in range(len(p) + n - 1)]


def _quotient(p: list[int], q: list[int]) -> list[int]:
    """p / q for a monic integer polynomial q that divides p, by long division."""
    rem, dq = list(p), len(q) - 1
    quot = [0] * max(len(rem) - dq, 0)
    for i in range(len(quot) - 1, -1, -1):
        if c := rem[i + dq]:
            quot[i] = c
            for j, b in enumerate(q):
                rem[i + j] -= c * b
    if any(rem):
        raise ValueError("inexact polynomial division")
    return quot


def g_pair_by_bezout(m: int, n: int) -> tuple[Poly, Poly]:
    """(g_mn, g_nm) of ``g_pair`` in integers, the Bezout cofactor in closed form.

    Over mh nh, lhs = (mh nh - phi_mh phi_nh)/(X-1) splits as g_nm phi_mh + g_mn phi_nh.  With
    u = nh^-1 mod mh, v = sum_{j<u} X^(nh j) has phi_nh v = 1 mod phi_mh, so g_mn = lhs v mod
    phi_mh: lhs folded mod X^mh - 1, summed over u rotations, less its top coefficient times
    phi_mh.  Then g_nm = (lhs - g_mn phi_nh)/phi_mh by long division.
    """
    ell = math.gcd(m, n)
    mh, nh = m // ell, n // ell
    numerator = [-c for c in _times_phi([1] * mh, nh)]
    numerator[0] += mh * nh
    lhs = _quotient(numerator, [-1, 1])
    folded = [sum(lhs[i::mh]) for i in range(mh)]
    rem = [0] * mh
    for j in range(pow(nh, -1, mh)):
        s = nh * j % mh
        rem = [a + b for a, b in zip(rem, folded[mh - s :] + folded[: mh - s])]
    top = rem.pop()
    mn_nums = [c - top for c in rem]
    nm_nums = _quotient([a - b for a, b in zip(lhs, _times_phi(mn_nums, nh))], [1] * mh)
    return tuple(Poly(nums, mh * nh).compose_power(ell) for nums in (mn_nums, nm_nums))


def h_f_by_recurrence(k: int, ell: int, n: int) -> tuple[Poly, Poly]:
    """(h, f) of ``h_f`` in Fraction polynomials: h in the basis (X-1)^j, f by exact division."""
    nh = n // ell
    a = [Fraction(1, nh)]
    for i in range(2, k + 1):
        a.append(-sum((a[j] * binomial(nh, i - j) for j in range(i - 1)), Fraction(0)) / nh)
    x_minus_one = Poly([-1, 1])
    h = sum((x_minus_one**j * aj for j, aj in enumerate(a)), Poly.zero())
    f = exact_div(Poly.one() - cyclotomic_sum(nh) * h, x_minus_one**k)
    return h.compose_power(ell), f.compose_power(ell)


# -- the hand-derived product identities, kept as oracles ----------------------
#
# Each returns (left side, right side) of the identity at n, as the product
# families once typed them in; the library now reads both sides off the ring.

F2, F3, F5 = Fraction(2), Fraction(3), Fraction(5)


def product_23_by_hand(n: int) -> tuple[Fraction, Fraction]:
    """n! [T^n] B(2T)B(3T) as a convolution, and its scaled-argument right side."""
    b, bp = bernoulli_number, bernoulli_poly_value
    lhs = sum((F3**i * F2 ** (n - i) * math.comb(n, i) * b(i) * b(n - i) for i in range(n + 1)), Fraction(0))
    p3, p2 = 2 * n * F3 ** (n - 2), 3 * n * F2 ** (n - 2)
    rhs = p3 * bp(1, n - 1, Fraction(1, 3)) - (p3 + p2 + n) * b(n - 1) + (1 - n) * b(n)
    return lhs, rhs


def product_23_even_by_hand(n: int) -> tuple[Fraction, Fraction]:
    """The even-index terms of the 2,3-product identity at 2n (n >= 2)."""
    b = bernoulli_number
    lhs = sum(
        (F3 ** (2 * i) * F2 ** (2 * n - 2 * i) * math.comb(2 * n, 2 * i) * b(2 * i) * b(2 * n - 2 * i)
         for i in range(n + 1)),
        Fraction(0),
    )
    rhs = 4 * n * F3 ** (2 * n - 2) * bernoulli_poly_value(1, 2 * n - 1, Fraction(1, 3)) + (1 - 2 * n) * b(2 * n)
    return lhs, rhs


def product_235_by_hand(n: int) -> tuple[Fraction, Fraction]:
    """n! [T^n] B(2T)B(3T)B(5T) as a multinomial sum, and its right side (n >= 2)."""
    b, bp, nn = bernoulli_number, bernoulli_poly_value, Fraction(n)
    lhs = Fraction(0)
    for i in range(n + 1):
        for j in range(n - i + 1):
            k = n - i - j
            w = Fraction(math.factorial(n), math.factorial(i) * math.factorial(j) * math.factorial(k))
            lhs += w * F2**i * F3**j * F5**k * b(i) * b(j) * b(k)
    rhs = (
        Fraction(1, 2) * (nn - 1) * (nn - 2) * b(n)
        + 5 * nn * (nn - 2) * b(n - 1)
        + (Fraction(9, 2) + Fraction(15, 4) * F2 ** (n - 2) + Fraction(18, 5) * F5 ** (n - 2))
        * nn * (nn - 1) * b(n - 2)
        - Fraction(10, 3) * nn * (nn - 1) * F3 ** (n - 2) * bp(1, n - 2, Fraction(1, 3))
        + Fraction(6, 5) * nn * (nn - 1) * F5 ** (n - 2)
        * (bp(1, n - 2, Fraction(2, 5)) + bp(1, n - 2, Fraction(3, 5)))
    )
    return lhs, rhs


def agoh_dilcher_by_hand(n: int) -> tuple[Fraction, Fraction]:
    """n! [T^n] (B')^2 as a convolution, and (n-1)/6 B_n - B_{n+1} - (n+3)/6 B_{n+2}."""
    b = bernoulli_number
    lhs = sum((math.comb(n, i) * b(1 + i) * b(1 + n - i) for i in range(n + 1)), Fraction(0))
    rhs = Fraction(n - 1, 6) * b(n) - b(n + 1) - Fraction(n + 3, 6) * b(n + 2)
    return lhs, rhs


def euler_polynomial_by_hand(n: int, a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    """sum C(n,i) B_i(a) B_{n-i}(b), and (1-n) B_n(a+b) + n(a+b-1) B_{n-1}(a+b) (n >= 1)."""
    bp, s = bernoulli_poly_value, a + b
    lhs = sum((math.comb(n, i) * bp(1, i, a) * bp(1, n - i, b) for i in range(n + 1)), Fraction(0))
    rhs = (1 - n) * bp(1, n, s) + n * (s - 1) * bp(1, n - 1, s)
    return lhs, rhs


# -- the Fraction routes of the coefficient reader and the verify families, kept as oracles --------


def coeff_by_expansion(x: BElement, i: int) -> Fraction:
    """The T^i coefficient of x read off its series expanded to T^i."""
    return x.expand(i).coeff(i)


def product_lhs_by_coefficients(factors, n: int) -> Fraction:
    """n! [T^n] of a product of elements, one Fraction product of stored coefficients per term."""
    *head, last = (f.expand(n) for f in factors)
    partial = functools.reduce(fraction_cauchy, head)
    return math.factorial(n) * sum(
        (partial.coeff(i) * last.coeff(n - i) for i in range(partial.low, n - last.low + 1)), Fraction(0)
    )


def euler_by_fractions(m: int) -> tuple[Fraction, Fraction]:
    b = bernoulli_number
    lhs = sum((math.comb(2 * m, 2 * i) * b(2 * i) * b(2 * m - 2 * i) for i in range(1, m)), Fraction(0))
    return lhs, -(2 * m + 1) * b(2 * m)


def recurrence_by_fractions(n: int) -> tuple[Fraction, Fraction]:
    b = bernoulli_number
    total = sum((math.comb(n, i) * b(i) for i in range(n + 1)), Fraction(0))
    plain = n >= 2 and total != b(n)
    return total, b(n) if plain else (-1) ** n * b(n)


def multiplication_by_fractions(m: int, n: int, a: Fraction) -> tuple[Fraction, Fraction]:
    lhs = sum((fraction_poly_value(1, m, a + Fraction(i, n)) for i in range(n)), Fraction(0))
    return lhs, Fraction(n) ** (1 - m) * fraction_poly_value(1, m, n * a)


def lowering_by_fractions(n: int, i: int, a: Fraction) -> tuple[Fraction, Fraction]:
    lhs = fraction_poly_value(n + 1, i, a)
    rhs = (1 - Fraction(i, n)) * fraction_poly_value(n, i, a) + (a - n) * Fraction(i, n) * fraction_poly_value(
        n, i - 1, a
    )
    return lhs, rhs


def rademacher_by_fractions(n: int) -> tuple[Fraction, Fraction]:
    b, f = bernoulli_number, math.factorial
    lhs = Fraction(0)
    for i in range(2, n - 1):
        w = Fraction(f(2 * n - 2), f(2 * i - 2) * f(2 * n - 2 * i - 2))
        lhs += w * b(2 * i) / (2 * i) * b(2 * n - 2 * i) / (2 * n - 2 * i)
    return lhs, -Fraction((2 * n + 1) * (n - 3), 6 * n) * b(2 * n)


def miki_by_fractions(n: int) -> tuple[Fraction, Fraction]:
    b = bernoulli_number
    terms = [b(i) / i * b(n - i) / (n - i) for i in range(2, n - 1)]
    harmonic = sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))
    rhs = Fraction(2, n) * harmonic * b(n) + sum((math.comb(n, k) * t for k, t in enumerate(terms, 2)), Fraction(0))
    return sum(terms, Fraction(0)), rhs


# -- the Fraction routes of the element kernel, kept as oracles ---------------------------------
# Each returns the coefficients as a Fraction dict {atom: c} with no zero entry, as BElement stored
# them before it held integer numerators over one denominator.


def fraction_terms_sum(x: BElement, y: BElement, sign: int = 1) -> dict[Atom, Fraction]:
    """x + sign * y, one Fraction sum per shared atom."""
    out = dict(x.terms)
    for at, c in y.terms.items():
        out[at] = out[at] + sign * c if at in out else sign * c
    return {at: c for at, c in out.items() if c}


def fraction_terms_scale(x: BElement, c) -> dict[Atom, Fraction]:
    c = Fraction(c)
    return {at: c * v for at, v in x.terms.items() if c}


def fraction_terms_mul_monomial(x: BElement, k: int, a_shift) -> dict[Atom, Fraction]:
    return {Atom(b=at.b, n=at.n, m=at.m + k, a=at.a + Fraction(a_shift)): c for at, c in x.terms.items()}


def derivative_by_fractions(x: BElement) -> dict[Atom, Fraction]:
    """d/dT of x, one Fraction product per term of the first-order derivative formula."""
    terms: dict[Atom, Fraction] = {}
    for at, c in x.terms.items():
        parts = [(at.m - 1, at.n, at.m), (at.m, at.n, at.a)]
        if at.n >= 1:
            parts += [(at.m - 1, at.n, at.n), (at.m, at.n, -at.n * at.b), (at.m - 1, at.n + 1, -at.n)]
        for m, n, coeff in parts:
            if coeff:
                key = Atom(b=at.b, n=n, m=m, a=at.a)
                terms[key] = terms.get(key, Fraction(0)) + c * coeff
    return {at: c for at, c in terms.items() if c}


def exp_poly(x: BElement) -> BElement:
    """x*D as an element of atoms T^m e^{aT}, built from the integer map of ``x._cleared()``."""
    cleared, shift_den, den = x._cleared()
    terms = {Atom(Fraction(1), 0, m, Fraction(shift, shift_den)): c for (shift, m), c in cleared.items() if c}
    return BElement(terms, den)


def to_exp_poly_by_fractions(x: BElement) -> dict[Atom, Fraction]:
    """x*D with D = prod over scales b of (e^{bT}-1)^{M_b}, one Fraction per shift and T-power."""
    max_power: dict[Fraction, int] = {}
    for at in x.terms:
        if at.n >= 1:
            max_power[at.b] = max(max_power.get(at.b, 0), at.n)
    cleared: dict[tuple[Fraction, int], Fraction] = {}
    for at, c in x.terms.items():
        base: dict[Fraction, Fraction] = {at.a: c * at.b**at.n}
        for scale, mult in max_power.items():
            k = mult - at.n if scale == at.b else mult
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
    return {Atom(Fraction(1), 0, m, a): c for (a, m), c in cleared.items() if c}


def invert_term_by_binomials(at: Atom, coeff: Fraction) -> BElement:
    """(coeff T^m B(bT)^n e^{aT})^-1 by its own binomial loop over (e^{bT} - 1)^n, one atom per j."""
    bn, bd, n, m, an, ad = at
    num, den = bd**n * coeff.denominator, bn**n * coeff.numerator
    terms = {}
    for j in range(n + 1):  # C(n, j) (-1)^(n-j) num/den at e^{(jb - a)T}, num/den = 1/(coeff b^n)
        key = Atom(Fraction(1), 0, -m - n, Fraction(j * bn * ad - an * bd, bd * ad))
        terms[key] = (-1) ** (n - j) * math.comb(n, j) * num
    return BElement(terms, den)


def product_reduce_by_fraction_pairs(x: BElement, y: BElement) -> dict[Atom, Fraction]:
    """x * y with a Fraction product, shift and coefficient per pair of atoms; the rows of each
    (q, f) bucket are rewritten as ``product_reduce`` rewrites them."""
    out: dict[Atom, Fraction] = {}
    pending: dict[tuple[int, Fraction], list[dict]] = {}
    for at1, c1 in x.terms.items():
        for at2, c2 in y.terms.items():
            m, a, c = at1.m + at2.m, at1.a + at2.a, c1 * c2
            if at1.n == 0 or at2.n == 0 or at1.b == at2.b:
                key = Atom(b=at1.b if at1.n else at2.b, n=at1.n + at2.n, m=m, a=a)
                out[key] = out[key] + c if key in out else c
                continue
            q = math.lcm(at1.b.denominator, at2.b.denominator)
            sigma, c = math.floor(a * q), c * Fraction(q) ** m
            buckets = pending.setdefault((q, a - Fraction(sigma, q)), [])
            push_row(buckets, m, {int(at1.b * q): at1.n, int(at2.b * q): at2.n}, ({sigma: c.numerator}, c.denominator))
    for (q, f), buckets in pending.items():
        for r, factors, (num, den) in drain_by_steps(buckets):
            ((p, n),) = factors.items() or [(q, 0)]
            for sigma, v in num.items():
                if v:
                    key, c = Atom(Fraction(p, q), n, r, f + Fraction(sigma, q)), Fraction(v, den) * Fraction(1, q) ** r
                    out[key] = out[key] + c if key in out else c
    return {at: c for at, c in out.items() if c}


def free(units: int) -> None:
    """A ``spend`` that charges nothing."""


def push_row(buckets: list[dict], r: int, factors: dict[int, int], row: tuple, spend=free) -> None:
    """Add a row to ``buckets`` by its measure, then by r and the set of its factors, with the factors beside it;
    ``PAIR_WORK`` is charged to ``spend`` for each level the buckets grow by, before they grow."""
    measure, key = _measure(factors), (r, frozenset(factors.items()))
    spend(PAIR_WORK * max(0, measure + 1 - len(buckets)))
    buckets.extend({} for _ in range(measure + 1 - len(buckets)))
    held = buckets[measure].get(key)
    buckets[measure][key] = (factors, reduction._merged(held[1], row) if held else row)


def identity_terms(ps: int, pn: int, k: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """The two polynomials in X of the rewrite of B^k(ps U) B(pn U), as (denominator, [(d, integer
    numerator of X^d)]): ps^k f and (pn/ps) h of ``h_f`` if ps | pn, else ps g_nm and pn g_mn of ``g_pair``."""
    if pn % ps == 0:
        pair = h_f(k, ps, pn)
        polys = [(pair.f, ps**k), (pair.h, pn // ps)]
    else:
        pair = g_pair(ps, pn)
        polys = [(pair.g_nm, ps), (pair.g_mn, pn)]
    out = []
    for poly, factor in polys:
        g = math.gcd(poly.den, factor)
        out.append((poly.den // g, [(d, v * factor // g) for d, v in enumerate(poly.nums) if v]))
    return out


def rewrite_step(r: int, factors: dict[int, int], row: tuple, spend=free) -> list[tuple]:
    """Eliminate one pair of distinct scales from a pending row; returns the child rows.

    Scales live in units of U = T/q; a row holds the power of U (r), the multiset of remaining
    B-factors {scale: power} and a sparse polynomial in X = e^U, which each partial-fraction identity
    multiplies by a fixed polynomial through ``_shift_product``, its entries times the polynomial's terms
    charged to ``spend`` first.  A child is ``(r, factors, row)``.
    """
    scales = sorted(factors)
    pair = next(((s, big) for s in scales for big in scales if s != big and big % s == 0), None)
    ps, pn = pair or scales[:2]
    k = factors[ps] if pair else 1
    rest = {p: e for p, e in {**factors, ps: factors[ps] - k, pn: factors[pn] - 1}.items() if e}
    first, second = identity_terms(ps, pn, k)
    with_pn = {**rest, pn: rest.get(pn, 0) + 1}
    if pair:
        # B^k(l U) B(n U) with l | n: raises the pole order at l, or trades
        # the whole B^k(l U) for a T-power in front of B(n U).
        children, pieces = [], [(r + k, with_pn, first), (r, {**rest, ps: k + 1}, second)]
    else:
        # incomparable pair: one B-factor of each combines into B^2 at the gcd
        # scale plus simple terms weighted by the g-polynomials.
        ell = math.gcd(ps, pn)
        children = [(r, {**rest, ell: rest.get(ell, 0) + 2}, row)]
        pieces = [(r + 1, with_pn, first), (r + 1, {**rest, ps: rest.get(ps, 0) + 1}, second)]
    num, den = row
    for s, fs, (pden, terms) in pieces:
        if terms:
            spend(len(num) * len(terms))
            children.append((s, fs, (_shift_product(num, terms), den * pden)))
    return children


def drain_by_steps(buckets: list[dict], spend=free):
    """The rows of ``buckets`` (``push_row``) rewritten as ``reduction._drain`` rewrites them, by a call of
    ``rewrite_step`` on every row, each child's measure checked here: no plan is read."""
    for measure in range(len(buckets) - 1, -1, -1):
        for (r, _), (factors, row) in buckets[measure].items():
            if len(factors) <= 1:
                yield r, factors, row
                continue
            for child in rewrite_step(r, factors, row, spend):
                if _measure(child[1]) >= measure:
                    raise ReductionError("product-reduction measure failed to decrease")
                push_row(buckets, *child)


def product_reduce_by_steps(x: BElement, y: BElement, spend=free) -> BElement:
    """x * y by the rows of ``product_reduce``, every numerator carried whole through ``drain_by_steps``; the work
    is charged to ``spend`` as ``product_reduce`` charges it, counted here on the rows as they are."""
    spend(PAIR_WORK * len(x.nums) * len(y.nums))
    out: dict[Atom, int] = {}
    pending: dict[tuple[int, int, int], list[dict]] = {}
    groups = [{}, {}]  # the atoms of x and y by their shift, in the order product_reduce takes the pairs
    for z, by_shift in zip((x, y), groups):
        for (bn, bd, n, m, an, ad), v in z.nums.items():
            by_shift.setdefault((an, ad), []).append((bn, bd, n, m, v))
    for ((an1, ad1), xs), ((an2, ad2), ys) in itertools.product(*(by_shift.items() for by_shift in groups)):
        an, ad = _reduced(an1 * ad2 + an2 * ad1, ad1 * ad2)
        for (bn1, bd1, n1, m1, v1), (bn2, bd2, n2, m2, v2) in itertools.product(xs, ys):
            m, c = m1 + m2, v1 * v2
            if not n1 or not n2 or (bn1, bd1) == (bn2, bd2):
                key = _new(Atom, (bn1, bd1, n1 + n2, m, an, ad) if n1 else (bn2, bd2, n2, m, an, ad))
                out[key] = out.get(key, 0) + c
                continue
            q = math.lcm(bd1, bd2)
            sigma = an * q // ad
            buckets = pending.setdefault((q, *_reduced(an * q - sigma * ad, ad * q)), [])
            row = ({sigma: c * q**m}, 1) if m >= 0 else ({sigma: c}, q**-m)
            push_row(buckets, m, {bn1 * (q // bd1): n1, bn2 * (q // bd2): n2}, row, spend)
    drained = [(key, *step) for key, buckets in pending.items() for step in drain_by_steps(buckets, spend)]
    bottoms = [den * q**r if r >= 0 else den for (q, _, _), r, _, (_, den) in drained]
    scale = math.lcm(*bottoms)
    out = {at: v * scale for at, v in out.items()}
    for ((q, fn, fd), r, factors, (num, _)), bottom in zip(drained, bottoms):
        ((p, n),) = factors.items() or [(q, 0)]
        (bn, bd), w = _reduced(p, q), (scale // bottom) * (q**-r if r < 0 else 1)
        for sigma, v in num.items():
            if v:
                key = _new(Atom, (bn, bd, n, r, *_reduced(fn * q + sigma * fd, fd * q)))
                out[key] = out.get(key, 0) + v * w
    return BElement(out, x.den * y.den * scale)


class ProductThenMonomialParser(exprparse._Parser):
    """The parser with each product of a term formed in full as its second factor arrives, by
    ``product_reduce_by_steps`` charging its own count of the work, and the term's monomials multiplied into the
    result at its end by ``times_monomial``; the B-power cap is read from every atom at the same tokens."""

    def term(self) -> BElement:
        rest = monomial = None
        factor = self.unary()
        while True:
            if len(factor.nums) == 1 and next(iter(factor.nums)).n == 0:
                monomial = factor if monomial is None else times_monomial(monomial, factor)
            elif rest is None:
                rest = factor
            else:
                rest = product_reduce_by_steps(rest, factor, self.spend)
            if self.peek()[1] != "*":
                break
            self.advance()
            factor = self.unary()
            caps_by_rescan(self, BElement() if rest is None else rest, factor)
        if monomial is None:
            return rest
        return monomial if rest is None else times_monomial(rest, monomial)


def parse_by_product_then_monomial(text: str) -> BElement:
    return ProductThenMonomialParser(text).parse()


def semantic_element_by_fractions(combo: DCombination) -> dict[Atom, Fraction]:
    """The closed form of ``semantic_element`` with one Fraction sum per (B-power, T-power) of each
    generator, added into a Fraction dict one generator at a time."""
    out: dict[Atom, Fraction] = {}
    for gen, op in combo.entries.items():
        (bn, bd), (an, ad), top = gen.b.as_integer_ratio(), gen.a.as_integer_ratio(), op.order()
        shifted: dict[int, list[int]] = {}
        for k, coeffs in op.rows.items():
            for r in range(k + 1) if gen.n else (0,):
                if w := math.comb(k, r) * an ** (k - r) * ad ** (top - k + r):
                    q = shifted.setdefault(r, [])
                    q.extend([0] * (len(coeffs) - len(q)))
                    for d, c in enumerate(coeffs):
                        q[d] += w * c
        acc: dict[tuple[int, int], int] = {}
        for r, q in shifted.items():
            for (i, j), f in _derivative_row(r).items() if gen.n else (((0, 0), 1),):
                f *= bn**i * bd ** (top + 1 - i)
                for d, c in enumerate(q, gen.m + i - r):
                    acc[j, d] = acc.get((j, d), 0) + f * c
        scale = op.den * ad**top * bd ** (top + 1)
        for (j, m), c in acc.items():
            key = Atom(gen.b, j, m, gen.a)
            out[key] = out.get(key, Fraction(0)) + Fraction(c, scale)
    return {at: c for at, c in out.items() if c}


def semantic_element_by_shifting(combo: DCombination) -> BElement:
    """The element of a combination by the route that took each operator at (b, a) from ``entries``:
    op(B(bT)e^{aT}) = e^{aT} op(T, d + a)[B(bT)], with (d + a)^k expanded by binomials in integers for
    every generator, then d^r B(bT) = T^-r f_r(bT, B(bT)); for n = 0 only the d^0 part acts, on 1."""
    pieces = []  # (generator, {B-power: coefficients of T^lo, T^(lo+1), ...}, lo, denominator)
    for gen, op in combo.entries.items():
        if (top := op.order()) == 0:
            pieces.append((gen, {gen.n: op.rows[0]}, gen.m, op.den))
            continue
        bn, bd, _, _, an, ad = gen
        width = max(map(len, op.rows.values()))
        shifted: dict[int, list[int]] = {}  # r -> the T-coefficients of d^r in op(T, d + a), times den ad^top
        for k, coeffs in op.rows.items():
            for r in range(k + 1) if gen.n else (0,):
                if w := math.comb(k, r) * an ** (k - r) * ad ** (top - k + r):
                    q = shifted.setdefault(r, [0] * width)
                    for d, c in enumerate(coeffs):
                        q[d] += c * w
        powers = [bn**i * bd ** (top + 1 - i) for i in range(top + 1)]
        acc: dict[int, list[int]] = {}  # B-power -> T-coefficients from T^(m - top), times den ad^top bd^(top+1)
        for r, q in shifted.items():
            for (i, j), f in _derivative_row(r).items() if gen.n else (((0, 0), 1),):
                row = acc.setdefault(j, [0] * (width + top))
                for d, c in enumerate(q, i - r + top):
                    row[d] += c * f * powers[i]
        pieces.append((gen, acc, gen.m - top, op.den * ad**top * bd ** (top + 1)))
    den, nums = math.lcm(*(scale for *_, scale in pieces)), {}
    for (bn, bd, _, _, an, ad), acc, lo, scale in pieces:
        for j, row in acc.items():
            for m, c in enumerate(row, lo):
                if c:
                    key = elements._new(Atom, (bn, bd, j, m, an, ad))
                    nums[key] = nums.get(key, 0) + c * (den // scale)
    return BElement(nums, den)


def semantic_element_by_actions(combo: DCombination) -> BElement:
    """The element of a combination as the sum over its generators of T^m op(B^n(bT) e^{aT}), each op applied
    by ``WeylOp.apply_element``."""
    acc = BElement.zero()
    for (bn, bd, n, m, an, ad), op in combo.entries.items():
        acc = acc + op.apply_element(BElement({elements._new(Atom, (bn, bd, n, 0, an, ad)): 1}, 1)).mul_monomial(m)
    return acc


def lowered_by_powers(atoms: list, den: int, bn: int, bd: int, pole: int) -> tuple[dict[int, list[int]], int]:
    """``reduction._lowered`` by the loop the lowering tables replaced: every entry of every ``_chain_row`` read
    again for each atom, its b^(e-k) (bn bd)^top looked up in a list of b-powers built for each call."""
    if all(at.n <= 1 for at, _ in atoms):
        row = [0] * (max(at.m for at, _ in atoms) - pole + 1)
        for at, v in atoms:
            row[at.m - pole] += v
        return {0: row}, den
    top = max(at.n for at, _ in atoms) - 1
    common, width = math.factorial(top), max(at.m for at, _ in atoms) - pole + top + 1
    powers = [bn**i * bd ** (2 * top - i) for i in range(2 * top + 1)]  # b^(e-k) (bn bd)^top, at e - k + top
    parts = [[0] * width for _ in range(top + 1)]
    for at, v in atoms:
        w = v * (common // math.factorial(max(at.n - 1, 0)))
        for k, (cs, part) in enumerate(zip(_chain_row(at.n), parts)):
            for e, c in enumerate(cs):
                if c:
                    part[at.m - pole + e] += w * c * powers[e - k + top]
    return dict(enumerate(parts)), common * den * (bn * bd) ** top


def first_order_rows_by_powers(x: BElement) -> dict:
    """The raw rows {generator: (rows, denominator)} of ``reduce_to_first_order(x)``, lowered by ``lowered_by_powers``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reduction, "_lowered", lowered_by_powers)
        return reduction.reduce_to_first_order(x)._rows


def semantic_element_by_slices(combo: DCombination) -> BElement:
    """``DCombination.semantic_element`` by the loop the derivative tables replaced: each generator summed from the
    lowest T-power of its rows, one slice of products for each (row, term of f_r), its b-power read off a list built
    for each generator, and every accumulated entry scanned for zeros."""
    pieces = []
    for gen, (rows, den) in combo._rows.items():
        if (top := max(rows)) == 0 or not gen.n:
            if 0 in rows:
                pieces.append((gen, {gen.n: rows[0]}, gen.m, den))
            continue
        low = min(next(compress(count(), row), len(row)) for row in rows.values())
        width = max(map(len, rows.values())) - low + top
        powers = [gen.bn**i * gen.bd ** (top + 1 - i) for i in range(top + 1)]
        acc: dict[int, list[int]] = {}  # B-power -> T-coefficients from T^(m + low - top), times den bd^(top+1)
        for r, row in rows.items():
            q = row[low:]
            for (i, j), f in _derivative_row(r).items():
                if (acc_row := acc.get(j)) is None:
                    acc_row = acc[j] = [0] * width
                start = i - r + top
                acc_row[start : start + len(q)] = map(add, acc_row[start:], map(mul, q, repeat(f * powers[i])))
        pieces.append((gen, acc, gen.m + low - top, den * gen.bd ** (top + 1)))
    den, nums = math.lcm(*(scale for *_, scale in pieces)), {}
    for (bn, bd, _, _, an, ad), acc, lo, scale in pieces:
        for j, row in acc.items():
            for m, c in enumerate(row, lo):
                if c:
                    key = elements._new(Atom, (bn, bd, j, m, an, ad))
                    nums[key] = nums.get(key, 0) + c * (den // scale)
    return BElement(nums, den)


def product_of_sums(n: int) -> str:
    """(B(2T)*(e^{T}+...+e^{nT}))*(B(3T)*(e^{1/7T}+...+e^{n/7T})), whose products multiply n^2 + 2n atom pairs."""
    first, second = ("+".join(f"e^{{{k}{d}T}}" for k in range(1, n + 1)) for d in ("", "/7"))
    return f"(B(2T)*({first}))*(B(3T)*({second}))"


def product_per_shift(n: int) -> str:
    """B(2/3T)^6*(e^{1/13T}+...+e^{1/(12+n)T})*B(7/4T)^6, whose last product rewrites n rows of measure 174."""
    return "B(2/3T)^6*(" + "+".join(f"e^{{1/{k}T}}" for k in range(13, 13 + n)) + ")*B(7/4T)^6"


def t_power_chain(factors: int) -> str:
    """``factors`` factors ``T^6`` times B(2/3T)^6*B(7/4T)^6, a product of 2,368 atoms at T-power 6 factors."""
    return "T^6*" * factors + "B(2/3T)^6*B(7/4T)^6"


def nested_power(base: str, levels: int) -> str:
    """``base`` raised to the 6th power ``levels`` times over, ``((base)^6)^6...``: 6^levels in all."""
    return "(" * levels + base + ")^6" * levels


def tokenize_by_matches(text: str) -> list[tuple]:
    """The tokens of ``text`` by one anchored match at each position, as the tokenizer read them before
    it took one pass of ``finditer``."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = exprparse._TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            message = f"unexpected character {text[pos:].lstrip()[0]!r}"
            raise exprparse.ExprError(message, text, len(text) - len(stripped))
        kind = "number" if match.group(1) else "name" if match.group(2) else "symbol"
        value = match.group(1) or match.group(2) or match.group(3)
        start = match.end() - len(value)
        tokens.append((kind, value, start))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


def caps_by_rescan(parser: exprparse._Parser, x: BElement, y: BElement) -> None:
    """The B-power cap of the product x*y, read from every atom of both operands at each product."""
    total = sum(max((at.n for at in z.nums), default=0) for z in (x, y))
    if total > exprparse.MAX_PRODUCT_POWER:
        parser.fail(f"B-power {total} of a product is past the cap of {exprparse.MAX_PRODUCT_POWER}")


def power_by_products(base: BElement, exponent: int, parser: "LeftFoldParser") -> BElement:
    """base^exponent by one checked product per factor, from 1; a negative power of one atom inverts it first."""
    if exponent >= 0:
        result = from_scalar(1)
        for _ in range(exponent):
            result = parser.product(result, base)
        return result
    if not base.nums:
        parser.fail("zero has no negative power")
    if len(base.nums) != 1:
        parser.fail("negative powers are only defined for a single generator term")
    ((at, coeff),) = base.terms.items()
    return power_by_products(invert_term(at, coeff), -exponent, parser)


def equals_by_subtraction(x: BElement, y: BElement) -> bool:
    return (x - y).is_zero()


class LeftFoldParser(exprparse._Parser):
    """The parser by its step-by-step routes: tokens by one match at a time, a term's factors multiplied
    in one at a time from the left, monomials too, every power by repeated products, the B-power cap of
    each product read from every atom of both operands, and its work spent as ``product_reduce`` charges it."""

    def __init__(self, text: str):
        self.text, self.tokens, self.index, self.depth, self.nesting = text, tokenize_by_matches(text), 0, 0, 0
        self.work = 0

    def term(self) -> BElement:
        value = self.unary()
        while self.peek()[1] == "*":
            self.advance()
            value = self.product(value, self.unary())
        return value

    def product(self, x: BElement, y: BElement) -> BElement:
        caps_by_rescan(self, x, y)
        return product_reduce(x, y, self.spend)

    def power(self) -> BElement:
        base = self.primary()
        if self.peek()[1] != "^":
            return base
        self.advance()
        return power_by_products(base, self.exponent(), self)


def parse_by_left_fold(text: str) -> BElement:
    return LeftFoldParser(text).parse()


# -- the Atom that held its scale and shift as Fractions, kept as the oracle of the integer Atom ------


@functools.total_ordering
class FractionAtom(Frozen):
    """One generator T^m * B(bT)^n * e^{aT} with b and a stored as Fractions, hashed from their
    integers and compared field by field; ordering (b, n, m, a)."""

    __slots__ = ("b", "n", "m", "a", "_hash")

    def __init__(self, b: Fraction, n: int, m: int, a: Fraction):
        if n < 0:
            raise ValueError("B-power must be nonnegative")
        if b.numerator <= 0:  # a denominator is positive
            raise ValueError("stored atoms must have positive argument scale")
        if n == 0 and b != 1:
            raise ValueError("scale is meaningless for n = 0 atoms; use b = 1")
        self._init(b, n, m, a, hash((b.numerator, b.denominator, n, m, a.numerator, a.denominator)))

    def key(self) -> tuple:
        return (self.b, self.n, self.m, self.a)

    def __lt__(self, other) -> bool:
        return self.key() < other.key() if other.__class__ is FractionAtom else NotImplemented


# -- the frozen dataclasses the package's records replaced, kept as their oracles --------------


@dataclass(frozen=True)
class GPair:
    """Decomposition data for 1/((X^n-1)(X^m-1)), m != n.

    Identity: 1/((X^n-1)(X^m-1)) =
        ell^2/(m n (X^ell-1)^2) + g_nm/(X^n-1) + g_mn/(X^m-1),
    with deg g_mn < m - ell and deg g_nm < n - ell.
    """

    m: int
    n: int
    ell: int
    g_mn: Poly
    g_nm: Poly


@dataclass(frozen=True)
class HFPair:
    """Decomposition data for 1/((X^ell-1)^k (X^n-1)), ell a proper divisor of n.

    Identity: 1/((X^ell-1)^k (X^n-1)) =
        h/(X^ell-1)^(k+1) + f/(X^n-1),
    with deg h < k*ell and deg f < n - ell.
    """

    k: int
    ell: int
    n: int
    h: Poly
    f: Poly


@dataclass(frozen=True)
class IdentityTerm:
    coeff: Fraction
    factors: tuple[BernSymbol, ...]

    def value(self) -> Fraction:
        v = self.coeff
        for s in self.factors:
            v *= s.value()
        return v


@dataclass(frozen=True)
class CoefficientIdentity:
    """An exact identity between two sums of Bernoulli-symbol products."""

    lhs: tuple[IdentityTerm, ...]
    rhs: tuple[IdentityTerm, ...]
    order: int
    provenance: str

    def lhs_value(self) -> Fraction:
        return sum((t.value() for t in self.lhs), Fraction(0))

    def rhs_value(self) -> Fraction:
        return sum((t.value() for t in self.rhs), Fraction(0))


@dataclass(frozen=True)
class IdentityReport:
    """Exact verification record for one identity instance."""

    name: str
    params: tuple[tuple[str, Fraction], ...]
    lhs_value: Fraction
    rhs_value: Fraction
    verified: bool
    degenerate: bool = False

    @property
    def latex(self) -> str:
        args = ", ".join(f"{k}={v}" for k, v in self.params)
        rel = "=" if self.verified else "\\neq"
        return (
            f"\\mathrm{{{self.name}}}({args}):\\ "
            f"{LATEX.rational(self.lhs_value)} {rel} {LATEX.rational(self.rhs_value)}"
        )

    def to_json_dict(self) -> dict:
        out = {
            "name": self.name,
            "params": [{"name": k, "value": str(v)} for k, v in self.params],
            "lhs": str(self.lhs_value),
            "rhs": str(self.rhs_value),
            "verified": self.verified,
            "latex": self.latex,
        }
        if self.degenerate:
            out["degenerate"] = True
        return out


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    limit: float
    ok: bool
    seconds: float
    detail: str

    @property
    def passed(self) -> bool:
        return self.ok and self.seconds < self.limit

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.index:2d} {self.name:<28s}"
            f" {self.seconds:7.2f}s (limit {self.limit:g}s)  {self.detail}"
        )
