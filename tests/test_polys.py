import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernring.polys import Poly, binomial, gcd_ext, x_power_minus_one
from conftest import (
    coefficient_lists,
    cyclotomic_sum,
    fraction_poly_add,
    fraction_poly_compose_power,
    fraction_poly_derivative,
    fraction_poly_divmod,
    fraction_poly_gcd_ext,
    fraction_poly_integral,
    fraction_poly_mul,
    fraction_poly_pow,
    fraction_poly_scale,
    fraction_poly_eval,
    fraction_trim,
    nonzero_polys,
    polys,
    random_poly,
    random_rational,
    small_rationals,
    trailing_valuation,
)

X = Poly.X()


class TestArithmetic:
    def test_add(self):
        assert (X - 1) + (X + 1) == Poly([0, 2])
        p = Poly([1, 2, 3])
        assert p + Poly.zero() == p
        assert (X * X - 1) + (Poly.one() - X * X) == Poly.zero()

    def test_mul(self):
        assert (X - 1) * (X + 1) == X * X - 1
        assert (X - 1) * Poly([1, 1, 1]) == Poly([-1, 0, 0, 1])
        p = Poly([Fraction(1, 2), 0, 3])
        assert p * Poly.one() == p

    def test_degree_marker(self):
        assert Poly.zero().degree == -math.inf
        assert Poly.zero().degree < Poly.const(5).degree

    def test_divrem(self):
        q, r = divmod(X * X - 1, X - 1)
        assert q == X + 1 and r.is_zero()
        q, r = divmod(X * X, X - 1)
        assert q == X + 1 and r == Poly.one()
        q, r = divmod(Poly.zero(), X - 1)
        assert q.is_zero() and r.is_zero()
        with pytest.raises(ZeroDivisionError):
            divmod(X, Poly.zero())

    def test_gcd_ext_simple(self):
        g, u, v = gcd_ext(X - 1, X + 1)
        assert g == Poly.one()
        assert u == Poly.const(Fraction(-1, 2)) and v == Poly.const(Fraction(1, 2))
        g, u, v = gcd_ext(X * X - 1, X - 1)
        assert g == X - 1
        assert u * (X * X - 1) + v * (X - 1) == g

    def test_gcd_ext_bezout_example(self):
        p = Poly([1, 1, 1])
        q = Poly([1, 1, 1, 1, 1])
        g, u, v = gcd_ext(p, q)
        assert g == Poly.one()
        assert u * p + v * q == Poly.one()

    def test_gcd_both_zero(self):
        with pytest.raises(ValueError):
            gcd_ext(Poly.zero(), Poly.zero())

    def test_compose_power(self):
        assert (X - 1).compose_power(2) == X * X - 1
        p = Poly([2, 0, 5])
        assert p.compose_power(1) == p
        g32 = Poly([Fraction(-1, 3), Fraction(1, 3)])
        assert g32.compose_power(2) == Poly([Fraction(-1, 3), 0, Fraction(1, 3)])

    def test_eval(self):
        p = X * X - X + Poly.const(Fraction(1, 6))
        assert p(Fraction(1, 2)) == Fraction(-1, 12)
        assert Poly([7, 1, 4])(0) == 7
        assert Poly.zero()(Fraction(3, 2)) == 0

    def test_binomial(self):
        assert binomial(4, 2) == 6
        assert binomial(3, 5) == 0
        assert binomial(-0 + 3, -1) == 0
        assert all(binomial(n, 0) == 1 for n in range(8))


class TestRingAxioms:
    def test_randomized_axioms(self):
        rng = random.Random(987)
        for _ in range(1000):
            p, q, r = (random_poly(rng) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert (p * q) * r == p * (q * r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r

    @given(polys, nonzero_polys)
    def test_divrem_recombines(self, p, q):
        quot, rem = divmod(p, q)
        assert q * quot + rem == p
        assert rem.degree < q.degree

    @given(polys, polys)
    def test_bezout(self, p, q):
        if p.is_zero() and q.is_zero():
            return
        g, u, v = gcd_ext(p, q)
        assert u * p + v * q == g
        assert g.is_zero() or g.coeffs[-1] == 1
        if not p.is_zero():
            assert divmod(p, g)[1].is_zero()
        if not q.is_zero():
            assert divmod(q, g)[1].is_zero()

    @given(polys, small_rationals)
    @settings(max_examples=60)
    def test_compose_power_matches_eval(self, p, x):
        for ell in (1, 2, 3):
            assert p.compose_power(ell)(x) == p(x**ell)


class TestHelpers:
    def test_cyclotomic_sum(self):
        assert cyclotomic_sum(1) == Poly.one()
        assert cyclotomic_sum(3) * (X - 1) == x_power_minus_one(3)

    def test_trailing_valuation(self):
        assert trailing_valuation(Poly([0, 0, 5, 1])) == 2
        assert trailing_valuation(Poly.zero()) == 0


nonzero_lists = coefficient_lists.filter(lambda cs: any(cs))


def _fixed_grid() -> list[list[Fraction]]:
    """Coefficient lists for the fixed-grid checks: edge cases, then seeded random lists."""
    rng = random.Random(20240)
    grid = [[], [0], [0, 0, 0], [1], [Fraction(-7, 3)], [0, 0, Fraction(5, 2)], [1, 2, 3, 0, 0]]
    grid += [[Fraction(10**30 + 1, 7), Fraction(-1, 10**12 + 39), 3]]
    grid += [[random_rational(rng, num=40, den=12) for _ in range(rng.randint(1, 9))] for _ in range(30)]
    return grid


GRID = _fixed_grid()
SCALARS = [0, 1, -1, 3, Fraction(-5, 6), Fraction(10**20, 3)]


def _lists_agree(a, b):
    """The Poly routes on the coefficient lists a and b match the Fraction-list oracles."""
    p, q = Poly(a), Poly(b)
    assert list(p.coeffs) == fraction_trim(a)
    assert list((p + q).coeffs) == fraction_poly_add(a, b)
    assert list((p - q).coeffs) == fraction_poly_add(a, fraction_poly_scale(b, Fraction(-1)))
    assert list((-p).coeffs) == fraction_poly_scale(a, Fraction(-1))
    assert list((p * q).coeffs) == fraction_poly_mul(a, b)
    for c in SCALARS:
        assert list((p * c).coeffs) == list((c * p).coeffs) == fraction_poly_scale(a, Fraction(c))
        assert list((p + c).coeffs) == list((c + p).coeffs) == fraction_poly_add(a, [c])
        assert list((p - c).coeffs) == fraction_poly_add(a, [-c])
        assert list((c - p).coeffs) == fraction_poly_add([c], fraction_poly_scale(a, Fraction(-1)))
        if c:
            assert list((p / c).coeffs) == fraction_poly_scale(a, 1 / Fraction(c))
    for n in range(4):
        assert list((p**n).coeffs) == fraction_poly_pow(a, n)
    for ell in (1, 2, 3, 5):
        assert list(p.compose_power(ell).coeffs) == fraction_poly_compose_power(fraction_trim(a), ell)
    assert list(p.derivative().coeffs) == fraction_poly_derivative(a)
    assert list(p.integral().coeffs) == fraction_poly_integral(a)
    for x in (0, 1, Fraction(-2, 3), Fraction(7, 5)):
        assert p(x) == fraction_poly_eval(a, Fraction(x))
    if any(b):
        quot, rem = divmod(p, q)
        assert (list(quot.coeffs), list(rem.coeffs)) == fraction_poly_divmod(a, fraction_trim(b))
    if any(a) or any(b):
        assert tuple(list(x.coeffs) for x in gcd_ext(p, q)) == fraction_poly_gcd_ext(a, b)


class TestAgainstFractionLists:
    """Every Poly route against the dense Fraction arithmetic it replaced."""

    @given(coefficient_lists, coefficient_lists)
    @settings(max_examples=150, deadline=None)
    def test_random_lists(self, a, b):
        _lists_agree(a, b)

    @pytest.mark.parametrize("index", range(len(GRID)))
    def test_fixed_grid(self, index):
        for b in GRID[index % 3 :: 3]:
            _lists_agree(GRID[index], b)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Poly([1, 2]) / 0
        with pytest.raises(ZeroDivisionError):
            Poly([1, 2], 0)


def _is_canonical(p: Poly) -> bool:
    return p.den > 0 and math.gcd(p.den, *p.nums) == 1 and (not p.nums or p.nums[-1] != 0)


class TestCanonicalForm:
    """A Poly built from rationals and one built from integers over any denominator are one value."""

    @given(
        coefficient_lists,
        st.integers(min_value=1, max_value=10**6),
        st.sampled_from([1, -1]),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_integers_over_any_denominator(self, cs, multiple, sign, zeros):
        rational = Poly(cs)
        den = sign * multiple * math.lcm(*(c.denominator for c in cs))
        integral = Poly([int(c * den) for c in cs] + [0] * zeros, den)
        assert integral == rational and hash(integral) == hash(rational)
        assert (integral.nums, integral.den) == (rational.nums, rational.den)
        assert _is_canonical(rational) and _is_canonical(integral)
        assert integral.coeffs == tuple(fraction_trim(cs))

    @given(nonzero_lists)
    @settings(max_examples=60, deadline=None)
    def test_results_are_canonical(self, cs):
        p = Poly(cs)
        for result in (p + p, p - p, p * p, p * Fraction(-3, 4), p / 6, p.compose_power(2), p.derivative()):
            assert _is_canonical(result)

    def test_examples(self):
        p = Poly([Fraction(1, 2), Fraction(-3, 4)])
        assert (p.nums, p.den) == ((2, -3), 4)
        assert Poly([6, -9, 0, 0], -12) == -p
        zero = Poly([0, 0], 7)
        assert (zero.nums, zero.den) == ((), 1)
        assert Poly([2, 4], 2) == Poly([1, 2]) == Poly([-3, -6], -3)
        assert Poly([3], 6) == Fraction(1, 2) and Poly([4], 2) == 2
