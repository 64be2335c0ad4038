import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from bernring.polys import Poly, binomial, gcd_ext, x_power_minus_one
from conftest import cyclotomic_sum, nonzero_polys, polys, random_poly, small_rationals

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
        assert g.is_zero() or g.leading == 1
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
        assert Poly([0, 0, 5, 1]).trailing_valuation() == 2
        assert Poly.zero().trailing_valuation() == 0
