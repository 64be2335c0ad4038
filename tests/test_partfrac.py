import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bernring.partfrac import g_pair, h_f, lemma_decompose
from bernring.polys import Poly, x_power_minus_one
from conftest import exact_div, g_pair_by_bezout, g_pair_by_euclid, h_f_by_recurrence, h_via_bezout


def as_poly(*coeffs):
    return Poly([Fraction(c) if not isinstance(c, tuple) else Fraction(*c) for c in coeffs])


class TestGPair:
    def test_printed_examples(self):
        assert g_pair(2, 3).g_mn == as_poly((-1, 2))
        assert g_pair(2, 3).g_nm == as_poly((-1, 3), (1, 3))
        assert g_pair(2, 5).g_mn == as_poly((-1, 2))
        assert g_pair(2, 5).g_nm == as_poly((-2, 5), (1, 5), (-1, 5), (2, 5))
        assert g_pair(3, 5).g_mn == as_poly((-1, 3), (1, 3))
        assert g_pair(3, 5).g_nm == as_poly((-3, 5), (-1, 5), (1, 5), (-2, 5))

    def test_unit_scale_vanishes(self):
        for m in range(2, 8):
            assert g_pair(1, m).g_mn.is_zero()

    def test_rejects_equal_scales(self):
        with pytest.raises(ValueError):
            g_pair(3, 3)

    def test_recombination_and_bounds(self):
        for m in range(1, 13):
            for n in range(1, 13):
                if m == n:
                    continue
                pair = g_pair(m, n)
                ell = math.gcd(m, n)
                assert pair.ell == ell
                lhs = x_power_minus_one(ell) ** 2
                rhs = (
                    x_power_minus_one(n) * x_power_minus_one(m) * Fraction(ell * ell, m * n)
                    + pair.g_nm * x_power_minus_one(m) * x_power_minus_one(ell) ** 2
                    + pair.g_mn * x_power_minus_one(n) * x_power_minus_one(ell) ** 2
                )
                assert lhs == rhs
                assert pair.g_mn.degree < m - ell
                assert pair.g_nm.degree < n - ell

    def test_lifting_coherence(self):
        for ell in range(1, 5):
            for mh, nh in ((2, 3), (2, 5), (3, 5), (1, 4), (3, 4)):
                lifted = g_pair(ell * mh, ell * nh)
                base = g_pair(mh, nh)
                assert lifted.g_mn == base.g_mn.compose_power(ell)
                assert lifted.g_nm == base.g_nm.compose_power(ell)


class TestHF:
    def test_printed_example(self):
        pair = h_f(2, 1, 5)
        assert pair.h == as_poly((3, 5), (-2, 5))
        assert pair.f == as_poly((2, 5), (3, 5), (3, 5), (2, 5))

    def test_first_order_h_is_constant(self):
        for n in range(2, 10):
            pair = h_f(1, 1, n)
            assert pair.h == Poly.const(Fraction(1, n))

    def test_lifting_rule(self):
        lifted = h_f(2, 2, 10)
        base = h_f(2, 1, 5)
        assert lifted.h == base.h.compose_power(2)
        assert lifted.f == base.f.compose_power(2)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            h_f(2, 3, 10)
        with pytest.raises(ValueError):
            h_f(2, 5, 5)

    def test_recombination_and_bounds(self):
        for n in range(2, 13):
            for ell in (d for d in range(1, n) if n % d == 0):
                for k in range(1, 5):
                    pair = h_f(k, ell, n)
                    lhs = x_power_minus_one(ell)
                    rhs = pair.h * x_power_minus_one(n) + pair.f * x_power_minus_one(ell) ** (k + 1)
                    assert lhs == rhs
                    assert pair.h.degree < k * ell
                    assert pair.f.degree < n - ell

    def test_recurrence_matches_bezout(self):
        for n in range(2, 13):
            for k in range(1, 5):
                assert h_f(k, 1, n).h == h_via_bezout(k, n)


def _proper_divisors(n):
    return [d for d in range(1, n) if n % d == 0]


class TestAgainstFractionRoute:
    """The integer routes of ``g_pair`` and ``h_f`` against extended Euclid and division in Fractions."""

    def test_every_pair_up_to_24(self):
        for m in range(1, 25):
            for n in range(1, 25):
                if m != n:
                    pair = g_pair(m, n)
                    assert (pair.g_mn, pair.g_nm) == g_pair_by_euclid(m, n)

    def test_every_divisor_pair_up_to_24(self):
        for n in range(2, 25):
            for ell in _proper_divisors(n):
                for k in range(1, 7):
                    pair = h_f(k, ell, n)
                    assert (pair.h, pair.f) == h_f_by_recurrence(k, ell, n)

    @given(st.integers(1, 60), st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_random_pairs_up_to_60(self, m, n):
        assume(m != n)
        pair = g_pair(m, n)
        assert (pair.g_mn, pair.g_nm) == g_pair_by_euclid(m, n)

    @given(st.integers(2, 60), st.integers(1, 8), st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_divisor_pairs_up_to_60(self, n, k, data):
        ell = data.draw(st.sampled_from(_proper_divisors(n)))
        pair = h_f(k, ell, n)
        assert (pair.h, pair.f) == h_f_by_recurrence(k, ell, n)

    @pytest.mark.parametrize("k", [12, 40])
    @pytest.mark.parametrize("n", [2, 6, 12])
    def test_large_powers(self, k, n):
        for ell in _proper_divisors(n):
            pair = h_f(k, ell, n)
            assert (pair.h, pair.f) == h_f_by_recurrence(k, ell, n)

    def test_numerators_lift_to_the_polynomials(self):
        pair = g_pair(4, 6)
        assert (pair.ell, pair.g_mn.den, pair.g_mn.nums) == (2, 2, (-1,))
        assert (pair.g_nm.den, pair.g_nm.nums) == (3, (-1, 0, 1))
        assert pair.g_mn == Poly.const(Fraction(-1, 2))
        h = h_f(2, 2, 10).h
        assert (h.den, h.nums) == (5, (3, 0, -2))
        assert h == Poly([Fraction(3, 5), 0, Fraction(-2, 5)])


BEZOUT_GRID = [
    (mh * ell, nh * ell)
    for ell in (1, 2, 3, 7)
    for mh, nh in ((1, 2), (2, 1), (2, 3), (3, 2), (5, 3), (7, 5), (13, 8), (29, 4), (31, 30), (97, 96), (101, 3))
] + [(300, 299), (299, 300), (256, 243), (289, 120), (300, 7), (150, 101)]


class TestAgainstBezoutRoute:
    """``g_pair`` in closed form against the integer Bezout route with rotations and long division."""

    @given(st.integers(1, 300), st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_random_pairs_up_to_300(self, m, n):
        assume(m != n)
        pair = g_pair(m, n)
        assert (pair.g_mn, pair.g_nm) == g_pair_by_bezout(m, n)

    @pytest.mark.parametrize("m, n", BEZOUT_GRID)
    def test_fixed_grid(self, m, n):
        pair = g_pair(m, n)
        assert (pair.g_mn, pair.g_nm) == g_pair_by_bezout(m, n)


class TestAtTheScaleCap:
    """Pairs at ``cli.MAX_PF_SCALE``: degree bounds, and the identity evaluated exactly at two points."""

    @pytest.mark.parametrize("m, n", [(2000, 1999), (1999, 1000), (2000, 3), (1536, 1024)])
    def test_identity_and_bounds(self, m, n):
        pair = g_pair(m, n)
        ell = math.gcd(m, n)
        assert pair.ell == ell
        assert pair.g_mn.degree < m - ell
        assert pair.g_nm.degree < n - ell
        for x in (Fraction(2), Fraction(3, 2)):
            lhs = 1 / ((x**n - 1) * (x**m - 1))
            rhs = Fraction(ell * ell, m * n) / (x**ell - 1) ** 2 + pair.g_nm(x) / (x**n - 1) + pair.g_mn(x) / (x**m - 1)
            assert lhs == rhs


def _recombination_holds(factors, terms):
    denominator = Poly.one()
    for k, n in factors:
        denominator = denominator * x_power_minus_one(k) ** n
    common = denominator
    for _, scale, order in terms:
        common = common * x_power_minus_one(scale) ** order
    lhs = exact_div(common, denominator)
    rhs = Poly.zero()
    for g, scale, order in terms:
        rhs = rhs + g * exact_div(common, x_power_minus_one(scale) ** order)
    return lhs == rhs


class TestLemmaDecompose:
    def test_single_factor(self):
        assert lemma_decompose([(1, 1)]) == [(Poly.one(), 1, 1)]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            lemma_decompose([])

    def test_known_nonunique_case(self):
        terms = lemma_decompose([(1, 1), (2, 1)])
        assert _recombination_holds([(1, 1), (2, 1)], terms)
        assert all(order <= 2 for _, _, order in terms)

    def test_pair_case(self):
        factors = [(2, 1), (3, 1)]
        terms = lemma_decompose(factors)
        assert _recombination_holds(factors, terms)

    @pytest.mark.parametrize(
        "factors",
        [
            [(2, 2), (3, 1)],
            [(2, 1), (3, 1), (5, 1)],
            [(2, 1), (4, 2)],
            [(6, 1), (4, 1)],
            [(3, 2), (5, 1), (3, 1)],
        ],
    )
    def test_general_recombination(self, factors):
        terms = lemma_decompose(factors)
        assert _recombination_holds(factors, terms)
        total = sum(n for _, n in factors)
        assert all(order <= total for _, _, order in terms)


def _nonzero_by_scale_and_order(terms):
    return sorted((term for term in terms if not term[0].is_zero()), key=lambda term: term[1:])


class TestLemmaOnTheRewrite:
    """The general lemma is read off the rows of the product reduction's rewrite."""

    def test_two_simple_factors_give_the_pair_identity(self):
        for m in range(1, 13):
            for n in range(1, 13):
                if m == n:
                    continue
                small, big = sorted((m, n))
                if big % small == 0:
                    pair = h_f(1, small, big)
                    expected = [(pair.h, small, 2), (pair.f, big, 1)]
                else:
                    gp = g_pair(m, n)
                    expected = [(Poly.const(Fraction(gp.ell**2, m * n)), gp.ell, 2), (gp.g_mn, m, 1), (gp.g_nm, n, 1)]
                assert lemma_decompose([(m, 1), (n, 1)]) == _nonzero_by_scale_and_order(expected)

    def test_divisor_power_gives_h_f(self):
        for n in range(2, 13):
            for ell in (d for d in range(1, n) if n % d == 0):
                for k in range(1, 5):
                    pair = h_f(k, ell, n)
                    expected = [(pair.h, ell, k + 1), (pair.f, n, 1)]
                    assert lemma_decompose([(ell, k), (n, 1)]) == _nonzero_by_scale_and_order(expected)

    @given(st.lists(st.tuples(st.integers(1, 8), st.integers(1, 2)), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_random_factors_recombine(self, factors):
        terms = lemma_decompose(factors)
        assert _recombination_holds(factors, terms)
        total = sum(n for _, n in factors)
        assert all(not g.is_zero() and order <= total for g, _, order in terms)
