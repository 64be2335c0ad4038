import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernring import series
from bernring.polys import Poly, factorial
from bernring.series import (
    InsufficientBoundError,
    TruncatedSeries,
    bernoulli_number,
    bernoulli_number_order,
    bernoulli_poly_value,
    bernoulli_polynomial,
    bernoulli_power_series,
    bernoulli_series,
    exp_minus_one_over_t,
    exp_series,
    grown_size,
)
from conftest import (
    bernoulli_by_inversion,
    norlund_by_products,
    poly_cauchy,
    random_rational,
    small_rationals,
    staudt_clausen_denominator,
)


def naive_inverse(coeffs, n_terms):
    """Independent inversion oracle: triangular solve on plain lists."""
    out = [Fraction(1) / coeffs[0]]
    for k in range(1, n_terms):
        acc = Fraction(0)
        for i in range(1, k + 1):
            if i < len(coeffs):
                acc += coeffs[i] * out[k - i]
        out.append(-acc / coeffs[0])
    return out


# frozen from the oracle: the inverse of (e^T-1)/T starts
# 1, -1/2, 1/12, 0, -1/720, so B_4 = 4! * (-1/720) = -1/30
ORACLE_B_PREFIX = [Fraction(1), Fraction(-1, 2), Fraction(1, 12), Fraction(0), Fraction(-1, 720)]


def test_oracle_agrees_with_frozen_prefix():
    base = [Fraction(1, int(factorial(i + 1))) for i in range(8)]
    assert naive_inverse(base, 5) == ORACLE_B_PREFIX


class TestCoreOps:
    def test_add_bounds(self):
        b = bernoulli_series(10)
        t_tail = TruncatedSeries.monomial(1, 1, 6)
        assert (b + t_tail).bound == 6
        assert (b + TruncatedSeries.zero(10)).same_up_to(b, 10)
        diff = bernoulli_series(12).scale_arg(-1) - TruncatedSeries.monomial(1, 1, 12) - bernoulli_series(12)
        assert diff.is_known_zero()

    def test_mul(self):
        n = 16
        b = bernoulli_series(n)
        e_minus_one = exp_series(1, n) - TruncatedSeries.one(n)
        prod = b * e_minus_one
        assert prod.same_up_to(TruncatedSeries.monomial(1, 1, prod.bound), prod.bound)
        besides = b * exp_series(1, n) - TruncatedSeries.monomial(1, 1, n) - b
        assert besides.is_known_zero()
        t_inv = TruncatedSeries.monomial(-1, 1, 5)
        t = TruncatedSeries.monomial(1, 1, 5)
        assert (t_inv * t).same_up_to(TruncatedSeries.one(4), 4)

    def test_mul_bound_rule(self):
        x = TruncatedSeries.from_coeffs([1, 1], 3, low=2)
        y = TruncatedSeries.from_coeffs([1, 2, 3], 2, low=0)
        assert (x * y).bound == min(3 + 0, 2 + 2)

    def test_inverse(self):
        geom = TruncatedSeries.from_coeffs([1, -1] + [0] * 7, 8, low=0)
        inv = geom.inverse()
        # 1/(1-T) = 1 + T + T^2 + ...
        assert all(inv.coeff(i) == 1 for i in range(inv.bound + 1))
        b = exp_minus_one_over_t(12).inverse()
        assert b.same_up_to(bernoulli_series(b.bound), b.bound)
        t_inv = TruncatedSeries.monomial(1, 1, 6).inverse()
        assert t_inv.low == -1 and t_inv.coeff(-1) == 1
        with pytest.raises(ZeroDivisionError):
            TruncatedSeries.zero(5).inverse()

    def test_exp_series(self):
        assert exp_series(0, 6).same_up_to(TruncatedSeries.one(6), 6)
        assert exp_series(1, 6).coeff(3) == Fraction(1, 6)
        assert exp_series(Fraction(1, 2), 6).coeff(2) == Fraction(1, 8)

    def test_bernoulli_series_coeffs(self):
        b = bernoulli_series(8)
        assert b.coeff(0) == 1
        assert b.coeff(1) == Fraction(-1, 2)
        assert b.coeff(4) == ORACLE_B_PREFIX[4]
        assert b.coeff(7) == 0

    def test_scale_arg(self):
        b = bernoulli_series(10)
        assert b.scale_arg(1).same_up_to(b, 10)
        e2 = exp_series(1, 10).scale_arg(2)
        assert e2.same_up_to(exp_series(2, 10), 10)
        neg = b.scale_arg(-1) - TruncatedSeries.monomial(1, 1, 10) - b
        assert neg.is_known_zero()
        with pytest.raises(ValueError):
            b.scale_arg(0)

    def test_derivative(self):
        t = TruncatedSeries.monomial(1, 1, 5)
        assert t.derivative().same_up_to(TruncatedSeries.one(4), 4)
        e = exp_series(Fraction(3), 8)
        assert e.derivative().same_up_to(e.scale(3).truncate(7), 7)
        t_inv = TruncatedSeries.monomial(-1, 1, 5)
        d = t_inv.derivative()
        assert d.coeff(-2) == -1

    def test_coeff_bound_enforcement(self):
        b = bernoulli_series(6)
        assert b.coeff(6) is not None
        with pytest.raises(InsufficientBoundError):
            b.coeff(7)
        assert TruncatedSeries.monomial(1, 1, 5).coeff(0) == 0

    def test_polynomial_coefficient_rejected(self):
        with pytest.raises(TypeError):
            TruncatedSeries.from_coeffs([Poly.X()], 0)
        with pytest.raises(TypeError):
            bernoulli_series(4).scale(Poly.X())


class TestBernoulliValues:
    def test_numbers(self):
        assert bernoulli_number(0) == 1
        assert bernoulli_number(1) == Fraction(-1, 2)
        assert bernoulli_number(4) == Fraction(-1, 30)

    def test_odd_vanish(self):
        assert all(bernoulli_number(2 * k + 1) == 0 for k in range(1, 31))

    def test_orders(self):
        assert bernoulli_number_order(0, 0) == 1
        assert bernoulli_number_order(0, 3) == 0
        for i in range(12):
            assert bernoulli_number_order(1, i) == bernoulli_number(i)
        square = bernoulli_series(6) * bernoulli_series(6)
        assert bernoulli_number_order(2, 2) == square.coeff(2) * 2
        assert bernoulli_number_order(2, 2) == Fraction(5, 6)

    def test_poly_values(self):
        assert bernoulli_poly_value(1, 2, Fraction(1, 2)) == Fraction(-1, 12)
        for n in range(4):
            assert bernoulli_poly_value(n, 0, Fraction(7, 3)) == 1
        for i in range(10):
            assert bernoulli_poly_value(1, i, 0) == bernoulli_number(i)

    def test_poly_value_against_series_product(self, rng):
        for _ in range(20):
            n = rng.randint(0, 4)
            i = rng.randint(0, 12)
            x = random_rational(rng)
            ser = bernoulli_power_series(n, i) * exp_series(x, i)
            assert bernoulli_poly_value(n, i, x) == ser.coeff(i) * factorial(i)

    def test_bernoulli_polynomial_golden(self):
        assert bernoulli_polynomial(0) == Poly.one()
        assert bernoulli_polynomial(1) == Poly([Fraction(-1, 2), 1])
        assert bernoulli_polynomial(2) == Poly([Fraction(1, 6), -1, 1])

    def test_bernoulli_polynomial_against_symbolic_expansion(self):
        # independent oracle: B * e^{XT} with X a polynomial coefficient
        order = 8
        base = [Poly.const(c) for c in bernoulli_series(order).coeffs]
        x_exp = [Poly.monomial(i) / factorial(i) for i in range(order + 1)]
        prod = poly_cauchy(base, x_exp)
        for i in range(order + 1):
            assert prod[i] * factorial(i) == bernoulli_polynomial(i)

    def test_polynomial_eval_consistency(self, rng):
        for i in range(21):
            p = bernoulli_polynomial(i)
            for _ in range(10):
                x = random_rational(rng)
                assert p(x) == bernoulli_poly_value(1, i, x)


class TestProperties:
    def test_unit_inverse_500(self):
        rng = random.Random(31337)
        for _ in range(500):
            coeffs = [random_rational(rng) for _ in range(12)]
            while coeffs[0] == 0:
                coeffs[0] = random_rational(rng)
            low = rng.randint(-3, 3)
            x = TruncatedSeries.from_coeffs(coeffs, low + 11, low=low)
            prod = x * x.inverse()
            assert prod.coeff(0) == 1
            assert all(prod.coeff(i) == 0 for i in range(prod.low, prod.bound + 1) if i != 0)

    def test_bound_soundness(self):
        low = bernoulli_series(10) * exp_series(Fraction(1, 2), 10)
        high = bernoulli_series(25) * exp_series(Fraction(1, 2), 25)
        assert high.truncate(low.bound).same_up_to(low, low.bound)
        assert exp_minus_one_over_t(24).inverse().truncate(8).same_up_to(
            exp_minus_one_over_t(8).inverse(), 8
        )

    @given(small_rationals, small_rationals)
    @settings(max_examples=40)
    def test_exp_additivity(self, a, b):
        n = 10
        assert (exp_series(a, n) * exp_series(b, n)).same_up_to(exp_series(a + b, n), n)


class TestBernoulliTable:
    """The table kernel against the inversion route it replaced, kept here as the oracle."""

    def test_numbers_match_inversion(self):
        top = 400
        oracle = bernoulli_by_inversion(top)
        for i in range(top + 1):
            value = bernoulli_number(i)
            assert value == oracle.coeff(i) * factorial(i)
            if i >= 2 and i % 2 == 0:
                assert value.denominator == staudt_clausen_denominator(i)
        assert bernoulli_series(top).same_up_to(oracle, top)

    def test_norlund_rows_match_products(self):
        top = 120
        for n in range(1, 13):
            oracle = norlund_by_products(n, top)
            assert [bernoulli_number_order(n, i) for i in range(top + 1)] == [
                oracle.coeff(i) * factorial(i) for i in range(top + 1)
            ]
            assert bernoulli_power_series(n, top).same_up_to(oracle, top)

    @given(st.integers(0, 6), st.integers(0, 30), small_rationals)
    @settings(max_examples=60, deadline=None)
    def test_poly_value_matches_oracle_product(self, n, i, x):
        power = norlund_by_products(n, 30).truncate(i) if n else TruncatedSeries.one(i)
        assert bernoulli_poly_value(n, i, x) == (power * exp_series(x, i)).coeff(i) * factorial(i)

    def test_lower_rows_grow_to_exactly_the_target(self, monkeypatch):
        monkeypatch.setattr(series, "_ROWS", {1: series._Row()})
        bernoulli_number_order(13, 64)
        assert {n: len(row) for n, row in series._ROWS.items()} == {n: 65 for n in range(1, 14)}

    def test_extension_keeps_the_row_and_its_prefix(self):
        bernoulli_number_order(3, 40)
        row = series._ROWS[3]
        before = list(row)
        bernoulli_number_order(3, len(before))
        assert series._ROWS[3] is row
        assert len(row) == grown_size(len(before), len(before) + 1)
        assert all(new is old for new, old in zip(row, before))

    def test_series_reads_the_table_without_inversion(self, monkeypatch):
        calls = []
        inverse = TruncatedSeries.inverse

        def counted(self):
            calls.append(self.bound)
            return inverse(self)

        monkeypatch.setattr(TruncatedSeries, "inverse", counted)
        bernoulli_number(300)
        b = bernoulli_series(256)
        assert calls == []
        assert all(b.coeff(i) * factorial(i) == bernoulli_number(i) for i in range(257))

    def test_tampered_number_reaches_every_route(self, monkeypatch):
        monkeypatch.setattr(series, "_ROWS", {1: series._Row()})
        bernoulli_number(4)
        monkeypatch.setitem(series._ROWS[1], 4, Fraction(999))
        assert bernoulli_series(8).coeff(4) == Fraction(999, 24)
        assert bernoulli_poly_value(1, 4, 0) == 999
        assert bernoulli_number_order(2, 4) != norlund_by_products(2, 8).coeff(4) * factorial(4)

    def test_growth_rule(self):
        assert grown_size(0, 5) == 32
        assert grown_size(40, 41) == 80
        assert grown_size(40, 200) == 200
