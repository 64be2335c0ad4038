import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernring import series
from bernring.elements import atom
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
    common_numerators,
    exp_minus_one_over_t,
    exp_series,
    grown_size,
    norlund_numerators,
)
from conftest import (
    bernoulli_by_inversion,
    fraction_cauchy,
    fraction_combination,
    fraction_poly_value,
    norlund_by_products,
    poly_cauchy,
    random_rational,
    small_rationals,
    staudt_clausen_denominator,
    tamper_bernoulli,
    window,
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
        x = TruncatedSeries(2, [1, 1], 3)
        y = TruncatedSeries(0, [1, 2, 3], 2)
        assert (x * y).bound == min(3 + 0, 2 + 2)

    def test_inverse(self):
        geom = TruncatedSeries(0, [1, -1] + [0] * 7, 8)
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
            TruncatedSeries(0, [Poly.X()], 0)
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

    @pytest.mark.parametrize(
        "read",
        [
            lambda: bernoulli_polynomial(-1),
            lambda: bernoulli_poly_value(1, -1, 0),
            lambda: bernoulli_poly_value(2, -3, Fraction(1, 2)),
            lambda: series.poly_value_numerator(1, -1, 1, 2),
        ],
    )
    def test_negative_index_refused(self, read):
        # a negative index once read entries off the end of the row, or none
        with pytest.raises(ValueError, match="Bernoulli index must be nonnegative"):
            read()

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
            x = TruncatedSeries(low, coeffs, low + 11)
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

    def test_stored_rows_are_the_oracle_in_lowest_terms(self, monkeypatch):
        top = 120
        monkeypatch.setattr(series, "_ROWS", {1: (1, [])})
        norlund_numerators(12, top + 1)  # every row up to 12 grows to exactly top + 1 entries
        for n in range(1, 13):
            oracle = norlund_by_products(n, top)
            assert series._ROWS[n] == common_numerators([oracle.coeff(i) * factorial(i) for i in range(top + 1)])

    @given(st.integers(1, 10**6), st.lists(st.integers(-(10**6), 10**6), min_size=32, max_size=40), st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_rows_are_the_lowering_image_of_the_row_below(self, d, row, n):
        """Whatever row 1 holds, row m + 1 is B^(m+1)_i = (1 - i/m) B^(m)_i - i B^(m)_{i-1} of row m."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series, "_ROWS", {1: (d, row)})
            norlund_numerators(n, len(row))
            for m in range(1, n):
                b = [Fraction(v, series._ROWS[m][0]) for v in series._ROWS[m][1]]
                image = [(1 - Fraction(i, m)) * b[i] - i * (b[i - 1] if i else 0) for i in range(len(row))]
                assert series._ROWS[m + 1] == common_numerators(image)

    @given(st.integers(0, 5), st.lists(st.integers(1, 90), min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_growth_in_steps_is_one_build(self, n, sizes):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series, "_ROWS", {1: (1, [])})
            for size in sizes:
                kept = [(row, list(row[1])) for row in series._ROWS.values()]
                norlund_numerators(n, size)
                assert all(row[1] == nums for row, nums in kept)  # no tuple read earlier changed
            rows = dict(series._ROWS)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series, "_ROWS", {1: (1, [])})
            for m, (_, nums) in rows.items():
                norlund_numerators(m, len(nums))
                assert series._ROWS[m] == rows[m]

    def test_lower_rows_grow_to_exactly_the_target(self, monkeypatch):
        monkeypatch.setattr(series, "_ROWS", {1: (1, [])})
        bernoulli_number_order(13, 64)
        assert {n: len(nums) for n, (_, nums) in series._ROWS.items()} == {n: 65 for n in range(1, 14)}

    def test_extension_keeps_the_row_and_its_prefix(self):
        bernoulli_number_order(3, 40)
        row = series._ROWS[3]
        d, before = row[0], list(row[1])
        values = [bernoulli_number_order(3, i) for i in range(len(before))]
        bernoulli_number_order(3, len(before))
        assert len(series._ROWS[3][1]) == grown_size(len(before), len(before) + 1)
        assert [bernoulli_number_order(3, i) for i in range(len(before))] == values
        assert row == (d, before)  # the old tuple and its list are untouched

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
        monkeypatch.setattr(series, "_ROWS", {1: (1, [])})
        bernoulli_series(8)  # the series read before the patch are not kept
        tamper_bernoulli(monkeypatch, 4, Fraction(999))
        assert bernoulli_series(8).coeff(4) == Fraction(999, 24)
        assert atom(0, 1, 1).expand(8).coeff(4) == Fraction(999, 24)
        assert atom(0, 1, 1).coeff(4) == Fraction(999, 24)
        assert atom(0, 1, 2, Fraction(1, 3)).coeff(6) == atom(0, 1, 2, Fraction(1, 3)).expand(6).coeff(6)
        assert bernoulli_poly_value(1, 4, 0) == 999
        assert bernoulli_poly_value(1, 4, Fraction(1, 3)) == fraction_poly_value(1, 4, Fraction(1, 3))
        assert bernoulli_number_order(2, 4) != norlund_by_products(2, 8).coeff(4) * factorial(4)

    def test_growth_rule(self):
        assert grown_size(0, 5) == 32
        assert grown_size(40, 41) == 80
        assert grown_size(40, 200) == 200


# rationals with denominators up to 9, zero drawn often so that windows have interior zeros
nonzero_coefficients = st.builds(Fraction, st.integers(-81, 81).filter(bool), st.integers(1, 9))
coefficients = st.one_of(st.just(Fraction(0)), nonzero_coefficients)
# points and scales with numerator and denominator of up to 20 digits
huge_rationals = st.builds(Fraction, st.integers(-(10**20) + 1, 10**20 - 1), st.integers(1, 10**20 - 1))


@st.composite
def series_values(draw, max_len=14):
    """A series with low in -4..4, possibly known to be zero (low == bound + 1)."""
    low = draw(st.integers(-4, 4))
    coeffs = draw(st.lists(coefficients, max_size=max_len))
    bound = low + len(coeffs) - 1 if coeffs else draw(st.integers(-5, 10))
    return TruncatedSeries(low, coeffs, bound)


def fraction_window(low: int, values, bound: int) -> tuple:
    """The window a series built from Fraction values has."""
    return window(TruncatedSeries(low, list(values), bound))


def assert_canonical(ser: TruncatedSeries) -> None:
    """The integers stored are the Fractions handed out, over their least common denominator."""
    assert (ser.den, list(ser.nums)) == common_numerators(list(ser.coeffs))
    assert ser.coeffs is ser.coeffs


class TestIntegerKernels:
    """The integer series kernels against the Fraction routes they replaced."""

    @given(series_values(), series_values())
    @settings(max_examples=300, deadline=None)
    def test_mul_matches_fraction_cauchy(self, x, y):
        got = x * y
        assert window(got) == window(fraction_cauchy(x, y))
        assert_canonical(got)

    @given(st.lists(st.tuples(series_values(), st.integers(-3, 3), nonzero_coefficients), min_size=1, max_size=4),
           st.none() | st.integers(-6, 12))
    @settings(max_examples=150, deadline=None)
    def test_combination_matches_fraction_sum(self, parts, bound):
        got = TruncatedSeries.combination(parts, bound)
        assert window(got) == window(fraction_combination(parts, bound))
        assert_canonical(got)

    @given(series_values(), series_values(), coefficients, st.integers(-3, 3))
    @settings(max_examples=200, deadline=None)
    def test_linear_ops_match_fractions(self, x, y, c, k):
        assert window(x + y) == window(fraction_combination([(x, 0, 1), (y, 0, 1)]))
        assert window(x - y) == window(fraction_combination([(x, 0, 1), (y, 0, -1)]))
        assert window(-x) == fraction_window(x.low, [-v for v in x.coeffs], x.bound)
        assert window(x.scale(c)) == fraction_window(x.low, [c * v for v in x.coeffs], x.bound)
        assert window(x.shift(k)) == (x.low + k, x.bound + k, x.coeffs)
        deriv = [e * v for e, v in enumerate(x.coeffs, x.low)]
        assert window(x.derivative()) == fraction_window(x.low - 1, deriv, x.bound - 1)
        assert_canonical(x.derivative())

    @given(series_values(), st.one_of(nonzero_coefficients, huge_rationals.filter(bool)))
    @settings(max_examples=200, deadline=None)
    def test_scale_arg_matches_fractions(self, x, b):
        got = x.scale_arg(b)
        assert window(got) == fraction_window(x.low, [v * b**e for e, v in enumerate(x.coeffs, x.low)], x.bound)
        assert_canonical(got)

    @given(st.integers(0, 6), st.integers(0, 40), st.one_of(coefficients, huge_rationals))
    @settings(max_examples=200, deadline=None)
    def test_poly_value_matches_fraction_horner(self, n, i, x):
        assert bernoulli_poly_value(n, i, x) == fraction_poly_value(n, i, x)

    @pytest.mark.parametrize("bound", [0, 1, 64, 256])
    def test_fixed_grid(self, bound):
        points = [Fraction(p, q) for q in range(1, 10) for p in (-7, 1, 5)]
        points.append(Fraction(12345678901234567890, 98765432109876543211))
        b = bernoulli_series(bound)
        # the Fraction Cauchy product at bound 256 takes one to three seconds a point
        cauchy_points = points if bound <= 64 else [points[0], points[-2]]
        for a in points:
            e = exp_series(a, bound)
            assert window(e) == fraction_window(0, [a**i / factorial(i) for i in range(bound + 1)], bound)
            if a in cauchy_points:
                assert window(b * e) == window(fraction_cauchy(b, e))
            assert window(b.scale_arg(a)) == fraction_window(0, [v * a**i for i, v in enumerate(b.coeffs)], bound)
            parts = [(b, 0, a), (e, 1, Fraction(-1, 9)), (b.shift(-2), 2, Fraction(3))]
            assert window(TruncatedSeries.combination(parts)) == window(fraction_combination(parts))
        for n in (0, 1, 2, 5):
            row = [bernoulli_number_order(n, i) / factorial(i) for i in range(bound + 1)]
            assert window(bernoulli_power_series(n, bound)) == fraction_window(0, row, bound)
            for a in points[::4]:
                assert bernoulli_poly_value(n, bound, a) == fraction_poly_value(n, bound, a)

    def test_known_zero_and_negative_low(self):
        zero = TruncatedSeries(-3, [0, 0, 0], -1)
        assert window(zero) == (0, -1, ()) and (zero.nums, zero.den) == ((), 1)
        x = TruncatedSeries(-2, [Fraction(1, 6), 0, Fraction(-3, 4), 0, 5], 2)
        assert (x.nums, x.den) == ((2, 0, -9, 0, 60), 12)
        for y in (zero, x, TruncatedSeries.zero(4), TruncatedSeries.monomial(-1, Fraction(2, 9), 3)):
            assert window(x * y) == window(fraction_cauchy(x, y))
            assert window(y * x) == window(fraction_cauchy(y, x))
            assert window(x + y) == window(fraction_combination([(x, 0, 1), (y, 0, 1)]))
        assert window(zero.scale_arg(Fraction(7, 9))) == window(zero)
        assert window(zero.derivative()) == (-1, -2, ())
