import inspect
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernring import identities, selftest, series
from bernring.cli import MAX_VERIFY_INDEX
from bernring.elements import atom, b_element, t_element
from bernring.identities import (
    BernSymbol,
    IdentityReport,
    beta_integral,
    beta_integral_by_quadrature,
    coefficient_identity,
    harmonic_integral,
    kaneko_operator,
    rademacher_operator,
    verify_23,
    verify_23_even,
    verify_235,
    verify_agoh_dilcher_example,
    verify_euler,
    verify_euler_polynomial,
    verify_f_derivative,
    verify_kaneko,
    verify_lowering,
    verify_miki,
    verify_miki_s_relation,
    verify_multiplication,
    verify_rademacher,
    verify_recurrence,
    verify_stirling_gf,
)
from bernring.polys import LATEX, TEXT, Poly, binomial, factorial
from bernring.reduction import product_reduce, reduce_to_first_order
from bernring.series import (
    InsufficientBoundError,
    TruncatedSeries,
    bernoulli_number,
    bernoulli_poly_value,
    bernoulli_series,
    exp_series,
    harmonic,
)
from bernring.weyl import WeylOp, derivative_of_element
from conftest import (
    agoh_dilcher_by_hand,
    euler_by_fractions,
    euler_polynomial_by_hand,
    lowering_by_fractions,
    miki_by_fractions,
    multiplication_by_fractions,
    poly_cauchy,
    product_23_by_hand,
    product_23_even_by_hand,
    product_235_by_hand,
    product_lhs_by_coefficients,
    rademacher_by_fractions,
    recurrence_by_fractions,
    small_rationals,
    tamper_bernoulli,
)

F = Fraction


def miki_s_coefficient_sides(n: int) -> tuple[Poly, Poly]:
    """Both sides of the T^n coefficient identity of the s-relation, in Q[s]."""
    s = Poly.X()
    one_minus_s = Poly.one() - s
    lhs = Poly.zero()
    for i in range(1, n):
        j = n - i
        coeff = bernoulli_number(i) / factorial(i) * bernoulli_number(j) / factorial(j)
        lhs = lhs + s**i * one_minus_s**j * coeff
    rhs = Poly.zero()
    for k in range(1, n // 2 + 1):
        ell = n - 2 * k
        weight = one_minus_s * s ** (2 * k) + s * one_minus_s ** (2 * k)
        rhs = rhs + weight * (
            bernoulli_number(ell) / factorial(ell) * bernoulli_number(2 * k) / factorial(2 * k)
        )
    rhs = rhs + (Poly.one() - s**n - one_minus_s**n) * (bernoulli_number(n) / factorial(n))
    return lhs, rhs


class TestClosedFormFamilies:
    def test_euler_values(self):
        rep = verify_euler(2)
        assert rep.verified and rep.lhs_value == F(1, 6) and rep.rhs_value == F(1, 6)
        assert verify_euler(3).verified
        assert verify_euler(10).verified
        with pytest.raises(ValueError):
            verify_euler(1)

    def test_recurrence_values(self):
        assert verify_recurrence(0).verified
        rep = verify_recurrence(1)
        assert rep.verified and rep.lhs_value == F(1, 2)
        assert verify_recurrence(6).verified

    def test_multiplication_values(self):
        rep = verify_multiplication(2, 2, 0)
        assert rep.verified and rep.lhs_value == F(1, 12)
        assert verify_multiplication(7, 1, F(3, 4)).verified
        assert verify_multiplication(5, 3, F(7, 3)).verified

    def test_lowering_values(self):
        rep = verify_lowering(1, 2, 0)
        assert rep.verified and rep.lhs_value == F(5, 6)
        rep = verify_lowering(3, 3, F(1, 2))  # i = n kills the first term
        assert rep.verified
        assert verify_lowering(4, 7, F(3, 2)).verified

    def test_euler_polynomial(self):
        assert verify_euler_polynomial(1, F(1, 4), F(1, 3)).verified
        assert verify_euler_polynomial(6, F(1, 2), F(1, 3)).verified
        even = verify_euler_polynomial(6, 0, 0)
        assert even.verified

    def test_agoh_dilcher(self):
        rep = verify_agoh_dilcher_example(0)
        assert rep.verified and rep.lhs_value == F(1, 4)
        assert verify_agoh_dilcher_example(1).verified
        assert verify_agoh_dilcher_example(20).verified

    def test_rademacher(self):
        rep = verify_rademacher(4)
        assert rep.verified and rep.lhs_value == F(1, 80)
        degenerate = verify_rademacher(3)
        assert degenerate.verified and degenerate.degenerate
        assert degenerate.lhs_value == 0 and degenerate.rhs_value == 0
        assert verify_rademacher(12).verified

    def test_products_23_235(self):
        assert verify_23(2).verified
        assert verify_23(11).verified
        assert verify_23_even(2).verified
        assert verify_235(2).verified
        assert verify_235(3).verified
        assert verify_235(12).verified

    def test_miki(self):
        rep = verify_miki(4)
        assert rep.verified and rep.lhs_value == F(1, 144)
        odd = verify_miki(5)
        assert odd.verified and odd.lhs_value == 0 and odd.rhs_value == 0
        assert verify_miki(20).verified


class TestProductFamiliesAgainstHandFormulas:
    """The product families read both sides off the ring; the hand formulas they replaced agree."""

    @pytest.mark.parametrize(
        "family, oracle, first",
        [
            (verify_23, product_23_by_hand, 1),
            (verify_23_even, product_23_even_by_hand, 2),
            (verify_235, product_235_by_hand, 2),
            (verify_agoh_dilcher_example, agoh_dilcher_by_hand, 0),
        ],
        ids=["product-23", "product-23-even", "product-235", "agoh-dilcher"],
    )
    def test_every_allowed_n(self, family, oracle, first):
        for n in range(first, MAX_VERIFY_INDEX + 1):
            report = family(n)
            assert report.verified
            assert (report.lhs_value, report.rhs_value) == oracle(n)

    @pytest.mark.parametrize("a, b", [(F(0), F(0)), (F(-2, 3), F(5, 7))])
    def test_euler_polynomial_every_allowed_n(self, a, b):
        for n in range(1, MAX_VERIFY_INDEX + 1):
            report = verify_euler_polynomial(n, a, b)
            assert report.verified
            assert (report.lhs_value, report.rhs_value) == euler_polynomial_by_hand(n, a, b)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=20),
        a=st.fractions(min_value=-3, max_value=3, max_denominator=9),
        b=st.fractions(min_value=-3, max_value=3, max_denominator=9),
    )
    def test_euler_polynomial_random_points(self, n, a, b):
        report = verify_euler_polynomial(n, a, b)
        assert report.verified
        assert (report.lhs_value, report.rhs_value) == euler_polynomial_by_hand(n, a, b)

    def test_tampered_table_gives_unverified_reports(self, monkeypatch):
        shifted = atom(1, 1, 3, F(1, 2))  # its T^7 coefficient holds B_6(1/6), which holds B_4
        before = shifted.coeff(7)
        tamper_bernoulli(monkeypatch, 4, F(999))
        assert b_element().coeff(4) == F(999, 24) and shifted.coeff(7) != before
        reports = [
            verify_23(4),
            verify_23_even(2),
            verify_235(4),
            verify_agoh_dilcher_example(2),
            verify_euler_polynomial(4, 0, 0),
            verify_euler(3),
            verify_recurrence(5),
            verify_multiplication(4, 2, F(1, 3)),
            verify_rademacher(4),
            verify_miki(4),
        ]
        for report in reports:
            assert not report.verified, report.name
            assert report.lhs_value != report.rhs_value
        # the rows of order >= 2 are built by the lowering identity, so it holds on them by construction,
        # and criterion 5's cross-check against powers of row 1 is what catches the tamper
        assert verify_lowering(1, 4, F(1, 3)).verified
        assert not selftest.check_lowering()[0]


# points with denominators up to 9, and with numerator and denominator of up to 20 digits
POINTS = (F(0), F(1), F(-1), F(1, 2), F(7, 3), F(-5, 6), F(-4, 9), F(12345678901234567890, 98765432109876543211))
points = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=9),
    st.builds(F, st.integers(-(10**20) + 1, 10**20 - 1), st.integers(1, 10**20 - 1)),
)


class TestIntegerSumsAgainstFractionRoutes:
    """Each family sums integer numerators into one Fraction; the Fraction sums it replaced agree."""

    @pytest.mark.parametrize(
        "family, oracle, first",
        [
            (verify_euler, euler_by_fractions, 2),
            (verify_recurrence, recurrence_by_fractions, 0),
            (verify_rademacher, rademacher_by_fractions, 3),
            (verify_miki, miki_by_fractions, 4),
        ],
        ids=["euler", "recurrence", "rademacher", "miki"],
    )
    def test_every_allowed_index(self, family, oracle, first):
        for n in range(first, MAX_VERIFY_INDEX + 1):
            report = family(n)
            assert report.verified
            assert (report.lhs_value, report.rhs_value) == oracle(n)

    def test_multiplication_grid(self):
        for m in range(0, 31):
            for n in range(1, 7):
                for a in POINTS:
                    report = verify_multiplication(m, n, a)
                    assert report.verified
                    assert (report.lhs_value, report.rhs_value) == multiplication_by_fractions(m, n, a)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(0, 40), n=st.integers(1, 8), a=points)
    def test_multiplication_random_points(self, m, n, a):
        report = verify_multiplication(m, n, a)
        assert report.verified
        assert (report.lhs_value, report.rhs_value) == multiplication_by_fractions(m, n, a)

    def test_lowering_grid(self):
        for n in range(1, 9):
            for i in range(1, 31):
                for a in POINTS:
                    report = verify_lowering(n, i, a)
                    assert report.verified
                    assert (report.lhs_value, report.rhs_value) == lowering_by_fractions(n, i, a)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 8), i=st.integers(1, 40), a=points)
    def test_lowering_random_points(self, n, i, a):
        report = verify_lowering(n, i, a)
        assert report.verified
        assert (report.lhs_value, report.rhs_value) == lowering_by_fractions(n, i, a)

    @pytest.mark.parametrize(
        "factors, first",
        [
            ((identities._B2, identities._B3), 0),
            ((identities._B2, identities._B3, identities._B5), 0),
            ((identities._B_PRIME, identities._B_PRIME), 0),
            ((atom(0, 1, 1, F(-2, 3)), atom(0, 1, 1, F(5, 7))), 1),
        ],
        ids=["23", "235", "agoh-dilcher", "euler-polynomial"],
    )
    def test_product_left_side_every_allowed_n(self, factors, first):
        for n in range(first, MAX_VERIFY_INDEX + 1):
            assert identities._product_sides(factors, n)[0] == product_lhs_by_coefficients(factors, n)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 30), a=points, b=points)
    def test_product_left_side_random_points(self, n, a, b):
        factors = (atom(0, 1, 1, a), atom(0, 1, 1, b))
        assert identities._product_sides(factors, n)[0] == product_lhs_by_coefficients(factors, n)

    def test_product_left_side_past_the_bound(self):
        # a factor with a pole leaves the product of T^n-exact expansions exact only to T^(n-1)
        factors = (atom(-1, 1, 1), atom(0, 1, 2))
        for n in (0, 3):
            for route in (identities._product_sides, product_lhs_by_coefficients):
                with pytest.raises(InsufficientBoundError):
                    route(factors, n)
        zero_first = (t_element(5), atom(0, 1, 2))  # no stored term pairs up to T^3
        assert identities._product_sides(zero_first, 3)[0] == product_lhs_by_coefficients(zero_first, 3) == 0


class TestParameterizedRelation:
    def test_series_relation(self):
        assert verify_miki_s_relation(10).verified

    def test_series_relation_against_symbolic_route(self):
        # oracle: both sides as series whose coefficients are polynomials in s
        s = Poly.X()
        one_minus_s = Poly.one() - s
        for order in range(1, 13):
            base = [Poly.const(c) for c in bernoulli_series(order).coeffs]
            b_s = [c * s**i for i, c in enumerate(base)]
            b_1ms = [c * one_minus_s**i for i, c in enumerate(base)]
            half_t = [Poly.zero(), Poly.const(F(1, 2))] + [Poly.zero()] * (order - 1)
            lhs = poly_cauchy(b_s, b_1ms)
            left = poly_cauchy([x + t * s for x, t in zip(b_s, half_t)], base)
            right = poly_cauchy([y + t * one_minus_s for y, t in zip(b_1ms, half_t)], base)
            rhs = [one_minus_s * x + s * y for x, y in zip(left, right)]
            assert len(lhs) == order + 1
            assert all((x - y).is_zero() for x, y in zip(lhs, rhs))
            report = verify_miki_s_relation(order)
            fingerprint = sum((bernoulli_number(i) / math.factorial(i) for i in range(order + 1)), F(0))
            assert report.verified
            assert report.lhs_value == report.rhs_value == fingerprint

    def test_series_relation_tampered_series_fails(self, monkeypatch):
        def tampered(bound):
            coeffs = list(series.bernoulli_series(bound).coeffs)
            coeffs[4] += 1
            return TruncatedSeries(0, coeffs, bound)

        monkeypatch.setattr(identities, "bernoulli_series", tampered)
        report = verify_miki_s_relation(8)
        assert not report.verified
        assert report.lhs_value != report.rhs_value

    def test_coefficient_identity_in_s(self):
        for n in range(1, 13):
            lhs, rhs = miki_s_coefficient_sides(n)
            assert lhs == rhs

    def test_beta_values(self):
        assert beta_integral(1, 1) == 1
        assert beta_integral(2, 3) == F(1, 12)
        for i in range(1, 11):
            for j in range(1, 11):
                assert beta_integral(i, j) == beta_integral_by_quadrature(i, j)
        with pytest.raises(ValueError):
            beta_integral(0, 1)

    def test_harmonic_companion(self):
        assert harmonic_integral(3) == 3
        for n in range(1, 11):
            assert harmonic_integral(n) == 2 * harmonic(n - 1)


class TestKaneko:
    def test_small_values(self):
        rep = verify_kaneko(1)
        assert rep.verified and rep.lhs_value == 0 and rep.rhs_value == 0
        assert 2 * bernoulli_number(1) + 6 * bernoulli_number(2) + 4 * bernoulli_number(3) == 0

    def test_operator_route_directly(self):
        for k in (1, 2, 5, 10):
            bound = 2 * k + 6
            acted = kaneko_operator(k).apply_series(bernoulli_series(bound))
            assert (exp_series(1, bound) * acted).coeff(k + 1) == 0

    def test_range(self):
        assert all(verify_kaneko(k).verified for k in range(1, 16))

    def test_exact_bound(self):
        """The operator route read at bound 2k + 1 gives the report of the earlier bound 2k + 10, and
        bound 2k is too short for the T^(k+1) coefficient."""

        def operator_route(k: int, bound: int) -> Fraction:
            acted = kaneko_operator(k).apply_series(bernoulli_series(bound))
            return factorial(k + 1) * (exp_series(1, bound) * acted).coeff(k + 1)

        for k in range(1, 31):
            terms = (binomial(k + 1, j) * (k + j + 1) * bernoulli_number(k + j) for j in range(k + 2))
            direct = sum(terms, Fraction(0))
            via = operator_route(k, 2 * k + 10)
            assert verify_kaneko(k) == IdentityReport("kaneko", (("k", Fraction(k)),), direct, via, direct == via == 0)
            with pytest.raises(InsufficientBoundError):
                operator_route(k, 2 * k)


    def test_differing_routes_are_an_internal_error(self, monkeypatch):
        # the operator plus the identity adds (k+1)! [T^(k+1)] e^T B = B_(k+1)(1), 1/6 at k = 1
        real = kaneko_operator
        monkeypatch.setattr(identities, "kaneko_operator", lambda k: real(k) + WeylOp({0: Poly.one()}))
        with pytest.raises(RuntimeError, match="routes differ"):
            verify_kaneko(1)

    def test_tampered_table_fails_without_an_error(self, monkeypatch):
        # both routes read the same table, so a wrong B_4 moves both and the report holds a nonzero sum
        tamper_bernoulli(monkeypatch, 4, F(999))
        report = verify_kaneko(2)
        assert not report.verified and report.lhs_value != 0 and report.rhs_value == 0


class TestStirlingAndDerivatives:
    def test_stirling_gf(self):
        assert verify_stirling_gf(1, 2).verified  # n < k gives 0 = 0
        rep = verify_stirling_gf(4, 2)
        assert rep.verified and rep.lhs_value == F(7, 24)
        rep = verify_stirling_gf(5, 5)
        assert rep.verified and rep.lhs_value == F(1, 120)

    def test_f_derivative(self):
        assert verify_f_derivative(0).verified
        assert verify_f_derivative(1).verified
        assert verify_f_derivative(8).verified

    def test_f_derivative_negative_order_refused(self):
        # an empty coefficient range would compare nothing and report 0 = 0
        with pytest.raises(ValueError, match="nonnegative"):
            verify_f_derivative(12, order=-5)


class TestRademacherOperator:
    def test_combined_relation_semantic(self):
        b_prime = derivative_of_element(b_element())
        squared = product_reduce(b_prime, b_prime).mul_monomial(2)
        for n in range(4, 11):
            lhs = squared - atom(0, 2, 1, 0).scale(2 * n - 1)
            rhs = rademacher_operator(n).apply_element(b_element())
            assert lhs.equals(rhs)

    def test_same_operator_as_with_l1_written_out(self):
        """Built on ``lowering_op(1, 1, 0)``, the operator stores what L(1) = 1 - T - T d written out gave."""
        squared = WeylOp(
            {
                3: Poly.monomial(3, Fraction(-1, 6)),
                2: Poly.monomial(2, Fraction(-1, 2)),
                1: Poly.monomial(3, Fraction(1, 6)) - Poly.monomial(2),
                0: Poly.monomial(2, Fraction(-1, 6)),
            }
        )
        lowering = WeylOp({0: Poly([1, -1]), 1: Poly.monomial(1, -1)})
        for n in range(12):
            by_hand, op = squared - lowering.scale(2 * n - 1), rademacher_operator(n)
            assert (op.rows, op.den, hash(op)) == (by_hand.rows, by_hand.den, hash(by_hand))


class TestCoefficientIdentity:
    def test_euler_shape(self):
        square = atom(0, 2, 1, 0)
        combo = reduce_to_first_order(square)
        m = 10
        ident = coefficient_identity(square, combo, m, provenance="square relation")
        direct = sum(
            (
                F(math.comb(m, i)) * bernoulli_number(i) * bernoulli_number(m - i)
                for i in range(m + 1)
            ),
            F(0),
        )
        assert ident.lhs_value() == direct
        assert ident.rhs_value() == (1 - m) * bernoulli_number(m) - m * bernoulli_number(m - 1)
        assert all(len(t.factors) == 2 for t in ident.lhs)
        assert all(s.order == 1 and s.scale == 1 for t in ident.lhs for s in t.factors)

    def test_below_valuation_is_empty(self):
        square = atom(0, 2, 1, 0)
        combo = reduce_to_first_order(square)
        ident = coefficient_identity(square, combo, -1)
        assert ident.lhs == () and ident.rhs == ()

    def test_triple_product_multinomial(self):
        factors = [atom(0, 1, 2, 0), atom(0, 1, 3, 0), atom(0, 1, 5, 0)]
        triple = product_reduce(product_reduce(factors[0], factors[1]), factors[2])
        combo = reduce_to_first_order(triple)
        for n in (4, 7):
            ident = coefficient_identity(factors, combo, n)
            direct = F(0)
            fact = math.factorial
            for i in range(n + 1):
                for j in range(n - i + 1):
                    k = n - i - j
                    direct += (
                        F(fact(n), fact(i) * fact(j) * fact(k))
                        * F(2) ** i * F(3) ** j * F(5) ** k
                        * bernoulli_number(i) * bernoulli_number(j) * bernoulli_number(k)
                    )
            assert ident.lhs_value() == direct
            assert ident.rhs_value() == direct

    def test_rejects_unequal_sides(self):
        combo = reduce_to_first_order(atom(0, 2, 1, 0))
        with pytest.raises(ValueError):
            coefficient_identity(b_element(), combo, 4)

    def test_symbol_evaluation(self):
        sym = BernSymbol(order=1, index=2, argument=F(0), scale=F(3))
        assert sym.value() == 9 * bernoulli_number(2)

    @given(st.integers(0, 6), st.integers(0, 30), small_rationals, small_rationals.filter(bool))
    @settings(max_examples=80, deadline=None)
    def test_symbol_pair_matches_poly_value(self, n, i, x, b):
        num, den = BernSymbol(order=n, index=i, argument=x, scale=b).pair()
        assert den > 0 and F(num, den) == b**i * bernoulli_poly_value(n, i, x)

    def test_symbol_is_a_hashed_record(self):
        sym = BernSymbol(order=1, index=2, argument=F(-2, 6), scale=F(3))
        twin = BernSymbol(order=1, index=2, argument=F("-1/3"), scale=F(9, 3))
        assert sym == twin and hash(sym) == hash(twin) and len({sym, twin}) == 1
        assert sym != BernSymbol(order=2, index=2, argument=F(-1, 3), scale=F(3))
        assert sym.sort_key() == (1, 2, F(-1, 3), F(3))
        assert repr(sym) == "BernSymbol(order=1, index=2, argument=Fraction(-1, 3), scale=Fraction(3, 1))"
        with pytest.raises(AttributeError):
            sym.index = 3


class TestReportInterface:
    def test_json_schema(self):
        rep = verify_euler(4)
        data = rep.to_json_dict()
        assert set(data) == {"name", "params", "lhs", "rhs", "verified", "latex"}
        assert data["params"] == [{"name": "m", "value": "4"}]
        assert data["lhs"] == str(rep.lhs_value) and "/" in data["lhs"]
        assert data["verified"] is True
        json.dumps(data)

    def test_degenerate_flag_serialized(self):
        data = verify_rademacher(3).to_json_dict()
        assert data.get("degenerate") is True

    def test_latex_golden(self):
        rep = verify_euler(2)
        assert rep.render(LATEX) == "\\mathrm{euler}(m=2):\\ \\frac{1}{6} = \\frac{1}{6}"
        assert rep.render(TEXT) == rep.render() == "euler(m=2): 1/6 = 1/6 [ok]"

    def test_render_failed(self):
        rep = IdentityReport("euler", (("m", Fraction(2)),), Fraction(1, 6), Fraction(-1, 2), False)
        assert rep.render(TEXT) == "euler(m=2): 1/6 = -1/2 [FAILED]"
        assert rep.render(LATEX) == "\\mathrm{euler}(m=2):\\ \\frac{1}{6} \\neq -\\frac{1}{2}"


class TestCrossRoute:
    def test_23_product_both_routes(self):
        factors = [atom(0, 1, 2, 0), atom(0, 1, 3, 0)]
        pair = product_reduce(factors[0], factors[1])
        combo = reduce_to_first_order(pair)
        for n in range(2, 9):
            ident = coefficient_identity(factors, combo, n)
            direct = sum(
                (
                    F(3) ** i * F(2) ** (n - i) * F(math.comb(n, i))
                    * bernoulli_number(i) * bernoulli_number(n - i)
                    for i in range(n + 1)
                ),
                F(0),
            )
            assert ident.lhs_value() == direct
            assert ident.lhs_value() == verify_23(n).lhs_value

    @pytest.mark.parametrize(
        "factors",
        [
            (atom(0, 1, 1, F(1, 2)), atom(0, 1, 2, F(1, 3))),  # B(T)e^{T/2} B(2T)e^{T/3}
            (atom(1, 0, 1, 2), atom(0, 1, 1, F(1, 2))),  # T e^{2T} B(T)e^{T/2}
        ],
    )
    def test_products_with_exponentials_both_routes(self, factors):
        combo = identities._product_combination(factors)
        for n in range(9):
            ident = coefficient_identity(factors, combo, n)
            assert (ident.lhs_value(), ident.rhs_value()) == identities._product_sides(factors, n)
            # the exponentials' shifts add up to one symbol B^(0)_i(a) = a^i in every left term
            assert all(sum(s.order == 0 for s in term.factors) == 1 for term in ident.lhs)
        assert ident.lhs

    def test_euler_identity_both_routes(self):
        square = atom(0, 2, 1, 0)
        combo = reduce_to_first_order(square)
        for m in range(2, 13, 2):
            ident = coefficient_identity(square, combo, m)
            # the emitted identity evaluates to the same number the closed-form
            # route computes at order m
            direct_lhs = sum(
                (
                    F(math.comb(m, i)) * bernoulli_number(i) * bernoulli_number(m - i)
                    for i in range(m + 1)
                ),
                F(0),
            )
            assert ident.lhs_value() == direct_lhs
            assert ident.lhs_value() == ident.rhs_value()


class TestRegistry:
    def test_every_verify_function_is_registered_in_declaration_order(self):
        functions = [fn for attr, fn in vars(identities).items() if attr.startswith("verify_")]
        assert list(identities.IDENTITY_REGISTRY.values()) == functions

    @pytest.mark.parametrize("name", list(identities.IDENTITY_REGISTRY))
    def test_report_carries_the_registry_name_and_parameters(self, name):
        """Drift guard: the report names the family as the registry does and carries exactly the
        positional parameters of its definition, in order, each at the value it was given."""
        fn = identities.IDENTITY_REGISTRY[name]
        declared = inspect.signature(fn).parameters.values()
        positional = [p.name for p in declared if p.kind is p.POSITIONAL_OR_KEYWORD]
        args = [F(1, 2) if least is None else least for least in fn.params.values()]
        report = fn(*args)
        assert report.name == name and report.verified
        assert [k for k, _ in report.params] == positional == list(fn.params)
        assert [v for _, v in report.params] == args
        assert all(v.__class__ is Fraction for _, v in report.params)

    @pytest.mark.parametrize("name", list(identities.IDENTITY_REGISTRY))
    def test_integer_below_its_least_value_is_refused(self, name):
        fn = identities.IDENTITY_REGISTRY[name]
        smallest = {p: F(1, 2) if least is None else least for p, least in fn.params.items()}
        for pname, least in fn.params.items():
            if least is not None:
                args = [least - 1 if p == pname else v for p, v in smallest.items()]
                with pytest.raises(ValueError, match=f"^{name} requires {pname} >= {least}$"):
                    fn(*args)

    def test_rational_parameter_is_passed_as_a_fraction(self):
        assert verify_multiplication(3, 2, 1) == verify_multiplication(3, 2, F(1))
        assert verify_lowering(2, 3, -1).params == (("n", F(2)), ("i", F(3)), ("a", F(-1)))

    def test_arguments_are_positional(self):
        with pytest.raises(TypeError, match="takes 1 positional arguments, got 0"):
            verify_euler(m=2)
        with pytest.raises(TypeError, match="takes 3 positional arguments, got 2"):
            verify_lowering(1, 1)

    def test_declaration(self, monkeypatch):
        """A family is declared by its definition alone; a least value must name an integer parameter."""

        def verify_nothing(n: int, a, *, bound: int = 3):  # an annotation here is the class int itself
            return F(n), a + bound

        monkeypatch.setattr(identities, "IDENTITY_REGISTRY", {})
        for least in ({"a": 1}, {"m": 1}):
            with pytest.raises(TypeError, match="has no integer parameter"):
                identities._identity("nothing", **least)(verify_nothing)
        assert identities.IDENTITY_REGISTRY == {}
        fn = identities._identity("nothing", n=2)(verify_nothing)
        assert identities.IDENTITY_REGISTRY == {"nothing": fn} and fn.__name__ == "verify_nothing"
        assert (fn.params, fn.options) == ({"n": 2, "a": None}, {"bound": 3})
        assert fn(3, 0, bound=3) == IdentityReport("nothing", (("n", F(3)), ("a", F(0))), F(3), F(3), True)
