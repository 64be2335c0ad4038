import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernring.elements import atom, b_element, from_scalar, t_element
from bernring.exprparse import ExprError, parse_element
from bernring.reduction import negative_power_expand, product_reduce
from bernring.selftest import random_element
from conftest import parse_by_left_fold

F = Fraction


class TestPrimaries:
    def test_basic_tokens(self):
        assert parse_element("B") == b_element()
        assert parse_element("T") == t_element()
        assert parse_element("5") == from_scalar(5)
        assert parse_element("3/2") == from_scalar(F(3, 2))

    def test_scaled_arguments(self):
        assert parse_element("B(2T)") == atom(0, 1, 2, 0)
        assert parse_element("B(T)") == b_element()
        assert parse_element("B(3/2T)") == atom(0, 1, F(3, 2), 0)
        assert parse_element("B(-1T)") == atom(0, 1, -1, 0)

    def test_exponentials(self):
        assert parse_element("e^{3T}") == atom(0, 0, 1, 3)
        assert parse_element("e^{T}") == atom(0, 0, 1, 1)
        assert parse_element("e^{-1/2T}") == atom(0, 0, 1, F(-1, 2))


class TestOperators:
    def test_precedence(self):
        got = parse_element("B + 2*T*B")
        assert got == b_element() + atom(1, 1, 1, 0).scale(2)
        assert parse_element("-B") == b_element().scale(-1)
        assert parse_element("B - B") == parse_element("0")

    def test_product_is_reduced(self):
        got = parse_element("B(2T)*B(3T)")
        want = product_reduce(atom(0, 1, 2, 0), atom(0, 1, 3, 0))
        assert got == want

    def test_powers(self):
        assert parse_element("B^2") == atom(0, 2, 1, 0)
        assert parse_element("T^3") == t_element(3)
        assert parse_element("T^{2}") == t_element(2)
        assert parse_element("B^0") == from_scalar(1)

    def test_negative_powers(self):
        assert parse_element("T^-1") == atom(-1, 0, 1, 0)
        assert parse_element("B^-1") == negative_power_expand(1)
        assert parse_element("B^-2") == negative_power_expand(2)
        assert parse_element("B^-1 * B").equals(from_scalar(1))
        with pytest.raises(ExprError):
            parse_element("(B + T)^-1")

    def test_derivative(self):
        got = parse_element("d[B]")
        want = atom(-1, 1, 1, 0) - b_element() - atom(-1, 2, 1, 0)
        assert got == want
        assert parse_element("d[T^2]") == t_element(1).scale(2)

    def test_parentheses(self):
        assert parse_element("(B + T)*(B - T)").equals(
            product_reduce(b_element(), b_element()) - product_reduce(t_element(), t_element())
        )


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        ["B(2T", "e^{3}", "B * ", "1/0", "B ^ x", "2 +", ")", "B(0T)", "B(1/0T)", "3/0*B", "e^{2/0T}"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ExprError):
            parse_element(text)

    def test_diagnostic_points_at_error(self):
        try:
            parse_element("B(2T)*(B(3T)")
        except ExprError as err:
            diag = err.diagnostic()
            assert "^" in diag and "column" in diag
        else:
            pytest.fail("expected a parse error")


class TestRoundTrip:
    def test_printed_elements_reparse(self):
        rng = random.Random(909)
        for _ in range(100):
            el = random_element(rng)
            assert parse_element(el.render()).equals(el)

    def test_reduction_outputs_reparse(self):
        el = product_reduce(
            product_reduce(atom(0, 1, 2, 0), atom(0, 1, 3, 0)), atom(0, 1, 5, 0)
        )
        assert parse_element(el.render()).equals(el)


# -- a term's monomial factors, folded in once, against the left fold --------------------------

MONOMIALS = ["3", "-1/2", "T", "T^2", "T^-1", "e^{1/2T}", "e^{-T}", "(2*T*e^{3/2T})", "-T^3"]
OTHERS = ["B(2T)", "B(3T)^2", "B(3/2T)", "(B + T)", "d[B(5T)]", "B(2T)^-1", "0"]


def parsed_or_refused(parse, text: str):
    """The parsed element and its rendering, or the message and column of the refusal."""
    try:
        value = parse(text)
    except ExprError as exc:
        return str(exc), exc.pos
    return value, value.render()


def assert_folds_agree(text: str) -> None:
    assert parsed_or_refused(parse_element, text) == parsed_or_refused(parse_by_left_fold, text), text


class TestMonomialFold:
    @pytest.mark.parametrize("monomial", MONOMIALS)
    @pytest.mark.parametrize("position", range(4))
    def test_monomial_at_every_position(self, monomial, position):
        factors = ["B(2T)", "B(3T)^2", "B(5/3T)"]
        factors.insert(position, monomial)
        assert_folds_agree("*".join(factors))

    @pytest.mark.parametrize("monomials", [MONOMIALS[:1], MONOMIALS[:4], MONOMIALS])
    def test_monomials_alone_and_around_one_factor(self, monomials):
        assert_folds_agree("*".join(monomials))
        for position in range(len(monomials) + 1):
            assert_folds_agree("*".join([*monomials[:position], "B(7/4T)^2", *monomials[position:]]))

    @given(st.lists(st.sampled_from(MONOMIALS + OTHERS + ["B(7T)^6", "d[B^6*B^6]"]), min_size=1, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_random_products(self, factors):
        assert_folds_agree("*".join(factors))

    @pytest.mark.parametrize(
        "text",
        [
            "d[B^6*B^6]*2",
            "2*d[B^6*B^6]",
            "d[d[B^6*B^6]]*T",
            "T*e^{T}*d[B^6*B^6]*3",
            "0*d[B^6*B^6]",
            "B^6*T*B^6*e^{T}*B",
            "B(97T)^6*2*B(89T)^6",
            "T*B(97T)^6*e^{1/2T}*B(89T)^6",
        ],
    )
    def test_caps_checked_on_every_factor(self, text):
        message, _ = parsed_or_refused(parse_element, text)
        assert "past the cap of" in message
        assert_folds_agree(text)
