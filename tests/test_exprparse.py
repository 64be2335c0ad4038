import random
from fractions import Fraction

import pytest

from bernring.elements import atom, b_element, from_scalar, t_element
from bernring.exprparse import ExprError, parse_element
from bernring.reduction import negative_power_expand, product_reduce
from bernring.selftest import random_element

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
