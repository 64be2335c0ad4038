import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernring import exprparse, reduction
from bernring.elements import BElement, atom, b_element, from_scalar, t_element
from bernring.exprparse import (
    MAX_COEFFICIENT_BITS,
    MAX_DERIVATIVE_DEPTH,
    MAX_EXPONENT,
    MAX_NESTING_DEPTH,
    MAX_POWER_SIZE,
    MAX_PRODUCT_PAIRS,
    MAX_PRODUCT_POWER,
    MAX_RATIONAL_DIGITS,
    MAX_REWRITE_WORK,
    MAX_T_POWER_WEIGHT,
    ExprError,
    _Parser,
    _tokenize,
    parse_element,
)
from bernring.reduction import negative_power_expand, product_reduce
from bernring.selftest import random_element
from bernring.weyl import derivative_of_element
from conftest import (
    equals_by_subtraction,
    nested_power,
    parse_by_left_fold,
    parse_by_product_then_monomial,
    product_of_sums,
    product_per_shift,
    t_power_chain,
    tokenize_by_matches,
)

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

    @given(st.integers(-30, 30), st.integers(1, 30), st.integers(1, 12))
    def test_literals_read_in_lowest_terms(self, p, q, g):
        """A literal pg/qg, read as an integer pair, builds the atoms of p/q: as a number, a shift and a scale,
        a negative scale expanded by B(-T) = B(T) + T."""
        text, c = f"{p * g}/{q * g}", F(p, q)
        assert parse_element(text) == from_scalar(c)
        assert parse_element(f"e^{{{text}T}}") == atom(0, 0, 1, c)
        if p:
            assert parse_element(f"B({text}T)") == atom(0, 1, c)


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


# -- a term's monomial riding in the last factor of its last product, against each product formed in full ------

B_FACTORS = ["B(2T)", "B(3T)^2", "B(5/2T)", "B(7/4T)^3", "(B + T)", "(B(3T) - 2*e^{1/2T})", "d[B(2T)]", "B(-1T)"]

monomials = st.builds(
    lambda c, k, a: "*".join(part for part in (c, k, a) if part) or "1",
    st.sampled_from(["", "3", "-1/2", "7/4", nested_power("2", 3), "-" + nested_power("3/5", 2)]),
    st.sampled_from(["", "T", "T^3", "T^-2"]),
    st.sampled_from(["", "e^{1/2T}", "e^{-7/4T}", "e^{2T}"]),
)


def assert_parsed_as_products_then_monomial(text: str) -> BElement:
    """``text`` parses to the numerators, denominator and atom order of its products formed in full."""
    got, want = parse_element(text), parse_by_product_then_monomial(text)
    assert (list(got.nums.items()), got.den) == (list(want.nums.items()), want.den), text
    return got


class TestMonomialInTheLastFactor:
    @given(st.lists(st.sampled_from(B_FACTORS), min_size=1, max_size=3), monomials)
    @settings(max_examples=60, deadline=None)
    def test_same_element_wherever_the_monomial_stands(self, factors, monomial):
        """Before, between and after the B-factors, and in parentheses with one of them."""
        texts = ["*".join([*factors[:i], monomial, *factors[i:]]) for i in range(len(factors) + 1)]
        texts += ["*".join([*factors[:i], f"({monomial}*{factors[i]})", *factors[i + 1:]]) for i in range(len(factors))]
        want = assert_parsed_as_products_then_monomial(texts[0])
        for text in texts[1:]:
            assert assert_parsed_as_products_then_monomial(text) == want, text

    @pytest.mark.parametrize("text", ["B(2T)*B(3T)^2*5*T^2*e^{1/2T}", "2*B(2T)*T*B(3T)*e^{T}*B(5T)*-3", "T*e^{T}*7",
                                      "(5*T*B(2/3T)^6)*B(7/4T)^6", "B(2T)*(B(3T)*2)*T", "0*B(2T)*B(3T)*T"])
    def test_fixed_terms(self, text):
        assert_parsed_as_products_then_monomial(text)


class TestRefusalColumns:
    """The checks of a term run at the factors where they ran while each product was formed in full."""

    def test_pair_cap_before_the_monomials(self):
        first, second = "+".join(f"e^{{{k}T}}" for k in range(1, 801)), "+".join(f"B({k}T)" for k in range(1, 31))
        text = f"({first})*({second})*5*T"
        refusal = parsed_or_refused(parse_element, text)
        assert refusal == (f"atom-pair count 24000 of the products is past the cap of {MAX_PRODUCT_PAIRS}", 7296)
        assert refusal == parsed_or_refused(parse_by_product_then_monomial, text) and text[7296:] == "*5*T"

    @pytest.mark.parametrize("text", ["d[B(2T)^6*B(3T)^6]*2", "d[B(2T)^6*B(3T)^6]*2*T*e^{T}", "3*d[B(2T)^6*B(3T)^6]*2"])
    def test_power_of_a_lone_factor(self, text):
        """At column 21: after the monomial that follows the factor, or after the factor that follows a monomial."""
        refusal = parsed_or_refused(parse_element, text)
        assert refusal == (f"B-power 13 of a product is past the cap of {MAX_PRODUCT_POWER}", 20)
        assert refusal == parsed_or_refused(parse_by_product_then_monomial, text)


# -- one-atom powers in closed form, one-pass tokens and the depth cap, against the step-by-step routes --

ONE_ATOM_BASES = [
    "3", "-1/2", "0", "T", "(T^-2)", "e^{-1/2T}", "e^{3/2T}", "(2*T*e^{-3/2T})", "(-3*T^-2*e^{-T})",
    "B", "B(2T)", "B(3/2T)", "(B^5)", "(B^6)", "(B(5T)^2)", "(-5/3*T^2*B(7/4T)^3*e^{-1/2T})",
    "(B(2T)*B(2T))", "(B^6*B)", "d[T^2]", "d[e^{-2T}]",
]
MULTI_ATOM_BASES = ["(B + T)", "d[B]", "B(-1T)", "(B(2T)*B(3T))"]


class TestAtomPower:
    @pytest.mark.parametrize("base", ONE_ATOM_BASES + MULTI_ATOM_BASES)
    def test_every_exponent(self, base):
        for k in range(-MAX_EXPONENT, MAX_EXPONENT + 1):
            assert_folds_agree(f"{base}^{k}")
            assert_folds_agree(f"{base}^{{{k}}}*B(3T)")

    @pytest.mark.parametrize(
        "text, total",
        [("(B^5)^3", 15), ("(B^6)^3", 18), ("(B^6*B)^2", 14), ("(B(3T)^4)^4", 16), ("(d[T*B^6]^2)", 14)],
    )
    def test_refused_at_the_first_step_past_the_cap(self, text, total):
        message, _ = parsed_or_refused(parse_element, text)
        assert message == f"B-power {total} of a product is past the cap of {MAX_PRODUCT_POWER}"
        assert_folds_agree(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            # seven levels raise 2^(6^6), of 6^6 + 1 bits, and T^(6^6) to the 6th
            (nested_power("2", 9), f"coefficient size 279942 bits of a power is past the cap of {MAX_POWER_SIZE}"),
            (nested_power("T", 12) + "*B", f"T-power 279936 of a power is past the cap of {MAX_POWER_SIZE}"),
            (nested_power("T^-1", 7), f"T-power -279936 of a power is past the cap of {MAX_POWER_SIZE}"),
            (nested_power("1/3", 7), f"coefficient size 443694 bits of a power is past the cap of {MAX_POWER_SIZE}"),
        ],
    )
    def test_nested_power_refused_at_the_first_level_past_the_cap(self, text, message):
        assert parsed_or_refused(parse_element, text) == (message, text.index(")") + len(")^6") * 7)

    def test_largest_accepted_nesting(self):
        for text, want in [(nested_power("2", 6), from_scalar(2 ** 6**6)),
                           (nested_power("T", 6) + "*B", atom(6**6, 1, 1)),
                           (nested_power("1/3", 6), from_scalar(F(1, 3 ** 6**6)))]:
            assert parse_element(text) == want == parse_by_left_fold(text)

    @given(
        st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool),
        st.integers(-3, 3),
        st.integers(0, 6),
        st.fractions(min_value=F(1, 4), max_value=7, max_denominator=5),
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
        st.integers(0, MAX_EXPONENT),
        st.sampled_from(["{}", "d[{}]", "d[{}]^2", "d[d[{}]]", "T*{}*e^{{1/2T}}", "B(5/2T)*{}"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_atoms(self, c, m, n, b, a, k, frame):
        base = atom(m, n, b, a).scale(c).render()
        for exponent in (k, -k) if n == 0 else (k,):
            assert_folds_agree(frame.format(f"({base})^{exponent}"))


TOKEN_ALPHABET = list("0123456789/BTed-+*^(){}[] \t\n") + ["\u00a0", "\u2003", "\u0663", "\u00b2", "x", "$", "."]


def tokens_or_refusal(tokenize, text: str):
    try:
        return tokenize(text)
    except ExprError as exc:
        return str(exc), exc.pos


class TestTokenizer:
    @pytest.mark.parametrize(
        "text",
        ["", "   ", "B(2T)*B(3T)", " 3 / 4", "3/4/5", "12/", "B $", "B  \t$ T", "e^{-1/2T}  ", "x",
         "\u00a0B\u2003", "B\u00b2", "\u0663/2"],
    )
    def test_fixed_cases(self, text):
        assert tokens_or_refusal(_tokenize, text) == tokens_or_refusal(tokenize_by_matches, text)

    @given(st.text(alphabet=st.sampled_from(TOKEN_ALPHABET), max_size=30))
    @settings(max_examples=400, deadline=None)
    def test_random_strings(self, text):
        assert tokens_or_refusal(_tokenize, text) == tokens_or_refusal(tokenize_by_matches, text)


class TestEquals:
    @given(st.integers(0, 10**6), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_against_the_difference(self, seed, same):
        rng = random.Random(seed)
        x = random_element(rng)
        y = BElement(dict(x.nums), x.den) if same else random_element(rng)
        assert x.equals(y) == equals_by_subtraction(x, y)
        assert x.equals(y) or not same

    def test_equal_stored_forms_take_no_zero_test(self, monkeypatch):
        x = parse_element("B(2T)^2*B(3T)*e^{1/2T}")
        monkeypatch.setattr(BElement, "is_zero", lambda self: pytest.fail("zero test run"))
        assert x.equals(parse_element("B(2T)^2*B(3T)*e^{1/2T}"))

    def test_distinct_stored_forms_of_one_series(self):
        x, y = parse_element("B*e^{T}"), parse_element("B + T")
        assert x != y and x.equals(y) and equals_by_subtraction(x, y)


class TestDerivativeDepth:
    def test_deepest_nesting_is_accepted(self):
        text = "d[" * MAX_DERIVATIVE_DEPTH + "B(2T)^2*B(3T)" + "]" * MAX_DERIVATIVE_DEPTH
        want = parse_element("B(2T)^2*B(3T)")
        for _ in range(MAX_DERIVATIVE_DEPTH):
            want = derivative_of_element(want)
        assert parse_element(text) == want
        assert_folds_agree(text)

    @pytest.mark.parametrize("prefix", ["", "T*", "B + 2*(", "d[T] - "])
    def test_refused_at_the_first_d_past_the_cap(self, prefix):
        depth = MAX_DERIVATIVE_DEPTH + 1
        text = prefix + "d[" * depth + "B" + "]" * depth + ")" * prefix.count("(")
        with pytest.raises(ExprError) as err:
            parse_element(text)
        assert str(err.value) == f"derivative depth {depth} is past the cap of {MAX_DERIVATIVE_DEPTH}"
        assert err.value.pos == len(prefix) + 2 * MAX_DERIVATIVE_DEPTH
        assert_folds_agree(text)

    def test_depth_counts_nesting_not_occurrences(self):
        deepest = "d[" * MAX_DERIVATIVE_DEPTH + "T^6*T^2" + "]" * MAX_DERIVATIVE_DEPTH
        assert parse_element(" + ".join([deepest] * 3)) == parse_element(deepest).scale(3)
        assert_folds_agree(f"d[d[B(2T)]*d[T^2]]*{deepest}")


class TestNestingDepth:
    def test_deepest_parentheses_are_accepted(self):
        text = "(" * MAX_NESTING_DEPTH + "B(2T)*T" + ")" * MAX_NESTING_DEPTH
        assert parse_element(text) == parse_element("B(2T)*T")

    def test_deepest_mixed_nesting_is_accepted(self):
        parens = MAX_NESTING_DEPTH - MAX_DERIVATIVE_DEPTH
        text = "(" * parens + "d[" * MAX_DERIVATIVE_DEPTH + "B" + "]" * MAX_DERIVATIVE_DEPTH + ")" * parens
        want = b_element()
        for _ in range(MAX_DERIVATIVE_DEPTH):
            want = derivative_of_element(want)
        assert parse_element(text) == want

    @pytest.mark.parametrize("prefix, opener", [("", "("), ("T*", "("), ("B - ", "("), ("", "d[")])
    def test_refused_at_the_first_bracket_past_the_cap(self, prefix, opener):
        depth = MAX_NESTING_DEPTH + 1
        inner = "(" * (depth - 1) + opener + "B" + ("]" if opener == "d[" else ")") + ")" * (depth - 1)
        with pytest.raises(ExprError) as err:
            parse_element(prefix + inner)
        assert str(err.value) == f"nesting depth {depth} is past the cap of {MAX_NESTING_DEPTH}"
        assert err.value.pos == len(prefix) + MAX_NESTING_DEPTH
        assert f"at column {len(prefix) + MAX_NESTING_DEPTH + 1}" in err.value.diagnostic()

    def test_200_parentheses_are_refused(self):
        with pytest.raises(ExprError, match=f"past the cap of {MAX_NESTING_DEPTH}"):
            parse_element("(" * 200 + "B" + ")" * 200)

    @pytest.mark.parametrize("count", [1, 2, 999, 1000])
    def test_long_runs_of_unary_minus(self, count):
        want = b_element() if count % 2 == 0 else -b_element()
        assert parse_element("0+" + "-" * count + "B") == want
        assert parse_element("-" * count + "B^2") == parse_element("B^2").scale((-1) ** count)

    def test_run_of_unary_minus_with_no_operand(self):
        with pytest.raises(ExprError, match="unexpected end of input"):
            parse_element("0+" + "-" * 1000)


class TestExponentDigits:
    def test_long_exponent_refused_without_reading_it(self):
        with pytest.raises(ExprError) as err:
            parse_element("B^" + "7" * 5000)  # past int()'s 4,300-digit limit
        assert str(err.value) == f"5000-digit exponent is past the cap of {MAX_EXPONENT}"
        assert err.value.pos == 2

    @pytest.mark.parametrize("text, shown", [("9" * 40, "9" * 40), ("-" + "0" * 10 + "9" * 30, "-" + "9" * 30)])
    def test_exponent_of_40_characters_named_whole(self, text, shown):
        with pytest.raises(ExprError) as err:
            parse_element("B^" + text)
        assert str(err.value) == f"exponent {shown} is past the cap of {MAX_EXPONENT}"

    @pytest.mark.parametrize("zeros", [4, 5000])
    def test_zero_padded_exponent_read_without_its_zeros(self, zeros):
        assert parse_element("B^" + "0" * zeros + "2") == parse_element("B^2")


class TestNumberDigits:
    @pytest.mark.parametrize(
        "template, column",
        [("(B+{})^2", 3), ("B(-{}/7T)", 3), ("e^{{1/{}T}}*B", 3), ("T - 3/{}", 4)],
    )
    def test_refused_past_the_cap_at_the_literal(self, template, column):
        top = "9" * MAX_RATIONAL_DIGITS
        accepted = template.format(top)
        assert parse_element(accepted) == parse_by_left_fold(accepted)
        assert parse_element(template.format("000" + top)) == parse_element(accepted)
        text = template.format(top + "9")
        with pytest.raises(ExprError) as err:
            parse_element(text)
        cap = MAX_RATIONAL_DIGITS
        assert str(err.value) == f"{cap + 1}-digit number is past the cap of {cap} digits"
        assert err.value.pos == column
        assert_folds_agree(text)

    def test_long_literal_refused_without_reading_it(self):
        with pytest.raises(ExprError, match="^131000-digit number is past the cap"):
            parse_element("(e^{" + "7" * 131_000 + "T}+B)^6*B(2T)")  # past int()'s 4,300-digit limit

    @pytest.mark.parametrize("padded, plain", [("B+{}7", "B+7"), ("B+1/{}7", "B+1/7"), ("B+{}0", "B")])
    def test_zero_padded_literal_read_without_its_zeros(self, padded, plain):
        assert parse_element(padded.format("0" * 5000)) == parse_element(plain)  # past int()'s 4,300-digit limit

    def test_zero_padded_zero_denominator_refused(self):
        with pytest.raises(ExprError, match="^zero denominator in ") as err:
            parse_element("B+1/" + "0" * 5000)
        assert err.value.pos == 2


class TestPairCap:
    @pytest.mark.parametrize(
        "text, pairs",
        [
            ("B(2T)*B(3T)", 1),
            ("B(5T)^3*T*e^{T}", 0),  # a power of one atom and monomial factors multiply no pair
            ("(B + T)^3", 2 + 4 + 6),
            ("B(2T)*B(3T) + B(2T)*B(5T)", 2),
            ("d[B(2T)*B(3T)]*B", 1 + len(parse_element("d[B(2T)*B(3T)]").nums)),
            (product_of_sums(10), 120),
            ("(B(2T)+B(3T)+B(5T)+B(7T)+B(11T)+B(13T))^6", 7050),
        ],
    )
    def test_pairs_counted_over_the_whole_parse(self, text, pairs):
        parser = _Parser(text)
        parser.parse()
        assert parser.pairs == pairs

    @pytest.mark.parametrize(
        "text, last",
        [
            (product_of_sums(141), 141 * 141),
            (product_of_sums(800), 800 * 800),
            (" + ".join([product_of_sums(80)] * 4), 80 * 80),  # the last product of the fourth sum
            ("(B(2T)*(" + "+".join(f"e^{{{k}T}}" for k in range(1, 151)) + "))^2", 150 * 150),  # the square
        ],
    )
    def test_refused_at_the_product_past_the_cap(self, monkeypatch, text, last):
        """The product that takes the count past the cap, of ``last`` pairs, is refused before it is reduced."""
        seen, reduce = [], exprparse.product_reduce
        monkeypatch.setattr(exprparse, "product_reduce", lambda x, y: seen.append(len(x.nums) * len(y.nums)) or reduce(x, y))
        with pytest.raises(ExprError) as err:
            parse_element(text)
        pairs = sum(seen) + last
        assert sum(seen) <= MAX_PRODUCT_PAIRS < pairs
        assert str(err.value) == f"atom-pair count {pairs} of the products is past the cap of {MAX_PRODUCT_PAIRS}"


class TestRewriteWorkCap:
    @pytest.mark.parametrize(
        "text, work",
        [
            ("B(2T)*B(3T)", 5**2),
            ("B(5T)^3*T*e^{T}", 0),
            ("(B + T)^3", 0),  # one scale
            ("B(2T)*B(3T) + B(2T)*B(5T)", 5**2 + 7**2),
            (product_of_sums(10), 7 * 5**2),  # the shifts k/7 fall on seven rows of one T-power
            ("B(2/3T)^6*(T+T^2+T^3)*B(7/4T)^6", 3 * 174**2),  # a row a T-power
            ("B(2/3T)^6*(e^{T}+e^{2T}+e^{3T})*B(7/4T)^6", 174**2),  # one row: the shifts are 0 mod 1/12
            (product_per_shift(16), 16 * 174**2),  # a row a shift
            ("(B(2T)+B(3T)+B(5T)+B(7T)+B(11T)+B(13T))^6", 324_310),
        ],
    )
    def test_work_counted_over_the_whole_parse(self, text, work):
        parser = _Parser(text)
        parser.parse()
        assert parser.work == work <= MAX_REWRITE_WORK

    @pytest.mark.parametrize("shifts", [17, 40])
    def test_refused_before_the_product_is_reduced(self, monkeypatch, shifts):
        seen, reduce = [], exprparse.product_reduce
        monkeypatch.setattr(exprparse, "product_reduce", lambda x, y: seen.append(len(x.nums) * len(y.nums)) or reduce(x, y))
        with pytest.raises(ExprError) as err:
            parse_element(product_per_shift(shifts))
        assert seen == [shifts]  # the product by the sum of exponentials ran, the one by B(7/4T)^6 did not
        work = shifts * 174**2
        assert (16 + 1) * 174**2 > MAX_REWRITE_WORK >= 16 * 174**2
        assert str(err.value) == f"rewrite work {work} of the products is past the cap of {MAX_REWRITE_WORK}"

    def test_pair_cap_checked_first(self):
        """A product past both caps, 150 rows of measure 174 from 150^2 atom pairs, is refused by its pairs."""
        first = "+".join(f"e^{{1/{k}T}}" for k in range(13, 163))
        second = "+".join(f"e^{{{k}T}}" for k in range(1, 151))
        with pytest.raises(ExprError) as err:
            parse_element(f"(B(2/3T)^6*({first}))*(B(7/4T)^6*({second}))")
        assert str(err.value) == f"atom-pair count {150 + 150 + 150**2} of the products is past the cap of {MAX_PRODUCT_PAIRS}"
        assert 150 * 174**2 > MAX_REWRITE_WORK


class TestTPowerWeightCap:
    def test_weight_is_the_sum_of_the_t_powers(self):
        x = parse_element(t_power_chain(216))
        assert sum(abs(at.m) for at in x.nums) == 3_086_480 <= MAX_T_POWER_WEIGHT

    @pytest.mark.parametrize(
        "text",
        [
            t_power_chain(1296),
            nested_power("T", 5) + "*B(2/3T)^6*B(7/4T)^6",
            "(" + "T^6*" * 300 + "B(2/3T)^6)*B(7/4T)^6",  # the T-power reaches the product through an operand
            nested_power("T^-1", 5) + "*B(2/3T)^6*B(7/4T)^6",
        ],
        ids=["chain", "nested", "operand", "negative"],
    )
    def test_refused_once_parsed(self, text):
        weight = sum(abs(at.m) for at in _Parser(text).expr().nums)  # the element, before the final check
        assert weight > MAX_T_POWER_WEIGHT
        message = f"T-power weight {weight} of the element is past the cap of {MAX_T_POWER_WEIGHT}"
        assert parsed_or_refused(parse_element, text) == (message, len(text))
        assert_folds_agree(text)

    @pytest.mark.parametrize(
        "text",
        [nested_power("T", 6) + "*B^6", nested_power("T", 6) + "*B^6 + B(2/3T)^6*B(7/4T)^6", "d[d[d[d[d[d[B(2/3T)^6*B(7/4T)^6]]]]]]"],
        ids=["power", "sum", "derivative"],
    )
    def test_largest_accepted_inputs(self, text):
        x = parse_element(text)
        assert sum(abs(at.m) for at in x.nums) <= MAX_T_POWER_WEIGHT


#: the slowest product at the measure cap, and a coefficient of 2^1296 bits written as nested powers
MEASURE_CAP_PRODUCT, BIG_TWO = "B(2/3T)^6*B(7/4T)^6", nested_power("2", 4)


def coefficient_bits(x: BElement) -> int:
    return sum(abs(v).bit_length() for v in x.nums.values())


class TestCoefficientBitsCap:
    @pytest.mark.parametrize(
        "text, bits",
        [
            (nested_power("2", 6) + "*" + MEASURE_CAP_PRODUCT, 110_702_809),
            (nested_power("2", 5) + "*" + MEASURE_CAP_PRODUCT, 18_634_969),
            (f"{BIG_TWO}*" * 4 + MEASURE_CAP_PRODUCT, 12_497_113),
            (f"{BIG_TWO}*{BIG_TWO}*{MEASURE_CAP_PRODUCT} + {BIG_TWO}*{BIG_TWO}*{MEASURE_CAP_PRODUCT}*e^{{1/97T}}", 12_718_514),
        ],
        ids=["nested-6", "nested-5", "chain", "sum"],
    )
    def test_refused_once_parsed(self, text, bits):
        assert coefficient_bits(_Parser(text).expr()) == bits > MAX_COEFFICIENT_BITS  # before the final check
        message = f"coefficient size {bits} bits of the element is past the cap of {MAX_COEFFICIENT_BITS}"
        assert parsed_or_refused(parse_element, text) == (message, len(text))

    def test_left_fold_refuses_the_same(self):
        assert_folds_agree(f"{BIG_TWO}*" * 4 + MEASURE_CAP_PRODUCT)

    @pytest.mark.parametrize(
        "text, bits",
        [
            ("d[d[d[d[d[d[" + MEASURE_CAP_PRODUCT + "]]]]]]", 4_734_368),
            (f"{BIG_TWO}*" * 3 + MEASURE_CAP_PRODUCT, 9_428_185),
            (nested_power("2", 6), 46_657),
        ],
        ids=["derivative", "chain", "power"],
    )
    def test_largest_accepted_inputs(self, text, bits):
        assert coefficient_bits(parse_element(text)) == bits <= MAX_COEFFICIENT_BITS


class TestCoefficientOutOfTheRows:
    """A product's coefficient stays out of the rows it rewrites, wherever it stands, so the rows' numerators that reach
    ``_shift_product`` are no larger with a 46,657-bit coefficient than without it."""

    @staticmethod
    def largest_row_bits(monkeypatch, text: str) -> int:
        bits, shift_product = [0], reduction._shift_product

        def recording(row, terms):
            bits.append(max(abs(v).bit_length() for v in row.values()))
            return shift_product(row, terms)

        monkeypatch.setattr(reduction, "_shift_product", recording)
        parsed_or_refused(parse_element, text)
        return max(bits)

    @pytest.mark.parametrize("text", [f"{nested_power('2', 6)}*{MEASURE_CAP_PRODUCT}",
                                      f"{MEASURE_CAP_PRODUCT}*{nested_power('2', 6)}",
                                      f"({nested_power('2', 6)}*B(2/3T)^6)*B(7/4T)^6"], ids=["leads", "trails", "inside"])
    def test_rows_as_without_the_coefficient(self, monkeypatch, text):
        alone = self.largest_row_bits(monkeypatch, MEASURE_CAP_PRODUCT)
        assert 0 < alone < 1000 and self.largest_row_bits(monkeypatch, text) == alone
        message = f"coefficient size 110702809 bits of the element is past the cap of {MAX_COEFFICIENT_BITS}"
        assert parsed_or_refused(parse_element, text) == (message, len(text))


class TestNegativePowerOfZero:
    @pytest.mark.parametrize("text, pos", [("0^-1", 4), ("(B-B)^-1", 8), ("B*(T-T)^{-2}*B(2T)", 12), ("(0*B)^-6", 8)])
    def test_refused_after_the_exponent(self, text, pos):
        assert parsed_or_refused(parse_element, text) == ("zero has no negative power", pos)
        assert_folds_agree(text)

    def test_zero_to_a_nonnegative_power(self):
        assert parse_element("0^0") == from_scalar(1) and parse_element("(B-B)^3") == BElement.zero()
