import errno
import functools
import hashlib
import inspect
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bernring import cli, identities, selftest
from bernring.elements import Atom, BElement, atom
from bernring.exprparse import (
    MAX_COEFFICIENT_BITS,
    MAX_DERIVATIVE_DEPTH,
    MAX_EXPONENT,
    MAX_NESTING_DEPTH,
    MAX_POWER_SIZE,
    MAX_PRODUCT_MEASURE,
    MAX_PRODUCT_PAIRS,
    MAX_PRODUCT_POWER,
    MAX_REWRITE_WORK,
    MAX_T_POWER_WEIGHT,
    parse_element,
)
from bernring.reduction import product_reduce
from bernring.series import (
    bernoulli_number_order,
    bernoulli_poly_value,
    bernoulli_polynomial,
    bernoulli_power_series,
)
from conftest import (
    nested_power,
    product_of_sums,
    product_per_shift,
    staudt_clausen_denominator,
    t_power_chain,
    tamper_bernoulli,
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_refused(capsys, *argv):
    """The stdout and stderr of an argv that the argument parser refuses, with its exit status 2."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    return captured.out, captured.err


def count_calls(monkeypatch, name: str) -> list[tuple]:
    """Replace identity ``name`` in the registry by a wrapper that records each call's arguments."""
    fn = identities.IDENTITY_REGISTRY[name]
    calls = []

    @functools.wraps(fn)  # the wrapper carries the function's ``params`` and ``options``
    def counted(*args, **options):
        calls.append(args)
        return fn(*args, **options)

    monkeypatch.setitem(identities.IDENTITY_REGISTRY, name, counted)
    return calls


def nested_d(depth: int, inner: str) -> str:
    return "d[" * depth + inner + "]" * depth


class TestBern:
    def test_single_number(self, capsys):
        code, out, _ = run(capsys, "bern", "num", "4")
        assert code == 0 and out == "-1/30\n"

    def test_zero(self, capsys):
        code, out, _ = run(capsys, "bern", "num", "0")
        assert code == 0 and out == "1\n"

    def test_range(self, capsys):
        code, out, _ = run(capsys, "bern", "num", "0..4")
        assert out.splitlines() == ["1", "-1/2", "1/6", "0", "-1/30"]

    def test_order(self, capsys):
        code, out, _ = run(capsys, "bern", "num-order", "2", "2")
        assert out == "5/6\n"

    def test_poly_at(self, capsys):
        code, out, _ = run(capsys, "bern", "poly", "2", "--at", "1/2")
        assert code == 0 and out == "-1/12\n"

    def test_poly_text(self, capsys):
        _, out, _ = run(capsys, "bern", "poly", "2")
        assert out == "1/6 - X + X^2\n"

    def test_json_format(self, capsys):
        _, out, _ = run(capsys, "--format", "json", "bern", "num", "0..2")
        assert json.loads(out) == ["1", "-1/2", "1/6"]

    def test_malformed_argument(self, capsys):
        code, _, err = run(capsys, "bern", "poly", "2", "--at", "nope")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bern", "poly", "--", "-3..0"],
            ["--format", "json", "bern", "poly", "-2"],
            ["bern", "poly", "-1", "--at", "1/2"],
            ["bern", "num", "--", "-3..0"],
        ],
    )
    def test_negative_index_refused(self, capsys, argv):
        assert run(capsys, *argv) == (2, "", "error: Bernoulli index must be nonnegative\n")


class TestSizeCaps:
    @pytest.mark.parametrize(
        "argv, cap",
        [
            (["bern", "num", str(cli.INDEX_CAPS["num"] + 1)], cli.INDEX_CAPS["num"]),
            (["bern", "num", f"0..{10 * cli.INDEX_CAPS['num']}"], cli.INDEX_CAPS["num"]),
            (["bern", "num-order", "3", str(cli.INDEX_CAPS["num-order"] + 1)], cli.INDEX_CAPS["num-order"]),
            (["bern", "num-order", str(cli.MAX_ORDER + 1), "2"], cli.MAX_ORDER),
            (["bern", "poly", str(cli.INDEX_CAPS["poly"] + 1)], cli.INDEX_CAPS["poly"]),
            (["bern", "poly", str(cli.INDEX_CAPS["poly"] + 1), "--at", "1/2"], cli.INDEX_CAPS["poly"]),
            (["stirling", str(cli.MAX_STIRLING_N + 1), "2"], cli.MAX_STIRLING_N),
            (["verify", "recurrence", "--n", "0..100000"], cli.MAX_VERIFY_INDEX),
            (["verify", "recurrence", f"--n={-10 * cli.MAX_VERIFY_INDEX}..0"], cli.MAX_VERIFY_INDEX),
            (["verify", "recurrence", "--n", str(cli.MAX_VERIFY_INDEX + 1)], cli.MAX_VERIFY_INDEX),
            (["verify", "lowering", "--n", "2", "--i", f"3,{cli.MAX_VERIFY_INDEX + 1}", "--a", "0"], cli.MAX_VERIFY_INDEX),
            (["verify", "multiplication", "--m", "1..59", "--n", "1..17", "--a", "0"], cli.MAX_VERIFY_CASES),
            (["reduce", "product", f"B(2T)^{MAX_EXPONENT + 1}*B(3T)"], MAX_EXPONENT),
            (["reduce", "product", f"T^{{-{MAX_EXPONENT + 1}}}", "--to-first-order"], MAX_EXPONENT),
            (["reduce", "product", "((B(2T)*B(3T))^6)^3"], MAX_PRODUCT_POWER),
            (["reduce", "product", "B(2T)^6*B(3T)^6*B(5T)", "--to-first-order"], MAX_PRODUCT_POWER),
            (["reduce", "product", "B(97T)^6*B(89T)^6", "--to-first-order"], MAX_PRODUCT_MEASURE),
            (["reduce", "product", "B(1/13T)^6*B(1/19T)^6"], MAX_PRODUCT_MEASURE),
            (["--order", "200", "verify", "f-derivative", "--n", "1..60"], cli.MAX_F_DERIVATIVE_WORK),
            (["--order", "200", "verify", "f-derivative", "--n", "14"], cli.MAX_F_DERIVATIVE_WORK),
            (["bern", "poly", "0..1000", "--at", "12345678901234567890/98765432109876543211"], cli.MAX_POLY_RANGE_WORK),
            (["bern", "poly", "0..200", "--at", "12345678901234567890/98765432109876543211"], cli.MAX_POLY_RANGE_WORK),
            (["pf", "g", str(cli.MAX_PF_SCALE + 1), str(cli.MAX_PF_SCALE)], cli.MAX_PF_SCALE),
            (["pf", "g", "3", str(cli.MAX_PF_SCALE + 1)], cli.MAX_PF_SCALE),
            (["pf", "g", "12800", "12799"], cli.MAX_PF_SCALE),
            (["pf", "hf", "1", "1", str(cli.MAX_PF_SCALE + 1)], cli.MAX_PF_SCALE),
            (["pf", "hf", str(cli.MAX_PF_POWER + 1), "1", "2"], cli.MAX_PF_POWER),
            (["pf", "hf", "400", "1", "800"], cli.MAX_PF_POWER),
            (["reduce", "product", "d[B^6*B^6]*2"], MAX_PRODUCT_POWER),
            (["reduce", "product", "d[d[B^6*B^6]]*T"], MAX_PRODUCT_POWER),
            (["reduce", "product", nested_d(MAX_DERIVATIVE_DEPTH + 1, "B(2T)^6*B(3T)"), "--to-first-order"],
             MAX_DERIVATIVE_DEPTH),
            (["reduce", "product", nested_d(100, "B(2T)^6*B(3T)")], MAX_DERIVATIVE_DEPTH),
            (["reduce", "product", "(" * 200 + "B" + ")" * 200], MAX_NESTING_DEPTH),
            (["reduce", "product", "(" * 200 + "B" + ")" * 200, "--to-first-order"], MAX_NESTING_DEPTH),
            (["reduce", "product", product_of_sums(800)], MAX_PRODUCT_PAIRS),
            (["reduce", "product", product_of_sums(141), "--to-first-order"], MAX_PRODUCT_PAIRS),
            (["reduce", "product", " + ".join([product_of_sums(80)] * 4)], MAX_PRODUCT_PAIRS),
            (["reduce", "product", product_per_shift(40), "--to-first-order"], MAX_REWRITE_WORK),
            (["reduce", "product", nested_power("2", 9)], MAX_POWER_SIZE),
            (["reduce", "product", nested_power("T", 12) + "*B", "--to-first-order"], MAX_POWER_SIZE),
            (["reduce", "product", t_power_chain(1296), "--to-first-order"], MAX_T_POWER_WEIGHT),
            (["reduce", "product", nested_power("2", 6) + "*B(2/3T)^6*B(7/4T)^6"], MAX_COEFFICIENT_BITS),
            (["reduce", "product", nested_power("2", 5) + "*B(2/3T)^6*B(7/4T)^6", "--to-first-order"],
             MAX_COEFFICIENT_BITS),
        ],
    )
    def test_refused_past_cap(self, capsys, argv, cap):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"past the cap of {cap}" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            (nested_power("2", 9), f"coefficient size 279942 bits of a power is past the cap of {MAX_POWER_SIZE}"),
            (nested_power("T", 12) + "*B", f"T-power 279936 of a power is past the cap of {MAX_POWER_SIZE}"),
        ],
    )
    def test_nested_power_refused_at_its_column(self, capsys, text, message):
        code, out, err = run(capsys, "reduce", "product", text, "--to-first-order")
        column = text.index(")") + len(")^6") * 7 + 1  # after the seventh level
        assert code == 2 and out == ""
        assert err.splitlines()[0] == f"error: {message} at column {column}"

    def test_largest_power_nesting(self, capsys):
        code, out, _ = run(capsys, "reduce", "product", nested_power("T", 6) + "*B^6", "--to-first-order")
        assert code == 0 and out.startswith("[") and "T^46656" in out
        code, out, _ = run(capsys, "reduce", "product", nested_power("2", 6))
        digits = out.rstrip("\n")  # 2^46656, past the 4,300 digits this process converts
        assert code == 0 and len(digits) == 14045 and int(digits[-9:]) == pow(2, 6**6, 10**9)

    def test_t_power_chain_under_the_weight_cap(self, capsys):
        code, out, _ = run(capsys, "reduce", "product", t_power_chain(216), "--to-first-order")
        assert code == 0 and out.startswith("[") and "T^1302" in out

    def test_product_at_the_measure_cap(self, capsys):
        scale = (MAX_PRODUCT_MEASURE - 6) // 6  # B(T)^6 B(pT)^6 starts at measure 6 + 6p
        code, out, _ = run(capsys, "reduce", "product", f"B(T)^6*B({scale}T)^6", "--to-first-order")
        assert code == 0 and out.startswith("[")

    def test_product_at_the_pair_cap(self, capsys):
        n = 140  # the largest n with n^2 + 2n at most the cap
        assert n * n + 2 * n <= MAX_PRODUCT_PAIRS < (n + 1) ** 2 + 2 * (n + 1)
        code, out, _ = run(capsys, "reduce", "product", product_of_sums(n))
        assert code == 0 and out.count("*e^{") > 2 * n

    def test_deepest_derivative(self, capsys):
        text = nested_d(MAX_DERIVATIVE_DEPTH, "B(2T)^6*B(3T)")
        code, out, _ = run(capsys, "--format", "json", "reduce", "product", text, "--to-first-order")
        assert code == 0 and json.loads(out)["first_order"]

    def test_largest_pf_g(self, capsys):
        top = cli.MAX_PF_SCALE  # n = m - 1 takes the most rotations in g_pair
        code, out, _ = run(capsys, "--format", "json", "pf", "g", str(top), str(top - 1))
        data = json.loads(out)
        assert code == 0 and (data["m"], data["n"], data["ell"]) == (top, top - 1, 1)
        assert (len(data["g_mn"]), len(data["g_nm"])) == (top - 1, top - 2)

    def test_largest_pf_hf(self, capsys):
        k, n = cli.MAX_PF_POWER, cli.MAX_PF_SCALE
        code, out, _ = run(capsys, "--format", "json", "pf", "hf", str(k), "1", str(n))
        data = json.loads(out)
        assert code == 0 and (data["k"], data["ell"], data["n"]) == (k, 1, n)
        assert (len(data["h"]), len(data["f"])) == (k, n - 1)

    def test_largest_stirling(self, capsys):
        top = cli.MAX_STIRLING_N
        code, out, _ = run(capsys, "stirling", str(top), "2")
        assert code == 0 and int(out) == 2 ** (top - 1) - 1

    def test_largest_verify_grid(self, capsys):
        top = cli.MAX_VERIFY_INDEX
        assert (top - 20) * 25 == cli.MAX_VERIFY_CASES
        code, out, _ = run(capsys, "verify", "multiplication", "--m", f"21..{top}", "--n", "1..25", "--a", "1/2")
        lines = out.splitlines()
        assert code == 0 and len(lines) == cli.MAX_VERIFY_CASES
        assert lines[-1].startswith(f"multiplication(m={top}, n=25, a=1/2)") and lines[-1].endswith("[ok]")

    def test_largest_exponent(self, capsys):
        k = MAX_EXPONENT
        code, out, _ = run(capsys, "--format", "json", "reduce", "product", f"B(2T)^{k}*B(3T)^{k}", "--to-first-order")
        assert code == 0
        element = BElement(
            {
                Atom(b=Fraction(at["b"]), n=at["n"], m=at["m"], a=Fraction(at["a"])): Fraction(at["coeff"])
                for at in json.loads(out)["element"]["atoms"]
            }
        )
        direct = bernoulli_power_series(k, 24).scale_arg(2) * bernoulli_power_series(k, 24).scale_arg(3)
        assert element.expand(12).same_up_to(direct.truncate(12), 12)

    def test_largest_number(self, capsys):
        top = cli.INDEX_CAPS["num"]
        code, out, _ = run(capsys, "bern", "num", str(top))
        value = Fraction(out.strip())
        assert code == 0 and value < 0
        assert value.denominator == staudt_clausen_denominator(top)

    def test_largest_order_and_index(self, capsys):
        order, top = cli.MAX_ORDER, cli.INDEX_CAPS["num-order"]
        code, out, _ = run(capsys, "bern", "num-order", str(order), f"{top - 1}..{top}")
        assert code == 0
        assert [Fraction(v) for v in out.split()] == [bernoulli_number_order(order, i) for i in (top - 1, top)]

    def test_largest_polynomial_value(self, capsys):
        top = cli.INDEX_CAPS["poly"]
        code, out, _ = run(capsys, "bern", "poly", str(top), "--at", "5/7")
        assert code == 0 and Fraction(out.strip()) == bernoulli_polynomial(top)(Fraction(5, 7))

    def test_order_refused_past_cap(self, capsys):
        top = cli.MAX_SERIES_ORDER
        code, out, err = run(capsys, "--order", str(top + 1), "verify", "f-derivative", "--n", "12")
        assert code == 2 and out == ""
        assert f"past the cap of {top}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bern", "num", "3"],
            ["stirling", "3", "2"],
            ["pf", "g", "2", "3"],
            ["reduce", "product", "B"],
            ["verify", "euler", "--m", "2"],
            ["selftest"],
            ["selftest", "--json"],
        ],
    )
    def test_order_refused_past_cap_by_every_command(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(selftest, "run_all", lambda: pytest.fail("the suite ran past a refused --order"))
        code, out, err = run(capsys, "--order", "999", *argv)
        assert code == 2 and out == ""
        assert err == f"error: --order 999 is past the cap of {cli.MAX_SERIES_ORDER}\n"

    def test_nesting_refused_at_its_column(self, capsys):
        depth = MAX_NESTING_DEPTH + 1
        code, out, err = run(capsys, "reduce", "product", "(" * depth + "B" + ")" * depth)
        assert code == 2 and out == ""
        assert err.splitlines()[0] == (
            f"error: nesting depth {depth} is past the cap of {MAX_NESTING_DEPTH} at column {depth}"
        )

    def test_deepest_parentheses(self, capsys):
        code, out, _ = run(capsys, "reduce", "product", "(" * MAX_NESTING_DEPTH + "B" + ")" * MAX_NESTING_DEPTH)
        assert code == 0 and out == "B\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["bern", "num", "4"],
            ["bern", "poly", "2", "--at", "1/2"],
            ["stirling", "4", "2"],
            ["pf", "hf", "2", "1", "5"],
            ["reduce", "product", "B", "--to-first-order"],
            ["verify", "euler", "--m", "2"],
            ["verify", "lowering", "--n", "2", "--i", "3", "--a", "0"],
            ["selftest"],
        ],
    )
    @pytest.mark.parametrize("order", ["50", "-5", str(cli.MAX_SERIES_ORDER)])
    def test_order_refused_by_every_other_command(self, capsys, monkeypatch, argv, order):
        monkeypatch.setattr(selftest, "run_all", lambda: pytest.fail("the suite ran past a refused --order"))
        code, out, err = run(capsys, "--order", order, *argv)
        assert code == 2 and out == ""
        assert err == "error: --order is read only by verify f-derivative\n"

    def test_negative_order_refused(self, capsys):
        code, out, err = run(capsys, "--order", "-5", "verify", "f-derivative", "--n", "12")
        assert code == 2 and out == ""
        assert "nonnegative" in err

    def test_largest_order(self, capsys):
        code, out, _ = run(capsys, "--order", str(cli.MAX_SERIES_ORDER), "verify", "f-derivative", "--n", "3")
        assert code == 0 and out.endswith("[ok]\n")

    def test_largest_f_derivative_at_the_default_order(self, capsys):
        top = cli.MAX_VERIFY_INDEX
        assert top * (identities.verify_f_derivative.options["order"] + top) ** 2 <= cli.MAX_F_DERIVATIVE_WORK
        code, out, _ = run(capsys, "verify", "f-derivative", "--n", str(top))
        assert code == 0 and out.endswith("[ok]\n")

    def test_largest_poly_range_at_a_20_digit_point(self, capsys):
        point = "12345678901234567890/98765432109876543211"
        count = cli.MAX_POLY_RANGE_WORK // 20
        code, out, _ = run(capsys, "bern", "poly", f"0..{count - 1}", "--at", point)
        lines = out.splitlines()
        assert code == 0 and len(lines) == count
        assert Fraction(lines[-1]) == bernoulli_poly_value(1, count - 1, Fraction(point))

    def test_rational_refused_past_digit_cap(self, capsys):
        digits = cli.MAX_RATIONAL_DIGITS
        for point in (f"{10**digits}/3", f"1/{10**digits}", f"-{10**digits}"):
            code, out, err = run(capsys, "bern", "poly", "3", "--at", point)
            assert code == 2 and out == ""
            assert f"past the cap of {digits} digits" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bern", "num", "{D}"],
            ["bern", "num", "1..{D}"],
            ["bern", "num-order", "{D}", "2"],
            ["bern", "poly", "3", "--at", "{D}/3"],
            ["bern", "poly", "3", "--at", "{D}x"],
            ["bern", "num", "1..{D}x"],
            ["bern", "num", "{D}x"],
            ["bern", "num", "{D}..1"],
            ["stirling", "{D}", "2"],
            ["pf", "g", "{D}", "3"],
            ["pf", "hf", "1", "1", "{D}"],
            ["pf", "hf", "{D}", "1", "2"],
            ["verify", "recurrence", "--n", "{D}"],
            ["verify", "multiplication", "--m", "2", "--n", "2", "--a", "1/{D}"],
            ["--order", "{D}", "verify", "f-derivative", "--n", "2"],
        ],
    )
    def test_refusal_quotes_a_long_input_in_brief(self, capsys, argv):
        digits = "7" * 131_000
        code, out, err = run(capsys, *(arg.replace("{D}", digits) for arg in argv))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200
        assert "7" * 36 in err and "7" * 41 not in err and " characters)" in err  # 40 of the input quoted

    @pytest.mark.parametrize(
        "argv",
        [
            ["stirling", "{X}", "2"],
            ["stirling", "5", "{X}"],
            ["pf", "g", "{X}", "3"],
            ["pf", "g", "3", "{X}"],
            ["pf", "hf", "{X}", "1", "2"],
            ["pf", "hf", "1", "{X}", "2"],
            ["pf", "hf", "1", "1", "{X}"],
            ["bern", "num-order", "{X}", "2"],
        ],
    )
    def test_malformed_integer_refused_in_brief(self, capsys, argv):
        code, out, err = run(capsys, *(arg.replace("{X}", "x" * 1000) for arg in argv))
        assert (code, out) == (2, "")
        assert err == f"error: malformed integer {'x' * 40!r}... (1000 characters)\n" and len(err) < 200

    def test_long_exponent_refused_in_brief(self, capsys):
        code, out, err = run(capsys, "reduce", "product", "B^" + "7" * 5000)
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == "error: 5000-digit exponent is past the cap of 6 at column 3"

    def test_refusal_quotes_40_characters_whole(self, capsys):
        cap = cli.INDEX_CAPS["num"]
        for text, shown in [("7" * 40, "7" * 40), ("7" * 41, "7" * 40 + "... (41 characters)")]:
            err = f"error: index {shown} is past the cap of {cap} for bern num\n"
            assert run(capsys, "bern", "num", text) == (2, "", err)
        for text, shown in [("x" * 40, repr("x" * 40)), ("x" * 41, repr("x" * 40) + "... (41 characters)")]:
            assert run(capsys, "bern", "poly", "2", "--at", text) == (2, "", f"error: malformed rational {shown}\n")

    def test_one_rational_digit_cap(self):
        source = Path(cli.__file__).read_text(encoding="utf-8")
        assert "\nMAX_RATIONAL_DIGITS" not in source  # cli imports the cap of exprparse and defines none

    def test_expression_literal_refused_past_digit_cap(self, capsys):
        for digits in (21, 100_000):
            code, out, err = run(capsys, "reduce", "product", "(B+" + "7" * digits + ")^6", "--to-first-order")
            assert code == 2 and out == ""
            assert err.splitlines()[0] == f"error: {digits}-digit number is past the cap of 20 digits at column 4"

    def test_largest_rational(self, capsys):
        point = Fraction(10**cli.MAX_RATIONAL_DIGITS - 1, 10**cli.MAX_RATIONAL_DIGITS - 3)
        code, out, _ = run(capsys, "bern", "poly", "3", "--at", str(point))
        assert code == 0 and Fraction(out.strip()) == bernoulli_polynomial(3)(point)

    def test_answer_past_int_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "bern", "poly", "1000", "--at", "123456789/1000000007")
        assert code == 0 and err == ""
        assert sys.get_int_max_str_digits() == limit  # main puts the limit back
        assert len(out) > limit
        sys.set_int_max_str_digits(0)
        try:
            assert Fraction(out.strip()) == bernoulli_polynomial(1000)(Fraction(123456789, 1000000007))
        finally:
            sys.set_int_max_str_digits(limit)


class TestStirlingAndPf:
    def test_stirling(self, capsys):
        code, out, _ = run(capsys, "stirling", "4", "2")
        assert code == 0 and out == "7\n"

    def test_pf_g(self, capsys):
        code, out, _ = run(capsys, "pf", "g", "2", "3")
        assert out.splitlines() == ["g_{2,3} = -1/2", "g_{3,2} = -1/3 + 1/3*X"]

    def test_pf_hf(self, capsys):
        code, out, _ = run(capsys, "pf", "hf", "2", "1", "5")
        assert out.splitlines() == [
            "h^{(2)}_{1,5} = 3/5 - 2/5*X",
            "f^{(2)}_{1,5} = 2/5 + 3/5*X + 3/5*X^2 + 2/5*X^3",
        ]

    def test_pf_g_equal_scales_usage_error(self, capsys):
        code, _, err = run(capsys, "pf", "g", "3", "3")
        assert code == 2 and "error" in err

    def test_pf_json(self, capsys):
        _, out, _ = run(capsys, "--format", "json", "pf", "g", "2", "5")
        data = json.loads(out)
        assert data["g_mn"] == ["-1/2"]
        assert data["g_nm"] == ["-2/5", "1/5", "-1/5", "2/5"]


class TestReduce:
    def test_relation_six_example(self, capsys):
        code, out, _ = run(capsys, "reduce", "product", "B(2T)*B(3T)")
        assert code == 0
        assert out == "B^2 - 3/2*T*B(2T) - 2/3*T*B(3T) + 2/3*T*B(3T)*e^{T}\n"

    def test_unit_product(self, capsys):
        code, out, _ = run(capsys, "reduce", "product", "B*1")
        assert code == 0 and out == "B\n"

    def test_first_order_triple(self, capsys):
        code, out, _ = run(
            capsys, "reduce", "product", "B(2T)*B(3T)*B(5T)", "--to-first-order"
        )
        assert code == 0
        assert out.count("(") >= 6  # one generator per line
        assert "B(5T)*e^{3T}" in out

    def test_output_reparses(self, capsys):
        _, out, _ = run(capsys, "reduce", "product", "B(2T)*B(5T)")
        reparsed = parse_element(out.strip())
        assert reparsed.equals(product_reduce(atom(0, 1, 2, 0), atom(0, 1, 5, 0)))

    def test_long_run_of_unary_minus(self, capsys):
        code, out, _ = run(capsys, "reduce", "product", "0+" + "-" * 1000 + "B", "--to-first-order")
        assert code == 0 and out == run(capsys, "reduce", "product", "B", "--to-first-order")[1]
        code, out, err = run(capsys, "reduce", "product", "0+" + "-" * 1000)
        assert code == 2 and out == "" and "unexpected end of input at column 1003" in err

    def test_parse_error_diagnostics(self, capsys):
        code, _, err = run(capsys, "reduce", "product", "B(2T")
        assert code == 2 and "^" in err

    @pytest.mark.parametrize("expr, column", [("B(1/0T)", 3), ("3/0*B", 1), ("e^{2/0T}", 4)])
    def test_zero_denominator_refused(self, capsys, expr, column):
        code, out, err = run(capsys, "reduce", "product", expr, "--to-first-order")
        assert code == 2 and out == ""
        assert f"zero denominator in {expr[column - 1:column + 2]!r} at column {column}" in err

    @pytest.mark.parametrize("expr", ["0^-1", "(B-B)^-1", "B*(T-T)^{-2}"])
    def test_negative_power_of_zero_refused(self, capsys, expr):
        code, out, err = run(capsys, "reduce", "product", expr)
        assert code == 2 and out == "" and "zero has no negative power" in err

    def test_latex_emission(self, capsys):
        _, out, _ = run(capsys, "--format", "latex", "reduce", "product", "B(2T)*B(3T)")
        assert out == "B^{2} - \\frac{3}{2}TB(2T) - \\frac{2}{3}TB(3T) + \\frac{2}{3}TB(3T)e^{T}\n"

    def test_emit_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["reduce", "product", "B(2T)*B(3T)", "--emit", "latex"])
        capsys.readouterr()
        assert exc.value.code == 2

    def test_unit_operator_coefficient(self, capsys):
        # a +-1 coefficient of d^k is dropped in both styles
        _, text, _ = run(capsys, "reduce", "product", "1-d[B]", "--to-first-order")
        _, latex, _ = run(capsys, "--format", "latex", "reduce", "product", "1-d[B]", "--to-first-order")
        assert text == "[1] (1)\n[-d] (B)\n"
        assert latex == "\\left(1\\right)\\!\\left(1\\right) + \\left(-\\frac{d}{dT}\\right)\\!\\left(B\\right)\n"

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, "reduce", "product", "B(2T)*B(3T)*B(5T)")
        _, second, _ = run(capsys, "reduce", "product", "B(2T)*B(3T)*B(5T)")
        assert first == second


TRIPLE = "B(2T)*B(3T)*B(5T)"
HALF = "B(1/2T)^2*e^{-3/2T}"
#: the value of both sides of ``verify f-derivative --n 2``, the fingerprint of its two series to T^30
F_N, F_D = "48742614561624300794710705563006530891", "322910873949567029052082854297600000000"

#: exact output of each command in each style (text, LaTeX, JSON); the text and LaTeX spellings of one value
GOLDENS = {
    ("bern", "num", "0..4"): (
        ["1", "-1/2", "1/6", "0", "-1/30"],
        ["1", r"-\frac{1}{2}", r"\frac{1}{6}", "0", r"-\frac{1}{30}"],
        ['["1", "-1/2", "1/6", "0", "-1/30"]'],
    ),
    ("bern", "poly", "0..3"): (
        ["1", "-1/2 + X", "1/6 - X + X^2", "1/2*X - 3/2*X^2 + X^3"],
        ["1", r"-\frac{1}{2} + X", r"\frac{1}{6} - X + X^{2}", r"\frac{1}{2}X - \frac{3}{2}X^{2} + X^{3}"],
        ['[["1"], ["-1/2", "1"], ["1/6", "-1", "1"], ["0", "1/2", "-3/2", "1"]]'],
    ),
    ("pf", "g", "4", "6"): (
        ["g_{4,6} = -1/2", "g_{6,4} = -1/3 + 1/3*X^2"],
        [r"g_{4,6} = -\frac{1}{2}", r"g_{6,4} = -\frac{1}{3} + \frac{1}{3}X^{2}"],
        ['{"m": 4, "n": 6, "ell": 2, "g_mn": ["-1/2"], "g_nm": ["-1/3", "0", "1/3"]}'],
    ),
    ("pf", "hf", "2", "1", "5"): (
        ["h^{(2)}_{1,5} = 3/5 - 2/5*X", "f^{(2)}_{1,5} = 2/5 + 3/5*X + 3/5*X^2 + 2/5*X^3"],
        [
            r"h^{(2)}_{1,5} = \frac{3}{5} - \frac{2}{5}X",
            r"f^{(2)}_{1,5} = \frac{2}{5} + \frac{3}{5}X + \frac{3}{5}X^{2} + \frac{2}{5}X^{3}",
        ],
        ['{"k": 2, "ell": 1, "n": 5, "h": ["3/5", "-2/5"], "f": ["2/5", "3/5", "3/5", "2/5"]}'],
    ),
    ("reduce", "product", TRIPLE, "--to-first-order"): (
        [
            "[3 - 20/3*T + 31/6*T^2 + (-3*T + 20/3*T^2)*d + 3/2*T^2*d^2] (B)",
            "[-2 + 5/3*T + (2*T - 5/3*T^2)*d - T^2*d^2] (B*e^{T})",
            "[15/4*T^2] (B(2T))",
            "[10/9*T^2] (B(3T))",
            "[-20/9*T^2] (B(3T)*e^{T})",
            "[10/9*T^2] (B(3T)*e^{2T})",
            "[14/5*T^2] (B(5T))",
            "[-4/5*T^2] (B(5T)*e^{T})",
            "[2/5*T^2] (B(5T)*e^{2T})",
            "[2/5*T^2] (B(5T)*e^{3T})",
            "[-4/5*T^2] (B(5T)*e^{4T})",
        ],
        [
            " + ".join(
                [
                    r"\left(3 - \frac{20}{3}T + \frac{31}{6}T^{2} + \left(-3T + \frac{20}{3}T^{2}\right)\frac{d}{dT}"
                    r" + \frac{3}{2}T^{2}\frac{d^{2}}{dT^{2}}\right)\!\left(B\right)",
                    r"\left(-2 + \frac{5}{3}T + \left(2T - \frac{5}{3}T^{2}\right)\frac{d}{dT}"
                    r" - T^{2}\frac{d^{2}}{dT^{2}}\right)\!\left(Be^{T}\right)",
                    r"\left(\frac{15}{4}T^{2}\right)\!\left(B(2T)\right)",
                    r"\left(\frac{10}{9}T^{2}\right)\!\left(B(3T)\right)",
                    r"\left(-\frac{20}{9}T^{2}\right)\!\left(B(3T)e^{T}\right)",
                    r"\left(\frac{10}{9}T^{2}\right)\!\left(B(3T)e^{2T}\right)",
                    r"\left(\frac{14}{5}T^{2}\right)\!\left(B(5T)\right)",
                    r"\left(-\frac{4}{5}T^{2}\right)\!\left(B(5T)e^{T}\right)",
                    r"\left(\frac{2}{5}T^{2}\right)\!\left(B(5T)e^{2T}\right)",
                    r"\left(\frac{2}{5}T^{2}\right)\!\left(B(5T)e^{3T}\right)",
                    r"\left(-\frac{4}{5}T^{2}\right)\!\left(B(5T)e^{4T}\right)",
                ]
            )
        ],
        [
            (
                '{"element": {"text": "-13/6*T*B^2 + 2/3*T*B^2*e^{T} + 3*B^3 - 2*B^3*e^{T} '
                '+ 15/4*T^2*B(2T) + 10/9*T^2*B(3T) - 20/9*T^2*B(3T)*e^{T} + 10/9*T^2*B(3T)*e^{2T} '
                '+ 14/5*T^2*B(5T) - 4/5*T^2*B(5T)*e^{T} + 2/5*T^2*B(5T)*e^{2T} + 2/5*T^2*B(5T)*e^{3T} '
                '- 4/5*T^2*B(5T)*e^{4T}", "atoms": [{"coeff": "-13/6", "m": 1, "n": 2, "b": "1", '
                '"a": "0"}, {"coeff": "2/3", "m": 1, "n": 2, "b": "1", "a": "1"}, {"coeff": "3", "m": 0, '
                '"n": 3, "b": "1", "a": "0"}, {"coeff": "-2", "m": 0, "n": 3, "b": "1", "a": "1"}, '
                '{"coeff": "15/4", "m": 2, "n": 1, "b": "2", "a": "0"}, {"coeff": "10/9", "m": 2, "n": 1, '
                '"b": "3", "a": "0"}, {"coeff": "-20/9", "m": 2, "n": 1, "b": "3", "a": "1"}, '
                '{"coeff": "10/9", "m": 2, "n": 1, "b": "3", "a": "2"}, {"coeff": "14/5", "m": 2, "n": 1, '
                '"b": "5", "a": "0"}, {"coeff": "-4/5", "m": 2, "n": 1, "b": "5", "a": "1"}, '
                '{"coeff": "2/5", "m": 2, "n": 1, "b": "5", "a": "2"}, {"coeff": "2/5", "m": 2, "n": 1, '
                '"b": "5", "a": "3"}, {"coeff": "-4/5", "m": 2, "n": 1, "b": "5", "a": "4"}]}, '
                '"first_order": [{"m": 0, "n": 1, "b": "1", "a": "0", "operator": [{"order": 0, '
                '"coeffs": ["3", "-20/3", "31/6"]}, {"order": 1, "coeffs": ["0", "-3", "20/3"]}, '
                '{"order": 2, "coeffs": ["0", "0", "3/2"]}]}, {"m": 0, "n": 1, "b": "1", "a": "1", '
                '"operator": [{"order": 0, "coeffs": ["-2", "5/3"]}, {"order": 1, "coeffs": ["0", "2", '
                '"-5/3"]}, {"order": 2, "coeffs": ["0", "0", "-1"]}]}, {"m": 0, "n": 1, "b": "2", '
                '"a": "0", "operator": [{"order": 0, "coeffs": ["0", "0", "15/4"]}]}, {"m": 0, "n": 1, '
                '"b": "3", "a": "0", "operator": [{"order": 0, "coeffs": ["0", "0", "10/9"]}]}, {"m": 0, '
                '"n": 1, "b": "3", "a": "1", "operator": [{"order": 0, "coeffs": ["0", "0", "-20/9"]}]}, '
                '{"m": 0, "n": 1, "b": "3", "a": "2", "operator": [{"order": 0, "coeffs": ["0", "0", '
                '"10/9"]}]}, {"m": 0, "n": 1, "b": "5", "a": "0", "operator": [{"order": 0, '
                '"coeffs": ["0", "0", "14/5"]}]}, {"m": 0, "n": 1, "b": "5", "a": "1", '
                '"operator": [{"order": 0, "coeffs": ["0", "0", "-4/5"]}]}, {"m": 0, "n": 1, "b": "5", '
                '"a": "2", "operator": [{"order": 0, "coeffs": ["0", "0", "2/5"]}]}, {"m": 0, "n": 1, '
                '"b": "5", "a": "3", "operator": [{"order": 0, "coeffs": ["0", "0", "2/5"]}]}, {"m": 0, '
                '"n": 1, "b": "5", "a": "4", "operator": [{"order": 0, "coeffs": ["0", "0", "-4/5"]}]}]}'
            )
        ],
    ),
    ("reduce", "product", HALF, "--to-first-order"): (
        ["[1 - 2*T - T*d] (B(1/2T)*e^{-3/2T})"],
        [r"\left(1 - 2T - T\frac{d}{dT}\right)\!\left(B(\frac{1}{2}T)e^{-\frac{3}{2}T}\right)"],
        [
            (
                '{"element": {"text": "B(1/2T)^2*e^{-3/2T}", "atoms": [{"coeff": "1", "m": 0, "n": 2, '
                '"b": "1/2", "a": "-3/2"}]}, "first_order": [{"m": 0, "n": 1, "b": "1/2", "a": "-3/2", '
                '"operator": [{"order": 0, "coeffs": ["1", "-2"]}, {"order": 1, "coeffs": ["0", '
                '"-1"]}]}]}'
            )
        ],
    ),
    ("verify", "euler", "--m", "2..3"): (
        ["euler(m=2): 1/6 = 1/6 [ok]", "euler(m=3): -1/6 = -1/6 [ok]"],
        [r"\mathrm{euler}(m=2):\ \frac{1}{6} = \frac{1}{6}", r"\mathrm{euler}(m=3):\ -\frac{1}{6} = -\frac{1}{6}"],
        [
            '{"name": "euler", "params": [{"name": "m", "value": "2"}], "lhs": "1/6", "rhs": "1/6", "verified": true, '
            r'"latex": "\\mathrm{euler}(m=2):\\ \\frac{1}{6} = \\frac{1}{6}"}',
            '{"name": "euler", "params": [{"name": "m", "value": "3"}], "lhs": "-1/6", "rhs": "-1/6", "verified": true, '
            r'"latex": "\\mathrm{euler}(m=3):\\ -\\frac{1}{6} = -\\frac{1}{6}"}',
        ],
    ),
    ("verify", "multiplication", "--m", "2", "--n", "2", "--a", "1/2"): (
        ["multiplication(m=2, n=2, a=1/2): 1/12 = 1/12 [ok]"],
        [r"\mathrm{multiplication}(m=2, n=2, a=1/2):\ \frac{1}{12} = \frac{1}{12}"],
        [
            '{"name": "multiplication", "params": [{"name": "m", "value": "2"}, {"name": "n", "value": "2"}, '
            '{"name": "a", "value": "1/2"}], "lhs": "1/12", "rhs": "1/12", "verified": true, '
            r'"latex": "\\mathrm{multiplication}(m=2, n=2, a=1/2):\\ \\frac{1}{12} = \\frac{1}{12}"}'
        ],
    ),
    ("verify", "miki", "--n", "5"): (
        ["miki(n=5): 0 = 0 [ok]"],
        [r"\mathrm{miki}(n=5):\ 0 = 0"],
        [
            '{"name": "miki", "params": [{"name": "n", "value": "5"}], "lhs": "0", "rhs": "0", "verified": true, '
            r'"latex": "\\mathrm{miki}(n=5):\\ 0 = 0", "degenerate": true}'
        ],
    ),
    ("verify", "kaneko", "--k", "2"): (
        ["kaneko(k=2): 0 = 0 [ok]"],
        [r"\mathrm{kaneko}(k=2):\ 0 = 0"],
        [
            '{"name": "kaneko", "params": [{"name": "k", "value": "2"}], "lhs": "0", "rhs": "0", "verified": true, '
            r'"latex": "\\mathrm{kaneko}(k=2):\\ 0 = 0"}'
        ],
    ),
    ("verify", "f-derivative", "--n", "2"): (
        [f"f-derivative(n=2): {F_N}/{F_D} = {F_N}/{F_D} [ok]"],
        [rf"\mathrm{{f-derivative}}(n=2):\ \frac{{{F_N}}}{{{F_D}}} = \frac{{{F_N}}}{{{F_D}}}"],
        [
            f'{{"name": "f-derivative", "params": [{{"name": "n", "value": "2"}}], "lhs": "{F_N}/{F_D}", '
            f'"rhs": "{F_N}/{F_D}", "verified": true, '
            rf'"latex": "\\mathrm{{f-derivative}}(n=2):\\ \\frac{{{F_N}}}{{{F_D}}} = \\frac{{{F_N}}}{{{F_D}}}"}}'
        ],
    ),
}


class TestGoldens:
    @pytest.mark.parametrize("argv", list(GOLDENS), ids=" ".join)
    @pytest.mark.parametrize("style", ["text", "latex", "json"])
    def test_exact_output(self, capsys, argv, style):
        code, out, err = run(capsys, "--format", style, *argv)
        lines = GOLDENS[argv][["text", "latex", "json"].index(style)]
        assert code == 0 and err == ""
        assert out == "".join(line + "\n" for line in lines)

    def test_lifted_partial_fraction_json(self, capsys):
        """``pf hf 200 1000 2000`` as JSON, a lifted h of degree 199,000, pinned by the sha256 in
        ``tests/pf_hf_json.sha256``; record a new one with
        ``python -m bernring --format json pf hf 200 1000 2000 | sha256sum``."""
        code, out, err = run(capsys, "--format", "json", "pf", "hf", "200", "1000", "2000")
        recorded = (Path(__file__).parent / "pf_hf_json.sha256").read_text().strip()
        assert code == 0 and err == "" and hashlib.sha256(out.encode()).hexdigest() == recorded

    def test_largest_norlund_read_json(self, capsys):
        """``bern num-order 20 0..300`` as JSON, row 20 built from every row below it, pinned by the sha256
        in ``tests/norlund_json.sha256``; record a new one with
        ``python -m bernring --format json bern num-order 20 0..300 | sha256sum``."""
        code, out, err = run(capsys, "--format", "json", "bern", "num-order", "20", "0..300")
        recorded = (Path(__file__).parent / "norlund_json.sha256").read_text().strip()
        assert code == 0 and err == "" and hashlib.sha256(out.encode()).hexdigest() == recorded


class TestVerify:
    def test_euler_range(self, capsys):
        code, out, _ = run(capsys, "verify", "euler", "--m", "2..30")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 29
        assert all("[ok]" in line for line in lines)

    def test_kaneko_range(self, capsys):
        code, out, _ = run(capsys, "verify", "kaneko", "--k", "1..15")
        assert code == 0 and len(out.splitlines()) == 15

    def test_json_lines(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "verify", "euler", "--m", "2..4")
        reports = [json.loads(line) for line in out.splitlines()]
        assert [r["params"][0]["value"] for r in reports] == ["2", "3", "4"]
        assert all(r["verified"] for r in reports)

    def test_grid_multiple_params(self, capsys):
        code, out, _ = run(
            capsys, "verify", "multiplication", "--m", "0..3", "--n", "1..2", "--a", "0,1/2"
        )
        assert code == 0 and len(out.splitlines()) == 4 * 2 * 2

    def test_jobs_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--jobs", "2", "verify", "euler", "--m", "2..12"])
        capsys.readouterr()
        assert exc.value.code == 2

    def test_out_of_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "euler", "--m", "1..1")
        assert code == 2 and "error" in err

    def test_unknown_identity(self, capsys):
        out, err = run_refused(capsys, "verify", "nonsense", "--m", "2")
        assert out == "" and "invalid choice: 'nonsense'" in err

    def test_missing_parameter(self, capsys):
        out, err = run_refused(capsys, "verify", "euler")
        assert out == "" and "the following arguments are required: --m" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "kaneko", "--k", "1..3", "--i", "99"],
            ["verify", "nonsense"],
            ["verify", "--m", "2", "euler"],
            ["verify"],
        ],
    )
    def test_refused_by_the_parser(self, capsys, argv):
        out, _ = run_refused(capsys, *argv)
        assert out == ""

    @pytest.mark.parametrize("name", list(identities.IDENTITY_REGISTRY))
    def test_subcommand_takes_exactly_the_registry_parameters(self, capsys, name):
        params = list(identities.IDENTITY_REGISTRY[name].params)
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", name, "--help"])
        usage = capsys.readouterr().out.splitlines()[0]
        assert exc.value.code == 0
        assert usage == f"usage: bernring verify {name} [-h] " + " ".join(f"--{p} {p.upper()}" for p in params)
        given = [f"--{p}=2" for p in params]
        for stray in {p for fn in identities.IDENTITY_REGISTRY.values() for p in fn.params} - set(params):
            _, err = run_refused(capsys, "verify", name, *given, f"--{stray}", "1")
            assert err.endswith(f"error: unrecognized arguments: --{stray} 1\n")
        for missing in params:
            _, err = run_refused(capsys, "verify", name, *(g for g in given if not g.startswith(f"--{missing}=")))
            assert err.endswith(f"error: the following arguments are required: --{missing}\n")

    def test_identity_without_a_docstring(self, capsys, monkeypatch):
        monkeypatch.setattr(identities.verify_euler, "__doc__", None)  # as under python -OO
        assert run(capsys, "verify", "euler", "--m", "2") == (0, "euler(m=2): 1/6 = 1/6 [ok]\n", "")

    def test_help_lists_every_identity(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0
        assert all(f"    {name}" in out for name in identities.IDENTITY_REGISTRY)

    def test_negative_rational_parameter(self, capsys):
        code, out, _ = run(capsys, "verify", "multiplication", "--m", "3", "--n", "2", "--a=-1/2")
        assert code == 0 and out.startswith("multiplication(m=3, n=2, a=-1/2): ") and out.endswith("[ok]\n")
        run_refused(capsys, "verify", "multiplication", "--m", "3", "--n", "2", "--a", "-1/2")

    def test_capital_n_parameter(self, capsys):
        code, out, _ = run(capsys, "verify", "miki-s-relation", "--N", "3..4")
        assert code == 0
        assert out == "miki-s-relation(N=3): 7/12 = 7/12 [ok]\nmiki-s-relation(N=4): 419/720 = 419/720 [ok]\n"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "reports.json"
        code = cli.main(["--format", "json", "--out", str(target), "verify", "euler", "--m", "2..3"])
        capsys.readouterr()
        assert code == 0
        lines = target.read_text().splitlines()
        assert len(lines) == 2 and json.loads(lines[0])["verified"]

    @pytest.mark.parametrize(
        "value, err",
        [
            ("5/2", "parameter --m must be an integer, got 5/2"),
            ("61", "index 61 is past the cap of 60 for verify --m"),
            ("1", "parameter --m must be at least 2, got 1"),
        ],
    )
    def test_bad_value_is_refused_before_any_case_runs(self, capsys, monkeypatch, value, err):
        calls = count_calls(monkeypatch, "euler")
        assert run(capsys, "verify", "euler", "--m", "2..30")[0] == 0 and len(calls) == 29
        calls.clear()
        assert run(capsys, "verify", "euler", "--m", f"2..30,{value}") == (2, "", f"error: {err}\n")
        assert calls == []

    @pytest.mark.parametrize("name", list(identities.IDENTITY_REGISTRY))
    def test_every_parameter_has_a_kind(self, capsys, monkeypatch, name):
        """The positional parameters of the identity's definition are its ``params``, a parameter is
        rational exactly when that definition leaves it unannotated, and an integer parameter refuses 1/2
        with no identity call, whatever its position in the grid."""
        fn = identities.IDENTITY_REGISTRY[name]
        declared = inspect.signature(fn).parameters.values()  # the definition's, through ``__wrapped__``
        annotations = {p.name: p.annotation for p in declared if p.kind is p.POSITIONAL_OR_KEYWORD}
        assert list(fn.params) == list(annotations)
        calls = count_calls(monkeypatch, name)
        for pname, least in fn.params.items():
            assert (least is None) == (annotations[pname] is inspect.Parameter.empty)
            if least is None:
                assert cli._parse_param_values(pname, None, "1/2,0..1") == [Fraction(1, 2), Fraction(0), Fraction(1)]
            else:
                given = [f"--{p}={'1/2' if p == pname else 2}" for p in fn.params]
                err = f"error: parameter --{pname} must be an integer, got 1/2\n"
                assert run(capsys, "verify", name, *given) == (2, "", err)
        assert calls == []

    @pytest.mark.parametrize("name", list(identities.IDENTITY_REGISTRY))
    def test_value_below_the_least_is_refused_before_any_case_runs(self, capsys, monkeypatch, name):
        """Each integer parameter one below its least value exits 2 with no identity call; at the least
        values (1/2 for a rational) the identity runs once and holds."""
        params = identities.IDENTITY_REGISTRY[name].params
        smallest = {p: "1/2" if least is None else least for p, least in params.items()}
        calls = count_calls(monkeypatch, name)
        assert run(capsys, "verify", name, *(f"--{p}={v}" for p, v in smallest.items()))[0] == 0
        assert len(calls) == 1
        calls.clear()
        for pname, least in params.items():
            if least is not None:
                given = [f"--{p}={least - 1 if p == pname else v}" for p, v in smallest.items()]
                err = f"error: parameter --{pname} must be at least {least}, got {least - 1}\n"
                assert run(capsys, "verify", name, *given) == (2, "", err)
        assert calls == []

    @pytest.mark.parametrize(
        "argv", [["verify", "agoh-dilcher", "--n=-3"], ["verify", "multiplication", "--m=-1", "--n", "2", "--a", "0"]]
    )
    def test_negative_integer_parameter_refused(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: parameter --") and err.count("\n") == 1

    def test_order_is_read_by_the_keyword_only_option(self):
        readers = {name for name, fn in identities.IDENTITY_REGISTRY.items() if fn.options}
        assert readers == {"f-derivative"}
        assert identities.IDENTITY_REGISTRY["f-derivative"].options == {"order": 30}


class TestOutFile:
    @pytest.mark.parametrize("path, code", [("", errno.EISDIR), ("missing/x.txt", errno.ENOENT)])
    def test_unwritable_path_is_refused(self, capsys, tmp_path, path, code):
        target = tmp_path / path  # the directory itself, or a path under a missing directory
        err = f"error: cannot write --out {cli._brief(str(target), repr)}: {os.strerror(code)}\n"
        assert run(capsys, "--out", str(target), "bern", "num", "4") == (2, "", err)

    @pytest.mark.parametrize("path, code", [("", errno.EISDIR), ("missing/x.txt", errno.ENOENT)])
    def test_unwritable_path_is_refused_before_the_command_runs(self, capsys, monkeypatch, tmp_path, path, code):
        monkeypatch.setattr(cli, "_cmd_bern", lambda args, out: pytest.fail("the command ran past a refused --out"))
        target = tmp_path / path
        err = f"error: cannot write --out {cli._brief(str(target), repr)}: {os.strerror(code)}\n"
        assert run(capsys, "--out", str(target), "bern", "num", "2000") == (2, "", err)
        assert list(tmp_path.iterdir()) == []

    def test_failure_at_the_write_is_refused(self, capsys, tmp_path):
        # a parent that is a file passes the check before the work; the open fails and is refused
        (tmp_path / "f").write_text("")
        target = tmp_path / "f" / "x.txt"
        err = f"error: cannot write --out {cli._brief(str(target), repr)}: {os.strerror(errno.ENOTDIR)}\n"
        assert run(capsys, "--out", str(target), "bern", "num", "4") == (2, "", err)

    def test_refused_command_leaves_the_file_untouched(self, capsys, tmp_path):
        target = tmp_path / "kept.txt"
        target.write_text("kept\n")
        code, out, err = run(capsys, "--out", str(target), "verify", "euler", "--m", "2..30,5/2")
        assert (code, out) == (2, "") and err.startswith("error: ") and target.read_text() == "kept\n"


class TestSelftestCommand:
    def test_json_summary_passes(self, capsys, monkeypatch, selftest_results):
        # the CLI renders the session's one run of the suite
        monkeypatch.setattr(selftest, "run_all", lambda: selftest_results)
        code, out, _ = run(capsys, "selftest", "--json")
        data = json.loads(out)
        assert code == 0 and data["passed"] is True
        assert len(data["criteria"]) == 16
        assert data["total_seconds"] < data["total_limit"]

    @pytest.mark.parametrize("argv", [["selftest"], ["selftest", "--json"], ["--format", "json", "selftest"]])
    def test_out_file_holds_what_stdout_would(self, capsys, monkeypatch, selftest_results, tmp_path, argv):
        monkeypatch.setattr(selftest, "run_all", lambda: selftest_results)
        code, out, _ = run(capsys, *argv)
        target = tmp_path / "selftest.out"
        assert run(capsys, "--out", str(target), *argv) == (code, "", "")
        assert code == 0 and target.read_text(encoding="utf-8") == out

    def test_tampered_table_fails(self, capsys, monkeypatch):
        tamper_bernoulli(monkeypatch, 4, Fraction(999))
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert "[FAIL]" in out
        # the criteria that read B_4 through the coefficient reader and the integer sums
        failed = {line.split()[2] for line in out.splitlines()[:-1] if line.startswith("[FAIL]")}
        assert {
            "bernoulli-baseline",
            "euler",
            "recurrence",
            "multiplication",
            "order-lowering",
            "multinomial-identities",
            "agoh-dilcher",
            "rademacher",
            "miki",
        } <= failed
