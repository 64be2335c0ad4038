import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernring.elements import Atom, atom, b_element, t_element
from bernring.polys import LATEX, Poly
from bernring.series import TruncatedSeries, bernoulli_series
from bernring.selftest import check_weyl_representation, random_series, random_weyl_op
from bernring.weyl import WeylOp, derivative_of_atom, derivative_of_element
from conftest import fold_apply_series, left_divide_t_power, left_divide_t_power_by_polys, polys, weyl_rows_by_passes, window

D = WeylOp({1: Poly.one()})
ONE = WeylOp({0: Poly.one()})
T_OP = WeylOp({0: Poly.monomial(1)})


class TestAlgebra:
    def test_add(self):
        assert D + T_OP * D == WeylOp({1: Poly([1, 1])})
        p = WeylOp({2: Poly([0, 3])})
        assert p + WeylOp.zero() == p
        assert (D - D).is_zero()

    def test_commutation(self):
        assert D * T_OP == WeylOp({0: Poly.one(), 1: Poly.monomial(1)})
        assert D * T_OP - T_OP * D == ONE

    def test_composition(self):
        td = T_OP * D
        assert td * td == WeylOp({1: Poly.monomial(1), 2: Poly.monomial(2)})
        p = WeylOp({0: Poly([1, -2]), 3: Poly([0, 0, Fraction(1, 2)])})
        assert p * ONE == p
        assert ONE * p == p

    def test_render(self):
        op = WeylOp({0: Poly([1, -1]), 1: Poly.monomial(1, -1)})
        assert op.render() == "1 - T - T*d"

    def test_render_and_action_read_the_integer_rows(self, monkeypatch):
        op = WeylOp({0: [0, 0, 3, -7], 2: [0, 0, 0, -7], 3: [0, 2, 7]}, 14)
        x = bernoulli_series(12)
        expected = window(fold_apply_series(op, x))
        monkeypatch.setattr(Poly, "coeffs", property(lambda self: pytest.fail("read a Fraction per coefficient")))
        assert op.render() == "3/14*T^2 - 1/2*T^3 - 1/2*T^3*d^2 + (1/7*T + 1/2*T^2)*d^3"
        assert op.render(LATEX) == (
            r"\frac{3}{14}T^{2} - \frac{1}{2}T^{3} - \frac{1}{2}T^{3}\frac{d^{2}}{dT^{2}}"
            r" + \left(\frac{1}{7}T + \frac{1}{2}T^{2}\right)\frac{d^{3}}{dT^{3}}"
        )
        assert window(op.apply_series(x)) == expected


weyl_parts = st.dictionaries(st.integers(0, 4), polys, max_size=4)


class TestIntegerRows:
    """An operator is integer rows over one denominator, in one canonical form however it is built."""

    @given(weyl_parts, st.integers(1, 12), st.sampled_from((1, -1)), st.integers(0, 2))
    @settings(max_examples=80, deadline=None)
    def test_rows_and_polys_build_one_operator(self, parts, multiple, sign, pad):
        op = WeylOp(parts)
        den = sign * multiple * math.lcm(*(c.denominator for f in parts.values() for c in f.coeffs))
        rows = {k: [int(c * den) for c in f.coeffs] + [0] * pad for k, f in parts.items()}
        twin = WeylOp(rows, den)
        assert twin == op and hash(twin) == hash(op)
        assert twin.parts == op.parts == {k: f for k, f in parts.items() if f}
        for built in (op, twin):
            assert built.den > 0
            assert math.gcd(built.den, *(v for row in built.rows.values() for v in row)) == 1
            assert all(row and row[-1] for row in built.rows.values())

    @given(
        st.dictionaries(st.integers(0, 4), st.lists(st.integers(-40, 40).map(lambda v: 6 * v), max_size=6), max_size=4),
        st.integers(-60, 60).filter(bool),
    )
    @settings(max_examples=150, deadline=None)
    def test_integer_rows_against_passes(self, parts, den):
        op = WeylOp(parts, den)
        assert (op.rows, op.den) == weyl_rows_by_passes(parts, den)
        assert WeylOp({k: tuple(row) for k, row in parts.items()}, den) == op

    def test_zero_and_sign(self):
        assert WeylOp({0: [0, 0], 2: []}, -6) == WeylOp.zero()
        assert (WeylOp.zero().rows, WeylOp.zero().den) == ({}, 1)
        op = WeylOp({1: [2, 0, -4, 0]}, -6)
        assert (op.rows, op.den) == ({1: (-1, 0, 2)}, 3)
        assert op == WeylOp({1: Poly([Fraction(-1, 3), 0, Fraction(2, 3)])})

    @given(weyl_parts, st.integers(0, 3))
    @settings(max_examples=50, deadline=None)
    def test_left_divide_t_power_matches_polys(self, parts, j):
        op = WeylOp({0: Poly.monomial(j)}) * WeylOp(parts)
        for k in range(j + 3):
            assert left_divide_t_power(op, k) == left_divide_t_power_by_polys(op, k)


class TestSeriesAction:
    def test_d_on_t(self):
        out = D.apply_series(t_ser(8))
        assert out.coeff(0) == 1 and all(out.coeff(i) == 0 for i in range(1, out.bound + 1))

    def test_lowering_gives_square(self):
        op = WeylOp({0: Poly([1, -1]), 1: Poly.monomial(1, -1)})
        n = 14
        lhs = op.apply_series(bernoulli_series(n))
        rhs = bernoulli_series(n) * bernoulli_series(n)
        assert lhs.same_up_to(rhs, min(lhs.bound, rhs.bound))

    def test_identity_action(self):
        x = bernoulli_series(9)
        assert ONE.apply_series(x).same_up_to(x, 9)

    def test_representation_property(self):
        ok, detail = check_weyl_representation()
        assert ok, detail

    def test_bound_bookkeeping(self):
        x = bernoulli_series(10)
        assert D.apply_series(x).bound == 9
        assert WeylOp({2: Poly.one()}).apply_series(x).bound == 8


class TestOneWindowApplySeries:
    def test_random_operators_match_running_sum(self):
        rng = random.Random(23)
        for _ in range(150):
            op, x = random_weyl_op(rng), random_series(rng, rng.randint(3, 20))
            assert window(op.apply_series(x)) == window(fold_apply_series(op, x))

    def test_least_bound_and_known_zeros(self):
        x = TruncatedSeries(-2, [3, 0, 1, 2], 1)
        for op in [
            WeylOp({0: Poly([0, 0, 0, 1]), 3: Poly.one()}),  # T^3 keeps bound 4, d^3 drops it to -2
            WeylOp({1: Poly([0, 1]), 0: Poly([2])}),  # T d + 2 on T^-2 cancels it
            WeylOp({1: Poly([0, 0, 5])}),
            WeylOp.zero(),
        ]:
            for y in (x, TruncatedSeries.zero(6), TruncatedSeries.monomial(1, 1, 1)):
                assert window(op.apply_series(y)) == window(fold_apply_series(op, y))
        assert (WeylOp({1: Poly([0, 1]), 0: Poly([-1])}).apply_series(t_ser(9))).is_known_zero()


def t_ser(bound):
    from bernring.series import TruncatedSeries

    return TruncatedSeries.monomial(1, 1, bound)


class TestElementAction:
    def test_derivative_of_b(self):
        got = derivative_of_atom(Atom(b=Fraction(1), n=1, m=0, a=Fraction(0)))
        want = atom(-1, 1, 1, 0) - atom(0, 1, 1, 0) - atom(-1, 2, 1, 0)
        assert got == want

    def test_derivative_of_exponential(self):
        a = Fraction(5, 2)
        got = derivative_of_atom(Atom(b=Fraction(1), n=0, m=0, a=a))
        assert got == atom(0, 0, 1, a).scale(a)

    def test_product_rule_matches_series(self):
        el = atom(1, 1, 1, 0)
        got = derivative_of_element(el).expand(24)
        want = el.expand(25).derivative()
        assert got.same_up_to(want, 24)

    def test_apply_element_lowering(self):
        op = WeylOp({0: Poly([1, -1]), 1: Poly.monomial(1, -1)})
        assert op.apply_element(b_element()).equals(atom(0, 2, 1, 0))

    def test_apply_zero_and_t(self):
        assert not WeylOp.zero().apply_element(b_element()).nums
        assert T_OP.apply_element(b_element()) == atom(1, 1, 1, 0)

    def test_action_compatibility_random(self):
        rng = random.Random(5150)
        from bernring.selftest import random_element

        order = 16
        for _ in range(100):
            p = random_weyl_op(rng, max_order=3, max_degree=3)
            x = random_element(rng, max_atoms=2, max_n=2)
            lhs = p.apply_element(x).expand(order)
            rhs = p.apply_series(x.expand(order + p.order()))
            assert lhs.same_up_to(rhs, min(order, rhs.bound))

    def test_derivative_shapes_grid(self):
        order = 30
        for m in range(-2, 3):
            for n in range(0, 5):
                for b in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)):
                    for a in (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1)):
                        at = Atom(b=b if n else Fraction(1), n=n, m=m, a=a)
                        got = derivative_of_atom(at).expand(order)
                        want = at_element(at).expand(order + 1).derivative()
                        assert got.same_up_to(want, order)


def at_element(at: Atom):
    from bernring.elements import BElement

    return BElement({at: Fraction(1)})
