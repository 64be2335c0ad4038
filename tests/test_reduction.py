import cProfile
import fractions
import itertools
import math
import pstats
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from bernring import elements, reduction
from bernring.elements import Atom, BElement, atom, b_element, from_scalar
from bernring.exprparse import parse_element
from bernring.identities import verify_agoh_dilcher_example, verify_lowering
from bernring.partfrac import GPair, g_pair, lemma_decompose
from bernring.polys import Poly
from bernring.reduction import (
    DCombination,
    ReductionError,
    agoh_dilcher_reduce,
    derivative_power_element,
    f_n_closed,
    f_n_inductive,
    invert_term,
    lowering_op,
    negative_power_expand,
    product_reduce,
    reduce_to_first_order,
    stirling,
)
from bernring.series import bernoulli_series, factorial
from bernring.selftest import (
    check_reduction_soundness,
    random_element,
    _golden_23,
    _golden_sq5,
    _golden_triple_combination,
)
from bernring.weyl import WeylOp, derivative_of_element
from conftest import (
    derivative_by_fractions,
    f_n_by_recursion,
    first_order_rows_by_powers,
    fold_apply_element,
    fold_derivative_of_element,
    fold_product_reduce,
    fold_semantic_element,
    invert_term_by_binomials,
    lowered_by_powers,
    lowering_chain,
    lowering_chain_by_products,
    polys,
    product_reduce_by_fraction_pairs,
    product_reduce_by_states,
    product_reduce_by_steps,
    reduce_to_first_order_by_chains,
    rewrite_step,
    semantic_element_by_actions,
    semantic_element_by_fractions,
    semantic_element_by_shifting,
    semantic_element_by_slices,
    small_rationals,
)

F = Fraction


def single_atom(m, n, b, a=0) -> Atom:
    ((key, _),) = atom(m, n, b, a).terms.items()
    return key


def applied_lowering(at: Atom) -> BElement:
    """T^m times the lowering operator of order n-1 applied to B^(n-1)(bT)e^{aT}."""
    base = atom(0, at.n - 1, at.b, at.a)
    return lowering_op(at.n - 1, at.b, at.a).apply_element(base).mul_monomial(at.m)


class TestLowerOrder:
    def test_square_to_first_order(self):
        got = applied_lowering(single_atom(0, 2, 1))
        want = b_element() - atom(1, 1, 1, 0) - derivative_of_element(b_element()).mul_monomial(1)
        assert got == want
        assert got.equals(atom(0, 2, 1, 0))

    def test_scaled_square(self):
        at = single_atom(0, 2, 2)
        assert applied_lowering(at).equals(atom(0, 2, 2, 0))

    def test_applied_lowering_is_a_fixed_point(self):
        # evaluating the derivative re-creates the higher power; the rewrite
        # only genuinely lowers in operator form (reduce_to_first_order)
        at = single_atom(1, 3, 2, Fraction(1, 2))
        assert applied_lowering(at) == BElement({at: Fraction(1)})
        combo = reduce_to_first_order(BElement({at: Fraction(1)}))
        assert all(gen.n <= 1 for gen in combo.entries)
        assert combo.semantic_element().equals(BElement({at: Fraction(1)}))

    def test_cube_via_operator_chain(self):
        combo = reduce_to_first_order(atom(0, 3, 1, 0))
        assert set(combo.entries) == {Atom(b=F(1), n=1, m=0, a=F(0))}
        assert combo.op_for(1, 1, 0).order() == 2
        assert combo.semantic_element().equals(atom(0, 3, 1, 0))

    def test_requires_n_at_least_two(self):
        with pytest.raises(ValueError):
            lowering_op(0, F(1), F(0))


class TestReduceToFirstOrder:
    def test_square(self):
        combo = reduce_to_first_order(atom(0, 2, 1, 0))
        assert combo.op_for(1, 1, 0) == WeylOp({0: Poly([1, -1]), 1: Poly.monomial(1, -1)})

    def test_derivative_square_golden(self):
        b_prime = derivative_of_element(b_element())
        squared = product_reduce(b_prime, b_prime)
        combo = reduce_to_first_order(squared)
        golden = WeylOp(
            {
                3: Poly.monomial(1, F(-1, 6)),
                2: Poly.const(F(-1, 2)),
                1: Poly([-1, F(1, 6)]),
                0: Poly.const(F(-1, 6)),
            }
        )
        assert combo.op_for(1, 1, 0) == golden
        assert len(combo.entries) == 1

    def test_triple_product_golden(self):
        triple = product_reduce(
            product_reduce(atom(0, 1, 2, 0), atom(0, 1, 3, 0)), atom(0, 1, 5, 0)
        )
        combo = reduce_to_first_order(triple)
        assert combo.equals(_golden_triple_combination())

    def test_negative_pole_stays_on_generator(self):
        el = atom(-1, 1, 1, 0)
        combo = reduce_to_first_order(el)
        gen = Atom(b=F(1), n=1, m=-1, a=F(0))
        assert combo.entries == {gen: WeylOp({0: Poly.one()})}
        assert combo.semantic_element().equals(el)


class TestProductReduce:
    def test_printed_23(self):
        got = product_reduce(atom(0, 1, 2, 0), atom(0, 1, 3, 0))
        assert got == _golden_23()

    def test_printed_square_times_5(self):
        got = product_reduce(atom(0, 2, 1, 0), atom(0, 1, 5, 0))
        assert got == _golden_sq5()

    def test_equal_scale_merge(self):
        assert product_reduce(b_element(), b_element()) == atom(0, 2, 1, 0)

    def test_unit(self):
        x = atom(1, 2, 3, F(1, 2)).scale(F(7, 3))
        assert product_reduce(x, from_scalar(1)) == x

    def test_rational_scales(self):
        x = atom(0, 1, F(1, 2), 0)
        y = atom(0, 1, F(3, 2), 0)
        prod = product_reduce(x, y)
        direct = x.expand(20) * y.expand(20)
        assert prod.expand(direct.bound).same_up_to(direct, direct.bound)
        scales = {at.b for at in prod.terms if at.n >= 1}
        assert scales <= {F(1, 2), F(3, 2), F(2, 2), F(1)}

    def test_soundness_suite(self):
        ok, detail = check_reduction_soundness()
        assert ok, detail


class TestNegativePowers:
    def test_inverse_of_b(self):
        got = negative_power_expand(1)
        assert got == atom(-1, 0, 1, 1) - atom(-1, 0, 1, 0)

    def test_inverse_times_b(self):
        assert product_reduce(negative_power_expand(1), b_element()).equals(from_scalar(1))

    @given(
        st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4),
        st.integers(0, 3),
        st.integers(-2, 2),
        small_rationals,
        small_rationals.filter(bool),
    )
    @settings(max_examples=60, deadline=None)
    def test_term_times_its_inverse_is_one(self, b, n, m, a, c):
        at = Atom(b=b if n else F(1), n=n, m=m, a=a)
        assert product_reduce(BElement({at: c}), invert_term(at, c)).equals(from_scalar(1))

    def test_stirling_generating_function(self):
        for k in (1, 2, 3):
            gf = negative_power_expand(k).mul_monomial(k).scale(1 / factorial(k))
            ser = gf.expand(12)
            for n in range(13):
                assert ser.coeff(n) == Fraction(stirling(n, k)) / factorial(n)


class TestInvertTermAgainstBinomials:
    """``invert_term`` through the (e^{bT} - 1)^n expansion it shares with the zero test, against
    its own binomial loop."""

    @given(
        st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9),
        st.integers(0, 12),
        st.integers(-3, 3),
        small_rationals,
        small_rationals.filter(bool),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_terms(self, b, n, m, a, c):
        at = Atom(b=b if n else F(1), n=n, m=m, a=a)
        assert invert_term(at, c) == invert_term_by_binomials(at, c)

    @pytest.mark.parametrize("n", range(13))
    def test_fixed_grid(self, n):
        huge = F(12345678901234567890, 98765432109876543211)
        for b in (F(1), F(2), F(7, 3), huge) if n else (F(1),):
            for a in (F(0), F(1, 3), F(-5, 2), -huge):
                for c in (F(1), F(-3, 4), huge):
                    at = Atom(b=b, n=n, m=2, a=a)
                    assert invert_term(at, c) == invert_term_by_binomials(at, c), (b, a, c)


class TestStirling:
    def test_diagonal_and_off_diagonal(self):
        for n in range(1, 12):
            assert stirling(n, n) == 1
            assert stirling(n, 1) == 1
            assert stirling(n, n + 1) == 0
        assert stirling(0, 0) == 1

    def test_against_partition_enumeration(self):
        def partitions(items):
            if not items:
                yield []
                return
            head, *tail = items
            for part in partitions(tail):
                for i in range(len(part)):
                    yield part[:i] + [part[i] + [head]] + part[i + 1 :]
                yield part + [[head]]

        for n in range(1, 7):
            counts = {}
            for part in partitions(list(range(n))):
                counts[len(part)] = counts.get(len(part), 0) + 1
            for k in range(1, n + 1):
                assert stirling(n, k) == counts.get(k, 0)
        assert stirling(4, 2) == 7

    def test_recurrence(self):
        for n in range(1, 15):
            for j in range(1, n + 2):
                assert stirling(n + 1, j) == stirling(n, j - 1) + j * stirling(n, j)


class TestDerivativePolynomials:
    def test_f0_f1(self):
        assert f_n_closed(0) == b_element()
        assert f_n_closed(1) == b_element() - atom(1, 1, 1) - atom(0, 2, 1)

    def test_closed_matches_inductive(self):
        for n in range(21):
            want = BElement({Atom(F(1), j, i, F(0)): c for (i, j), c in f_n_by_recursion(n).items()})
            assert f_n_closed(n) == f_n_inductive(n) == want

    def test_integrality(self):
        for n in range(13):
            assert all(c.denominator == 1 for c in f_n_closed(n).terms.values())

    def test_substitution_gives_derivatives(self):
        order = 30
        for n in range(11):
            ser = derivative_power_element(n).expand(order)
            direct = bernoulli_series(order + n)
            for _ in range(n):
                direct = direct.derivative()
            assert ser.same_up_to(direct, order)


class TestAgohDilcherReduce:
    def test_first_derivative_square(self):
        combo = agoh_dilcher_reduce(1, 1)
        golden = WeylOp(
            {
                3: Poly.monomial(1, F(-1, 6)),
                2: Poly.const(F(-1, 2)),
                1: Poly([-1, F(1, 6)]),
                0: Poly.const(F(-1, 6)),
            }
        )
        assert combo.entries == {Atom(b=F(1), n=1, m=0, a=F(0)): golden}

    def test_zeroth_case_is_square_operator(self):
        combo = agoh_dilcher_reduce(0, 0)
        assert combo.op_for(1, 1, 0) == WeylOp({0: Poly([1, -1]), 1: Poly.monomial(1, -1)})

    def test_mixed_orders_match_series(self):
        order = 30
        combo = agoh_dilcher_reduce(1, 2)
        lhs = combo.semantic_element().expand(order)
        b1 = bernoulli_series(order + 4).derivative()
        b2 = bernoulli_series(order + 4).derivative().derivative()
        rhs = b1 * b2
        assert lhs.same_up_to(rhs, min(order, rhs.bound))


class TestTermination:
    def test_stress_products_terminate(self):
        rng = random.Random(11)
        scales = [F(1), F(2), F(3), F(4), F(6), F(5, 2), F(7, 3)]
        for _ in range(60):
            x = atom(0, rng.randint(1, 3), rng.choice(scales), 0)
            y = atom(0, rng.randint(1, 3), rng.choice(scales), 0)
            product_reduce(x, y)

    def test_chained_triple_products(self):
        acc = b_element()
        for k in (2, 3, 4):
            acc = product_reduce(acc, atom(0, 1, k, 0))
        direct = bernoulli_series(16)
        for k in (2, 3, 4):
            direct = direct * bernoulli_series(16).scale_arg(k)
        assert acc.expand(12).same_up_to(direct.truncate(12), 12)


# -- the merged-state and one-dict routes against the slow routes --------------

# powers stop at 2: the unmerged tree walk takes 20 s on B^3(5/3 T) * B^3(3/2 T)
ORACLE_SCALES = (F(1), F(2), F(3), F(5), F(3, 2), F(5, 3), F(5, 2))
oracle_atoms = st.builds(
    single_atom,
    st.integers(-3, 3),
    st.integers(0, 2),
    st.sampled_from(ORACLE_SCALES),
    st.sampled_from((F(0), F(1), F(-1, 2), F(3, 2), F(1, 3))),
)
oracle_elements = st.dictionaries(oracle_atoms, small_rationals.filter(bool), min_size=1, max_size=3).map(BElement)
oracle_ops = st.dictionaries(st.integers(0, 3), polys, max_size=3).map(WeylOp)


generators = st.builds(
    lambda n, b, m, a: Atom(b=b if n else F(1), n=n, m=m, a=a),
    st.integers(0, 1),
    small_rationals.filter(lambda b: b > 0),
    st.integers(-3, 2),
    small_rationals,
)
combinations = st.dictionaries(generators, oracle_ops, max_size=3).map(DCombination)


@given(combinations)
@settings(max_examples=40, deadline=None)
def test_semantic_element_sums_the_actions(combo):
    """The closed form, read off the integer rows, against op(generator) summed over the generators."""
    want = BElement.zero()
    for gen, op in combo.entries.items():
        want = want + op.apply_element(BElement({Atom(b=gen.b, n=gen.n, m=0, a=gen.a): F(1)})).mul_monomial(gen.m)
    assert combo.semantic_element().terms == want.terms
    assert combo.semantic_element() == BElement(semantic_element_by_fractions(combo))
    assert_frames_agree(combo)


def assert_frames_agree(combo: DCombination) -> None:
    """The element read off the stored shifted frame, against (d + a)^k expanded over ``entries``, against the
    slice loop over the same rows and against each operator applied to its generator; the view at (b, a) rebuilds
    the combination."""
    got = combo.semantic_element()
    assert got == semantic_element_by_shifting(combo) == semantic_element_by_slices(combo)
    assert got.terms == semantic_element_by_actions(combo).terms
    assert DCombination(combo.entries) == combo


#: the fixed grid of the shifted frame: these products, each alone and times a T-power, a coefficient or a shift
FRAME_BASES = [*(f"B(2T)^{k}*B(3T)^{k}" for k in range(1, 5)), "B(2T)*B(3T)*B(5T)*B(7T)*B(11T)"]
FRAME_FACTORS = ["1", "T^3", "T^-2", "-7/3", "e^{1/2T}", "e^{-1/2T}", "e^{3/2T}", "e^{-3/2T}", "5/2*T^2*e^{-3/2T}"]


class TestShiftedFrame:
    @pytest.mark.parametrize("factor", FRAME_FACTORS)
    @pytest.mark.parametrize("base", FRAME_BASES)
    def test_fixed_grid(self, base, factor):
        x = parse_element(f"{base}*{factor}")
        combo = reduce_to_first_order(x)
        assert_frames_agree(combo)
        assert combo.semantic_element().equals(x)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_random_elements(self, rng):
        x = random_element(rng, max_atoms=4, max_n=4)
        combo = reduce_to_first_order(x)
        assert_frames_agree(combo)
        assert combo == reduce_to_first_order_by_chains(x)

    def test_shift_helper_stays_off_the_reduce_path(self, monkeypatch):
        """Parse, lowering, ``semantic_element`` and ``equals`` read the stored frame only; the view at (b, a)
        is built on the first ``render``, one shift for each generator of order at least 1 at a nonzero shift."""
        calls, shifted = [], reduction._shifted
        monkeypatch.setattr(reduction, "_shifted", lambda op, an, ad: calls.append(op) or shifted(op, an, ad))
        x = parse_element(COUNT_ANCHOR)
        combo = reduce_to_first_order(x)
        assert combo.semantic_element().equals(x) and calls == []
        text = combo.render()
        want = sum(1 for gen, op in combo.entries.items() if op.order() >= 1 and gen.an)
        assert len(calls) == want > 0
        assert combo.render() == text and len(calls) == want

    def test_reduce_path_builds_no_operator(self, monkeypatch):
        """Parse, lowering, ``semantic_element`` and ``equals`` read the lowering's integer rows; the first
        ``render`` builds one canonical operator a generator, and a second one none."""
        built, init = [], WeylOp.__init__
        monkeypatch.setattr(WeylOp, "__init__", lambda op, *args: built.append(op) or init(op, *args))
        x = parse_element(COUNT_ANCHOR)
        combo = reduce_to_first_order(x)
        assert combo.semantic_element().equals(x) and combo.equals(reduce_to_first_order(x)) and built == []
        text = combo.render()
        assert len(built) == len(combo.entries) == 9
        assert combo.render() == text and len(built) == 9

    @pytest.mark.parametrize(
        "text, poles",
        [
            ("T^-2*B(2T)*e^{1/2T} + T^-1*B(3/2T)^2", [-2, -1]),
            ("T^-3*B(2T)^3*e^{-1/3T} + T^-1*B(2T)*e^{-1/3T}", [-3]),
            ("T^-2*B(3T)^2 - 2*T^-1*B(5/2T)^3*e^{T} + T^-3", [-2, -1, -3]),
            ("T^-1*B(3T)^3*e^{1/2T}", [-1]),
            ("T^-1*B^2 - T^-1*B", [0]),  # (B^2 - B) / T = (-1 - d) B: the pole divides out
            ("T^-2*B(2T)^3*e^{1/2T} - T^-2*B(2T)^2*e^{1/2T} + 3*T^-2*B(2T)*e^{1/2T}", [-2]),
        ],
    )
    def test_poles_against_the_chain_route(self, text, poles):
        """The T-pole divided out of the raw rows, or kept, as the Weyl-product route decides on canonical operators."""
        x = parse_element(text)
        combo = reduce_to_first_order(x)
        assert sorted(gen.m for gen in combo.entries) == sorted(poles)
        assert combo == reduce_to_first_order_by_chains(x)
        assert combo.semantic_element() == x
        assert combo.semantic_element().terms == fold_semantic_element(combo).terms


def assert_routes_agree(x: BElement, y: BElement) -> None:
    """Every fast path of the reduce path gives the same terms as its slow route."""
    product = product_reduce(x, y)
    assert product.terms == product_reduce_by_states(x, y).terms == fold_product_reduce(x, y).terms
    assert product == BElement(product_reduce_by_fraction_pairs(x, y))
    assert derivative_of_element(product) == fold_derivative_of_element(product)
    assert derivative_of_element(product) == BElement(derivative_by_fractions(product))
    combo = reduce_to_first_order(product)
    assert combo == reduce_to_first_order_by_chains(product)
    assert combo.semantic_element().terms == fold_semantic_element(combo).terms
    assert combo.semantic_element() == BElement(semantic_element_by_fractions(combo))
    for op in combo.entries.values():
        assert op.apply_element(y) == fold_apply_element(op, y)


class TestFastPathsAgainstOracles:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_equal_powers_of_two_and_three(self, k):
        assert_routes_agree(atom(0, k, 2), atom(0, k, 3))

    def test_prime_scales_two_to_eleven(self):
        fast = slow = atom(0, 1, 2)
        for p in (3, 5, 7):
            fast = product_reduce(fast, atom(0, 1, p))
            slow = fold_product_reduce(slow, atom(0, 1, p))
            assert fast == slow
        assert_routes_agree(fast, atom(0, 1, 11))

    def test_prime_scales_two_to_thirteen(self):
        fast = states = slow = atom(0, 1, 2)
        for p in (3, 5, 7, 11):
            fast = product_reduce(fast, atom(0, 1, p))
            states = product_reduce_by_states(states, atom(0, 1, p))
            slow = fold_product_reduce(slow, atom(0, 1, p))
            assert fast.terms == states.terms == slow.terms
        assert_routes_agree(fast, atom(0, 1, 13))

    @pytest.mark.parametrize("expr", ["B(13T)^6*B(17T)^6", "B(2/3T)^6*B(7/4T)^6"])
    def test_rows_at_the_measure_cap(self, expr):
        # the unmerged tree walk is far too slow here; the per-state route is the oracle
        left, right = (parse_element(side) for side in expr.split("*"))
        product = product_reduce(left, right)
        assert product.terms == product_reduce_by_states(left, right).terms
        assert product == BElement(product_reduce_by_fraction_pairs(left, right))

    @pytest.mark.parametrize("b1, b2", itertools.combinations([F(3, 2), F(5, 3), F(5, 2)], 2))
    @pytest.mark.parametrize("n1, n2", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_rational_scales(self, b1, b2, n1, n2):
        assert_routes_agree(atom(0, n1, b1), atom(0, n2, b2))

    @pytest.mark.parametrize(
        "x, y",
        [
            (atom(-2, 2, 2, F(1, 2)), atom(-1, 1, 3, F(-3, 2))),
            (atom(-3, 1, F(3, 2), F(1, 3)), atom(1, 2, F(5, 2), -1)),
            (atom(-1, 2, 3) + atom(-2, 1, 5, F(1, 2)), atom(0, 2, 2, F(-1, 2)) - atom(-1, 1, F(5, 3), 1)),
        ],
    )
    def test_negative_t_powers_with_shifts(self, x, y):
        assert_routes_agree(x, y)

    @given(oracle_elements, oracle_elements)
    @settings(max_examples=40, deadline=None)
    def test_random_elements(self, x, y):
        assert_routes_agree(x, y)

    @given(oracle_ops, oracle_elements)
    @settings(max_examples=60, deadline=None)
    def test_random_operators(self, op, x):
        assert op.apply_element(x) == fold_apply_element(op, x)

    def test_lowering_chains_reused_in_any_order(self, monkeypatch):
        """The rows grow on demand, to the largest order read so far, from a fresh table and no lowering table
        built from the old one."""
        monkeypatch.setattr(reduction, "_CHAIN_ROWS", [[[1]], [[1]]])
        reduction._chain_table.cache_clear()
        chains, rows = {}, 2
        for n, b, a in [(5, F(2), F(1, 2)), (3, F(2), F(1, 2)), (8, F(2), F(1, 2)), (4, F(3, 2), F(0)), (1, F(1), F(0))]:
            table = reduce_to_first_order(atom(0, n, b, a)).op_for(1, b, a)
            assert table == lowering_chain(n, b, a, chains) == lowering_chain_by_products(n, b, a)
            rows = max(rows, n + 1)
            assert len(reduction._CHAIN_ROWS) == rows
        assert rows == 9

    def test_table_rows_are_integer_chains_over_factorials(self):
        for n in range(1, 10):
            row = reduction._chain_row(n)
            want = lowering_chain_by_products(n, F(1), F(0))
            assert all(isinstance(v, int) for cs in row for v in cs)
            got = WeylOp({k: Poly([F(v, factorial(n - 1)) for v in cs]) for k, cs in enumerate(row)})
            assert got == want


# -- the integer atom-pair loop against the Fraction pair loop it replaced ----------------------

WIDE_SHIFTS = (F(0), F(1), F(-1, 2), F(3, 2), F(-7, 5), F(1, 3), F(123456789, 1000003), F(10**19))
wide_elements = st.dictionaries(
    st.builds(single_atom, st.integers(-4, 4), st.integers(0, 3), st.sampled_from(ORACLE_SCALES + (F(7), F(7, 4))), st.sampled_from(WIDE_SHIFTS)),
    small_rationals.filter(bool),
    min_size=1,
    max_size=5,
).map(BElement)


class TestIntegerPairLoop:
    @given(wide_elements, wide_elements)
    @settings(max_examples=60, deadline=None)
    def test_random_elements(self, x, y):
        assert product_reduce(x, y) == BElement(product_reduce_by_fraction_pairs(x, y))

    @pytest.mark.parametrize(
        "left, right",
        [
            ("B(2T)^3*T^-2", "B(3T)^2*e^{-7/5T}"),
            ("B(3/2T)^2 - 2*T*B(5/3T)*e^{1/3T}", "B(7/4T)*e^{3/2T} + 1/2*T^-1"),
            ("B(2T)*B(3T)*e^{1/2T}", "B(5T)*B(7T) - 3"),
            ("e^{-1/2T}*T^3", "B(5/2T)^3 + B(5/2T)*e^{1/2T}"),
            ("B(7T)*e^{123456789/1000003T}", "B(1/3T)^2*T"),
            ("0", "B(2T)"),
            ("B(2T)*(e^{T}+e^{10000000000000000000T})", "B(3T)"),  # shifts 10^19 apart in one row
        ],
    )
    def test_fixed_grid(self, left, right):
        x, y = parse_element(left), parse_element(right)
        assert product_reduce(x, y) == BElement(product_reduce_by_fraction_pairs(x, y))
        assert product_reduce(x, y).terms == product_reduce_by_states(x, y).terms
        assert product_reduce(y, x) == product_reduce(x, y)


# -- the lowering table and closed-form derivatives against the Weyl-product routes ----------

TABLE_SCALES = (F(1), F(2), F(3), F(1, 2), F(3, 2), F(5, 2))
TABLE_SHIFTS = (F(0), F(1), F(-7, 5), F(3, 2), F(-1, 3))
table_atoms = st.builds(
    single_atom,
    st.integers(-4, 4),
    st.integers(0, 8),
    st.sampled_from(TABLE_SCALES),
    st.sampled_from(TABLE_SHIFTS),
)
table_elements = st.dictionaries(table_atoms, small_rationals.filter(bool), min_size=1, max_size=4).map(BElement)


def assert_first_order_agrees(x: BElement) -> None:
    """The table route gives the chain-product combination, and its element term for term."""
    combo = reduce_to_first_order(x)
    assert combo == reduce_to_first_order_by_chains(x)
    assert combo.semantic_element().terms == fold_semantic_element(combo).terms
    assert combo.semantic_element() == BElement(semantic_element_by_fractions(combo))


class TestLoweringTableAgainstChains:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_equal_powers_of_two_and_three(self, k):
        assert_first_order_agrees(product_reduce(atom(0, k, 2), atom(0, k, 3)))

    @pytest.mark.parametrize("b1, b2", itertools.combinations([F(3, 2), F(5, 3), F(5, 2)], 2))
    @pytest.mark.parametrize("n1, n2", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_rational_scales(self, b1, b2, n1, n2):
        assert_first_order_agrees(product_reduce(atom(0, n1, b1), atom(0, n2, b2)))

    @pytest.mark.parametrize(
        "x",
        [
            atom(-1, 1, 1),
            atom(-3, 4, 2, F(-7, 5)) + atom(-1, 2, 2, F(-7, 5)) + atom(2, 3, 2, F(-7, 5)),
            atom(-2, 0, 1, F(1, 2)) - atom(-4, 3, F(3, 2)) + atom(1, 8, F(5, 2), 1),
            product_reduce(atom(-2, 2, 2, F(1, 2)), atom(-1, 1, 3, F(-3, 2))),
        ],
    )
    def test_negative_t_powers(self, x):
        assert_first_order_agrees(x)

    @pytest.mark.parametrize("m, n", [(m, n) for m in range(6) for n in range(6)])
    def test_agoh_dilcher(self, m, n):
        product = product_reduce(f_n_inductive(m), f_n_inductive(n)).mul_monomial(-(m + n))
        assert agoh_dilcher_reduce(m, n) == reduce_to_first_order_by_chains(product)
        assert_first_order_agrees(product)

    @given(table_elements)
    @settings(max_examples=60, deadline=None)
    def test_random_elements(self, x):
        assert_first_order_agrees(x)

    @pytest.mark.parametrize("b, a", [(F(1), F(0)), (F(2), F(1, 2)), (F(3, 2), F(-7, 5)), (F(5, 2), F(3))])
    def test_derivatives_in_closed_form(self, b, a):
        for n in (0, 1):
            gen = Atom(b=b if n else F(1), n=n, m=0, a=a)
            iterated = BElement({gen: F(1)})
            for r in range(13):
                assert DCombination({gen: WeylOp({r: Poly.one()})}).semantic_element().terms == iterated.terms
                iterated = derivative_of_element(iterated)


# -- the per-scale lowering and derivative tables against the loops they replaced ---------------------

SCALE_TABLE_SCALES = (F(1), F(2), F(3, 2), F(5, 3), F(7, 4))
scale_table_elements = st.dictionaries(
    st.builds(single_atom, st.integers(-4, 4), st.integers(0, 12), st.sampled_from(SCALE_TABLE_SCALES), st.sampled_from(TABLE_SHIFTS)),
    small_rationals.filter(bool),
    min_size=1,
    max_size=5,
).map(BElement)

#: the fixed grid of the scale tables: these products, each alone and times a T-pole, a coefficient and a shift
SCALE_TABLE_BASES = [
    *(f"B(2T)^{k}*B(3T)^{k}" for k in range(1, 7)), "B(2T)*B(3T)*B(5T)*B(7T)*B(11T)", "B(2/3T)^6*B(7/4T)^6",
]


def assert_scale_tables_agree(x: BElement) -> BElement:
    """The lowering's raw rows, untrimmed, and their denominators against the loop over b-powers, and the element
    read back against the slice loop; returns that element."""
    combo = reduce_to_first_order(x)
    assert combo._rows == first_order_rows_by_powers(x)
    got = combo.semantic_element()
    assert got == semantic_element_by_slices(combo)
    return got


class TestScaleTablesAgainstLoops:
    @given(scale_table_elements)
    @settings(max_examples=80, deadline=None)
    def test_random_elements(self, x):
        assert assert_scale_tables_agree(x).equals(x)

    @pytest.mark.parametrize("factor", ["1", "5/2*T^-3*e^{-7/4T}"])
    @pytest.mark.parametrize("base", SCALE_TABLE_BASES)
    def test_fixed_grid(self, base, factor):
        x = parse_element(f"{base}*{factor}")
        assert assert_scale_tables_agree(x) == x

    def test_caches_stay_bounded_past_their_size(self):
        """More scales than either cache keeps, read twice: each cache fills to its size and no further, the
        second read rebuilds the evicted tables, and its answers still equal the loops'."""
        caches = (reduction._chain_table, reduction._derivative_table)
        scales = range(1, 2 + max(cache.cache_info().maxsize for cache in caches))
        x = BElement({single_atom(0, 2, F(p)): 1 for p in scales} | {single_atom(1, 3, F(p, 7)): -3 for p in scales}, 1)
        for _ in range(2):
            misses = [cache.cache_info().misses for cache in caches]
            assert assert_scale_tables_agree(x) == x
            infos = [cache.cache_info() for cache in caches]
            assert all(info.currsize == info.maxsize for info in infos)
        assert all(info.misses > before for info, before in zip(infos, misses))

    def test_second_anchor_run_misses_neither_cache(self):
        caches = (reduction._chain_table, reduction._derivative_table)
        reduce_to_first_order(parse_element(COUNT_ANCHOR)).semantic_element()
        before = [cache.cache_info() for cache in caches]
        x = parse_element(COUNT_ANCHOR)
        assert reduce_to_first_order(x).semantic_element() == x
        after = [cache.cache_info() for cache in caches]
        assert [info.misses for info in after] == [info.misses for info in before]
        assert all(new.hits > old.hits for new, old in zip(after, before))


# -- products with each operand's content kept out of the rows and each row rewritten by a cached plan, -----------
# -- against the per-step drain that carries every numerator whole -----------------------------------------------

PLAN_SCALES = [F(1), F(2), F(3), F(5, 2), F(7, 4)]


@st.composite
def elements_with_content(draw) -> BElement:
    """Up to three atoms over the plan scales, B-powers up to 6, with T-powers and shifts, their numerators all
    multiplied by a content of up to 4,097 bits; the empty element among them."""
    atoms = draw(st.lists(st.tuples(st.sampled_from(PLAN_SCALES), st.integers(0, 6), st.integers(-3, 3),
                                    st.sampled_from([F(0), F(1, 2), F(-1, 3), F(5, 4)]), st.integers(-9, 9).filter(bool)),
                          max_size=3))
    content = draw(st.one_of(st.integers(1, 3), st.integers(1, 2**4096)))
    return BElement({Atom(b if n else F(1), n, m, a): v * content for b, n, m, a, v in atoms}, draw(st.integers(1, 12)))


def assert_products_agree(x: BElement, y: BElement) -> BElement:
    """``product_reduce`` gives the per-step drain's numerators, denominator and atom order."""
    got, want = product_reduce(x, y), product_reduce_by_steps(x, y)
    assert (list(got.nums.items()), got.den) == (list(want.nums.items()), want.den)
    return got


class TestPlansAgainstSteps:
    @given(elements_with_content(), elements_with_content())
    @settings(max_examples=60, deadline=None)
    def test_products_agree(self, x, y):
        assert_products_agree(x, y)

    @pytest.mark.parametrize("content", [1, 2**46656, -(3**2000)], ids=["1", "2^46656", "-3^2000"])
    @pytest.mark.parametrize("text", ["B(2/3T)^6*B(7/4T)^6", "(B(2T)+B(3T)+B(5T)+B(7T)+B(11T)+B(13T))^3*B(1/2T)^6"])
    def test_fixed_products_with_content_on_either_side(self, text, content):
        left, right = text.rsplit("*", 1)
        x, y = parse_element(left), parse_element(right)
        product = assert_products_agree(x.scale(content), y)
        assert product == assert_products_agree(x, y.scale(content)) == product_reduce(x, y).scale(content)

    @pytest.mark.parametrize("text", ["0", "B(2T)", "3*T^2*e^{1/2T}*B(7/4T)^6"])
    def test_empty_operand(self, text):
        x = parse_element(text)
        assert assert_products_agree(x, BElement.zero()) == assert_products_agree(BElement.zero(), x) == BElement.zero()

    def test_caches_stay_bounded_past_their_size(self):
        """703 products over pairs of scales below 40 read more plans than the cache keeps: it fills to its
        ``maxsize`` and no further, and the products whose plans were evicted still agree when rebuilt."""
        pairs = list(itertools.combinations(range(2, 40), 2))
        assert len(pairs) > reduction._plan.cache_info().maxsize
        for p1, p2 in pairs:
            product_reduce(atom(0, 1, p1), atom(0, 2, p2) + atom(-1, 1, p2, F(1, 2)))
        info = reduction._plan.cache_info()
        assert info.currsize == info.maxsize
        for p1, p2 in pairs[:20]:
            assert_products_agree(atom(0, 1, p1), atom(0, 2, p2) + atom(-1, 1, p2, F(1, 2)))
        assert reduction._plan.cache_info().misses > info.misses


#: every factor multiset of two distinct scales in 1..12 and of three in 1..7, powers 1..6, measure at most 180
PLAN_KEYS = [
    tuple(zip(scales, powers))
    for scales in [*itertools.combinations(range(1, 13), 2), *itertools.combinations(range(1, 8), 3)]
    for powers in itertools.product(range(1, 7), repeat=len(scales))
    if sum(map(mul, scales, powers)) <= 180
]

sparse_rows = st.tuples(
    st.dictionaries(st.integers(-10**6, 10**6), st.integers(-(2**200), 2**200).filter(bool), min_size=1, max_size=6),
    st.integers(1, 10**9),
)


def assert_plan_gives_the_step(key: tuple, r: int, row: tuple) -> tuple:
    """An uncached ``_plan`` applied to the row at U^r, as ``_drain`` applies it, gives the children of
    ``rewrite_step`` in their order: U-power, factors, numerators in their order and denominator; each child's
    measure is the measure of its factors, below the row's.  Returns the plan."""
    plan = reduction._plan.__wrapped__(key)
    got = [(r + s, list(fs), list((row[0] if terms is None else elements._shift_product(row[0], terms)).items()),
            row[1] * den) for s, _, fs, terms, den in plan]
    want = [(s, sorted(fs.items()), list(num.items()), den) for s, fs, (num, den) in rewrite_step(r, dict(key), row)]
    assert got == want
    measure = reduction._measure(dict(key))
    assert all(lower == reduction._measure(dict(fs)) < measure for _, lower, fs, _, _ in plan)
    return plan


class TestPlanAgainstStep:
    def test_every_small_multiset_on_the_unit_row(self):
        """Every plan gives the step, and every identity child, a row times a polynomial, has at least one term:
        no pair of distinct positive scales gives a zero polynomial."""
        assert len(PLAN_KEYS) == 9936
        for key in PLAN_KEYS:
            plan = assert_plan_gives_the_step(key, 0, ({0: 1}, 1))
            assert all(terms for *_, terms, _ in plan if terms is not None)

    @given(st.sampled_from(PLAN_KEYS), st.integers(-8, 8), sparse_rows)
    @settings(max_examples=300, deadline=None)
    def test_sparse_rows(self, key, r, row):
        assert_plan_gives_the_step(key, r, row)

    def test_a_zero_polynomial_drains_to_no_atom(self, monkeypatch):
        """A piece whose polynomial is 0 is a plan child with no term, which the step drops: the products still agree.
        No pair of distinct positive scales gives one, so a ``g_pair`` with g_mn = 0 is patched in for both, and the
        plans made under the patch are dropped after it."""
        def with_zero_g_mn(m, n):
            return GPair(m, n, math.gcd(m, n), Poly.zero(), g_pair(m, n).g_nm)

        monkeypatch.setattr(reduction, "g_pair", with_zero_g_mn)
        monkeypatch.setattr(conftest, "g_pair", with_zero_g_mn)
        reduction._plan.cache_clear()
        try:
            assert [terms for *_, terms, _ in reduction._plan.__wrapped__(((2, 1), (3, 1)))][-1] == ()
            for x, y in [("B(2T)", "B(3T)"), ("B(3T)^2 + T*B(5T)^4*e^{1/2T} - 2*B(7T)", "B(2T)*e^{-1/3T}")]:
                assert_products_agree(parse_element(x), parse_element(y))
        finally:
            reduction._plan.cache_clear()

    @pytest.mark.parametrize(
        "atoms, den, b",
        [
            ([(0, 0, F(0), 3)], 1, F(1)),
            ([(0, 0, F(0), 3), (2, 0, F(0), -5)], 7, F(1)),
            ([(-3, 0, F(1, 2), 2), (1, 0, F(1, 2), 9), (-1, 0, F(1, 2), -4)], 5, F(1)),
            ([(-2, 0, F(-7, 4), 1), (-4, 0, F(-7, 4), 6)], 12, F(1)),
            ([(0, 1, F(0), 1), (3, 1, F(0), -2)], 1, F(2)),
            ([(-2, 1, F(1, 3), 4), (1, 1, F(1, 3), 1)], 9, F(5, 3)),
            ([(-1, 1, F(0), 2), (0, 3, F(0), -1), (2, 2, F(0), 5)], 4, F(7, 4)),
            ([(-3, 6, F(5, 2), 1), (0, 1, F(5, 2), 3)], 2, F(3, 2)),
        ],
        ids=["n0-one", "n0", "n0-poles", "n0-only-poles", "n1", "n1-poles", "n1-to-3-pole", "n6-poles"],
    )
    def test_lowered_against_the_power_loop(self, atoms, den, b):
        """``_lowered`` on fixed groups, among them groups of n = 0 atoms alone, with and without T-poles, against
        the loop over b-powers that takes B-powers up to 1 by a row of its own."""
        group = [(Atom(b if n else F(1), n, m, a), v) for m, n, a, v in atoms]
        bn, bd = group[0][0].bn, group[0][0].bd
        pole = min(0, *(at.m for at, _ in group))
        assert reduction._lowered(group, den, bn, bd, pole) == lowered_by_powers(group, den, bn, bd, pole)


class TestMeasureGuard:
    def test_rewrite_that_keeps_the_measure_is_refused(self, monkeypatch):
        monkeypatch.setattr(reduction, "_measure", lambda factors: 0)
        reduction._plan.cache_clear()  # a plan cached by an earlier test would skip the patched measure
        with pytest.raises(ReductionError, match="failed to decrease"):
            product_reduce(atom(0, 1, 2), atom(0, 1, 3))
        with pytest.raises(ReductionError, match="failed to decrease"):
            lemma_decompose([(2, 1), (3, 1)])


# -- the reduce and grid paths build Fractions only at their boundary -----------------------------

#: the anchor parsed, reduced to first order and checked with ``equals``, which make no Fraction (9 while
#: the parser read literals as Fractions, 74 while atoms held Fractions, 270 while the element kernel did)
COUNT_ANCHOR = "B(2T)^2*B(3T)^2*3*T^2*e^{1/2T}"

#: one warm ``verify_lowering`` and one warm ``verify_agoh_dilcher_example``: the Fractions of their
#: reports and Bernoulli values, none for an atom read (16; 17 while atoms held Fractions)
GRID_FRACTION_CEILING = 16


def fractions_made(op, monkeypatch) -> tuple[int, int]:
    """The Fractions built by a warm run of ``op``, and the reads of an atom's ``b`` or ``a`` view in it."""
    assert op()  # fills the tables and caches it reads, so the counts below repeat exactly
    reads = []
    for name in ("b", "a"):
        view = getattr(Atom, name)
        monkeypatch.setattr(Atom, name, property(lambda at, view=view: reads.append(at) or view.fget(at)))
    profile = cProfile.Profile()
    profile.runcall(op)
    made = sum(
        calls
        for (path, _, name), (_, calls, *_) in pstats.Stats(profile).stats.items()
        if path == fractions.__file__ and name in ("__new__", "_from_coprime_ints")
    )
    return made, len(reads)


def test_fraction_constructions_on_the_reduce_path(monkeypatch):
    def op():
        x = parse_element(COUNT_ANCHOR)
        return reduce_to_first_order(x).semantic_element().equals(x)

    made, reads = fractions_made(op, monkeypatch)
    assert made == 0, f"{made} Fractions made on the reduce path"
    assert reads == 0, f"{reads} Fraction views of atoms read on the reduce path"


def test_fraction_constructions_on_the_grid_path(monkeypatch):
    def op():
        return verify_lowering(3, 7, F(1, 3)).verified and verify_agoh_dilcher_example(9).verified

    made, reads = fractions_made(op, monkeypatch)
    assert 0 < made <= GRID_FRACTION_CEILING, f"{made} Fractions made on the grid path"
    assert reads == 0, f"{reads} Fraction views of atoms read on the grid path"


def test_zero_test_builds_no_fraction_and_no_atom(monkeypatch):
    """A warm ``is_zero`` reads the integer clearing map only (one Fraction a scale, and an atom a
    term, while it built an element of x*D and the description of D)."""
    known_zero, nonzero = parse_element("B*e^{T} - B - T"), parse_element("B(2T)^2*e^{1/2T} - 3*B(3/2T) + T")

    def op():
        return known_zero.is_zero() and not nonzero.is_zero()

    made, reads = fractions_made(op, monkeypatch)
    assert made == 0, f"{made} Fractions made by the zero test"
    assert reads == 0, f"{reads} Fraction views of atoms read by the zero test"
    built = []
    monkeypatch.setattr(elements, "_new", lambda cls, fields: built.append(fields) or tuple.__new__(cls, fields))
    assert op() and not built, f"{len(built)} atoms built by the zero test"


@pytest.mark.parametrize("text, calls", [(COUNT_ANCHOR, 1), ("B(5T)^3", 0), ("(B + T)^3", 3)])
def test_product_reduce_calls_of_a_parse(text, calls):
    """A power of one atom is read in closed form and monomials are multiplied directly, so the anchor
    makes its one product of distinct scales (9 calls while each power was a loop of products)."""
    profile = cProfile.Profile()
    profile.runcall(parse_element, text)
    made = sum(
        count
        for (path, _, name), (_, count, *_) in pstats.Stats(profile).stats.items()
        if path == reduction.__file__ and name == "product_reduce"
    )
    assert made == calls
