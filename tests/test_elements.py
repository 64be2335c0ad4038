import copy
import cProfile
import fractions
import math
import pickle
import pstats
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernring import elements, identities
from bernring.elements import Atom, BElement, atom, b_element, from_scalar, t_element
from bernring.polys import Poly
from bernring.reduction import invert_term, product_reduce, reduce_to_first_order
from bernring.series import TruncatedSeries, bernoulli_poly_value, bernoulli_series, exp_series, factorial
from bernring.selftest import COEFFS, SCALES, SHIFTS, _known_zero, random_element
from bernring.weyl import derivative_of_element
from conftest import (
    FractionAtom,
    atom_series,
    coeff_by_expansion,
    exp_poly,
    exp_poly_by_nested_dicts,
    fold_expand,
    fraction_terms_mul_monomial,
    fraction_terms_scale,
    fraction_terms_sum,
    small_rationals,
    to_exp_poly_by_fractions,
    window,
)

# scales and shifts with numerator and denominator of up to 20 digits
HUGE_SCALE = Fraction(12345678901234567890, 98765432109876543211)
HUGE_SHIFT = Fraction(-98765432109876543210, 1234567890123456789)
huge_scales = st.builds(Fraction, st.integers(1, 10**20 - 1), st.integers(1, 10**20 - 1))
huge_shifts = st.builds(Fraction, st.integers(-(10**20) + 1, 10**20 - 1), st.integers(1, 10**20 - 1))


@st.composite
def coefficient_elements(draw):
    """Elements of up to four atoms with m in -4..4, n in 0..4, and small or 20-digit scales and shifts."""
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 4))
        b = draw(st.one_of(st.sampled_from(SCALES), huge_scales)) if n else Fraction(1)
        a = draw(st.one_of(st.just(Fraction(0)), small_rationals, huge_shifts))
        terms[Atom(b, n, draw(st.integers(-4, 4)), a)] = draw(small_rationals.filter(bool))
    return BElement(terms)


def cleared_rows(x: BElement) -> dict:
    """``exp_poly`` of x as {a: {m: coefficient of T^m e^{aT}}}, checking that every atom has n = 0."""
    rows: dict = {}
    for at, c in exp_poly(x).terms.items():
        assert at.n == 0 and at.b == 1
        rows.setdefault(at.a, {})[at.m] = c
    return rows


def assert_stored_as(x: BElement, terms: dict) -> None:
    """x holds exactly the Fraction coefficients ``terms``, as canonical integer numerators."""
    assert x.terms == terms and x == BElement(terms) and hash(x) == hash(BElement(terms))
    assert x.den > 0 and all(v for v in x.nums.values())
    assert math.gcd(x.den, *x.nums.values()) == 1


#: elements with huge and small scales, negative T-powers, shifts and a multiplication-theorem zero
FIXED_ELEMENTS = [
    BElement.zero(),
    from_scalar(Fraction(-3, 4)),
    atom(-2, 3, Fraction(3, 2), Fraction(-1, 3)).scale(Fraction(5, 6)) + atom(1, 0, 1, 2).scale(7),
    atom(0, 2, HUGE_SCALE, HUGE_SHIFT) - atom(2, 1, 2, Fraction(1, 2)).scale(Fraction(1, 10**12)),
    sum((atom(0, 1, 3, i) for i in range(3)), b_element().scale(-3)),
    atom(0, 1, -2, 1) + atom(-1, 4, Fraction(5, 3)),
]


class TestAgainstFractionRoutes:
    """The integer element kernel against the Fraction-dict arithmetic it replaced, compared structurally."""

    @given(coefficient_elements(), coefficient_elements(), small_rationals, st.integers(-3, 3), small_rationals)
    @settings(max_examples=80, deadline=None)
    def test_arithmetic(self, x, y, c, k, shift):
        assert_stored_as(x + y, fraction_terms_sum(x, y))
        assert_stored_as(x - y, fraction_terms_sum(x, y, -1))
        assert_stored_as(-x, fraction_terms_scale(x, -1))
        assert_stored_as(x.scale(c), fraction_terms_scale(x, c))
        assert_stored_as(x.mul_monomial(k, shift), fraction_terms_mul_monomial(x, k, shift))

    @pytest.mark.parametrize("x", FIXED_ELEMENTS)
    @pytest.mark.parametrize("y", FIXED_ELEMENTS)
    def test_arithmetic_fixed_grid(self, x, y):
        assert_stored_as(x + y, fraction_terms_sum(x, y))
        assert_stored_as(x - y, fraction_terms_sum(x, y, -1))
        assert_stored_as(x.scale(Fraction(-7, 9)), fraction_terms_scale(x, Fraction(-7, 9)))
        assert_stored_as(x.mul_monomial(-3, HUGE_SHIFT), fraction_terms_mul_monomial(x, -3, HUGE_SHIFT))
        assert (x - y).is_zero() == (not to_exp_poly_by_fractions(x - y)) == x.equals(y)

    @given(coefficient_elements())
    @settings(max_examples=80, deadline=None)
    def test_to_exp_poly(self, x):
        terms = to_exp_poly_by_fractions(x)
        assert_stored_as(exp_poly(x), terms)
        assert x.is_zero() == (not terms)

    @pytest.mark.parametrize("x", FIXED_ELEMENTS)
    def test_to_exp_poly_fixed_grid(self, x):
        terms = to_exp_poly_by_fractions(x)
        assert exp_poly(x) == BElement(terms)
        assert x.is_zero() == (not terms)

    def test_known_zeros(self):
        rng = random.Random(16)
        for _ in range(60):
            x = _known_zero(rng)
            assert not to_exp_poly_by_fractions(x) and exp_poly(x) == BElement.zero() and x.is_zero()
            y = x + random_element(rng)
            assert y.is_zero() == (not to_exp_poly_by_fractions(y))


class TestCanonicalNumerators:
    @given(coefficient_elements(), st.integers(-50, 50).filter(bool))
    @settings(max_examples=60, deadline=None)
    def test_equal_whatever_the_common_factor(self, x, g):
        y = BElement({at: v * g for at, v in x.nums.items()}, x.den * g)
        assert y == x and hash(y) == hash(x) and (y.nums, y.den) == (x.nums, x.den)

    def test_zero_and_integer_inputs(self):
        assert (BElement().nums, BElement().den) == ({}, 1)
        at = Atom(Fraction(2), 1, 0, Fraction(0))
        assert BElement({at: 0}, 5) == BElement.zero() and BElement({at: 0}).den == 1
        assert BElement({at: 6}, -4) == BElement({at: Fraction(-3, 2)}) == BElement({at: -3}, 2)
        assert BElement({at: 3}).terms == {at: Fraction(3)}
        with pytest.raises(ZeroDivisionError):
            BElement({at: 1}, 0)

    def test_terms_view_is_kept(self):
        x = atom(1, 2, 3, Fraction(1, 2)).scale(Fraction(2, 3))
        assert x.terms is x.terms and x.terms == {Atom(Fraction(3), 2, 1, Fraction(1, 2)): Fraction(2, 3)}


class TestAtomNormalization:
    def test_positive_scale_passthrough(self):
        el = atom(0, 1, 1, 0)
        assert list(el.terms) == [Atom(b=Fraction(1), n=1, m=0, a=Fraction(0))]

    def test_negative_scale_order_one(self):
        assert atom(0, 1, -1, 0) == b_element() + t_element()

    def test_negative_scale_order_two(self):
        got = atom(0, 2, -1, 0)
        want = atom(0, 2, 1, 0) + atom(1, 1, 1, 0).scale(2) + atom(2, 0, 1, 0)
        assert got == want

    def test_rejects_zero_scale(self):
        with pytest.raises(ValueError):
            atom(0, 1, 0, 0)

    def test_normalization_matches_series(self, rng):
        from bernring.series import TruncatedSeries, exp_series

        for _ in range(25):
            m = rng.randint(-2, 2)
            n = rng.randint(0, 3)
            b = -rng.choice(SCALES)
            a = rng.choice(SHIFTS)
            el = atom(m, n, b, a)
            order = 24
            work = order - m
            ser = TruncatedSeries.one(work)
            for _ in range(n):
                ser = ser * bernoulli_series(work).scale_arg(b)
            ser = (ser * exp_series(a, work)).shift(m)
            assert el.expand(order).same_up_to(ser, min(order, ser.bound))


class TestVectorSpace:
    def test_additive_inverse(self):
        x = atom(1, 2, 2, 1).scale(Fraction(3, 7))
        assert not (x + x.scale(-1)).nums

    def test_zero_scale(self):
        assert not b_element().scale(0).nums

    def test_distinct_keys(self):
        two = b_element() + atom(1, 1, 1, 0)
        assert len(two.terms) == 2

    def test_mul_monomial(self):
        assert b_element().mul_monomial(2) == atom(2, 1, 1, 0)
        assert b_element().mul_monomial(0, 1) == atom(0, 1, 1, 1)
        x = atom(1, 2, 3, Fraction(1, 2))
        assert x.mul_monomial(0, 0) == x


class TestExpand:
    def test_b_expansion(self):
        assert b_element().expand(12).same_up_to(bernoulli_series(12), 12)

    def test_relation_collapses(self):
        rel = atom(0, 1, 1, 1) - b_element() - t_element()
        assert rel.expand(20).is_known_zero()

    def test_exponential_shift_gives_poly_values(self):
        for a in (Fraction(0), Fraction(1, 2), Fraction(-2)):
            ser = atom(0, 1, 1, a).expand(10)
            for i in range(11):
                assert ser.coeff(i) * factorial(i) == bernoulli_poly_value(1, i, a)


class TestCoeff:
    """The closed-form coefficient reader against the T^i coefficient of the expansion it replaced."""

    @given(coefficient_elements(), st.integers(-6, 24))
    @settings(max_examples=150, deadline=None)
    def test_random_elements_match_expansion(self, x, i):
        assert x.coeff(i) == coeff_by_expansion(x, i)

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_grid_matches_expansion(self, n):
        scales = (Fraction(1), Fraction(7, 3), HUGE_SCALE) if n else (Fraction(1),)
        for b in scales:
            for a in (Fraction(0), Fraction(-5, 2), HUGE_SHIFT):
                x = BElement({Atom(b, n, -3, a): Fraction(2, 3), Atom(b, n, 2, a): Fraction(-5)})
                for i in (-4, -3, 0, 1, 2, 17, 64):
                    assert x.coeff(i) == coeff_by_expansion(x, i), (b, a, i)

    @pytest.mark.parametrize(
        "n, b, a, ms",
        [
            (0, 1, 0, (-2, 0, 1)),
            (0, 1, HUGE_SHIFT, (-2, 0, 1)),
            (1, 1, 0, (-2, 0, 1)),
            (2, Fraction(7, 3), Fraction(-5, 2), (-2, 0, 1)),
            (5, HUGE_SCALE, 0, (-2, 0, 1)),
            (1, HUGE_SCALE, HUGE_SHIFT, (0,)),  # the expansion takes about 3 s an atom here
        ],
    )
    def test_index_256(self, n, b, a, ms):
        x = BElement({Atom(Fraction(b), n, m, Fraction(a)): Fraction(3, 7) for m in ms})
        assert x.coeff(256) == coeff_by_expansion(x, 256)

    def test_values(self):
        assert b_element().coeff(4) == Fraction(-1, 720)
        assert atom(0, 1, 1, 1).coeff(1) == Fraction(1, 2)  # B e^T = B + T
        assert atom(0, 0, 1, 3).coeff(2) == Fraction(9, 2)
        assert atom(-1, 2, 2).coeff(-1) == 1 and atom(-1, 2, 2).coeff(-2) == 0
        assert BElement.zero().coeff(3) == 0
        rel = atom(0, 1, 1, 1) - b_element() - t_element()
        assert all(rel.coeff(i) == 0 for i in range(-2, 40))


class TestExpPoly:
    def test_defining_identity(self):
        assert exp_poly(b_element()) == t_element()

    def test_relation_clears_to_zero(self):
        rel = atom(0, 1, 1, 1) - b_element() - t_element()
        assert not exp_poly(rel).nums

    def test_inverse_b_as_exponentials(self):
        el = atom(-1, 0, 1, 1) - atom(-1, 0, 1, 0)
        assert exp_poly(el) == el

    @given(
        st.lists(
            st.tuples(st.integers(-2, 2), st.integers(0, 3), st.sampled_from(SCALES), st.sampled_from(SHIFTS), small_rationals),
            max_size=5,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_nested_dict_clearing(self, parts):
        x = sum((atom(m, n, b, a).scale(c) for m, n, b, a, c in parts), BElement.zero())
        assert cleared_rows(x) == exp_poly_by_nested_dicts(x)

    def test_known_zeros_match_nested_dict_clearing(self):
        rng = random.Random(4)
        for _ in range(60):
            x = _known_zero(rng)
            assert cleared_rows(x) == exp_poly_by_nested_dicts(x) and x.is_zero()


class TestZeroTest:
    def test_relation_zero(self):
        assert (atom(0, 1, 1, 1) - b_element() - t_element()).is_zero()

    def test_nonzero(self):
        assert not (b_element() - t_element()).is_zero()

    def test_multiplication_theorem(self):
        for n in range(2, 7):
            acc = b_element().scale(-n)
            for i in range(n):
                acc = acc + atom(0, 1, n, i)
            assert acc.is_zero()

    def test_elem_equal(self):
        x = atom(2, 1, 2, 1)
        assert x.equals(x)
        assert atom(0, 1, -1, 0).equals(b_element() + t_element())
        assert not b_element().equals(atom(0, 2, 1, 0))


class TestProperties:
    def test_expand_is_linear(self):
        rng = random.Random(777)
        order = 24
        for _ in range(200):
            x = random_element(rng)
            y = random_element(rng)
            c = rng.choice(COEFFS)
            left = (x + y).expand(order)
            right = x.expand(order) + y.expand(order)
            assert left.same_up_to(right, min(left.bound, right.bound))
            assert x.scale(c).expand(order).same_up_to(x.expand(order).scale(c), order - 2)

    def test_basis_independence(self):
        rng = random.Random(2024)
        basis = [(m, n) for m in range(-2, 3) for n in range(0, 5)]
        for _ in range(100):
            chosen = rng.sample(basis, rng.randint(1, 6))
            el = BElement.zero()
            for m, n in chosen:
                coeff = Fraction(0)
                while coeff == 0:
                    coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                el = el + atom(m, n, 1, 0).scale(coeff)
            assert not el.is_zero()

    def test_zero_test_agrees_with_series(self):
        from bernring.selftest import check_zero_test_agreement

        ok, detail = check_zero_test_agreement()
        assert ok, detail


class TestOneWindowExpand:
    def test_random_elements_match_running_sum(self):
        rng = random.Random(31)
        for _ in range(120):
            x = random_element(rng)
            for bound in (2, 9, 24):
                assert window(x.expand(bound)) == window(fold_expand(x, bound))

    def test_negative_t_powers(self):
        x = atom(-3, 2, 2, Fraction(1, 2)) - atom(-1, 0, 1, 1).scale(Fraction(5, 3)) + atom(-2, 1, 3)
        for bound in (-1, 0, 7):
            assert window(x.expand(bound)) == window(fold_expand(x, bound))

    def test_exponential_atoms_match_product_with_one(self):
        # an n = 0 atom is e^{aT} shifted; it was once the product of TruncatedSeries.one with e^{aT}
        for a in (Fraction(0), Fraction(1), Fraction(-5, 2), HUGE_SHIFT):
            for m in (-3, 0, 4):
                for bound in (m, 7, 40):
                    work = bound - m
                    once = (TruncatedSeries.one(work) * exp_series(a, work)).shift(m)
                    assert window(atom_series(Atom(Fraction(1), 0, m, a), bound)) == window(once)

    def test_atom_past_the_bound_is_zero_to_the_bound(self):
        # T^m B(bT)^n e^{aT} with m > bound: once an error for n = 0, and exact to less than the bound for n >= 1
        for x in (t_element(5), atom(5, 0, 1, Fraction(3, 2)), atom(2, 1, 1, 1), atom(4, 3, Fraction(2, 3), -1)):
            for bound in (-2, 0, 1):
                got = x.expand(bound)
                assert got.is_known_zero() and got.bound == bound
        assert window((atom(2, 1, 1, 1) + b_element()).expand(0)) == window(bernoulli_series(0))

    def test_known_zeros(self):
        rng = random.Random(17)
        for x in [BElement.zero(), atom(0, 1, 1, 1) - b_element() - t_element()] + [_known_zero(rng) for _ in range(30)]:
            for bound in (4, 16):
                got = x.expand(bound)
                assert got.is_known_zero() and window(got) == window(fold_expand(x, bound))


class TestHash:
    def test_equal_elements_hash_equal(self):
        rng = random.Random(5)
        for _ in range(50):
            x = random_element(rng)
            y = BElement(dict(reversed(list(x.terms.items()))))
            assert x == y and hash(x) == hash(y) == hash(x)

    def test_product_combination_cache_hits_on_equal_factors(self):
        identities._product_combination.cache_clear()
        first = identities._product_combination((atom(0, 1, 2), atom(0, 1, 3)))
        again = identities._product_combination((atom(0, 1, 2), atom(0, 1, 3)))
        assert again is first
        assert identities._product_combination.cache_info().hits == 1


class TestAtomContract:
    """Atom keeps the contract of the frozen, ordered record it replaced: equality and order by
    (b, n, m, a), a hash that agrees with equality, immutability, validation and repr."""

    def test_equal_fields_from_differently_formed_fractions(self):
        pairs = [
            (Atom(Fraction(4, 2), 1, 0, Fraction(-3, 6)), Atom(Fraction(2), 1, 0, Fraction("-1/2"))),
            (Atom(Fraction(1), 0, -2, Fraction(0)), Atom(Fraction(3, 3), 0, -2, Fraction(0, 7))),
            (Atom(Fraction(5, 3), 2, 1, Fraction(0.25)), Atom(Fraction("10/6"), 2, 1, Fraction(1, 4))),
            (Atom(Fraction(1), 1, 0, Fraction(0)), Atom(1, 1, 0, 0)),
        ]
        for x, y in pairs:
            assert x == y and hash(x) == hash(y)
            assert len({x: 1, y: 2}) == 1
        assert Atom(Fraction(2), 1, 0, Fraction(1, 2)) != Atom(Fraction(2), 1, 0, Fraction(1, 3))
        assert Atom(Fraction(2), 1, 0, Fraction(0)) != (Fraction(2), 1, 0, Fraction(0))

    def test_order_is_field_order(self):
        rng = random.Random(8)
        atoms = [
            Atom(b if n else Fraction(1), n, rng.randint(-3, 3), rng.choice(SHIFTS))
            for n in (0, 1, 2, 3)
            for b in (Fraction(1), Fraction(2), Fraction(3, 2), Fraction(1, 3))
            for _ in range(4)
        ]
        rng.shuffle(atoms)
        want = sorted(atoms, key=lambda at: (at.b, at.n, at.m, at.a))
        assert sorted(atoms) == want
        assert [at.key() for at in sorted(atoms, key=Atom.key)] == [at.key() for at in want]
        x, y = want[0], want[-1]
        assert x < y and x <= y and y > x and y >= x and x <= x and not x < x

    def test_immutable(self):
        at = Atom(Fraction(2), 1, 0, Fraction(1))
        with pytest.raises(AttributeError):
            at.b = Fraction(3)
        with pytest.raises(AttributeError):
            at.extra = 1
        with pytest.raises(AttributeError):
            del at.n
        assert at.key() == (Fraction(2), 1, 0, Fraction(1))

    def test_validation(self):
        with pytest.raises(ValueError, match="B-power must be nonnegative"):
            Atom(Fraction(1), -1, 0, Fraction(0))
        with pytest.raises(ValueError, match="positive argument scale"):
            Atom(Fraction(-2), 1, 0, Fraction(0))
        with pytest.raises(ValueError, match="positive argument scale"):
            Atom(Fraction(0), 1, 0, Fraction(0))
        with pytest.raises(ValueError, match="use b = 1"):
            Atom(Fraction(2), 0, 0, Fraction(0))

    def test_repr_and_copies(self):
        at = Atom(b=Fraction(3, 2), n=2, m=-1, a=Fraction(1, 3))
        assert repr(at) == "Atom(b=Fraction(3, 2), n=2, m=-1, a=Fraction(1, 3))"
        for twin in (copy.copy(at), copy.deepcopy(at), pickle.loads(pickle.dumps(at))):
            assert twin == at and hash(twin) == hash(at)


@st.composite
def atom_fields(draw):
    """(b, n, m, a) of an atom: n = 0 with b = 1, or small or 20-digit scales; shifts zero, small,
    negative or of 20 digits."""
    n = draw(st.integers(0, 4))
    b = draw(st.one_of(st.sampled_from(SCALES), huge_scales)) if n else Fraction(1)
    return b, n, draw(st.integers(-4, 4)), draw(st.one_of(st.just(Fraction(0)), small_rationals, huge_shifts))


#: atoms of the integer Atom's edge cases: n = 0, negative and 20-digit shifts, 20-digit scales
FIXED_ATOM_FIELDS = [
    (Fraction(1), 0, 0, Fraction(0)),
    (Fraction(1), 0, -3, Fraction(-7, 2)),
    (Fraction(1), 1, 0, Fraction(0)),
    (Fraction(1), 1, 0, Fraction(-1)),
    (Fraction(3, 2), 2, -1, Fraction(1, 3)),
    (Fraction(3, 2), 2, -1, Fraction(-1, 3)),
    (Fraction(2), 2, -1, Fraction(1, 3)),
    (HUGE_SCALE, 3, 2, HUGE_SHIFT),
    (HUGE_SCALE, 3, 2, -HUGE_SHIFT),
    (Fraction(1), 0, 5, HUGE_SHIFT),
]


def assert_agree(x: tuple, y: tuple) -> None:
    """The integer atoms and the Fraction oracles of the fields x and y agree on ==, hash, order,
    key, repr and copies."""
    (at, ot), (at2, ot2) = ((Atom(*f), FractionAtom(*f)) for f in (x, y))
    assert (at == at2) == (ot == ot2) and (at != at2) == (ot != ot2)
    assert hash(at) == hash(ot) and hash(at2) == hash(ot2)
    for compare in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(at, compare)(at2) == getattr(ot, compare)(ot2)
    assert at.key() == ot.key() and repr(at) == repr(ot).replace("FractionAtom", "Atom", 1)
    assert (at.b, at.n, at.m, at.a) == (ot.b, ot.n, ot.m, ot.a)
    assert (at.bn, at.bd, at.an, at.ad) == (ot.b.numerator, ot.b.denominator, ot.a.numerator, ot.a.denominator)
    for twin in (copy.copy(at), copy.deepcopy(at), pickle.loads(pickle.dumps(at))):
        assert twin == at and hash(twin) == hash(at) and twin.key() == ot.key() and type(twin) is Atom


def assert_built_reduced(x: BElement) -> None:
    """Every atom of x, built from integers, is the atom the public constructor builds from its views."""
    for at in x.nums:
        assert tuple(at) == tuple(Atom(at.b, at.n, at.m, at.a)) and at.bd > 0 and at.ad > 0


class TestAgainstFractionAtom:
    """The atom of six integers against the Atom that held Fractions, which it replaced."""

    @given(atom_fields(), atom_fields())
    @settings(max_examples=200, deadline=None)
    def test_contract(self, x, y):
        assert_agree(x, x)
        assert_agree(x, y)
        b, n, m, a = x  # an equal atom, from Fractions of multiples of each pair
        twin = (Fraction(b.numerator * 3, b.denominator * 3), n, m, Fraction(a.numerator * 5, a.denominator * 5))
        assert_agree(x, twin)
        assert {Atom(*x): 1}[Atom(*twin)] == 1

    @pytest.mark.parametrize("x", FIXED_ATOM_FIELDS)
    def test_contract_fixed_grid(self, x):
        for y in FIXED_ATOM_FIELDS:
            assert_agree(x, y)

    @given(st.lists(atom_fields(), min_size=2, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_sorted_order(self, fields):
        want = [ot.key() for ot in sorted(FractionAtom(*f) for f in fields)]
        assert [at.key() for at in sorted(Atom(*f) for f in fields)] == want

    def test_fixed_grid_order(self):
        atoms = sorted(Atom(*f) for f in FIXED_ATOM_FIELDS)
        assert [at.key() for at in atoms] == [ot.key() for ot in sorted(FractionAtom(*f) for f in FIXED_ATOM_FIELDS)]

    @given(coefficient_elements(), st.integers(-3, 3), huge_shifts, st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_library_builds_reduced_atoms(self, x, k, shift, seed):
        rng = random.Random(seed)  # small scales for the products, whose rewriting grows with the scales
        y, z = random_element(rng), random_element(rng).mul_monomial(0, shift)
        for built in (
            x.mul_monomial(k, shift),
            derivative_of_element(x),
            atom(k, 3, Fraction(-3, 2), shift),
            product_reduce(y, z),
            reduce_to_first_order(y).semantic_element(),
            BElement(dict.fromkeys(reduce_to_first_order(z).entries, 1)),
            *(invert_term(at, c) for at, c in x.terms.items()),
        ):
            assert_built_reduced(built)


class TestRendering:
    def test_deterministic_order(self):
        el = atom(1, 1, 2, 0) + b_element() + atom(0, 0, 1, 3).scale(-2) + from_scalar(7)
        assert el.render() == "7 - 2*e^{3T} + B + T*B(2T)"

    def test_zero_renders(self):
        assert BElement.zero().render() == "0"


_ONE_B = Atom(b=Fraction(1), n=1, m=0, a=Fraction(0))

#: every entry point that takes a scalar, with the scalar in the last place
SCALAR_ENTRY_POINTS = {
    "scale": lambda c: b_element().scale(c),
    "atom-scale": lambda c: atom(0, 1, c),
    "atom-shift": lambda c: atom(1, 2, 3, c),
    "from_scalar": from_scalar,
    "mul_monomial": lambda c: b_element().mul_monomial(1, c),
    "Atom": lambda c: Atom(b=c, n=1, m=0, a=Fraction(0)),
    "BElement": lambda c: BElement({_ONE_B: c}),
    "exp_series": lambda c: exp_series(c, 6).coeffs,
    "verify_multiplication": lambda c: identities.verify_multiplication(4, 3, c).to_json_dict(),
    "verify_lowering": lambda c: identities.verify_lowering(2, 5, c).to_json_dict(),
    "verify_euler_polynomial": lambda c: identities.verify_euler_polynomial(3, 1, c).to_json_dict(),
    "Poly": lambda c: Poly([c]),
    "TruncatedSeries.monomial": lambda c: TruncatedSeries.monomial(0, c, 2).coeffs,
}


class TestExactScalars:
    """Every entry point takes a scalar as ``Poly`` does: an int or a Fraction, and nothing inexact."""

    @pytest.mark.parametrize("value", [0.1, 2.0, "1/2"])
    @pytest.mark.parametrize("name", sorted(SCALAR_ENTRY_POINTS))
    def test_inexact_scalar_refused(self, name, value):
        with pytest.raises(TypeError, match=f"expected an exact rational, got {type(value).__name__}"):
            SCALAR_ENTRY_POINTS[name](value)

    @pytest.mark.parametrize("name", sorted(SCALAR_ENTRY_POINTS))
    def test_int_and_fraction_agree(self, name):
        make = SCALAR_ENTRY_POINTS[name]
        assert make(2) == make(Fraction(2))
        assert make(Fraction(7, 3)) == make(Fraction(14, 6))

    @pytest.mark.parametrize("op", [
        lambda: b_element().scale(-3),
        lambda: atom(1, 2, 3, -2),
        lambda: atom(0, 2, -3, 1),
        lambda: from_scalar(-4),
        lambda: b_element().mul_monomial(1, 2),
        lambda: exp_series(2, 6),
    ])
    def test_int_scalar_builds_no_fraction(self, op):
        profile = cProfile.Profile()
        profile.runcall(op)
        made = sum(
            calls
            for (path, _, name), (_, calls, *_) in pstats.Stats(profile).stats.items()
            if path == fractions.__file__ and name in ("__new__", "_from_coprime_ints")
        )
        assert made == 0
