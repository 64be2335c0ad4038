"""The package's exact values share one immutable base and one lowest-terms rule.

``Poly``, ``TruncatedSeries``, ``BElement``, ``WeylOp`` and ``DCombination``, and the records
``GPair`` and ``HFPair`` holding real polynomials, are checked for: ``copy``, ``deepcopy`` and
``pickle`` round trips, on hypothesis-drawn values and fixed cases; refused assignment and
deletion of every field and of a new attribute; and a constructor that refuses a zero denominator
and leaves a negative one positive in lowest terms.
"""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernring.elements import Atom, BElement, atom, b_element
from bernring.exprparse import parse_element
from bernring.partfrac import g_pair, h_f
from bernring.polys import Frozen, Poly
from bernring.reduction import DCombination, reduce_to_first_order
from bernring.selftest import random_element, random_series, random_weyl_op
from bernring.series import TruncatedSeries, bernoulli_series, exp_series
from bernring.weyl import WeylOp

ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}

def stored(value) -> tuple:
    return tuple(getattr(value, name) for name in value._fields)


def assert_round_trips(value) -> None:
    for how, trip in ROUND_TRIPS.items():
        twin = trip(value)
        assert twin.__class__ is value.__class__, how
        assert stored(twin) == stored(value), how
        if isinstance(value, TruncatedSeries):  # a series equals, and hashes as, only itself
            assert twin.same_up_to(value, value.bound), how
            continue
        assert twin == value and not twin != value, how
        if value.__class__.__hash__ is not None:
            assert hash(twin) == hash(value), how


def assert_frozen(value) -> None:
    before = stored(value)
    for name in (*value.__slots__, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert stored(value) == before


def fixed_values() -> list:
    square = atom(0, 2, 1, 0)
    return [
        Poly(),
        Poly([Fraction(1, 2), 0, Fraction(-3, 4)]),
        TruncatedSeries.zero(5),
        TruncatedSeries(-1, [0, Fraction(2, 3), 1], 1),
        exp_series(Fraction(1, 2), 6),
        bernoulli_series(8),
        BElement(),
        b_element(),
        square.scale(Fraction(-2, 7)) + atom(-1, 0, 1, Fraction(1, 3)),
        WeylOp.zero(),
        WeylOp({0: Poly([1, Fraction(-1, 3)]), 2: Poly.monomial(1, 5)}),
        DCombination(),
        reduce_to_first_order(square),
        reduce_to_first_order(atom(1, 3, Fraction(2, 3), Fraction(1, 2))),
        g_pair(2, 3),
        g_pair(4, 6),
        h_f(2, 2, 6),
        h_f(3, 1, 4),
    ]


@pytest.mark.parametrize("value", fixed_values(), ids=lambda v: type(v).__name__)
def test_fixed_values_round_trip(value):
    assert_round_trips(value)


@pytest.mark.parametrize("value", fixed_values(), ids=lambda v: type(v).__name__)
def test_fixed_values_are_frozen(value):
    assert_frozen(value)


drawn = st.randoms(use_true_random=False)


@given(drawn)
@settings(max_examples=40, deadline=None)
def test_drawn_elements(rng: random.Random):
    value = random_element(rng)
    assert_round_trips(value)
    assert_frozen(value)


@given(drawn)
@settings(max_examples=40, deadline=None)
def test_drawn_operators_and_their_polys(rng: random.Random):
    op = random_weyl_op(rng)
    assert_round_trips(op)
    assert_frozen(op)
    for part in op.parts.values():
        assert_round_trips(part)
        assert_frozen(part)


@given(drawn, st.integers(0, 12))
@settings(max_examples=40, deadline=None)
def test_drawn_series(rng: random.Random, bound: int):
    value = random_series(rng, bound)
    assert_round_trips(value)
    assert_frozen(value)


@given(drawn)
@settings(max_examples=25, deadline=None)
def test_drawn_combinations(rng: random.Random):
    x = random_element(rng, max_atoms=2, max_n=2)
    value = reduce_to_first_order(x)
    assert_round_trips(value)
    assert_frozen(value)
    assert_combination_rebuilds(value)


def assert_combination_rebuilds(value: DCombination) -> None:
    """A combination stores its operators shifted; copies, and the public constructor on its one field
    ``entries``, give equal combinations with equal views."""
    for how, trip in ROUND_TRIPS.items():
        twin = trip(value)
        assert twin == value and twin.entries == value.entries, how
    rebuilt = DCombination(value.entries)
    assert rebuilt == value and rebuilt.entries == value.entries


@pytest.mark.parametrize("x", ["B(2T)^3*e^{1/2T}", "B(3/2T)^2*T^-3*e^{-7/5T} + e^{2T}*T", "B(2T)*B(3T)*e^{-1/3T}"])
def test_combinations_rebuild(x):
    assert_combination_rebuilds(reduce_to_first_order(parse_element(x)))


@given(drawn, st.booleans())
@settings(max_examples=60, deadline=None)
def test_combinations_equal_exactly_when_their_elements_do(rng: random.Random, same: bool):
    """A combination's ``==`` reads its canonical operators, which determine the element's stored form: half
    the pairs are one element, its numerators copied, and the rest two draws."""
    x = random_element(rng, max_atoms=3, max_n=3)
    y = BElement(dict(x.nums), x.den) if same else random_element(rng, max_atoms=3, max_n=3)
    assert (reduce_to_first_order(x) == reduce_to_first_order(y)) == (x == y)
    assert (reduce_to_first_order(x) != reduce_to_first_order(y)) == (x != y)


@pytest.mark.parametrize("left, right", [("B", "T"), ("B*e^{T}", "B + T")])
def test_combinations_of_distinct_generators_differ(left, right):
    """B*e^{T} and B + T denote one series but are written over different generators."""
    x, y = reduce_to_first_order(parse_element(left)), reduce_to_first_order(parse_element(right))
    assert x != y and not x == y and x.equals(y) == (left != "B")


def test_every_value_class_is_frozen_with_public_fields():
    expected = {
        Poly: ("nums", "den"),
        TruncatedSeries: ("low", "nums", "bound", "den"),
        BElement: ("nums", "den"),
        WeylOp: ("rows", "den"),
        DCombination: ("entries",),
    }
    for cls, fields in expected.items():
        assert issubclass(cls, Frozen) and cls._fields == fields


def test_hash_kinds_are_kept():
    series = TruncatedSeries(0, [1, 2], 1)
    assert series == series and series != TruncatedSeries(0, [1, 2], 1)
    assert hash(series) == object.__hash__(series)
    with pytest.raises(TypeError):
        hash(DCombination())
    x = b_element()
    assert x._hash is None and hash(x) == hash((x.den, frozenset(x.nums.items()))) == x._hash
    assert hash(Poly([1, 2])) == hash(("Poly", 1, (1, 2)))


AT = Atom(Fraction(2), 1, 0, Fraction(0))


class TestLowestTerms:
    """All four constructors that take a denominator share one rule."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda den: Poly([1, 2], den),
            lambda den: Poly([], den),
            lambda den: TruncatedSeries(0, [1], 0, den),
            lambda den: TruncatedSeries(0, [0, 0], 1, den),
            lambda den: BElement({AT: 1}, den),
            lambda den: BElement({}, den),
            lambda den: WeylOp({0: [1]}, den),
            lambda den: WeylOp({}, den),
        ],
    )
    def test_zero_denominator_is_refused(self, build):
        with pytest.raises(ZeroDivisionError):
            build(0)

    def test_negative_denominator_is_made_positive(self):
        p = Poly([2, -4], -6)
        assert (p.nums, p.den) == ((-1, 2), 3) and p == Poly([Fraction(-1, 3), Fraction(2, 3)])
        s = TruncatedSeries(0, [1, 2], 1, -1)
        assert (s.low, s.nums, s.bound, s.den) == (0, (-1, -2), 1, 1)
        s = TruncatedSeries(-1, [0, 4, -6], 1, -8)
        assert (s.low, s.nums, s.bound, s.den) == (0, (-2, 3), 1, 4)
        s = TruncatedSeries(0, [0, 0], 1, -7)
        assert (s.low, s.nums, s.bound, s.den) == (2, (), 1, 1)
        x = BElement({AT: 6}, -4)
        assert (x.nums, x.den) == ({AT: -3}, 2)
        op = WeylOp({1: [2, 0, -4]}, -6)
        assert (op.rows, op.den) == ({1: (-1, 0, 2)}, 3)

    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=6),
        st.integers(-30, 30).filter(bool),
        st.integers(-5, 5).filter(bool),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_denominator_gives_the_rational_value(self, nums, den, g):
        scaled = [v * g for v in nums]
        values = [Fraction(v, den) for v in nums]
        assert Poly(scaled, den * g) == Poly(values)
        bound = len(nums) - 1
        series = TruncatedSeries(0, scaled, bound, den * g)
        assert series.den > 0 and series.same_up_to(TruncatedSeries(0, values, bound), bound)
        assert BElement({AT: nums[0] * g}, den * g) == BElement({AT: values[0]})
        assert WeylOp({0: scaled}, den * g) == WeylOp({0: Poly(values)})
