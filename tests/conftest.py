import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from bernring.polys import Poly

small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)

polys = st.builds(Poly, st.lists(small_rationals, max_size=13))
nonzero_polys = polys.filter(lambda p: not p.is_zero())


@pytest.fixture
def rng():
    return random.Random(0xBE57)


def random_rational(rng, num=9, den=5) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_poly(rng, max_degree=12) -> Poly:
    return Poly([random_rational(rng) for _ in range(rng.randint(0, max_degree + 1))])


def poly_cauchy(x: list[Poly], y: list[Poly]) -> list[Poly]:
    """Cauchy product of two power series given as coefficient lists in Q[s].

    The symbolic oracle for series whose coefficients are polynomials; the
    result is as long as the shorter operand.
    """
    return [
        sum((x[j] * y[i - j] for j in range(i + 1)), Poly.zero())
        for i in range(min(len(x), len(y)))
    ]
