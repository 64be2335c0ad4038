import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from bernring import elements, series
from bernring.polys import Poly
from bernring.series import TruncatedSeries, exp_minus_one_over_t

small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)

polys = st.builds(Poly, st.lists(small_rationals, max_size=13))
nonzero_polys = polys.filter(lambda p: not p.is_zero())


@pytest.fixture(autouse=True)
def derived_tables_per_test(monkeypatch):
    """Give each test its own Nörlund rows and scaled-power cache.

    Row 1 of the Bernoulli table is shared: it is computed from tangent
    numbers alone, and a test that patches one of its entries undoes that
    itself.  The rows of order >= 2 and the element expansion cache are built
    from row 1 and never rebuilt, so entries made while a test had a B_i
    patched would otherwise outlive the patch.
    """
    monkeypatch.setattr(series, "_ROWS", {1: series._ROWS[1]})
    monkeypatch.setattr(elements, "_SCALED_POWER_CACHE", {})


@pytest.fixture
def rng():
    return random.Random(0xBE57)


def staudt_clausen_denominator(n: int) -> int:
    """The denominator of B_n for even n >= 2: the product of the primes p with (p - 1) | n."""
    primes = [p for p in range(2, n + 2) if all(p % q for q in range(2, int(p**0.5) + 1))]
    return math.prod(p for p in primes if n % (p - 1) == 0)


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


@functools.lru_cache(maxsize=None)
def bernoulli_by_inversion(bound: int) -> TruncatedSeries:
    """B = T/(e^T - 1) by inverting (e^T - 1)/T: the slow route, kept as the table's oracle."""
    return exp_minus_one_over_t(bound).inverse()


@functools.lru_cache(maxsize=None)
def norlund_by_products(n: int, bound: int) -> TruncatedSeries:
    """B^n (n >= 1) by n - 1 Cauchy products of the inverted series."""
    if n == 1:
        return bernoulli_by_inversion(bound)
    return norlund_by_products(n - 1, bound) * bernoulli_by_inversion(bound)
