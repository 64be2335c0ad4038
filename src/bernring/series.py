"""Truncated Laurent series over Q.

A ``TruncatedSeries`` knows its coefficients exactly for every exponent up to
an explicit ``bound``; nothing beyond the bound is ever assumed.  Every
operation computes the guaranteed bound of its result, so precision loss is
always visible: reading a coefficient past the bound raises
:class:`InsufficientBoundError` instead of returning a silent zero.

The module also hosts the generating series B = T/(e^T - 1), e^{aT}, and the
Bernoulli numbers/polynomials of any order, all read from one table of Nörlund
values B^(n)_i: row n is stored once, as integer numerators over one
denominator, and is replaced whole when it grows.  Row 1 comes from the tangent
numbers, and each row n >= 2 from row n - 1 alone, by the order-lowering identity.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

from .polys import Frozen, Poly, _as_fraction, _ratio, common_numerators, factorial, fraction_view, lowest_terms

class InsufficientBoundError(Exception):
    """A coefficient past the guaranteed order bound was requested."""


def fraction_sum(parts: Iterable[tuple[int, int]]) -> Fraction:
    """The sum of the n / d over the integer pairs (n, d), d > 0, summed over the lcm of the d: one Fraction."""
    parts = list(parts)
    den = math.lcm(*(d for _, d in parts))
    return Fraction(sum(n * (den // d) for n, d in parts), den)


class TruncatedSeries(Frozen):
    """Laurent series with exact coefficients for exponents <= ``bound``.

    ``low`` is the exponent of the first stored coefficient and equals the
    valuation when the series is nonzero; a series that is known to vanish
    up to its bound stores no coefficients and has ``low == bound + 1``.
    The coefficients are stored as integer numerators ``nums`` over one
    positive denominator ``den``, with no factor common to all of them;
    ``coeffs`` hands them out as Fractions.
    """

    __slots__ = ("low", "nums", "bound", "den", "_coeffs")
    __eq__, __hash__ = object.__eq__, object.__hash__  # a series is equal only to itself

    def __init__(self, low: int, coeffs: Sequence, bound: int, den: int | None = None):
        """The series of the rationals ``coeffs`` or, given ``den``, of the integers ``coeffs`` over ``den``."""
        if den is None:
            den, coeffs = common_numerators([_as_fraction(c) for c in coeffs])
        if coeffs and low + len(coeffs) - 1 != bound:
            raise ValueError("coefficient window does not match bound")
        start = 0
        while start < len(coeffs) and not coeffs[start]:
            start += 1
        nums, low = tuple(coeffs[start:]), low + start
        if not nums:  # lowest terms leave it over 1
            low = bound + 1
        if (g := lowest_terms(den, nums)) != 1:  # one gcd per result keeps the numerators small
            nums, den = tuple(n // g for n in nums), den // g
        self._init(low, nums, bound, den, None)

    coeffs = fraction_view

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(bound: int) -> "TruncatedSeries":
        return TruncatedSeries(bound + 1, (), bound, 1)

    @staticmethod
    def one(bound: int) -> "TruncatedSeries":
        return TruncatedSeries.monomial(0, 1, bound)

    @staticmethod
    def monomial(exponent: int, coeff, bound: int) -> "TruncatedSeries":
        if exponent > bound:
            raise ValueError("monomial exponent beyond requested bound")
        coeff = _as_fraction(coeff)
        return TruncatedSeries(exponent, [coeff.numerator] + [0] * (bound - exponent), bound, coeff.denominator)

    # -- basic queries -----------------------------------------------------

    def is_known_zero(self) -> bool:
        return not self.nums

    def coeff(self, exponent: int):
        """Exact coefficient of T^exponent; raises past the guaranteed bound."""
        if exponent > self.bound:
            raise InsufficientBoundError(
                f"coefficient of T^{exponent} requested but series is only exact to T^{self.bound}"
            )
        if exponent < self.low:
            return Fraction(0)
        return self.coeffs[exponent - self.low]

    def truncate(self, bound: int) -> "TruncatedSeries":
        if bound > self.bound:
            raise InsufficientBoundError("cannot raise a bound by truncation")
        if bound == self.bound:
            return self
        keep = max(0, bound - self.low + 1)
        return TruncatedSeries(self.low, self.nums[:keep], bound, self.den)

    def same_up_to(self, other: "TruncatedSeries", bound: int) -> bool:
        """Coefficient-wise equality for all exponents <= bound (must be guaranteed)."""
        lo = min(self.low, other.low, 0)
        return all(self.coeff(i) == other.coeff(i) for i in range(lo, bound + 1))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return TruncatedSeries.combination([(self, 0, 1), (other, 0, 1)])

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.low, [-n for n in self.nums], self.bound, self.den)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return TruncatedSeries.combination([(self, 0, 1), (other, 0, -1)])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product; bound = min(N_x + v_y, N_y + v_x)."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        bound = min(self.bound + other.low, other.bound + self.low)
        low = self.low + other.low
        if low > bound:
            return TruncatedSeries.zero(bound)
        # both windows reach the result's bound; output k is the dot product of
        # the first k + 1 numerators of one with the last k + 1 of the other, reversed
        size = bound - low + 1
        xs, ys = self.nums[:size], other.nums[size - 1 :: -1]
        window = [sum(map(operator.mul, xs[: k + 1], ys[size - 1 - k :])) for k in range(size)]
        return TruncatedSeries(low, window, bound, self.den * other.den)

    def scale(self, c) -> "TruncatedSeries":
        """Multiply by a rational scalar (exact, bound kept)."""
        c = _as_fraction(c)
        if not c:
            return TruncatedSeries.zero(self.bound)
        return TruncatedSeries(self.low, [n * c.numerator for n in self.nums], self.bound, self.den * c.denominator)

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by T^k (exact; bound moves by k)."""
        return TruncatedSeries(self.low + k, self.nums, self.bound + k, self.den)

    @staticmethod
    def combination(parts: Sequence[tuple], bound: int | None = None) -> "TruncatedSeries":
        """The sum of c T^d x over the parts (x, d, c), c nonzero, summed in one coefficient window.

        It is exact to the least of ``bound`` and every x.bound + d, as a running sum of the
        terms would be.  The terms are summed as integers over the lcm of their denominators.
        """
        bound = min([x.bound + d for x, d, _ in parts] + ([] if bound is None else [bound]))
        low = min([x.low + d for x, d, _ in parts], default=bound + 1)
        if low > bound:
            return TruncatedSeries.zero(bound)
        dens = [x.den * c.denominator for x, _, c in parts]
        den = math.lcm(*dens)
        window = [0] * (bound - low + 1)
        for (x, d, c), xd in zip(parts, dens):
            m, start = c.numerator * (den // xd), x.low + d - low
            part = x.nums[: max(0, bound - x.low - d + 1)]
            window[start : start + len(part)] = [w + m * v for w, v in zip(window[start:], part)]
        return TruncatedSeries(low, window, bound, den)

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires an invertible coefficient at the valuation."""
        if self.is_known_zero():
            raise ZeroDivisionError("cannot invert a series that vanishes up to its bound")
        inv_lead = 1 / self.coeffs[0]
        v = self.low
        n_terms = self.bound - v + 1
        out = [Fraction(0)] * n_terms
        out[0] = inv_lead
        # y_k solves sum_{i=0..k} x_i * y_{k-i} = 0 for k >= 1 (indices relative to valuations)
        for k in range(1, n_terms):
            acc = Fraction(0)
            for i in range(1, k + 1):
                xi = self.coeffs[i]
                if not xi:
                    continue
                acc = acc + xi * out[k - i]
            out[k] = -(acc * inv_lead)
        bound = self.bound - 2 * v
        return TruncatedSeries(-v, out, bound)

    def scale_arg(self, b) -> "TruncatedSeries":
        """Substitute T -> b*T: with b = p/q, n_i / d picks up b^low p^(i-low) q^(bound-i) / q^(bound-low)."""
        b = _as_fraction(b)
        if not b:
            raise ValueError("argument scale must be nonzero")
        if not self.nums:
            return self
        p, q, first, top = b.numerator, b.denominator, b**self.low, self.bound - self.low
        out, power = [], first.numerator * q**top
        for n in self.nums:
            out.append(n * power)
            power = power * p // q  # exact until past the last term
        return TruncatedSeries(self.low, out, self.bound, self.den * first.denominator * q**top)

    def derivative(self) -> "TruncatedSeries":
        """Termwise d/dT; the guaranteed bound drops by one."""
        if not self.nums:
            return TruncatedSeries.zero(self.bound - 1)
        out = [n * e for e, n in enumerate(self.nums, self.low)]
        return TruncatedSeries(self.low - 1, out, self.bound - 1, self.den)

    def __repr__(self) -> str:
        bits = []
        for i, c in enumerate(self.coeffs[:8]):
            bits.append(f"{c}*T^{self.low + i}")
        tail = " + ..." if len(self.coeffs) > 8 else ""
        body = " + ".join(bits) if bits else "0"
        return f"<series {body}{tail} (exact to T^{self.bound})>"


# -- generators ------------------------------------------------------------


def exp_series(a: Fraction | int, bound: int) -> TruncatedSeries:
    """e^{aT} = sum a^i T^i / i!, exact to the bound, as p^i q^(bound-i) bound!/i! over q^bound bound!."""
    p, q = _ratio(a)
    out, t = [], q**bound * math.factorial(bound)
    den = t
    for i in range(bound + 1):
        out.append(t)
        t = t * p // (q * (i + 1))  # exact while i < bound
    return TruncatedSeries(0, out, bound, den)


def exp_minus_one_over_t(bound: int) -> TruncatedSeries:
    """(e^T - 1)/T = sum_i T^i/(i+1)!."""
    return TruncatedSeries(0, [Fraction(1, int(factorial(i + 1))) for i in range(bound + 1)], bound)


def grown_size(current: int, wanted: int) -> int:
    """The growth rule of the Bernoulli rows (a row of ``current`` entries is replaced by one of this
    many) and of ``elements._SERIES_CACHE``: at least double, at least 32.  The Stirling, chain and
    derivative tables of ``reduction`` grow one row at a time instead."""
    return max(wanted, 2 * current, 32)


#: the rows of every order read so far, row n as (d, [N_0, N_1, ...]) with B^(n)_i = N_i / d in lowest
#: terms; a row that grows is replaced whole.  Tests may tamper with row 1, the B_i, to exercise selftest
_ROWS: dict[int, tuple[int, list[int]]] = {1: (1, [])}


def _bernoulli_numbers(start: int, size: int) -> tuple[int, list[int]]:
    """B_start..B_{size-1} over one denominator, from the tangent numbers T_m (Brent and Harvey's integer
    recurrence): B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)); B_1 = -1/2 and the other odd B_j vanish.
    """
    k = (size - 1) // 2
    t = [0] + [math.factorial(m - 1) for m in range(1, k + 1)]
    for j in range(2, k + 1):
        for m in range(j, k + 1):
            t[m] = (m - j) * t[m - 1] + (m - j + 2) * t[m]
    pairs = [(1, 1), (-1, 2)] + [(0, 1)] * (size - 2)
    for m in range(max(1, start // 2), k + 1):
        num, den = (-1) ** (m - 1) * 2 * m * t[m], 4**m * (4**m - 1)
        g = math.gcd(num, den)
        pairs[2 * m] = (num // g, den // g)
    pairs = pairs[start:size]
    d = math.lcm(*(e for _, e in pairs))
    return d, [num * (d // e) for num, e in pairs]


def _fill(n: int, size: int) -> None:
    """Replace the short row n by one of ``size`` entries, its old entries kept; row n - 1 reaches ``size``."""
    d, old = _ROWS[n]
    if n == 0:
        e, new = 1, [int(not i) for i in range(len(old), size)]
    elif n == 1:
        e, new = _bernoulli_numbers(len(old), size)
    else:
        # the lowering identity at x = 0, B^(m+1)_i = (1 - i/m) B^(m)_i - i B^(m)_{i-1} with m = n - 1,
        # over the integer numerators of row m (at i = 0 the second term is 0 whatever it reads)
        m, (dp, prev) = n - 1, _ROWS[n - 1]
        e, new = m * dp, [(m - i) * prev[i] - m * i * prev[i - 1] for i in range(len(old), size)]
    den = math.lcm(d, e)
    nums = [x * (den // d) for x in old] + [x * (den // e) for x in new]
    g = lowest_terms(den, nums)
    _ROWS[n] = (den // g, [x // g for x in nums] if g != 1 else nums)


def norlund_numerators(n: int, size: int) -> tuple[int, list[int]]:
    """Row n of the table, (d, [N_0, N_1, ...]) with B^(n)_k = N_k / d, with at least ``size`` entries; a
    caller never changes the list.  A short row grows to :func:`grown_size`, and the rows 1 to n - 1 it is
    built from, one from the next, grow to exactly that size, so growth never cascades."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    if len(_ROWS.setdefault(n, (1, []))[1]) < size:
        size = grown_size(len(_ROWS[n][1]), size)
        for m in range(1, n + 1) if n else (0,):
            if len(_ROWS.setdefault(m, (1, []))[1]) < size:
                _fill(m, size)
    return _ROWS[n]


def _series_of_row(n: int, bound: int) -> TruncatedSeries:
    """sum_k B^(n)_k T^k / k! as N_k bound!/k! over d bound!, N_k / d the row's entries."""
    d, nums = norlund_numerators(n, bound + 1)
    out, f = [], 1
    for k in range(bound, -1, -1):
        out.append(nums[k] * f)
        f *= k or 1
    return TruncatedSeries(0, out[::-1], bound, d * f)


def bernoulli_series(bound: int) -> TruncatedSeries:
    """B(T) = T/(e^T - 1), exact to the bound, read from the Bernoulli table."""
    return _series_of_row(1, bound)


def bernoulli_number(i: int) -> Fraction:
    """The classical Bernoulli number B_i (order one)."""
    if i < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    d, nums = norlund_numerators(1, i + 1)
    return Fraction(nums[i], d)


def bernoulli_power_series(n: int, bound: int) -> TruncatedSeries:
    """B^n exact to the bound, read from row n of the table."""
    return _series_of_row(n, bound)


def bernoulli_number_order(n: int, i: int) -> Fraction:
    """B^(n)_i = i! * [T^i] B^n."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    d, nums = norlund_numerators(n, i + 1)
    return Fraction(nums[i], d)


def poly_value_numerator(n: int, i: int, p: int, q: int) -> tuple[int, int]:
    """(H, d) with B^(n)_i(p/q) = H / (d q^i), for integers p and q > 0; p/q need not be in lowest terms.

    With row n's entries N_k / d, H = sum_k C(i,k) N_k p^(i-k) q^k, summed by Horner's rule in p.
    """
    if i < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    d, nums = norlund_numerators(n, i + 1)
    if not p:  # only the term k = i
        return nums[i] * q**i, d
    acc, c, qk = 0, 1, 1  # c = C(i, k), qk = q^k
    for k in range(i + 1):
        acc = acc * p + c * nums[k] * qk
        c, qk = c * (i - k) // (k + 1), qk * q
    return acc, d


def bernoulli_poly_value(n: int, i: int, x: Fraction | int) -> Fraction:
    """B^(n)_i(x) = i! * [T^i] (B^n e^{xT}), via the binomial convolution (:func:`poly_value_numerator`)."""
    if x.__class__ is not Fraction:
        x = Fraction(x)
    h, d = poly_value_numerator(n, i, x.numerator, x.denominator)
    return Fraction(h, d * x.denominator**i)


def bernoulli_polynomial(i: int) -> Poly:
    """The classical Bernoulli polynomial B_i(X) as an exact Poly."""
    if i < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    den, nums = norlund_numerators(1, i + 1)
    return Poly([math.comb(i, k) * nums[k] for k in range(i, -1, -1)], den)


def harmonic(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n."""
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))

