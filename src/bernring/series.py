"""Truncated Laurent series over Q.

A ``TruncatedSeries`` knows its coefficients exactly for every exponent up to
an explicit ``bound``; nothing beyond the bound is ever assumed.  Every
operation computes the guaranteed bound of its result, so precision loss is
always visible: reading a coefficient past the bound raises
:class:`InsufficientBoundError` instead of returning a silent zero.

The module also hosts the generating series B = T/(e^T - 1), e^{aT}, and the
Bernoulli numbers/polynomials of any order derived from them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .polys import Poly, factorial

class InsufficientBoundError(Exception):
    """A coefficient past the guaranteed order bound was requested."""


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"series coefficient must be rational, got {type(value).__name__}")


class TruncatedSeries:
    """Laurent series with exact coefficients for exponents <= ``bound``.

    ``low`` is the exponent of the first stored coefficient and equals the
    valuation when the series is nonzero; a series that is known to vanish
    up to its bound stores no coefficients and has ``low == bound + 1``.
    """

    __slots__ = ("low", "coeffs", "bound")

    def __init__(self, low: int, coeffs: Sequence, bound: int):
        coeffs = [_coerce(c) for c in coeffs]
        if coeffs and low + len(coeffs) - 1 != bound:
            raise ValueError("coefficient window does not match bound")
        start = 0
        while start < len(coeffs) and not coeffs[start]:
            start += 1
        coeffs = coeffs[start:]
        low += start
        if not coeffs:
            low = bound + 1
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "bound", bound)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(bound: int) -> "TruncatedSeries":
        return TruncatedSeries(bound + 1, (), bound)

    @staticmethod
    def one(bound: int) -> "TruncatedSeries":
        return TruncatedSeries.monomial(0, 1, bound)

    @staticmethod
    def monomial(exponent: int, coeff, bound: int) -> "TruncatedSeries":
        if exponent > bound:
            raise ValueError("monomial exponent beyond requested bound")
        window = [Fraction(0)] * (bound - exponent + 1)
        window[0] = coeff
        return TruncatedSeries(exponent, window, bound)

    @staticmethod
    def from_coeffs(coeffs: Sequence, bound: int, low: int = 0) -> "TruncatedSeries":
        """Series with the given window low .. low+len(coeffs)-1 == bound."""
        return TruncatedSeries(low, coeffs, bound)

    # -- basic queries -----------------------------------------------------

    def is_known_zero(self) -> bool:
        return not self.coeffs

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
        return TruncatedSeries(self.low, self.coeffs[:keep], bound)

    def same_up_to(self, other: "TruncatedSeries", bound: int) -> bool:
        """Coefficient-wise equality for all exponents <= bound (must be guaranteed)."""
        lo = min(self.low, other.low, 0)
        return all(self.coeff(i) == other.coeff(i) for i in range(lo, bound + 1))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        bound = min(self.bound, other.bound)
        low = min(self.low, other.low)
        if low > bound:
            return TruncatedSeries.zero(bound)
        window = [self.coeff(i) + other.coeff(i) for i in range(low, bound + 1)]
        return TruncatedSeries(low, window, bound)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.low, [-c for c in self.coeffs], self.bound)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product; bound = min(N_x + v_y, N_y + v_x)."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        bound = min(self.bound + other.low, other.bound + self.low)
        low = self.low + other.low
        if low > bound:
            return TruncatedSeries.zero(bound)
        window = [Fraction(0)] * (bound - low + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            ei = self.low + i
            jmax = min(len(other.coeffs) - 1, bound - ei - other.low)
            for j in range(jmax + 1):
                b = other.coeffs[j]
                if not b:
                    continue
                window[ei + other.low + j - low] += a * b
        return TruncatedSeries(low, window, bound)

    def scale(self, c) -> "TruncatedSeries":
        """Multiply by a rational scalar (exact, bound kept)."""
        c = _coerce(c)
        if not c:
            return TruncatedSeries.zero(self.bound)
        return TruncatedSeries(self.low, [a * c for a in self.coeffs], self.bound)

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by T^k (exact; bound moves by k)."""
        return TruncatedSeries(self.low + k, self.coeffs, self.bound + k)

    @staticmethod
    def combination(parts: Sequence[tuple], bound: int | None = None) -> "TruncatedSeries":
        """The sum of c T^d x over the parts (x, d, c), c nonzero, summed in one coefficient window.

        It is exact to the least of ``bound`` and every x.bound + d, as a running sum of the
        terms would be.
        """
        bound = min([x.bound + d for x, d, _ in parts] + ([] if bound is None else [bound]))
        low = min([x.low + d for x, d, _ in parts], default=bound + 1)
        if low > bound:
            return TruncatedSeries.zero(bound)
        window = [Fraction(0)] * (bound - low + 1)
        for x, d, c in parts:
            for i, v in enumerate(x.coeffs[: max(0, bound - x.low - d + 1)], x.low + d - low):
                window[i] += c * v
        return TruncatedSeries(low, window, bound)

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
        """Substitute T -> b*T: the coefficient of T^i picks up a factor b^i."""
        b = _coerce(b)
        if not b:
            raise ValueError("argument scale must be nonzero")
        power = b**self.low
        out = []
        for c in self.coeffs:
            out.append(c * power)
            power = power * b
        return TruncatedSeries(self.low, out, self.bound)

    def derivative(self) -> "TruncatedSeries":
        """Termwise d/dT; the guaranteed bound drops by one."""
        out = []
        for i, c in enumerate(self.coeffs):
            e = self.low + i
            out.append(c * e)
        if self.coeffs:
            ser = TruncatedSeries(self.low - 1, out, self.low + len(out) - 2)
            return ser.truncate(self.bound - 1)
        return TruncatedSeries.zero(self.bound - 1)

    def __repr__(self) -> str:
        bits = []
        for i, c in enumerate(self.coeffs[:8]):
            bits.append(f"{c}*T^{self.low + i}")
        tail = " + ..." if len(self.coeffs) > 8 else ""
        body = " + ".join(bits) if bits else "0"
        return f"<series {body}{tail} (exact to T^{self.bound})>"


# -- generators ------------------------------------------------------------


def exp_series(a: Fraction | int, bound: int) -> TruncatedSeries:
    """e^{aT} = sum a^i T^i / i!, exact to the bound."""
    a = Fraction(a)
    coeffs = []
    power = Fraction(1)
    for i in range(bound + 1):
        coeffs.append(power / factorial(i))
        power *= a
    return TruncatedSeries(0, coeffs, bound)


def exp_minus_one_over_t(bound: int) -> TruncatedSeries:
    """(e^T - 1)/T = sum_i T^i/(i+1)!."""
    return TruncatedSeries(0, [Fraction(1, int(factorial(i + 1))) for i in range(bound + 1)], bound)


def grown_size(current: int, wanted: int) -> int:
    """The one growth rule of every table and cache: at least double, at least 32."""
    return max(wanted, 2 * current, 32)


class _Row(list):
    """A table row B^(n)_0, B^(n)_1, ...; ``get`` lets a test patch an entry as in a mapping."""

    def get(self, i, default=None):
        return self[i] if 0 <= i < len(self) else default


#: the rows of every order read so far; row 1, the Bernoulli numbers B_i, is
#: the table tests may tamper with to exercise selftest
_ROWS: dict[int, _Row] = {1: _Row()}
_BERNOULLI_TABLE = _ROWS[1]


def _bernoulli_numbers(size: int) -> list[Fraction]:
    """B_0..B_{size-1} from the tangent numbers T_m (Brent and Harvey's integer recurrence).

    B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)); B_1 = -1/2 and the other odd B_j vanish.
    """
    k = (size - 1) // 2
    t = [0] + [math.factorial(m - 1) for m in range(1, k + 1)]
    for j in range(2, k + 1):
        for m in range(j, k + 1):
            t[m] = (m - j) * t[m - 1] + (m - j + 2) * t[m]
    out = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (size - 2)
    for m in range(1, k + 1):
        out[2 * m] = Fraction((-1) ** (m - 1) * 2 * m * t[m], 4**m * (4**m - 1))
    return out[:size]


def common_numerators(values: list[Fraction]) -> tuple[int, list[int]]:
    """(d, [d * x for x in values]) for the least common denominator d."""
    d = math.lcm(*(x.denominator for x in values))
    return d, [x.numerator * (d // x.denominator) for x in values]


def _fill(n: int, size: int) -> None:
    """Extend the short row n to ``size`` entries; rows 1 and n - 1 already reach ``size``."""
    row = _ROWS[n]
    if n <= 1:
        new = _bernoulli_numbers(size) if n else [Fraction(int(not i)) for i in range(size)]
        row.extend(new[len(row) :])
        return
    # B^(n)_i = sum_j C(i,j) B^(n-1)_{i-j} B_j, where only B_0, B_1 and the even B_j
    # are nonzero, summed over integer numerators on common denominators
    (d, prev), (e, b) = common_numerators(_ROWS[n - 1][:size]), common_numerators(_ROWS[1][:size])
    for i in range(len(row), size):
        acc = prev[i] * b[0] + (i * prev[i - 1] * b[1] if i else 0)
        acc += sum(math.comb(i, j) * prev[i - j] * b[j] for j in range(2, i + 1, 2))
        row.append(Fraction(acc, d * e))


def _row(n: int, wanted: int) -> _Row:
    """Row n with at least ``wanted`` entries; a short row grows to :func:`grown_size`.

    The rows below that it pulls grow to exactly that size, so growth never
    cascades, and entries already in a row never change.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    row = _ROWS.setdefault(n, _Row())
    if len(row) < wanted:
        size = grown_size(len(row), wanted)
        for m in range(1, n + 1) if n else (0,):
            if len(_ROWS.setdefault(m, _Row())) < size:
                _fill(m, size)
    return row


def _series_of_row(n: int, bound: int) -> TruncatedSeries:
    row = _row(n, bound + 1)
    return TruncatedSeries(0, [row[i] / math.factorial(i) for i in range(bound + 1)], bound)


def bernoulli_series(bound: int) -> TruncatedSeries:
    """B(T) = T/(e^T - 1), exact to the bound, read from the Bernoulli table."""
    return _series_of_row(1, bound)


def bernoulli_number(i: int) -> Fraction:
    """The classical Bernoulli number B_i (order one)."""
    if i < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    return _row(1, i + 1)[i]


def bernoulli_power_series(n: int, bound: int) -> TruncatedSeries:
    """B^n exact to the bound, read from row n of the table."""
    return _series_of_row(n, bound)


def bernoulli_number_order(n: int, i: int) -> Fraction:
    """B^(n)_i = i! * [T^i] B^n."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    return _row(n, i + 1)[i]


def bernoulli_poly_value(n: int, i: int, x: Fraction | int) -> Fraction:
    """B^(n)_i(x) = i! * [T^i] (B^n e^{xT}), via the binomial convolution."""
    x, row, acc = Fraction(x), _row(n, i + 1), Fraction(0)
    for k in range(i + 1):
        acc = acc * x + math.comb(i, k) * row[k]  # Horner's rule for sum_k C(i,k) B^(n)_k x^(i-k)
    return acc


def bernoulli_polynomial(i: int) -> Poly:
    """The classical Bernoulli polynomial B_i(X) as an exact Poly."""
    row = _row(1, i + 1)
    return Poly([math.comb(i, k) * row[k] for k in range(i, -1, -1)])


def harmonic(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n."""
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def default_bound(max_order: int) -> int:
    """Working series bound for verifying identities up to a given order."""
    return 2 * max_order + 8
