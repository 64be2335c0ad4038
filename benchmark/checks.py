"""Answer checks that do not use the library under test.

Every reference value here comes from plain ``fractions.Fraction`` and ``math``
arithmetic: Bernoulli numbers from the recurrence sum_k C(n+1,k) B_k = 0,
Nörlund numbers from the order-lowering recurrence, Stirling numbers from the
explicit alternating sum, and series products from a schoolbook Cauchy
product.  The library's answers are compared against them after the timed
region of a session has ended.
"""

from __future__ import annotations

import math
from fractions import Fraction


class Oracle:
    """Reference tables, grown on demand and kept for one session."""

    def __init__(self):
        self.bernoulli: list[Fraction] = [Fraction(1)]
        self.norlund: dict[int, list[Fraction]] = {}

    def bernoulli_upto(self, n: int) -> list[Fraction]:
        """B_0..B_n from sum_{k=0}^{m} C(m+1,k) B_k = 0 (m >= 1)."""
        table = self.bernoulli
        while len(table) <= n:
            m = len(table)
            total = sum((math.comb(m + 1, k) * table[k] for k in range(m) if table[k]), Fraction(0))
            table.append(-total / (m + 1))
        return table

    def norlund_row(self, order: int, upto: int) -> list[Fraction]:
        """B^(order)_0..upto by B^(n+1)_i = (1 - i/n) B^(n)_i - i B^(n)_{i-1}."""
        row = self.norlund.get(order)
        if row is not None and len(row) > upto:
            return row
        if order == 0:
            row = [Fraction(1)] + [Fraction(0)] * upto
        elif order == 1:
            row = list(self.bernoulli_upto(upto)[: upto + 1])
        else:
            prev = self.norlund_row(order - 1, upto)
            n = order - 1
            row = [Fraction(1)]
            for i in range(1, upto + 1):
                row.append((1 - Fraction(i, n)) * prev[i] - i * prev[i - 1])
        self.norlund[order] = row
        return row


def staudt_clausen_denominator(n: int) -> int:
    """Denominator of B_n for even n >= 2: the product of primes p with (p-1) | n."""
    out = 1
    for d in range(1, n + 1):
        if n % d == 0 and _is_prime(d + 1):
            out *= d + 1
    return out


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1))


def stirling2(n: int, k: int) -> int:
    """S(n, k) = (1/k!) sum_j (-1)^j C(k, j) (k - j)^n."""
    if k < 0 or n < 0 or k > n:
        return 0
    total = sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
    return total // math.factorial(k)


def exp_coeffs(a: Fraction, bound: int) -> list[Fraction]:
    """Coefficients of e^{aT} for T^0..T^bound."""
    return [a**i / math.factorial(i) for i in range(bound + 1)]


def bpower_coeffs(oracle: Oracle, n: int, b: Fraction, bound: int) -> list[Fraction]:
    """Coefficients of B(bT)^n for T^0..T^bound."""
    row = oracle.norlund_row(n, bound)
    return [row[i] * b**i / math.factorial(i) for i in range(bound + 1)]


def cauchy(x: list[Fraction], y: list[Fraction], bound: int) -> list[Fraction]:
    """Product of two power series given from T^0, truncated at T^bound."""
    out = [Fraction(0)] * (bound + 1)
    for i, a in enumerate(x[: bound + 1]):
        if a:
            for j, c in enumerate(y[: bound + 1 - i]):
                out[i + j] += a * c
    return out


def product_coeffs(oracle: Oracle, factors, bound: int) -> list[Fraction]:
    """Coefficients of a product of ("B", scale, power), ("T", k), ("e", a), ("c", c) factors."""
    out = [Fraction(1)] + [Fraction(0)] * bound
    for kind, *args in factors:
        if kind == "B":
            scale, power = Fraction(args[0]), args[1]
            out = cauchy(out, bpower_coeffs(oracle, power, scale, bound), bound)
        elif kind == "e":
            out = cauchy(out, exp_coeffs(Fraction(args[0]), bound), bound)
        elif kind == "T":
            k = args[0]
            out = [Fraction(0)] * k + out[: bound + 1 - k]
        elif kind == "c":
            out = [Fraction(args[0]) * c for c in out]
        else:
            raise ValueError(f"unknown factor kind {kind!r}")
    return out


def element_coeffs(oracle: Oracle, atoms, bound: int) -> tuple[int, list[Fraction]]:
    """Coefficients of sum c T^m B(bT)^n e^{aT} over (m, n, b, a, c) atoms.

    Returns (lo, coeffs) with coeffs[k] the coefficient of T^(lo+k) up to
    T^bound, lo = min(0, smallest m).  Atoms are grouped by (n, b), so each
    group costs one Cauchy product with B(bT)^n.
    """
    atoms = list(atoms)
    lo = min([0] + [m for m, _, _, _, _ in atoms])
    width = bound - lo
    groups: dict[tuple[int, Fraction], list[Fraction]] = {}
    for m, n, b, a, c in atoms:
        inner = groups.setdefault((n, b), [Fraction(0)] * (width + 1))
        for j, v in enumerate(exp_coeffs(a, bound - m)):
            inner[m - lo + j] += c * v
    total = [Fraction(0)] * (width + 1)
    for (n, b), inner in groups.items():
        for k, v in enumerate(cauchy(inner, bpower_coeffs(oracle, n, b, width), width)):
            total[k] += v
    return lo, total
