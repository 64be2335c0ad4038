"""Exact partial-fraction decompositions for products of (X^k - 1) factors.

Two families of decomposition polynomials drive the product reduction of
Bernoulli-type series:

* ``g_pair(m, n)`` splits 1/((X^n-1)(X^m-1)) for distinct m, n into a pinned
  double-pole term at the gcd scale plus one simple term per factor.
* ``h_f(k, ell, n)`` splits 1/((X^ell-1)^k (X^n-1)) for ell | n into a pole of
  order k+1 at the divisor scale plus a simple term at scale n.

Both are computed once at the coprime level (extended Euclid / an inductive
coefficient recurrence) and lifted by the substitution X -> X^ell.  The general
multi-factor decomposition, :func:`lemma_decompose`, is read off the rewrite of
:func:`bernring.reduction.product_reduce`: with X = e^U, 1/(X^k-1) = B(kU)/(kU),
so the product of the factors is one pending row of that rewrite, and each row
it leaves with a single scale is one term.  It promises only the recombination
identity and the bound (pole order) <= sum of the input multiplicities, not a
canonical form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .polys import Poly, binomial, cyclotomic_sum, gcd_ext


@dataclass(frozen=True)
class GPair:
    """Decomposition data for 1/((X^n-1)(X^m-1)), m != n.

    Identity: 1/((X^n-1)(X^m-1)) =
        ell^2/(m n (X^ell-1)^2) + g_nm/(X^n-1) + g_mn/(X^m-1),
    with deg g_mn < m - ell and deg g_nm < n - ell.
    """

    m: int
    n: int
    ell: int
    g_mn: Poly
    g_nm: Poly


@dataclass(frozen=True)
class HFPair:
    """Decomposition data for 1/((X^ell-1)^k (X^n-1)), ell a proper divisor of n.

    Identity: 1/((X^ell-1)^k (X^n-1)) =
        h/(X^ell-1)^(k+1) + f/(X^n-1),
    with deg h < k*ell and deg f < n - ell.
    """

    k: int
    ell: int
    n: int
    h: Poly
    f: Poly


@lru_cache(maxsize=None)
def g_pair(m: int, n: int) -> GPair:
    """The simple-pole numerators for the two-factor decomposition."""
    if m < 1 or n < 1:
        raise ValueError("scales must be positive")
    if m == n:
        raise ValueError("g_pair requires distinct scales")
    ell = math.gcd(m, n)
    mh, nh = m // ell, n // ell
    phi_m = cyclotomic_sum(mh)
    phi_n = cyclotomic_sum(nh)
    # Pin the double-pole term 1/(mh*nh*(X-1)); the rest splits over the
    # coprime cofactors phi_m, phi_n by Bezout.
    numerator = Poly.one() - phi_m * phi_n / Fraction(mh * nh)
    lhs = numerator.exact_div(Poly([-1, 1]))
    _, _, v = gcd_ext(phi_m, phi_n)
    g_mn_hat = (lhs * v) % phi_m
    g_nm_hat = (lhs - g_mn_hat * phi_n).exact_div(phi_m)
    return GPair(m=m, n=n, ell=ell, g_mn=g_mn_hat.compose_power(ell), g_nm=g_nm_hat.compose_power(ell))


@lru_cache(maxsize=None)
def h_f(k: int, ell: int, n: int) -> HFPair:
    """The order-raising/simple pair for 1/((X^ell-1)^k (X^n-1))."""
    if k < 1 or ell < 1 or n < 1:
        raise ValueError("parameters must be positive")
    if n % ell != 0:
        raise ValueError(f"{ell} does not divide {n}")
    if ell == n:
        raise ValueError("decomposition needs a proper divisor (ell < n)")
    nh = n // ell
    # h in the basis (X-1)^j: a_0 = 1/nh, then each next coefficient kills the
    # next (X-1)-adic coefficient of h * (1 + X + ... + X^(nh-1)) - 1.
    a = [Fraction(1, nh)]
    for i in range(2, k + 1):
        acc = Fraction(0)
        for j in range(i - 1):
            acc += a[j] * binomial(nh, i - j)
        a.append(-acc / nh)
    x_minus_one = Poly([-1, 1])
    h_hat = sum((x_minus_one**j * aj for j, aj in enumerate(a)), Poly.zero())
    f_hat = (Poly.one() - cyclotomic_sum(nh) * h_hat).exact_div(x_minus_one**k)
    return HFPair(k=k, ell=ell, n=n, h=h_hat.compose_power(ell), f=f_hat.compose_power(ell))


def lemma_decompose(factors: list[tuple[int, int]]) -> list[tuple[Poly, int, int]]:
    """General decomposition of 1/prod (X^k_i - 1)^n_i into sum g_i/(X^m_i-1)^l_i.

    With X = e^U, 1/(X^k-1) = B(kU)/(kU), so the product is U^-N prod B(k_i U)^n_i over
    prod k_i^n_i, N = sum(n_i): one row of the product reduction with r = -N.  Its rewrite keeps
    r + sum of the B-powers, so a row it leaves with one scale m and power l is
    U^-l B(mU)^l row(X) = m^l row(X)/(X^m-1)^l, and no power grows past N.  The terms come
    sorted by (m, l).  The decomposition is not unique; only the recombination identity and
    the order bound are promised.
    """
    # Imported here: a module-level import would be circular, as reduction imports g_pair and h_f.
    from .reduction import _drain, _push

    if not factors:
        raise ValueError("need at least one factor")
    merged: dict[int, int] = {}
    for k, n in factors:
        if k < 1 or n < 1:
            raise ValueError("factors must have positive scale and multiplicity")
        merged[k] = merged.get(k, 0) + n
    buckets: list[dict] = []
    _push(buckets, -sum(merged.values()), merged, ([1], math.prod(k**n for k, n in merged.items()), 0))
    terms = []
    for _, finished, (num, den, lo) in _drain(buckets):
        ((m, l),) = finished.items()
        if any(num):
            terms.append((Poly([0] * lo + [Fraction(m**l * v, den) for v in num]), m, l))
    return sorted(terms, key=lambda term: term[1:])
