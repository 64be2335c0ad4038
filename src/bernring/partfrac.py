"""Exact partial-fraction decompositions for products of (X^k - 1) factors.

Two families of decomposition polynomials drive the product reduction of
Bernoulli-type series:

* ``g_pair(m, n)`` splits 1/((X^n-1)(X^m-1)) for distinct m, n into a pinned
  double-pole term at the gcd scale plus one simple term per factor.
* ``h_f(k, ell, n)`` splits 1/((X^ell-1)^k (X^n-1)) for ell | n into a pole of
  order k+1 at the divisor scale plus a simple term at scale n.

Both are computed once at the coprime level (extended Euclid / an inductive
coefficient recurrence) and lifted by the substitution X -> X^ell.  A general
multi-factor decomposition is provided by :func:`lemma_decompose`, obtained by
merging factors pairwise; it promises only the recombination identity and the
bound (pole order) <= sum of the input multiplicities, not a canonical form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .polys import Poly, binomial, cyclotomic_sum, gcd_ext, x_power_minus_one


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


def h_via_bezout(k: int, n: int) -> Poly:
    """Independent route to h^(k)_{1,n}: invert 1+X+...+X^(n-1) modulo (X-1)^k."""
    modulus = Poly([-1, 1]) ** k
    g, u, _ = gcd_ext(cyclotomic_sum(n), modulus)
    if g != Poly.one():
        raise ValueError("cofactors unexpectedly not coprime")
    return u % modulus


def _three_way(a_poly: Poly, b_poly: Poly, c_poly: Poly) -> tuple[Poly, Poly, Poly]:
    """Split 1/(A*B*C) = alpha/A + beta/B + gamma/C for pairwise-coprime inputs.

    beta and gamma are reduced modulo their denominators; alpha absorbs the rest
    and is recovered by an exact division, which doubles as a consistency check.
    """
    if b_poly == Poly.one():
        beta = Poly.zero()
    else:
        _, u, _ = gcd_ext(a_poly * c_poly, b_poly)
        beta = u % b_poly
    if c_poly == Poly.one():
        gamma = Poly.zero()
    else:
        _, u, _ = gcd_ext(a_poly * b_poly, c_poly)
        gamma = u % c_poly
    alpha = (Poly.one() - beta * a_poly * c_poly - gamma * a_poly * b_poly).exact_div(
        b_poly * c_poly
    )
    return alpha, beta, gamma


def _merge_pair(k1: int, n1: int, k2: int, n2: int) -> list[tuple[Poly, int, int]]:
    """Decompose 1/((X^k1-1)^n1 (X^k2-1)^n2) for distinct k1, k2.

    Returns (numerator, scale, pole order) triples; pole orders are bounded by
    n1 + n2.  Solved at the coprime level and lifted by X -> X^gcd.
    """
    kc = math.gcd(k1, k2)
    h1, h2 = k1 // kc, k2 // kc
    alpha, beta, gamma = _three_way(
        Poly([-1, 1]) ** (n1 + n2),
        cyclotomic_sum(h1) ** n1,
        cyclotomic_sum(h2) ** n2,
    )
    out = []
    if not alpha.is_zero():
        out.append((alpha.compose_power(kc), kc, n1 + n2))
    if not beta.is_zero():
        out.append((_lifted_cofactor(beta, kc, n1), k1, n1))
    if not gamma.is_zero():
        out.append((_lifted_cofactor(gamma, kc, n2), k2, n2))
    return out


def _lifted_cofactor(poly: Poly, kc: int, power: int) -> Poly:
    """Lift a numerator over phi^power to one over (X^k-1)^power.

    After X -> X^kc the denominator phi(X^kc)^power equals
    ((X^k-1)/(X^kc-1))^power, so the numerator picks up (X^kc-1)^power.
    """
    return poly.compose_power(kc) * x_power_minus_one(kc) ** power


def lemma_decompose(factors: list[tuple[int, int]]) -> list[tuple[Poly, int, int]]:
    """General decomposition of 1/prod (X^k_i - 1)^n_i into sum g_i/(X^m_i-1)^l_i.

    Every returned pole order l_i is at most the total multiplicity sum(n_i).
    The decomposition is not unique; only the recombination identity and the
    order bound are promised.
    """
    if not factors:
        raise ValueError("need at least one factor")
    merged: dict[int, int] = {}
    for k, n in factors:
        if k < 1 or n < 1:
            raise ValueError("factors must have positive scale and multiplicity")
        merged[k] = merged.get(k, 0) + n
    items = sorted(merged.items())
    acc: dict[tuple[int, int], Poly] = {(items[0][0], items[0][1]): Poly.one()}
    for k, n in items[1:]:
        grown: dict[tuple[int, int], Poly] = {}
        for (mk, ml), g in acc.items():
            if mk == k:
                key = (mk, ml + n)
                grown[key] = grown.get(key, Poly.zero()) + g
                continue
            for piece, scale, order in _merge_pair(mk, ml, k, n):
                key = (scale, order)
                grown[key] = grown.get(key, Poly.zero()) + g * piece
        acc = {key: g for key, g in grown.items() if not g.is_zero()}
    return [(g, scale, order) for (scale, order), g in sorted(acc.items())]
