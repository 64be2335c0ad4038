"""Exact partial-fraction decompositions for products of (X^k - 1) factors.

Two families of decomposition polynomials drive the product reduction of
Bernoulli-type series:

* ``g_pair(m, n)`` splits 1/((X^n-1)(X^m-1)) for distinct m, n into a pinned
  double-pole term at the gcd scale plus one simple term per factor.
* ``h_f(k, ell, n)`` splits 1/((X^ell-1)^k (X^n-1)) for ell | n into a pole of
  order k+1 at the divisor scale plus a simple term at scale n.

Both are computed once at the coprime level, in integers over one denominator,
and lifted by the substitution X -> X^ell: ``g_pair`` in closed form from its
values at the roots of unity, ``h_f`` by an inductive coefficient recurrence in
the basis (X-1)^j and running sums for the divisions by X - 1.  The general
multi-factor decomposition, :func:`lemma_decompose`, is read off the rewrite of
:func:`bernring.reduction.product_reduce`: with X = e^U, 1/(X^k-1) = B(kU)/(kU),
so the product of the factors is one pending row of that rewrite, and each row
it leaves with a single scale is one term.  It promises only the recombination
identity and the bound (pole order) <= sum of the input multiplicities, not a
canonical form.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate

from .polys import Frozen, Poly


class GPair(Frozen):
    """Decomposition data for 1/((X^n-1)(X^m-1)), m != n.

    Identity: 1/((X^n-1)(X^m-1)) =
        ell^2/(m n (X^ell-1)^2) + g_nm/(X^n-1) + g_mn/(X^m-1),
    with deg g_mn < m - ell and deg g_nm < n - ell.
    """

    __slots__ = ("m", "n", "ell", "g_mn", "g_nm")

    def __init__(self, m: int, n: int, ell: int, g_mn: Poly, g_nm: Poly):
        self._init(m, n, ell, g_mn, g_nm)


class HFPair(Frozen):
    """Decomposition data for 1/((X^ell-1)^k (X^n-1)), ell a proper divisor of n.

    Identity: 1/((X^ell-1)^k (X^n-1)) =
        h/(X^ell-1)^(k+1) + f/(X^n-1),
    with deg h < k*ell and deg f < n - ell.
    """

    __slots__ = ("k", "ell", "n", "h", "f")

    def __init__(self, k: int, ell: int, n: int, h: Poly, f: Poly):
        self._init(k, ell, n, h, f)


def _times_phi(p: list[int], n: int) -> list[int]:
    """p times 1 + X + ... + X^(n-1): each coefficient a sum over a window of p."""
    return [sum(p[max(0, e - n + 1) : e + 1]) for e in range(len(p) + n - 1)]


@lru_cache(maxsize=None)
def g_pair(m: int, n: int) -> GPair:
    """The simple-pole numerators for the two-factor decomposition.

    At the coprime level mh = m/ell, nh = n/ell, clearing denominators gives
    1 = phi_mh phi_nh/(mh nh) + g_nm (X^mh - 1) + g_mn (X^nh - 1), phi_k = (X^k-1)/(X-1), so
    g_mn(z) = 1/(z^nh - 1) at each root z != 1 of X^mh - 1.  For any such root w,
    sum_{i<mh} i w^i = mh/(w - 1); with w = z^nh and i = u j mod mh, u = nh^-1 mod mh, the
    polynomial sum_j (u j mod mh) X^j / mh takes those values, and subtracting its top
    coefficient times phi_mh leaves degree < mh - 1, where the mh - 1 values fix g_mn.
    """
    if m < 1 or n < 1:
        raise ValueError("scales must be positive")
    if m == n:
        raise ValueError("g_pair requires distinct scales")
    ell = math.gcd(m, n)
    mh, nh = m // ell, n // ell

    def g(a: int, b: int) -> Poly:
        u = pow(b, -1, a)
        return Poly([u * j % a - a + u for j in range(a - 1)], a).compose_power(ell)

    return GPair(m=m, n=n, ell=ell, g_mn=g(mh, nh), g_nm=g(nh, mh))


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
    den = nh**k
    # h in the basis (X-1)^j, over nh^k: a_0 = nh^(k-1), then each next coefficient kills the next
    # (X-1)-adic coefficient of h * (1 + X + ... + X^(nh-1)) - nh^k.
    binom = [math.comb(nh, i) for i in range(k + 1)]
    a = [nh ** (k - 1)]
    for i in range(2, k + 1):
        a.append(-sum(aj * binom[i - j] for j, aj in enumerate(a)) // nh)
    # back to the basis X^e by Horner's rule in X - 1
    h_nums: list[int] = []
    for aj in reversed(a):
        h_nums = [x - y for x, y in zip([aj] + h_nums, h_nums + [0])]
    # f = (nh^k - phi_n h)/(X-1)^k by k divisions: p = (X-1) q gives q_i = -(p_0 + ... + p_i)
    f_nums = [-c for c in _times_phi(h_nums, nh)]
    f_nums[0] += den
    for _ in range(k):
        *sums, rem = accumulate(f_nums)
        if rem:
            raise ValueError("inexact division by X - 1")
        f_nums = [-c for c in sums]
    h, f = (Poly(nums, den).compose_power(ell) for nums in (h_nums, f_nums))
    return HFPair(k=k, ell=ell, n=n, h=h, f=f)


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
    _push(buckets, -sum(merged.values()), merged, ({0: 1}, math.prod(k**n for k, n in merged.items())))
    terms = []
    for _, finished, (num, den) in _drain(buckets):
        ((m, l),) = finished.items()
        if any(num.values()):
            terms.append((Poly([m**l * num.get(d, 0) for d in range(max(num) + 1)], den), m, l))
    return sorted(terms, key=lambda term: term[1:])
