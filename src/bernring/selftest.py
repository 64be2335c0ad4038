"""The acceptance suite: every shipped claim, checked exactly, with time limits.

Each criterion is a named check returning (ok, detail); the runner times it
and a criterion passes only if the check holds AND it finished inside its
stated limit.  The same checks back the ``selftest`` CLI subcommand and the
pytest acceptance module.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from typing import Callable

from .elements import Atom, BElement, atom, b_element, from_scalar
from .identities import (
    IdentityReport,
    beta_integral,
    beta_integral_by_quadrature,
    harmonic_integral,
    rademacher_operator,
    verify_23,
    verify_23_even,
    verify_235,
    verify_agoh_dilcher_example,
    verify_euler,
    verify_f_derivative,
    verify_kaneko,
    verify_lowering,
    verify_miki,
    verify_miki_s_relation,
    verify_multiplication,
    verify_rademacher,
    verify_recurrence,
    verify_stirling_gf,
)
from .partfrac import GPair, HFPair, g_pair, h_f
from .polys import Frozen, Poly, factorial, x_power_minus_one
from .reduction import (
    DCombination,
    agoh_dilcher_reduce,
    f_n_closed,
    f_n_inductive,
    lowering_op,
    negative_power_expand,
    product_reduce,
    reduce_to_first_order,
    stirling,
)
from .series import (
    TruncatedSeries,
    bernoulli_number,
    bernoulli_poly_value,
    bernoulli_series,
    exp_minus_one_over_t,
    exp_series,
    harmonic,
)
from .weyl import WeylOp, derivative_of_element


class CriterionResult(Frozen):
    __slots__ = ("index", "name", "limit", "ok", "seconds", "detail")

    def __init__(self, index: int, name: str, limit: float, ok: bool, seconds: float, detail: str):
        self._init(index, name, limit, ok, seconds, detail)

    @property
    def passed(self) -> bool:
        return self.ok and self.seconds < self.limit

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.index:2d} {self.name:<28s}"
            f" {self.seconds:7.2f}s (limit {self.limit:g}s)  {self.detail}"
        )


F = Fraction
LOWERING_SHIFTS = (F(0), F(1), F(3, 2))

#: every ``verify_*`` family with its cases: the criteria check these, and
#: ``scripts/verify_grid.py`` prints one report per case in this order
GRID: dict[Callable[..., IdentityReport], list[tuple]] = {
    verify_euler: [(m,) for m in range(2, 31)],
    verify_recurrence: [(n,) for n in range(0, 61)],
    verify_multiplication: [
        (m, n, a) for m in range(0, 31) for n in range(1, 7) for a in (F(0), F(1, 2), F(1), F(7, 3))
    ],
    verify_lowering: [(n, i, a) for n in range(1, 9) for i in range(1, 31) for a in LOWERING_SHIFTS],
    verify_agoh_dilcher_example: [(n,) for n in range(0, 31)],
    verify_rademacher: [(n,) for n in range(4, 25)],
    verify_23: [(n,) for n in range(2, 25)],
    verify_23_even: [(n,) for n in range(2, 25)],
    verify_235: [(n,) for n in range(2, 25)],
    verify_miki: [(n,) for n in range(4, 31)],
    verify_miki_s_relation: [(20,)],
    verify_kaneko: [(k,) for k in range(1, 16)],
    verify_stirling_gf: [(n, k) for n in range(0, 21) for k in range(1, 7)],
    verify_f_derivative: [(n,) for n in range(0, 11)],
}


def grid_reports(*families) -> list[IdentityReport]:
    """One report per grid case of each family, in the given order."""
    return [fn(*case) for fn in families for case in GRID[fn]]


def _all_verified(reports) -> tuple[bool, str]:
    reports = list(reports)
    bad = [r for r in reports if not r.verified]
    if bad:
        first = bad[0]
        return False, f"{len(bad)}/{len(reports)} failed, first: {first.name}{dict(first.params)}"
    return True, f"{len(reports)} instances verified"


# -- criterion checks ----------------------------------------------------------


def _grid_check(*families, then: Callable[[], tuple[bool, str]] | None = None) -> Callable[[], tuple[bool, str]]:
    """The check that every grid case of the given families verifies and, once they do, that ``then``
    holds; the detail of a passing ``then`` follows the grid's, and a failing one's stands alone."""

    def check() -> tuple[bool, str]:
        ok, detail = _all_verified(grid_reports(*families))
        if not ok or then is None:
            return ok, detail
        ok, more = then()
        return ok, f"{detail}; {more}" if ok else more

    return check


def check_bernoulli_baseline():
    ok = bernoulli_number(0) == 1 and bernoulli_number(1) == Fraction(-1, 2)
    ok = ok and all(bernoulli_number(2 * k + 1) == 0 for k in range(1, 31))
    ok = ok and bernoulli_number(4) == Fraction(-1, 30) and b_element().coeff(4) == Fraction(-1, 720)
    n = 40
    prod = bernoulli_series(n) * exp_minus_one_over_t(n)
    ok = ok and all(prod.coeff(i) == (1 if i == 0 else 0) for i in range(n + 1))
    return ok, "B0, B1, odd vanishing through B61, B4, defining product"


def check_lowering():
    # cross-check every value against B^n e^{aT} built as Cauchy powers of row 1 alone: the rows of
    # order >= 2 are built by the lowering identity that criterion 5 checks, so they cannot check it
    b, power = bernoulli_series(30), TruncatedSeries.one(30)
    for n in range(1, 10):
        power = power * b
        for a in LOWERING_SHIFTS:
            ser = power * exp_series(a, 30) if a else power
            for i in range(31):
                if ser.coeff(i) * factorial(i) != bernoulli_poly_value(n, i, a):
                    return False, f"series cross-check failed at n={n}, i={i}, a={a}"
    return True, "series cross-check to order 30"


def _g_recombines(pair: GPair) -> bool:
    lhs = x_power_minus_one(pair.ell) ** 2
    rhs = (
        x_power_minus_one(pair.n) * x_power_minus_one(pair.m) * Fraction(pair.ell**2, pair.m * pair.n)
        + pair.g_nm * x_power_minus_one(pair.m) * x_power_minus_one(pair.ell) ** 2
        + pair.g_mn * x_power_minus_one(pair.n) * x_power_minus_one(pair.ell) ** 2
    )
    return lhs == rhs


def _hf_recombines(pair: HFPair) -> bool:
    lhs = x_power_minus_one(pair.ell)
    rhs = pair.h * x_power_minus_one(pair.n) + pair.f * x_power_minus_one(pair.ell) ** (pair.k + 1)
    return lhs == rhs


def check_partial_fractions():
    half = Fraction(1, 2)
    goldens = [
        (g_pair(2, 3).g_mn, Poly([-half])),
        (g_pair(2, 3).g_nm, Poly([-Fraction(1, 3), Fraction(1, 3)])),
        (g_pair(2, 5).g_mn, Poly([-half])),
        (g_pair(2, 5).g_nm, Poly([Fraction(-2, 5), Fraction(1, 5), Fraction(-1, 5), Fraction(2, 5)])),
        (g_pair(3, 5).g_mn, Poly([-Fraction(1, 3), Fraction(1, 3)])),
        (g_pair(3, 5).g_nm, Poly([Fraction(-3, 5), Fraction(-1, 5), Fraction(1, 5), Fraction(-2, 5)])),
        (h_f(2, 1, 5).h, Poly([Fraction(3, 5), Fraction(-2, 5)])),
        (h_f(2, 1, 5).f, Poly([Fraction(2, 5), Fraction(3, 5), Fraction(3, 5), Fraction(2, 5)])),
    ]
    for got, expected in goldens:
        if got != expected:
            return False, f"golden mismatch: {got!r} != {expected!r}"
    for m in range(1, 25):
        for n in range(1, 25):
            if m == n:
                continue
            pair = g_pair(m, n)
            if not _g_recombines(pair):
                return False, f"g recombination failed at ({m},{n})"
            if pair.g_mn.degree >= m - pair.ell or pair.g_nm.degree >= n - pair.ell:
                return False, f"g degree bound violated at ({m},{n})"
    for n in range(2, 25):
        for ell in (d for d in range(1, n) if n % d == 0):
            for k in range(1, 7):
                pair = h_f(k, ell, n)
                if not _hf_recombines(pair):
                    return False, f"h/f recombination failed at ({k},{ell},{n})"
                if pair.h.degree >= k * ell or pair.f.degree >= n - ell:
                    return False, f"h/f degree bound violated at ({k},{ell},{n})"
    return True, "printed goldens, recombination and degree bounds for m,n <= 24, k <= 6"


def _golden_23() -> BElement:
    return (
        atom(0, 2, 1, 0)
        + atom(1, 1, 3, 1).scale(Fraction(2, 3))
        - atom(1, 1, 3, 0).scale(Fraction(2, 3))
        - atom(1, 1, 2, 0).scale(Fraction(3, 2))
    )


def _golden_sq5() -> BElement:
    return (
        atom(2, 1, 5, 3).scale(Fraction(2, 5))
        + atom(2, 1, 5, 2).scale(Fraction(3, 5))
        + atom(2, 1, 5, 1).scale(Fraction(3, 5))
        + atom(2, 1, 5, 0).scale(Fraction(2, 5))
        + atom(0, 3, 1, 1).scale(-2)
        + atom(0, 3, 1, 0).scale(3)
    )


def check_product_goldens():
    got_23 = product_reduce(atom(0, 1, 2, 0), atom(0, 1, 3, 0))
    got_sq5 = product_reduce(atom(0, 2, 1, 0), atom(0, 1, 5, 0))
    ok = got_23.equals(_golden_23()) and got_sq5.equals(_golden_sq5())
    return ok, "B(2T)B(3T) and B^2 B(5T) match the printed right-hand sides"


def _golden_triple_combination() -> DCombination:
    f = Fraction
    return DCombination(
        {
            Atom(b=f(1), n=1, m=0, a=f(0)): WeylOp(
                {
                    2: Poly.monomial(2, f(1, 2)),
                    1: Poly.monomial(2, 5) - Poly.monomial(1),
                    0: Poly([1, -5, f(9, 2)]),
                }
            ),
            Atom(b=f(2), n=1, m=0, a=f(0)): WeylOp({0: Poly.monomial(2, f(15, 4))}),
            Atom(b=f(3), n=1, m=0, a=f(1)): WeylOp({0: Poly.monomial(2, f(-10, 3))}),
            Atom(b=f(5), n=1, m=0, a=f(3)): WeylOp({0: Poly.monomial(2, f(6, 5))}),
            Atom(b=f(5), n=1, m=0, a=f(2)): WeylOp({0: Poly.monomial(2, f(6, 5))}),
            Atom(b=f(5), n=1, m=0, a=f(0)): WeylOp({0: Poly.monomial(2, f(18, 5))}),
        }
    )


def check_triple_product():
    triple = product_reduce(
        product_reduce(atom(0, 1, 2, 0), atom(0, 1, 3, 0)), atom(0, 1, 5, 0)
    )
    combo = reduce_to_first_order(triple)
    golden = _golden_triple_combination()
    ok = combo.equals(golden) and triple.equals(golden.semantic_element())
    return ok, "B(2T)B(3T)B(5T) reduction equals the printed operator combination"


def check_derivative_polynomials():
    for n in range(13):
        if f_n_closed(n) != f_n_inductive(n):
            return False, f"closed and inductive f_{n} differ"
        if f_n_closed(n).den != 1:
            return False, f"f_{n} has a non-integer coefficient"
    ok, detail = _all_verified(grid_reports(verify_f_derivative))
    return ok, "f_n forms agree and are integral (n <= 12); " + detail


def check_agoh_dilcher():
    golden = WeylOp(
        {
            3: Poly.monomial(1, Fraction(-1, 6)),
            2: Poly.const(Fraction(-1, 2)),
            1: Poly([-1, Fraction(1, 6)]),
            0: Poly.const(Fraction(-1, 6)),
        }
    )
    combo = agoh_dilcher_reduce(1, 1)
    if set(combo.entries) != {Atom(b=Fraction(1), n=1, m=0, a=Fraction(0))}:
        return False, "derivative-square reduction has unexpected generators"
    if combo.op_for(1, 1, 0) != golden:
        return False, "derivative-square operator differs from the printed one"
    return True, "printed operator matched structurally"


def check_rademacher():
    b_prime = derivative_of_element(b_element())
    squared = product_reduce(b_prime, b_prime).mul_monomial(2)
    for n in range(4, 11):
        lhs = squared - atom(0, 2, 1, 0).scale(2 * n - 1)
        rhs = rademacher_operator(n).apply_element(b_element())
        if not lhs.equals(rhs):
            return False, f"combined relation failed semantically at n={n}"
    return True, "combined operator relation for n=4..10"


def check_miki():
    if not all(r.verified for r in grid_reports(verify_miki_s_relation)):
        return False, "parameterized product relation failed at order 20"
    for i in range(1, 11):
        for j in range(1, 11):
            if beta_integral(i, j) != beta_integral_by_quadrature(i, j):
                return False, f"Beta value mismatch at ({i},{j})"
    for n in range(1, 11):
        if harmonic_integral(n) != 2 * harmonic(n - 1):
            return False, f"harmonic companion mismatch at n={n}"
    return True, "s-relation to order 20, Beta and harmonic companions"


def _set_partitions_count(n: int, k: int) -> int:
    """Brute-force S(n,k): count partitions of {0..n-1} into k nonempty blocks."""

    def rec(rest: tuple[int, ...], blocks: tuple[tuple[int, ...], ...]) -> int:
        if not rest:
            return 1 if len(blocks) == k else 0
        head, tail = rest[0], rest[1:]
        total = 0
        for idx in range(len(blocks)):
            grown = blocks[:idx] + (blocks[idx] + (head,),) + blocks[idx + 1 :]
            total += rec(tail, grown)
        if len(blocks) < k:
            total += rec(tail, blocks + ((head,),))
        return total

    return rec(tuple(range(n)), ())


def check_stirling_gf():
    for n in range(8):
        for k in range(n + 1):
            if stirling(n, k) != _set_partitions_count(n, k):
                return False, f"S({n},{k}) does not match the set-partition enumeration"
    return True, "S(n,k) for 0 <= k <= n <= 7 by enumeration"


# -- randomized property suites --------------------------------------------------

SCALES = [Fraction(1), Fraction(2), Fraction(3), Fraction(5), Fraction(1, 2), Fraction(3, 2)]
SHIFTS = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1), Fraction(2)]
COEFFS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3), Fraction(5, 3)]


def random_element(rng: random.Random, max_atoms: int = 3, max_n: int = 3) -> BElement:
    acc = BElement.zero()
    for _ in range(rng.randint(1, max_atoms)):
        n = rng.randint(0, max_n)
        piece = atom(rng.randint(-2, 2), n, rng.choice(SCALES), rng.choice(SHIFTS))
        acc = acc + piece.scale(rng.choice(COEFFS))
    return acc


def random_weyl_op(rng: random.Random, max_order: int = 4, max_degree: int = 4) -> WeylOp:
    parts = {}
    for k in rng.sample(range(max_order + 1), rng.randint(1, 3)):
        coeffs = [rng.choice(COEFFS + [Fraction(0)]) for _ in range(rng.randint(1, max_degree + 1))]
        parts[k] = Poly(coeffs)
    return WeylOp(parts)


def random_series(rng: random.Random, bound: int = 32) -> TruncatedSeries:
    low = rng.randint(-2, 2)
    coeffs = [rng.choice(COEFFS + [Fraction(0)]) for _ in range(bound - low + 1)]
    return TruncatedSeries(low, coeffs, bound)


def _known_zero(rng: random.Random) -> BElement:
    kind = rng.randrange(3)
    if kind == 0:
        # the multiplication-theorem combination sums to n*B
        n = rng.randint(2, 6)
        base = sum((atom(0, 1, n, i) for i in range(n)), b_element().scale(-n))
    elif kind == 1:
        base = atom(0, 1, 1, 1) - atom(0, 1, 1, 0) - atom(1, 0, 1, 0)
    else:
        base = atom(0, 2, 1, 1) - atom(0, 2, 1, 0) - atom(1, 1, 1, 0)
    return base.mul_monomial(rng.randint(-1, 2), rng.choice(SHIFTS)).scale(rng.choice(COEFFS))


def check_reduction_soundness():
    rng = random.Random(20260809)
    count = 0
    for _ in range(120):
        x = random_element(rng, max_atoms=2)
        y = random_element(rng, max_atoms=2)
        prod = product_reduce(x, y)
        direct = x.expand(24) * y.expand(24)
        if not prod.expand(direct.bound).same_up_to(direct, direct.bound):
            return False, f"product_reduce unsound on {x.render()} times {y.render()}"
        count += 1
    for _ in range(40):
        x = random_element(rng)
        combo = reduce_to_first_order(x)
        if not combo.semantic_element().equals(x):
            return False, f"reduce_to_first_order unsound on {x.render()}"
        count += 1
    for _ in range(20):
        n = rng.randint(2, 4)
        m, b, a = rng.randint(-2, 2), rng.choice(SCALES), rng.choice(SHIFTS)
        at = atom(m, n, b, a)
        lowered = lowering_op(n - 1, b, a).apply_element(atom(0, n - 1, b, a)).mul_monomial(m)
        if not lowered.equals(at):
            return False, f"lowering operator unsound on {at.render()}"
        count += 1
    for m in range(3):
        for n in range(3):
            combo = agoh_dilcher_reduce(m, n)
            want = product_reduce(f_n_inductive(m), f_n_inductive(n)).mul_monomial(-(m + n))
            if not combo.semantic_element().equals(want):
                return False, f"derivative-product reduction unsound at ({m},{n})"
            count += 1
    for k in range(1, 12):
        got = product_reduce(negative_power_expand(k), atom(0, k, 1, 0))
        if not got.equals(from_scalar(1)):
            return False, f"negative power unsound at k={k}"
        count += 1
    return True, f"{count} reduction soundness instances"


def check_weyl_representation():
    rng = random.Random(113355)
    for i in range(200):
        p = random_weyl_op(rng)
        q = random_weyl_op(rng)
        x = random_series(rng)
        combined = (p * q).apply_series(x)
        stepwise = p.apply_series(q.apply_series(x))
        bound = min(combined.bound, stepwise.bound)
        if not combined.same_up_to(stepwise, bound):
            return False, f"representation property failed at case {i}"
    return True, "200 operator/series triples"


def check_zero_test_agreement():
    rng = random.Random(424242)
    zeros = nonzeros = 0
    for i in range(200):
        if i % 4 == 0:
            x = _known_zero(rng)
        else:
            x = random_element(rng)
        claimed = x.is_zero()
        ser = x.expand(40)
        if claimed:
            if not ser.is_known_zero():
                return False, f"zero test claimed zero on a nonzero element (case {i})"
            zeros += 1
        else:
            if ser.is_known_zero() and x.expand(80).is_known_zero():
                return False, f"zero test escape: no nonzero coefficient to order 80 (case {i})"
            nonzeros += 1
    return True, f"{zeros} zero / {nonzeros} nonzero elements agree with series"


def check_property_suites():
    for fn in (check_reduction_soundness, check_weyl_representation, check_zero_test_agreement):
        ok, detail = fn()
        if not ok:
            return ok, detail
    return True, "reduction soundness, representation property, zero-test agreement"


CRITERIA: list[tuple[int, str, float, Callable[[], tuple[bool, str]]]] = [
    (1, "bernoulli-baseline", 1.0, check_bernoulli_baseline),
    (2, "euler", 1.0, _grid_check(verify_euler)),
    (3, "recurrence", 1.0, _grid_check(verify_recurrence)),
    (4, "multiplication", 5.0, _grid_check(verify_multiplication)),
    (5, "order-lowering", 10.0, _grid_check(verify_lowering, then=check_lowering)),
    (6, "partial-fractions", 2.0, check_partial_fractions),
    (7, "product-goldens", 2.0, check_product_goldens),
    (8, "triple-product", 5.0, check_triple_product),
    (9, "multinomial-identities", 5.0, _grid_check(verify_235, verify_23, verify_23_even)),
    (10, "derivative-polynomials", 5.0, check_derivative_polynomials),
    (11, "agoh-dilcher", 5.0, _grid_check(verify_agoh_dilcher_example, then=check_agoh_dilcher)),
    (12, "rademacher", 10.0, _grid_check(verify_rademacher, then=check_rademacher)),
    (13, "miki", 10.0, _grid_check(verify_miki, then=check_miki)),
    (14, "kaneko", 5.0, _grid_check(verify_kaneko)),
    (15, "stirling-gf", 2.0, _grid_check(verify_stirling_gf, then=check_stirling_gf)),
    (16, "property-suites", 60.0, check_property_suites),
]

TOTAL_LIMIT = 120.0


def run_criterion(index: int, name: str, limit: float, fn) -> CriterionResult:
    start = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as exc:  # a crash is a failure, not an abort
        ok, detail = False, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return CriterionResult(index=index, name=name, limit=limit, ok=ok, seconds=elapsed, detail=detail)


def run_all() -> list[CriterionResult]:
    return [run_criterion(*entry) for entry in CRITERIA]


def selftest_main(out: list[str], json_output: bool = False) -> int:
    """Run the suite and append its report to ``out``, one JSON document or one line per criterion and a total."""
    results = run_all()
    total = sum(r.seconds for r in results)
    all_passed = all(r.passed for r in results) and total < TOTAL_LIMIT
    if json_output:
        payload = {
            "criteria": [
                {
                    "index": r.index,
                    "name": r.name,
                    "passed": r.passed,
                    "seconds": round(r.seconds, 3),
                    "limit": r.limit,
                    "detail": r.detail,
                }
                for r in results
            ],
            "total_seconds": round(total, 3),
            "total_limit": TOTAL_LIMIT,
            "passed": all_passed,
        }
        out.append(json.dumps(payload, indent=2))
    else:
        out.extend(r.line() for r in results)
        status = "PASS" if all_passed else "FAIL"
        out.append(
            f"[{status}] total {total:.2f}s (limit {TOTAL_LIMIT:g}s), "
            f"{sum(r.passed for r in results)}/{len(results)} criteria passed"
        )
    return 0 if all_passed else 1
