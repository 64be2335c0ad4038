"""Acceptance suite: every criterion runs once, prints its line, and must pass.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines with timings; the same checks back ``bernring selftest``.
"""

from fractions import Fraction

import pytest

from bernring import selftest
from bernring.elements import BElement, atom, b_element
from bernring.identities import IdentityReport, verify_kaneko, verify_miki_s_relation
from bernring.partfrac import HFPair
from bernring.polys import Poly
from bernring.reduction import reduce_to_first_order
from bernring.selftest import CRITERIA, GRID, TOTAL_LIMIT, _grid_check
from bernring.weyl import WeylOp


@pytest.fixture(scope="module")
def results(selftest_results):
    return {r.index: r for r in selftest_results}


@pytest.mark.parametrize(
    "index", [entry[0] for entry in CRITERIA], ids=[f"{entry[0]:02d}-{entry[1]}" for entry in CRITERIA]
)
def test_criterion(results, index):
    result = results[index]
    print(result.line())
    assert result.ok, f"criterion {index} ({result.name}) failed: {result.detail}"
    assert result.seconds < result.limit, (
        f"criterion {index} ({result.name}) exceeded its time limit: "
        f"{result.seconds:.2f}s >= {result.limit:g}s"
    )


def test_criterion_17_full_selftest_budget(results):
    total = sum(r.seconds for r in results.values())
    print(f"[{'PASS' if total < TOTAL_LIMIT else 'FAIL'}] 17 selftest-total "
          f"{total:7.2f}s (limit {TOTAL_LIMIT:g}s)")
    assert total < TOTAL_LIMIT
    assert all(r.passed for r in results.values())


def test_grid_check_runs_its_second_check_after_the_grid():
    grid = f"{len(GRID[verify_kaneko])} instances verified"
    assert _grid_check(verify_kaneko)() == (True, grid)
    assert _grid_check(verify_kaneko, then=lambda: (True, "then held"))() == (True, f"{grid}; then held")
    assert _grid_check(verify_kaneko, then=lambda: (False, "then failed"))() == (False, "then failed")


def _passing(real):
    return lambda: (True, "not run")


def _failed_s_relation(real):
    failed = IdentityReport("miki-s-relation", (("N", Fraction(20)),), Fraction(0), Fraction(1), False)
    return lambda *families: [failed] if families == (verify_miki_s_relation,) else real(*families)


def _hf_past_the_golden(change):
    """A stand-in for ``h_f`` that gives the golden h_f(2, 1, 5) whole and ``change(real, k, ell, n)`` else."""
    return lambda real: lambda k, ell, n: real(k, ell, n) if (k, ell, n) == (2, 1, 5) else change(real, k, ell, n)


#: each criterion's failing details, each reached by breaking, one call at a time, what the criterion
#: checks: {(owner, name): the broken stand-in, built from the real one} and the detail it must report
#: (the property suites before the zero test are stubbed where the zero test alone is broken, so that no
#: library cache is filled under a broken zero test)
BROKEN = [
    (5, {(selftest, "bernoulli_poly_value"): lambda real: lambda n, i, a: real(n, i, a) + 1},
     "series cross-check failed at n=1, i=0, a=0"),
    (6, {(selftest, "g_pair"): lambda real: lambda m, n: real(n, m)},
     "golden mismatch: Poly(-1/3 + 1/3*X) != Poly(-1/2)"),
    (6, {(selftest, "x_power_minus_one"): lambda real: lambda n: real(n) + Poly([1])},
     "g recombination failed at (1,2)"),
    (6, {(selftest, "g_pair"): lambda real: lambda m, n: real(n, m) if (m, n) == (1, 2) else real(m, n)},
     "g degree bound violated at (1,2)"),
    (6, {(selftest, "h_f"): _hf_past_the_golden(lambda real, k, ell, n: HFPair(
        k, ell, n, real(k, ell, n).h, real(k, ell, n).f + Poly([1])))},
     "h/f recombination failed at (1,1,2)"),
    (6, {(selftest, "h_f"): _hf_past_the_golden(lambda real, k, ell, n: real(k + 1, ell, n))},
     "h/f degree bound violated at (1,1,2)"),
    (10, {(selftest, "f_n_closed"): lambda real: lambda n: real(n).scale(2)}, "closed and inductive f_0 differ"),
    (10, {(selftest, "f_n_closed"): lambda real: lambda n: real(n).scale(Fraction(1, 2)),
          (selftest, "f_n_inductive"): lambda real: lambda n: real(n).scale(Fraction(1, 2))},
     "f_0 has a non-integer coefficient"),
    (11, {(selftest, "agoh_dilcher_reduce"): lambda real: lambda m, n: reduce_to_first_order(atom(0, 1, 2))},
     "derivative-square reduction has unexpected generators"),
    (11, {(selftest, "agoh_dilcher_reduce"): lambda real: lambda m, n: real(m + 1, n)},
     "derivative-square operator differs from the printed one"),
    (12, {(selftest, "rademacher_operator"): lambda real: lambda n: real(n + 1)},
     "combined relation failed semantically at n=4"),
    (13, {(selftest, "grid_reports"): _failed_s_relation}, "parameterized product relation failed at order 20"),
    (13, {(selftest, "beta_integral_by_quadrature"): lambda real: lambda i, j: real(i, j) + 1},
     "Beta value mismatch at (1,1)"),
    (13, {(selftest, "harmonic"): lambda real: lambda n: real(n) + 1}, "harmonic companion mismatch at n=1"),
    (15, {(selftest, "stirling"): lambda real: lambda n, k: real(n, k) + 1},
     "S(0,0) does not match the set-partition enumeration"),
    (15, {(selftest, "stirling"): lambda real: lambda n, k: real(n, k) + ((n, k) == (6, 3))},
     "S(6,3) does not match the set-partition enumeration"),
    (16, {(selftest, "product_reduce"): lambda real: lambda x, y: real(x, y) + b_element()},
     "product_reduce unsound on "),
    (16, {(selftest, "reduce_to_first_order"): lambda real: lambda x: real(x + b_element())},
     "reduce_to_first_order unsound on "),
    (16, {(selftest, "lowering_op"): lambda real: lambda n, b, a: real(n + 1, b, a)}, "lowering operator unsound on "),
    (16, {(selftest, "agoh_dilcher_reduce"): lambda real: lambda m, n: real(m, n + 1)},
     "derivative-product reduction unsound at (0,0)"),
    (16, {(selftest, "negative_power_expand"): lambda real: lambda k: real(k).scale(2)},
     "negative power unsound at k=1"),
    (16, {(selftest, "check_reduction_soundness"): _passing,
          (WeylOp, "apply_series"): lambda real: lambda self, x: real(self, x).scale(2)},
     "representation property failed at case 0"),
    (16, {(selftest, "check_reduction_soundness"): _passing, (selftest, "check_weyl_representation"): _passing,
          (BElement, "is_zero"): lambda real: lambda self: True},
     "zero test claimed zero on a nonzero element (case 1)"),
    (16, {(selftest, "check_reduction_soundness"): _passing, (selftest, "check_weyl_representation"): _passing,
          (BElement, "is_zero"): lambda real: lambda self: False},
     "zero test escape: no nonzero coefficient to order 80 (case 0)"),
]


@pytest.mark.parametrize("index, patches, detail", BROKEN, ids=[f"{i:02d}-{d.split(' ')[0]}" for i, _, d in BROKEN])
def test_criterion_fails_with_its_own_detail(monkeypatch, index, patches, detail):
    for (owner, name), broken in patches.items():
        monkeypatch.setattr(owner, name, broken(getattr(owner, name)))
    ok, got = CRITERIA[index - 1][3]()
    assert not ok and got.startswith(detail)
