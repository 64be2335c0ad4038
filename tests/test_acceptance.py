"""Acceptance suite: every criterion runs once, prints its line, and must pass.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines with timings; the same checks back ``bernring selftest``.
"""

import pytest

from bernring.identities import verify_kaneko
from bernring.selftest import CRITERIA, GRID, TOTAL_LIMIT, _grid_check


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
