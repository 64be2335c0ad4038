#!/usr/bin/env python3
"""Walk through the reduction of B(2T) B(3T) B(5T) step by step.

Prints the pairwise product reductions, the first-order operator combination,
and the multinomial Bernoulli identity obtained by equating coefficients, with
every value exact; exits 1 if any identity mismatches.
Usage: python scripts/derive_triple_product.py [max_order]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bernring.elements import atom
from bernring.identities import coefficient_identity, verify_235
from bernring.reduction import product_reduce, reduce_to_first_order


def main() -> int:
    max_order = int(sys.argv[1]) if len(sys.argv) > 1 else 8

    b2, b3, b5 = atom(0, 1, 2, 0), atom(0, 1, 3, 0), atom(0, 1, 5, 0)
    print("step 1: B(2T) * B(3T)")
    pair = product_reduce(b2, b3)
    print("  =", pair.render())

    print("step 2: (...) * B(5T)")
    triple = product_reduce(pair, b5)
    print("  =", triple.render())

    print("step 3: first-order operator combination")
    combo = reduce_to_first_order(triple)
    for line in combo.render().splitlines():
        print("  " + line)
    assert combo.semantic_element().equals(triple)

    print(f"step 4: coefficient identities for T^n, n = 2..{max_order}")
    mismatches = 0
    for n in range(2, max_order + 1):
        ident = coefficient_identity([b2, b3, b5], combo, n)
        report = verify_235(n)
        ok = report.verified and ident.lhs_value() == report.lhs_value
        mismatches += not ok
        print(
            f"  n={n:2d}: sum C(n;i,j,k) 2^i 3^j 5^k B_i B_j B_k"
            f" = {ident.lhs_value()}  [{'ok' if ok else 'MISMATCH'}]"
        )
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
