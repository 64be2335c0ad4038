"""Seeded op streams for the three workloads, how to run one op, and how to check it.

An op is a tuple of plain values (ints and rational strings), so that a
stream can be hashed into an input digest.  Each workload fixes the *shape*
of its stream (which indices, scales, powers and identity parameters appear)
and lets the seed choose the values that do not change the amount of work
(evaluation points, exponential shifts, T-powers, coefficients) and, in
``tables`` and ``grid``, the order of the ops.  That keeps the work of a session nearly the same from seed
to seed, so run-to-run spread measures the machine and the program, not the
draw.

Workloads:

* ``tables``: the ``bern num 0..N`` sweep, Nörlund reads in random order,
  Bernoulli polynomial values, Stirling numbers and atom expansions at bounds
  64 and 256.  An op is one query as the command line would make it, so the
  sweep is one op.  Time goes to the series kernels; of the reduction module
  only ``stirling`` is reached, never product reduction.
* ``reduce``: expression strings through the ``reduce product
  --to-first-order`` path (parse, reduce to first order, semantic equality).
  Time goes to reduction, partial fractions, the Weyl algebra and the element
  zero test; the series kernels are never called.  The order of the ops and
  of the factors in each expression is fixed, as is which expression gets
  which decoration: these change how much rewriting an op needs and which op
  first fills the partial-fraction caches.
* ``grid``: identity verdicts over all 14 ``verify_*`` families, shuffled, so
  the series caches are read in many small interleaved pieces.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

from checks import (
    Oracle,
    element_coeffs,
    product_coeffs,
    staudt_clausen_denominator,
    stirling2,
)

WORKLOADS = ("tables", "reduce", "grid")

#: stream shapes; "tiny" is for the benchmark's own smoke tests
SIZES = {
    "full": {
        "sweep": 240,
        "norlund": (8, 80),
        "poly": (8, 40, 4),
        "stirling": (60, 200),
        "expand_low": (64, (1, 2, 3), ("1", "2", "3/2", "5/2")),
        "expand_high": (256, ((1, "3/2"),)),
        "anchor_k": 4,
        "pairs": 3,
        "grid": 1,
    },
    "tiny": {
        "sweep": 30,
        "norlund": (3, 12),
        "poly": (2, 8, 2),
        "stirling": (5, 20),
        "expand_low": (16, (1, 2), ("1", "3/2")),
        "expand_high": (32, ((1, "1"),)),
        "anchor_k": 2,
        "pairs": 1,
        "grid": 0,
    },
}

#: argument scales of the ``reduce`` workload, and its integer subset
SCALES = ("1", "2", "3", "5", "7", "3/2", "5/3", "5/2")
INT_SCALES = ("1", "2", "3", "5", "7")

#: seeded value choices; each set shares one denominator, so the choice
#: changes the answer but not how much arithmetic an op does
POINTS = ("1/3", "2/3", "4/3", "5/3", "-1/3", "-2/3", "-4/3")
SHIFTS = ("1/2", "-1/2", "3/2", "-3/2")
COEFFS = ("2", "-1", "3", "-2", "5")

#: the series bound at which ``reduce`` answers are compared with the oracle
REDUCE_CHECK_BOUND = 24


def generate(workload: str, seed: int, size: str = "full") -> list[tuple]:
    """The op stream of one workload; the same seed gives the same stream."""
    rng = random.Random(f"{workload}:{seed}")
    shape = SIZES[size]
    if workload == "tables":
        return _tables(rng, shape)
    if workload == "reduce":
        return _reduce(rng, shape)
    if workload == "grid":
        return _grid(rng, shape)
    raise ValueError(f"unknown workload {workload!r}")


def inputs_digest(ops: list[tuple]) -> str:
    return hashlib.sha256(json.dumps(ops).encode()).hexdigest()


def _tables(rng: random.Random, shape: dict) -> list[tuple]:
    ops = [("bernoulli_sweep", shape["sweep"])]
    ops += _norlund_reads(rng, *shape["norlund"])
    poly_n, poly_i, points = shape["poly"]
    small = [
        ("bernoulli_poly_value", n, i, x)
        for n in range(1, poly_n + 1)
        for i in range(poly_i + 1)
        for x in rng.sample(POINTS, points)
    ]
    count, top = shape["stirling"]
    for _ in range(count):
        n = rng.randint(0, top)
        small.append(("stirling", n, rng.randint(0, n)))
    bound, powers, scales = shape["expand_low"]
    small += [
        ("expand", rng.randint(0, 3), n, b, rng.choice(SHIFTS), bound)
        for n in powers
        for b in scales
    ]
    rng.shuffle(small)
    ops += small
    bound, shapes = shape["expand_high"]
    high = [("expand", 0, n, b, rng.choice(SHIFTS), bound) for n, b in shapes]
    rng.shuffle(high)
    return ops + high


def _norlund_reads(rng: random.Random, top_n: int, top_i: int) -> list[tuple]:
    """Every B^(n)_i, n <= top_n, i <= top_i, read one at a time in random order.

    Each order's indices come in three stages (up to top_i/2, 3*top_i/4 and
    top_i).  A stage opens with its largest index and the rest follow
    shuffled, so every order's cache grows at the same three bounds whatever
    the seed; the orders are interleaved at random.
    """
    stages = (top_i // 2, 3 * top_i // 4, top_i)
    queues = []
    for n in range(1, top_n + 1):
        queue, low = [], 0
        for high in stages:
            rest = list(range(low, high))
            rng.shuffle(rest)
            queue += [high] + rest
            low = high + 1
        queues.append([("bernoulli_number_order", n, i) for i in reversed(queue)])
    turns = [q for q, queue in enumerate(queues) for _ in queue]
    rng.shuffle(turns)
    return [queues[q].pop() for q in turns]


def _reduce(rng: random.Random, shape: dict) -> list[tuple]:
    anchors = [(("B", "2", k), ("B", "3", k)) for k in range(1, shape["anchor_k"] + 1)]
    anchors.append(tuple(("B", s, 1) for s in ("2", "3", "5", "7", "11")))
    shapes = []
    powers = ((1, 1), (1, 2), (2, 1))[: shape["pairs"]]
    for s1, s2 in itertools.combinations(SCALES, 2):
        shapes += [(("B", s1, p1), ("B", s2, p2)) for p1, p2 in powers]
    if shape["pairs"] == 3:
        for s1, s2 in itertools.combinations(INT_SCALES, 2):
            shapes.append((("B", s1, 2), ("B", s2, 2)))
            shapes.append((("B", s1, 1), ("B", s2, 3)))
        shapes += [tuple(("B", s, 1) for s in trio) for trio in itertools.combinations(INT_SCALES, 3)]
    # Which shape gets which T-power and whether it gets a shift is fixed, as
    # these change the work; the seed picks the coefficient and shift values.
    decorated = []
    for index, factors in enumerate(shapes):
        factors = list(factors)
        factors.append(("c", rng.choice(COEFFS)))
        if index % 3:
            factors.append(("T", index % 3))
        if index % 5:
            factors.append(("e", rng.choice(SHIFTS)))
        decorated.append(tuple(factors))
    return [("reduce", _render(f), f) for f in anchors + decorated]


def _render(factors) -> str:
    parts = []
    for kind, *args in factors:
        if kind == "B":
            scale, power = args
            parts.append(f"B({scale}T)" + (f"^{power}" if power != 1 else ""))
        elif kind == "T":
            parts.append("T" if args[0] == 1 else f"T^{args[0]}")
        elif kind == "e":
            parts.append(f"e^{{{args[0]}T}}")
        else:
            parts.append(args[0])
    return "*".join(parts)


def _grid(rng: random.Random, shape: dict) -> list[tuple]:
    wide = shape["grid"]

    def top(full: int, tiny: int) -> int:
        return full if wide else tiny

    families = []
    families.append([("verify", "verify_euler", (m,)) for m in range(2, top(40, 8) + 1)])
    families.append([("verify", "verify_recurrence", (n,)) for n in range(0, top(80, 10) + 1)])
    families.append([
        ("verify", "verify_multiplication", (m, n, rng.choice(POINTS)))
        for m in range(0, top(40, 6) + 1)
        for n in range(1, top(8, 3) + 1)
    ])
    lowering = [
        ("verify", "verify_lowering", (n, i, rng.choice(POINTS)))
        for n in range(1, top(8, 3) + 1)
        for i in range(1, top(60, 8) + 1)
    ]
    lowering_top = [op for op in lowering if op[2][1] == top(60, 8)]
    families.append([op for op in lowering if op[2][1] != top(60, 8)])
    families.append([("verify", "verify_agoh_dilcher_example", (n,)) for n in range(0, top(40, 6) + 1)])
    families.append([("verify", "verify_rademacher", (n,)) for n in range(4, top(32, 8) + 1)])
    families.append([("verify", "verify_23", (n,)) for n in range(2, top(32, 6) + 1)])
    families.append([("verify", "verify_23_even", (n,)) for n in range(2, top(32, 6) + 1)])
    families.append([("verify", "verify_235", (n,)) for n in range(2, top(30, 6) + 1)])
    families.append([("verify", "verify_miki", (n,)) for n in range(4, top(40, 8) + 1)])
    families.append([("verify", "verify_miki_s_relation", (n,)) for n in range(6, top(24, 8) + 1, 2)])
    families.append([("verify", "verify_kaneko", (k,)) for k in range(1, top(20, 4) + 1)])
    families.append([
        ("verify", "verify_stirling_gf", (n, k))
        for n in range(0, top(30, 6) + 1)
        for k in range(1, top(8, 3) + 1)
    ])
    families.append([("verify", "verify_f_derivative", (n,)) for n in range(0, top(12, 3) + 1)])
    # The instances with the largest parameters run first (for lowering, one
    # per order), so the caches grow to their final size up front, the same
    # way for every seed; the shuffled rest reads them in small pieces.
    first = lowering_top + [family.pop() for family in families]
    rest = [op for family in families for op in family]
    rng.shuffle(rest)
    return first + rest


# -- running one op -----------------------------------------------------------


def prepare(op: tuple) -> tuple:
    """The op with its rational strings made Fractions, done before the timed region.

    The string of a ``reduce`` op stays a string: parsing it is library work.
    """
    kind = op[0]
    if kind == "bernoulli_poly_value":
        return (*op[:3], Fraction(op[3]))
    if kind == "expand":
        _, m, n, b, a, bound = op
        return (kind, m, n, Fraction(b), Fraction(a), bound)
    if kind == "verify":
        return (kind, op[1], tuple(Fraction(v) if isinstance(v, str) else v for v in op[2]))
    return op


def execute(call: tuple, lib: dict):
    """Run one prepared op against the library; ``lib`` maps module names to modules.

    Functions are looked up at call time, so a tracer that rebinds them is
    seen.
    """
    kind = call[0]
    top = lib["bernring"]
    if kind == "bernoulli_sweep":
        return [top.bernoulli_number(i) for i in range(call[1] + 1)]
    if kind == "bernoulli_number_order":
        return top.bernoulli_number_order(call[1], call[2])
    if kind == "bernoulli_poly_value":
        return top.bernoulli_poly_value(call[1], call[2], call[3])
    if kind == "stirling":
        return top.stirling(call[1], call[2])
    if kind == "expand":
        _, m, n, b, a, bound = call
        return top.atom(m, n, b, a).expand(bound)
    if kind == "reduce":
        element = lib["exprparse"].parse_element(call[1])
        semantic = top.reduce_to_first_order(element).semantic_element()
        return element, semantic, semantic.equals(element)
    if kind == "verify":
        return getattr(lib["identities"], call[1])(*call[2])
    raise ValueError(f"unknown op kind {kind!r}")


def fingerprint(answer) -> str:
    """A digest of one answer, equal for equal answers of the same op."""
    if isinstance(answer, tuple):  # reduce: (element, first-order form, verdict)
        element, semantic, equal = answer
        text = repr((_terms(element), _terms(semantic), equal))
    elif hasattr(answer, "coeffs"):  # a truncated series
        text = repr((answer.low, answer.bound, [str(c) for c in answer.coeffs]))
    elif hasattr(answer, "verified"):  # an identity report
        text = repr((answer.name, answer.params, answer.lhs_value, answer.rhs_value, answer.verified))
    else:
        text = str(answer)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _terms(element) -> list:
    return sorted((str(at.b), at.n, at.m, str(at.a), str(c)) for at, c in element.terms.items())


# -- checking one answer ----------------------------------------------------------


def check(op: tuple, answer, oracle: Oracle) -> str | None:
    """None when the answer is right, else a one-line reason."""
    kind = op[0]
    if kind == "bernoulli_sweep":
        want = oracle.bernoulli_upto(op[1])
        for i, got in enumerate(answer):
            if got != want[i]:
                return f"B_{i} = {got}, expected {want[i]}"
            if i >= 2 and i % 2 == 0 and got.denominator != staudt_clausen_denominator(i):
                return f"B_{i} has denominator {got.denominator}, von Staudt-Clausen disagrees"
        return None if len(answer) == op[1] + 1 else f"sweep gave {len(answer)} values"
    if kind == "bernoulli_number_order":
        n, i = op[1], op[2]
        want = oracle.norlund_row(n, i)[i]
        return None if answer == want else f"B^({n})_{i} = {answer}, expected {want}"
    if kind == "bernoulli_poly_value":
        n, i, x = op[1], op[2], Fraction(op[3])
        row = oracle.norlund_row(n, i)
        want = sum((math.comb(i, k) * row[k] * x ** (i - k) for k in range(i + 1)), Fraction(0))
        return None if answer == want else f"B^({n})_{i}({x}) = {answer}, expected {want}"
    if kind == "stirling":
        want = stirling2(op[1], op[2])
        return None if answer == want else f"S({op[1]},{op[2]}) = {answer}, expected {want}"
    if kind == "expand":
        _, m, n, b, a, bound = op
        if answer.bound != bound:
            return f"expansion exact to T^{answer.bound}, asked for T^{bound}"
        _, want = element_coeffs(oracle, [(m, n, Fraction(b), Fraction(a), 1)], bound)
        got = [answer.coeff(e) for e in range(bound + 1)]
        return None if got == want else f"expansion of T^{m}B({b}T)^{n}e^{{{a}T}} differs"
    if kind == "reduce":
        element, semantic, equal = answer
        if not equal:
            return f"{op[1]}: first-order form is not equal to the element"
        want = product_coeffs(oracle, op[2], REDUCE_CHECK_BOUND)
        for name, value in (("element", element), ("first-order form", semantic)):
            atoms = ((at.m, at.n, at.b, at.a, c) for at, c in value.terms.items())
            lo, got = element_coeffs(oracle, atoms, REDUCE_CHECK_BOUND)
            if any(got[: -lo]) or got[-lo:] != want:
                return f"{op[1]}: {name} series differs from the product of its factors"
        return None
    if kind == "verify":
        return _check_report(op, answer, oracle)
    raise ValueError(f"unknown op kind {kind!r}")


def _check_report(op: tuple, report, oracle: Oracle) -> str | None:
    name, args = op[1], op[2]
    if not report.verified:
        return f"{name}{args}: not verified"
    if name == "verify_kaneko":
        if report.lhs_value != 0:
            return f"{name}{args}: direct sum is {report.lhs_value}"
        return None
    if report.lhs_value != report.rhs_value:
        return f"{name}{args}: verified with unequal sides"
    want = _closed_form(name, args, oracle)
    if want is not None and report.rhs_value != want:
        return f"{name}{args}: right side {report.rhs_value}, expected {want}"
    return None


def _closed_form(name: str, args: tuple, oracle: Oracle) -> Fraction | None:
    """The right side of identities whose closed form needs only B_n."""
    if name == "verify_euler":
        (m,) = args
        return -(2 * m + 1) * oracle.bernoulli_upto(2 * m)[2 * m]
    if name == "verify_recurrence":
        (n,) = args
        return (-1) ** n * oracle.bernoulli_upto(n)[n]
    if name == "verify_rademacher":
        (n,) = args
        return -Fraction((2 * n + 1) * (n - 3), 6 * n) * oracle.bernoulli_upto(2 * n)[2 * n]
    if name == "verify_agoh_dilcher_example":
        (n,) = args
        b = oracle.bernoulli_upto(n + 2)
        return Fraction(n - 1, 6) * b[n] - b[n + 1] - Fraction(n + 3, 6) * b[n + 2]
    if name == "verify_stirling_gf":
        n, k = args
        return Fraction(stirling2(n, k), math.factorial(n))
    return None
