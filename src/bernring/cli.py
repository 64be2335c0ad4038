"""Command-line front end.

Subcommands::

    bern num INDEX            classical Bernoulli numbers
    bern num-order N INDEX    numbers of higher order
    bern poly INDEX [--at x]  Bernoulli polynomial, optionally evaluated
    stirling N K              Stirling numbers of the second kind
    pf g M N                  partial-fraction g-polynomials
    pf hf K L N               partial-fraction h/f pair
    reduce product EXPR       exact product reduction of an element expression
    verify NAME --PARAM ...   identity verification over parameter grids
    selftest [--json]         the full acceptance suite

``verify NAME`` takes exactly the positional parameters of ``IDENTITY_REGISTRY[NAME]``, each required, and
``--order`` if that function takes it as a keyword-only option; ``verify NAME --help`` lists them.  Every
value is checked against the kind and least value the function declares before any case runs.

INDEX arguments accept either a single integer or an inclusive range ``A..B``,
up to the command's cap in ``INDEX_CAPS``; ``bern poly --at`` also caps the
count of the range times the digits of the point (``MAX_POLY_RANGE_WORK``).
``stirling`` takes N up to ``MAX_STIRLING_N``; a ``verify`` grid takes integers
up to ``MAX_VERIFY_INDEX`` and at most ``MAX_VERIFY_CASES`` cases, and
``f-derivative`` caps its n jointly with ``--order`` (``MAX_F_DERIVATIVE_WORK``);
``reduce`` takes exponents up to ``exprparse.MAX_EXPONENT``, forms a power of one atom only up to
``exprparse.MAX_POWER_SIZE`` in T-power and coefficient size, and multiplies at most ``exprparse.MAX_PRODUCT_PAIRS``
pairs of atoms, of at most ``exprparse.MAX_REWRITE_WORK`` rewrite work, in one expression; ``pf`` takes scales
M, N up to ``MAX_PF_SCALE`` and ``pf hf`` a power K up to ``MAX_PF_POWER``.
Rational arguments, like the numbers of a ``reduce`` expression, are ``p/q`` strings of at most
``MAX_RATIONAL_DIGITS`` digits a part; list-valued flags take comma-separated values, a negative
one written ``--a=-1/2``.  A refused argument is quoted to 40 characters at most, an expression
whole.  An ``--out`` path that cannot be written is refused with its reason, before any work if it is a
directory or under a missing one.
Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
All rationals are emitted as exact ``p/q`` strings, never floats.
"""

from __future__ import annotations

import argparse
import errno
import itertools
import json
import math
import os
import sys
from fractions import Fraction
from typing import Sequence

from .elements import Atom, BElement
from .exprparse import MAX_RATIONAL_DIGITS, ExprError, parse_element
from .identities import IDENTITY_REGISTRY
from .partfrac import g_pair, h_f
from .polys import LATEX, TEXT, Style, format_poly
from .reduction import DCombination, reduce_to_first_order, stirling
from .series import bernoulli_number, bernoulli_number_order, bernoulli_poly_value, bernoulli_polynomial
from .weyl import WeylOp


class UsageError(ValueError):
    pass


def _check_cap(value: int, cap: int, what: str, where: str = "") -> None:
    """Refuse a ``value`` past ``cap`` with "<what> past the cap of <cap> for <where>", ``what`` naming the
    value and ending in its verb; the refusals of every command are worded here."""
    if value > cap:
        raise UsageError(f"{what} past the cap of {cap}" + (f" for {where}" if where else ""))


def _brief(text: str, show=str) -> str:
    """``show(text)``, or past 40 characters ``show`` of its first 40 and its length: refusals stay short."""
    return show(text) if len(text) <= 40 else f"{show(text[:40])}... ({len(text)} characters)"


def _parse_rational(text: str) -> Fraction:
    try:
        parts = [int(part) for part in text.split("/", 1)]
        value = Fraction(*parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed rational {_brief(text, repr)}") from exc
    if any(abs(part) >= 10**MAX_RATIONAL_DIGITS for part in parts):
        raise UsageError(f"rational {_brief(text, repr)} is past the cap of {MAX_RATIONAL_DIGITS} digits")
    return value


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise UsageError(f"malformed integer {_brief(text, repr)}") from exc


def _parse_index_range(text: str, cap: int, where: str) -> list[int]:
    """The integers of ``A..B`` or ``N``; one past ``cap`` in absolute value is refused before the list is built."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError as exc:
            raise UsageError(f"malformed range {_brief(text, repr)}") from exc
        if hi < lo:
            raise UsageError(f"empty range {_brief(text, repr)}")
    else:
        lo = hi = _parse_int(text)
    for value in (hi, lo):
        _check_cap(abs(value), cap, f"index {_brief(str(value))} is", where)
    return list(range(lo, hi + 1))


def _parse_param_values(pname: str, least: int | None, text: str) -> list[int] | list[Fraction]:
    """The comma-separated values of ``verify --<pname>``: rationals when ``least`` is None, else integers
    from ``least`` up to ``MAX_VERIFY_INDEX``, each refused before any case runs."""
    where = f"verify --{pname}"
    values: list[int | Fraction] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ".." in chunk:
            values.extend(_parse_index_range(chunk, MAX_VERIFY_INDEX, where))
        else:
            values.append(_parse_rational(chunk))
    if least is None:
        return [Fraction(v) for v in values]
    for v in values:
        if v.denominator != 1:
            raise UsageError(f"parameter --{pname} must be an integer, got {v}")
        if v < least:
            raise UsageError(f"parameter --{pname} must be at least {least}, got {v}")
        _check_cap(abs(v), MAX_VERIFY_INDEX, f"index {v} is", where)
    return [int(v) for v in values]


# -- JSON rendering ---------------------------------------------------------------


def _atom_json(at: Atom, coeff: Fraction) -> dict:
    return {"coeff": str(coeff), "m": at.m, "n": at.n, "b": str(at.b), "a": str(at.a)}


def _element_json(el: BElement) -> dict:
    return {"text": el.render(), "atoms": [_atom_json(at, c) for at, c in el.atoms()]}


def _coeffs_json(nums: Sequence[int], den: int) -> list[str]:
    """``str`` of each Fraction v/den, read off the integer numerators with no Fraction built (a zero
    entry has g = den and prints as "0")."""
    return [str(v // g) if (g := math.gcd(v, den)) == den else f"{v // g}/{den // g}" for v in nums]


def _weyl_json(op: WeylOp) -> list[dict]:
    return [{"order": k, "coeffs": _coeffs_json(op.rows[k], op.den)} for k in sorted(op.rows)]


def _combination_json(dc: DCombination) -> list[dict]:
    return [
        {"m": gen.m, "n": gen.n, "b": str(gen.b), "a": str(gen.a), "operator": _weyl_json(dc.entries[gen])}
        for gen in sorted(dc.entries, key=lambda g: g.key())
    ]


# -- subcommand implementations ----------------------------------------------------


#: the largest index each ``bern`` command accepts, and the largest order of
#: ``num-order``; cold, B_2000 takes about 0.7 s and B^(20)_300 about 0.1 s on one core
INDEX_CAPS = {"num": 2000, "num-order": 300, "poly": 1000}
MAX_ORDER = 20
#: the largest ``--order`` (``verify f-derivative`` caps it jointly with n below)
MAX_SERIES_ORDER = 200
#: ``verify f-derivative`` at n expands f_n, whose atoms reach order n + 1, to about ``--order`` + n terms,
#: so n (order + n)^2 past this cap is refused: cold, ``--n 0..60`` at the default order 30 (486,000) takes
#: about 0.6 s and ``--order 200 --n 12`` (539,000) about 0.2 s, but ``--order 200 --n 1..60`` about 10 s
MAX_F_DERIVATIVE_WORK = 600_000
#: the count of a ``bern poly`` range times the digits of ``--at``: ``0..1000 --at 1/3`` (1,001)
#: prints 1.3 MB in about 3 s and a 3-digit point (3,003) 3.4 MB in about 7 s; ``0..1000`` at a
#: 20-digit point would print 20.8 MB in about 50 s
MAX_POLY_RANGE_WORK = 4000
#: the largest ``stirling`` N (the table keeps every row up to N: N = 500 takes 0.2 s and 40 MB);
#: the largest integer ``verify`` parameter and the most cases in one ``verify`` grid
#: (``verify miki-s-relation --N 1..60`` takes about 1.4 s and ``verify stirling-gf --n 45..60
#: --k 1..60`` about 1.0 s; the slowest grid found, ``verify euler-polynomial --n 1..60`` at four
#: values of a and of b with a 20-digit one among each, about 2 s)
MAX_STIRLING_N = 500
MAX_VERIFY_INDEX = 60
MAX_VERIFY_CASES = 1000
#: the largest scale of ``pf g`` and ``pf hf`` and the largest power K of ``pf hf``.  ``g_pair(m, n)``
#: is linear, so the scales bound its output of about m + n coefficients; ``h_f(k, l, n)`` takes about
#: k (k + n/l) steps on integers of about k log(n/l) bits.  The slowest accepted input found,
#: ``pf hf 200 1 2000``, takes about 0.65 s; ``pf hf 200 1000 2000``, whose lifted h has degree
#: 199,000 and 200 nonzero coefficients, takes about 0.15 s and ``pf g 2000 1999`` about 0.15 s
MAX_PF_SCALE = 2000
MAX_PF_POWER = 200


def _style(args) -> Style:
    return LATEX if args.format == "latex" else TEXT


def _cmd_bern(args, out: list[str]) -> int:
    # largest index first, so the table grows once; the values are put back in order below
    indices = _parse_index_range(args.index, INDEX_CAPS[args.kind], f"bern {args.kind}")[::-1]
    order = _parse_int(args.order_n) if args.kind == "num-order" else 1
    _check_cap(order, MAX_ORDER, f"order {_brief(str(order))} is", f"bern {args.kind}")
    if args.kind == "num":
        values = [bernoulli_number(i) for i in indices]
    elif args.kind == "num-order":
        values = [bernoulli_number_order(order, i) for i in indices]
    elif args.at is not None:
        point = _parse_rational(args.at)
        work = len(indices) * len(str(max(abs(point.numerator), point.denominator)))
        what = f"{len(indices)} values at the point {point} ({work} values x digits) are"
        _check_cap(work, MAX_POLY_RANGE_WORK, what, "bern poly --at")
        values = [bernoulli_poly_value(1, i, point) for i in indices]
    else:
        polys = [bernoulli_polynomial(i) for i in indices][::-1]
        if args.format == "json":
            out.append(json.dumps([_coeffs_json(p.nums, p.den) for p in polys]))
        else:
            out.extend(format_poly(p, style=_style(args)) for p in polys)
        return 0
    values.reverse()
    if args.format == "json":
        out.append(json.dumps([str(v) for v in values]))
    else:
        out.extend(_style(args).rational(v) for v in values)
    return 0


def _cmd_stirling(args, out: list[str]) -> int:
    n = _parse_int(args.n)
    _check_cap(n, MAX_STIRLING_N, f"N {_brief(str(n))} is", "stirling")
    k = _parse_int(args.k)
    value = stirling(n, k)
    if args.format == "json":
        out.append(json.dumps({"n": n, "k": k, "value": str(value)}))
    else:
        out.append(str(value))
    return 0


def _cmd_pf(args, out: list[str]) -> int:
    scales = [_parse_int(args.m if args.kind == "g" else args.l), _parse_int(args.n)]
    for value in scales:
        _check_cap(value, MAX_PF_SCALE, f"scale {_brief(str(value))} is", f"pf {args.kind}")
    if args.kind == "hf":
        k = _parse_int(args.k)
        _check_cap(k, MAX_PF_POWER, f"power {_brief(args.k)} is", "pf hf")
    if args.kind == "g":
        pair = g_pair(*scales)
        items = [
            ("g_mn", f"g_{{{pair.m},{pair.n}}}", pair.g_mn),
            ("g_nm", f"g_{{{pair.n},{pair.m}}}", pair.g_nm),
        ]
        meta = {"m": pair.m, "n": pair.n, "ell": pair.ell}
    else:
        pair = h_f(k, *scales)
        items = [
            ("h", f"h^{{({pair.k})}}_{{{pair.ell},{pair.n}}}", pair.h),
            ("f", f"f^{{({pair.k})}}_{{{pair.ell},{pair.n}}}", pair.f),
        ]
        meta = {"k": pair.k, "ell": pair.ell, "n": pair.n}
    if args.format == "json":
        out.append(json.dumps(dict(meta, **{key: _coeffs_json(poly.nums, poly.den) for key, _, poly in items})))
    else:
        out.extend(f"{name} = {format_poly(p, style=_style(args))}" for _, name, p in items)
    return 0


def _cmd_reduce(args, out: list[str]) -> int:
    element = parse_element(args.expr)
    if not args.to_first_order:
        if args.format == "json":
            out.append(json.dumps(_element_json(element)))
        else:
            out.append(element.render(_style(args)))
        return 0
    combo = reduce_to_first_order(element)
    if not combo.semantic_element().equals(element):
        raise RuntimeError("internal error: first-order combination is not equal to its source")
    if args.format == "json":
        out.append(json.dumps({"element": _element_json(element), "first_order": _combination_json(combo)}))
    else:
        out.append(combo.render(_style(args)))
    return 0


def _cmd_verify(args, out: list[str]) -> int:
    fn = IDENTITY_REGISTRY[args.name]
    grids = [_parse_param_values(pname, least, getattr(args, pname)) for pname, least in fn.params.items()]
    size = math.prod(len(grid) for grid in grids)
    _check_cap(size, MAX_VERIFY_CASES, f"a grid of {size} cases is", "verify")
    options = {}
    if args.reads_order:  # --order, capped jointly with n
        options["order"] = order = fn.options["order"] if args.order is None else args.order
        n = max(abs(v) for v in grids[0])
        work = n * (order + n) ** 2
        what = f"n = {n} at order {order} (n (order + n)^2 = {work}) is"
        _check_cap(work, MAX_F_DERIVATIVE_WORK, what, f"verify {args.name}")
    reports = [fn(*case, **options) for case in itertools.product(*grids)]
    out.extend(json.dumps(r.to_json_dict()) if args.format == "json" else r.render(_style(args)) for r in reports)
    return 0 if all(r.verified for r in reports) else 1


def _cmd_selftest(args, out: list[str]) -> int:
    from .selftest import selftest_main  # the suite's checks load only for this command

    return selftest_main(out, json_output=args.json or args.format == "json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bernring",
        description="Exact computer algebra for Bernoulli-type series: reductions and identity verification.",
    )
    parser.add_argument("--format", choices=("text", "json", "latex"), default="text")
    parser.add_argument("--order", type=int, default=None, help=f"series bound override, at most {MAX_SERIES_ORDER}")
    parser.add_argument("--out", default=None, help="write output to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    bern = sub.add_parser("bern", help="Bernoulli numbers and polynomials")
    bern.set_defaults(handler=_cmd_bern)
    bern_sub = bern.add_subparsers(dest="kind", required=True)
    p = bern_sub.add_parser("num")
    p.add_argument("index", help="index or range A..B")
    p = bern_sub.add_parser("num-order")
    p.add_argument("order_n", help="the order n")
    p.add_argument("index", help="index or range A..B")
    p = bern_sub.add_parser("poly")
    p.add_argument("index", help="index or range A..B")
    p.add_argument("--at", default=None, help="evaluate at an exact rational")

    p = sub.add_parser("stirling", help="Stirling numbers of the second kind")
    p.set_defaults(handler=_cmd_stirling)
    p.add_argument("n")
    p.add_argument("k")

    pf = sub.add_parser("pf", help="partial-fraction decomposition polynomials")
    pf.set_defaults(handler=_cmd_pf)
    pf_sub = pf.add_subparsers(dest="kind", required=True)
    p = pf_sub.add_parser("g")
    p.add_argument("m")
    p.add_argument("n")
    p = pf_sub.add_parser("hf")
    p.add_argument("k")
    p.add_argument("l")
    p.add_argument("n")

    reduce_p = sub.add_parser("reduce", help="reduce element expressions")
    reduce_p.set_defaults(handler=_cmd_reduce)
    reduce_sub = reduce_p.add_subparsers(dest="kind", required=True)
    p = reduce_sub.add_parser("product")
    p.add_argument("expr")
    p.add_argument("--to-first-order", action="store_true")

    verify = sub.add_parser("verify", help="verify a named identity over a parameter grid")
    verify.set_defaults(handler=_cmd_verify)
    verify_sub = verify.add_subparsers(dest="name", required=True, metavar="NAME")
    for name, fn in IDENTITY_REGISTRY.items():
        p = verify_sub.add_parser(name, help=(fn.__doc__ or "").strip().partition("\n")[0])  # none under -OO
        for pname in fn.params:
            p.add_argument(f"--{pname}", required=True)
        p.set_defaults(reads_order="order" in fn.options)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.set_defaults(handler=_cmd_selftest)
    p.add_argument("--json", action="store_true")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # exact answers may pass Python's 4,300-digit int-to-str limit (3.10.7+); the caps bound their size,
    # and an integer argument past it is read whole so that its refusal names the cap
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _run(build_parser().parse_args(argv))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _run(args) -> int:
    """Run the subcommand's handler, which appends its output lines to ``out``, and write them once."""
    out: list[str] = []
    try:
        if args.order is not None:
            _check_cap(args.order, MAX_SERIES_ORDER, f"--order {_brief(str(args.order))} is")
            if not getattr(args, "reads_order", False):
                readers = (f"verify {name}" for name, fn in IDENTITY_REGISTRY.items() if "order" in fn.options)
                raise UsageError(f"--order is read only by {' and '.join(readers)}")
        if args.out and (os.path.isdir(args.out) or not os.path.exists(os.path.dirname(args.out) or ".")):
            # refused before the work, creating and truncating nothing; other failures are refused at the write
            reason = os.strerror(errno.EISDIR if os.path.isdir(args.out) else errno.ENOENT)
            raise UsageError(f"cannot write --out {_brief(args.out, repr)}: {reason}")
        code = args.handler(args, out)
    except ExprError as exc:
        print(exc.diagnostic(), file=sys.stderr)
        return 2
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = "\n".join(out) + ("\n" if out else "")
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write --out {_brief(args.out, repr)}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
