"""One cold session: a fresh interpreter imports bernring and runs one op stream.

Run by ``run.py`` as a child process; prints one JSON object on stdout.

    python3 benchmark/session.py --workload tables --seed 1 [--check] [--trace FILE] [--import-only]

``--import-only`` stops after the import (a set-up sample).  With ``--trace`` the
session records spans, writes them to FILE and reports per-layer numbers.
Every session reports a digest of each answer; with ``--check`` it also
checks each answer against the oracles, after the timed region has ended.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bernring  # noqa: E402  (timed as set-up)
import bernring.exprparse  # noqa: E402,F401

IMPORT_DONE_NS = time.monotonic_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402

from checks import Oracle  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import check, execute, fingerprint, generate, inputs_digest, prepare  # noqa: E402


def library_modules() -> dict:
    """Every loaded bernring module, by short name (the package itself as 'bernring')."""
    return {
        name.rpartition(".")[2] if name != "bernring" else name: module
        for name, module in sorted(sys.modules.items())
        if name == "bernring" or name.startswith("bernring.")
    }


#: op time between two speed probes
PROBE_EVERY_NS = 20_000_000

#: speed probes right after the import, for scaling the set-up time
SETUP_PROBES = 10


def probe() -> int:
    """Nanoseconds for a fixed piece of stdlib Fraction arithmetic.

    The cores of a shared machine slow down by a quarter and more while a
    neighbour is busy, for seconds to minutes at a time.  Probes taken
    between the ops measure that speed in the same process, so ``run.py``
    can scale the op times to a nominal speed.  The probe calls no library
    code and records no span.
    """
    begin = time.perf_counter_ns()
    total = Fraction(0)
    for k in range(1, 200):
        total += Fraction(1, k)
    return time.perf_counter_ns() - begin


def run_ops(ops: list[tuple], modules: dict, tracer: Tracer | None = None):
    """Run the ops in order; returns (answers, per-op ns, probe ns)."""
    calls = [prepare(op) for op in ops]
    answers, op_ns, probe_ns = [], [], [probe()]
    clock = time.perf_counter_ns
    since_probe = 0
    for index, call in enumerate(calls):
        if since_probe >= PROBE_EVERY_NS:
            probe_ns.append(probe())
            since_probe = 0
        if tracer is not None:
            tracer.op = index
        begin = clock()
        try:
            answers.append(execute(call, modules))
        except Exception as exc:  # an op that raises counts as failed
            answers.append(exc)
        op_ns.append(clock() - begin)
        since_probe += op_ns[-1]
    probe_ns.append(probe())
    return answers, op_ns, probe_ns


def check_ops(ops: list[tuple], answers: list, oracle: Oracle) -> dict[int, str]:
    """The ops whose answer is wrong or that raised, by index, with the reason."""
    failures = {}
    for index, (op, answer) in enumerate(zip(ops, answers)):
        if isinstance(answer, Exception):
            failures[index] = f"{op[:2]} raised {type(answer).__name__}: {answer}"
            continue
        try:
            reason = check(op, answer, oracle)
        except Exception as exc:  # an answer the check cannot read is wrong
            reason = f"{op[:2]}: checking raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures[index] = reason
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", default=None, help="write spans here and report per-layer numbers")
    parser.add_argument("--check", action="store_true", help="check every answer against the oracles")
    parser.add_argument("--import-only", action="store_true", help="report the set-up only")
    args = parser.parse_args(argv)
    report = {"import_done_ns": IMPORT_DONE_NS, "setup_probe_ns": [probe() for _ in range(SETUP_PROBES)]}
    if not args.import_only:
        ops = generate(args.workload, args.seed, args.size)
        modules = library_modules()
        tracer = Tracer(modules) if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            answers, op_ns, probe_ns = run_ops(ops, modules, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        report.update(
            op_ns=op_ns,
            probe_ns=probe_ns,
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            inputs_sha256=inputs_digest(ops),
            answers=[
                f"raised {type(a).__name__}" if isinstance(a, Exception) else fingerprint(a) for a in answers
            ],
        )
        if tracer is not None:
            report["layers"] = tracer.summary()
            tracer.write(args.trace)
        if args.check:
            failures = check_ops(ops, answers, Oracle())
            report["failed_ops"] = sorted(failures)
            report["failures"] = [failures[i] for i in sorted(failures)][:5]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
