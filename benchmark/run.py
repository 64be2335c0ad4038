"""The bernring benchmark: cold sessions of the tables, reduce and grid workloads.

    python3 benchmark/run.py --workload {tables,reduce,grid,all} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  Each session is a fresh interpreter that imports ``bernring`` and
then makes the workload's seeded stream of library calls (ops), one after
another, from a single process.  Sessions run back to back until ``--seconds``
have passed, and every session repeats the same inputs, so medians over
sessions measure the machine's noise away.

The cores of a shared machine slow down by a quarter and more while a
neighbour is busy, for seconds to minutes at a time, which no median over one
run removes.  So each session also times a fixed piece of stdlib Fraction
arithmetic (a probe) before its first op, after every 20 ms of ops and after
its last op, and ten times right after its import.  Its op times, and its
set-up time, are scaled by NOMINAL_PROBE_NS over the trimmed mean of those
probes: every end-to-end timing and ``trace.overhead_ratio`` is taken at the
speed at which a probe takes 0.5 ms.  The per-layer self times and the
measured seconds printed per session are not scaled.  The first session's answers are
checked against independent oracles after its timed region; every later
session must give the same answers, compared by digest.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced sessions (at least two traced) and reports the per-layer
metrics; their counts must repeat exactly across the traced sessions, and the
spans of the last one are written to ``benchmark/out/``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every answer is right, 1 when an answer
is wrong or a session failed, and 2 when there is no library to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SESSION = HERE / "session.py"
OUT = HERE / "out"

WORKLOADS = ("tables", "reduce", "grid")

#: the probe time (``session.probe``) at which the reported timings are taken
NOMINAL_PROBE_NS = 500_000

#: import-only children per run, on top of the sessions' own imports
SETUP_CHILDREN = 8

#: a session that takes longer than this has hung
SESSION_TIMEOUT_S = 150

#: (name, unit, better, bound): what a user of the library sees.  Timings
#: still drift by several percent between runs on a shared 2-core machine
#: after scaling, so their bounds sit just under the largest, set-up's.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.24),
    ("op_p50_ms", "ms", "lower", 0.24),
    ("op_p90_ms", "ms", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: (name, unit, better): per-layer numbers from the traced run
PER_LAYER = (
    ("series.bernoulli_number.calls", "count", "lower"),
    ("series.bernoulli_number.self_s", "s", "lower"),
    ("series.bernoulli_number_order.calls", "count", "lower"),
    ("series.bernoulli_number_order.self_s", "s", "lower"),
    ("series.bernoulli_poly_value.self_s", "s", "lower"),
    ("series.bernoulli_series.regrow", "count", "lower"),
    ("series.bernoulli_power_series.regrow", "count", "lower"),
    ("series.inverse.calls", "count", "lower"),
    ("series.inverse.self_s", "s", "lower"),
    ("series.inverse.max_bound", "count", "lower"),
    ("series.mul.calls", "count", "lower"),
    ("series.mul.self_s", "s", "lower"),
    ("series.mul.coef_ops", "count.computed", "lower"),
    ("series.mul.max_bound", "count", "lower"),
    ("series.add.calls", "count", "lower"),
    ("series.add.self_s", "s", "lower"),
    ("series.scale_arg.self_s", "s", "lower"),
    ("series.hit_ratio", "ratio", "higher"),
    ("polys.Poly.mul.calls", "count", "lower"),
    ("polys.Poly.mul.self_s", "s", "lower"),
    ("polys.gcd_ext.calls", "count", "lower"),
    ("polys.gcd_ext.self_s", "s", "lower"),
    ("elements.add.calls", "count", "lower"),
    ("elements.add.self_s", "s", "lower"),
    ("elements.is_zero.calls", "count", "lower"),
    ("elements.is_zero.self_s", "s", "lower"),
    ("elements.expand.calls", "count", "lower"),
    ("elements.expand.self_s", "s", "lower"),
    ("weyl.mul.calls", "count", "lower"),
    ("weyl.mul.self_s", "s", "lower"),
    ("weyl.apply_element.self_s", "s", "lower"),
    ("weyl.apply_series.self_s", "s", "lower"),
    ("weyl.derivative_of_element.self_s", "s", "lower"),
    ("partfrac.g_pair.calls", "count", "lower"),
    ("partfrac.g_pair.hit_ratio", "ratio", "higher"),
    ("partfrac.h_f.calls", "count", "lower"),
    ("partfrac.h_f.hit_ratio", "ratio", "higher"),
    ("reduction.product_reduce.calls", "count", "lower"),
    ("reduction.product_reduce.self_s", "s", "lower"),
    ("reduction.product_reduce.out_atoms", "count", "lower"),
    ("reduction.reduce_to_first_order.calls", "count", "lower"),
    ("reduction.reduce_to_first_order.self_s", "s", "lower"),
    ("reduction.stirling.self_s", "s", "lower"),
    ("exprparse.parse_element.calls", "count", "lower"),
    ("exprparse.parse_element.self_s", "s", "lower"),
    ("identities.verify.calls", "count", "lower"),
    ("identities.verify.self_s", "s", "lower"),
    ("polys.self_s", "s", "lower"),
    ("series.self_s", "s", "lower"),
    ("elements.self_s", "s", "lower"),
    ("weyl.self_s", "s", "lower"),
    ("partfrac.self_s", "s", "lower"),
    ("reduction.self_s", "s", "lower"),
    ("exprparse.self_s", "s", "lower"),
    ("identities.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class SessionError(Exception):
    """A child session crashed, hung or printed no report."""


def spawn(*args: str) -> dict:
    """Run one child session and return its report, with ``setup_s`` added."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(SESSION), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=SESSION_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise SessionError(f"session {args} timed out after {SESSION_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SessionError(f"session {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    setup_ns = report["import_done_ns"] - start
    report["setup_s"] = setup_ns * speed_scale(report["setup_probe_ns"]) / 1e9
    return report


def speed_scale(probe_ns: list[int]) -> float:
    """Nominal over measured probe time, the factor applied to measured times.

    The measured time is the mean of the probes without the fastest and the
    slowest tenth.
    """
    probes = sorted(probe_ns)
    cut = len(probes) // 10
    return NOMINAL_PROBE_NS / statistics.mean(probes[cut : len(probes) - cut])


def scaled_run_ns(session: dict) -> float:
    return sum(session["op_ns"]) * speed_scale(session["probe_ns"])


def end_to_end(sessions: list[dict], setups: list[float]) -> dict[str, float]:
    scaled = [[ns * speed_scale(s["probe_ns"]) for ns in s["op_ns"]] for s in sessions]
    per_op_ms = [statistics.median(ns) / 1e6 for ns in zip(*scaled)]
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(sum(ns) for ns in scaled) / 1e9,
        "op_p50_ms": statistics.median(per_op_ms),
        "op_p90_ms": statistics.quantiles(per_op_ms, n=10)[8],
        "peak_rss_mb": statistics.median(s["peak_rss_kb"] for s in sessions) / 1024,
    }


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics, and the names of counts that did not repeat exactly."""
    first = traced[0]["layers"]
    unsteady = sorted(
        key
        for key in first
        if not key.endswith("_s") and any(t["layers"][key] != first[key] for t in traced[1:])
    )
    out = {}
    for name, _, _ in PER_LAYER:
        if name == "trace.overhead_ratio":
            traced_ns = statistics.median(scaled_run_ns(t) for t in traced)
            out[name] = traced_ns / statistics.median(scaled_run_ns(s) for s in plain)
        elif name.endswith("_s"):
            out[name] = statistics.median(t["layers"].get(name, 0.0) for t in traced)
        else:
            out[name] = first.get(name, 0)
    return out, unsteady


def count_failures(sessions: list[dict]) -> tuple[int, int]:
    """(ops attempted, ops failed) over all sessions.

    The first session's answers were checked against the oracles.  An op of
    another session fails when it failed there or its answer differs.
    """
    checked = sessions[0]
    bad = set(checked["failed_ops"])
    failed = len(bad)
    for session in sessions[1:]:
        pairs = enumerate(zip(session["answers"], checked["answers"]))
        failed += sum(1 for i, (got, ref) in pairs if got != ref or i in bad)
    return sum(len(s["answers"]) for s in sessions), failed


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Run one workload for the given time; returns the result object."""
    common = ("--workload", workload, "--seed", str(seed), "--size", size)
    spawn(*common, "--import-only")  # compiles the bytecode caches; not measured
    setups = [spawn(*common, "--import-only")["setup_s"] for _ in range(SETUP_CHILDREN)]
    trace_file = OUT / f"trace-{workload}-seed{seed}.jsonl.gz"
    if trace:
        OUT.mkdir(exist_ok=True)
    plain, traced = [], []
    deadline = time.monotonic() + seconds
    while True:
        plain.append(spawn(*common, *(() if plain else ("--check",))))
        if trace:
            traced.append(spawn(*common, "--trace", str(trace_file)))
        if time.monotonic() >= deadline and (not trace or len(traced) >= 2):
            break
    sessions = plain + traced
    digests = {s["inputs_sha256"] for s in sessions}
    if len(digests) != 1:
        raise SessionError(f"sessions of one run saw different inputs: {sorted(digests)}")
    attempted, failed = count_failures(sessions)
    problems = list(plain[0]["failures"])
    if trace:
        metrics, unsteady = per_layer(plain, traced)
        units = {name: unit for name, unit, _ in PER_LAYER}
        if unsteady:
            problems.append(f"counts differ between traced sessions: {unsteady}")
    else:
        metrics = end_to_end(plain, setups + [s["setup_s"] for s in plain])
        units = {name: unit for name, unit, _, _ in END_TO_END}
    print(
        f"{workload} seed={seed}: {len(plain)} sessions"
        + (f" + {len(traced)} traced" if trace else "")
        + f", {len(plain[0]['answers'])} ops each, inputs sha256 {digests.pop()[:16]}"
    )
    for name, value in metrics.items():
        print(f"  {name:<42} {value:.6g} {units[name]}")
    print(
        "  each session, measured s / probe ms: "
        + " ".join(f"{sum(s['op_ns']) / 1e9:.3f}/{NOMINAL_PROBE_NS / speed_scale(s['probe_ns']) / 1e6:.3f}" for s in sessions)
    )
    print(f"  fail_ratio {failed}/{attempted}")
    if trace:
        print(f"  spans of the last traced session: {trace_file.relative_to(ROOT)}")
    for line in problems:
        print(f"  FAIL {line}")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test inputs")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bernring" / "__init__.py").is_file():
        print(f"no library to measure: {ROOT / 'src' / 'bernring'} is missing", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = measure(workload, args.seed, args.seconds, bool(args.trace), args.size)
    except SessionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{workload}.{name}": metric
                for workload, r in results.items()
                for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
