"""Record one trajectory point of the benchmark as a JSON file.

    python3 benchmark/record.py --out benchmark/BENCH_1.json [--seeds 1-10]

Run from the root of a git checkout.  Runs every workload once per seed with
tracing off, then once per workload with tracing on (first seed), each run
lasting ``run_seconds`` from ``BENCHMARK.json``.  Writes each end-to-end
metric's values with their median, quartiles and spread (quartile distance
over median), the per-layer metrics, the digest of every workload's inputs
per seed, the Python version and CPU count, the commit checked out, and the
paths that differ from that commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, WORKLOADS
from workloads import generate, inputs_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout[-3000:]}")
    return result


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    point = {
        "commit": git("rev-parse", "HEAD").strip(),
        "dirty": sorted(line[3:] for line in git("status", "--porcelain", "--untracked-files=no").splitlines()),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seeds": seeds,
        "run_seconds": seconds,
        "inputs_sha256": {w: {str(s): inputs_digest(generate(w, s)) for s in seeds} for w in WORKLOADS},
        "end_to_end": {},
        "per_layer": {},
    }
    for workload in WORKLOADS:
        values = {name: [] for name, _, _, _ in END_TO_END}
        for seed in seeds:
            result = bench(workload, seed, seconds, 0)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, {k: round(v[-1], 5) for k, v in values.items()}, flush=True)
        point["end_to_end"][workload] = {name: summarize(v) for name, v in values.items()}
        traced = bench(workload, seeds[0], seconds, 1)
        point["per_layer"][workload] = {name: m["value"] for name, m in traced["metrics"].items()}
    Path(args.out).write_text(json.dumps(point, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
