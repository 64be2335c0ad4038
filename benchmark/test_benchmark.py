"""Tests of the benchmark itself: smoke runs, tampered oracles, trace counts.

    python3 -m pytest benchmark -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
from checks import Oracle
from session import check_ops, library_modules, run_ops
from workloads import WORKLOADS, generate, inputs_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    code, out = bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "0", "--size", "tiny")
    result = last_json(out)
    assert code == 0, out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, unit, _, _ in run.END_TO_END
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["reduce", "grid"])
def test_traced_run_reports_every_per_layer_metric(workload):
    code, out = bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "1", "--size", "tiny")
    result = last_json(out)
    assert code == 0, out
    assert result["correct"] is True
    assert list(result["metrics"]) == [name for name, _, _ in run.PER_LAYER]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_counts_repeat_across_sessions(workload, tmp_path):
    common = ("--workload", workload, "--seed", "4", "--size", "tiny", "--trace")
    first = run.spawn(*common, str(tmp_path / "a.jsonl.gz"))["layers"]
    second = run.spawn(*common, str(tmp_path / "b.jsonl.gz"))["layers"]
    counts = [key for key in first if not key.endswith("_s")]
    assert any(first[key] for key in counts)
    assert {key: first[key] for key in counts} == {key: second[key] for key in counts}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tampered_oracle_makes_ops_fail(workload):
    """One wrong B_4 given to the checker must make the fail ratio positive."""
    ops = generate(workload, 5, "tiny")
    answers, _, _ = run_ops(ops, library_modules())
    assert check_ops(ops, answers, Oracle()) == {}
    tampered = Oracle()
    tampered.bernoulli_upto(8)[4] = Fraction(999)
    failures = check_ops(ops, answers, tampered)
    assert len(failures) / len(ops) > 0


def test_a_differing_answer_in_a_later_session_fails():
    checked = {"answers": ["a", "b", "c"], "failed_ops": [2]}
    later = {"answers": ["a", "x", "c"]}
    assert run.count_failures([checked, later]) == (6, 3)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_come_from_the_seed(workload):
    assert inputs_digest(generate(workload, 7)) == inputs_digest(generate(workload, 7))
    assert inputs_digest(generate(workload, 7)) != inputs_digest(generate(workload, 8))
    assert len(generate(workload, 7)) >= 100


def test_without_the_library_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, out = bench("--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert '"metrics"' not in out


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "benchmark/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
