"""Smoke test of the benchmark: every workload at a reduced size.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    return proc


def test_spec_lists_every_workload():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    assert result["failed"] == 0, proc.stdout  # fail_frac is 0 on working code
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
    for line in proc.stdout.splitlines():
        if line.strip().startswith("fail_frac"):
            assert line.split()[1] == "0"


def test_refuses_to_run_without_the_program(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (copy / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    proc = subprocess.run([sys.executable, str(copy / "run.py"), "--workload",
                           "train-toy-ec", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
