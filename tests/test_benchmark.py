"""Smoke test of the benchmark harness against the package as it stands.

Each workload declared in BENCHMARK.json runs three ops at the tiny size with
per-layer tracing on, so removing a name that a workload calls, or that
`benchmarks/tracing.py` wraps, fails here rather than in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_traced_and_passes_its_gate(workload):
    cmd = [sys.executable, "-B", "benchmarks/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", "1", "--size", "tiny", "--ops", "3"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-2000:]
