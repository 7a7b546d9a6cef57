"""The benchmark's correctness contract as a test: each workload at the
default seed, traced pass included, reproduces its pinned digests (the
campaign's traces and outcomes, the large run's history and sidecar files
and check output, the bare file and its check and stats output) and finds
every name its tracer patches."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["campaign", "large-run", "bare-file"])
def test_benchmark_at_default_seed_is_correct(workload):
    argv = ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout[-2000:]
