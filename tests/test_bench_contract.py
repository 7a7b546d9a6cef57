"""The benchmark's correctness contract as a test: the campaign workload at
the default seed, traced pass included, reproduces its pinned trace and
outcome digests and finds every name its tracer patches."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_campaign_benchmark_at_default_seed_is_correct():
    argv = ["--workload", "campaign", "--seed", "0", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout[-2000:]
