"""Checks on the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench

Each workload's traced pass runs twice at the default seed, in two processes.
The exact counts must repeat, the pinned digests must match, the per-layer
self times must account for the traced wall time, and each workload must
reach the checker path it was chosen for. Takes about two minutes.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
sys.path.insert(0, str(ROOT / "perfbench"))

from reference import REF_CALL_S, Sampler  # noqa: E402

# Counts that must repeat exactly between two runs at the same seed.
EXACT = (
    "simnet.msgs_per_op",
    "simnet.stale_msgs",
    "simnet.dropped_msgs",
    "protocol.rounds_per_read",
    "protocol.rounds_per_write",
    "protocol.step_calls",
    "simnet.heap_pushes",
    "simnet.deferrals",
    "checker.search_states",
    "checker.oracle_states",
    "checker.fastpath_ratio",
    "core.wellformed_calls",
    "files.bytes",
    "fuzz.oracle_coverage",
)
# Share of traced wall time that may fall outside every layer span.
RESIDUAL = 0.03
# Registers decided by the timestamp fast path / all registers checked.
FASTPATH = {"bare-file": 0.0, "large-run": 1.0}


def traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["campaign", "bare-file", "large-run"])
def test_traced_pass_repeats_and_accounts(workload):
    first, second = traced(workload), traced(workload)
    for name in EXACT:
        assert first[name] == second[name], name
    assert 0 <= first["trace.residual"] < RESIDUAL
    if workload in FASTPATH:
        assert first["checker.fastpath_ratio"] == FASTPATH[workload]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_sampler_takes_kernel_calls_out_of_a_step():
    with Sampler() as sampler:
        start = sampler.mark()
        t0 = time.thread_time()
        while time.thread_time() - t0 < 0.2:
            pass
        end = sampler.mark()
    calls = len(sampler.starts)
    kernel_s = end[1] - start[1]
    assert calls >= 10 and kernel_s > 0
    program, normalized = sampler.normalize(start, end)
    assert program == pytest.approx(end[0] - start[0] - kernel_s)
    assert normalized == pytest.approx(program * REF_CALL_S / (kernel_s / calls))
