#!/usr/bin/env python3
"""Run the benchmark over several seeds and write one BENCH_<label>.json.

    python3 perfbench/collect.py --label baseline --seeds 1-10 --out perfbench/BENCH_baseline.json

Runs `perfbench/run.py` once per (workload, seed), one run at a time, then
once more per workload with --trace 1 at the default seed. The file records
the machine, the Python version, the git revision (when the checkout is a
git repository), every run's metrics, and per workload the median and
quartiles of each end-to-end metric with the spread (Q3 - Q1) / median that
BENCHMARK.json's bounds are judged against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def seeds(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["seed"] = seed
    return result


def summary(results: list) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
    return out


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "cores": os.cpu_count(), "platform": platform.platform()}


def revision() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    bench = {
        "label": args.label,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": machine(),
        "python": platform.python_version(),
        "revision": revision(),
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(workload, s, spec["run_seconds"], 0) for s in seeds(args.seeds)]
        traced = run(workload, 0, spec["run_seconds"], 1)
        bench["workloads"][workload] = {
            "end_to_end": summary(runs),
            "runs": runs,
            "per_layer_seed0": traced["metrics"],
        }
        for name, s in bench["workloads"][workload]["end_to_end"].items():
            print(f"{workload:10} {name:12} median {s['median']:.6g}  spread {s['spread']:.4f}")
    Path(args.out).write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
