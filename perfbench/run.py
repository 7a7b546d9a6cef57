#!/usr/bin/env python3
"""Benchmark for dsmlab: end-to-end figures, checked verdicts, per-layer spans.

    python3 perfbench/run.py --workload campaign --seed 3 --seconds 35 --trace 0

Run from the repository root (any checkout with `src/dsmlab`). Stdlib only,
one process, one thread. The workloads are described in perfbench/README.md:

* campaign   closed loop of run_campaign calls, one run each, at consecutive
             seeds over a fixed 8-run cycle of protocols and mutants;
* large-run  simulate one n=7, 2,800-op run, write it, `dsmlab check` the file;
* bare-file  `dsmlab check` and `dsmlab stats` on an ~1,000-op history file
             whose timestamps are all null.

With --trace 0 the timed loop runs for --seconds and the last line of stdout
is a JSON object carrying the end-to-end metrics, in reference units: CPU
time normalized by a fixed kernel run beside the program (reference.py), so
that the machine's changing speed cancels out. With --trace 1 a fixed set
of iterations runs once untraced and once traced, and the metrics are the
per-layer ones; the spans are written to .bench_work/.

Every verdict, exit code and captured output is checked. At the default seed
the serialized traces and outputs must also match the pinned sha256 digests.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import importlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
import types
from collections import defaultdict
from pathlib import Path

from reference import Sampler
from tracing import HOOKS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

DEFAULT_SEED = 0
SETUP_REPEATS = 9
MODULES = ("core", "protocol", "simnet", "checker", "files", "fuzz", "cli")

# sha256 digests at DEFAULT_SEED, taken from the code this benchmark was
# written against. A change that alters a trace byte, a verdict or a printed
# line at that seed fails the run.
PINS = {
    "campaign": {
        "traces": "7cdb0a000afa92dbcef3173a0042f0e3b512235b1ed5cbc15418fba1cbd98fcb",
        "outcomes": "39ab71b366e4afeaa8ad607105e7ea0f9665a16c5496709ff79c2053b85e742d",
    },
    "large-run": {
        "files": "5171f3b8d222ed5da4d39225bfb557590d86aa06808c2f70f0777c4482e6190d",
        "output": "40a9544b44e969adc74f0a27017db52a90bf52eb6d427c2ca57676b8960de935",
    },
    "bare-file": {
        "traces": "86dc38cfd4fbb5179c37062f2724e70273ed050fbd88d09ddb5655cc551263a5",
        "outputs": "98ac95cde5284bffc560aaf3430ba235a82e4dc6119ce2071231e828334037a1",
    },
}

# Durations are CPU time of the benchmark's one thread. The benchmark is
# CPU-bound, and on a shared virtual machine CPU time leaves out the time
# other tenants take from this one, which wall time does not. The --seconds
# budget and the traced pass use wall time. The end-to-end durations are
# then normalized by the reference kernel run beside them (reference.py).
_clock = time.thread_time
_wall = time.perf_counter


def sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def fresh_import() -> types.SimpleNamespace:
    """Import dsmlab from this checkout's src/, dropping any earlier import
    first so that every set-up pays the package's import cost."""
    for name in [m for m in sys.modules if m == "dsmlab" or m.startswith("dsmlab.")]:
        del sys.modules[name]
    dsm = types.SimpleNamespace(
        **{m: importlib.import_module(f"dsmlab.{m}") for m in MODULES}
    )
    origin = Path(sys.modules["dsmlab"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"dsmlab imported from {origin}, not from {SRC}")
    return dsm


def run_cli(dsm, argv: list) -> tuple[int, str]:
    """`dsmlab ARGV` in this process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = dsm.cli.main(argv)
    return code, buf.getvalue()


def accepted_lines(registers) -> set:
    return {"compositional: accepted"} | {f"  register {r}: accepted" for r in registers}


# --- workloads -----------------------------------------------------------------
#
# A workload builds its inputs from the seed in its constructor (the timed
# set-up). An iteration is one step(i, phase) call per name in `phases`;
# verify(i, {phase: result}) -> list of problems, and pinned() -> [(label,
# ok)] holds the checks made once after the loop. Steps are deterministic in
# (seed, i).


class Campaign:
    """Many tiny histories: simulate, complete, check, oracle, both audits."""

    name = "campaign"
    min_iterations = 256  # the outcome digest at the default seed covers these
    cycle = 8  # runs per cycle of CYCLE
    trace_iterations = 400
    phases = ("run",)
    CYCLE = (
        ("sc_abd", "none"),
        ("sc_abd", "none"),
        ("sc_abd", "none"),
        ("sc_abd", "none"),
        ("mw_abd", "none"),
        ("mw_abd", "none"),
        ("sc_abd", "small-quorum"),
        ("sc_abd", "no-writeback"),
    )

    def __init__(self, dsm, seed: int, workdir: Path):
        self.dsm = dsm
        self.seed = seed
        self.seed0 = seed * 1_000_000
        self.outcomes: dict = {}

    def step(self, i: int, phase: str):
        protocol, mutant = self.CYCLE[i % len(self.CYCLE)]
        return self.dsm.fuzz.run_campaign(
            1, mutant=mutant, seed0=self.seed0 + i, protocol=protocol
        )

    def verify(self, i: int, results: dict) -> list:
        # The fuzz exit status is always 0, so the report is what is checked.
        protocol, mutant = self.CYCLE[i % len(self.CYCLE)]
        report = results["run"]
        o = report.outcomes[0]
        if i < self.min_iterations:
            self.outcomes[i] = (
                o.seed, protocol, mutant, o.verdict, o.oracle, o.clock_ok,
                o.visibility_ok, o.quiescent, o.ops,
            )
        problems = []
        if report.soundness_violation_seeds:
            problems.append(f"soundness violation at seed {o.seed}")
        if o.verdict == "undecided":
            problems.append(f"undecided at seed {o.seed}")
        if mutant == "none":
            # Intact protocols: accepted, oracle agrees, audits pass.
            if o.verdict != "accepted" or o.oracle not in (None, "accepted"):
                problems.append(f"{protocol} seed {o.seed}: {o.verdict}/{o.oracle}")
            if not (o.clock_ok and o.visibility_ok and o.quiescent):
                problems.append(f"{protocol} seed {o.seed}: audit or quiescence failed")
        return problems

    def pinned(self) -> list:
        if self.seed != DEFAULT_SEED:
            return []
        fuzz, files, simnet = self.dsm.fuzz, self.dsm.files, self.dsm.simnet
        parts = []
        for i, (protocol, mutant) in enumerate(self.CYCLE):
            trace = simnet.run_simulation(
                fuzz.campaign_config(mutant, self.seed0 + i, protocol)
            )
            parts.append(files.serialize_history(trace.history).encode())
            parts.append(files.serialize_message_log(trace).encode())
        outcomes = json.dumps([self.outcomes.get(i) for i in range(self.min_iterations)]).encode()
        return [
            ("campaign traces", sha256(*parts) == PINS[self.name]["traces"]),
            ("campaign outcomes", sha256(outcomes) == PINS[self.name]["outcomes"]),
        ]


class BareFile:
    """An uninstrumented history: every ts null, one op left pending."""

    name = "bare-file"
    min_iterations = 1
    cycle = 1
    trace_iterations = 3
    phases = ("check", "stats")

    def __init__(self, dsm, seed: int, workdir: Path):
        simnet, files = dsm.simnet, dsm.files
        self.dsm = dsm
        self.seed = seed
        # One mid-op crash leaves one op pending. With timestamps stripped, a
        # pending write cannot be told from one that never reached its
        # update phase, so complete_history drops it even when a read saw
        # its value, and the check then rejects. The crash therefore hits a
        # read. Up to the crash tick the run matches the crash-free one, so
        # that run shows which reads are in flight; picking one of the
        # process's last ten reads keeps the history near 1,000 ops.
        base = simnet.SimConfig(
            n=5,
            seed=seed,
            delay=simnet.UniformDelay(1, 10),
            workload=simnet.Workload(ops_per_process=200, register_count=2, think_time=0),
        )
        free = simnet.run_simulation(base)
        rng = random.Random(f"bare-file:{seed}")
        pid = rng.randint(1, base.n)
        invoked: dict = {}
        reads = []
        for e in free.history:
            if e.proc != pid or e.op.kind != "read":
                continue
            if e.kind == "inv":
                invoked[e.op.opid] = e.rt
            elif e.rt - invoked[e.op.opid] >= 2:
                reads.append((invoked[e.op.opid], e.rt))
        inv_rt, res_rt = rng.choice(reads[-10:])
        cfg = dataclasses.replace(
            base, crashes=((pid, rng.randint(inv_rt + 1, res_rt - 1)),), mid_op_crash=True
        )
        trace = simnet.run_simulation(cfg)
        pending = [d for d in trace.ops.values() if d.ret is None]
        if len(pending) != 1 or pending[0].kind != "read":
            raise RuntimeError(f"crash left {len(pending)} pending ops, not one read")
        lines = []
        for line in files.serialize_history(trace.history).splitlines():
            record = json.loads(line)
            record["ts"] = None
            lines.append(json.dumps(record, separators=(",", ":")))
        self.path = workdir / "bare-file.jsonl"
        self.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        files.write_message_log(files.sidecar_path(self.path), trace)
        self.digest = sha256(
            self.path.read_bytes(), files.sidecar_path(self.path).read_bytes()
        )
        self.events = len(trace.history)
        self.messages = len(trace.message_log)
        self.registers = {d.reg for d in trace.ops.values() if d.ret is not None}
        self.outputs = b""

    def step(self, i: int, phase: str):
        return run_cli(self.dsm, [phase, str(self.path)])

    def verify(self, i: int, results: dict) -> list:
        (check_code, check_out), (stats_code, stats_out) = results["check"], results["stats"]
        if i == 0:
            self.outputs = (check_out + stats_out).encode()
        problems = []
        lines = check_out.splitlines()
        if (
            check_code != 0
            or lines[:1] != ["note: 1 pending operation(s) resolved before checking"]
            or set(lines[1:]) != accepted_lines(self.registers)
        ):
            problems.append(f"check exit {check_code}: {check_out!r}")
        if (
            stats_code != 0
            or f"events: {self.events} " not in stats_out
            or f"messages: {self.messages} (" not in stats_out
        ):
            problems.append(f"stats exit {stats_code}: {stats_out!r}")
        return problems

    def pinned(self) -> list:
        if self.seed != DEFAULT_SEED:
            return []
        return [
            ("bare-file traces", self.digest == PINS[self.name]["traces"]),
            ("bare-file outputs", sha256(self.outputs) == PINS[self.name]["outputs"]),
        ]


class LargeRun:
    """One huge instrumented history: simulate it, write it, check the file."""

    name = "large-run"
    min_iterations = 1
    cycle = 1
    trace_iterations = 1
    phases = ("sim", "write", "check")

    def __init__(self, dsm, seed: int, workdir: Path):
        simnet = dsm.simnet
        self.dsm = dsm
        self.seed = seed
        # 2,800 ops rather than the ROADMAP's 10k: composition is quadratic
        # today (ROADMAP item 2, path 1), so a 10k-op check takes ~50 s, and
        # at 5,600 ops one ~15 s iteration filled a run (see README.md).
        self.config = simnet.SimConfig(
            n=7,
            seed=seed,
            delay=simnet.UniformDelay(1, 10),
            workload=simnet.Workload(ops_per_process=400, register_count=2),
        )
        self.path = workdir / "large-run.jsonl"
        self.trace = None
        self.digest = ""
        self.output = ""

    def step(self, i: int, phase: str):
        files = self.dsm.files
        if phase == "sim":
            self.trace = self.dsm.simnet.run_simulation(self.config)
            return self.trace
        if phase == "write":
            files.write_history(self.path, self.trace.history)
            files.write_message_log(files.sidecar_path(self.path), self.trace)
            return self.path
        return run_cli(self.dsm, ["check", str(self.path)])

    def verify(self, i: int, results: dict) -> list:
        trace, (code, out) = results["sim"], results["check"]
        self.trace = None  # one history held at a time
        expected_ops = self.config.n * self.config.workload.ops_per_process
        completed = [d for d in trace.ops.values() if d.ret is not None]
        registers = {d.reg for d in completed}
        problems = []
        if len(completed) != expected_ops or len(trace.ops) != expected_ops:
            problems.append(f"{len(completed)} of {len(trace.ops)} ops completed")
        if code != 0 or set(out.splitlines()) != accepted_lines(registers):
            problems.append(f"check exit {code}: {out!r}")
        if i == 0:
            files = self.dsm.files
            self.digest = sha256(
                self.path.read_bytes(), files.sidecar_path(self.path).read_bytes()
            )
            self.output = out
        return problems

    def pinned(self) -> list:
        if self.seed != DEFAULT_SEED:
            return []
        return [
            ("large-run files", self.digest == PINS[self.name]["files"]),
            ("large-run output", sha256(self.output.encode()) == PINS[self.name]["output"]),
        ]


WORKLOADS = {w.name: w for w in (Campaign, BareFile, LargeRun)}


# --- measurement ---------------------------------------------------------------


class Tally:
    """Attempted and failed operations, with the first few problems kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                for p in problems:
                    print(f"FAILED: {p}", file=sys.stderr)


def attempt(tally: Tally, fn, *args):
    """fn(*args), or None after counting an exception as a failed operation."""
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc()
        tally.record(["exception raised"])
        return None


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def iteration(wl, i: int) -> tuple[dict, dict]:
    """Every step of iteration i, without the reference kernel: ({phase:
    result}, {phase + "_s": CPU seconds})."""
    results, phase_s = {}, {}
    for phase in wl.phases:
        t0 = _clock()
        results[phase] = wl.step(i, phase)
        phase_s[f"{phase}_s"] = _clock() - t0
    return results, phase_s


def timed_loop(wl, tally: Tally, seconds: float, sampler: Sampler):
    """Iterate for about `seconds` of wall time (never starting an iteration
    that is predicted to end past it, but at least min_iterations). Returns
    the normalized duration of each completed iteration, the normalized
    durations per phase, the CPU seconds of the steps, and the wall time."""
    durations: list = []
    phases: defaultdict = defaultdict(list)
    cpu = 0.0
    start = _wall()
    i = 0
    while True:
        w0 = _wall()
        results, norm = {}, {}
        for phase in wl.phases:
            m0 = sampler.mark()
            out = attempt(tally, wl.step, i, phase)
            program, norm[phase] = sampler.normalize(m0, sampler.mark())
            cpu += program
            if out is None:
                break
            results[phase] = out
        else:
            problems = attempt(tally, wl.verify, i, results)
            if problems is not None:
                tally.record(problems)
            durations.append(sum(norm.values()))
            for phase, value in norm.items():
                phases[phase].append(value)
        w1 = _wall()
        i += 1
        if i >= wl.min_iterations and (w1 - start) + (w1 - w0) > seconds:
            return durations, phases, cpu, w1 - start


def end_to_end(wl, seconds: float, tally: Tally, setup_times: list, sampler: Sampler) -> dict:
    gc.collect()
    durations, phases, cpu, wall = timed_loop(wl, tally, seconds, sampler)
    for label, ok in attempt(tally, wl.pinned) or []:
        tally.record([] if ok else [f"{label} differ from the pinned digest"])
    if not durations:
        return {}
    print(
        f"{len(durations)} iterations in {wall:.3f} s wall: {cpu:.3f} s CPU in the "
        f"program ({sum(durations):.3f} s normalized), {len(sampler.starts)} reference "
        f"calls taking {sampler.prefix[-1]:.3f} s CPU"
    )
    for name, values in phases.items():
        print(f"  phase {name} median {statistics.median(values):.6g} s normalized")
    # The median is taken over whole cycles, as ms per run: within one
    # campaign cycle the per-run median falls on the edge between the n=3
    # and n=5 configs, so it would jump with the seed's share of each.
    k = wl.cycle
    per_cycle = [sum(durations[j:j + k]) / k for j in range(0, len(durations) - k + 1, k)]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "runs_per_s": (len(durations) / sum(durations), "runs/s"),
        "run_ms_p50": (statistics.median(per_cycle) * 1e3, "ms"),
        "run_ms_p99": (percentile(sorted(durations), 0.99) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def instrument(tracer: Tracer, dsm) -> None:
    """Patch every layer boundary the traced pass records. The result hooks
    add exact counts to tracer.counts."""
    counts = tracer.counts

    def note_trace(trace, args):
        counts["runs"] += 1
        counts["ops"] += len(trace.ops)
        counts["msgs"] += len(trace.message_log)
        for r in trace.message_log:
            counts["simnet.stale_msgs"] += r.recv_rt is not None and not r.handled
            counts["simnet.dropped_msgs"] += r.dropped
        for opid, d in trace.completed().items():
            counts[f"{d.kind}s"] += 1
            counts[f"{d.kind}_rounds"] += trace.rounds.get(opid, 0)

    def note_verdict(v, args):
        for vx in v.per_register.values():
            counts["registers"] += 1
            counts["fast_registers"] += vx.states_explored == 0

    def note_search(v, args):
        counts["checker.search_states"] += v.states_explored

    def note_oracle(v, args):
        counts["checker.oracle_states"] += v.states_explored
        counts["oracle_runs"] += 1

    def note_bytes(result, args):
        counts["files.bytes"] += Path(args[0]).stat().st_size

    fuzz, simnet, checker, cli = dsm.fuzz, dsm.simnet, dsm.checker, dsm.cli
    patch = tracer.patch
    patch(fuzz, "run_campaign", "fuzz")
    patch(fuzz, "run_simulation", "simnet", note_trace)
    patch(simnet, "run_simulation", "simnet", note_trace)  # large-run calls it directly
    # sc_abd_step is looked up on every step; mw_abd_step when _Run is built.
    patch(simnet, "sc_abd_step", "protocol.sc_abd")
    patch(simnet, "mw_abd_step", "protocol.mw_abd")
    for model in (simnet.UniformDelay, simnet.FixedLinkDelay, simnet.AdversarialSchedule):
        patch(model, "delay", "simnet.delay")
    tracer.count(simnet, "heappush", "simnet.heap_pushes")
    tracer.count(simnet._Run, "_defer", "simnet.deferrals", when=bool)
    for owner in (fuzz, cli):
        patch(owner, "check_sc_compositional", "checker.compose", note_verdict)
        patch(owner, "complete_history", "checker.complete")
    patch(checker, "build_logical_time_history", "checker.reorder")
    patch(checker, "construct_timestamp_witness", "checker.fastpath")
    patch(checker, "is_legal_sequential", "checker.certify")
    patch(checker, "histories_equivalent", "checker.certify")
    patch(checker, "check_linearizable", "checker.search", note_search)
    patch(checker, "is_well_formed", "core.wellformed")
    patch(fuzz, "check_sc_bruteforce", "checker.oracle", note_oracle)
    patch(fuzz, "audit_logical_clocks", "checker.audit")
    patch(fuzz, "audit_timestamp_visibility", "checker.audit")
    patch(dsm.files, "write_history", "files.write")
    patch(dsm.files, "write_message_log", "files.write")
    patch(cli, "read_history", "files.parse_history", note_bytes)
    patch(cli, "read_message_log", "files.parse_log", note_bytes)
    patch(cli, "cmd_check", "cli.check")
    patch(cli, "cmd_stats", "cli.stats")


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(wl, dsm, tally: Tally, spans_path: Path) -> dict:
    n = wl.trace_iterations
    untraced: list = []
    phases: defaultdict = defaultdict(list)
    gc.collect()
    for i in range(n):
        t0 = _wall()
        results, phase = iteration(wl, i)
        untraced.append(_wall() - t0)
        for k, v in phase.items():
            phases[k].append(v)
        tally.record(wl.verify(i, results))

    tracer = Tracer()
    instrument(tracer, dsm)
    gc.collect()
    try:
        for i in range(n):
            tracer.run_id = i
            results, _ = tracer.call("bench", iteration, wl, i)
            tally.record(wl.verify(i, results))
    finally:
        tracer.restore()
    for label, ok in wl.pinned():
        tally.record([] if ok else [f"{label} differ from the pinned digest"])
    tracer.write(spans_path)

    self_s, calls = tracer.self_times()
    s = lambda name: self_s.get(name, 0.0)  # noqa: E731
    c = lambda name: calls.get(name, 0)  # noqa: E731
    counts = tracer.counts
    traced_wall = sum(e - b for name, b, e, parent, _ in tracer.spans if parent < 0) / 1e9
    steps = c("protocol.sc_abd") + c("protocol.mw_abd")
    step_s = s("protocol.sc_abd") + s("protocol.mw_abd")
    m = {
        "protocol.step_calls": (steps, "count"),
        "protocol.step_s": (step_s, "s"),
        "protocol.step_us": (ratio(step_s, steps) * 1e6, "us"),
    }
    for proto in ("sc_abd", "mw_abd"):
        name = f"protocol.{proto}"
        m[f"{name}.step_calls"] = (c(name), "count")
        m[f"{name}.step_s"] = (s(name), "s")
        m[f"{name}.step_us"] = (ratio(s(name), c(name)) * 1e6, "us")
    m.update({
        "simnet.self_s": (s("simnet"), "s"),
        "simnet.delay_s": (s("simnet.delay"), "s"),
        "simnet.heap_pushes": (counts["simnet.heap_pushes"], "count"),
        "simnet.deferrals": (counts["simnet.deferrals"], "count"),
        "simnet.msgs_per_op": (ratio(counts["msgs"], counts["ops"]), "msgs/op"),
        "simnet.stale_msgs": (counts["simnet.stale_msgs"], "count"),
        "simnet.dropped_msgs": (counts["simnet.dropped_msgs"], "count"),
        "protocol.rounds_per_read": (ratio(counts["read_rounds"], counts["reads"]), "rounds/op"),
        "protocol.rounds_per_write": (
            ratio(counts["write_rounds"], counts["writes"]), "rounds/op"),
        "checker.reorder_s": (s("checker.reorder"), "s"),
        "checker.fastpath_s": (s("checker.fastpath"), "s"),
        "checker.certify_s": (s("checker.certify"), "s"),
        "checker.compose_s": (s("checker.compose"), "s"),
        "checker.search_s": (s("checker.search"), "s"),
        "checker.search_states": (counts["checker.search_states"], "count"),
        "checker.search_states_per_s": (
            ratio(counts["checker.search_states"], s("checker.search")), "states/s"),
        "checker.fastpath_ratio": (
            ratio(counts["fast_registers"], counts["registers"]), "ratio"),
        "checker.oracle_s": (s("checker.oracle"), "s"),
        "checker.oracle_states": (counts["checker.oracle_states"], "count"),
        "checker.audit_s": (s("checker.audit"), "s"),
        "checker.complete_s": (s("checker.complete"), "s"),
        "core.wellformed_calls": (c("core.wellformed"), "count"),
        "core.wellformed_s": (s("core.wellformed"), "s"),
        "files.write_s": (s("files.write"), "s"),
        "files.parse_history_s": (s("files.parse_history"), "s"),
        "files.parse_log_s": (s("files.parse_log"), "s"),
        "files.bytes": (counts["files.bytes"], "bytes"),
        "cli.check_self_s": (s("cli.check"), "s"),
        "cli.stats_self_s": (s("cli.stats"), "s"),
        "fuzz.self_s": (s("fuzz"), "s"),
        "fuzz.oracle_coverage": (ratio(counts["oracle_runs"], counts["runs"]), "ratio"),
        "sim_s": (median_or_zero(phases["sim_s"]), "s"),
        "check_s": (median_or_zero(phases["check_s"]), "s"),
        "stats_s": (median_or_zero(phases["stats_s"]), "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.hooks_s": (s(HOOKS), "s"),
        "trace.residual": (ratio(s("bench") + s(HOOKS), traced_wall), "ratio"),
        "trace_overhead": (ratio(traced_wall, sum(untraced)), "ratio"),
    })
    return m


def median_or_zero(values: list) -> float:
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dsmlab" / "__init__.py").is_file():
        print(f"benchmark: no dsmlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tally = Tally()
    try:
        if args.trace:
            dsm = fresh_import()
            wl = workload(dsm, args.seed, workdir)
            spans_path = WORK / f"spans-{args.workload}-{args.seed}.tsv"
            metrics = per_layer(wl, dsm, tally, spans_path)
        else:
            with Sampler() as sampler:
                setup_times = []
                for _ in range(SETUP_REPEATS):
                    gc.collect()
                    m0 = sampler.mark()
                    dsm = fresh_import()
                    wl = workload(dsm, args.seed, workdir)
                    setup_times.append(sampler.normalize(m0, sampler.mark())[1])
                metrics = end_to_end(wl, args.seconds, tally, setup_times, sampler)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not metrics:
        print("benchmark: no iteration completed", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32} {value:14.6g} {unit}")
    print(f"  fail_ratio = {tally.failed}/{tally.attempted}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
