"""Cross-version pins for simulated traces.

For a fixed corpus of simulation configs this module stores one sha256 per
case over the serialized history, the serialized message log and the sorted
per-operation round counts, plus one sha256 over the stdout of `dsmlab run`
followed by `dsmlab stats` on a mid-operation-crash config. The pins in
trace_pins.json were produced by an earlier version of the protocol and
simulator; a refactor of either must reproduce every one of them, so no
trace byte, round count or printed statistic can drift unnoticed.

Regenerate (only when a change of trace is intended) with

    PYTHONPATH=src:tests python tests/test_trace_pins.py
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path

from dsmlab.cli import EXIT_OK, main
from dsmlab.files import serialize_history, serialize_message_log
from dsmlab.fuzz import no_writeback_schedule, small_quorum_schedule
from dsmlab.simnet import (
    AdversarialSchedule,
    DelayRule,
    FixedLinkDelay,
    OTHER,
    SELF,
    SimConfig,
    UniformDelay,
    Workload,
    quorum_size,
    run_simulation,
)

PINS = Path(__file__).with_name("trace_pins.json")

# The config whose `run` + `stats` output is pinned: one process crashes in
# the middle of an operation, so a pending op and dropped messages show.
CLI_CONFIG = """\
n = 5
seed = 7
ops_per_process = 6
register_count = 2
read_fraction = 0.5
think_time = 0
mid_op_crash = true
crashes = 2@9, 4@23
"""


def _delays(rng: random.Random, n: int) -> dict:
    """One delay model of each kind, drawn from rng."""
    links = {}
    for _ in range(rng.randint(0, 2 * n)):
        links[(rng.randint(1, n), rng.randint(1, n))] = rng.randint(1, 12)
    rules = (
        DelayRule(kind="update", receiver=OTHER, lo=rng.randint(5, 30)),
        DelayRule(kind="response", sender=rng.randint(1, n), lo=2, hi=rng.randint(2, 20)),
        DelayRule(kind="query", receiver=SELF, lo=3),
        DelayRule(kind="ack", rid=rng.randint(1, 4), lo=1, hi=15),
    )
    return {
        "uniform": UniformDelay(1, rng.randint(1, 12)),
        "fixed": FixedLinkDelay(default=rng.randint(1, 4), links=links),
        "adversarial": AdversarialSchedule(
            rules=rng.sample(rules, rng.randint(1, len(rules))), default=rng.randint(1, 3)
        ),
    }


def _workload(rng: random.Random) -> Workload:
    return Workload(
        ops_per_process=rng.randint(2, 6),
        read_fraction=rng.choice((0.2, 0.5, 0.8)),
        register_count=rng.randint(1, 3),
        think_time=rng.randint(0, 2),
    )


def _crashes(rng: random.Random, n: int) -> tuple:
    allowed = n - quorum_size(n)
    pids = rng.sample(range(1, n + 1), rng.randint(0, allowed))
    return tuple((p, rng.randrange(0, 60)) for p in pids)


def corpus():
    """Yield (label, SimConfig) for every pinned run."""
    rng = random.Random("trace-pins")
    for protocol in ("sc_abd", "mw_abd"):
        for n in (1, 3, 5, 7):
            for rep in range(2):
                for name, delay in _delays(rng, n).items():
                    for mid in (False, True):
                        cfg = SimConfig(
                            n=n, seed=rng.randrange(1 << 30), delay=delay,
                            workload=_workload(rng), crashes=_crashes(rng, n),
                            protocol=protocol, mid_op_crash=mid,
                        )
                        yield f"{protocol}/n{n}/{name}/{'mid' if mid else 'deferred'}/{rep}", cfg
    mutants = (
        ("small-quorum", small_quorum_schedule()),
        ("no-writeback", no_writeback_schedule()),
    )
    for mutant, schedule in mutants:
        for n in (1, 3, 5, 7):
            for rep in range(2):
                for name, delay in (("schedule", schedule), ("uniform", UniformDelay(1, 8))):
                    cfg = SimConfig(
                        n=n, seed=rng.randrange(1 << 30), delay=delay,
                        workload=_workload(rng), crashes=_crashes(rng, n),
                        mutant=mutant, mid_op_crash=rep == 1,
                    )
                    yield f"{mutant}/n{n}/{name}/{rep}", cfg
    # runs cut at the tick horizon leave ops pending mid-round
    for protocol in ("sc_abd", "mw_abd"):
        for n in (3, 5):
            cfg = SimConfig(
                n=n, seed=rng.randrange(1 << 30), max_ticks=rng.randint(8, 30),
                workload=Workload(ops_per_process=5, register_count=2, think_time=0),
                protocol=protocol,
            )
            yield f"{protocol}/n{n}/horizon", cfg


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    h.update(serialize_history(trace.history).encode())
    h.update(serialize_message_log(trace).encode())
    h.update(repr(sorted(trace.rounds.items())).encode())
    return h.hexdigest()


def cli_digest(workdir: Path) -> str:
    """sha256 of the stdout of `dsmlab run` then `dsmlab stats` on CLI_CONFIG,
    run with relative paths inside workdir so the printed paths are fixed."""
    (workdir / "pin.cfg").write_text(CLI_CONFIG, encoding="utf-8")
    buf = io.StringIO()
    with redirect_stdout(buf):
        codes = (
            main(["run", str(workdir / "pin.cfg"), "--out", str(workdir / "pin.jsonl")]),
            main(["stats", str(workdir / "pin.jsonl")]),
        )
    assert codes == (EXIT_OK, EXIT_OK)
    text = buf.getvalue().replace(str(workdir), "<dir>")
    return hashlib.sha256(text.encode()).hexdigest()


def compute_pins(workdir: Path) -> dict:
    pins = {label: trace_digest(run_simulation(cfg)) for label, cfg in corpus()}
    pins["cli/run+stats"] = cli_digest(workdir)
    return pins


def test_traces_match_pins(tmp_path):
    expected = json.loads(PINS.read_text(encoding="utf-8"))
    got = compute_pins(tmp_path)
    assert sorted(got) == sorted(expected)
    diff = [k for k in expected if got[k] != expected[k]]
    assert not diff, f"{len(diff)} of {len(expected)} pins differ, first {diff[:5]}"


def test_pin_corpus_covers_crashes_and_pending_ops():
    traces = [run_simulation(cfg) for _, cfg in corpus()]
    assert any(t.crash_log and t.config.mid_op_crash for t in traces)
    assert any(len(t.completed()) < len(t.ops) for t in traces)
    assert any(not t.quiescent for t in traces)
    assert {t.config.n for t in traces} == {1, 3, 5, 7}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pins = compute_pins(Path(tmp))
    lines = (f"{json.dumps(k)}: {json.dumps(pins[k])}" for k in sorted(pins))
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
