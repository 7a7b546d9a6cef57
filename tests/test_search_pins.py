"""Cross-version pins for the exact searches.

For a fixed corpus this module stores, per case, the verdict, the sha256 of
the witness opid sequence and the states explored of both
check_linearizable and check_sc_bruteforce. The pins in search_pins.json
were produced by an earlier version of the searches; a rewrite of the search
engine must reproduce every one of them, so exploration order and memo
semantics cannot drift unnoticed.

Regenerate (only when a change of exploration order is intended) with

    PYTHONPATH=src:tests python tests/test_search_pins.py
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path

from dsmlab.checker import (
    build_logical_time_history,
    check_linearizable,
    check_sc_bruteforce,
    complete_history,
)
from dsmlab.core import Event
from dsmlab.fuzz import no_writeback_schedule, small_quorum_schedule
from dsmlab.simnet import SimConfig, UniformDelay, Workload, run_simulation

from helpers import project_register, random_history, strip_ts

PINS = Path(__file__).with_name("search_pins.json")


def _zero_writes(h: list[Event]) -> list[Event]:
    """Rename value 1 to 0 in writes and reads, so writes of the initial
    value occur and a read of 0 may follow either no write or a write of 0."""
    fresh = {}

    def swap(v):
        return 0 if v == 1 else v

    def desc(op):
        if op.opid not in fresh:
            fresh[op.opid] = replace(op, arg=swap(op.arg), ret=swap(op.ret))
        return fresh[op.opid]

    return [Event(e.kind, desc(e.op), e.rt, e.lt, e.proc) for e in h]


def _oracle_campaign_histories(count: int):
    """The first `count` histories of criterion 4's generator."""
    rng = random.Random("oracle-agreement")
    for i in range(count):
        mutant = ("none", "none", "small-quorum", "no-writeback")[i % 4]
        if mutant == "small-quorum":
            delay: object = small_quorum_schedule()
        elif mutant == "no-writeback":
            delay = no_writeback_schedule()
        else:
            delay = UniformDelay(1, rng.randint(3, 9))
        crashes = ()
        if mutant == "none" and rng.random() < 0.3:
            crashes = ((rng.randint(1, 3), rng.randrange(0, 40)),)
        cfg = SimConfig(
            n=3, seed=10_000 + i, mutant=mutant, delay=delay, crashes=crashes,
            workload=Workload(ops_per_process=rng.randint(2, 3),
                              read_fraction=rng.choice((0.3, 0.5, 0.7)),
                              register_count=rng.randint(1, 2),
                              think_time=rng.randint(0, 2)),
        )
        yield f"oracle-campaign/{i}", complete_history(run_simulation(cfg).history)


# (label, config) of simulated runs whose timestamps are stripped, so the
# per-register check has to search; each stays under 800 operations.
_STRIPPED_RUNS = (
    ("sc-n5-r1", SimConfig(n=5, seed=1, workload=Workload(
        ops_per_process=150, read_fraction=0.5, register_count=1, think_time=0))),
    ("sc-n3-r2", SimConfig(n=3, seed=2, workload=Workload(
        ops_per_process=120, read_fraction=0.6, register_count=2, think_time=1))),
    ("mw-n4-r2", SimConfig(n=4, seed=3, protocol="mw_abd", workload=Workload(
        ops_per_process=100, read_fraction=0.4, register_count=2, think_time=0))),
    ("sq-n3-r1", SimConfig(n=3, seed=4, mutant="small-quorum",
                           delay=small_quorum_schedule(), workload=Workload(
        ops_per_process=40, read_fraction=0.5, register_count=1, think_time=1))),
    ("nw-n3-r1", SimConfig(n=3, seed=5, mutant="no-writeback",
                           delay=no_writeback_schedule(), workload=Workload(
        ops_per_process=60, read_fraction=0.7, register_count=1, think_time=0))),
)


def corpus():
    """Yield (label, history, lin state caps, run the oracle?)."""
    rng = random.Random("search-pins")
    for i in range(300):
        h = random_history(rng, max_procs=(3, 4)[i % 2], max_ops=(6, 8)[i % 2])
        if i % 3 == 2:
            h = _zero_writes(h)
        caps = (None, 1, 3, 10) if i % 10 == 0 else (None,)
        yield f"random/{i}", h, caps, True
    for label, h in _oracle_campaign_histories(200):
        yield label, h, (None,), True
        yield label + "/lt", build_logical_time_history(h), (None,), False
    for label, cfg in _STRIPPED_RUNS:
        hlt = build_logical_time_history(strip_ts(complete_history(run_simulation(cfg).history)))
        regs = sorted({e.op.reg for e in hlt})
        for x in regs:
            yield f"stripped/{label}/{x}", project_register(hlt, x), (None, 100), False


def _pin(v) -> list:
    digest = None
    if v.witness is not None:
        opids = " ".join(str(e.op.opid) for e in v.witness)
        digest = hashlib.sha256(opids.encode()).hexdigest()
    return [v.outcome, digest, v.states_explored]


def compute_pins() -> dict:
    pins = {}
    for label, h, caps, oracle in corpus():
        for cap in caps:
            v = check_linearizable(h) if cap is None else check_linearizable(h, state_cap=cap)
            pins[f"{label}/lin" + ("" if cap is None else f"@{cap}")] = _pin(v)
        if oracle:
            pins[f"{label}/oracle"] = _pin(check_sc_bruteforce(h))
    return pins


def test_search_results_match_pins():
    expected = json.loads(PINS.read_text(encoding="utf-8"))
    got = compute_pins()
    assert sorted(got) == sorted(expected)
    diff = [k for k in expected if got[k] != expected[k]]
    assert not diff, f"{len(diff)} pins differ, first {diff[:5]}: " + str(
        [(expected[k], got[k]) for k in diff[:3]]
    )


def test_pin_corpus_covers_every_outcome():
    expected = json.loads(PINS.read_text(encoding="utf-8"))
    outcomes = {pin[0] for pin in expected.values()}
    assert outcomes == {"accepted", "rejected", "undecided"}
    assert any(k.startswith("stripped/") and pin[2] > 100
               for k, pin in expected.items() if "@" not in k)


if __name__ == "__main__":
    pins = compute_pins()
    lines = (f"{json.dumps(k)}: {json.dumps(pins[k])}" for k in sorted(pins))
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
