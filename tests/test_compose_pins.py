"""Cross-version pins for composed witnesses.

For every case of the trace-pin corpus (tests/test_trace_pins.py) this module
stores the outcome of check_sc_compositional on the completed history and,
when it accepts, the sha256 of the composed witness's (kind, opid) sequence.
The pins in compose_pins.json were produced by an earlier version of the
witness composition; a rewrite of it must reproduce every one of them, so
the tie-breaking among order-free operations cannot drift unnoticed. On the
same corpus, on criterion 4's acceptance corpus and on the timestamp-free
random histories of the search pins (whose register witnesses come from the
search, not the fast path), the witness must also equal the one composed
from dense precedence edges (the test-only reference
helpers.dense_compose_witnesses).

Regenerate (only when a change of witness order is intended) with

    PYTHONPATH=src:tests python tests/test_compose_pins.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

from dsmlab.checker import (
    _compose_witnesses,
    build_logical_time_history,
    check_sc_compositional,
    complete_history,
)
from dsmlab.simnet import run_simulation

from helpers import dense_compose_witnesses
from test_search_pins import _oracle_campaign_histories
from test_search_pins import corpus as search_corpus
from test_trace_pins import corpus

PINS = Path(__file__).with_name("compose_pins.json")


def witness_digest(witness) -> str:
    seq = " ".join(f"{e.kind}:{e.op.opid}" for e in witness)
    return hashlib.sha256(seq.encode()).hexdigest()


def compute_pins() -> dict:
    pins = {}
    for label, cfg in corpus():
        v = check_sc_compositional(complete_history(run_simulation(cfg).history))
        pins[label] = [v.outcome, witness_digest(v.witness) if v.accepted else None]
    return pins


def test_composed_witnesses_match_pins():
    expected = json.loads(PINS.read_text(encoding="utf-8"))
    got = compute_pins()
    assert sorted(got) == sorted(expected)
    diff = [k for k in expected if got[k] != expected[k]]
    assert not diff, f"{len(diff)} of {len(expected)} pins differ, first {diff[:5]}"


def test_pin_corpus_is_mostly_accepted_with_both_protocols():
    expected = json.loads(PINS.read_text(encoding="utf-8"))
    accepted = [k for k, (outcome, _) in expected.items() if outcome == "accepted"]
    assert len(accepted) >= 100
    assert any(k.startswith("mw_abd/") for k in accepted)


def test_witness_equals_dense_reference():
    traces = ((label, complete_history(run_simulation(cfg).history)) for label, cfg in corpus())
    searched = ((label, h) for label, h, _, _ in itertools.islice(search_corpus(), 300))
    compared = two_register_searched = 0
    for label, h in (*traces, *_oracle_campaign_histories(1000), *searched):
        v = check_sc_compositional(h)
        if not v.accepted:
            continue
        hlt = build_logical_time_history(h)
        dense = dense_compose_witnesses(hlt, v.per_register)
        assert _compose_witnesses(hlt, v.per_register) == dense == v.witness, label
        compared += 1
        if label.startswith("random/") and len(v.per_register) == 2:
            assert all(e.op.ts is None for e in h), label
            two_register_searched += 1
    assert compared >= 900
    assert two_register_searched >= 80


if __name__ == "__main__":
    pins = compute_pins()
    lines = (f"{json.dumps(k)}: {json.dumps(pins[k])}" for k in sorted(pins))
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
