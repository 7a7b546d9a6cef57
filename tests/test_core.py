"""Vocabulary-level behavior: timestamps, clocks, quorums, histories."""

import random

import pytest

from dsmlab.checker import _OpTable
from dsmlab.core import (
    INITIAL_PAIR,
    INITIAL_TS,
    OK,
    READ,
    WRITE,
    Timestamp,
    TimestampValuePair,
    clock_local_step,
    clock_merge,
    histories_equivalent,
    is_well_formed,
    quorum_size,
)

from helpers import dense_is_well_formed, merge_by_rt, op_events, project_register


def test_timestamp_lexicographic_order():
    assert Timestamp(1, 2) < Timestamp(2, 1)
    assert Timestamp(2, 1) > Timestamp(1, 2)
    assert Timestamp(3, 1) < Timestamp(3, 2)
    assert Timestamp(3, 2) == Timestamp(3, 2) and not Timestamp(3, 2) < Timestamp(3, 2)
    assert INITIAL_TS < Timestamp(0, 1) < Timestamp(1, 0)


def test_timestamp_total_order_laws():
    rng = random.Random(100)
    pts = [Timestamp(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(300)]
    for a in pts[:60]:
        for b in pts[:60]:
            assert (a < b) == (b > a)  # antisymmetry
            assert (a < b) + (a == b) + (a > b) == 1  # trichotomy
    for _ in range(2000):
        a, b, c = (Timestamp(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(3))
        if a <= b <= c:
            assert a <= c  # transitivity on the induced order


def test_max_pair_decides_by_timestamp_only():
    def max_pair(a, b):
        return max(a, b, key=lambda p: p.ts)

    lo = TimestampValuePair(Timestamp(1, 1), 99)
    hi = TimestampValuePair(Timestamp(2, 1), 5)
    assert max_pair(lo, hi) is hi
    assert max_pair(hi, lo) is hi
    # ties keep the first argument; well-formed traces never have ties with
    # different values
    tie = TimestampValuePair(Timestamp(1, 1), 42)
    assert max_pair(lo, tie) is lo
    assert max_pair(INITIAL_PAIR, lo) is lo


def test_clock_steps():
    assert clock_local_step(0) == 1
    assert clock_local_step(41) == 42
    assert clock_merge(3, 7) == 8
    assert clock_merge(7, 3) == 8
    assert clock_merge(5, 5) == 6


def test_quorum_size_values():
    assert quorum_size(1) == 1
    assert quorum_size(2) == 2
    assert quorum_size(3) == 2
    assert quorum_size(4) == 3
    assert quorum_size(5) == 3
    assert quorum_size(7) == 4


def test_quorum_size_rejects_nonpositive():
    with pytest.raises(ValueError):
        quorum_size(0)
    with pytest.raises(ValueError):
        quorum_size(-3)


def test_quorum_intersection_over_range():
    for n in range(1, 101):
        q = quorum_size(n)
        assert 2 * q > n  # two quorums must share a process
        assert q <= n


def _tiny_history():
    w = op_events(1, 1, WRITE, "x", arg=5, ret=OK, inv=(1, 1), res=(4, 3))
    r = op_events(2, 2, READ, "x", ret=5, inv=(2, 1), res=(5, 4))
    wy = op_events(3, 1, WRITE, "y", arg=7, ret=OK, inv=(6, 5), res=(7, 6))
    return merge_by_rt(w, r, wy)


def test_projections():
    h = _tiny_history()
    assert project_register(h, "z") == []
    assert {e.op.opid for e in project_register(h, "x")} == {1, 2}
    assert {e.op.opid for e in project_register(h, "y")} == {3}


def test_histories_equivalent_ignores_cross_process_order():
    h = _tiny_history()
    # swap the interleaving of p1 and p2 events; per-process orders unchanged
    reordered = sorted(h, key=lambda e: (e.proc, e.rt))
    assert histories_equivalent(h, reordered)
    assert histories_equivalent(reordered, h)
    assert histories_equivalent(h, h)


def test_histories_equivalent_detects_differences():
    h = _tiny_history()
    assert not histories_equivalent(h, h[:-1])  # missing an event
    swapped = list(h)
    i1 = next(i for i, e in enumerate(swapped) if e.proc == 1)
    i2 = next(i for i, e in enumerate(swapped) if e.proc == 1 and i > i1)
    swapped[i1], swapped[i2] = swapped[i2], swapped[i1]
    assert not histories_equivalent(h, swapped)


def test_histories_equivalent_is_equivalence_relation():
    rng = random.Random(7)
    from helpers import random_history

    for _ in range(50):
        h = random_history(rng)
        procs = sorted({e.proc for e in h})
        # random interleaving preserving per-process order
        streams = {p: [e for e in h if e.proc == p] for p in procs}
        idx = {p: 0 for p in procs}
        mixed = []
        while any(idx[p] < len(streams[p]) for p in procs):
            p = rng.choice([q for q in procs if idx[q] < len(streams[q])])
            mixed.append(streams[p][idx[p]])
            idx[p] += 1
        assert histories_equivalent(h, mixed)
        assert histories_equivalent(mixed, h)


def test_sequential_and_complete_predicates():
    h = _tiny_history()
    assert is_well_formed(h)  # p2's read overlaps p1's write: allowed across processes
    assert _OpTable(h).inv.keys() == _OpTable(h).res.keys()  # nothing pending
    seq = merge_by_rt(
        op_events(1, 1, WRITE, "x", arg=5, ret=OK, inv=(1, 1), res=(2, 2)),
        op_events(2, 2, READ, "x", ret=5, inv=(3, 1), res=(4, 2)),
    )
    pending = seq + op_events(3, 1, READ, "x", inv=(5, 3))
    assert is_well_formed(pending)  # one trailing invocation allowed
    table = _OpTable(pending)
    assert table.inv.keys() - table.res.keys() == {3}


def test_well_formedness_rejections():
    w = op_events(1, 1, WRITE, "x", arg=1, ret=OK, inv=(1, 1), res=(2, 2))
    assert not is_well_formed([w[1], w[0]])  # response first
    assert not is_well_formed(w + [w[0]])  # double invocation
    assert not is_well_formed(w + [w[1]])  # double response
    # two ops of one process overlapping each other
    a = op_events(1, 1, WRITE, "x", arg=1, ret=OK, inv=(1, 1), res=(4, 4))
    b = op_events(2, 1, READ, "x", ret=0, inv=(2, 2), res=(3, 3))
    assert not is_well_formed(merge_by_rt(a, b))


def test_well_formedness_matches_dense_reference():
    """The one-pass test agrees with the per-process projection reference on
    random event sequences: shuffled, duplicated, dropped and re-homed events
    of small histories, plus events of an unknown kind."""
    rng = random.Random("well-formed")
    formed = 0
    for _ in range(20_000):
        events = []
        for opid in range(1, rng.randint(1, 5)):
            proc = rng.randint(1, 3)
            res = None if rng.random() < 0.2 else (2 * opid + 1, 0)
            events += op_events(opid, proc, READ, "x", ret=0, inv=(2 * opid, 0), res=res)
        if rng.random() < 0.5:
            rng.shuffle(events)
        for _ in range(rng.randint(0, 2)):
            if not events:
                break
            e = rng.choice(events)
            roll = rng.random()
            if roll < 0.3:
                events.insert(rng.randrange(len(events) + 1), e)  # duplicate
            elif roll < 0.6:
                events.remove(e)
            elif roll < 0.9:  # the same op's event at another process
                i = events.index(e)
                events[i] = type(e)(e.kind, e.op, e.rt, e.lt, e.proc % 3 + 1)
            else:
                i = events.index(e)
                events[i] = type(e)("bogus", e.op, e.rt, e.lt, e.proc)
        verdict = is_well_formed(events)
        assert verdict == dense_is_well_formed(events), events
        formed += verdict
    assert 2_000 < formed < 18_000  # both verdicts well represented
