"""State-machine behavior, driven by hand one message at a time."""

import itertools
import random

import pytest

from dsmlab.core import (
    INITIAL_PAIR,
    OK,
    READ,
    WRITE,
    Ack,
    Query,
    Response,
    Timestamp,
    TimestampValuePair,
    Update,
)
from dsmlab.protocol import (
    IDLE,
    Invoke,
    MUTANT_NO_WRITEBACK,
    MUTANT_SMALL_QUORUM,
    ProtocolError,
    QUERYING,
    State,
    UPDATING,
    Variant,
    handle_update,
    initial_state,
    step,
)
from dsmlab.simnet import SimConfig, Workload, run_simulation


def drive_write(n=3, pid=1, val=7, opid=1):
    """Run one sc_abd write at process pid against hand-fed acks."""
    s = initial_state(pid, n)
    out = step(s, Invoke(opid, WRITE, "x", val))
    return s, out


def test_sc_write_broadcasts_update_with_own_timestamp():
    s0, out = drive_write()
    s = out.state
    assert s.phase == UPDATING and s.opid == 1 and s.lt == 1 and s.rid == 1
    assert len(out.outbox) == 3
    assert [m.receiver for m in out.outbox] == [1, 2, 3]  # self included
    for m in out.outbox:
        assert isinstance(m, Update)
        assert m.tsv == TimestampValuePair(Timestamp(1, 1), 7)
        assert m.rid == 1
    assert out.completion is None


def test_sc_write_completes_at_exact_ack_quorum():
    _, out = drive_write()
    s = out.state
    # first ack: no completion yet
    out = step(s, Ack(sender=1, receiver=1, lt=2, rid=1))
    assert out.completion is None and out.state.phase == UPDATING
    # second ack: quorum of 2 out of 3 fires exactly
    out = step(out.state, Ack(sender=2, receiver=1, lt=3, rid=1))
    assert out.completion is not None
    assert out.completion.opid == 1 and out.completion.ret == OK
    assert out.state.phase == IDLE and out.state.opid is None
    assert out.state.rid == 2  # phase closed, late acks are now stale
    # third ack (late): discarded outright, state untouched
    late = step(out.state, Ack(sender=3, receiver=1, lt=9, rid=1))
    assert late.state is out.state and late.outbox == () and late.completion is None


def test_duplicate_ack_does_not_advance_quorum():
    _, out = drive_write()
    out = step(out.state, Ack(sender=2, receiver=1, lt=2, rid=1))
    # same sender again: the responder set is a set
    out2 = step(out.state, Ack(sender=2, receiver=1, lt=4, rid=1))
    assert out2.completion is None
    assert out2.state.responses == out.state.responses
    assert out2.state.lt == 5  # duplicate still merges the clock (rid matches)


def test_stale_response_discarded_without_clock_merge():
    s = initial_state(1, 3)
    out = step(s, Invoke(1, READ, "x"))
    s = out.state
    stale = Response(sender=2, receiver=1, lt=50, rid=99, tsv=INITIAL_PAIR)
    out2 = step(s, stale)
    assert out2.state is s  # no new state object, no lt merge from the discard
    assert out2.outbox == () and out2.completion is None


def test_invoke_while_busy_is_an_error():
    _, out = drive_write()
    with pytest.raises(ProtocolError):
        step(out.state, Invoke(2, READ, "x"))


def test_sc_read_two_phases_and_writeback_of_max():
    s = initial_state(2, 3)
    out = step(s, Invoke(5, READ, "x"))
    s = out.state
    assert s.phase == QUERYING and s.reading and s.reg == "x"
    assert all(isinstance(m, Query) for m in out.outbox) and len(out.outbox) == 3
    fresh = TimestampValuePair(Timestamp(4, 3), 42)
    stale = TimestampValuePair(Timestamp(2, 1), 17)
    out = step(s, Response(sender=1, receiver=2, lt=5, rid=s.rid, tsv=stale))
    assert out.outbox == () and out.completion is None
    out = step(out.state, Response(sender=3, receiver=2, lt=6, rid=s.rid, tsv=fresh))
    # quorum fired: write-back phase broadcasts the larger pair
    assert out.state.phase == UPDATING and out.state.val == 42
    assert len(out.outbox) == 3
    assert all(isinstance(m, Update) and m.tsv == fresh and m.reg == "x" for m in out.outbox)
    rid2 = out.state.rid
    out = step(out.state, Ack(sender=2, receiver=2, lt=9, rid=rid2))
    out = step(out.state, Ack(sender=1, receiver=2, lt=10, rid=rid2))
    assert out.completion == (5, 42, None)
    assert out.state.phase == IDLE


def test_replica_query_answers_stored_pair():
    s = initial_state(3, 3)
    out = step(s, Query(sender=1, receiver=3, lt=7, rid=4, reg="y"))
    (resp,) = out.outbox
    assert isinstance(resp, Response)
    assert resp.tsv == INITIAL_PAIR and resp.rid == 4 and resp.receiver == 1
    assert out.state.lt == 8  # merged past the query's clock


def test_replica_update_installs_monotonically_and_acks():
    s = initial_state(2, 5)
    hi = TimestampValuePair(Timestamp(9, 4), 1)
    lo = TimestampValuePair(Timestamp(3, 1), 2)
    out = step(s, Update(sender=4, receiver=2, lt=9, rid=1, reg="x", tsv=hi))
    assert out.state.pair("x") == hi
    (ack,) = out.outbox
    assert isinstance(ack, Ack) and ack.receiver == 4 and ack.rid == 1
    # older update arrives later: acked but not installed
    out2 = step(out.state, Update(sender=1, receiver=2, lt=4, rid=7, reg="x", tsv=lo))
    assert out2.state.pair("x") == hi
    assert isinstance(out2.outbox[0], Ack)
    # replay of the same update: idempotent
    out3 = step(out2.state, Update(sender=4, receiver=2, lt=9, rid=1, reg="x", tsv=hi))
    assert out3.state.pair("x") == hi


def test_tvps_monotone_under_random_update_stream():
    rng = random.Random(2024)
    s = initial_state(1, 3)
    seen = INITIAL_PAIR
    for i in range(3000):
        tsv = TimestampValuePair(Timestamp(rng.randint(0, 50), rng.randint(1, 3)), rng.randint(0, 9))
        out = handle_update(s, Update(sender=2, receiver=1, lt=rng.randint(1, 99), rid=i, reg="x", tsv=tsv))
        nxt = out.state.pair("x")
        assert nxt.ts >= s.pair("x").ts  # never goes backward
        assert nxt.ts >= min(tsv.ts, nxt.ts)
        s = out.state
        assert s.pair("x").ts >= seen.ts
        seen = s.pair("x")


def test_mw_write_queries_then_installs_above_max():
    s = initial_state(1, 3, protocol="mw_abd")
    out = step(s, Invoke(1, WRITE, "x", 33))
    s = out.state
    assert s.v.query_writes
    assert s.phase == QUERYING and not s.reading and s.reg == "x" and s.val == 33
    assert all(isinstance(m, Query) for m in out.outbox)
    r1 = TimestampValuePair(Timestamp(6, 2), 8)
    r2 = TimestampValuePair(Timestamp(4, 3), 9)
    out = step(s, Response(sender=2, receiver=1, lt=7, rid=s.rid, tsv=r1))
    out = step(out.state, Response(sender=3, receiver=1, lt=8, rid=s.rid, tsv=r2))
    # update phase installs (max.lt + 1, own pid) with the written value
    assert out.state.phase == UPDATING
    assert all(
        isinstance(m, Update) and m.tsv == TimestampValuePair(Timestamp(7, 1), 33)
        for m in out.outbox
    )
    rid2 = out.state.rid
    out = step(out.state, Ack(sender=1, receiver=1, lt=20, rid=rid2))
    out = step(out.state, Ack(sender=3, receiver=1, lt=21, rid=rid2))
    assert out.completion == (1, OK, None)


def test_mw_read_same_shape_as_sc_read():
    s = initial_state(2, 3, protocol="mw_abd")
    out = step(s, Invoke(9, READ, "z"))
    s = out.state
    pair = TimestampValuePair(Timestamp(3, 1), 77)
    out = step(s, Response(sender=1, receiver=2, lt=4, rid=s.rid, tsv=pair))
    out = step(out.state, Response(sender=2, receiver=2, lt=5, rid=s.rid, tsv=INITIAL_PAIR))
    assert out.state.phase == UPDATING and out.state.val == 77
    assert all(m.tsv == pair and m.reg == "z" for m in out.outbox)


def test_small_quorum_mutant_lowers_threshold():
    s = initial_state(1, 3, mutant=MUTANT_SMALL_QUORUM)
    out = step(s, Invoke(1, WRITE, "x", 5))
    # floor(3/2) = 1 ack completes the write
    out = step(out.state, Ack(sender=1, receiver=1, lt=2, rid=1))
    assert out.completion is not None and out.completion.ret == OK


def test_no_writeback_mutant_skips_read_update_phase():
    s = initial_state(1, 3, mutant=MUTANT_NO_WRITEBACK)
    out = step(s, Invoke(1, READ, "x"))
    s = out.state
    pair = TimestampValuePair(Timestamp(8, 2), 3)
    out = step(s, Response(sender=2, receiver=1, lt=9, rid=s.rid, tsv=pair))
    out = step(out.state, Response(sender=3, receiver=1, lt=10, rid=s.rid, tsv=INITIAL_PAIR))
    # completes straight out of the query phase, reporting the chosen ts
    assert out.outbox == ()
    assert out.completion is not None
    assert out.completion.ret == 3 and out.completion.ts == Timestamp(8, 2)
    assert out.state.phase == IDLE


def test_step_rejects_unknown_mutant():
    with pytest.raises(ValueError):
        initial_state(1, 3, mutant="bogus")
    with pytest.raises(ValueError):
        initial_state(1, 3, protocol="raft")


def test_initial_state_resolves_the_variant_once():
    for protocol, qw in (("sc_abd", False), ("mw_abd", True)):
        assert initial_state(1, 5, protocol).v == Variant(qw, 3, True)
        assert initial_state(1, 5, protocol, MUTANT_SMALL_QUORUM).v == Variant(qw, 2, True)
        assert initial_state(1, 5, protocol, MUTANT_NO_WRITEBACK).v == Variant(qw, 3, False)
    assert initial_state(1, 1, mutant=MUTANT_SMALL_QUORUM).v.threshold == 1


def test_step_rejects_unknown_op_kind_and_stimulus():
    s = initial_state(1, 3)
    with pytest.raises(ProtocolError):
        step(s, Invoke(1, "cas", "x", 1))
    with pytest.raises(ProtocolError):
        step(s, ("query", 2, 1))


def test_states_are_immutable_values():
    s = initial_state(1, 3)
    with pytest.raises(AttributeError):
        s.lt = 5
    out = step(s, Invoke(1, WRITE, "x", 1))
    assert s.phase == IDLE  # original untouched
    assert out.state is not s


def test_states_and_messages_are_tuples_with_value_semantics():
    empty = State._field_defaults["tvps"]
    run_simulation(SimConfig(n=5, seed=3, workload=Workload(ops_per_process=4, register_count=2)))
    assert empty == {} and initial_state(1, 3).tvps is empty  # shared, never mutated
    # A stale reply returns the very input state: the simulator marks a
    # delivery handled by that identity.
    s = step(initial_state(1, 3), Invoke(1, READ, "x")).state
    for stale in (Response(2, 1, 50, s.rid + 1, INITIAL_PAIR), Ack(2, 1, 50, s.rid - 1)):
        out = step(s, stale)
        assert out.state is s and out.outbox == () and out.completion is None
    msgs = [
        Query(1, 2, 3, 4, "x"),
        Response(1, 2, 3, 4, INITIAL_PAIR),
        Update(1, 2, 3, 4, "x", INITIAL_PAIR),
        Ack(1, 2, 3, 4),
    ]
    assert all(a != b for a, b in itertools.combinations(msgs, 2))
    assert [m.kind for m in msgs] == ["query", "response", "update", "ack"]
    assert all("kind" not in m._fields for m in msgs)
