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
    Completion,
    Invoke,
    MUTANT_NO_WRITEBACK,
    MUTANT_SMALL_QUORUM,
    ProtocolError,
    State,
    StepOutput,
    Variant,
    handle_update,
    initial_state,
    step,
)
from dsmlab.simnet import OpSpec, SimConfig, Workload, generate_workload, run_simulation
from test_trace_pins import corpus as trace_pin_corpus


def drive_write(n=3, pid=1, val=7, opid=1):
    """Run one sc_abd write at process pid against hand-fed acks."""
    s = initial_state(pid, n)
    out = step(s, Invoke(opid, WRITE, "x", val))
    return s, out


def test_sc_write_broadcasts_update_with_own_timestamp():
    s0, out = drive_write()
    s = out.state
    assert s.opid == 1 and s.lt == 1 and s.rid == 1
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
    assert out.completion is None and out.outbox == ()
    assert out.state.opid == 1 and out.state.rid == 1  # still in the update phase
    # second ack: quorum of 2 out of 3 fires exactly
    out = step(out.state, Ack(sender=2, receiver=1, lt=3, rid=1))
    assert out.completion is not None
    assert out.completion.opid == 1 and out.completion.ret == OK
    assert out.state.opid is None
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
    for protocol in ("sc_abd", "mw_abd"):
        for kind in (READ, WRITE):
            busy = step(initial_state(1, 3, protocol), Invoke(1, kind, "x", 4)).state
            assert busy.opid == 1
            for again in (READ, WRITE):
                with pytest.raises(ProtocolError):
                    step(busy, Invoke(2, again, "x", 5))


def test_invoke_without_an_opid_is_an_error():
    for protocol in ("sc_abd", "mw_abd"):
        for kind in (READ, WRITE):
            with pytest.raises(ProtocolError):
                step(initial_state(1, 3, protocol), Invoke(None, kind, "x", 4))


def test_sc_read_two_phases_and_writeback_of_max():
    s = initial_state(2, 3)
    out = step(s, Invoke(5, READ, "x"))
    s = out.state
    assert s.opid == 5 and s.reading and s.reg == "x"
    assert all(isinstance(m, Query) for m in out.outbox) and len(out.outbox) == 3
    fresh = TimestampValuePair(Timestamp(4, 3), 42)
    stale = TimestampValuePair(Timestamp(2, 1), 17)
    out = step(s, Response(sender=1, receiver=2, lt=5, rid=s.rid, tsv=stale))
    assert out.outbox == () and out.completion is None
    out = step(out.state, Response(sender=3, receiver=2, lt=6, rid=s.rid, tsv=fresh))
    # quorum fired: write-back phase broadcasts the larger pair
    assert out.state.opid == 5 and out.state.val == 42
    assert len(out.outbox) == 3
    assert all(isinstance(m, Update) and m.tsv == fresh and m.reg == "x" for m in out.outbox)
    rid2 = out.state.rid
    out = step(out.state, Ack(sender=2, receiver=2, lt=9, rid=rid2))
    out = step(out.state, Ack(sender=1, receiver=2, lt=10, rid=rid2))
    assert out.completion == (5, 42, None)
    assert out.state.opid is None


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
    assert s.opid == 1 and not s.reading and s.reg == "x" and s.val == 33
    assert len(out.outbox) == 3 and all(isinstance(m, Query) for m in out.outbox)
    r1 = TimestampValuePair(Timestamp(6, 2), 8)
    r2 = TimestampValuePair(Timestamp(4, 3), 9)
    out = step(s, Response(sender=2, receiver=1, lt=7, rid=s.rid, tsv=r1))
    out = step(out.state, Response(sender=3, receiver=1, lt=8, rid=s.rid, tsv=r2))
    # update phase installs (max.lt + 1, own pid) with the written value
    assert out.state.opid == 1 and len(out.outbox) == 3
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
    assert out.state.opid == 9 and out.state.val == 77
    assert len(out.outbox) == 3 and all(isinstance(m, Update) for m in out.outbox)
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
    assert out.state.opid is None


def test_step_rejects_unknown_mutant():
    with pytest.raises(ValueError):
        initial_state(1, 3, mutant="bogus")
    with pytest.raises(ValueError):
        initial_state(1, 3, protocol="raft")


def test_initial_state_resolves_the_variant_once():
    for protocol, qw in (("sc_abd", False), ("mw_abd", True)):
        assert initial_state(1, 5, protocol).v == Variant(qw, 5, 3, True)
        assert initial_state(1, 5, protocol, MUTANT_SMALL_QUORUM).v == Variant(qw, 5, 2, True)
        assert initial_state(1, 5, protocol, MUTANT_NO_WRITEBACK).v == Variant(qw, 5, 3, False)
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
    assert s.opid is None and s.lt == 0  # original untouched
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


# --- positional construction --------------------------------------------------
#
# The handlers build states and messages positionally. Each case below starts
# from a state whose ten fields hold ten distinct values and spells the
# expected output with `_replace` and keywords, so a swapped positional
# argument shows up as a wrong field, whatever the traces exercise.

V_SC, V_MW = Variant(False, 5, 3, True), Variant(True, 5, 3, True)
V_NWB = Variant(False, 5, 3, False)
HELD = TimestampValuePair(Timestamp(7, 4), 70)  # stored at "x", and one held reply
NEW = TimestampValuePair(Timestamp(12, 1), 80)


def distinct_state(v=V_SC, responses=frozenset({(HELD, 4)}), reading=True, opid=19):
    s = State(2, v, 11, 13, {"x": HELD}, responses, reading, "x", 17, opid)
    assert len({repr(f) for f in s}) == len(State._fields) == 10
    return s


def keyword_broadcast(s, kind, **fields):
    return tuple(kind(sender=s.pid, receiver=j, **fields) for j in range(1, s.v.n + 1))


def positional_cases():
    """(label, state, stimulus, expected StepOutput) for every handler branch."""
    cases = []
    for v in (V_SC, V_MW):
        s = distinct_state(v, opid=None)
        fresh = dict(lt=12, rid=14, reg="y", responses=frozenset(), opid=23)
        nxt = s._replace(reading=True, val=None, **fresh)
        query = keyword_broadcast(s, Query, lt=12, rid=14, reg="y")
        cases.append((f"read invoke {v}", s, Invoke(23, READ, "y"), StepOutput(nxt, query)))
        if v.query_writes:
            want = StepOutput(s._replace(reading=False, val=29, **fresh), query)
        else:
            tsv = TimestampValuePair(Timestamp(12, 2), 29)
            update = keyword_broadcast(s, Update, lt=12, rid=14, reg="y", tsv=tsv)
            want = StepOutput(s._replace(reading=False, val=29, **fresh), update)
        cases.append((f"write invoke {v}", s, Invoke(23, WRITE, "y", 29), want))

    s = distinct_state()
    ack = (Ack(sender=2, receiver=3, lt=31, rid=31),)
    q = Query(sender=3, receiver=2, lt=30, rid=31, reg="x")
    resp = (Response(sender=2, receiver=3, lt=31, rid=31, tsv=HELD),)
    cases.append(("query", s, q, StepOutput(s._replace(lt=31), resp)))
    u = Update(sender=3, receiver=2, lt=30, rid=31, reg="x", tsv=NEW)
    cases.append(("update installs", s, u, StepOutput(s._replace(lt=31, tvps={"x": NEW}), ack)))
    old = u._replace(tsv=TimestampValuePair(Timestamp(5, 3), 60))
    cases.append(("update keeps", s, old, StepOutput(s._replace(lt=31), ack)))
    reply = Response(sender=3, receiver=2, lt=30, rid=13, tsv=NEW)
    held = s._replace(lt=31, responses=frozenset({(HELD, 4), (NEW, 3)}))
    cases.append(("reply that does not close", s, reply, StepOutput(held, ())))
    cases.append(("stale reply", s, reply._replace(rid=12), StepOutput(s, ())))

    two = frozenset({(HELD, 4), (INITIAL_PAIR, 1)})
    closed = dict(lt=31, rid=14, responses=frozenset())
    s = distinct_state(responses=two)
    update = keyword_broadcast(s, Update, lt=31, rid=14, reg="x", tsv=NEW)
    want = StepOutput(s._replace(val=80, **closed), update)
    cases.append(("closing query of a read", s, reply, want))
    s = distinct_state(V_MW, responses=two, reading=False)
    tsv = TimestampValuePair(Timestamp(13, 2), 17)
    update = keyword_broadcast(s, Update, lt=31, rid=14, reg="x", tsv=tsv)
    want = StepOutput(s._replace(val=17, **closed), update)
    cases.append(("closing query of a write", s, reply, want))
    s = distinct_state(V_NWB, responses=two)
    nxt = s._replace(val=80, opid=None, **closed)
    want = StepOutput(nxt, (), Completion(opid=19, ret=80, ts=Timestamp(12, 1)))
    cases.append(("closing query without write-back", s, reply, want))
    for reading, ret in ((True, 17), (False, OK)):
        s = distinct_state(responses=frozenset({4, 1}), reading=reading)
        nxt = s._replace(opid=None, **closed)
        want = StepOutput(nxt, (), Completion(opid=19, ret=ret))
        cases.append((f"closing update, ret {ret}", s, Ack(3, 2, 30, 13), want))
    return cases


def test_handlers_fill_every_field_in_place():
    cases = positional_cases()
    assert len(cases) == 14
    for label, s, stim, want in cases:
        got = step(s, stim)
        for name in State._fields:
            assert getattr(got.state, name) == getattr(want.state, name), (label, name)
        assert [type(m) for m in got.outbox] == [type(m) for m in want.outbox], label
        for m, w in zip(got.outbox, want.outbox):
            for name in m._fields:
                assert getattr(m, name) == getattr(w, name), (label, name)
        assert (got.completion is None) == (want.completion is None), label
        if want.completion is not None:
            for name in Completion._fields:
                assert getattr(got.completion, name) == getattr(want.completion, name), label
    stale = next(c for c in cases if c[0] == "stale reply")
    assert step(stale[1], stale[2]).state is stale[1]


# The step builds its tuples with tuple.__new__, which checks no field count:
# a missing trailing field would show only as an IndexError where it is read,
# and an extra one never. So every built tuple is checked for its exact type
# and for one item per field.


def exact(value, cls) -> bool:
    """value is a cls itself, not a subclass, with one item per field."""
    return type(value) is cls and len(value) == len(cls._fields)


def test_handlers_build_every_tuple_at_its_type_and_arity():
    cases = positional_cases()
    assert len(cases) == 14
    for label, s, stim, want in cases:
        got = step(s, stim)
        assert exact(got, StepOutput) and len(got) == 3, label
        assert exact(got.state, State) and len(got.state) == 10, label
        assert len(got.outbox) == len(want.outbox), label
        for m, w in zip(got.outbox, want.outbox):
            assert exact(m, type(w)), label
        if want.completion is not None:
            assert exact(got.completion, Completion), label


def test_simulated_messages_and_workloads_are_built_at_full_arity():
    kinds, ops = set(), 0
    for label, cfg in trace_pin_corpus():
        for rec in run_simulation(cfg).message_log:
            kinds.add(type(rec.msg))
            assert exact(rec.msg, type(rec.msg)), label
        for specs in generate_workload(cfg, random.Random(cfg.seed)).values():
            ops += len(specs)
            assert all(exact(spec, OpSpec) for spec in specs), label
    assert kinds == {Query, Response, Update, Ack} and ops > 1000
