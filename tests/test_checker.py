"""Checker behavior: reordering, legality, searches, witnesses, audits."""

import random
import re
from dataclasses import replace
from types import SimpleNamespace

import pytest

from dsmlab import checker
from dsmlab.checker import (
    ACCEPTED,
    CheckerInternalError,
    HistoryError,
    InstrumentationError,
    OracleCapError,
    REJECTED,
    UNDECIDED,
    audit_logical_clocks,
    audit_timestamp_visibility,
    build_logical_time_history,
    check_linearizable,
    check_sc_bruteforce,
    check_sc_compositional,
    complete_history,
    construct_timestamp_witness,
    is_legal_sequential,
)
from dsmlab.core import (
    Event,
    INVOCATION,
    OK,
    READ,
    RESPONSE_EVENT,
    Timestamp,
    WRITE,
    histories_equivalent,
)
from dsmlab.simnet import SimConfig, UniformDelay, Workload, run_simulation

from helpers import (
    dense_audit_logical_clocks,
    dict_audit_logical_clocks,
    merge_by_rt,
    naive_linearizable,
    naive_sc,
    op_events,
    random_history,
    sc_not_lin,
    strip_ts,
    unstamped_pending_write,
    write_then_stale_read,
)
from test_simnet import scheduler_corpus
from test_trace_pins import corpus as trace_pin_corpus


# --- logical-time reordering ---------------------------------------------------


def test_logical_time_history_sorts_by_lt():
    h = sc_not_lin()
    hlt = build_logical_time_history(h)
    assert [e.lt for e in hlt] == sorted(e.lt for e in h)
    # p2's read (lts 1, 2) now precedes p1's write (lts 6, 9)
    assert [e.op.opid for e in hlt] == [2, 2, 1, 1]


def test_logical_time_history_is_equivalent_to_input():
    rng = random.Random(31)
    for _ in range(200):
        h = random_history(rng)
        hlt = build_logical_time_history(h)
        assert histories_equivalent(h, hlt)
        assert sorted(e.lt for e in h) == [e.lt for e in hlt]


def test_logical_time_history_rejects_missing_lt():
    (ev,) = op_events(1, 1, WRITE, "x", arg=1, inv=(0, 1))
    broken = [Event(ev.kind, ev.op, ev.rt, None, ev.proc)]
    with pytest.raises(HistoryError):
        build_logical_time_history(broken)


def test_logical_time_history_rejects_nonmonotone_process_clock():
    a = op_events(1, 1, WRITE, "x", arg=1, ret=OK, inv=(0, 5), res=(1, 4))
    with pytest.raises(HistoryError):
        build_logical_time_history(a)


def test_logical_time_tiebreak_is_deterministic():
    # same lt at two processes: proc id decides
    a = op_events(1, 2, WRITE, "x", arg=1, ret=OK, inv=(0, 3), res=(1, 7))
    b = op_events(2, 1, READ, "x", ret=0, inv=(2, 3), res=(3, 7))
    hlt = build_logical_time_history(merge_by_rt(a, b))
    assert [(e.lt, e.proc) for e in hlt] == [(3, 1), (3, 2), (7, 1), (7, 2)]


# --- legality --------------------------------------------------------------------


def test_legal_sequential_cases():
    w1 = op_events(1, 1, WRITE, "x", arg=1, ret=OK, inv=(0, 1), res=(1, 2))
    r1 = op_events(2, 1, READ, "x", ret=1, inv=(2, 3), res=(3, 4))
    assert is_legal_sequential(w1 + r1)
    r0 = op_events(3, 2, READ, "x", ret=0, inv=(4, 1), res=(5, 2))
    assert is_legal_sequential(r0)  # default value with no preceding write
    w2 = op_events(4, 1, WRITE, "x", arg=2, ret=OK, inv=(6, 5), res=(7, 6))
    stale = op_events(5, 1, READ, "x", ret=1, inv=(8, 7), res=(9, 8))
    assert not is_legal_sequential(w1 + w2 + stale)  # last write was 2
    fresh = op_events(6, 1, READ, "x", ret=2, inv=(8, 7), res=(9, 8))
    assert is_legal_sequential(w1 + w2 + fresh)


def test_legal_sequential_is_false_not_raise_on_sequential_illegal():
    # sequential event order, illegal values: stale read after the write
    assert not is_legal_sequential(write_then_stale_read())
    assert not is_legal_sequential(sc_not_lin())


def test_legal_sequential_rejects_non_sequential_input():
    w = op_events(1, 1, WRITE, "x", arg=1, ret=OK, inv=(0, 1), res=(3, 4))
    r = op_events(2, 2, READ, "x", ret=1, inv=(1, 2), res=(2, 3))
    interleaved = merge_by_rt(w, r)  # w.inv r.inv r.res w.res
    with pytest.raises(HistoryError):
        is_legal_sequential(interleaved)
    pending = op_events(3, 1, WRITE, "x", arg=1, inv=(0, 1))
    with pytest.raises(HistoryError):
        is_legal_sequential(pending)


# --- linearizability search ------------------------------------------------------


def test_linearizable_simple_accept():
    w = op_events(1, 1, WRITE, "x", arg=5, ret=OK, inv=(0, 1), res=(3, 4))
    r = op_events(2, 2, READ, "x", ret=5, inv=(1, 1), res=(4, 2))
    v = check_linearizable(merge_by_rt(w, r))
    assert v.accepted
    assert is_legal_sequential(v.witness)
    assert histories_equivalent(v.witness, merge_by_rt(w, r))


def test_linearizable_rejects_stale_read_after_completed_write():
    h = sc_not_lin()
    v = check_linearizable(h)  # real-time precedence forbids the stale read
    assert v.rejected
    assert v.violation is not None and v.violation.register == "x"


def test_linearizable_accepts_concurrent_stale_read():
    # read overlaps the write, so either order is allowed
    w = op_events(1, 1, WRITE, "x", arg=5, ret=OK, inv=(0, 1), res=(5, 4))
    r = op_events(2, 2, READ, "x", ret=0, inv=(1, 1), res=(3, 2))
    assert check_linearizable(merge_by_rt(w, r)).accepted


def test_linearizable_matches_naive_reference():
    rng = random.Random(77)
    checked = 0
    for _ in range(250):
        h = random_history(rng, max_procs=3, max_ops=5)
        got = check_linearizable(h)
        assert got.outcome in (ACCEPTED, REJECTED)
        assert got.accepted == naive_linearizable(h)
        if got.accepted:
            assert is_legal_sequential(got.witness)
            assert histories_equivalent(got.witness, h)
        checked += 1
    assert checked == 250


def test_linearizable_undecided_on_tiny_cap():
    rng = random.Random(5)
    h = random_history(rng, max_procs=3, max_ops=6)
    v = check_linearizable(h, state_cap=1)
    assert v.outcome in (UNDECIDED, ACCEPTED, REJECTED)
    # with a cap this small, any history needing search reports undecided
    big = None
    for _ in range(50):
        h = random_history(rng, max_procs=3, max_ops=6)
        if len(h) >= 8:
            v = check_linearizable(h, state_cap=1)
            if v.undecided:
                big = v
                break
    assert big is not None and big.states_explored >= 1


def test_linearizable_decides_5000_op_untimestamped_register():
    # one register, no think time, every ts stripped: the search has to
    # place all 5,000 ops in one path, deeper than Python's recursion limit
    cfg = SimConfig(n=5, seed=0, workload=Workload(
        ops_per_process=1000, read_fraction=0.5, register_count=1, think_time=0))
    h = strip_ts(run_simulation(cfg).history)
    assert len(h) == 10_000 and all(e.op.ts is None for e in h)
    v = check_linearizable(build_logical_time_history(h))
    assert v.accepted
    assert v.states_explored >= 5000
    assert is_legal_sequential(v.witness) and histories_equivalent(v.witness, h)


def test_linearizable_rejects_pending_input():
    w = op_events(1, 1, WRITE, "x", arg=1, inv=(0, 1))
    with pytest.raises(HistoryError):
        check_linearizable(w)


# --- brute-force oracle -----------------------------------------------------------


def test_bruteforce_accepts_single_process_legal():
    w = op_events(1, 1, WRITE, "x", arg=2, ret=OK, inv=(0, 1), res=(1, 2))
    r = op_events(2, 1, READ, "x", ret=2, inv=(2, 3), res=(3, 4))
    v = check_sc_bruteforce(w + r)
    assert v.accepted and is_legal_sequential(v.witness)


def test_bruteforce_rejects_read_with_no_writer():
    r = op_events(1, 1, READ, "x", ret=1, inv=(0, 1), res=(1, 2))
    assert check_sc_bruteforce(r).rejected


def test_bruteforce_ignores_real_time_precedence():
    assert check_sc_bruteforce(sc_not_lin()).accepted
    assert check_sc_bruteforce(write_then_stale_read()).rejected


def test_bruteforce_matches_naive_reference():
    rng = random.Random(123)
    for _ in range(250):
        h = random_history(rng, max_procs=3, max_ops=5)
        got = check_sc_bruteforce(h)
        assert got.accepted == naive_sc(h)
        if got.accepted:
            assert is_legal_sequential(got.witness)
            assert histories_equivalent(got.witness, h)


def test_bruteforce_runs_under_the_default_state_cap(monkeypatch):
    h = sc_not_lin() + op_events(3, 3, WRITE, "x", arg=2, ret=OK, inv=(30, 1), res=(31, 2))
    assert check_sc_bruteforce(h).states_explored > 2
    monkeypatch.setattr(checker, "DEFAULT_STATE_CAP", 2)
    v = check_sc_bruteforce(h)
    assert v.undecided and v.states_explored == 2 and v.witness is None


def test_bruteforce_refuses_large_histories():
    events = []
    for i in range(11):
        events += op_events(i + 1, 1, WRITE, "x", arg=i, ret=OK,
                            inv=(2 * i, 2 * i + 1), res=(2 * i + 1, 2 * i + 2))
    with pytest.raises(OracleCapError):
        check_sc_bruteforce(events)
    assert check_sc_bruteforce(events, op_cap=11).accepted


# --- timestamp witness -------------------------------------------------------------


def _instrumented_register_history():
    w1 = op_events(1, 1, WRITE, "x", arg=1, ret=OK, ts=(2, 1), inv=(0, 2), res=(2, 4))
    w2 = op_events(2, 2, WRITE, "x", arg=5, ret=OK, ts=(5, 2), inv=(1, 5), res=(3, 7))
    r_init = op_events(3, 3, READ, "x", ret=0, ts=(0, 0), inv=(0, 1), res=(1, 3))
    r_w2 = op_events(4, 3, READ, "x", ret=5, ts=(5, 2), inv=(4, 8), res=(5, 9))
    return merge_by_rt(w1, w2, r_init, r_w2)


def test_witness_construction_orders_by_timestamp():
    h = _instrumented_register_history()
    w = construct_timestamp_witness(h)
    assert [e.op.opid for e in w if e.kind == INVOCATION] == [3, 1, 2, 4]
    assert is_legal_sequential(w)
    assert histories_equivalent(w, h)


def test_witness_reads_of_same_write_ordered_by_invocation_lt():
    w1 = op_events(1, 1, WRITE, "x", arg=9, ret=OK, ts=(3, 1), inv=(0, 3), res=(1, 5))
    ra = op_events(2, 2, READ, "x", ret=9, ts=(3, 1), inv=(2, 8), res=(3, 9))
    rb = op_events(3, 3, READ, "x", ret=9, ts=(3, 1), inv=(2, 4), res=(3, 6))
    w = construct_timestamp_witness(merge_by_rt(w1, ra, rb))
    assert [e.op.opid for e in w if e.kind == INVOCATION] == [1, 3, 2]


def test_witness_construction_instrumentation_errors():
    w1 = op_events(1, 1, WRITE, "x", arg=1, ret=OK, ts=(2, 1), inv=(0, 2), res=(1, 3))
    w2 = op_events(2, 2, WRITE, "x", arg=2, ret=OK, ts=(2, 1), inv=(2, 2), res=(3, 3))
    with pytest.raises(InstrumentationError):
        construct_timestamp_witness(merge_by_rt(w1, w2))  # duplicate write ts
    r = op_events(3, 2, READ, "x", ret=1, ts=(9, 9), inv=(2, 4), res=(3, 5))
    with pytest.raises(InstrumentationError):
        construct_timestamp_witness(merge_by_rt(w1, r))  # ts matches no write
    r2 = op_events(4, 2, READ, "x", ret=1, inv=(2, 4), res=(3, 5))
    with pytest.raises(InstrumentationError):
        construct_timestamp_witness(merge_by_rt(w1, r2))  # missing ts
    with pytest.raises(HistoryError):
        construct_timestamp_witness(_instrumented_register_history() +
                                    op_events(9, 1, WRITE, "y", arg=1, ret=OK,
                                              ts=(9, 1), inv=(10, 10), res=(11, 11)))


@pytest.mark.parametrize("ts", [(0, 0), (0, -1)], ids=["initial", "below-initial"])
def test_witness_refuses_a_write_stamped_at_or_below_the_initial_timestamp(ts):
    # no run stamps a write that low: the fast path refuses it, and the
    # search still decides the register
    w = op_events(1, 1, WRITE, "x", arg=3, ret=OK, ts=ts, inv=(0, 1), res=(1, 2))
    r = op_events(2, 2, READ, "x", ret=3, ts=ts, inv=(2, 3), res=(3, 4))
    h = merge_by_rt(w, r)
    error = f"write 1 carries timestamp {Timestamp(*ts)}, not above Timestamp(lt=0, pid=0)"
    with pytest.raises(InstrumentationError, match=f"^{re.escape(error)}$"):
        construct_timestamp_witness(h)
    v = check_sc_compositional(h)
    assert v.accepted and v.states_explored > 0  # the fast path explores no state
    assert [e.op.opid for e in v.witness] == [1, 1, 2, 2]


# --- compositional SC check ----------------------------------------------------------


def test_compositional_rejects_same_process_stale_read():
    v = check_sc_compositional(write_then_stale_read())
    assert v.rejected
    assert v.violation is not None and v.violation.register == "x"


def test_compositional_accepts_sc_but_not_linearizable_history():
    h = sc_not_lin()
    assert check_linearizable(h).rejected  # not linearizable in real time
    v = check_sc_compositional(h)
    assert v.accepted
    assert is_legal_sequential(v.witness)
    assert histories_equivalent(v.witness, h)


def test_compositional_accepts_simulated_traces_and_certifies_witness():
    for seed in range(15):
        for proto in ("sc_abd", "mw_abd"):
            t = run_simulation(
                SimConfig(n=3, seed=seed, protocol=proto,
                          workload=Workload(ops_per_process=3, read_fraction=0.5,
                                            register_count=2))
            )
            v = check_sc_compositional(t.history)
            assert v.accepted, f"{proto} seed {seed}"
            assert is_legal_sequential(v.witness)
            assert histories_equivalent(v.witness, t.history)
            assert set(v.per_register) == {e.op.reg for e in t.history}
            assert all(vx.accepted for vx in v.per_register.values())


def test_compositional_witness_spans_registers_consistently():
    # same process writes x then reads y's initial value; a timestamp-sorted
    # merge would put the read (ts (0,0)) first and break its process order
    w = op_events(1, 1, WRITE, "x", arg=3, ret=OK, ts=(1, 1), inv=(0, 1), res=(1, 2))
    r = op_events(2, 1, READ, "y", ret=0, ts=(0, 0), inv=(2, 3), res=(3, 4))
    v = check_sc_compositional(merge_by_rt(w, r))
    assert v.accepted
    assert [e.op.opid for e in v.witness if e.kind == INVOCATION] == [1, 2]


def test_compositional_multi_register_cross_process():
    wx = op_events(1, 1, WRITE, "x", arg=1, ret=OK, ts=(1, 1), inv=(0, 1), res=(3, 4))
    wy = op_events(2, 2, WRITE, "y", arg=2, ret=OK, ts=(1, 2), inv=(0, 1), res=(3, 4))
    rx = op_events(3, 2, READ, "x", ret=1, ts=(1, 1), inv=(4, 5), res=(6, 7))
    ry = op_events(4, 1, READ, "y", ret=2, ts=(1, 2), inv=(4, 5), res=(6, 7))
    v = check_sc_compositional(merge_by_rt(wx, wy, rx, ry))
    assert v.accepted
    assert set(v.per_register) == {"x", "y"}


def test_compositional_requires_complete_history():
    w = op_events(1, 1, WRITE, "x", arg=1, ts=(1, 1), inv=(0, 1))
    with pytest.raises(HistoryError):
        check_sc_compositional(w)


def test_every_search_refuses_an_ill_formed_or_pending_history():
    # p1 invokes a second op before its first responds
    w = op_events(1, 1, WRITE, "x", arg=1, ret=OK, ts=(1, 1), inv=(1, 1), res=(4, 4))
    r = op_events(2, 1, READ, "x", ret=1, ts=(1, 1), inv=(2, 2), res=(3, 3))
    pending = op_events(3, 2, WRITE, "x", arg=2, ts=(2, 2), inv=(0, 1))
    for check in (check_sc_compositional, check_linearizable, check_sc_bruteforce):
        with pytest.raises(HistoryError, match="^history is not well formed$"):
            check(merge_by_rt(w, r))
        with pytest.raises(HistoryError, match="^history has pending operations; complete it"):
            check(pending)


def test_a_table_cannot_change_and_what_is_made_of_one_is_validated_again():
    h = _instrumented_register_history()
    t = complete_history(h)
    inv = t[0]
    assert inv.kind == INVOCATION
    # a second invocation of one op: a plain list or tuple, so checked again
    for changed in (list(t) + [inv], t + (inv,), (*t, inv)):
        for check in (check_sc_compositional, check_linearizable, check_sc_bruteforce):
            with pytest.raises(HistoryError, match="^history is not well formed$"):
                check(changed)
    edits = (
        lambda: t.append(inv),
        lambda: t.extend([inv]),
        lambda: t.__setitem__(0, inv),
        lambda: t.__delitem__(0),
        lambda: setattr(t, "descs", {}),
        lambda: setattr(t, "extra", 1),
        lambda: delattr(t, "inv"),
    )
    for edit in edits:
        with pytest.raises((AttributeError, TypeError)):
            edit()
    assert list(t) == h and len(t.descs) == 4
    assert check_sc_bruteforce(t).accepted


def test_compositional_fallback_without_timestamps():
    rng = random.Random(901)
    fell_back = 0
    for _ in range(200):
        h = random_history(rng, max_procs=3, max_ops=5)  # no ts annotations
        v = check_sc_compositional(h)
        if v.outcome == ACCEPTED:
            assert is_legal_sequential(v.witness)
            assert histories_equivalent(v.witness, h)
        fell_back += 1
        # conservative but sound: acceptance implies genuine SC
        if v.accepted and len({e.op.opid for e in h}) <= 8:
            assert naive_sc(h)
    assert fell_back == 200


def test_compositional_undecided_on_tiny_cap():
    rng = random.Random(44)
    hit = False
    for _ in range(80):
        h = random_history(rng, max_procs=3, max_ops=6)
        v = check_sc_compositional(h, state_cap=1)
        if v.undecided:
            hit = True
            assert v.states_explored >= 1
            break
    assert hit


def test_compositional_soundness_against_oracle_on_mutant_histories():
    # acceptance must imply SC even for histories from broken protocols
    from dsmlab.fuzz import campaign_config

    for seed in range(40):
        t = run_simulation(campaign_config("small-quorum", seed))
        h = complete_history(t.history)
        v = check_sc_compositional(h)
        if v.accepted and len({e.op.opid for e in h}) <= 10:
            assert check_sc_bruteforce(h).accepted, f"seed {seed}"


def test_composition_detects_order_cycle_through_barrier():
    # a responds before b is invoked, so b may go only once a is placed; the
    # register witness puts b before a, so neither may go
    a = op_events(1, 1, WRITE, "x", arg=1, ret=OK, ts=(1, 1), inv=(1, 1), res=(2, 2))
    b = op_events(2, 2, WRITE, "x", arg=2, ret=OK, ts=(3, 2), inv=(3, 3), res=(4, 4))
    hlt = build_logical_time_history(merge_by_rt(a, b))
    bogus = checker.Verdict(ACCEPTED, witness=b + a)
    with pytest.raises(CheckerInternalError, match="^witness composition found an order cycle$"):
        checker._compose_witnesses(hlt, {"x": bogus})


def test_composed_witness_is_still_certified(monkeypatch):
    h = merge_by_rt(
        op_events(1, 1, WRITE, "x", arg=1, ret=OK, ts=(1, 1), inv=(1, 1), res=(2, 2)),
        op_events(2, 2, READ, "x", ret=1, ts=(1, 1), inv=(3, 3), res=(4, 4)),
    )
    assert check_sc_compositional(h).accepted
    monkeypatch.setattr(checker, "_compose_witnesses", lambda hlt, per_register: h[2:] + h[:2])
    with pytest.raises(CheckerInternalError, match="composed witness failed certification"):
        check_sc_compositional(h)


def _rounds_history(rounds: int, procs: int = 10, regs: int = 5) -> list[Event]:
    """Timestamped rounds: every process invokes, then every process
    responds. In round k register j is written k + 1 by one process and
    read by another, the read returning round k - 1's write."""
    events: list[Event] = []
    clock = 0
    for k in range(rounds):
        ops = []
        for j in range(regs):
            w, r = (2 * j + k) % procs + 1, (2 * j + 1 + k) % procs + 1
            seen = (k, (2 * j + k - 1) % procs + 1) if k else (0, 0)
            ops.append((w, WRITE, f"r{j}", dict(arg=k + 1, ret=OK, ts=(k + 1, w))))
            ops.append((r, READ, f"r{j}", dict(ret=k, ts=seen)))
        for i, (p, kind, reg, fields) in enumerate(ops):
            inv, res = clock + i + 1, clock + len(ops) + i + 1
            events += op_events(k * len(ops) + i + 1, p, kind, reg,
                                inv=(inv, inv), res=(res, res), **fields)
        clock += 2 * len(ops)
    return sorted(events, key=lambda e: e.rt)


def test_compositional_accepts_20000_op_history():
    # dense precedence would need about 2 * 10^8 edges here
    h = _rounds_history(2000)
    assert len(h) == 40_000
    v = check_sc_compositional(h)
    assert v.accepted
    assert len(v.witness) == len(h)
    assert all(vx.states_explored == 0 for vx in v.per_register.values())


def test_compositional_accepts_10000_register_history():
    # one op per register; the registers are named out of sorted order, and
    # the verdict lists them in order of first appearance
    events: list[Event] = []
    regs = [f"r{i * 7919 % 10_000}" for i in range(10_000)]
    for i, reg in enumerate(regs):
        p, t = i % 4 + 1, 2 * i
        if i % 2:
            events += op_events(i + 1, p, READ, reg, ret=0, ts=(0, 0),
                                inv=(t, t + 1), res=(t + 1, t + 2))
        else:
            events += op_events(i + 1, p, WRITE, reg, arg=i + 1, ret=OK, ts=(t + 1, p),
                                inv=(t, t + 1), res=(t + 1, t + 2))
    v = check_sc_compositional(events)
    assert v.accepted
    assert list(v.per_register) == regs
    assert len(v.witness) == len(events)


# --- completion of crashed histories ---------------------------------------------------


def test_complete_history_drops_pending_reads_keeps_timestamped_writes():
    done = op_events(1, 1, WRITE, "x", arg=1, ret=OK, ts=(1, 1), inv=(0, 1), res=(1, 2))
    pend_w = op_events(2, 2, WRITE, "x", arg=9, ts=(1, 2), inv=(2, 1))
    pend_r = op_events(3, 3, READ, "x", inv=(3, 1))
    h = merge_by_rt(done, pend_w, pend_r)
    out = complete_history(h)
    assert out.inv.keys() == out.res.keys()  # every invocation has its response
    opids = {e.op.opid for e in out}
    assert opids == {1, 2}  # read dropped, write retained
    closed = [e for e in out if e.op.opid == 2 and e.kind == RESPONSE_EVENT]
    assert len(closed) == 1 and closed[0].op.ret == OK
    assert out[-1] is closed[0]
    assert all(closed[0].rt > e.rt and closed[0].lt > e.lt
               for e in out if e is not closed[0])
    # the input history's descriptors are untouched
    assert pend_w[0].op.ret is None


def test_complete_history_keeps_writes_without_timestamps():
    pend_w = op_events(2, 2, WRITE, "x", arg=9, inv=(2, 1))  # query phase crash
    out = complete_history(pend_w)
    assert [(e.kind, e.op.opid, e.op.ret, e.op.ts) for e in out] == [
        (INVOCATION, 2, OK, None), (RESPONSE_EVENT, 2, OK, None)
    ]


def test_an_unstamped_pending_write_that_a_read_saw_is_accepted():
    h = unstamped_pending_write()
    assert len(h) == 3
    out = complete_history(h)
    assert [(e.kind, e.op.opid, e.op.ret) for e in out] == [
        (INVOCATION, 1, OK), (INVOCATION, 2, 1), (RESPONSE_EVENT, 2, 1), (RESPONSE_EVENT, 1, OK)
    ]
    comp, oracle = check_sc_compositional(out), check_sc_bruteforce(out)
    assert comp.accepted and oracle.accepted
    assert [(e.kind, e.op.opid) for e in comp.witness] == [
        (INVOCATION, 1), (RESPONSE_EVENT, 1), (INVOCATION, 2), (RESPONSE_EVENT, 2)
    ]


def test_complete_history_needs_lts_to_close_a_pending_write():
    done = op_events(1, 1, WRITE, "x", arg=1, ret=OK, ts=(1, 1), inv=(0, None), res=(1, 2))
    pend_w = op_events(2, 2, WRITE, "x", arg=9, ts=(1, 2), inv=(2, 1))
    with pytest.raises(
        HistoryError,
        match="^event for op 1 has no lt annotation; cannot place synthetic responses$",
    ):
        complete_history(merge_by_rt(done, pend_w))


def test_complete_history_identity_on_complete_input():
    h = _instrumented_register_history()
    assert list(complete_history(h)) == h


def test_stripping_timestamps_keeps_every_mid_op_crash_verdict():
    # A crashed writer's pending write is kept whether or not it carries a ts:
    # kept last, it is as good as optional, so a stripped history gets its
    # stamped verdict (or undecided) and the oracle agrees under its cap.
    from dsmlab.fuzz import campaign_config

    pending = unstamped_writes = 0
    for protocol in ("sc_abd", "mw_abd"):
        for seed in range(1000):
            t = run_simulation(replace(campaign_config("none", seed, protocol), mid_op_crash=True))
            stamped = check_sc_compositional(complete_history(t.history)).outcome
            h = complete_history(strip_ts(t.history))
            stripped = check_sc_compositional(h).outcome
            assert stripped in (stamped, UNDECIDED), (protocol, seed)
            if stripped != UNDECIDED and len(h.descs) <= checker.ORACLE_OP_CAP:
                assert check_sc_bruteforce(h).outcome == stripped, (protocol, seed)
            left = [op for op in t.ops.values() if op.ret is None]
            pending += bool(left)
            unstamped_writes += sum(op.kind == WRITE and op.ts is None for op in left)
    # runs left with a pending op; pending writes that crashed before their update phase
    assert (pending, unstamped_writes) == (815, 164)


def test_completed_mid_op_crash_traces_check_clean():
    for seed in range(25):
        cfg = SimConfig(n=3, seed=seed, crashes=((2, 3),), mid_op_crash=True,
                        workload=Workload(ops_per_process=3, think_time=0))
        t = run_simulation(cfg)
        h = complete_history(t.history)
        assert h.inv.keys() == h.res.keys()
        assert check_sc_compositional(h).accepted


# --- audits -------------------------------------------------------------------------------


def test_clock_audit_passes_on_simulated_traces():
    for seed in range(10):
        for proto in ("sc_abd", "mw_abd"):
            t = run_simulation(SimConfig(n=4, seed=seed, protocol=proto,
                                         workload=Workload(ops_per_process=3)))
            assert audit_logical_clocks(t)


def test_clock_audit_catches_lowered_receive_lt():
    t = run_simulation(SimConfig(n=3, seed=8, workload=Workload(ops_per_process=2)))
    rec = next(r for r in t.message_log if r.handled)
    original = rec.recv_lt
    rec.recv_lt = rec.msg.lt  # receive no longer strictly after send
    assert not audit_logical_clocks(t)
    rec.recv_lt = original
    assert audit_logical_clocks(t)


def test_clock_audit_catches_tampered_history_event():
    t = run_simulation(SimConfig(n=3, seed=8, workload=Workload(ops_per_process=2)))
    e = t.history[-1]
    t.history[-1] = Event(e.kind, e.op, e.rt, 0, e.proc)  # lt pushed below its past
    assert not audit_logical_clocks(t)


def test_clock_audit_catches_tampered_send_lt():
    # One send's lt lowered by one. The new lt stays above the sender's
    # previous execution and below the receipt, so only the clause "all lts
    # of one handler execution agree" can fire.
    t = run_simulation(SimConfig(n=3, seed=8, workload=Workload(ops_per_process=2)))
    lts = {(e.proc, e.rt): e.lt for e in t.history}
    for r in t.message_log:
        lts[(r.msg.sender, r.send_rt)] = r.msg.lt
        if r.handled:
            lts[(r.msg.receiver, r.recv_rt)] = r.recv_lt
    before, last = {}, {}  # (proc, rt) -> lt of proc's previous execution
    for proc, rt in sorted(lts):
        before[(proc, rt)] = last.get(proc, 0)
        last[proc] = lts[(proc, rt)]
    i, rec = next(
        (i, r) for i, r in enumerate(t.message_log)
        if r.msg.lt - 1 > before[(r.msg.sender, r.send_rt)]
    )
    t.message_log[i] = replace(rec, msg=rec.msg._replace(lt=rec.msg.lt - 1))
    assert not audit_logical_clocks(t)
    assert not dense_audit_logical_clocks(t)
    t.message_log[i] = rec
    assert audit_logical_clocks(t)


def _clock_mutant(t, rng: random.Random) -> SimpleNamespace:
    """t with one event lt, message lt, recv_lt, send_rt or recv_rt moved by
    one or two, or with every lt of one handler execution moved together
    (which the audit may still accept); t itself is left untouched."""
    history, log = list(t.history), list(t.message_log)
    field = rng.choice(("execution", "event lt", "lt", "recv_lt", "send_rt", "recv_rt"))
    delta = rng.choice((-2, -1, 1, 2))
    if field == "execution":
        e = rng.choice(history)
        at = (e.proc, e.rt)
        for i, x in enumerate(history):
            if (x.proc, x.rt) == at:
                history[i] = Event(x.kind, x.op, x.rt, x.lt + delta, x.proc)
        for i, r in enumerate(log):
            if (r.msg.sender, r.send_rt) == at:
                log[i] = r = replace(r, msg=r.msg._replace(lt=r.msg.lt + delta))
            if r.handled and (r.msg.receiver, r.recv_rt) == at:
                log[i] = replace(r, recv_lt=r.recv_lt + delta)
    elif field == "event lt":
        i = rng.randrange(len(history))
        e = history[i]
        history[i] = Event(e.kind, e.op, e.rt, e.lt + delta, e.proc)
    elif field == "lt":
        i = rng.randrange(len(log))
        log[i] = replace(log[i], msg=log[i].msg._replace(lt=log[i].msg.lt + delta))
    else:
        handled = [i for i, r in enumerate(log) if r.handled or field == "send_rt"]
        i = rng.choice(handled)
        log[i] = replace(log[i], **{field: getattr(log[i], field) + delta})
    return SimpleNamespace(history=history, message_log=log)


def test_clock_audit_matches_dense_reference():
    traces = [run_simulation(cfg) for _, cfg in trace_pin_corpus()]
    for t in traces:
        assert audit_logical_clocks(t) and dense_audit_logical_clocks(t)
    rng = random.Random("clock-mutants")
    verdicts = []
    for _ in range(10_000):
        m = _clock_mutant(rng.choice(traces), rng)
        verdicts.append(audit_logical_clocks(m))
        assert verdicts[-1] == dense_audit_logical_clocks(m)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 1000  # both sides compared


def _clock_corruption(t, rng: random.Random) -> tuple:
    """(kind, expected verdict, corrupted copy of t) for one seeded
    corruption of a kind drawn from four; t itself is left untouched."""
    history, log = t.history, t.message_log
    kind = rng.choice(("receipt at most its send", "two lts at one tick",
                       "lt lowered at a later tick", "event lt None"))
    if kind == "receipt at most its send":
        i = rng.choice([i for i, r in enumerate(log) if r.handled])
        log = list(log)
        log[i] = replace(log[i], recv_lt=log[i].msg.lt - rng.randrange(2))
    elif kind == "two lts at one tick":
        e = rng.choice(history)
        history = [*history, Event(e.kind, e.op, e.rt, e.lt + rng.choice((-1, 1)), e.proc)]
    elif kind == "lt lowered at a later tick":
        # Every lt of one execution after a process's first, lowered together
        # to the lt of the execution before it.
        ticks: dict = {}  # proc -> {rt: lt}
        for x in history:
            ticks.setdefault(x.proc, {})[x.rt] = x.lt
        for r in log:
            ticks.setdefault(r.msg.sender, {})[r.send_rt] = r.msg.lt
            if r.handled:
                ticks.setdefault(r.msg.receiver, {})[r.recv_rt] = r.recv_lt
        proc = rng.choice(sorted(p for p, lts in ticks.items() if len(lts) > 1))
        rts = sorted(ticks[proc])
        j = rng.randrange(1, len(rts))
        at, lt = (proc, rts[j]), ticks[proc][rts[j - 1]]
        history = [Event(x.kind, x.op, x.rt, lt, x.proc) if (x.proc, x.rt) == at else x
                   for x in history]
        log = list(log)
        for i, r in enumerate(log):
            if (r.msg.sender, r.send_rt) == at:
                log[i] = r = replace(r, msg=r.msg._replace(lt=lt))
            if r.handled and (r.msg.receiver, r.recv_rt) == at:
                log[i] = replace(r, recv_lt=lt)
    else:
        i = rng.randrange(len(history))
        x = history[i]
        history = [*history[:i], Event(x.kind, x.op, x.rt, None, x.proc), *history[i + 1:]]
    return kind, kind == "event lt None", SimpleNamespace(history=history, message_log=log)


def test_clock_audit_matches_dict_reference_on_scheduler_corpus():
    kinds = set()
    for label, cfg in scheduler_corpus():
        t = run_simulation(cfg)
        assert audit_logical_clocks(t) and dict_audit_logical_clocks(t), label
        if not any(r.handled for r in t.message_log):
            continue
        kind, expected, bad = _clock_corruption(t, random.Random(label))
        assert audit_logical_clocks(bad) == dict_audit_logical_clocks(bad) == expected, (
            label, kind,
        )
        kinds.add(kind)
    assert len(kinds) == 4


def test_visibility_audit_passes_on_simulated_traces():
    for seed in range(10):
        for proto in ("sc_abd", "mw_abd"):
            t = run_simulation(SimConfig(n=5, seed=seed, protocol=proto,
                                         workload=Workload(ops_per_process=3,
                                                           register_count=2)))
            assert audit_timestamp_visibility(t)


def test_visibility_audit_fails_on_inverted_timestamps():
    # r1 saw the write's timestamp; r2, invoked after r1 completed at the
    # same process, reports an older one: visibility broken
    w = op_events(1, 1, WRITE, "x", arg=4, ret=OK, ts=(2, 1), inv=(0, 2), res=(1, 3))
    r1 = op_events(2, 2, READ, "x", ret=4, ts=(2, 1), inv=(2, 4), res=(3, 5))
    r2 = op_events(3, 2, READ, "x", ret=0, ts=(0, 0), inv=(4, 6), res=(5, 7))

    class FakeTrace:
        history = merge_by_rt(w, r1, r2)
        protocol = "sc_abd"

    assert not audit_timestamp_visibility(FakeTrace())


def test_visibility_audit_ignores_query_only_kinds_per_protocol():
    # under sc_abd a write has no query phase, so a "stale" write ts after a
    # newer completed write is a different property, not this audit's target
    w_new = op_events(1, 1, WRITE, "x", arg=1, ret=OK, ts=(9, 1), inv=(0, 9), res=(1, 10))
    w_old = op_events(2, 2, WRITE, "x", arg=2, ret=OK, ts=(3, 2), inv=(2, 2), res=(3, 3))

    class FakeTrace:
        history = merge_by_rt(w_new, w_old)
        protocol = "sc_abd"

    assert audit_timestamp_visibility(FakeTrace())
