"""Simulator behavior: determinism, rounds, crashes, delays, outcomes."""

import itertools
import random
import statistics
from bisect import bisect_right
from collections import Counter

import pytest

from dsmlab import simnet
from dsmlab.core import INVOCATION, READ, WRITE, quorum_size
from dsmlab.files import serialize_history, serialize_message_log
from dsmlab.fuzz import campaign_config, no_writeback_schedule, small_quorum_schedule
from dsmlab.protocol import MUTANTS, PROTOCOLS, SC_ABD, Variant
from dsmlab.simnet import (
    AdversarialSchedule,
    ConfigError,
    DelayRule,
    FixedLinkDelay,
    HORIZON,
    QUIESCENT,
    SimConfig,
    UniformDelay,
    Workload,
    _Run,
    generate_workload,
    op_rounds,
    run_simulation,
)

from helpers import HeapRun, dense_op_rounds
from test_trace_pins import corpus as trace_pin_corpus


def test_runs_are_deterministic_byte_for_byte():
    for seed in (0, 1, 17):
        cfg = SimConfig(n=5, seed=seed, workload=Workload(ops_per_process=3, register_count=2))
        a, b = run_simulation(cfg), run_simulation(cfg)
        assert serialize_history(a.history) == serialize_history(b.history)
        assert serialize_message_log(a) == serialize_message_log(b)
        assert a.rounds == b.rounds and a.crash_log == b.crash_log


def test_different_seeds_differ():
    cfg0 = SimConfig(n=3, seed=0, workload=Workload(ops_per_process=4))
    cfg1 = SimConfig(n=3, seed=1, workload=Workload(ops_per_process=4))
    assert serialize_history(run_simulation(cfg0).history) != serialize_history(
        run_simulation(cfg1).history
    )


def test_sc_abd_round_counts():
    for seed in range(12):
        t = run_simulation(
            SimConfig(n=3, seed=seed, workload=Workload(ops_per_process=3, read_fraction=0.5))
        )
        assert t.quiescent
        for opid, d in t.completed().items():
            assert t.rounds[opid] == (1 if d.kind == WRITE else 2)


def test_mw_abd_round_counts():
    for seed in range(12):
        t = run_simulation(
            SimConfig(
                n=3, seed=seed, protocol="mw_abd",
                workload=Workload(ops_per_process=3, read_fraction=0.5),
            )
        )
        assert t.quiescent
        for opid, d in t.completed().items():
            assert t.rounds[opid] == 2


def test_op_rounds_matches_dense_reference_on_trace_pin_corpus():
    for label, cfg in trace_pin_corpus():
        t = run_simulation(cfg)
        rounds = op_rounds(t.history, t.message_log)
        assert sorted(rounds) == sorted(t.ops), label  # pending ops included
        dense = dense_op_rounds(t.history, t.message_log)
        assert {o: rounds[o] for o in t.completed()} == dense, label


def test_all_ops_complete_without_crashes():
    for n in (1, 2, 3, 5, 7):
        t = run_simulation(SimConfig(n=n, seed=5, workload=Workload(ops_per_process=2)))
        assert t.quiescent
        assert len(t.completed()) == 2 * n


def test_crash_deferral_keeps_histories_complete():
    cfg = SimConfig(n=5, seed=9, crashes=((1, 3), (4, 12)),
                    workload=Workload(ops_per_process=3, think_time=2))
    t = run_simulation(cfg)
    assert t.quiescent
    assert {p for p, _ in t.crash_log} == {1, 4}
    # deferral: crashes land at operation boundaries, so nothing is pending
    assert all(d.ret is not None for d in t.ops.values())
    # crashed processes stop invoking; correct ones finish their workload
    by_proc = {}
    for d in t.ops.values():
        by_proc[d.proc] = by_proc.get(d.proc, 0) + 1
    for p in (2, 3, 5):
        assert by_proc.get(p, 0) == 3


def test_mid_op_crash_can_leave_pending_ops():
    pending_seen = False
    for seed in range(30):
        cfg = SimConfig(n=3, seed=seed, crashes=((2, 2),), mid_op_crash=True,
                        workload=Workload(ops_per_process=3, think_time=0))
        t = run_simulation(cfg)
        assert t.quiescent
        pend = [d for d in t.ops.values() if d.ret is None]
        for d in pend:
            assert d.proc == 2
        pending_seen = pending_seen or bool(pend)
    assert pending_seen


def test_messages_to_crashed_processes_are_dropped():
    cfg = SimConfig(n=3, seed=4, crashes=((3, 1),), workload=Workload(ops_per_process=2))
    t = run_simulation(cfg)
    dropped = [r for r in t.message_log if r.dropped]
    assert dropped
    assert all(r.msg.receiver == 3 for r in dropped)
    assert all(r.recv_rt is None and not r.handled for r in dropped)


def test_crash_bound_enforced():
    with pytest.raises(ConfigError):
        SimConfig(n=3, seed=0, crashes=((1, 0), (2, 0))).validate()
    SimConfig(n=3, seed=0, crashes=((1, 0),)).validate()
    with pytest.raises(ConfigError):
        SimConfig(n=5, seed=0, crashes=((1, 0), (2, 0), (3, 0))).validate()


def test_crash_bound_is_tight():
    # ceil(n/2) crashes, one more than validate allows, leave no quorum of live processes:
    # run unvalidated, the network empties with a correct process's op still waiting
    for protocol in PROTOCOLS:
        for n in (3, 4, 5):
            crashes = tuple((p, 5) for p in range(1, (n + 1) // 2 + 1))
            for seed in range(3):
                cfg = SimConfig(n=n, seed=seed, crashes=crashes, protocol=protocol,
                                workload=Workload(ops_per_process=3))
                with pytest.raises(ConfigError, match="would break the quorum assumption"):
                    cfg.validate()
                t = _Run(cfg).run()
                assert t.quiescent, (protocol, n, seed)
                down = {p for p, _ in crashes}
                assert any(d.ret is None and d.proc not in down for d in t.ops.values()), (
                    protocol, n, seed)


def _messages_per_op(t) -> Counter:
    """opid -> the messages that the op's phases caused. Each query and update
    send is charged as op_rounds charges it, to the latest op that its sender
    invoked at or before the send; each reply through its request's sender and
    rid. A message that cannot be charged fails the test."""
    starts: dict = {}  # pid -> its invocation ticks, in order
    opened: dict = {}  # pid -> its opids, in the same order
    ends = {}
    for e in t.history:
        if e.kind == INVOCATION:
            starts.setdefault(e.proc, []).append(e.rt)
            opened.setdefault(e.proc, []).append(e.op.opid)
        else:
            ends[e.op.opid] = e.rt
    phase_op = {}  # (sender, rid) of a request -> the op that sent it
    charged: Counter = Counter()
    for rec in t.message_log:
        m = rec.msg
        if m.kind in ("query", "update"):
            i = bisect_right(starts[m.sender], rec.send_rt) - 1
            assert i >= 0 and rec.send_rt <= ends[opened[m.sender][i]], rec
            opid = phase_op.setdefault((m.sender, m.rid), opened[m.sender][i])
            assert opid == opened[m.sender][i], rec
        else:
            opid = phase_op[m.receiver, m.rid]
        charged[opid] += 1
    return charged


# (protocol, n) -> write p50 and read p50 in ticks, from invocation to response,
# and messages per op: 20 seeds, 50 ops per process, 2 registers, read fraction
# 0.5, uniform delays 1..10, think time 1, no crashes (the README's cost table)
COST_TABLE = {
    ("sc_abd", 3): (11, 23, 9.1),
    ("sc_abd", 5): (12, 25, 15.0),
    ("sc_abd", 7): (14, 27, 21.0),
    ("mw_abd", 3): (23, 23, 12.0),
    ("mw_abd", 5): (25, 25, 20.0),
    ("mw_abd", 7): (28, 27, 28.0),
}


@pytest.mark.parametrize("protocol, n", list(COST_TABLE))
def test_a_one_round_write_costs_2n_messages_and_half_the_time(protocol, n):
    # the paper's cost claim: an sc_abd write takes one round trip (2n messages)
    # where an mw_abd write takes two (4n), and a read takes two (4n) in both
    latency: dict = {READ: [], WRITE: []}
    messages = ops = 0
    for seed in range(20):
        t = run_simulation(SimConfig(
            n=n, seed=seed, protocol=protocol, delay=UniformDelay(1, 10),
            workload=Workload(ops_per_process=50, register_count=2, read_fraction=0.5, think_time=1),
        ))
        charged = _messages_per_op(t)
        for d in t.ops.values():
            rounds = 1 if d.kind == WRITE and protocol == SC_ABD else 2
            assert charged[d.opid] == 2 * n * rounds, (seed, d)
        invoked = {}
        for e in t.history:
            if e.kind == INVOCATION:
                invoked[e.op.opid] = e.rt
            else:
                latency[e.op.kind].append(e.rt - invoked[e.op.opid])
        messages += len(t.message_log)
        ops += len(t.ops)
    row = (statistics.median(latency[WRITE]), statistics.median(latency[READ]),
           round(messages / ops, 1))
    assert row == COST_TABLE[protocol, n]


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        SimConfig(n=0).validate()
    with pytest.raises(ConfigError):
        SimConfig(n=3, workload=Workload(read_fraction=1.5)).validate()
    with pytest.raises(ConfigError):
        SimConfig(n=3, delay=UniformDelay(0, 4)).validate()
    with pytest.raises(ConfigError):
        SimConfig(n=3, delay=UniformDelay(5, 4)).validate()
    with pytest.raises(ConfigError):
        SimConfig(n=3, crashes=((1, 0), (1, 5))).validate()  # same pid twice
    with pytest.raises(ConfigError):
        SimConfig(n=3, crashes=((7, 0),)).validate()  # pid out of range
    with pytest.raises(ConfigError):
        SimConfig(n=3, max_ticks=0).validate()
    with pytest.raises(ConfigError, match="^adversarial default delay must be >= 1$"):
        AdversarialSchedule(default=0).validate(3)
    # link and rule pids lie in 1..n; a rule may also say "self" or "other"
    for links in ({(0, 1): 2}, {(1, 4): 2}):
        with pytest.raises(ConfigError, match="outside 1..3"):
            SimConfig(n=3, delay=FixedLinkDelay(links=links)).validate()
    for rule in (DelayRule(sender=0), DelayRule(receiver=4), DelayRule(sender=4, receiver="self")):
        with pytest.raises(ConfigError, match="outside 1..3"):
            SimConfig(n=3, delay=AdversarialSchedule(rules=(rule,))).validate()
    # rids start at 1, so a rule for rid 0 or below could never match
    for rid in (0, -4):
        with pytest.raises(ConfigError, match=f"rid {rid} must be >= 1"):
            SimConfig(n=3, delay=AdversarialSchedule(rules=(DelayRule(rid=rid),))).validate()
    # a rule kind is one of the four message kinds
    gossip = AdversarialSchedule(rules=(DelayRule(kind="gossip", lo=50),))
    with pytest.raises(ConfigError, match="^delay rule has unknown message kind 'gossip'$"):
        SimConfig(n=3, delay=gossip).validate()
    # a rule that earlier ones cover could never apply
    covered = (
        (DelayRule("query", 1, 2, lo=5), DelayRule("query", 1, 2, lo=9)),
        (DelayRule(), DelayRule(kind="ack", rid=2, lo=3, hi=4)),
        (DelayRule(receiver="self"), DelayRule(kind="update", sender=2, receiver="self")),
        (DelayRule(kind="update", rid=1), DelayRule(kind="update", sender=3, receiver=1, rid=1)),
        (DelayRule(sender=1, receiver="self"), DelayRule(sender=1, receiver=1)),
        (DelayRule("update", receiver="other"), DelayRule("update", 1, 2, lo=9)),
    )
    for earlier, later in covered:
        with pytest.raises(ConfigError, match="^schedule rule 2 never applies: rule 1 covers it$"):
            AdversarialSchedule(rules=(earlier, later)).validate(3)
        first = DelayRule(sender=3, receiver=3, rid=7)  # covers neither
        with pytest.raises(ConfigError, match="^schedule rule 3 never applies: rule 2 covers it$"):
            AdversarialSchedule(rules=(first, earlier, later)).validate(3)
    uncovered = (
        (DelayRule(kind="query", sender=1), DelayRule(kind="query")),  # later is wider
        (DelayRule(receiver="self"), DelayRule(receiver="other")),
        (DelayRule(rid=1), DelayRule(rid=2)),
        (DelayRule(kind="ack", sender=2), DelayRule(kind="ack", receiver=2)),
    )
    for rules in uncovered:
        AdversarialSchedule(rules=rules).validate(3)
    by_receiver = tuple(DelayRule("update", receiver=r) for r in ("self", "other", None))
    with pytest.raises(ConfigError, match="^schedule rule 3 never applies: rules 1 and 2 cover"):
        AdversarialSchedule(rules=by_receiver).validate(3)
    AdversarialSchedule(rules=by_receiver[1:]).validate(3)
    by_sender = tuple(DelayRule(sender=s) for s in (1, 2, None))
    with pytest.raises(ConfigError, match="^schedule rule 3 never applies: rules 1 and 2 cover"):
        AdversarialSchedule(rules=by_sender).validate(2)
    AdversarialSchedule(rules=by_sender).validate(3)  # a message from p3 takes rule 3
    # at n = 1 no message goes to another process: a rule for those matches
    # none and so is covered by no rule
    AdversarialSchedule(rules=(DelayRule(receiver="self"), DelayRule(receiver="other"))).validate(1)
    for n in (1, 3, 5, 7):
        small_quorum_schedule().validate(n)
        no_writeback_schedule().validate(n)
    SimConfig(n=3, delay=FixedLinkDelay(links={(1, 3): 2, (3, 3): 1})).validate()
    rules = (DelayRule(sender=3, receiver="other"), DelayRule(sender=1, receiver=3, lo=2, rid=1))
    SimConfig(n=3, delay=AdversarialSchedule(rules=rules)).validate()
    # a mutant applies to either protocol
    cfg = SimConfig(n=3, protocol="mw_abd", mutant="small-quorum").validate()
    assert _Run(cfg).states[1].v == Variant(query_writes=True, n=3, threshold=1, writeback=True)
    assert run_simulation(cfg).quiescent


def test_fixed_link_delays_are_honored():
    links = {(1, 2): 7, (2, 1): 3}
    cfg = SimConfig(n=2, seed=0, delay=FixedLinkDelay(default=2, links=links),
                    workload=Workload(ops_per_process=2, read_fraction=0.0))
    t = run_simulation(cfg)
    for r in t.message_log:
        if r.recv_rt is None:
            continue
        expect = links.get((r.msg.sender, r.msg.receiver), 2)
        # exclusivity can push handling later, never earlier
        assert r.recv_rt - r.send_rt >= expect


def test_uniform_delay_bounds():
    cfg = SimConfig(n=3, seed=11, delay=UniformDelay(2, 5),
                    workload=Workload(ops_per_process=2))
    t = run_simulation(cfg)
    for r in t.message_log:
        if r.recv_rt is not None:
            assert r.recv_rt - r.send_rt >= 2


def test_adversarial_rules_first_match_wins():
    sched = AdversarialSchedule(
        rules=(
            DelayRule(kind="update", receiver="self", lo=1),
            DelayRule(kind="update", lo=50),
        ),
        default=1,
    )
    cfg = SimConfig(n=3, seed=2, delay=sched,
                    workload=Workload(ops_per_process=1, read_fraction=0.0))
    t = run_simulation(cfg)
    for r in t.message_log:
        if r.msg.kind == "update" and r.recv_rt is not None:
            gap = r.recv_rt - r.send_rt
            if r.msg.receiver == r.msg.sender:
                assert gap < 50
            else:
                assert gap >= 50


def test_one_handler_per_process_per_tick():
    cfg = SimConfig(n=5, seed=13, workload=Workload(ops_per_process=3, think_time=0))
    t = run_simulation(cfg)
    # every handler execution is either a handled delivery or an invocation;
    # at most one of either kind per (process, tick)
    seen = set()
    for r in t.message_log:
        if r.handled:
            key = (r.msg.receiver, r.recv_rt)
            assert key not in seen
            seen.add(key)
    for e in t.history:
        if e.kind == "inv":
            key = (e.proc, e.rt)
            assert key not in seen
            seen.add(key)


def test_horizon_outcome_is_distinct():
    cfg = SimConfig(n=3, seed=0, max_ticks=5,
                    delay=UniformDelay(4, 9), workload=Workload(ops_per_process=3))
    t = run_simulation(cfg)
    assert t.outcome == HORIZON
    assert not t.quiescent
    full = run_simulation(SimConfig(n=3, seed=0, delay=UniformDelay(4, 9),
                                    workload=Workload(ops_per_process=3)))
    assert full.outcome == QUIESCENT


def test_generate_workload_is_deterministic_and_bounded():
    cfg = SimConfig(n=4, seed=21,
                    workload=Workload(ops_per_process=5, read_fraction=0.4, register_count=3))
    w1 = generate_workload(cfg, random.Random(cfg.seed))
    w2 = generate_workload(cfg, random.Random(cfg.seed))
    assert w1 == w2
    assert set(w1) == {1, 2, 3, 4}
    for ops in w1.values():
        assert len(ops) == 5
        for op in ops:
            assert op.reg in {"r0", "r1", "r2"}
            if op.kind == WRITE:
                assert op.val is not None and op.val > 0  # 0 stays "initial only"
            else:
                assert op.kind == READ and op.val is None


def randrange_workload(cfg: SimConfig, rng: random.Random) -> dict:
    """generate_workload as it drew with Random.randrange: the reference for
    the draws of its own rejection loop."""
    w, out = cfg.workload, {}
    for p in range(1, cfg.n + 1):
        ops = []
        for _ in range(w.ops_per_process):
            reg = f"r{rng.randrange(w.register_count)}"
            if rng.random() < w.read_fraction:
                ops.append((READ, reg, None))
            else:
                ops.append((WRITE, reg, rng.randrange(1, 1_000_000)))
        out[p] = ops
    return out


class EdgeBits(random.Random):
    """Every 20-bit draw, the width of a written value's, lands on the
    rejection bound of the value range or next to it, so that a bound off by
    one changes the draws."""

    def getrandbits(self, k: int) -> int:
        r = super().getrandbits(k)
        return 999_998 + r % 3 if k == 20 else r


def test_generate_workload_matches_randrange_draws():
    cases = itertools.product(
        (1, 2, 3, 7), (0.0, 0.5, 1.0), (0, 5, 2**40 + 17), (random.Random, EdgeBits))
    for k, fraction, seed, rng_type in cases:
        cfg = SimConfig(n=3, seed=seed, workload=Workload(
            ops_per_process=40, read_fraction=fraction, register_count=k))
        rng, ref = rng_type(seed), rng_type(seed)
        label = (k, fraction, seed, rng_type.__name__)
        assert generate_workload(cfg, rng) == randrange_workload(cfg, ref), label
        assert rng.getstate() == ref.getstate(), label


def test_step_leaves_its_input_state_as_it_was(monkeypatch):
    # A model checker that branches from a state needs it unchanged after
    # every step taken from it; so does this simulator's replay.
    calls = Counter()

    def checked(name, step):
        def wrapper(state, stim):
            before = tuple(state), dict(state.tvps), state.responses
            out = step(state, stim)
            assert (tuple(state), state.tvps, state.responses) == before, (name, stim)
            calls[name, state.v.threshold == quorum_size(state.v.n), state.v.writeback] += 1
            return out
        return wrapper

    monkeypatch.setattr(simnet, "sc_abd_step", checked("sc_abd", simnet.sc_abd_step))
    monkeypatch.setattr(simnet, "mw_abd_step", checked("mw_abd", simnet.mw_abd_step))
    mutants = [campaign_config(mutant, seed, protocol)
               for protocol in PROTOCOLS for mutant in MUTANTS[1:] for seed in range(5)]
    for cfg in itertools.chain((cfg for _, cfg in trace_pin_corpus()), mutants):
        run_simulation(cfg)
    # majority or small quorum, with or without write-back, on each protocol
    variants = ((True, True), (False, True), (True, False))
    assert set(calls) == {(p, *variant) for p in PROTOCOLS for variant in variants}


def test_think_time_zero_still_progresses():
    t = run_simulation(SimConfig(n=3, seed=6, workload=Workload(ops_per_process=4, think_time=0)))
    assert t.quiescent and len(t.completed()) == 12


def test_single_process_cluster_runs():
    t = run_simulation(SimConfig(n=1, seed=0, workload=Workload(ops_per_process=3, read_fraction=0.5)))
    assert t.quiescent and len(t.completed()) == 3
    for opid, d in t.completed().items():
        assert t.rounds[opid] == (1 if d.kind == WRITE else 2)


def scheduler_corpus():
    """Criterion-3 campaign configs on both protocols, both mutant schedules
    on both protocols, and the trace-pin corpus."""
    for protocol in PROTOCOLS:
        for seed in range(1000):
            yield f"campaign/{protocol}/{seed}", campaign_config("none", seed, protocol)
        for mutant in MUTANTS[1:]:
            for seed in range(100):
                yield f"{mutant}/{protocol}/{seed}", campaign_config(mutant, seed, protocol)
    yield from trace_pin_corpus()


def test_tick_queues_match_the_heap_scheduler(monkeypatch):
    # _defer is patched to count its calls that return True, as a profiler
    # counts deferrals, so there must be exactly one per busy re-push.
    defer, calls = _Run._defer, [0]

    def counted(self, queue, entry):
        deferred = defer(self, queue, entry)
        calls[0] += bool(deferred)
        return deferred

    monkeypatch.setattr(_Run, "_defer", counted)
    covered = set()
    for label, cfg in scheduler_corpus():
        calls[0] = 0
        heap_run = HeapRun(cfg.validate())
        fast, ref = run_simulation(cfg), heap_run.run()
        assert calls[0] == heap_run.deferrals, label
        assert serialize_history(fast.history) == serialize_history(ref.history), label
        assert serialize_message_log(fast) == serialize_message_log(ref), label
        assert (fast.crash_log, fast.outcome) == (ref.crash_log, ref.outcome), label
        crashed = {p for p, _ in fast.crash_log}
        cases = (
            ("think time 0", cfg.workload.think_time == 0),
            ("crash at tick 0", any(tick == 0 for _, tick in fast.crash_log)),
            ("mid-op crash", any(d.ret is None and d.proc in crashed for d in fast.ops.values())),
            ("horizon cut", fast.outcome == HORIZON),
        )
        covered |= {case for case, hit in cases if hit}
    assert covered == {"think time 0", "crash at tick 0", "mid-op crash", "horizon cut"}


def test_delay_draws_match_randint():
    # The delay models run randint's rejection loop themselves; this pins
    # that they consume the generator exactly as randint does on the Python
    # that runs the suite. A DelayRule of width 1 takes its shortcut and
    # draws nothing.
    draws = 10_000
    for width in (1, 2, 3, 4, 7, 8, 9, 10, 31, 60):
        for seed in (0, 1, 2**40 + 17):
            lo = 1 + seed % 5
            hi = lo + width - 1
            ref, uniform, rule = (random.Random(seed) for _ in range(3))
            expected = [ref.randint(lo, hi) for _ in range(draws)]
            model = UniformDelay(lo, hi)
            assert [model.delay(None, uniform) for _ in range(draws)] == expected
            assert uniform.getstate() == ref.getstate()
            clause = DelayRule(lo=lo, hi=hi)
            assert [clause.draw(rule) for _ in range(draws)] == expected
            untouched = random.Random(seed).getstate()
            assert rule.getstate() == (untouched if width == 1 else ref.getstate())
