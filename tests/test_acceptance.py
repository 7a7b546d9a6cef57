"""Acceptance gate: one test per shipped claim, exact tolerances.

Each test prints a single PASS line with the measured counts (visible under
`pytest -s`); the `pytest -v` listing itself gives the per-criterion
pass/fail verdicts. Budgets: criterion 3 is the long pole (10,000 simulated
and checked runs); the whole module is expected to finish in a few minutes.
"""

import random

from dsmlab.checker import (
    _precedence_violation,
    _witness_positions,
    audit_logical_clocks,
    audit_timestamp_visibility,
    check_linearizable,
    check_sc_bruteforce,
    check_sc_compositional,
    complete_history,
    build_logical_time_history,
    is_legal_sequential,
)
from dsmlab.core import (
    INITIAL_PAIR,
    INVOCATION,
    READ,
    RESPONSE_EVENT,
    Timestamp,
    TimestampValuePair,
    WRITE,
    histories_equivalent,
    quorum_size,
)
from dsmlab.fuzz import (
    no_writeback_schedule,
    run_campaign,
    small_quorum_schedule,
)
from dsmlab.protocol import QUERY_WRITES, Update, handle_update, initial_state
from dsmlab.simnet import SimConfig, UniformDelay, Workload, run_simulation

from helpers import project_register, random_history, sc_not_lin, write_then_stale_read


def _mixed_workload(rng: random.Random) -> Workload:
    return Workload(
        ops_per_process=rng.randint(2, 4),
        read_fraction=rng.choice((0.3, 0.5, 0.7)),
        register_count=rng.randint(1, 2),
        think_time=rng.randint(0, 2),
    )


def test_criterion_1_operation_round_counts():
    # every completed write takes exactly 1 round and every read exactly 2;
    # the two-round-write baseline takes exactly 2 for writes
    rng = random.Random("rounds")
    writes = reads = 0
    for i in range(1000):
        n = (3, 5, 7)[i % 3]
        cfg = SimConfig(n=n, seed=i, workload=_mixed_workload(rng),
                        delay=UniformDelay(1, rng.randint(3, 9)))
        t = run_simulation(cfg)
        assert t.quiescent
        for opid, d in t.completed().items():
            expect = 1 if d.kind == WRITE else 2
            assert t.rounds[opid] == expect, (i, opid, d.kind, t.rounds[opid])
            if d.kind == WRITE:
                writes += 1
            else:
                reads += 1
    assert writes > 0 and reads > 0

    mw_writes = 0
    for i in range(300):
        n = (3, 5, 7)[i % 3]
        cfg = SimConfig(n=n, seed=i, protocol="mw_abd", workload=_mixed_workload(rng),
                        delay=UniformDelay(1, rng.randint(3, 9)))
        t = run_simulation(cfg)
        for opid, d in t.completed().items():
            assert t.rounds[opid] == 2, (i, opid, d.kind, t.rounds[opid])
            if d.kind == WRITE:
                mw_writes += 1
    assert mw_writes > 0
    print(f"\ncriterion 1 PASS: {writes} writes at 1 round, {reads} reads at 2 "
          f"(1000 runs), {mw_writes} two-round-baseline writes at 2 (300 runs)")


def test_criterion_2_termination_under_crash_bound():
    # all operations invoked by never-crashing processes complete, for every
    # crash set within the tolerated bound
    rng = random.Random("crashes")
    checked = 0
    for i in range(1000):
        n = (3, 5, 7)[i % 3]
        k = rng.randint(0, (n - 1) // 2)
        pids = rng.sample(range(1, n + 1), k)
        crashes = tuple((p, rng.randrange(0, 80)) for p in pids)
        cfg = SimConfig(n=n, seed=i, crashes=crashes,
                        workload=_mixed_workload(rng),
                        delay=UniformDelay(1, rng.randint(3, 9)))
        t = run_simulation(cfg)
        assert t.quiescent, i
        correct = set(range(1, n + 1)) - set(pids)
        per_proc = {p: 0 for p in correct}
        for d in t.ops.values():
            if d.proc in correct:
                assert d.ret is not None, (i, d.opid, d.proc)
                per_proc[d.proc] += 1
                checked += 1
        assert all(c == cfg.workload.ops_per_process for c in per_proc.values()), i
    print(f"\ncriterion 2 PASS: {checked} operations by correct processes all "
          "completed across 1000 crash-bounded runs")


def test_criterion_3_all_randomized_runs_accepted():
    report = run_campaign(10_000, mutant="none")
    assert report.accepted == 10_000, (
        f"rejected seeds {report.rejected_seeds[:10]} "
        f"undecided {report.undecided_seeds[:10]}")
    assert report.soundness_violation_seeds == []
    assert report.clock_failure_seeds == []
    assert report.visibility_failure_seeds == []
    print("\ncriterion 3 PASS: 10000/10000 randomized runs accepted, "
          "0 clock or visibility audit failures")


def test_criterion_4_compositional_accept_implies_oracle_accept():
    rng = random.Random("oracle-agreement")
    accepted = disagreements = 0
    for i in range(1000):
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
        h = complete_history(run_simulation(cfg).history)
        assert len(h) // 2 <= 10
        if check_sc_compositional(h).accepted:
            accepted += 1
            if not check_sc_bruteforce(h).accepted:
                disagreements += 1
    assert disagreements == 0
    assert accepted > 0
    print(f"\ncriterion 4 PASS: 1000 small runs, {accepted} compositional "
          f"acceptances, 0 oracle disagreements")


def test_criterion_5_checker_discrimination():
    illegal = write_then_stale_read()
    assert check_sc_compositional(illegal).rejected
    assert check_sc_bruteforce(illegal).rejected

    stale_but_sc = sc_not_lin()
    assert check_linearizable(stale_but_sc).rejected  # stale despite precedence
    assert check_sc_compositional(stale_but_sc).accepted
    assert check_sc_bruteforce(stale_but_sc).accepted
    print("\ncriterion 5 PASS: same-process stale read rejected by both "
          "checkers; stale-but-consistent history accepted by both and "
          "refused only by the real-time linearizability check")


def test_one_round_writes_buy_sequential_consistency_not_linearizability():
    # The paper's separation (Attiya & Welch, TOCS 1994), measured on runs with
    # three processes contending for one register. Every run of both protocols
    # is SC; with one register, check_linearizable on the run's own event order
    # decides linearizability in real time, and only one sc_abd run fails it.
    workload = Workload(ops_per_process=8, register_count=1, think_time=0)
    not_linearizable = []
    for protocol in ("sc_abd", "mw_abd"):
        for seed in range(300):
            cfg = SimConfig(n=3, seed=seed, protocol=protocol, delay=UniformDelay(1, 20),
                            workload=workload)
            h = complete_history(run_simulation(cfg).history)
            sc = check_sc_compositional(h)
            assert sc.accepted, (protocol, seed)
            lin = check_linearizable(h)
            assert not lin.undecided, (protocol, seed)
            if lin.rejected:
                not_linearizable.append((protocol, seed, len(h) // 2, sc.states_explored,
                                         lin.states_explored))
    # the fast path accepts the register in logical time without a search state,
    # and the real-time search refuses it after 48
    assert not_linearizable == [("sc_abd", 127, 24, 0, 48)]
    print("\nseparation PASS: 600 contended runs SC-accepted; 1 of 300 sc_abd runs "
          "(seed 127) and 0 of 300 mw_abd runs not linearizable")


def test_criterion_6_mutants_are_detected():
    sq = run_campaign(1000, mutant="small-quorum")
    assert sq.rejected_seeds, "sub-majority quorums never produced a violation"
    assert sq.confirmed_rejection_seeds, "no rejection was oracle-confirmed"
    assert sq.soundness_violation_seeds == []
    nw = run_campaign(300, mutant="no-writeback")
    assert nw.visibility_failure_seeds, "skipped write-backs never tripped the audit"
    print(f"\ncriterion 6 PASS: small-quorum rejected on {len(sq.rejected_seeds)}"
          f"/1000 seeds (first {sq.rejected_seeds[0]}, "
          f"{len(sq.confirmed_rejection_seeds)} oracle-confirmed); no-writeback "
          f"visibility failures on {len(nw.visibility_failure_seeds)}/300 seeds "
          f"(first {nw.visibility_failure_seeds[0]})")


def test_criterion_7_clock_audit():
    rng = random.Random("clocks")
    audited = 0
    for i in range(300):
        proto = ("sc_abd", "mw_abd")[i % 2]
        cfg = SimConfig(n=(3, 5)[i % 2], seed=i, protocol=proto,
                        workload=_mixed_workload(rng))
        t = run_simulation(cfg)
        assert audit_logical_clocks(t), (proto, i)
        audited += 1

    t = run_simulation(SimConfig(n=3, seed=1, workload=Workload(ops_per_process=2)))
    rec = next(r for r in t.message_log if r.handled)
    rec.recv_lt = rec.msg.lt  # no longer strictly above the send
    assert not audit_logical_clocks(t)
    print(f"\ncriterion 7 PASS: clock audit clean on {audited} unmutated traces, "
          "fails after lowering one receive clock")


def test_criterion_8a_timestamp_total_order_laws():
    rng = random.Random("ts-laws")
    cases = 0
    for _ in range(10_000):
        a = Timestamp(rng.randint(0, 40), rng.randint(0, 7))
        b = Timestamp(rng.randint(0, 40), rng.randint(0, 7))
        c = Timestamp(rng.randint(0, 40), rng.randint(0, 7))
        assert (a < b) == (b > a)                         # antisymmetry
        assert (a < b) + (a == b) + (a > b) == 1          # trichotomy
        assert (a < b) == ((a.lt, a.pid) < (b.lt, b.pid))  # lexicographic order
        if a <= b and b <= c:
            assert a <= c                                 # transitivity
        cases += 1
    assert cases == 10_000
    print(f"\ncriterion 8a PASS: {cases} timestamp total-order cases")


def test_criterion_8b_quorum_intersection():
    for n in range(1, 101):
        assert 2 * quorum_size(n) > n
    rng = random.Random("quorums")
    cases = 0
    for _ in range(10_000):
        n = rng.randint(1, 100)
        q = quorum_size(n)
        q1 = set(rng.sample(range(1, n + 1), q))
        q2 = set(rng.sample(range(1, n + 1), q))
        assert q1 & q2, (n, q)
        cases += 1
    assert cases == 10_000
    print(f"\ncriterion 8b PASS: exhaustive 2q>n for n in [1,100] and {cases} "
          "sampled quorum pairs all intersect")


def test_criterion_8c_replica_pair_monotonicity():
    rng = random.Random("tvps")
    s = initial_state(1, 3)
    cases = 0
    for i in range(10_000):
        reg = ("x", "y")[rng.randint(0, 1)]
        tsv = TimestampValuePair(
            Timestamp(rng.randint(0, 60), rng.randint(1, 3)), rng.randint(0, 9))
        before = s.pair(reg)
        out = handle_update(s, Update(sender=2, receiver=1, lt=rng.randint(1, 99),
                                      rid=i, reg=reg, tsv=tsv))
        after = out.state.pair(reg)
        assert after.ts >= before.ts
        expect = before if before.ts >= tsv.ts else tsv
        assert after == expect
        s = out.state
        cases += 1
    assert cases == 10_000 and s.pair("x") != INITIAL_PAIR
    print(f"\ncriterion 8c PASS: {cases} update installs, pair never regressed")


def test_criterion_8d_logical_time_reordering_preserves_equivalence():
    rng = random.Random("hlt")
    cases = 0
    for _ in range(10_000):
        h = random_history(rng)
        hlt = build_logical_time_history(h)
        assert histories_equivalent(h, hlt)
        assert [e.lt for e in hlt] == sorted(e.lt for e in h)
        cases += 1
    assert cases == 10_000
    print(f"\ncriterion 8d PASS: {cases} histories equivalent to their "
          "logical-time reorderings")


def _visibility_pairs(trace) -> int:
    """The (querier, updater) pairs the visibility audit compares: for each
    querier, the same-register update phases completed before it in logical
    time."""
    queriers = {READ, WRITE} if QUERY_WRITES[trace.protocol] else {READ}
    done: dict = {}  # reg -> update phases completed so far
    pairs = 0
    for e in build_logical_time_history(trace.history):
        if e.op.ts is None:
            continue
        if e.kind == RESPONSE_EVENT:
            done[e.op.reg] = done.get(e.op.reg, 0) + 1
        elif e.op.kind in queriers:
            pairs += done.get(e.op.reg, 0)
    return pairs


def test_criterion_8e_visibility_audit_pairs():
    pairs = 0
    runs = 0
    seed = 0
    while pairs < 10_000:
        assert runs < 4000, "visibility pair budget not reached"
        proto = ("sc_abd", "mw_abd")[runs % 2]
        cfg = SimConfig(n=(3, 5)[runs % 2], seed=seed, protocol=proto,
                        workload=Workload(ops_per_process=3, read_fraction=0.5,
                                          think_time=0))
        t = run_simulation(cfg)
        assert audit_timestamp_visibility(t), (proto, seed)
        pairs += _visibility_pairs(t)
        runs += 1
        seed += 1
    print(f"\ncriterion 8e PASS: {pairs} querier/updater visibility pairs "
          f"across {runs} traces, none inverted")


def test_criterion_8f_witness_validity_clauses():
    rng = random.Random("witness")
    cases = 0
    attempts = 0
    while cases < 10_000:
        assert attempts < 30_000, "witness case budget not reached"
        attempts += 1
        h = random_history(rng, max_procs=3, max_ops=6)

        lin = check_linearizable(h)
        if lin.accepted:
            assert is_legal_sequential(lin.witness)           # clause: legal
            assert histories_equivalent(lin.witness, h)       # clause: same ops
            pos = _witness_positions(lin.witness)
            assert _precedence_violation(h, pos) is None      # clause: order kept
            cases += 1

        sc = check_sc_compositional(h)
        if sc.accepted:
            assert is_legal_sequential(sc.witness)
            assert histories_equivalent(sc.witness, h)
            cases += 1
            hlt = build_logical_time_history(h)
            for reg, vx in sc.per_register.items():
                hx = project_register(hlt, reg)
                assert is_legal_sequential(vx.witness)
                assert histories_equivalent(vx.witness, hx)
                assert _precedence_violation(hx, _witness_positions(vx.witness)) is None
                cases += 1
    print(f"\ncriterion 8f PASS: {cases} accepted witnesses certified legal, "
          f"equivalent, and order-preserving ({attempts} histories)")
