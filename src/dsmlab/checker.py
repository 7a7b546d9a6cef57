"""Consistency checking over recorded histories.

The operational route to sequential consistency goes through logical time:
re-sort the history by the per-event Lamport clocks (build_logical_time_history),
check each register's subhistory for linearizability there, and compose the
per-register witnesses into one legal total order. Per-register linearizability
in logical time composes (unlike sequential consistency in general), and the
logical-time history is indistinguishable from the original to every process,
so acceptance here implies the original history is sequentially consistent.

A history is validated once, by complete_history or else by the first check
it reaches, into an immutable op table that later checks take as it is; each
register's check receives a sub-table, well formed and complete by construction.

Per-register checking itself has a fast path and a fallback:

* fast path: when every operation carries the timestamp it installed or wrote
  back, the witness order can be constructed directly (one sort by
  timestamp puts each read right after the write it observed) and certified
  in linear time. Certification is real: legality, equivalence, and precedence
  are checked, never assumed.
* fallback: an exact search for a legal order that respects precedence.

The fallback and the brute-force oracle (check_sc_bruteforce, which searches
the interleavings of the per-process sequences straight from the definition
to cross-check small histories) are one bounded iterative search; they
differ only in which operations may go next. It is memoized on (placed
operations, memory state), no check depends on Python's recursion limit, and
hitting the state cap yields an explicit "undecided" verdict, not a guess.

Trace audits round out the kit: audit_logical_clocks replays clock obligations
over the message log, and audit_timestamp_visibility checks the ordering
contract that makes the fast path trustworthy (an operation's timestamp is at
least that of every same-register operation whose update phase completed
before it, in logical time).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from typing import Callable, Iterable, Optional, Sequence

from .core import (
    Event,
    INITIAL_TS,
    INVOCATION,
    OK,
    OpId,
    READ,
    RESPONSE_EVENT,
    RegisterId,
    Timestamp,
    WRITE,
    histories_equivalent,
    is_well_formed,
)
from .protocol import QUERY_WRITES

DEFAULT_STATE_CAP = 10_000_000
ORACLE_OP_CAP = 10

ACCEPTED = "accepted"
REJECTED = "rejected"
UNDECIDED = "undecided"


class HistoryError(ValueError):
    """Input history unusable for the requested check (malformed, pending
    operations where completeness is required, or missing lt annotations)."""


class InstrumentationError(ValueError):
    """Timestamp annotations inconsistent with any protocol execution."""


class OracleCapError(RuntimeError):
    """History too large for the brute-force oracle."""


class CheckerInternalError(RuntimeError):
    """A certified artifact failed its own certification; a checker bug."""


@dataclass
class Violation:
    condition: str
    ops: Optional[tuple[OpId, OpId]] = None  # (earlier, later) when identified


@dataclass
class Verdict:
    outcome: str  # ACCEPTED | REJECTED | UNDECIDED
    witness: Optional[list] = None  # legal sequential history when accepted
    violation: Optional[Violation] = None
    states_explored: int = 0
    per_register: dict = field(default_factory=dict)  # reg -> Verdict, with its own violation

    @property
    def accepted(self) -> bool:
        return self.outcome == ACCEPTED

    @property
    def rejected(self) -> bool:
        return self.outcome == REJECTED

    @property
    def undecided(self) -> bool:
        return self.outcome == UNDECIDED


# --- logical-time reordering -------------------------------------------------


def build_logical_time_history(h: Sequence[Event]) -> list[Event]:
    """Reorder events by (lt, process).

    Requires every event to carry an lt and every process's lts to be
    strictly increasing; under that premise (lt, process) is unique per
    event and each process's subsequence is unchanged, so the result is
    equivalent to the input.
    """
    last: dict[int, int] = {}
    for e in h:
        if e.lt is None:
            raise HistoryError(
                f"event for op {e.op.opid} at process {e.proc} has no lt annotation"
            )
        prev = last.get(e.proc)
        if prev is not None and e.lt <= prev:
            raise HistoryError(
                f"logical times at process {e.proc} not strictly increasing "
                f"({prev} then {e.lt}); reordering would not preserve its view"
            )
        last[e.proc] = e.lt
    return sorted(h, key=lambda e: (e.lt, e.proc))


# --- sequential legality -------------------------------------------------------


def is_legal_sequential(s: Sequence[Event]) -> bool:
    """True when every read in the complete sequential history s returns the
    closest preceding write to its register, or 0 when none precedes."""
    mem: dict[RegisterId, int] = {}
    i = 0
    while i < len(s):
        inv = s[i]
        if (
            inv.kind != INVOCATION
            or i + 1 >= len(s)
            or s[i + 1].kind != RESPONSE_EVENT
            or s[i + 1].op.opid != inv.op.opid
        ):
            raise HistoryError("not a complete sequential history")
        op = inv.op
        if op.kind == READ:
            if mem.get(op.reg, 0) != op.ret:
                return False
        else:
            mem[op.reg] = op.arg
        i += 2
    return True


# --- exact search -----------------------------------------------------------------


class _OpTable(tuple):
    """A well-formed complete history that cannot change, indexed by opid:
    inv (in invocation order) and res give an op's event positions. A list,
    slice or sum made of a table is no table."""

    def __new__(cls, events: Iterable[Event]) -> _OpTable:
        t = super().__new__(cls, events)
        inv, res = {}, {}
        for i, e in enumerate(t):
            if e.kind == INVOCATION:
                inv[e.op.opid] = i
            else:
                res[e.op.opid] = i
        vars(t).update(inv=inv, res=res)  # never mutated
        return t

    __setattr__ = __delattr__ = None  # no attribute may be set or removed

    def witness(self, opids: Iterable[OpId]) -> list[Event]:
        """The sequential history running the given operations in order."""
        return [self[i] for o in opids for i in (self.inv[o], self.res[o])]


def _complete_op_table(h: Sequence[Event]) -> _OpTable:
    """h if a table, else h's table once proved well formed and complete."""
    if isinstance(h, _OpTable):
        return h
    t = _OpTable(h)
    if not is_well_formed(t):
        raise HistoryError("history is not well formed")
    if len(t.res) != len(t.inv):
        raise HistoryError("history has pending operations; complete it first")
    return t


def _search(
    t: _OpTable,
    candidates: Callable[[int], Iterable[int]],
    state_cap: int,
    violation: Violation,
) -> Verdict:
    """Depth-first search for a legal order of all of t's operations.

    A state is (done, mem): bit i of done is set once the i-th operation in
    invocation order is placed, and mem holds each register's value, None
    while unwritten (so a register written 0 stays distinct from one never
    written). candidates(done) yields the operations that may go next, in
    the order to try them; each one legal in mem is placed in turn. The
    path lives on an explicit stack, so depth is not bounded by Python's
    recursion limit. A visited state is not expanded again; the cap is
    checked before a new state is counted, and reaching it is UNDECIDED.
    """
    ops = [t[i].op for i in t.inv.values()]
    slot = {reg: r for r, reg in enumerate(dict.fromkeys(op.reg for op in ops))}

    def moves(done: int, mem: tuple):
        for i in candidates(done):
            op = ops[i]
            r = slot[op.reg]
            if op.kind != READ:
                yield i, mem[:r] + (op.arg,) + mem[r + 1 :]
            elif (mem[r] or 0) == op.ret:
                yield i, mem

    full = (1 << len(ops)) - 1
    seen: set = set()
    stack: list = []  # (done, untried legal moves) per open state on the path
    path: list[int] = []  # path[k]: the move taken from stack[k]
    done, mem = 0, (None,) * len(slot)
    while done != full:
        if (done, mem) not in seen:
            if len(seen) >= state_cap:
                return Verdict(UNDECIDED, states_explored=len(seen))
            seen.add((done, mem))
            stack.append((done, moves(done, mem)))
        while stack and (step := next(stack[-1][1], None)) is None:
            stack.pop()
        if not stack:
            return Verdict(REJECTED, violation=violation, states_explored=len(seen))
        i, mem = step
        del path[len(stack) - 1 :]
        path.append(i)
        done = stack[-1][0] | 1 << i
    return Verdict(
        ACCEPTED, witness=t.witness(ops[i].opid for i in path), states_explored=len(seen)
    )


def check_linearizable(h: Sequence[Event], *, state_cap: int = DEFAULT_STATE_CAP) -> Verdict:
    """Exhaustive linearizability check of a complete history.

    Precedence is taken from the order of the event sequence itself: o1
    precedes o2 iff o1's response appears before o2's invocation. Feed it a
    raw history to ask about real time, or a logical-time history to ask
    about logical time; the algorithm is the same.

    Memoization folds search branches that reach the same (remaining ops,
    memory state) configuration. The verdict is exact unless the state cap
    is hit, which yields UNDECIDED with the count of states explored.
    """
    t = _complete_op_table(h)
    inv = list(t.inv.values())
    res = [t.res[o] for o in t.inv]
    by_res = sorted(range(len(res)), key=res.__getitem__)
    res_sorted = [res[j] for j in by_res]

    def minimal(done: int) -> Iterable[int]:
        # unplaced ops invoked before the earliest response still to come;
        # every op before the first unplaced one, and every op responding
        # before that one's invocation, is placed already
        lo = (~done & (done + 1)).bit_length() - 1
        j = bisect_left(res_sorted, inv[lo])
        while done >> by_res[j] & 1:
            j += 1
        for i in range(lo, bisect_left(inv, res_sorted[j])):
            if not done >> i & 1:
                yield i

    violation = Violation("no order satisfies read legality and precedence")
    return _search(t, minimal, state_cap, violation)


# --- timestamp witness ---------------------------------------------------------


def construct_timestamp_witness(hx: Sequence[Event]) -> list[Event]:
    """Build the candidate witness order for one register's complete history
    from operation timestamps: one sort by (timestamp, read after write,
    invocation lt, process id, opid) puts each write at its timestamp and
    each read right after the write whose pair it returned (initial-
    timestamp reads first).

    Pure construction; whether the result is legal and order-preserving is
    for the caller to certify. Raises InstrumentationError when timestamps
    cannot have come from a run: a missing one, a write not stamped above
    the write before it (the first one above the initial timestamp), or a
    read stamped with neither the latest write's timestamp nor, before any
    write, the initial one.
    """
    t = _complete_op_table(hx)
    regs = {t[i].op.reg for i in t.inv.values()}
    if len(regs) > 1:
        raise HistoryError(f"single-register history expected, got registers {sorted(regs)}")
    # () sorts below every timestamp, so an op without one is refused first
    invs = sorted(
        (e for e in t if e.kind == INVOCATION),
        key=lambda e: (e.op.ts or (), e.op.kind == READ, e.lt or 0, e.proc, e.op.opid),
    )
    last = INITIAL_TS  # the latest write's timestamp
    for e in invs:
        op = e.op
        if op.ts is None:
            raise InstrumentationError(f"operation {op.opid} carries no timestamp")
        if op.kind == WRITE:
            if op.ts <= last:
                raise InstrumentationError(
                    f"write {op.opid} carries timestamp {op.ts}, not above {last}"
                )
            last = op.ts
        elif op.ts != last:
            raise InstrumentationError(
                f"read {op.opid} carries timestamp {op.ts} matching no write on {op.reg!r}"
            )
    return t.witness(e.op.opid for e in invs)


def _precedence_violation(
    hx: Sequence[Event], pos: dict[OpId, int]
) -> Optional[tuple[OpId, OpId]]:
    """First (o1, o2) with o1 preceding o2 in hx but placed after it by pos."""
    best_pos = -1
    best_op: Optional[OpId] = None
    for e in hx:
        if e.kind == RESPONSE_EVENT:
            p = pos[e.op.opid]
            if p > best_pos:
                best_pos, best_op = p, e.op.opid
        else:
            if best_op is not None and pos[e.op.opid] < best_pos:
                return (best_op, e.op.opid)
    return None


def _witness_positions(witness: Sequence[Event]) -> dict[OpId, int]:
    return {e.op.opid: i // 2 for i, e in enumerate(witness) if e.kind == INVOCATION}


# --- compositional SC check ----------------------------------------------------


def _check_register(hx: _OpTable, state_cap: int) -> Verdict:
    fast_pair: Optional[tuple[OpId, OpId]] = None
    if all(e.op.ts is not None for e in hx):
        try:
            w = construct_timestamp_witness(hx)
        except InstrumentationError:
            pass
        else:
            fast_pair = _precedence_violation(hx, _witness_positions(w))
            if fast_pair is None and is_legal_sequential(w) and histories_equivalent(w, hx):
                return Verdict(ACCEPTED, witness=w)
    v = check_linearizable(hx, state_cap=state_cap)
    if v.rejected:
        v.violation.ops = fast_pair
    return v


def _compose_witnesses(hlt: Sequence[Event], per_register: dict) -> list[Event]:
    """Merge per-register witness orders into one total order that also
    respects logical-time precedence across registers, and emit it as a
    sequential history. An operation may go once its register predecessor,
    and every operation that responded before its invocation, are placed;
    the least (timestamp, invocation lt, process, opid) that may go goes
    first, so the composed witness is canonical.

    A pointer over hlt's responses tracks the longest placed prefix, and a
    second one the prefix of invocations it covers, so the merge is linear:
    an operation enters the heap once covered with its predecessor placed."""
    slot: dict = {}  # opid -> index in invocation order
    before: list[int] = []  # per op: how many responses precede its invocation
    keys: list = []  # per op: its heap key
    events: list = []  # per op: [invocation, response]
    responded: list[int] = []  # op indices in response order
    for e in hlt:
        op = e.op
        if e.kind == INVOCATION:
            slot[op.opid] = len(keys)
            before.append(len(responded))
            keys.append((op.ts if op.ts is not None else INITIAL_TS, e.lt, e.proc, op.opid))
            events.append([e])
        else:
            responded.append(slot[op.opid])
            events[slot[op.opid]].append(e)
    pred, succ = [None] * len(keys), [None] * len(keys)  # neighbours in a register witness
    for vx in per_register.values():
        chain = [slot[e.op.opid] for e in vx.witness if e.kind == INVOCATION]
        for a, b in zip(chain, chain[1:]):
            pred[b], succ[a] = a, b
    placed = [False] * len(keys)
    heap, out = [], []
    k = j = 0  # responded[:k] are placed; ops [0, j) have before <= k
    while True:
        while k < len(responded) and placed[responded[k]]:
            k += 1
        while j < len(keys) and before[j] <= k:
            if pred[j] is None or placed[pred[j]]:
                heappush(heap, (keys[j], j))
            j += 1
        if not heap:
            break
        _, i = heappop(heap)
        placed[i] = True
        out.append(i)
        if succ[i] is not None and succ[i] < j:
            heappush(heap, (keys[succ[i]], succ[i]))
    if len(out) != len(keys):
        raise CheckerInternalError("witness composition found an order cycle")
    return [e for i in out for e in events[i]]


def check_sc_compositional(
    h: Sequence[Event], *, state_cap: int = DEFAULT_STATE_CAP
) -> Verdict:
    """Sequential-consistency check via per-register linearizability in
    logical time.

    Rebuilds the history in logical-time order, checks each register's
    subhistory for linearizability there (timestamp fast path first, bounded
    exhaustive search as fallback), and on success composes and certifies a
    single legal witness equivalent to the input. Any per-register rejection
    rejects the whole history; a register hitting the search cap yields
    UNDECIDED. The composed witness is re-certified, not trusted: legality
    and equivalence failures raise CheckerInternalError instead of returning
    a bogus acceptance.

    Acceptance is definitive: the returned witness proves sequential
    consistency. Rejection is definitive only for the logical-time route;
    the condition checked is sufficient, so histories from broken protocol
    variants can be rejected here yet still admit some other legal order.
    Histories of the intact protocols never trip this (their clock and
    visibility discipline is exactly what makes the route complete for
    them); for everything else, cross-check small rejections with
    check_sc_bruteforce.
    """
    t = _complete_op_table(h)
    hlt = build_logical_time_history(t)
    by_register: dict[RegisterId, list[Event]] = {}  # in order of first appearance
    for e in hlt:
        by_register.setdefault(e.op.reg, []).append(e)
    # a register's logical-time sub-history is well formed and complete as t is
    per_register = {x: _check_register(_OpTable(hx), state_cap) for x, hx in by_register.items()}
    explored = sum(vx.states_explored for vx in per_register.values())
    for vx in per_register.values():
        if vx.rejected:
            return Verdict(
                REJECTED, violation=vx.violation, states_explored=explored,
                per_register=per_register,
            )
    if any(vx.undecided for vx in per_register.values()):
        return Verdict(UNDECIDED, states_explored=explored, per_register=per_register)
    witness = _compose_witnesses(hlt, per_register)
    if not is_legal_sequential(witness) or not histories_equivalent(witness, t):
        raise CheckerInternalError("composed witness failed certification")
    return Verdict(
        ACCEPTED, witness=witness, states_explored=explored, per_register=per_register
    )


# --- brute-force oracle --------------------------------------------------------


def check_sc_bruteforce(h: Sequence[Event], *, op_cap: int = ORACLE_OP_CAP) -> Verdict:
    """Sequential consistency straight from the definition: search all
    interleavings of the per-process operation sequences for a legal one,
    memoized on (per-process progress, memory state). Exact and oblivious
    to timestamps and clocks, hence useful as an oracle; cost grows
    multinomially, hence the hard op cap (raises OracleCapError beyond it)."""
    t = _complete_op_table(h)
    if len(t.inv) > op_cap:
        raise OracleCapError(
            f"{len(t.inv)} operations exceed the {op_cap}-operation oracle cap"
        )
    seqs: dict[int, list[int]] = {}  # process -> its ops' indices, in order
    for i, at in enumerate(t.inv.values()):
        seqs.setdefault(t[at].proc, []).append(i)
    procs = sorted(seqs)

    def heads(done: int) -> Iterable[int]:
        # each process's next unplaced op; its placed ops form a prefix
        for p in procs:
            i = next((i for i in seqs[p] if not done >> i & 1), None)
            if i is not None:
                yield i

    violation = Violation("no interleaving of per-process orders is legal")
    return _search(t, heads, DEFAULT_STATE_CAP, violation)


# --- completion of crashed-run histories ----------------------------------------


def complete_history(h: Sequence[Event]) -> _OpTable:
    """Resolve pending operations left by mid-operation crashes, and return
    the completed history as the op table that every check takes as it is.

    One rule by kind: every pending write, stamped or not, may have taken
    effect, so it is kept and closed with a synthetic OK response appended
    after everything else, and every pending read is dropped. Closed last, a
    kept write is as good as optional: any legal order without it stays
    legal with it appended. Descriptors of retained ops are copied, never
    mutated, so the input history stays intact."""
    events = _OpTable(h)  # pending ops included, so it never leaves here unless complete
    if not is_well_formed(events):
        raise HistoryError("history is not well formed")
    pend = [events[i].op for o, i in events.inv.items() if o not in events.res]
    if not pend:
        return events
    for e in events:
        if e.lt is None:
            raise HistoryError(
                f"event for op {e.op.opid} has no lt annotation; cannot place "
                "synthetic responses"
            )
    fresh = {op.opid: replace(op, ret=OK) for op in pend if op.kind == WRITE}
    drop = {op.opid for op in pend if op.kind == READ}
    out = [
        Event(e.kind, fresh[e.op.opid], e.rt, e.lt, e.proc) if e.op.opid in fresh else e
        for e in events
        if e.op.opid not in drop
    ]
    base_rt = max((e.rt for e in out), default=0)
    base_lt = max((e.lt for e in out), default=0)
    for i, o in enumerate(sorted(fresh)):
        d = fresh[o]
        out.append(Event(RESPONSE_EVENT, d, base_rt + 1 + i, base_lt + 1 + i, d.proc))
    return _OpTable(out)


# --- trace audits ----------------------------------------------------------------


def audit_logical_clocks(trace) -> bool:
    """Replay every clock obligation over a trace: within one handler
    execution (one process, one tick) all recorded lts agree; across a
    process's handler executions lts strictly increase; every handled
    receipt's lt exceeds the lt its message was sent with. Discarded stale
    replies and dropped messages never merged, so they carry no obligation.
    One pass collects the distinct (proc, rt, lt) triples and checks each
    receipt; one sort then lines up each process's executions by tick."""
    triples = {(e.proc, e.rt, e.lt) for e in trace.history if e.lt is not None}
    add = triples.add
    for rec in trace.message_log:
        m = rec.msg
        add((m.sender, rec.send_rt, m.lt))
        if rec.handled:
            if rec.recv_lt <= m.lt:
                return False
            add((m.receiver, rec.recv_rt, rec.recv_lt))
    prev_proc = prev_rt = prev_lt = None
    for proc, rt, lt in sorted(triples):
        if proc == prev_proc and (rt == prev_rt or lt <= prev_lt):
            return False
        prev_proc, prev_rt, prev_lt = proc, rt, lt
    return True


def audit_timestamp_visibility(trace) -> bool:
    """Check the timestamp-visibility contract on a trace: in logical time,
    an operation that ran a query phase carries a timestamp at least as
    large as that of every same-register operation whose update phase
    completed before its invocation. The real protocols guarantee this by
    quorum intersection; mutants that skip propagation break it here even
    when the resulting history happens to be consistent.

    Under both protocols' contracts every read and every write has an update
    phase; reads always query first, writes only where QUERY_WRITES. One pass
    keeps each register's largest completed update timestamp."""
    query_writes = QUERY_WRITES[trace.protocol]
    done: dict[RegisterId, Timestamp] = {}  # reg -> largest ts of a completed update
    for e in build_logical_time_history(trace.history):
        op = e.op
        if op.ts is None:
            continue
        if e.kind == RESPONSE_EVENT:
            done[op.reg] = max(done.get(op.reg, INITIAL_TS), op.ts)
        elif (op.kind == READ or query_writes) and op.ts < done.get(op.reg, INITIAL_TS):
            return False
    return True
