"""Shared builders and naive references for the test suite.

The naive checkers enumerate permutations outright, with no memoization and
no cleverness, the dense round counter scans the whole message log once per
operation, the dense composer adds an edge from every response to every
later invocation, the dense well-formedness test projects the history once
per process, the dense clock audit groups every lt by process and tick
before comparing, and the heap scheduler pushes every event, deferrals
included, onto one (due, seq) heap; they exist so the real code has
something independent to disagree with.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from heapq import heappop, heappush
from typing import Optional, Sequence

from dsmlab.core import (
    Event,
    INITIAL_TS,
    INVOCATION,
    OK,
    OperationDescriptor,
    READ,
    RESPONSE_EVENT,
    RegisterId,
    Timestamp,
    WRITE,
)
from dsmlab.simnet import _CRASH, _DELIVER, _INVOKE, HORIZON, QUIESCENT, SimConfig, _Run


def op_events(
    opid: int,
    proc: int,
    kind: str,
    reg: str,
    *,
    arg: Optional[int] = None,
    ret=None,
    ts: Optional[tuple] = None,
    inv: tuple = (0, 1),
    res: Optional[tuple] = None,
) -> list[Event]:
    """Build the inv (and res, unless pending) events of one operation.
    `inv` and `res` are (rt, lt) pairs."""
    d = OperationDescriptor(
        opid=opid,
        proc=proc,
        kind=kind,
        reg=reg,
        arg=arg,
        ret=ret,
        ts=Timestamp(*ts) if ts is not None else None,
    )
    events = [Event(INVOCATION, d, inv[0], inv[1], proc)]
    if res is not None:
        events.append(Event(RESPONSE_EVENT, d, res[0], res[1], proc))
    return events


def merge_by_rt(*event_lists: Sequence[Event]) -> list[Event]:
    events = [e for lst in event_lists for e in lst]
    events.sort(key=lambda e: e.rt)  # stable: equal-rt events keep build order
    return events


def write_then_stale_read() -> list[Event]:
    """w(x,1) then r(x)->0 at the same process: no sequential order can put
    the read's initial-value return after the write."""
    w = op_events(1, 1, WRITE, "x", arg=1, ret=OK, ts=(1, 1), inv=(1, 1), res=(2, 2))
    r = op_events(2, 1, READ, "x", ret=0, ts=(0, 0), inv=(3, 3), res=(4, 4))
    return merge_by_rt(w, r)


def sc_not_lin() -> list[Event]:
    """p2's read returns the initial value although p1's write completed
    strictly earlier in real time. Logical time tells the opposite story
    (p2's clock never saw p1), so the history is sequentially consistent
    but not linearizable."""
    w = op_events(1, 1, WRITE, "x", arg=1, ret=OK, ts=(6, 1), inv=(0, 6), res=(10, 9))
    r = op_events(2, 2, READ, "x", ret=0, ts=(0, 0), inv=(20, 1), res=(21, 2))
    return merge_by_rt(w, r)


# --- naive reference checkers ---------------------------------------------------


def _legal(order: Sequence[OperationDescriptor]) -> bool:
    mem: dict[str, int] = {}
    for op in order:
        if op.kind == READ:
            if mem.get(op.reg, 0) != op.ret:
                return False
        else:
            mem[op.reg] = op.arg
    return True


def naive_linearizable(h: Sequence[Event]) -> bool:
    """All-permutations linearizability reference; factorial, keep it small."""
    inv_idx: dict[int, int] = {}
    res_idx: dict[int, int] = {}
    descs: dict[int, OperationDescriptor] = {}
    for i, e in enumerate(h):
        if e.kind == INVOCATION:
            inv_idx[e.op.opid] = i
            descs[e.op.opid] = e.op
        else:
            res_idx[e.op.opid] = i
    ops = list(descs.values())
    for perm in itertools.permutations(ops):
        pos = {op.opid: i for i, op in enumerate(perm)}
        if any(
            res_idx[a.opid] < inv_idx[b.opid] and pos[a.opid] > pos[b.opid]
            for a in ops
            for b in ops
            if a.opid != b.opid
        ):
            continue
        if _legal(perm):
            return True
    return False


def naive_sc(h: Sequence[Event]) -> bool:
    """All-permutations sequential-consistency reference: any legal order
    that keeps every process's own sequence."""
    seq: dict[int, list[int]] = {}
    descs: dict[int, OperationDescriptor] = {}
    for e in h:
        if e.kind == INVOCATION:
            seq.setdefault(e.proc, []).append(e.op.opid)
            descs[e.op.opid] = e.op
    ops = list(descs.values())
    order_in_proc = {o: i for ids in seq.values() for i, o in enumerate(ids)}
    for perm in itertools.permutations(ops):
        pos = {op.opid: i for i, op in enumerate(perm)}
        ok = all(
            pos[ids[i]] < pos[ids[i + 1]]
            for ids in seq.values()
            for i in range(len(ids) - 1)
        )
        if ok and _legal(perm):
            return True
    return False


def random_history(
    rng: random.Random,
    *,
    max_procs: int = 3,
    max_ops: int = 6,
    regs: tuple = ("x", "y"),
    annotate_ts: bool = False,
) -> list[Event]:
    """A random complete well-formed history with adversarial values: read
    returns are drawn from plausible candidates (seen writes, 0), so both
    consistent and inconsistent histories come out. Logical times increase
    per process. Timestamps are omitted unless annotate_ts (and even then
    are arbitrary, not protocol-derived)."""
    nproc = rng.randint(1, max_procs)
    nops = rng.randint(1, max_ops)
    plans: dict[int, list] = {p: [] for p in range(1, nproc + 1)}
    written: dict[str, list[int]] = {r: [] for r in regs}
    for opid in range(1, nops + 1):
        p = rng.randint(1, nproc)
        reg = rng.choice(regs)
        if rng.random() < 0.5:
            val = rng.randint(1, 3)
            plans[p].append((opid, WRITE, reg, val))
            written[reg].append(val)
        else:
            plans[p].append((opid, READ, reg, None))
    events: list[Event] = []
    rt = 0
    lt = {p: 0 for p in plans}
    open_op: dict[int, OperationDescriptor] = {}
    pending = {p: list(plan) for p, plan in plans.items()}
    while any(pending.values()) or open_op:
        candidates = [p for p in pending if pending[p] or p in open_op]
        p = rng.choice(candidates)
        rt += 1
        lt[p] += rng.randint(1, 3)
        if p in open_op:
            d = open_op.pop(p)
            if d.kind == READ:
                pool = written[d.reg] + [0]
                d.ret = rng.choice(pool) if rng.random() < 0.8 else rng.randint(0, 3)
            else:
                d.ret = OK
            events.append(Event(RESPONSE_EVENT, d, rt, lt[p], p))
        else:
            opid, kind, reg, val = pending[p].pop(0)
            ts = Timestamp(lt[p], p) if annotate_ts and kind == WRITE else None
            d = OperationDescriptor(opid=opid, proc=p, kind=kind, reg=reg, arg=val, ts=ts)
            open_op[p] = d
            events.append(Event(INVOCATION, d, rt, lt[p], p))
    return events


def strip_ts(h: Sequence[Event]) -> list[Event]:
    """A copy of h with every operation's timestamp set to None, as in a
    history file whose ts fields are all null."""
    fresh: dict[int, OperationDescriptor] = {}
    out = []
    for e in h:
        if e.op.opid not in fresh:
            fresh[e.op.opid] = replace(e.op, ts=None)
        out.append(Event(e.kind, fresh[e.op.opid], e.rt, e.lt, e.proc))
    return out


def dense_op_rounds(history: Sequence[Event], records) -> dict:
    """Rounds per completed op, recomputed from the message log alone: the
    number of distinct initiator phases (query/update rids) the op's process
    opened between invocation and response. O(ops x messages): the reference
    for simnet.op_rounds."""
    spans = {}
    inv_rt: dict[int, int] = {}
    for e in history:
        if e.kind == INVOCATION:
            inv_rt[e.op.opid] = e.rt
        else:
            spans[e.op.opid] = (e.op.proc, inv_rt[e.op.opid], e.rt)
    rounds = {}
    for opid, (proc, lo, hi) in spans.items():
        rids = {
            r.msg.rid
            for r in records
            if r.msg.kind in ("query", "update")
            and r.msg.sender == proc
            and lo <= r.send_rt <= hi
        }
        rounds[opid] = len(rids)
    return rounds


def dense_compose_witnesses(hlt: Sequence[Event], per_register: dict) -> list[Event]:
    """The composed witness of checker._compose_witnesses, built from dense
    precedence: an edge from every earlier response to every later
    invocation in hlt, plus each register witness's chain, then a heap
    ordered by (timestamp, invocation lt, process, opid). O(ops^2) edges:
    the reference for the barrier construction."""
    inv: dict[int, Event] = {}
    res: dict[int, Event] = {}
    for e in hlt:
        (inv if e.kind == INVOCATION else res)[e.op.opid] = e
    succs: dict[int, set] = {o: set() for o in inv}
    indeg: dict[int, int] = {o: 0 for o in inv}

    def edge(a: int, b: int) -> None:
        if b not in succs[a]:
            succs[a].add(b)
            indeg[b] += 1

    for vx in per_register.values():
        chain = [e.op.opid for e in vx.witness if e.kind == INVOCATION]
        for a, b in zip(chain, chain[1:]):
            edge(a, b)
    responded: list[int] = []
    for e in hlt:
        if e.kind == RESPONSE_EVENT:
            responded.append(e.op.opid)
        else:
            for o1 in responded:
                edge(o1, e.op.opid)

    def key(o: int):
        ts = inv[o].op.ts if inv[o].op.ts is not None else INITIAL_TS
        return (ts, inv[o].lt, inv[o].proc, o)

    heap = sorted(key(o) for o, d in indeg.items() if d == 0)
    out: list[int] = []
    while heap:
        *_, o = heappop(heap)
        out.append(o)
        for b in sorted(succs[o]):
            indeg[b] -= 1
            if indeg[b] == 0:
                heappush(heap, key(b))
    if len(out) != len(inv):
        raise ValueError("dense composition found an order cycle")
    return [e for o in out for e in (inv[o], res[o])]


def dense_is_well_formed(h: Sequence[Event]) -> bool:
    """Well-formedness as core.is_well_formed decides it, from the
    definition: each op invoked once at one process and responded to at most
    once, there, after its invocation; and each process's projection
    sequential, i.e. every invocation immediately followed by its response,
    except one trailing pending invocation."""
    seen_inv: dict[int, Event] = {}
    seen_res: set[int] = set()
    for e in h:
        if e.kind == INVOCATION:
            if e.op.opid in seen_inv:
                return False
            seen_inv[e.op.opid] = e
        elif e.kind == RESPONSE_EVENT:
            inv = seen_inv.get(e.op.opid)
            if inv is None or e.op.opid in seen_res or inv.proc != e.proc:
                return False
            seen_res.add(e.op.opid)
        else:
            return False

    def sequential(hp: list) -> bool:
        i = 0
        while i < len(hp):
            if hp[i].kind != INVOCATION:
                return False
            if i + 1 == len(hp):
                return True
            nxt = hp[i + 1]
            if nxt.kind != RESPONSE_EVENT or nxt.op.opid != hp[i].op.opid:
                return False
            i += 2
        return True

    return all(sequential([e for e in h if e.proc == p]) for p in {e.proc for e in h})


def project_register(h: Sequence[Event], x: RegisterId) -> list[Event]:
    """Subhistory of operations on register x, order preserved."""
    return [e for e in h if e.op.reg == x]


def dense_audit_logical_clocks(trace) -> bool:
    """checker.audit_logical_clocks from lists: every recorded lt grouped
    by process and tick, then each group compared whole, and each process's
    groups walked in tick order."""
    items: dict[int, dict[int, list[int]]] = {}  # proc -> rt -> [lt]

    def note(proc: int, rt: int, lt: Optional[int]) -> None:
        if lt is None:
            return
        items.setdefault(proc, {}).setdefault(rt, []).append(lt)

    for e in trace.history:
        note(e.proc, e.rt, e.lt)
    for rec in trace.message_log:
        note(rec.msg.sender, rec.send_rt, rec.msg.lt)
        if rec.handled:
            note(rec.msg.receiver, rec.recv_rt, rec.recv_lt)
            if rec.recv_lt <= rec.msg.lt:
                return False
    for per_rt in items.values():
        prev = None
        for rt in sorted(per_rt):
            lts = per_rt[rt]
            if any(lt != lts[0] for lt in lts):
                return False
            if prev is not None and lts[0] <= prev:
                return False
            prev = lts[0]
    return True


class HeapRun(_Run):
    """The simulator on its earlier scheduler: one heap entry per event,
    ordered by (due tick, push counter), with the crash and busy checks made
    as each event is popped and a busy process's event pushed again at its
    next free tick. The reference for _Run's per-tick FIFO lists."""

    def __init__(self, cfg: SimConfig):
        super().__init__(cfg)
        self.seq = itertools.count()

    def _push(self, due: int, kind: str, payload) -> None:
        heappush(self.heap, (due, next(self.seq), kind, payload))

    def _drain(self) -> str:
        while self.heap:
            due, _, kind, payload = heappop(self.heap)
            if due > self.cfg.max_ticks:
                return HORIZON
            pid = payload.msg.receiver if kind == _DELIVER else payload
            if pid in self.crashed:
                if kind == _DELIVER:
                    payload.dropped = True
            elif kind == _CRASH:
                self._crash(pid, due)
            elif self.last_exec[pid] >= due:
                self._push(self.last_exec[pid] + 1, kind, payload)
            elif kind == _INVOKE:
                self._invoke(pid, due)
            else:
                self._deliver(pid, payload, due)
        return QUIESCENT
