"""Shared builders and naive references for the test suite.

The naive checkers enumerate permutations outright, with no memoization and
no cleverness, the dense round counter scans the whole message log once per
operation, the dense composer adds an edge from every response to every
later invocation, the dense well-formedness test projects the history once
per process, the dense clock audit groups every lt by process and tick
before comparing, the dict clock audit keeps each execution's first lt in
a (process, tick) dict and sorts its keys, the heap scheduler pushes every
event, deferrals included, onto one (due, seq) heap, and the dict writers
and parsers build
or validate one dict per file record through the json module; they exist so
the real code has something independent to disagree with.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import replace
from heapq import heappop, heappush
from typing import Optional, Sequence

from dsmlab.core import (
    Ack,
    Event,
    INITIAL_TS,
    INVOCATION,
    OK,
    OperationDescriptor,
    Query,
    READ,
    RESPONSE_EVENT,
    RegisterId,
    Response,
    Timestamp,
    TimestampValuePair,
    Update,
    WRITE,
)
from dsmlab.files import ParseError, _fail, _load
from dsmlab.protocol import Invoke, StepOutput
from dsmlab.simnet import (
    _CRASH, _DELIVER, _INVOKE, MessageRecord, SimConfig, _Run
)


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


def unstamped_pending_write() -> list[Event]:
    """p1 invokes write(x, 1) and never responds; p2 reads x and gets 1. No
    event carries a ts, so nothing tells whether the write reached its update
    phase, but the read shows that it did: the history is SC."""
    w = op_events(1, 1, WRITE, "x", arg=1, inv=(0, 1))
    r = op_events(2, 2, READ, "x", ret=1, inv=(1, 1), res=(3, 3))
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
    the reference for the response-prefix pointer, which gives the same
    ready set at every pop without building them."""
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


def dict_audit_logical_clocks(trace) -> bool:
    """checker.audit_logical_clocks through a dict: every recorded lt is
    checked against the first lt of its (process, tick) execution as it is
    met, then the executions are walked in sorted (process, tick) order."""
    lts: dict[tuple[int, int], int] = {}  # (proc, rt) -> lt

    def agrees(proc: int, rt: int, lt: Optional[int]) -> bool:
        return lt is None or lts.setdefault((proc, rt), lt) == lt

    for e in trace.history:
        if not agrees(e.proc, e.rt, e.lt):
            return False
    for rec in trace.message_log:
        m = rec.msg
        if not agrees(m.sender, rec.send_rt, m.lt):
            return False
        if rec.handled and (
            not agrees(m.receiver, rec.recv_rt, rec.recv_lt) or rec.recv_lt <= m.lt
        ):
            return False
    prev_proc, prev_lt = None, None
    for key in sorted(lts):
        lt = lts[key]
        if key[0] == prev_proc and lt <= prev_lt:
            return False
        prev_proc, prev_lt = key[0], lt
    return True


class HeapRun(_Run):
    """The simulator on its earlier scheduler: one heap entry per event,
    ordered by (due tick, push counter), with the crash and busy checks made
    as each event is popped and a busy process's event pushed again at its
    next free tick, and each event handled by its own methods. The reference
    for _Run's one event loop over per-tick FIFO lists; `deferrals` counts
    the busy re-pushes."""

    def __init__(self, cfg: SimConfig):
        super().__init__(cfg)
        self.seq = itertools.count()
        self.deferrals = 0

    def _push(self, due: int, kind: str, payload) -> None:
        heappush(self.heap, (due, next(self.seq), kind, payload))

    def _drain(self) -> bool:
        while self.heap:
            due, _, kind, payload = heappop(self.heap)
            if due > self.cfg.max_ticks:
                return False
            pid = payload.msg.receiver if kind == _DELIVER else payload
            if pid in self.crashed:
                if kind == _DELIVER:
                    payload.dropped = True
            elif kind == _CRASH:
                self._crash(pid, due)
            elif self.last_exec[pid] >= due:
                self.deferrals += 1
                self._push(self.last_exec[pid] + 1, kind, payload)
            elif kind == _INVOKE:
                self._invoke(pid, due)
            else:
                self._deliver(pid, payload, due)
        return True

    def _invoke(self, pid: int, tick: int) -> None:
        spec = self.workload[pid][self.next_op[pid]]
        self.next_op[pid] += 1
        opid = next(self.opids)
        desc = OperationDescriptor(opid=opid, proc=pid, kind=spec.kind, reg=spec.reg, arg=spec.val)
        self.ops[opid] = desc
        out = self.step(self.states[pid], Invoke(opid, spec.kind, spec.reg, spec.val))
        self.history.append(Event(INVOCATION, desc, tick, out.state.lt, pid))
        self._apply(pid, out, tick)

    def _deliver(self, pid: int, rec: MessageRecord, tick: int) -> None:
        before = self.states[pid]
        out = self.step(before, rec.msg)
        rec.recv_rt = tick
        rec.recv_lt = out.state.lt
        rec.handled = out.state is not before or bool(out.outbox) or out.completion is not None
        self._apply(pid, out, tick)

    def _apply(self, pid: int, out: StepOutput, tick: int) -> None:
        self.states[pid] = out.state
        self.last_exec[pid] = tick
        if out.outbox:
            first = out.outbox[0]
            if first.kind == "update":
                desc = self.ops[out.state.opid]
                if desc.ts is None:
                    desc.ts = first.tsv.ts
            for msg in out.outbox:
                rec = MessageRecord(msg=msg, send_rt=tick)
                self.message_log.append(rec)
                delay = max(1, self.cfg.delay.delay(msg, self.rng))
                self._push(tick + delay, _DELIVER, rec)
        if out.completion is not None:
            desc = self.ops[out.completion.opid]
            desc.ret = out.completion.ret
            if desc.ts is None and out.completion.ts is not None:
                desc.ts = out.completion.ts
            self.history.append(Event(RESPONSE_EVENT, desc, tick, out.state.lt, pid))
            if pid in self.crash_pending:
                self.crash_pending.discard(pid)
                self._crash(pid, tick)
            elif self.next_op[pid] < len(self.workload[pid]):
                self._push(tick + self.cfg.workload.think_time, _INVOKE, pid)


# --- file formats through dicts and the json module --------------------------------

_encode = json.JSONEncoder(separators=(",", ":")).encode


def _event_record(e: Event) -> dict:
    if e.lt is None:
        raise ValueError(f"event for op {e.op.opid} has no lt; cannot serialize")
    op = e.op
    ret = op.ret if e.kind == RESPONSE_EVENT else None
    return {
        "kind": e.kind,
        "opid": op.opid,
        "proc": op.proc,
        "op": op.kind,
        "reg": op.reg,
        "val": op.arg,
        "ret": ret,
        "rt": e.rt,
        "lt": e.lt,
        "ts": list(op.ts) if op.ts is not None else None,
    }


def dict_serialize_history(h: Sequence[Event]) -> str:
    """files.serialize_history as one dict per event, JSON-encoded."""
    return "".join(_encode(_event_record(e)) + "\n" for e in h)


def _message_record(rec: MessageRecord) -> dict:
    m = rec.msg
    tsv = getattr(m, "tsv", None)
    return {
        "kind": m.kind,
        "sender": m.sender,
        "receiver": m.receiver,
        "lt": m.lt,
        "rid": m.rid,
        "reg": getattr(m, "reg", None),
        "ts": list(tsv.ts) if tsv is not None else None,
        "val": tsv.val if tsv is not None else None,
        "send_rt": rec.send_rt,
        "recv_rt": rec.recv_rt,
        "recv_lt": rec.recv_lt,
        "handled": rec.handled,
        "dropped": rec.dropped,
    }


def dict_serialize_message_log(trace) -> str:
    """files.serialize_message_log as one dict per record, JSON-encoded."""
    header = {
        "protocol": trace.config.protocol,
        "n": trace.config.n,
        "seed": trace.config.seed,
    }
    lines = [_encode(header)]
    lines.extend(_encode(_message_record(r)) for r in trace.message_log)
    return "\n".join(lines) + "\n"


def _is_int(v) -> bool:
    # exact type: JSON true/false load as bool, a subclass of int
    return type(v) is int


def _is_ts(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(_is_int(c) for c in v)


_RECORD_KEYS = ("kind", "opid", "proc", "op", "reg", "val", "ret", "rt", "lt", "ts")


def _check_keys(lineno: int, rec, keys: tuple) -> None:
    if not isinstance(rec, dict):
        _fail(lineno, "record is not an object")
    if set(rec) != set(keys):
        missing = sorted(set(keys) - set(rec))
        extra = sorted(set(rec) - set(keys))
        _fail(lineno, f"bad keys (missing {missing}, unexpected {extra})")


def dict_parse_history(text: str) -> list[Event]:
    """files.parse_history with a set of keys built per line, one helper
    call per type test, and keyword construction."""
    descs: dict[int, OperationDescriptor] = {}
    responded: set[int] = set()
    events: list[Event] = []
    prev_rt: Optional[int] = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip(" \t\r"):
            continue
        rec = _load(lineno, line)
        _check_keys(lineno, rec, _RECORD_KEYS)
        kind, opid, proc, opkind = rec["kind"], rec["opid"], rec["proc"], rec["op"]
        if kind not in (INVOCATION, RESPONSE_EVENT):
            _fail(lineno, f"kind must be 'inv' or 'res', got {rec['kind']!r}")
        if opkind not in (READ, WRITE):
            _fail(lineno, f"op must be 'read' or 'write', got {rec['op']!r}")
        if not _is_int(opid):
            _fail(lineno, "opid must be an integer")
        if not _is_int(proc) or proc < 1:
            _fail(lineno, "proc must be a positive integer")
        if not isinstance(rec["reg"], str) or not rec["reg"]:
            _fail(lineno, "reg must be a non-empty string")
        if not _is_int(rec["rt"]) or not _is_int(rec["lt"]):
            _fail(lineno, "rt and lt must be integers")
        if prev_rt is not None and rec["rt"] < prev_rt:
            _fail(lineno, f"lines out of rt order ({prev_rt} then {rec['rt']})")
        prev_rt = rec["rt"]
        val = rec["val"]
        if opkind == WRITE:
            if not _is_int(val):
                _fail(lineno, "a write record needs an integer val")
        elif val is not None:
            _fail(lineno, "a read record must have val null")
        ts = rec["ts"]
        if ts is not None:
            if not _is_ts(ts):
                _fail(lineno, "ts must be null or a [lt, pid] pair of integers")
            ts = Timestamp(*ts)
        ret = rec["ret"]
        if kind == INVOCATION:
            if ret is not None:
                _fail(lineno, "an invocation record must have ret null")
            if opid in descs:
                _fail(lineno, f"op {opid} invoked twice")
            descs[opid] = OperationDescriptor(
                opid=opid, proc=proc, kind=opkind, reg=rec["reg"], arg=val, ts=ts
            )
        else:
            d = descs.get(opid)
            if d is None:
                _fail(lineno, f"response for op {opid} before its invocation")
            if opid in responded:
                _fail(lineno, f"op {opid} responded to twice")
            if (d.proc, d.kind, d.reg, d.arg) != (proc, opkind, rec["reg"], val):
                _fail(lineno, f"response for op {opid} disagrees with its invocation")
            if opkind == READ:
                if not _is_int(ret):
                    _fail(lineno, "a completed read needs an integer ret")
            elif ret != OK:
                _fail(lineno, f"a completed write needs ret {OK!r}")
            if ts is not None:
                if d.ts is not None and d.ts != ts:
                    _fail(lineno, f"op {opid} carries two different timestamps")
                d.ts = ts
            responded.add(opid)
            d.ret = ret
        events.append(
            Event(kind, descs[opid], rec["rt"], rec["lt"], proc)
        )
    return events


_MSG_KEYS = (
    "kind", "sender", "receiver", "lt", "rid", "reg", "ts", "val",
    "send_rt", "recv_rt", "recv_lt", "handled", "dropped",
)


def dict_parse_message_log(text: str) -> tuple:
    """files.parse_message_log with the same dict-per-line validation as
    dict_parse_history. Blank lines are dropped before lines are numbered."""
    lines = [ln for ln in text.split("\n") if ln.strip(" \t\r")]
    if not lines:
        raise ParseError("empty message log (missing header line)")
    header = _load(1, lines[0])
    if (
        not isinstance(header, dict)
        or not {"protocol", "n", "seed"} <= set(header)
        or not isinstance(header["protocol"], str)
        or not (_is_int(header["n"]) and _is_int(header["seed"]))
    ):
        raise ParseError("header line must carry a protocol string, and integers n and seed")
    records: list[MessageRecord] = []
    for lineno, line in enumerate(lines[1:], start=2):
        rec = _load(lineno, line)
        _check_keys(lineno, rec, _MSG_KEYS)
        for key in ("sender", "receiver", "lt", "rid", "send_rt"):
            if not _is_int(rec[key]):
                _fail(lineno, f"{key} must be an integer")
        for key in ("recv_rt", "recv_lt"):
            if rec[key] is not None and not _is_int(rec[key]):
                _fail(lineno, f"{key} must be null or an integer")
        for key in ("handled", "dropped"):
            if not isinstance(rec[key], bool):
                _fail(lineno, f"{key} must be true or false")
        if rec["reg"] is not None and (not isinstance(rec["reg"], str) or not rec["reg"]):
            _fail(lineno, "reg must be null or a non-empty string")
        ts, val = rec["ts"], rec["val"]
        if not (ts is None and val is None or _is_ts(ts) and _is_int(val)):
            _fail(lineno, "ts and val must both be null, or a [lt, pid] pair and an integer")
        kind = rec["kind"]
        common = dict(
            sender=rec["sender"], receiver=rec["receiver"], lt=rec["lt"], rid=rec["rid"]
        )
        tsv = TimestampValuePair(Timestamp(*ts), val) if ts is not None else None
        if kind in ("query", "update") and rec["reg"] is None:
            _fail(lineno, f"{kind} record needs a reg")
        if kind in ("response", "ack") and rec["reg"] is not None:
            _fail(lineno, f"{kind} record must have reg null")
        if kind == "query":
            if tsv is not None:
                _fail(lineno, "query record must have ts and val null")
            msg = Query(reg=rec["reg"], **common)
        elif kind == "response":
            if tsv is None:
                _fail(lineno, "response record needs ts and val")
            msg = Response(tsv=tsv, **common)
        elif kind == "update":
            if tsv is None:
                _fail(lineno, "update record needs ts and val")
            msg = Update(reg=rec["reg"], tsv=tsv, **common)
        elif kind == "ack":
            if tsv is not None:
                _fail(lineno, "ack record must have ts and val null")
            msg = Ack(**common)
        else:
            _fail(lineno, f"unknown message kind {kind!r}")
        records.append(
            MessageRecord(
                msg=msg,
                send_rt=rec["send_rt"],
                recv_rt=rec["recv_rt"],
                recv_lt=rec["recv_lt"],
                handled=rec["handled"],
                dropped=rec["dropped"],
            )
        )
    return header, records
