"""Deterministic discrete-event simulation of the register protocols.

One seeded run drives n peer processes (every process is both a replica and a
closed-loop client of its own workload), delivers messages over reliable but
reordering links, injects crash-stop faults, and records everything: the
operation history, the full message log, and the crashes actually applied.
Per-operation round counts are derived from the message log afterwards, by
the same `op_rounds` that `dsmlab stats` runs on a recorded sidecar.

All nondeterminism flows from the one seeded generator, consumed in event-pop
order, so two runs of the same config produce identical traces byte for byte.
Time is an integer tick counter. Each message is delayed independently by the
configured delay model (at least one tick; uniform draws run randint's own
rejection loop over getrandbits), which is also what reorders messages. Each
tick has one FIFO list of (pid, kind, payload) entries, and a heap holds each
pending tick once. One loop, `_Run._drain`, runs each tick's entries in push
order, stepping the protocol and applying each step in place. A process runs
at most one handler per tick: a busy process's entry is re-appended to the
next tick's list through `_defer`, once for each tick that it waits.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from heapq import heappop, heappush
from types import SimpleNamespace
from typing import NamedTuple, Optional, Sequence, Union

from .core import (
    Event,
    INVOCATION,
    MESSAGE_TYPES,
    Message,
    OperationDescriptor,
    OpId,
    ProcessId,
    READ,
    RESPONSE_EVENT,
    Update,
    Value,
    WRITE,
    quorum_size,
)
from .protocol import (
    Invoke,
    MUTANT_NONE,
    MUTANTS,
    PROTOCOLS,
    SC_ABD,
    State,
    _new,
    initial_state,
    step,
)

# Per-protocol names for the one protocol step, so that a profiler that
# rebinds either one here can tell (or time) the two protocols apart.
sc_abd_step = mw_abd_step = step


class ConfigError(Exception):
    """An invalid simulation or run configuration."""


# --- delay models -----------------------------------------------------------
#
# A delay model maps a message to a delivery delay in ticks, >= 1. Models may
# consume the run's generator; draws happen in send order, so they are part
# of the deterministic replay.


def _uniform(rng: random.Random, lo: int, hi: int) -> int:
    """rng.randint(lo, hi) by randint's rejection loop minus its checks: same draws and state."""
    n = hi - lo + 1
    k = n.bit_length()  # a width of 1 still uses up one bit, as in randint
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return lo + r


@dataclass(frozen=True, slots=True)
class UniformDelay:
    """Independent uniform delay on every message."""

    lo: int = 1
    hi: int = 10

    def delay(self, msg: Message, rng: random.Random) -> int:
        return _uniform(rng, self.lo, self.hi)

    def validate(self, n: int) -> None:
        if self.lo < 1 or self.hi < self.lo:
            raise ConfigError(f"uniform delay needs 1 <= lo <= hi, got {self.lo}..{self.hi}")


@dataclass(frozen=True, slots=True)
class FixedLinkDelay:
    """Constant per-link delay; links not listed use the default."""

    default: int = 1
    links: dict = field(default_factory=dict)  # (sender, receiver) -> ticks

    def delay(self, msg: Message, rng: random.Random) -> int:
        return self.links.get((msg.sender, msg.receiver), self.default)

    def validate(self, n: int) -> None:
        if self.default < 1:
            raise ConfigError("fixed delay default must be >= 1")
        for link, d in self.links.items():
            if d < 1:
                raise ConfigError(f"fixed delay for link {link} must be >= 1, got {d}")
            if not all(1 <= p <= n for p in link):
                raise ConfigError(f"fixed delay link {link} has a pid outside 1..{n}")


SELF = "self"
OTHER = "other"


@dataclass(frozen=True, slots=True)
class DelayRule:
    """One adversarial-schedule clause. None fields match anything; receiver
    may also be "self" (receiver equals sender) or "other". A message takes
    the first matching rule's delay: fixed `lo`, or uniform in lo..hi."""

    kind: Optional[str] = None  # query | response | update | ack
    sender: Optional[ProcessId] = None
    receiver: Union[ProcessId, str, None] = None
    rid: Optional[int] = None
    lo: int = 1
    hi: Optional[int] = None

    def matches(self, msg: Message) -> bool:
        if (self.kind is not None and msg.kind != self.kind
                or self.sender is not None and msg.sender != self.sender):
            return False
        if self.receiver in (SELF, OTHER):
            if (msg.receiver == msg.sender) != (self.receiver == SELF):
                return False
        elif self.receiver is not None and msg.receiver != self.receiver:
            return False
        return self.rid is None or msg.rid == self.rid

    def draw(self, rng: random.Random) -> int:
        if self.hi is None or self.hi == self.lo:
            return self.lo
        return _uniform(rng, self.lo, self.hi)

    def validate(self, n: int) -> None:
        if self.kind is not None and self.kind not in MESSAGE_TYPES:
            raise ConfigError(f"delay rule has unknown message kind {self.kind!r}")
        if self.hi is None and self.lo < 1:
            raise ConfigError(f"delay rule needs lo >= 1, got {self.lo}")
        if self.hi is not None and not 1 <= self.lo <= self.hi:
            raise ConfigError(f"delay rule needs 1 <= lo <= hi, got {self.lo}..{self.hi}")
        for pid in (self.sender, self.receiver):
            if isinstance(pid, int) and not 1 <= pid <= n:
                raise ConfigError(f"delay rule pid {pid} outside 1..{n}")
        if self.rid is not None and self.rid < 1:
            raise ConfigError(f"delay rule rid {self.rid} must be >= 1")


@dataclass(frozen=True, slots=True)
class AdversarialSchedule:
    """First-match rule list with a default for unmatched messages. This is
    how targeted schedules (starve one link, hide one replica) are built."""

    rules: tuple = ()  # tuple[DelayRule, ...]
    default: int = 1

    def delay(self, msg: Message, rng: random.Random) -> int:
        for rule in self.rules:
            if rule.matches(msg):
                return rule.draw(rng)
        return self.default

    def validate(self, n: int) -> None:
        if self.default < 1:
            raise ConfigError("adversarial default delay must be >= 1")
        for rule in self.rules:
            rule.validate(n)
        # Each probe stands for all messages that match the same rules: pids
        # the rules name plus two unnamed ones, rids named plus 0 for every
        # other. A rule that matches probes but is first for none never applies.
        named = {p for r in self.rules for p in (r.sender, r.receiver) if isinstance(p, int)}
        pids = named | set(itertools.islice((p for p in range(1, n + 1) if p not in named), 2))
        rids = {r.rid for r in self.rules} - {None} | {0}
        hits = []  # per probe, the numbers of the rules it matches
        for kind, sender, receiver, rid in itertools.product(MESSAGE_TYPES, pids, pids, rids):
            probe = SimpleNamespace(kind=kind, sender=sender, receiver=receiver, rid=rid)
            hits.append([i for i, rule in enumerate(self.rules, start=1) if rule.matches(probe)])
        for i in range(1, len(self.rules) + 1):
            first = {h[0] for h in hits if i in h}  # the rules that take rule i's probes
            if first and i not in first:
                *js, j = sorted(first)
                by = f"rules {', '.join(map(str, js))} and {j} cover" if js else f"rule {j} covers"
                raise ConfigError(f"schedule rule {i} never applies: {by} it")


DelayModel = Union[UniformDelay, FixedLinkDelay, AdversarialSchedule]


# --- configuration ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Workload:
    """Closed-loop client workload, identical shape at every process."""

    ops_per_process: int = 2
    read_fraction: float = 0.5
    register_count: int = 1
    think_time: int = 1  # ticks between an op's completion and the next invoke

    def validate(self) -> None:
        if self.ops_per_process < 0:
            raise ConfigError("ops_per_process must be >= 0")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigError(f"read_fraction must be in [0, 1], got {self.read_fraction}")
        if self.register_count < 1:
            raise ConfigError("register_count must be >= 1")
        if self.think_time < 0:
            raise ConfigError("think_time must be >= 0")


@dataclass(frozen=True, slots=True)
class SimConfig:
    n: int = 3
    seed: int = 0
    delay: DelayModel = UniformDelay()
    workload: Workload = Workload()
    crashes: tuple = ()  # tuple[(pid, tick), ...]; crash-stop at that tick
    max_ticks: int = 1_000_000
    protocol: str = SC_ABD
    mid_op_crash: bool = False  # crash mid-operation instead of deferring
    mutant: str = MUTANT_NONE

    def validate(self) -> "SimConfig":
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.seed < 0:  # Random(-s) draws as Random(s) does
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.max_ticks < 1:
            raise ConfigError("max_ticks must be >= 1")
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        if self.mutant not in MUTANTS:
            raise ConfigError(f"mutant must be one of {MUTANTS}, got {self.mutant!r}")
        self.workload.validate()
        self.delay.validate(self.n)
        pids = [p for p, _ in self.crashes]
        if len(set(pids)) != len(pids):
            raise ConfigError("a process may crash at most once")
        for p, tick in self.crashes:
            if not 1 <= p <= self.n:
                raise ConfigError(f"crash pid {p} outside 1..{self.n}")
            if tick < 0:
                raise ConfigError(f"crash tick must be >= 0, got {tick}")
        allowed = self.n - quorum_size(self.n)
        if len(self.crashes) > allowed:
            raise ConfigError(
                f"{len(self.crashes)} crashes with n={self.n} would break the "
                f"quorum assumption (at most {allowed} allowed)"
            )
        return self


class OpSpec(NamedTuple):
    kind: str  # READ | WRITE
    reg: str
    val: Optional[Value]  # None for reads


def generate_workload(cfg: SimConfig, rng: random.Random) -> dict[ProcessId, list[OpSpec]]:
    """Pre-draw every process's operation sequence from the run generator.
    Register names are r0..r{k-1}; written values are positive, so 0 is only
    ever the initial register value."""
    w = cfg.workload
    out: dict[ProcessId, list[OpSpec]] = {}
    for p in range(1, cfg.n + 1):
        ops = []
        for _ in range(w.ops_per_process):
            reg = f"r{_uniform(rng, 0, w.register_count - 1)}"
            if rng.random() < w.read_fraction:
                ops.append(_new(OpSpec, (READ, reg, None)))
            else:
                ops.append(_new(OpSpec, (WRITE, reg, _uniform(rng, 1, 999_999))))
        out[p] = ops
    return out


# --- trace ------------------------------------------------------------------


@dataclass(slots=True)
class MessageRecord:
    """One message's life: send tick, and on delivery the receive tick plus
    the receiver's clock after handling. A reply to an already-closed phase
    is delivered but discarded (handled stays False); a message to a crashed
    process is dropped instead."""

    msg: Message
    send_rt: int
    recv_rt: Optional[int] = None
    recv_lt: Optional[int] = None
    handled: bool = False
    dropped: bool = False


QUIESCENT = "quiescent"
HORIZON = "horizon"


@dataclass(slots=True)
class Trace:
    config: SimConfig
    history: list  # list[Event], append order = chronological order
    message_log: list  # list[MessageRecord], send order
    rounds: dict  # opid -> communication rounds initiated, from op_rounds
    ops: dict  # opid -> OperationDescriptor
    crash_log: list  # [(pid, tick)] actually applied, in order
    outcome: str  # QUIESCENT | HORIZON

    @property
    def protocol(self) -> str:
        return self.config.protocol

    @property
    def quiescent(self) -> bool:
        return self.outcome == QUIESCENT

    def completed(self) -> dict[OpId, OperationDescriptor]:
        return {i: d for i, d in self.ops.items() if d.ret is not None}


def op_rounds(history: Sequence[Event], records: Sequence[MessageRecord]) -> dict[OpId, int]:
    """Communication rounds per invoked operation, counted from the message
    log: the distinct initiator phases (query and update rids) that the op's
    process opened from the op's invocation to its response, or to the end of
    the log if the op is pending.

    Each send is charged to the latest op its sender invoked at or before the
    send tick, found by bisection, so the cost is O((ops + messages) log ops).
    A send outside every op of its sender (before its first invocation, after
    the op's response, or from a process that invoked nothing) is ignored. A
    simulated process runs one op at a time and one handler per tick, so each
    send lies in at most one op's span; in a hand-made log, a send on a tick
    shared by a response and the next invocation is charged to the later op.
    """
    starts: dict[ProcessId, list[int]] = {}  # invocation ticks, in order
    opened: dict[ProcessId, list[OpId]] = {}
    ends: dict[OpId, int] = {}
    rids: dict[OpId, set] = {}
    for e in history:
        if e.kind == INVOCATION:
            starts.setdefault(e.proc, []).append(e.rt)
            opened.setdefault(e.proc, []).append(e.op.opid)
            rids[e.op.opid] = set()
        else:
            ends[e.op.opid] = e.rt
    # A broadcast sends one (sender, tick, rid) n times; place it once.
    sends = {
        (m.sender, r.send_rt, m.rid) for r in records if (m := r.msg).kind in ("query", "update")
    }
    for sender, rt, rid in sends:
        i = bisect_right(starts.get(sender, ()), rt) - 1
        if i < 0:
            continue
        opid = opened[sender][i]
        if rt <= ends.get(opid, rt):
            rids[opid].add(rid)
    return {opid: len(ids) for opid, ids in rids.items()}


# --- engine -----------------------------------------------------------------

_INVOKE = "invoke"
_DELIVER = "deliver"
_CRASH = "crash"


class _Run:
    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        p1 = initial_state(1, cfg.n, cfg.protocol, cfg.mutant)
        self.states: dict[ProcessId, State] = {p: p1._replace(pid=p) for p in range(1, cfg.n + 1)}
        self.step = sc_abd_step if cfg.protocol == SC_ABD else mw_abd_step
        self.heap: list[int] = []  # each tick with pending events, once
        self.queues: dict[int, list] = {}  # tick -> [(pid, kind, payload)], push order
        self.last_exec: dict[ProcessId, int] = {p: -1 for p in self.states}
        self.crashed: set[ProcessId] = set()
        self.crash_pending: set[ProcessId] = set()
        self.workload = generate_workload(cfg, self.rng)
        self.next_op: dict[ProcessId, int] = {p: 0 for p in self.states}
        self.opids = itertools.count(1)
        self.history: list[Event] = []
        self.message_log: list[MessageRecord] = []
        self.ops: dict[OpId, OperationDescriptor] = {}
        self.crash_log: list[tuple[ProcessId, int]] = []

    def _push(self, due: int, kind: str, pid: ProcessId) -> None:
        queue = self.queues.setdefault(due, [])
        if not queue:  # the tick's first event
            heappush(self.heap, due)
        queue.append((pid, kind, None))

    # One handler per process per tick: the loop re-appends a busy process's
    # entry to the next tick's list through this method, which returns True,
    # so that a profiler can count deferrals.
    def _defer(self, queue: list, entry: tuple) -> bool:
        queue.append(entry)
        return True

    def run(self) -> Trace:
        for pid, tick in self.cfg.crashes:
            self._push(tick, _CRASH, pid)
        for p in self.states:
            if self.workload[p]:
                self._push(0, _INVOKE, p)
        outcome = self._drain()
        h, log = self.history, self.message_log
        return Trace(self.cfg, h, log, op_rounds(h, log), self.ops, self.crash_log, outcome)

    def _drain(self) -> str:
        """The event loop: each tick's events in push order, up to the
        horizon, each step's effects applied in place. Events appended to
        the tick being drained (think time 0) are reached too."""
        cfg, heap, queues, states, ops = self.cfg, self.heap, self.queues, self.states, self.ops
        last_exec, crashed, log = self.last_exec, self.crashed, self.message_log
        workload, next_op, history = self.workload, self.next_op, self.history
        step, rng, delay, defer = self.step, self.rng, cfg.delay.delay, self._defer
        while heap:
            tick = heappop(heap)
            if tick > cfg.max_ticks:
                return HORIZON
            later = queues.setdefault(tick + 1, [])  # where busy processes' entries go
            for entry in queues[tick]:
                pid, kind, payload = entry
                if pid in crashed:
                    if kind == _DELIVER:
                        payload.dropped = True
                    continue
                if kind == _CRASH:
                    self._crash(pid, tick)
                    continue
                if last_exec[pid] >= tick:
                    if not later:
                        heappush(heap, tick + 1)
                    defer(later, entry)
                    continue
                if kind == _INVOKE:
                    spec = workload[pid][next_op[pid]]
                    next_op[pid] += 1
                    opid = next(self.opids)
                    desc = ops[opid] = OperationDescriptor(opid, pid, *spec)
                    state, outbox, completion = step(states[pid], Invoke(opid, *spec))
                    history.append(Event(INVOCATION, desc, tick, state.lt, pid))
                else:
                    before = states[pid]
                    state, outbox, completion = step(before, payload.msg)
                    payload.recv_rt = tick
                    payload.recv_lt = state.lt
                    # Only a reply to a closed phase leaves the state as is.
                    payload.handled = state is not before
                states[pid] = state
                last_exec[pid] = tick
                if outbox:
                    first = outbox[0]
                    if type(first) is Update:  # the op's first one carries its ts
                        desc = ops[state.opid]
                        if desc.ts is None:
                            desc.ts = first.tsv.ts
                    for msg in outbox:
                        rec = MessageRecord(msg, tick)
                        log.append(rec)
                        due = tick + delay(msg, rng)  # >= 1: models are validated
                        if not (queue := queues.get(due)):  # the tick's first event
                            heappush(heap, due)
                            queue = queues.setdefault(due, [])
                        queue.append((msg.receiver, _DELIVER, rec))
                if completion is not None:
                    desc = ops[completion.opid]
                    desc.ret = completion.ret
                    if desc.ts is None and completion.ts is not None:
                        desc.ts = completion.ts
                    history.append(Event(RESPONSE_EVENT, desc, tick, state.lt, pid))
                    if pid in self.crash_pending:
                        self.crash_pending.discard(pid)
                        self._crash(pid, tick)  # the process is idle again
                    elif next_op[pid] < len(workload[pid]):
                        self._push(tick + cfg.workload.think_time, _INVOKE, pid)
            del queues[tick]
            if not later:
                del queues[tick + 1]
        return QUIESCENT

    def _crash(self, pid: ProcessId, tick: int) -> None:
        if self.states[pid].opid is None or self.cfg.mid_op_crash:
            self.crashed.add(pid)
            self.crash_log.append((pid, tick))
        else:  # deferred to the op boundary, so histories stay complete
            self.crash_pending.add(pid)


def run_simulation(cfg: SimConfig) -> Trace:
    """Validate the config and run it to quiescence or the tick horizon."""
    cfg.validate()
    return _Run(cfg).run()
