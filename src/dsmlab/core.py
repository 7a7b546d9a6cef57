"""Core vocabulary for the shared-memory lab.

Identifiers, logical clocks, timestamps, protocol messages, history events,
and the pure operations over them. Everything here is a value; no function
mutates its arguments. Register values are signed integers (the file formats
assume they fit in 64 bits); logical times and ticks stay far below that at
desk scale, so nothing wraps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union, get_args

ProcessId = int  # 1..n
RegisterId = str  # non-empty name, e.g. "x", "r0"
Value = int
LogicalTime = int
RequestId = int
OpId = int

OK = "OK"  # return value of every completed write


class Timestamp(NamedTuple):
    """Write tag, ordered lexicographically: logical time first, then the
    writing process id as tie-break. Tuple comparison gives exactly that
    order, so timestamps can be compared with the usual operators."""

    lt: LogicalTime
    pid: ProcessId


INITIAL_TS = Timestamp(0, 0)


class TimestampValuePair(NamedTuple):
    ts: Timestamp
    val: Value


INITIAL_PAIR = TimestampValuePair(INITIAL_TS, 0)


def clock_local_step(lt: LogicalTime) -> LogicalTime:
    """Clock advance for a locally triggered step."""
    return lt + 1


def clock_merge(lt: LogicalTime, lt_msg: LogicalTime) -> LogicalTime:
    """Clock advance when handling a received message: the receipt must be
    ordered after both the receiver's past and the send."""
    return max(lt, lt_msg) + 1


def quorum_size(n: int) -> int:
    """Majority threshold for n processes: any two groups of this size
    intersect, which is what makes register state survive a handover."""
    if n < 1:
        raise ValueError(f"process count must be positive, got {n}")
    return n // 2 + 1


# --- messages -------------------------------------------------------------
#
# All four message types carry the sender's logical time at send, and the
# request id of the phase they belong to. Responses and acks echo the rid of
# the query/update that solicited them, which is how initiators recognize
# and discard replies to phases already closed. Messages are named tuples;
# each type's `kind` is a class attribute, not a field.


class Query(NamedTuple):
    sender: ProcessId
    receiver: ProcessId
    lt: LogicalTime
    rid: RequestId
    reg: RegisterId
    kind = "query"


class Response(NamedTuple):
    sender: ProcessId
    receiver: ProcessId
    lt: LogicalTime
    rid: RequestId
    tsv: TimestampValuePair
    kind = "response"


class Update(NamedTuple):
    sender: ProcessId
    receiver: ProcessId
    lt: LogicalTime
    rid: RequestId
    reg: RegisterId
    tsv: TimestampValuePair
    kind = "update"


class Ack(NamedTuple):
    sender: ProcessId
    receiver: ProcessId
    lt: LogicalTime
    rid: RequestId
    kind = "ack"


Message = Union[Query, Response, Update, Ack]
MESSAGE_TYPES = {m.kind: m for m in get_args(Message)}  # kind -> message type


# --- histories ------------------------------------------------------------

READ = "read"
WRITE = "write"

INVOCATION = "inv"
RESPONSE_EVENT = "res"


@dataclass(eq=False)
class OperationDescriptor:
    """One read or write execution, shared by its invocation and response
    events. `ret` is filled in at completion; `ts` records the timestamp the
    operation installed or wrote back (set when its update phase starts), and
    stays None for operations that never reached one."""

    opid: OpId
    proc: ProcessId
    kind: str  # READ | WRITE
    reg: RegisterId
    arg: Optional[Value] = None  # writes only
    ret: Union[Value, str, None] = None  # value for reads, OK for writes
    ts: Optional[Timestamp] = None


@dataclass(slots=True, eq=False)
class Event:
    kind: str  # INVOCATION | RESPONSE_EVENT
    op: OperationDescriptor
    rt: int  # simulator tick (real time) of the step that produced it
    lt: Optional[LogicalTime]  # sender-side logical time of that step
    proc: ProcessId


def histories_equivalent(h1: Sequence[Event], h2: Sequence[Event]) -> bool:
    """True when every process sees the same operation sequence in both
    histories. Events are compared by operation identity and event kind, so
    reorderings of concurrent events at different processes don't matter."""

    def per_process(h: Sequence[Event]) -> dict[ProcessId, list[tuple[OpId, str]]]:
        out: dict[ProcessId, list[tuple[OpId, str]]] = {}
        for e in h:
            out.setdefault(e.proc, []).append((e.op.opid, e.kind))
        return out

    return per_process(h1) == per_process(h2)


def is_well_formed(h: Sequence[Event]) -> bool:
    """Structural sanity: each op invoked once, and every per-process
    subhistory sequential (processes are single-threaded clients): a process
    invokes only with no op open, and responds only to its open op. A
    trailing open op per process (a pending op) is allowed. One pass."""
    invoked: set[OpId] = set()
    open_op: dict[ProcessId, OpId] = {}
    for e in h:
        opid = e.op.opid
        if e.kind == INVOCATION:
            if opid in invoked or e.proc in open_op:
                return False
            invoked.add(opid)
            open_op[e.proc] = opid
        elif e.kind != RESPONSE_EVENT or open_op.pop(e.proc, None) != opid:
            return False
    return True

