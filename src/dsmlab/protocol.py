"""Per-process state machine for the replicated-register protocols.

Each step consumes one stimulus (an operation invocation or a received
message) and returns the successor state, the messages to send, and, when a
quorum fires, the completed operation's result. Steps are pure functions of
(state, stimulus): the input state is never mutated and identical inputs give
identical outputs, which is what makes simulation runs replayable.

One state machine serves two protocols that share the replica side (query and
update handlers), the message vocabulary and the read path; they differ only
in how a write obtains its timestamp:

* ``sc_abd``: a write stamps its value with (logical time, process id) at
  invocation and installs it in a single update round. A read queries a
  majority, picks the largest returned pair, and writes it back, so reads
  take two rounds. The Lamport clock piggybacked on every message is what
  makes the one-round write safe: any later operation of the same process
  carries a larger logical time than everything the process has seen.

* ``mw_abd``: the classical multi-writer baseline. A write first queries a
  majority for the highest stored timestamp and then installs
  (max + 1, process id), so writes also take two rounds. Logical clocks are
  still maintained on every step, but timestamps are derived from the query
  round, not from the clock.

A run's protocol and mutant are resolved once, by ``initial_state``, into the
frozen ``Variant`` that every state carries: whether writes query first, how
many replies close a phase, and whether reads write back.

Every initiator phase carries a fresh request id; responses and acks echo the
rid they answer. A reply whose rid is not the currently open one is discarded
outright: the state (clock included) is left untouched, so duplicate or
straggling replies from closed phases cannot perturb anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from .core import (
    INITIAL_PAIR,
    OK,
    READ,
    WRITE,
    Ack,
    Message,
    OpId,
    ProcessId,
    Query,
    RegisterId,
    Response,
    Timestamp,
    TimestampValuePair,
    Update,
    Value,
    clock_local_step,
    clock_merge,
    quorum_size,
)

IDLE = "idle"
QUERYING = "querying"
UPDATING = "updating"

SC_ABD = "sc_abd"
MW_ABD = "mw_abd"
PROTOCOLS = (SC_ABD, MW_ABD)

MUTANT_NONE = "none"
MUTANT_SMALL_QUORUM = "small-quorum"
MUTANT_NO_WRITEBACK = "no-writeback"
MUTANTS = (MUTANT_NONE, MUTANT_SMALL_QUORUM, MUTANT_NO_WRITEBACK)


class ProtocolError(Exception):
    """A stimulus that the current state must never receive."""


class Invoke(NamedTuple):
    """Operation invocation stimulus handed to a process by its client."""

    opid: OpId
    kind: str  # READ | WRITE
    reg: RegisterId
    val: Optional[Value] = None  # writes only


class Completion(NamedTuple):
    opid: OpId
    ret: Union[Value, str]  # read value, or OK for writes
    # Timestamp selected by the completing op's query phase, reported only
    # when no update round follows to carry it (the no-writeback mutant);
    # recorders need it to keep mutant reads auditable.
    ts: Optional[Timestamp] = None


@dataclass(frozen=True, slots=True)
class Variant:
    """How one run's processes behave, resolved once by ``initial_state``."""

    query_writes: bool  # mw_abd: a write queries for the highest timestamp first
    threshold: int  # replies that close a phase: a majority unless small-quorum
    writeback: bool  # reads install their selected pair; False for no-writeback


class State(NamedTuple):
    """One process: replica store plus initiator bookkeeping.

    ``tvps`` maps registers to their stored timestamp-value pair; registers
    never written hold the initial pair ((0, 0), 0), kept implicit via
    ``pair``. ``responses`` collects (pair, responder) during a query phase
    and responder ids during update phases. ``phase`` is idle between
    operations; invoking while not idle is a client error.
    """

    pid: ProcessId
    n: int
    v: Variant
    lt: int = 0
    rid: int = 0
    tvps: dict = {}  # shared default, never mutated: updates build a new dict
    responses: frozenset = frozenset()
    reading: bool = False
    reg: RegisterId = ""  # the open operation's register
    val: Optional[Value] = 0  # value to write (kept across a query round) or value read
    phase: str = IDLE
    opid: Optional[OpId] = None

    def pair(self, reg: RegisterId) -> TimestampValuePair:
        return self.tvps.get(reg, INITIAL_PAIR)


class StepOutput(NamedTuple):
    state: State
    outbox: tuple = ()  # tuple[Message, ...] in receiver order
    completion: Optional[Completion] = None


def initial_state(
    pid: ProcessId, n: int, protocol: str = SC_ABD, mutant: str = MUTANT_NONE
) -> State:
    """A fresh process of the given protocol, weakened by `mutant`.

    Mutants exist for checker calibration: ``small-quorum`` closes phases at
    floor(n/2) replies (no intersection guarantee, clamped to 1 so n=1 still
    runs), ``no-writeback`` lets reads return without their update round.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    if mutant not in MUTANTS:
        raise ValueError(f"unknown mutant {mutant!r}")
    v = Variant(
        query_writes=protocol == MW_ABD,
        threshold=max(1, n // 2) if mutant == MUTANT_SMALL_QUORUM else quorum_size(n),
        writeback=mutant != MUTANT_NO_WRITEBACK,
    )
    return State(pid=pid, n=n, v=v)


def _broadcast(s: State, kind: type, **fields) -> tuple:
    """One message of the given kind to every process, self included."""
    return tuple(kind(sender=s.pid, receiver=j, **fields) for j in range(1, s.n + 1))


def invoke(s: State, stim: Invoke) -> StepOutput:
    """Start an operation in a fresh phase. Reads, and writes under
    ``query_writes``, ask everyone for their stored pair. Other writes stamp
    the value with (new clock, own pid) and broadcast the update at once: no
    query round, the logical clock already dominates every pair observed."""
    if stim.kind not in (READ, WRITE):
        raise ProtocolError(f"unknown operation kind {stim.kind!r}")
    if s.phase != IDLE:
        raise ProtocolError(
            f"process {s.pid} invoked op {stim.opid} while {s.phase} on op {s.opid}"
        )
    lt = clock_local_step(s.lt)
    rid = s.rid + 1
    reading = stim.kind == READ
    query = reading or s.v.query_writes
    nxt = s._replace(
        lt=lt,
        rid=rid,
        reading=reading,
        reg=stim.reg,
        val=stim.val,
        responses=frozenset(),
        phase=QUERYING if query else UPDATING,
        opid=stim.opid,
    )
    if query:
        return StepOutput(nxt, _broadcast(s, Query, lt=lt, rid=rid, reg=stim.reg))
    tsv = TimestampValuePair(Timestamp(lt, s.pid), stim.val)
    return StepOutput(nxt, _broadcast(s, Update, lt=lt, rid=rid, reg=stim.reg, tsv=tsv))


def handle_query(s: State, m: Query) -> StepOutput:
    """Replica side: answer with the stored pair for the queried register."""
    lt = clock_merge(s.lt, m.lt)
    nxt = s._replace(lt=lt)
    resp = Response(sender=s.pid, receiver=m.sender, lt=lt, rid=m.rid, tsv=s.pair(m.reg))
    return StepOutput(nxt, (resp,))


def handle_update(s: State, m: Update) -> StepOutput:
    """Replica side: install the incoming pair if its timestamp is larger
    than the stored one, then acknowledge. Installation is monotone, so
    replayed or reordered updates are harmless."""
    lt = clock_merge(s.lt, m.lt)
    stored = s.pair(m.reg)
    best = stored if stored.ts >= m.tsv.ts else m.tsv
    tvps = s.tvps if best is stored else {**s.tvps, m.reg: best}
    nxt = s._replace(lt=lt, tvps=tvps)
    return StepOutput(nxt, (Ack(sender=s.pid, receiver=m.sender, lt=lt, rid=m.rid),))


def handle_reply(s: State, m: Union[Response, Ack]) -> StepOutput:
    """Initiator side of either phase: collect replies to the open phase
    until the threshold fires on exact equality.

    A closed query phase picks the largest returned pair. A read writes it
    back, or under no-writeback returns it at once; a querying write
    installs its own value under a timestamp strictly above everything the
    quorum returned. A closed update phase completes the operation: a read
    returns the value its query phase selected, a write returns OK.
    """
    if m.rid != s.rid:
        # Reply to a closed phase: drop it whole, clock merge included, so
        # the discarded message leaves no trace in the state.
        return StepOutput(s, ())
    lt = clock_merge(s.lt, m.lt)
    query = type(m) is Response
    responses = s.responses | {(m.tsv, m.sender) if query else m.sender}
    if len(responses) != s.v.threshold:
        return StepOutput(s._replace(lt=lt, responses=responses), ())
    rid = s.rid + 1
    if not query:
        nxt = s._replace(lt=lt, rid=rid, responses=frozenset(), phase=IDLE, opid=None)
        return StepOutput(nxt, (), Completion(s.opid, s.val if s.reading else OK))
    # Largest pair by timestamp; the responder id only makes the choice
    # deterministic, equal timestamps always carry equal values.
    tsv, _ = max(responses, key=lambda pr: (pr[0].ts, pr[1]))
    if not s.reading:
        tsv = TimestampValuePair(Timestamp(tsv.ts.lt + 1, s.pid), s.val)
    elif not s.v.writeback:
        # Mutant: return the value without propagating it to a majority.
        nxt = s._replace(
            lt=lt, rid=rid, responses=frozenset(), val=tsv.val, phase=IDLE, opid=None
        )
        return StepOutput(nxt, (), Completion(s.opid, tsv.val, tsv.ts))
    nxt = s._replace(lt=lt, rid=rid, responses=frozenset(), val=tsv.val, phase=UPDATING)
    return StepOutput(nxt, _broadcast(s, Update, lt=lt, rid=rid, reg=s.reg, tsv=tsv))


# --- dispatch ---------------------------------------------------------------

Stimulus = Union[Invoke, Message]

_HANDLERS = {
    Invoke: invoke,
    Query: handle_query,
    Response: handle_reply,
    Update: handle_update,
    Ack: handle_reply,
}


def step(s: State, stim: Stimulus) -> StepOutput:
    """One step: dispatch an invocation or a received message."""
    handler = _HANDLERS.get(type(stim))
    if handler is None:
        raise ProtocolError(f"unknown stimulus {stim!r}")
    return handler(s, stim)


# Per-protocol names for the one step function, so that a caller can tell
# (or time) the two protocols apart where it binds one.
sc_abd_step = step
mw_abd_step = step
