"""Per-process state machine for the replicated-register protocols.

Each step consumes one stimulus (an operation invocation or a received
message) and returns the successor state, the messages to send, and for the
process's one open operation its result, on the step that completes it, and
its timestamp, on the step that fixes it. Operations carry no ids: a recorder
that numbers them keeps each process's open one. Steps are pure functions of
(state, stimulus): the input state is never mutated and identical inputs give
identical outputs, which is what makes simulation runs replayable. States,
outputs and messages are value NamedTuples that ``tuple.__new__`` builds from
all their fields, minus the class call's arity check, which the tests make.

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

``QUERY_WRITES`` is the one place where the two protocols differ: it says
whether a write fixes its timestamp at invocation (sc_abd) or, as every read
does, when its query round closes (mw_abd).
``initial_state`` resolves a run's protocol and mutant once, into the frozen
``Variant`` that every state carries.

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

_new = tuple.__new__  # a value tuple from all of its fields: see the module docstring
SC_ABD = "sc_abd"
MW_ABD = "mw_abd"
# Whether a write queries a majority before its update round.
QUERY_WRITES = {SC_ABD: False, MW_ABD: True}
PROTOCOLS = tuple(QUERY_WRITES)

MUTANT_NONE = "none"
MUTANT_SMALL_QUORUM = "small-quorum"
MUTANT_NO_WRITEBACK = "no-writeback"
MUTANTS = (MUTANT_NONE, MUTANT_SMALL_QUORUM, MUTANT_NO_WRITEBACK)


class ProtocolError(Exception):
    """A stimulus that the current state must never receive."""


class Invoke(NamedTuple):
    """An operation as a client draws it, and the stimulus that starts it:
    ``read(reg)`` or ``write(reg, val)``."""

    kind: str  # READ | WRITE
    reg: RegisterId
    val: Optional[Value] = None  # writes only


@dataclass(frozen=True, slots=True)
class Variant:
    """How one run's processes behave, resolved once by ``initial_state``."""

    query_writes: bool  # mw_abd: a write queries for the highest timestamp first
    n: int  # processes, each one a replica
    threshold: int  # replies that close a phase: a majority unless small-quorum
    writeback: bool  # reads install their selected pair; False for no-writeback


class State(NamedTuple):
    """One process: replica store plus initiator bookkeeping.

    ``tvps`` maps registers to their stored timestamp-value pair; registers
    never written hold the initial pair ((0, 0), 0), kept implicit via
    ``pair``. ``responses`` collects (pair, responder) during a query phase
    and responder ids during update phases. An idle process holds nothing of
    its last operation: its state is ``State(pid, v, lt, rid, tvps)``.
    Invoking while ``reg`` names an open operation is a client error.
    """

    pid: ProcessId
    v: Variant
    lt: int = 0
    rid: int = 0
    tvps: dict = {}  # shared default, never mutated: updates build a new dict
    responses: frozenset = frozenset()
    reading: bool = False
    reg: Optional[RegisterId] = None  # the open operation's register; None when idle
    val: Optional[Value] = 0  # value to write (kept across a query round) or value read

    def pair(self, reg: RegisterId) -> TimestampValuePair:
        return self.tvps.get(reg, INITIAL_PAIR)


class StepOutput(NamedTuple):
    state: State
    outbox: tuple = ()  # tuple[Message, ...] in receiver order
    ret: Union[Value, str, None] = None  # the completing step's result: read value, or OK
    ts: Optional[Timestamp] = None  # the open operation's timestamp, on the step that fixes it


def initial_state(
    pid: ProcessId, n: int, protocol: str = SC_ABD, mutant: str = MUTANT_NONE
) -> State:
    """A fresh process of the given protocol, weakened by `mutant`.

    Mutants exist for checker calibration: ``small-quorum`` closes phases at
    floor(n/2) replies (no intersection guarantee, clamped to 1 so n=1 still
    runs), ``no-writeback`` lets reads return without their update round.
    """
    if protocol not in QUERY_WRITES:
        raise ValueError(f"unknown protocol {protocol!r}")
    if mutant not in MUTANTS:
        raise ValueError(f"unknown mutant {mutant!r}")
    v = Variant(
        query_writes=QUERY_WRITES[protocol],
        n=n,
        threshold=max(1, n // 2) if mutant == MUTANT_SMALL_QUORUM else quorum_size(n),
        writeback=mutant != MUTANT_NO_WRITEBACK,
    )
    return State(pid=pid, v=v)


def _broadcast(s: State, kind: type, *fields) -> tuple:
    """One message of the given kind to every process, self included; the
    fields after sender and receiver are given in order."""
    pid = s.pid
    return tuple([_new(kind, (pid, j, *fields)) for j in range(1, s.v.n + 1)])


def invoke(s: State, stim: Invoke) -> StepOutput:
    """Start an operation in a fresh phase. Reads, and writes under
    ``query_writes``, ask everyone for their stored pair. Other writes stamp
    the value with (new clock, own pid) and broadcast the update at once: no
    query round, the logical clock already dominates every pair observed."""
    if stim.kind not in (READ, WRITE):
        raise ProtocolError(f"unknown operation kind {stim.kind!r}")
    if stim.reg is None:
        raise ProtocolError(f"process {s.pid} invoked a {stim.kind} without a register")
    if stim.kind == WRITE and stim.val is None:
        raise ProtocolError(f"process {s.pid} invoked a write of {stim.reg!r} without a value")
    if s.reg is not None:
        raise ProtocolError(f"process {s.pid} invoked a {stim.kind} while an operation is open")
    lt = clock_local_step(s.lt)
    rid = s.rid + 1
    reading = stim.kind == READ
    nxt = _new(State, (s.pid, s.v, lt, rid, s.tvps, frozenset(), reading, stim.reg, stim.val))
    if reading or s.v.query_writes:
        return _new(StepOutput, (nxt, _broadcast(s, Query, lt, rid, stim.reg), None, None))
    tsv = _new(TimestampValuePair, (_new(Timestamp, (lt, s.pid)), stim.val))
    return _new(StepOutput, (nxt, _broadcast(s, Update, lt, rid, stim.reg, tsv), None, tsv.ts))


def handle_query(s: State, m: Query) -> StepOutput:
    """Replica side: answer with the stored pair for the queried register."""
    pid, v, lt, rid, tvps, responses, reading, reg, val = s
    lt = clock_merge(lt, m.lt)
    nxt = _new(State, (pid, v, lt, rid, tvps, responses, reading, reg, val))
    reply = _new(Response, (pid, m.sender, lt, m.rid, s.pair(m.reg)))
    return _new(StepOutput, (nxt, (reply,), None, None))


def handle_update(s: State, m: Update) -> StepOutput:
    """Replica side: install the incoming pair if its timestamp is larger
    than the stored one, then acknowledge. Installation is monotone, so
    replayed or reordered updates are harmless."""
    pid, v, lt, rid, tvps, responses, reading, reg, val = s
    lt = clock_merge(lt, m.lt)
    if s.pair(m.reg).ts < m.tsv.ts:
        tvps = {**tvps, m.reg: m.tsv}
    nxt = _new(State, (pid, v, lt, rid, tvps, responses, reading, reg, val))
    return _new(StepOutput, (nxt, (_new(Ack, (pid, m.sender, lt, m.rid)),), None, None))


def handle_reply(s: State, m: Union[Response, Ack]) -> StepOutput:
    """Initiator side of either phase: collect replies to the open phase
    until the threshold fires on exact equality.

    A closed query phase picks the largest returned pair, and so fixes the
    operation's timestamp. A read writes the pair back, or under
    no-writeback returns it at once; a querying write installs its own value
    under a timestamp strictly above everything the quorum returned. A
    closed update phase completes the operation: a read returns the value
    its query phase selected, a write returns OK, and the state is idle.
    """
    pid, v, lt, rid, tvps, responses, reading, reg, val = s
    if m.rid != rid:
        # Reply to a closed phase: drop it whole, clock merge included, so
        # the discarded message leaves no trace in the state.
        return _new(StepOutput, (s, (), None, None))
    lt = clock_merge(lt, m.lt)
    query = type(m) is Response
    responses = responses | {(m.tsv, m.sender) if query else m.sender}
    if len(responses) != v.threshold:
        nxt = _new(State, (pid, v, lt, rid, tvps, responses, reading, reg, val))
        return _new(StepOutput, (nxt, (), None, None))
    rid += 1
    if not query:
        ret, ts = val if reading else OK, None
    else:
        # Largest pair by timestamp; the responder id only makes the choice
        # deterministic, equal timestamps always carry equal values.
        tsv, _ = max(responses, key=lambda pr: (pr[0].ts, pr[1]))
        if not reading:
            tsv = _new(TimestampValuePair, (_new(Timestamp, (tsv.ts.lt + 1, pid)), val))
        if not reading or v.writeback:
            nxt = _new(State, (pid, v, lt, rid, tvps, frozenset(), reading, reg, tsv.val))
            return _new(StepOutput, (nxt, _broadcast(s, Update, lt, rid, reg, tsv), None, tsv.ts))
        # Mutant: the read returns the value without propagating it to a majority.
        ret, ts = tsv.val, tsv.ts
    idle = _new(State, (pid, v, lt, rid, tvps, frozenset(), False, None, 0))
    return _new(StepOutput, (idle, (), ret, ts))


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
