"""On-disk formats: history files, message-log sidecars, and run configs.

A history file is JSON lines, one event per line, lines in rt order. Every
record carries the same ten keys in the same order:

    {"kind":"inv","opid":3,"proc":2,"op":"write","reg":"r0","val":17,
     "ret":null,"rt":40,"lt":9,"ts":[9,2]}

kind is "inv" or "res"; op is "read" or "write"; val is the written value
(null for reads); ret is null on invocations and on pending operations'
records, the read value or "OK" on responses; ts is [lt, pid] when the
operation's timestamp is known, null otherwise. Serializing then parsing is
the identity on histories.

The message-log sidecar (same stem, suffix .msgs.jsonl) starts with one
header line carrying the run's protocol, n, and seed, followed by one record
per message in send order, with thirteen keys in a fixed order:

    {"kind":"update","sender":1,"receiver":1,"lt":1,"rid":1,"reg":"r0",
     "ts":[1,1],"val":136759,"send_rt":0,"recv_rt":8,"recv_lt":6,
     "handled":true,"dropped":false}

Both writers format each record line directly as its canonical spelling:
compact, keys in the order above, every string through the json encoder
(ASCII escapes). Equal traces therefore produce byte-equal files. A sidecar
line writes its kind's fixed fields as literals (an ack's null reg, ts and
val; a response's null reg). The copies of a query or an update that one
step broadcasts differ only in receiver and delivery, so the fields before
and after the receiver, send_rt included, are formatted once per outbox:
they are reused while consecutive records agree on kind, every message
field but the receiver, and send_rt. A writer streams its lines to the
file in chunks of _CHUNK lines, so no string or bytes object of the file's
size is built; serialize_* join the same lines.
The readers stream a file too, in one pass: each parser iterates the open
text file's numbered lines, which keep their "\n", or takes a whole text,
which it splits at "\n". A byte that is not UTF-8 is read as an escape, which
no record pattern takes, and refused with its line, in a pipe as in a file,
before any format error, wherever it is.

Each record format is declared once, as an ordered map from key to the
values the writer spells there, and both readers share one record-line loop.
A line ends at "\n" only, as in JSON Lines: a raw U+2028 in a string stays
in its line. A line of spaces, tabs and CRs (JSON whitespace) is blank. The
loop holds one compiled pattern per record variant (each event kind and op,
each message kind); a line that its variant's pattern matches is canonical,
a valid record in the writer's spelling: compact, keys in order, each
integer with no leading zero and at most 18 digits, each string printable
ASCII without a quote or a backslash, and every value of the type that the
variant puts there. Its values are converted by position, and only what one
line cannot show is checked: rt order, response-invocation pairing and
agreement, and one timestamp per operation. Any other line goes through
json and every check, so any valid JSON spelling of a record gives the same
records and the same errors. The sidecar header is always read through
json. Lines are numbered as in the file, counting "\n".

Run configs are flat "key = value" lines with # comments; unknown keys are
rejected, not ignored, so a typo cannot silently fall back to a default.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, Union

from .core import (
    Event,
    INVOCATION,
    MESSAGE_TYPES,
    OK,
    OperationDescriptor,
    READ,
    RESPONSE_EVENT,
    Timestamp,
    TimestampValuePair,
    WRITE,
)
from .simnet import (
    AdversarialSchedule,
    ConfigError,
    DelayRule,
    FixedLinkDelay,
    MessageRecord,
    OTHER,
    SELF,
    SimConfig,
    Trace,
    UniformDelay,
    Workload,
)


class ParseError(ValueError):
    """A history or message-log file that violates its format."""


# The writer's spelling of a value: a JSON integer with no leading zero and at
# most 18 digits (far inside the digit limit of int()), a non-empty string of
# printable ASCII without a quote or backslash, or a [lt, pid] pair.
_INT = r"(?:-?[1-9][0-9]{0,17}|-?0)"
_STR = r'"[ !#-\[\]-~]+"'
_TS = rf"\[{_INT},{_INT}\]"

# Each record format, declared once: its keys in the writer's order, each
# with the pattern of the values the writer spells there.
_EVENT_VALUES = {
    "kind": '"inv"|"res"', "opid": _INT, "proc": "[1-9][0-9]{0,17}", "op": '"read"|"write"',
    "reg": _STR, "val": f"null|{_INT}", "ret": f'null|"OK"|{_INT}', "rt": _INT, "lt": _INT,
    "ts": f"null|{_TS}",
}
_MSG_VALUES = {
    "kind": _STR, "sender": _INT, "receiver": _INT, "lt": _INT, "rid": _INT,
    "reg": f"null|{_STR}", "ts": f"null|{_TS}", "val": f"null|{_INT}", "send_rt": _INT,
    "recv_rt": f"null|{_INT}", "recv_lt": f"null|{_INT}",
    "handled": "true|false", "dropped": "true|false",
}


def _variants(values: dict, variants: list) -> dict:
    """A format's variant lookup: the first letter of a kind -> (fullmatch,
    build) of each variant of that kind. A variant is (build, key -> the
    spelling of its value), and spells its kind; each other key captures one
    value of its pattern in `values`."""
    lookup: dict = {}
    for build, spelled in variants:
        body = ",".join(f'"{k}":' + spelled.get(k, f"({p})") for k, p in values.items())
        line = "{" + body + "}\n?"  # a file's line keeps its "\n"
        first = spelled["kind"].strip('("')[0]
        lookup.setdefault(first, []).append((re.compile(line).fullmatch, build))
    return lookup


def _message_variant(cls: type) -> tuple:
    """A message kind's variant: each key that its type lacks is spelled null,
    and a tsv's ts and val are one group, so that the build gets the message's
    fields, then the record's."""
    k, tsv = len(cls._fields), "tsv" in cls._fields
    return (
        lambda values: MessageRecord(tuple.__new__(cls, islice(values, k)), *values),
        {"kind": f'"{cls.kind}"', "reg": f"({_STR})" if "reg" in cls._fields else "null",
         "ts": f"({_TS}" if tsv else "null", "val": f"{_INT})" if tsv else "null"},
    )


# One variant per event kind and op, and per message kind, so that a line that
# matches one is a valid record. An event variant captures all ten values.
_EVENT_VARIANTS = _variants(_EVENT_VALUES, [
    (tuple, {"kind": '("inv")', "op": '("read")', "val": "(null)", "ret": "(null)"}),
    (tuple, {"kind": '("inv")', "op": '("write")', "val": f"({_INT})", "ret": "(null)"}),
    (tuple, {"kind": '("res")', "op": '("read")', "val": "(null)", "ret": f"({_INT})"}),
    (tuple, {"kind": '("res")', "op": '("write")', "val": f"({_INT})", "ret": '("OK")'}),
])
_MESSAGE_VARIANTS = _variants(_MSG_VALUES, [_message_variant(c) for c in MESSAGE_TYPES.values()])


class _Values(dict):
    """Canonical value spelling -> value, each distinct spelling decoded once
    per reader call. Built on the literals null, true and false; any other
    spelling that reaches it is a string without escapes, an integer, or a ts
    pair (in a sidecar, with its val), whose Timestamp (TimestampValuePair)
    the reader's lines share."""

    def __missing__(self, spelling: str):
        head = spelling[0]
        if head == '"':
            value = spelling[1:-1]
        elif head == "[":
            ts, _, val = spelling.partition(',"val":')
            value = Timestamp(*map(int, ts[1:-1].split(",")))
            if val:
                value = TimestampValuePair(value, int(val))
        else:
            value = int(spelling)
        self[spelling] = value
        return value


# The compact JSON encoder: it spells the sidecar header, and every string in
# a record line, so escaping is always json's ensure_ascii escaping.
_encode = json.JSONEncoder(separators=(",", ":")).encode
_string = lru_cache(maxsize=256)(_encode)  # a run has few distinct strings


def _event_line(e: Event) -> str:
    op = e.op
    ret = op.ret if e.kind == RESPONSE_EVENT else None
    ts = op.ts
    return (
        f'{{"kind":{_string(e.kind)},"opid":{op.opid},"proc":{op.proc},'
        f'"op":{_string(op.kind)},"reg":{_string(op.reg)},'
        f'"val":{"null" if op.arg is None else op.arg},'
        f'"ret":{"null" if ret is None else _string(ret) if type(ret) is str else ret},'
        f'"rt":{e.rt},"lt":{e.lt},"ts":{"null" if ts is None else f"[{ts[0]},{ts[1]}]"}}}\n'
    )


def _event_lines(h: Sequence[Event]) -> Iterator[str]:
    for e in h:  # checked before any line is made, so a writer refuses before opening its file
        if e.lt is None:
            raise ValueError(f"event for op {e.op.opid} has no lt; cannot serialize")
    return map(_event_line, h)


_CHUNK = 256  # lines per write: about 50 kB of a sidecar; larger chunks wrote no faster


def _write_lines(path: Union[str, Path], lines: Iterator[str]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        while chunk := "".join(islice(lines, _CHUNK)):
            f.write(chunk)


def serialize_history(h: Sequence[Event]) -> str:
    return "".join(_event_lines(h))


def write_history(path: Union[str, Path], h: Sequence[Event]) -> None:
    _write_lines(path, _event_lines(h))


def _fail(lineno: int, msg: str) -> None:
    raise ParseError(f"line {lineno}: {msg}")


def _is_ts(v) -> bool:
    # exact int type: JSON true/false load as bool, a subclass of int
    return isinstance(v, list) and len(v) == 2 and type(v[0]) is int and type(v[1]) is int


_ESCAPED = re.compile("[\udc80-\udcff]").search  # a bad byte, as surrogateescape kept it: not ASCII


def _check_utf8(lineno: int, line: str) -> None:
    if not line.isascii() and _ESCAPED(line):
        raise UnicodeError(f"line {lineno}: not UTF-8")  # not a ParseError or ConfigError


def _load(lineno: int, line: str):
    _check_utf8(lineno, line)
    try:
        return json.loads(line.rstrip("\n"))  # a string cut at its "\n" is unterminated
    except json.JSONDecodeError as exc:
        _fail(lineno, f"not valid JSON ({exc.msg})")
    except RecursionError:  # the decoder recurses once per nesting level
        _fail(lineno, "not valid JSON (nested too deeply)")
    except ValueError:  # an integer longer than int() converts
        _fail(lineno, "not valid JSON (number too long)")


def _numbered(text: Union[str, Iterable[str]]) -> Iterator[tuple[int, str]]:
    """(line number, line) for each line of a text, split at "\n", or of a file."""
    if isinstance(text, enumerate):  # the file's lines, numbered by _read
        return text
    return enumerate(text.split("\n") if isinstance(text, str) else text, start=1)


def _records(lines: Iterator[tuple[int, str]], values: dict, variants: dict) -> Iterator:
    """(lineno, True, its variant's build of its groups' values) for each
    numbered line that one of `variants` matches, and (lineno, False, the
    values in key order) for each other non-blank one, decoded through json
    as an object with exactly the keys of `values`."""
    value = _Values(null=None, true=True, false=False).__getitem__
    fields = itemgetter(*values)
    for lineno, line in lines:
        # a canonical line starts {"kind":" (9 characters), then its kind
        for match, build in variants.get(line[9:10], ()):
            m = match(line)
            if m is not None:
                yield lineno, True, build(map(value, m.groups()))
                break
        else:
            if not line.strip(" \t\n\r"):
                continue
            rec = _load(lineno, line)
            if not isinstance(rec, dict):
                _fail(lineno, "record is not an object")
            if rec.keys() != values.keys():
                missing = sorted(values.keys() - rec.keys())
                extra = sorted(rec.keys() - values.keys())
                _fail(lineno, f"bad keys (missing {missing}, unexpected {extra})")
            yield lineno, False, fields(rec)


def parse_history(text: Union[str, Iterable[str]]) -> list[Event]:
    """Parse and validate a history file's content: its text, or its lines.

    Enforces the record schema, rt-ordered lines, invocation-before-response
    pairing, per-operation field agreement between the two records, read/
    write return typing, and timestamp well-formedness. Pending operations
    (invocation without response) are allowed.
    """
    descs: dict[int, OperationDescriptor] = {}
    events: list[Event] = []
    prev_rt: Optional[int] = None
    for lineno, valid, fields in _records(_numbered(text), _EVENT_VALUES, _EVENT_VARIANTS):
        kind, opid, proc, opkind, reg, val, ret, rt, lt, ts = fields
        if not valid:
            if kind not in (INVOCATION, RESPONSE_EVENT):
                _fail(lineno, f"kind must be 'inv' or 'res', got {kind!r}")
            if opkind not in (READ, WRITE):
                _fail(lineno, f"op must be 'read' or 'write', got {opkind!r}")
            if type(opid) is not int:
                _fail(lineno, "opid must be an integer")
            if type(proc) is not int or proc < 1:
                _fail(lineno, "proc must be a positive integer")
            if not isinstance(reg, str) or not reg:
                _fail(lineno, "reg must be a non-empty string")
            if type(rt) is not int or type(lt) is not int:
                _fail(lineno, "rt and lt must be integers")
        if prev_rt is not None and rt < prev_rt:
            _fail(lineno, f"lines out of rt order ({prev_rt} then {rt})")
        prev_rt = rt
        if not valid:
            if opkind == WRITE:
                if type(val) is not int:
                    _fail(lineno, "a write record needs an integer val")
            elif val is not None:
                _fail(lineno, "a read record must have val null")
            if ts is not None:
                if not _is_ts(ts):
                    _fail(lineno, "ts must be null or a [lt, pid] pair of integers")
                ts = Timestamp(*ts)
        if kind == INVOCATION:
            if not valid and ret is not None:
                _fail(lineno, "an invocation record must have ret null")
            if opid in descs:
                _fail(lineno, f"op {opid} invoked twice")
            d = descs[opid] = OperationDescriptor(opid, proc, opkind, reg, val, None, ts)
        else:
            d = descs.get(opid)
            if d is None:
                _fail(lineno, f"response for op {opid} before its invocation")
            if d.ret is not None:
                _fail(lineno, f"op {opid} responded to twice")
            if (d.proc, d.kind, d.reg, d.arg) != (proc, opkind, reg, val):
                _fail(lineno, f"response for op {opid} disagrees with its invocation")
            if opkind == READ:
                if not valid and type(ret) is not int:
                    _fail(lineno, "a completed read needs an integer ret")
            elif not valid and ret != OK:
                _fail(lineno, f"a completed write needs ret {OK!r}")
            if ts is not None:
                if d.ts is not None and d.ts != ts:
                    _fail(lineno, f"op {opid} carries two different timestamps")
                d.ts = ts
            d.ret = ret
        events.append(Event(kind, d, rt, lt, proc))
    return events


def _read(path: Union[str, Path], parse: Callable, error: type) -> Any:
    """parse(the open text file's numbered lines, with their "\n"), in one
    pass. Raises `error`, naming the file, when it is unreadable, not UTF-8
    (with the line) or refused; a byte that is not UTF-8 is refused first."""
    try:
        with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as f:
            lines = enumerate(f, 1)
            try:
                return parse(lines)
            except error:
                for lineno, line in lines:  # a later byte that is not UTF-8 comes first
                    _check_utf8(lineno, line)
                raise
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror})") from None
    except (UnicodeError, error) as exc:
        raise error(f"{path}: {exc}") from None


def read_history(path: Union[str, Path]) -> list[Event]:
    return _read(path, parse_history, ParseError)


# --- message-log sidecar ------------------------------------------------------


def sidecar_path(history_path: Union[str, Path]) -> Path:
    p = Path(history_path)
    return p.with_name(p.stem + ".msgs.jsonl")


def _ts_val(p: Optional[TimestampValuePair]) -> str:
    return '"ts":null,"val":null' if p is None else f'"ts":[{p.ts.lt},{p.ts.pid}],"val":{p.val}'


def _message_lines(trace: Trace) -> Iterator[str]:
    c, key = trace.config, None
    yield _encode({"protocol": c.protocol, "n": c.n, "seed": c.seed}) + "\n"
    for rec in trace.message_log:
        m, recv_rt, recv_lt = rec.msg, rec.recv_rt, rec.recv_lt
        tail = (f'"recv_rt":{"null" if recv_rt is None else recv_rt},'
                f'"recv_lt":{"null" if recv_lt is None else recv_lt},'
                f'"handled":{"true" if rec.handled else "false"},'
                f'"dropped":{"true" if rec.dropped else "false"}}}\n')  # the delivery fields
        if (kind := m.kind) == "ack":
            yield (f'{{"kind":"ack","sender":{m.sender},"receiver":{m.receiver},"lt":{m.lt},'
                   f'"rid":{m.rid},"reg":null,"ts":null,"val":null,"send_rt":{rec.send_rt},{tail}')
        elif kind == "response":
            yield (f'{{"kind":"response","sender":{m.sender},"receiver":{m.receiver},"lt":{m.lt},'
                   f'"rid":{m.rid},"reg":null,{_ts_val(m.tsv)},"send_rt":{rec.send_rt},{tail}')
        else:  # a query or an update: one copy of a broadcast
            shared = (kind, m.sender, m[2:], rec.send_rt)  # all but the receiver
            if shared != key:
                key, reg = shared, "null" if m.reg is None else _string(m.reg)
                head = f'{{"kind":{_string(kind)},"sender":{m.sender},"receiver":'
                body = (f',"lt":{m.lt},"rid":{m.rid},"reg":{reg},'
                        f'{_ts_val(getattr(m, "tsv", None))},"send_rt":{rec.send_rt},')
            yield f"{head}{m.receiver}{body}{tail}"


def serialize_message_log(trace: Trace) -> str:
    return "".join(_message_lines(trace))


def write_message_log(path: Union[str, Path], trace: Trace) -> None:
    _write_lines(path, _message_lines(trace))


_MSG_INT_KEYS = tuple(k for k, v in _MSG_VALUES.items() if v == _INT)
# kind -> (message type, whether it carries a reg, whether it carries ts and val)
_MSG_SHAPES = {k: (t, "reg" in t._fields, "tsv" in t._fields) for k, t in MESSAGE_TYPES.items()}


def parse_message_log(text: Union[str, Iterable[str]]) -> tuple[dict, list[MessageRecord]]:
    """Parse a sidecar, its text or its lines, back into (header, message
    records). Blank lines are skipped but counted, so an error names the
    line's number in the file."""
    lines = _numbered(text)
    first = next(((i, ln) for i, ln in lines if ln.strip(" \t\n\r")), None)
    if first is None:
        raise ParseError("empty message log (missing header line)")
    header = _load(*first)
    if (
        not isinstance(header, dict)
        or not header.keys() >= {"protocol", "n", "seed"}
        or not isinstance(header["protocol"], str)
        or not (type(header["n"]) is int and type(header["seed"]) is int)
    ):
        raise ParseError("header line must carry a protocol string, and integers n and seed")
    records: list[MessageRecord] = []
    for lineno, valid, rec in _records(lines, _MSG_VALUES, _MESSAGE_VARIANTS):
        if valid:
            records.append(rec)
            continue
        (kind, sender, receiver, lt, rid, reg, ts, val,
         send_rt, recv_rt, recv_lt, handled, dropped) = rec
        if not (type(sender) is type(receiver) is type(lt) is type(rid) is type(send_rt) is int):
            ints = zip(_MSG_INT_KEYS, (sender, receiver, lt, rid, send_rt))
            _fail(lineno, f"{next(k for k, v in ints if type(v) is not int)} must be an integer")
        if recv_rt is not None and type(recv_rt) is not int:
            _fail(lineno, "recv_rt must be null or an integer")
        if recv_lt is not None and type(recv_lt) is not int:
            _fail(lineno, "recv_lt must be null or an integer")
        if type(handled) is not bool:
            _fail(lineno, "handled must be true or false")
        if type(dropped) is not bool:
            _fail(lineno, "dropped must be true or false")
        if reg is not None and (not isinstance(reg, str) or not reg):
            _fail(lineno, "reg must be null or a non-empty string")
        if not (ts is None and val is None or _is_ts(ts) and type(val) is int):
            _fail(lineno, "ts and val must both be null, or a [lt, pid] pair and an integer")
        tsv = TimestampValuePair(Timestamp(*ts), val) if ts is not None else None
        try:
            cls, has_reg, has_tsv = _MSG_SHAPES[kind]
        except (KeyError, TypeError):  # TypeError: a kind that is a list or an object
            _fail(lineno, f"unknown message kind {kind!r}")
        if (reg is not None) != has_reg:
            _fail(lineno, f"{kind} record {'needs a reg' if has_reg else 'must have reg null'}")
        if (tsv is not None) != has_tsv:
            need = "needs ts and val" if has_tsv else "must have ts and val null"
            _fail(lineno, f"{kind} record {need}")
        args = (sender, receiver, lt, rid, reg) if has_reg else (sender, receiver, lt, rid)
        msg = cls(*args, tsv) if has_tsv else cls(*args)
        records.append(MessageRecord(msg, send_rt, recv_rt, recv_lt, handled, dropped))
    return header, records


def read_message_log(path: Union[str, Path]) -> tuple[dict, list[MessageRecord]]:
    return _read(path, parse_message_log, ParseError)


# --- run configs ----------------------------------------------------------------


def _parse_crashes(raw: str) -> tuple:
    # "2@40,3@100" -> ((2, 40), (3, 100))
    out = []
    for part in filter(None, (p.strip() for p in raw.split(","))):
        pid, sep, tick = part.partition("@")
        if not sep:
            raise ConfigError(f"crash entry {part!r} must look like pid@tick")
        out.append((int(pid), int(tick)))
    return tuple(out)


def _parse_links(raw: str) -> dict:
    # "1>2:5,2>1:7" -> {(1, 2): 5, (2, 1): 7}
    out = {}
    for part in filter(None, (p.strip() for p in raw.split(","))):
        link, sep, d = part.rpartition(":")
        snd, sep2, rcv = link.partition(">")
        if not sep or not sep2:
            raise ConfigError(f"link entry {part!r} must look like sender>receiver:delay")
        key = (int(snd), int(rcv))
        if key in out:
            raise ConfigError(f"link {key[0]}>{key[1]} is listed twice")
        out[key] = int(d)
    return out


def _parse_rule(raw: str) -> DelayRule:
    # kind[@rid]:sender>receiver:delay[-delay]; "*" matches anything, receiver
    # may be "self" or "other".
    parts = raw.split(":")
    if len(parts) != 3:
        raise ConfigError(f"rule {raw!r} must look like kind:sender>receiver:delay")
    kindspec, linkspec, delayspec = (p.strip() for p in parts)
    kind_raw, _, rid_raw = kindspec.partition("@")
    kind = None if kind_raw == "*" else kind_raw
    rid = int(rid_raw) if rid_raw else None
    snd_raw, sep, rcv_raw = linkspec.partition(">")
    if not sep:
        raise ConfigError(f"rule {raw!r}: link must look like sender>receiver")
    sender = None if snd_raw == "*" else int(snd_raw)
    if rcv_raw == "*":
        receiver = None
    elif rcv_raw in (SELF, OTHER):
        receiver = rcv_raw
    else:
        receiver = int(rcv_raw)
    lo_raw, sep, hi_raw = delayspec.partition("-")
    hi = int(hi_raw) if sep else None
    return DelayRule(kind=kind, sender=sender, receiver=receiver, rid=rid, lo=int(lo_raw), hi=hi)


def parse_schedule(raw: str) -> tuple:
    return tuple(_parse_rule(part) for part in filter(None, (p.strip() for p in raw.split(";"))))


_DELAY_MODELS = {
    "uniform": UniformDelay, "fixed": FixedLinkDelay, "adversarial": AdversarialSchedule
}

# key -> (part, field, converter). The part is SimConfig, its Workload, or the
# delay model that the "delay" key picks. Defaults and validity rules live on
# those dataclasses only; a converter just reads the text, raising ValueError
# or KeyError when it cannot.
_CONFIG_KEYS = {
    "n": (SimConfig, "n", int),
    "seed": (SimConfig, "seed", int),
    "protocol": (SimConfig, "protocol", str),
    "mutant": (SimConfig, "mutant", str),
    "max_ticks": (SimConfig, "max_ticks", int),
    "mid_op_crash": (SimConfig, "mid_op_crash", {"true": True, "false": False}.__getitem__),
    "crashes": (SimConfig, "crashes", _parse_crashes),
    "delay": (SimConfig, "delay", _DELAY_MODELS.__getitem__),
    "ops_per_process": (Workload, "ops_per_process", int),
    "read_fraction": (Workload, "read_fraction", float),
    "register_count": (Workload, "register_count", int),
    "think_time": (Workload, "think_time", int),
    "delay_min": (UniformDelay, "lo", int),
    "delay_max": (UniformDelay, "hi", int),
    "delay_fixed": (FixedLinkDelay, "default", int),
    "delay_links": (FixedLinkDelay, "links", _parse_links),
    "schedule": (AdversarialSchedule, "rules", parse_schedule),
}


def parse_config(text: Union[str, Iterable[str]]) -> SimConfig:
    """Parse a flat key = value run config, its text or its lines, into a
    validated SimConfig. Only
    the keys the text gives are converted; every other field keeps its
    dataclass default."""
    given: dict[str, tuple[int, str]] = {}
    for lineno, line in _numbered(text):
        _check_utf8(lineno, line)
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, raw = stripped.partition("=")
        key = key.strip()
        if not sep:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in given:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        given[key] = (lineno, raw.strip())
    fields: dict[type, dict] = {SimConfig: {}, Workload: {}}
    for key, (lineno, raw) in given.items():
        part, name, convert = _CONFIG_KEYS[key]
        try:
            fields.setdefault(part, {})[name] = convert(raw)
        except (KeyError, ValueError):
            raise ConfigError(f"line {lineno}: invalid {key} value {raw!r}") from None
    top = fields.pop(SimConfig)
    model = top.get("delay", type(SimConfig().delay))
    for key, (lineno, _) in given.items():
        part = _CONFIG_KEYS[key][0]
        if part not in (SimConfig, Workload, model):
            name = next(k for k, m in _DELAY_MODELS.items() if m is part)
            raise ConfigError(f"line {lineno}: key {key!r} needs delay = {name}")
    top["delay"] = model(**fields.get(model, {}))
    return SimConfig(workload=Workload(**fields[Workload]), **top).validate()


def read_config(path: Union[str, Path]) -> SimConfig:
    return _read(path, parse_config, ConfigError)
