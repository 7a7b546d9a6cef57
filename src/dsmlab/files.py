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
(ASCII escapes). Equal traces therefore produce byte-equal files.

The readers decode a canonical line directly, through one compiled pattern
per format, and json-decode every other line. A line is canonical when it is
compact with its keys in the order above, each integer has no leading zero
and at most 18 digits, each string is printable ASCII without a quote or a
backslash, and each other value is null, true, false or a [lt, pid] pair;
each key's value must also have a JSON type that the writer can emit there.
Any other valid JSON spelling of a record (key order, whitespace, escapes,
longer integers, blank lines) gives the same records and the same errors,
since both paths feed the same checks. The sidecar header is always read
through json. Lines are numbered as they are in the file.

Run configs are flat "key = value" lines with # comments; unknown keys are
rejected, not ignored, so a typo cannot silently fall back to a default.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from operator import itemgetter
from pathlib import Path
from typing import Optional, Sequence, Union

from .core import (
    Ack,
    Event,
    INVOCATION,
    Message,
    OK,
    OperationDescriptor,
    Query,
    READ,
    RESPONSE_EVENT,
    Response,
    Timestamp,
    TimestampValuePair,
    Update,
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


RECORD_KEYS = ("kind", "opid", "proc", "op", "reg", "val", "ret", "rt", "lt", "ts")
_RECORD_KEYSET = frozenset(RECORD_KEYS)
_record_fields = itemgetter(*RECORD_KEYS)

# One value pattern for each key of the writers' canonical spelling: JSON
# integers with no leading zero and at most 18 digits (far inside the digit
# limit of int()), strings of printable ASCII without a quote or backslash,
# and the literals null, true and false.
_INT = r"-?(?:0|[1-9][0-9]{0,17})"
_STR = r'"[ !#-\[\]-~]*"'
_TS = rf"null|\[{_INT},{_INT}\]"


def _canonical(keys: tuple, values: dict):
    """fullmatch of a whole record line in its writer's spelling: compact,
    keys in the order of `keys`, one group per value."""
    return re.compile("{" + ",".join(f'"{k}":({values[k]})' for k in keys) + "}").fullmatch


_LITERALS = {"null": None, "true": True, "false": False}


class _Values(dict):
    """Canonical value spelling -> value, each distinct spelling decoded once
    per reader call. Built on _LITERALS; any other spelling that reaches it
    is a string without escapes, an integer, or a [lt, pid] pair, whose one
    list the reader's lines share and only unpack."""

    def __missing__(self, spelling: str):
        head = spelling[0]
        if head == '"':
            value = self[spelling] = spelling[1:-1]
        else:
            value = self[spelling] = json.loads(spelling) if head == "[" else int(spelling)
        return value


_match_event_line = _canonical(RECORD_KEYS, {
    "kind": _STR, "opid": _INT, "proc": _INT, "op": _STR, "reg": _STR,
    "val": f"null|{_INT}", "ret": f"null|{_STR}|{_INT}", "rt": _INT, "lt": _INT, "ts": _TS,
})

# The compact JSON encoder: it spells the sidecar header, and every string in
# a record line, so escaping is always json's ensure_ascii escaping.
_encode = json.JSONEncoder(separators=(",", ":")).encode
_string = lru_cache(maxsize=256)(_encode)  # a run has few distinct strings


def _event_line(e: Event) -> str:
    if e.lt is None:
        raise ValueError(f"event for op {e.op.opid} has no lt; cannot serialize")
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


def serialize_history(h: Sequence[Event]) -> str:
    return "".join(map(_event_line, h))


def write_history(path: Union[str, Path], h: Sequence[Event]) -> None:
    Path(path).write_text(serialize_history(h), encoding="utf-8")


def _fail(lineno: int, msg: str) -> None:
    raise ParseError(f"line {lineno}: {msg}")


def _is_ts(v) -> bool:
    # exact int type: JSON true/false load as bool, a subclass of int
    return isinstance(v, list) and len(v) == 2 and type(v[0]) is int and type(v[1]) is int


def _load(lineno: int, line: str):
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        _fail(lineno, f"not valid JSON ({exc.msg})")
    except RecursionError:  # the decoder recurses once per nesting level
        _fail(lineno, "not valid JSON (nested too deeply)")
    except ValueError:  # an integer longer than int() converts
        _fail(lineno, "not valid JSON (number too long)")


def parse_history(text: str) -> list[Event]:
    """Parse and validate a history file's content.

    Enforces the record schema, rt-ordered lines, invocation-before-response
    pairing, per-operation field agreement between the two records, read/
    write return typing, and timestamp well-formedness. Pending operations
    (invocation without response) are allowed.
    """
    descs: dict[int, OperationDescriptor] = {}
    responded: set[int] = set()
    events: list[Event] = []
    prev_rt: Optional[int] = None
    value = _Values(_LITERALS).__getitem__
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = _match_event_line(line)
        if m is not None:
            fields = map(value, m.groups())
        else:
            if not line.strip():
                continue
            rec = _load(lineno, line)
            if not isinstance(rec, dict):
                _fail(lineno, "record is not an object")
            if rec.keys() != _RECORD_KEYSET:
                missing = sorted(_RECORD_KEYSET - rec.keys())
                extra = sorted(rec.keys() - _RECORD_KEYSET)
                _fail(lineno, f"bad keys (missing {missing}, unexpected {extra})")
            fields = _record_fields(rec)
        kind, opid, proc, opkind, reg, val, ret, rt, lt, ts = fields
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
            if ret is not None:
                _fail(lineno, "an invocation record must have ret null")
            if opid in descs:
                _fail(lineno, f"op {opid} invoked twice")
            d = descs[opid] = OperationDescriptor(opid, proc, opkind, reg, val, None, ts)
        else:
            d = descs.get(opid)
            if d is None:
                _fail(lineno, f"response for op {opid} before its invocation")
            if opid in responded:
                _fail(lineno, f"op {opid} responded to twice")
            if (d.proc, d.kind, d.reg, d.arg) != (proc, opkind, reg, val):
                _fail(lineno, f"response for op {opid} disagrees with its invocation")
            if opkind == READ:
                if type(ret) is not int:
                    _fail(lineno, "a completed read needs an integer ret")
            elif ret != OK:
                _fail(lineno, f"a completed write needs ret {OK!r}")
            if ts is not None:
                if d.ts is not None and d.ts != ts:
                    _fail(lineno, f"op {opid} carries two different timestamps")
                d.ts = ts
            responded.add(opid)
            d.ret = ret
        events.append(Event(kind, d, rt, lt, proc))
    return events


def read_history(path: Union[str, Path]) -> list[Event]:
    return parse_history(Path(path).read_text(encoding="utf-8"))


# --- message-log sidecar ------------------------------------------------------


def sidecar_path(history_path: Union[str, Path]) -> Path:
    p = Path(history_path)
    return p.with_name(p.stem + ".msgs.jsonl")


def _message_line(rec: MessageRecord) -> str:
    m = rec.msg
    reg = getattr(m, "reg", None)
    tsv = getattr(m, "tsv", None)
    if tsv is None:
        payload = '"ts":null,"val":null'
    else:
        payload = f'"ts":[{tsv.ts.lt},{tsv.ts.pid}],"val":{tsv.val}'
    recv_rt, recv_lt = rec.recv_rt, rec.recv_lt
    return (
        f'{{"kind":{_string(m.kind)},"sender":{m.sender},"receiver":{m.receiver},'
        f'"lt":{m.lt},"rid":{m.rid},"reg":{"null" if reg is None else _string(reg)},'
        f'{payload},"send_rt":{rec.send_rt},'
        f'"recv_rt":{"null" if recv_rt is None else recv_rt},'
        f'"recv_lt":{"null" if recv_lt is None else recv_lt},'
        f'"handled":{"true" if rec.handled else "false"},'
        f'"dropped":{"true" if rec.dropped else "false"}}}\n'
    )


def serialize_message_log(trace: Trace) -> str:
    c = trace.config
    header = _encode({"protocol": c.protocol, "n": c.n, "seed": c.seed})
    return header + "\n" + "".join(map(_message_line, trace.message_log))


def write_message_log(path: Union[str, Path], trace: Trace) -> None:
    Path(path).write_text(serialize_message_log(trace), encoding="utf-8")


_MSG_KEYS = (
    "kind", "sender", "receiver", "lt", "rid", "reg", "ts", "val",
    "send_rt", "recv_rt", "recv_lt", "handled", "dropped",
)
_MSG_KEYSET = frozenset(_MSG_KEYS)
_msg_fields = itemgetter(*_MSG_KEYS)
_MSG_INT_KEYS = ("sender", "receiver", "lt", "rid", "send_rt")
_match_message_line = _canonical(_MSG_KEYS, {
    "kind": _STR, "sender": _INT, "receiver": _INT, "lt": _INT, "rid": _INT,
    "reg": f"null|{_STR}", "ts": _TS, "val": f"null|{_INT}", "send_rt": _INT,
    "recv_rt": f"null|{_INT}", "recv_lt": f"null|{_INT}",
    "handled": "true|false", "dropped": "true|false",
})


def parse_message_log(text: str) -> tuple[dict, list[MessageRecord]]:
    """Parse a sidecar back into (header, message records). Blank lines are
    skipped but counted, so an error names the line's number in the file."""
    lines = enumerate(text.splitlines(), start=1)
    first = next(((i, ln) for i, ln in lines if ln.strip()), None)
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
    value = _Values(_LITERALS).__getitem__
    for lineno, line in lines:
        m = _match_message_line(line)
        if m is not None:
            fields = map(value, m.groups())
        else:
            if not line.strip():
                continue
            rec = _load(lineno, line)
            if not isinstance(rec, dict) or rec.keys() != _MSG_KEYSET:
                _fail(lineno, "bad message record keys")
            fields = _msg_fields(rec)
        (kind, sender, receiver, lt, rid, reg, ts, val,
         send_rt, recv_rt, recv_lt, handled, dropped) = fields
        if not (type(sender) is type(receiver) is type(lt) is type(rid) is type(send_rt) is int):
            ints = zip(_MSG_INT_KEYS, (sender, receiver, lt, rid, send_rt))
            key = next(k for k, v in ints if type(v) is not int)
            _fail(lineno, f"{key} must be an integer")
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
        msg: Message
        if kind in ("query", "update") and reg is None:
            _fail(lineno, f"{kind} record needs a reg")
        if kind == "query":
            msg = Query(sender, receiver, lt, rid, reg)
        elif kind == "response":
            if tsv is None:
                _fail(lineno, "response record needs ts and val")
            msg = Response(sender, receiver, lt, rid, tsv)
        elif kind == "update":
            if tsv is None:
                _fail(lineno, "update record needs ts and val")
            msg = Update(sender, receiver, lt, rid, reg, tsv)
        elif kind == "ack":
            msg = Ack(sender, receiver, lt, rid)
        else:
            _fail(lineno, f"unknown message kind {kind!r}")
        records.append(MessageRecord(msg, send_rt, recv_rt, recv_lt, handled, dropped))
    return header, records


def read_message_log(path: Union[str, Path]) -> tuple[dict, list[MessageRecord]]:
    return parse_message_log(Path(path).read_text(encoding="utf-8"))


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
    if kind not in (None, "query", "response", "update", "ack"):
        raise ConfigError(f"rule {raw!r}: unknown message kind {kind_raw!r}")
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


def parse_config(text: str) -> SimConfig:
    """Parse a flat key = value run config into a validated SimConfig. Only
    the keys the text gives are converted; every other field keeps its
    dataclass default."""
    given: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
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
    return parse_config(Path(path).read_text(encoding="utf-8"))
