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

Each record format is declared once, as an ordered map from key to the
values the writer spells there, and both readers share one record-line loop.
A line ends at "\n" only, as in JSON Lines: a raw U+2028 in a string stays
in its line, and a CR is JSON whitespace. The loop decodes a canonical line
through its format's compiled pattern, and any other line through json. A
line is canonical when it is compact with its keys in the order above, each
integer has no leading zero and at most 18 digits, each string is printable
ASCII without a quote or a backslash, and each other value is null, true,
false or a [lt, pid] pair, of a JSON type that the writer can emit there.
Any other valid JSON spelling of a record (key order, whitespace, escapes,
longer integers, blank lines) gives the same records and the same errors,
since both paths feed the same checks. The sidecar header is always read
through json. Lines are numbered as in the file, counting "\n".

Run configs are flat "key = value" lines with # comments; unknown keys are
rejected, not ignored, so a typo cannot silently fall back to a default.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence, Union

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


# One value pattern for each key of the writers' canonical spelling: JSON
# integers with no leading zero and at most 18 digits (far inside the digit
# limit of int()), strings of printable ASCII without a quote or backslash,
# and the literals null, true and false.
_INT = r"-?(?:0|[1-9][0-9]{0,17})"
_STR = r'"[ !#-\[\]-~]*"'
_TS = rf"null|\[{_INT},{_INT}\]"

# Each record format, declared once: its keys in the writer's order, each
# with the pattern of the values the writer spells there.
_EVENT_VALUES = {
    "kind": _STR, "opid": _INT, "proc": _INT, "op": _STR, "reg": _STR,
    "val": f"null|{_INT}", "ret": f"null|{_STR}|{_INT}", "rt": _INT, "lt": _INT, "ts": _TS,
}
_MSG_VALUES = {
    "kind": _STR, "sender": _INT, "receiver": _INT, "lt": _INT, "rid": _INT,
    "reg": f"null|{_STR}", "ts": _TS, "val": f"null|{_INT}", "send_rt": _INT,
    "recv_rt": f"null|{_INT}", "recv_lt": f"null|{_INT}",
    "handled": "true|false", "dropped": "true|false",
}

# fullmatch of a whole record line in its writer's spelling: compact, keys in
# the format's order, one group per value
_match_event_line, _match_message_line = (
    re.compile("{" + ",".join(f'"{k}":({v})' for k, v in values.items()) + "}").fullmatch
    for values in (_EVENT_VALUES, _MSG_VALUES)
)


class _Values(dict):
    """Canonical value spelling -> value, each distinct spelling decoded once
    per reader call. Built on the literals null, true and false; any other
    spelling that reaches it is a string without escapes, an integer, or a
    [lt, pid] pair, whose one list the reader's lines share and only unpack."""

    def __missing__(self, spelling: str):
        head = spelling[0]
        if head == '"':
            value = self[spelling] = spelling[1:-1]
        else:
            value = self[spelling] = json.loads(spelling) if head == "[" else int(spelling)
        return value


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


def _records(lines: Iterator[tuple[int, str]], values: dict, match: Callable) -> Iterator:
    """(lineno, the values in key order) for each non-blank numbered line of
    one format: decoded from `match`'s groups if canonical, else through json
    as an object with exactly the keys of `values`."""
    value = _Values(null=None, true=True, false=False).__getitem__
    fields = itemgetter(*values)
    for lineno, line in lines:
        m = match(line)
        if m is not None:
            yield lineno, map(value, m.groups())
        elif line.strip():
            rec = _load(lineno, line)
            if not isinstance(rec, dict):
                _fail(lineno, "record is not an object")
            if rec.keys() != values.keys():
                missing = sorted(values.keys() - rec.keys())
                extra = sorted(rec.keys() - values.keys())
                _fail(lineno, f"bad keys (missing {missing}, unexpected {extra})")
            yield lineno, fields(rec)


def parse_history(text: str) -> list[Event]:
    """Parse and validate a history file's content.

    Enforces the record schema, rt-ordered lines, invocation-before-response
    pairing, per-operation field agreement between the two records, read/
    write return typing, and timestamp well-formedness. Pending operations
    (invocation without response) are allowed.
    """
    descs: dict[int, OperationDescriptor] = {}
    events: list[Event] = []
    prev_rt: Optional[int] = None
    lines = enumerate(text.split("\n"), start=1)
    for lineno, fields in _records(lines, _EVENT_VALUES, _match_event_line):
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
            if d.ret is not None:
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
            d.ret = ret
        events.append(Event(kind, d, rt, lt, proc))
    return events


def _read(path: Union[str, Path], parse: Callable[[str], Any], error: type) -> Any:
    """parse(the file's text). Raises `error`, naming the file, when it is
    unreadable, not UTF-8 (with the line, as parse numbers it) or refused."""
    try:
        data = Path(path).read_bytes()
        return parse(data.decode("utf-8"))
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {lineno}: not UTF-8") from None
    except error as exc:
        raise error(f"{path}: {exc}") from None


def read_history(path: Union[str, Path]) -> list[Event]:
    return _read(path, parse_history, ParseError)


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


_MSG_INT_KEYS = tuple(k for k, v in _MSG_VALUES.items() if v == _INT)
# kind -> (message type, whether it carries a reg, whether it carries ts and val)
_MSG_SHAPES = {k: (t, "reg" in t._fields, "tsv" in t._fields) for k, t in MESSAGE_TYPES.items()}


def parse_message_log(text: str) -> tuple[dict, list[MessageRecord]]:
    """Parse a sidecar back into (header, message records). Blank lines are
    skipped but counted, so an error names the line's number in the file."""
    lines = enumerate(text.split("\n"), start=1)
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
    for lineno, fields in _records(lines, _MSG_VALUES, _match_message_line):
        (kind, sender, receiver, lt, rid, reg, ts, val,
         send_rt, recv_rt, recv_lt, handled, dropped) = fields
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


def parse_config(text: str) -> SimConfig:
    """Parse a flat key = value run config into a validated SimConfig. Only
    the keys the text gives are converted; every other field keeps its
    dataclass default."""
    given: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
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
