"""Wire formats: history JSONL, message-log sidecar, run config files."""

import json
import os
import random
import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

from dsmlab import files
from dsmlab.cli import EXIT_PARSE, main
from dsmlab.core import (
    OK, READ, WRITE, Ack, Event, Query, Response, Timestamp, TimestampValuePair, Update,
)
from dsmlab.fuzz import campaign_config
from dsmlab.files import (
    ConfigError,
    ParseError,
    parse_config,
    parse_history,
    parse_message_log,
    read_config,
    read_history,
    read_message_log,
    serialize_history,
    serialize_message_log,
    sidecar_path,
    write_history,
    write_message_log,
)
from dsmlab.protocol import PROTOCOLS, Variant
from dsmlab.simnet import (
    AdversarialSchedule,
    DelayRule,
    FixedLinkDelay,
    MessageRecord,
    SimConfig,
    UniformDelay,
    Workload,
    _Run,
    run_simulation,
)

from helpers import (
    dict_parse_history,
    dict_parse_message_log,
    dict_serialize_history,
    dict_serialize_message_log,
    merge_by_rt,
    op_events,
)
from test_trace_pins import corpus as trace_pin_corpus


def _trace(seed=3, **kw):
    kw.setdefault("workload", Workload(ops_per_process=3, register_count=2))
    return run_simulation(SimConfig(n=3, seed=seed, **kw))


# --- history round trips -------------------------------------------------------


def test_history_round_trip_identity():
    t = _trace()
    text = serialize_history(t.history)
    back = parse_history(text)
    assert serialize_history(back) == text
    assert len(back) == len(t.history)
    for a, b in zip(back, t.history):
        assert (a.kind, a.rt, a.lt, a.proc) == (b.kind, b.rt, b.lt, b.proc)
        assert (a.op.opid, a.op.kind, a.op.reg, a.op.arg, a.op.ret, a.op.ts) == (
            b.op.opid, b.op.kind, b.op.reg, b.op.arg, b.op.ret, b.op.ts)


def test_history_round_trip_with_pending_ops():
    t = _trace(seed=11, crashes=((2, 4),), mid_op_crash=True,
               workload=Workload(ops_per_process=3, think_time=0))
    text = serialize_history(t.history)
    assert serialize_history(parse_history(text)) == text


def test_history_file_round_trip(tmp_path):
    t = _trace(seed=5)
    p = tmp_path / "run.jsonl"
    write_history(p, t.history)
    assert read_history(p) and serialize_history(read_history(p)) == p.read_text()


def test_history_records_have_exact_key_set():
    t = _trace()
    for line in serialize_history(t.history).splitlines():
        rec = json.loads(line)
        assert tuple(rec) == ("kind", "opid", "proc", "op", "reg", "val", "ret", "rt", "lt", "ts")


def test_parse_history_rejects_malformed_lines():
    good = serialize_history(_trace().history).splitlines()

    def mutate(line, **changes):
        rec = json.loads(line)
        rec.update(changes)
        return json.dumps(rec)

    cases = [
        "not json",
        "[1,2]",                                   # not an object
        mutate(good[0], extra=1),                  # unknown key
        json.dumps({k: v for k, v in list(json.loads(good[0]).items())[:-1]}),
        mutate(good[0], kind="bogus"),
        mutate(good[0], op="swap"),
        mutate(good[0], opid="one"),
        mutate(good[0], ts=[1]),                   # ts must be a pair
    ]
    for bad in cases:
        with pytest.raises(ParseError):
            parse_history(bad + "\n")


def test_parse_history_rejects_order_and_pairing_violations():
    w = op_events(1, 1, WRITE, "x", arg=1, ret=OK, ts=(1, 1), inv=(5, 1), res=(6, 2))
    r = op_events(2, 2, READ, "x", ret=1, ts=(1, 1), inv=(0, 1), res=(1, 2))
    text = serialize_history(w + r)  # rt jumps backwards between ops
    with pytest.raises(ParseError):
        parse_history(text)

    res_first = serialize_history(list(reversed(w)))
    with pytest.raises(ParseError):
        parse_history(res_first)

    dup = serialize_history(w + w)
    with pytest.raises(ParseError):
        parse_history(dup)


def test_parse_history_rejects_field_disagreement_between_inv_and_res():
    w = op_events(1, 1, WRITE, "x", arg=1, ret=OK, ts=(1, 1), inv=(0, 1), res=(1, 2))
    lines = serialize_history(w).splitlines()
    res = json.loads(lines[1])
    for key, bad in (("op", "read"), ("reg", "y"), ("val", 7), ("proc", 2)):
        broken = dict(res)
        broken[key] = bad
        with pytest.raises(ParseError):
            parse_history(lines[0] + "\n" + json.dumps(broken) + "\n")


def test_parse_history_rejects_wrong_return_types():
    w = op_events(1, 1, WRITE, "x", arg=1, ret=OK, ts=(1, 1), inv=(0, 1), res=(1, 2))
    lines = serialize_history(w).splitlines()
    res = json.loads(lines[1])
    res["ret"] = 3  # writes return OK, not a value
    with pytest.raises(ParseError):
        parse_history(lines[0] + "\n" + json.dumps(res) + "\n")

    r = op_events(2, 1, READ, "x", ret=0, ts=(0, 0), inv=(0, 1), res=(1, 2))
    rlines = serialize_history(r).splitlines()
    rres = json.loads(rlines[1])
    rres["ret"] = "OK"  # reads return values
    with pytest.raises(ParseError):
        parse_history(rlines[0] + "\n" + json.dumps(rres) + "\n")


def test_parse_history_allows_trailing_pending_op():
    w = op_events(1, 1, WRITE, "x", arg=1, ts=(1, 1), inv=(0, 1))
    h = parse_history(serialize_history(w))
    assert len(h) == 1 and h[0].kind == "inv" and h[0].op.ts == Timestamp(1, 1)


def test_parse_history_empty_input():
    assert parse_history("") == []
    assert parse_history("\n\n") == []


# --- message-log sidecar ---------------------------------------------------------


def test_sidecar_path_derivation(tmp_path):
    p = tmp_path / "exp" / "run7.jsonl"
    assert sidecar_path(p) == tmp_path / "exp" / "run7.msgs.jsonl"
    assert sidecar_path(str(p)).name == "run7.msgs.jsonl"


def test_message_log_round_trip(tmp_path):
    t = _trace(seed=9)
    text = serialize_message_log(t)
    header, records = parse_message_log(text)
    assert header == {"protocol": "sc_abd", "n": 3, "seed": 9}
    assert len(records) == len(t.message_log)
    for got, want in zip(records, t.message_log):
        assert got.msg == want.msg
        assert (got.send_rt, got.recv_rt, got.recv_lt) == (
            want.send_rt, want.recv_rt, want.recv_lt)
        assert (got.handled, got.dropped) == (want.handled, want.dropped)

    p = tmp_path / "run.msgs.jsonl"
    write_message_log(p, t)
    header2, records2 = read_message_log(p)
    assert header2 == header and len(records2) == len(records)


def test_message_log_round_trip_with_drops():
    t = _trace(seed=2, crashes=((3, 5),))
    assert any(r.dropped for r in t.message_log)
    _, records = parse_message_log(serialize_message_log(t))
    assert [r.dropped for r in records] == [r.dropped for r in t.message_log]


def test_parse_message_log_rejects_bad_input():
    t = _trace()
    lines = serialize_message_log(t).splitlines()
    with pytest.raises(ParseError):
        parse_message_log("")  # missing header
    with pytest.raises(ParseError):
        parse_message_log("junk\n")
    rec = json.loads(lines[1])
    rec["kind"] = "gossip"
    with pytest.raises(ParseError):
        parse_message_log(lines[0] + "\n" + json.dumps(rec) + "\n")
    rec = json.loads(lines[1])
    rec.pop("send_rt")
    with pytest.raises(ParseError):
        parse_message_log(lines[0] + "\n" + json.dumps(rec) + "\n")


@pytest.mark.parametrize("kind, fields, error", [
    ("response", {"reg": "r0"}, "response record must have reg null"),
    ("ack", {"reg": "r0", "ts": [1, 1], "val": 5}, "ack record must have reg null"),
    ("query", {"ts": [1, 1], "val": 5}, "query record must have ts and val null"),
    ("ack", {"ts": [1, 1], "val": 5}, "ack record must have ts and val null"),
])
def test_parse_message_log_refuses_fields_that_the_kind_cannot_carry(kind, fields, error):
    # accepted, they would be dropped: the record would not round-trip
    lines = serialize_message_log(_trace()).splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(f'{{"kind":"{kind}"'))
    rec = json.loads(lines[i])
    rec.update(fields)
    for compact in (True, False):  # the canonical path and the json path
        line = json.dumps(rec, separators=(",", ":") if compact else None)
        text = "\n".join(lines[:i] + [line]) + "\n"
        for parse in (parse_message_log, dict_parse_message_log):
            with pytest.raises(ParseError, match=f"^line {i + 1}: {error}$"):
                parse(text)


# --- hostile field types: ParseError, and exit 5 from the CLI ----------------------


def _recorded_run(tmp_path):
    t = _trace(seed=7)
    hist = tmp_path / "run.jsonl"
    write_history(hist, t.history)
    write_message_log(sidecar_path(hist), t)
    return hist


def _retype(path, lineno, key, value):
    lines = path.read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[lineno])
    assert key in rec
    rec[key] = value
    lines[lineno] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("key", ["proc", "rt", "lt"])
def test_history_refuses_booleans_for_integers(tmp_path, key):
    # the boolean equals the original number, so only its type is wrong
    hist = _recorded_run(tmp_path)
    original = json.loads(hist.read_text(encoding="utf-8").splitlines()[0])[key]
    assert original in (0, 1)
    _retype(hist, 0, key, bool(original))
    with pytest.raises(ParseError, match=key):
        read_history(hist)
    assert main(["check", str(hist)]) == EXIT_PARSE
    assert main(["stats", str(hist)]) == EXIT_PARSE


def _first_line_with(path, kind):
    lines = path.read_text(encoding="utf-8").splitlines()
    return next(i for i, ln in enumerate(lines) if json.loads(ln).get("kind") == kind)


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("update", "ts", 5),             # timestamp pair
        ("update", "val", "7"),          # register value
        ("update", "reg", 3),            # register name
        ("query", "reg", None),
        ("query", "sender", True),       # integers
        ("query", "rid", [1]),
        ("query", "send_rt", "3"),
        ("ack", "recv_lt", 1.5),         # integers or null
        ("ack", "handled", 1),           # flags
        ("ack", "dropped", None),
        (None, "n", "3"),                # header
    ],
)
def test_message_log_type_checks_every_field(tmp_path, kind, key, value):
    hist = _recorded_run(tmp_path)
    side = sidecar_path(hist)
    _retype(side, 0 if kind is None else _first_line_with(side, kind), key, value)
    with pytest.raises(ParseError):
        read_message_log(side)
    assert main(["stats", str(hist)]) == EXIT_PARSE


# --- deep nesting and overlong numbers: ParseError, not a traceback ----------------

DEEP = "[" * 200_000  # the JSON decoder recurses once per level


def test_parse_history_refuses_deep_nesting():
    with pytest.raises(ParseError, match="line 1: .*nested too deeply"):
        parse_history(DEEP + "\n")


def test_parse_message_log_refuses_deep_nesting():
    header = serialize_message_log(_trace()).splitlines()[0]
    with pytest.raises(ParseError, match="line 1: .*nested too deeply"):
        parse_message_log(DEEP + "\n")
    with pytest.raises(ParseError, match="line 2: .*nested too deeply"):
        parse_message_log(header + "\n" + DEEP + "\n")


def test_parsers_refuse_overlong_integers(tmp_path):
    hist = _recorded_run(tmp_path)
    _retype(hist, 0, "rt", 0)
    text = hist.read_text(encoding="utf-8").replace('"rt": 0', '"rt": ' + "1" * 5000, 1)
    with pytest.raises(ParseError, match="line 1: .*number too long"):
        parse_history(text)
    header = serialize_message_log(_trace()).splitlines()[0]
    with pytest.raises(ParseError, match="line 2: .*number too long"):
        parse_message_log(header + "\n[" + "1" * 5000 + "]\n")
    hist.write_text(text, encoding="utf-8")
    assert main(["check", str(hist)]) == EXIT_PARSE
    assert main(["stats", str(hist)]) == EXIT_PARSE


# --- writers and readers against the dict-and-json references ----------------------


def _reference_corpus():
    """Traces of the trace-pin corpus, then criterion-3 campaign runs of both
    protocols."""
    for _, cfg in trace_pin_corpus():
        yield run_simulation(cfg)
    for protocol in PROTOCOLS:
        for seed in range(150):
            yield run_simulation(campaign_config("none", seed, protocol))


def _in_variant(values: dict, variants: dict, line: str) -> bool:
    """Whether the readers' shared record loop takes `line` through one of a
    format's variant patterns, rather than through json."""
    try:
        return next(files._records(iter([(1, line)]), values, variants))[1]
    except (ParseError, StopIteration):
        return False


def _in_event_variant(line: str) -> bool:
    return _in_variant(files._EVENT_VALUES, files._EVENT_VARIANTS, line)


def _in_message_variant(line: str) -> bool:
    return _in_variant(files._MSG_VALUES, files._MESSAGE_VARIANTS, line)


def test_writers_match_the_json_reference_on_simulated_traces():
    """Also: every record line the writers emit matches one of its reader's
    variant patterns (the sidecar header is read through json), so a writer
    that drifts from them fails here rather than slowing every read."""
    for t in _reference_corpus():
        hist, log = serialize_history(t.history), serialize_message_log(t)
        assert hist == dict_serialize_history(t.history)
        assert log == dict_serialize_message_log(t)
        assert [ln for ln in hist.splitlines() if not _in_event_variant(ln)] == []
        assert [ln for ln in log.splitlines()[1:] if not _in_message_variant(ln)] == []


def test_no_variant_takes_a_character_that_is_not_ascii():
    # A byte that is not UTF-8 is read as an escape (U+DC80..U+DCFF); it is
    # refused with its line because only json's path meets it, so no variant
    # may take it, or any other character that is not ASCII. Every pattern
    # treats the digits 1-9 alike, so the corpus's lines are tried with them
    # folded to 1: a few thousand distinct lines instead of 30,000.
    fold = str.maketrans("23456789", "11111111")
    lines = set()
    for t in map(run_simulation, (cfg for _, cfg in trace_pin_corpus())):
        for text in (serialize_history(t.history), serialize_message_log(t)):
            lines.update(text.translate(fold).splitlines(True))
    matches = [
        m for variants in (files._EVENT_VARIANTS, files._MESSAGE_VARIANTS)
        for kind in variants.values() for m, _ in kind
    ]
    records = [ln for ln in lines if not ln.startswith('{"protocol":')]  # not the headers
    assert len(records) > 3_000 and all(any(m(ln) for m in matches) for ln in records)
    for line in lines:
        for at in range(len(line) + 1):
            for c in ("\udc80", "\u00e9"):
                spliced = line[:at] + c + line[at:]
                assert not any(m(spliced) for m in matches), spliced


HOSTILE_REGS = (
    'q"uote', "back\\slash", "ctl\x00\x1f\t\n\x7f", "n\u00efv\u00e9 \u2603", "\ud800", "/"
)
BIG = 2**63 + 1


def test_writers_match_the_json_reference_on_hostile_values():
    h = merge_by_rt(
        op_events(1, 1, WRITE, HOSTILE_REGS[0], arg=-7, ret=OK, ts=(BIG, 1),
                  inv=(0, -1), res=(1, BIG)),
        op_events(-2, 2, READ, HOSTILE_REGS[1], ret=-(2**70), inv=(2, 0), res=(3, 1)),
        op_events(BIG, 3, READ, HOSTILE_REGS[2], ret=BIG, ts=(0, 0), inv=(4, 2), res=(5, 3)),
        op_events(4, BIG, WRITE, HOSTILE_REGS[3], arg=BIG, ret=OK, inv=(6, 4), res=(7, 5)),
        op_events(5, 1, WRITE, HOSTILE_REGS[4], arg=0, ts=(2, 1), inv=(8, 6)),  # pending
        op_events(6, 2, READ, HOSTILE_REGS[5], inv=(9, 7)),  # pending, no ts
    )
    assert serialize_history(h) == dict_serialize_history(h)
    tsv = TimestampValuePair(Timestamp(BIG, -1), -(2**64))
    msgs = [
        Query(1, 2, BIG, -3, HOSTILE_REGS[0]),
        Response(2, 1, 0, BIG, tsv),
        Update(-1, BIG, 5, 6, HOSTILE_REGS[3], tsv),
        Ack(3, 3, -4, 0),
    ]
    log = [
        MessageRecord(msgs[0], -5, BIG, BIG + 1, True, False),   # handled
        MessageRecord(msgs[1], 0, 4, 5, False, False),            # stale reply
        MessageRecord(msgs[2], BIG, None, None, False, True),     # dropped
        MessageRecord(msgs[3], 1),                                # in flight
    ]
    for reg in HOSTILE_REGS:
        log.append(MessageRecord(Query(1, 2, 3, 4, reg), 5, 6, 7, True, False))
    trace = SimpleNamespace(
        config=SimpleNamespace(protocol='sc"abd\u00e9', n=BIG, seed=-1), message_log=log
    )
    assert serialize_message_log(trace) == dict_serialize_message_log(trace)
    assert serialize_message_log(trace).isascii()


def test_an_event_without_lt_cannot_be_serialized():
    inv, res = op_events(1, 1, WRITE, "x", arg=1, ret=OK, ts=(1, 1), inv=(0, 1), res=(1, 2))
    for e in (inv, res):
        bad = [Event(e.kind, e.op, e.rt, None, e.proc)]
        with pytest.raises(ValueError, match="op 1 has no lt"):
            serialize_history(bad)
        with pytest.raises(ValueError, match="op 1 has no lt"):
            dict_serialize_history(bad)


def test_a_history_without_lt_is_refused_before_its_file_is_opened(tmp_path):
    inv, res = op_events(1, 1, WRITE, "x", arg=1, ret=OK, ts=(1, 1), inv=(0, 1), res=(1, 2))
    bad = [inv, Event(res.kind, res.op, res.rt, None, res.proc)]  # the first line is writable
    kept, absent = tmp_path / "kept.jsonl", tmp_path / "absent.jsonl"
    kept.write_bytes(b"an earlier run\n")
    for path in (kept, absent):
        with pytest.raises(ValueError, match="op 1 has no lt"):
            write_history(path, bad)
    assert kept.read_bytes() == b"an earlier run\n"
    assert not absent.exists()


def test_writers_put_the_serialized_bytes_on_disk(tmp_path):
    path = tmp_path / "run.jsonl"
    for label, cfg in trace_pin_corpus():
        t = run_simulation(cfg)
        write_history(path, t.history)
        write_message_log(sidecar_path(path), t)
        assert path.read_bytes() == serialize_history(t.history).encode(), label
        assert sidecar_path(path).read_bytes() == serialize_message_log(t).encode(), label


def test_the_sidecar_writer_streams_in_bounded_chunks(tmp_path):
    # a whole-file string and its bytes peak at about twice the file's size
    t = run_simulation(SimConfig(n=5, seed=3, workload=Workload(ops_per_process=100)))
    path = tmp_path / "run.msgs.jsonl"
    write_message_log(path, t)  # fills the writer's string cache outside the measurement
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        write_message_log(path, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert len(t.message_log) > 5000
    assert peak - live < size / 4, (peak - live, size)
    assert path.read_bytes() == serialize_message_log(t).encode()


def _transient(call, arg) -> int:
    """The bytes that call(arg) allocates beyond what its result keeps: its peak
    under tracemalloc less what is still allocated once it has returned."""
    call(arg)  # fills caches outside the measurement
    tracemalloc.start()
    try:
        result = call(arg)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result  # held until `after` was taken
    return peak - after


def test_the_readers_stream_in_bounded_chunks(tmp_path):
    # a reader that decodes a file whole, then splits it into a list of lines,
    # holds about 2.5 (sidecar) and 4 (history) times the file's size at its peak
    t = run_simulation(SimConfig(n=5, seed=3, workload=Workload(ops_per_process=200)))
    hist = tmp_path / "run.jsonl"
    write_history(hist, t.history)
    write_message_log(sidecar_path(hist), t)
    assert len(t.message_log) > 5000
    side = sidecar_path(hist)
    assert _transient(read_message_log, side) < side.stat().st_size / 4
    # a parser also holds its value cache and, for a history, its op table, which
    # for a history come to about 1.6 times its size: reading the file adds under a
    # tenth of its size to what parsing its lines, already in memory, holds
    for read, parse, path in ((read_message_log, parse_message_log, side),
                              (read_history, parse_history, hist)):
        lines = path.read_text(encoding="utf-8").split("\n")
        extra = _transient(read, path) - _transient(parse, lines)
        assert extra < path.stat().st_size / 10, (path.name, extra, path.stat().st_size)


def _history_view(parse, text):
    """A history parser's result, or its error, as comparable data: each
    event's repr and the index of the first event sharing its descriptor."""
    try:
        events = parse(text)
    except ParseError as exc:
        return str(exc)
    first: dict = {}
    return [(repr(e), first.setdefault(id(e.op), i)) for i, e in enumerate(events)]


def _log_view(parse, text):
    try:
        header, records = parse(text)
    except ParseError as exc:
        return str(exc)
    return header, repr(records)


_OTHER_VALUES = (
    None, True, False, 0, -1, 3, 1.5, 2.0, 2**64, "", "x", "OK", [], [1], [1, 2],
    [1, 2, 3], [True, 1], [1, False], [1.0, 2], [1, 2.0], [None, 1], {}, {"lt": 1},
)
_COMBOS = {
    "kind": ("inv", "res", "query", "response", "update", "ack", "gossip"),
    "op": ("read", "write"),
    "reg": (None, "r0", "r1", ""),
    "ts": (None, [0, 0], [1, 1], [5, 2]),
    "val": (None, 0, 7),
    "ret": (None, "OK", 0, 7),
    "protocol": ("sc_abd", "", None),
    "n": (1, 0, None),
    "seed": (0, -1, None),
}


def _mutate(rng: random.Random, line: str) -> str:
    """One single-field mutation of a record line, re-spelled as compact or
    spaced JSON, sometimes with its keys reversed."""
    rec = json.loads(line)
    ints = [k for k, v in rec.items() if type(v) is int]
    how = rng.randrange(7)
    if how == 0:
        rec[rng.choice(list(rec))] = rng.choice(_OTHER_VALUES)      # retyped value
    elif how == 1:
        del rec[rng.choice(list(rec))]                             # dropped key
    elif how == 2:
        rec[rng.choice(("extra", "Kind", "ts ", "handled_"))] = 1  # extra key
    elif how == 3 and ints:
        key = rng.choice(ints)                                     # bool for an int
        rec[key] = bool(rec[key]) if rec[key] in (0, 1) else rng.random() < 0.5
    elif how == 4 and ints:
        key = rng.choice(ints)                                     # float for an int
        rec[key] = float(rec[key])
    elif how == 5:
        key = rng.choice([k for k in _COMBOS if k in rec])         # kind/reg/ts combination
        rec[key] = rng.choice(_COMBOS[key])
    else:
        return rng.choice(("[]", "5", "null", '"x"', "{", "[1,", "{} {}"))
    if rng.random() < 0.2:
        rec = dict(reversed(rec.items()))
    return json.dumps(rec, separators=rng.choice(((",", ":"), (", ", ": "))))


# Values spelled compactly but at the edge of the readers' variant patterns:
# zero (which no proc may be), a negative integer, a leading zero, -0,
# integers of 18, 19 and 4,301 digits, escaped, empty and non-ASCII strings
# (one with a raw U+2028, which JSON Lines does not take as a line end), a
# wrongly cased "OK", nulls where a kind needs a value, an int for a bool,
# and a three-item ts.
_EDGE_INTS = ("0", "-1", "01", "-0", "9" * 18, "1" + "0" * 18, "1" * 4301)
_EDGE_SPELLINGS = (
    *((key, spelling) for key in (
        "opid", "proc", "val", "ret", "rt", "lt",
        "sender", "receiver", "rid", "send_rt", "recv_rt", "recv_lt",
    ) for spelling in _EDGE_INTS),
    *(("ts", f"[{a},{b}]") for a, b in (("01", "1"), ("-0", "2"), ("1", "9" * 18),
                                         ("1" + "0" * 18, "1"))),
    *(("reg", spelling) for spelling in (
        '""', r'"a\"b"', r'"a\\b"', r'"\u00e9"', '"\u00e9"', '"a\u2028b"',
    )),
    ("reg", "null"), ("ret", '"ok"'), ("ret", '"OK"'), ("ts", "null"), ("val", "null"),
    ("handled", "1"), ("dropped", "0"), ("ts", "[1,2,3]"),
)


def _respell(line: str, key: str, spelling: str) -> str:
    """A compact record line with the value of `key` spelled as given."""
    rec = json.loads(line)
    rec[key] = "\0"
    return json.dumps(rec, separators=(",", ":")).replace('"\\u0000"', spelling)


def _first_line_of_each_kind(text: str) -> list:
    """The index of the first line of each (kind, op) in a history or of
    each message kind in a sidecar."""
    firsts: dict = {}
    for i, line in enumerate(text.splitlines()):
        rec = json.loads(line)
        firsts.setdefault((rec.get("kind"), rec.get("op")), i)
    return sorted(firsts.values())


def test_parsers_match_the_dict_reference():
    pairs = [
        (serialize_history(t.history), serialize_message_log(t))
        for t in map(run_simulation, (cfg for _, cfg in trace_pin_corpus()))
        if t.history
    ]
    for hist, log in pairs:
        assert _history_view(parse_history, hist) == _history_view(dict_parse_history, hist)
        assert _log_view(parse_message_log, log) == _log_view(dict_parse_message_log, log)
    cases = []  # (history or sidecar text, the index of its line under test)
    for hist, log in pairs[:12]:
        lines = hist.splitlines()
        for i in _first_line_of_each_kind(hist):
            for key, spelling in _EDGE_SPELLINGS:
                if f'"{key}":' in lines[i]:
                    edited = _respell(lines[i], key, spelling)
                    cases.append(("\n".join(lines[:i] + [edited] + lines[i + 1:i + 2]), i))
        lines = log.splitlines()
        for i in _first_line_of_each_kind(log)[1:]:  # the header is plain JSON
            for key, spelling in _EDGE_SPELLINGS:
                if f'"{key}":' in lines[i]:
                    cases.append(("\n".join([lines[0], _respell(lines[i], key, spelling)]), 1))
    rng = random.Random("parser-mutations")
    for _ in range(6000):
        hist, log = rng.choice(pairs)
        lines = hist.splitlines()
        i = rng.randrange(len(lines))
        cases.append(("\n".join(lines[:i] + [_mutate(rng, lines[i])] + lines[i + 1:i + 2]), i))
        lines = log.splitlines()
        i = rng.randrange(len(lines))
        window = lines[:1] + lines[i:i + 1] if i else lines[:2]
        window[1 if i else 0] = _mutate(rng, window[1 if i else 0])
        cases.append(("\n".join(window), 1 if i else 0))
    accepted = rejected = direct = through_json = 0
    errors = set()
    for text, i in cases:
        text += "\n"
        line = text.split("\n")[i]
        if text.startswith('{"protocol"'):
            view = _log_view(parse_message_log, text)
            assert view == _log_view(dict_parse_message_log, text), text
            canonical = i and _in_message_variant(line)
        else:
            view = _history_view(parse_history, text)
            assert view == _history_view(dict_parse_history, text), text
            canonical = _in_event_variant(line)
        if canonical:
            direct += 1
        else:
            through_json += 1
        if isinstance(view, str):
            rejected += 1
            errors.add(re.sub(r"\d+", "N", view))
        else:
            accepted += 1
    assert accepted > 500 and rejected > 10_000 and len(errors) > 80, (accepted, rejected, errors)
    assert direct > 2000 and through_json > 5000, (direct, through_json)


# Lines in the writers' spelling (compact, keys in order, plain values) that
# their record's variant pattern refuses: each goes through json, where both
# readers give the pinned error. (kind, op or None, key -> spelling, error)
_TSV_ERROR = "ts and val must both be null, or a [lt, pid] pair and an integer"
_REFUSED_BY_VARIANTS = (
    ("ack", None, {"reg": '"r0"'}, "ack record must have reg null"),
    ("response", None, {"reg": '"r0"'}, "response record must have reg null"),
    ("query", None, {"reg": "null"}, "query record needs a reg"),
    ("update", None, {"reg": "null"}, "update record needs a reg"),
    ("query", None, {"reg": '""'}, "reg must be null or a non-empty string"),
    ("update", None, {"reg": '""'}, "reg must be null or a non-empty string"),
    ("response", None, {"ts": "null"}, _TSV_ERROR),
    ("update", None, {"ts": "null"}, _TSV_ERROR),
    ("response", None, {"ts": "null", "val": "null"}, "response record needs ts and val"),
    ("update", None, {"ts": "null", "val": "null"}, "update record needs ts and val"),
    ("query", None, {"ts": "[1,1]"}, _TSV_ERROR),
    ("query", None, {"ts": "[1,1]", "val": "5"}, "query record must have ts and val null"),
    ("ack", None, {"ts": "[1,1]", "val": "5"}, "ack record must have ts and val null"),
    ("inv", "write", {"proc": "0"}, "proc must be a positive integer"),
    ("res", "read", {"proc": "0"}, "proc must be a positive integer"),
    ("res", "read", {"ret": '"OK"'}, "a completed read needs an integer ret"),
    ("res", "write", {"ret": "7"}, "a completed write needs ret 'OK'"),
    ("inv", "read", {"ret": "7"}, "an invocation record must have ret null"),
    ("inv", "write", {"ret": '"OK"'}, "an invocation record must have ret null"),
    ("inv", "read", {"val": "7"}, "a read record must have val null"),
    ("res", "read", {"val": "7"}, "a read record must have val null"),
)


def test_lines_that_no_variant_takes_keep_their_errors():
    t = _trace()
    hist = serialize_history(t.history).splitlines()
    log = serialize_message_log(t).splitlines()
    for kind, op, spellings, error in _REFUSED_BY_VARIANTS:
        lines = hist if op else log
        i = next(i for i, ln in enumerate(lines) if ln.startswith(f'{{"kind":"{kind}"')
                 and (op is None or f'"op":"{op}"' in ln))
        line = lines[i]
        for key, spelling in spellings.items():
            line = _respell(line, key, spelling)
        if op:
            assert not _in_event_variant(line), line
            text, want = "\n".join(hist[:i] + [line]), f"line {i + 1}: {error}"
            assert _history_view(parse_history, text) == want
            assert _history_view(dict_parse_history, text) == want
        else:
            assert not _in_message_variant(line), line
            text, want = "\n".join([log[0], line]), f"line 2: {error}"
            assert _log_view(parse_message_log, text) == want
            assert _log_view(dict_parse_message_log, text) == want


# Whitespace that str.strip() removes but JSON does not take as whitespace
_NOT_JSON_WHITESPACE = ("\x0c", "\u00a0", "\u0085", "\u2028", "\u3000")


def test_a_blank_line_holds_only_json_whitespace():
    t = _trace()
    hist, log = serialize_history(t.history), serialize_message_log(t)
    for parse in (parse_history, dict_parse_history):
        assert _history_view(parse, " \t\r\n" + hist + " \t\r\n") == _history_view(parse, hist)
        assert parse(" \t\r\n") == []
    for parse in (parse_message_log, dict_parse_message_log):
        assert _log_view(parse, log + " \t\r\n") == _log_view(parse, log)
    for char in _NOT_JSON_WHITESPACE:
        for parse in (parse_history, dict_parse_history):
            with pytest.raises(ParseError, match=r"^line 1: not valid JSON"):
                parse(char + "\n")
        for parse in (parse_message_log, dict_parse_message_log):
            with pytest.raises(ParseError, match=r"^line 1: not valid JSON"):
                parse(char + "\n" + log)
            with pytest.raises(ParseError, match=r"^line 2: not valid JSON"):
                parse(log.split("\n")[0] + "\n" + char + "\n")


def test_message_log_errors_name_the_line_in_the_file():
    lines = serialize_message_log(_trace()).splitlines()
    bad = json.loads(lines[3])
    bad["sender"] = "1"
    text = "\n".join([lines[0], "", lines[1], "  ", lines[2], json.dumps(bad)]) + "\n"
    with pytest.raises(ParseError, match=r"^line 6: sender must be an integer$"):
        parse_message_log(text)
    with pytest.raises(ParseError, match=r"^line 3: not valid JSON"):
        parse_message_log("\n\njunk\n")
    header, records = parse_message_log("\n" + "\n\n".join(lines[:3]) + "\n\n")
    assert header["n"] == 3 and len(records) == 2


# --- line ends: a line ends at "\n" only, as in JSON Lines -------------------------

LS = "\u2028"  # LINE SEPARATOR: str.splitlines breaks at it, JSON allows it in a string


def _raw_ls_files():
    """(history, sidecar) texts with a register named "x<U+2028>y", spelled
    with json's escape, and the same texts with the character raw."""
    h = op_events(1, 1, WRITE, f"x{LS}y", arg=1, ret=OK, ts=(1, 1), inv=(0, 1), res=(1, 2))
    log = [MessageRecord(Query(1, 2, 3, 4, f"x{LS}y"), 5, 6, 7, True, False)]
    trace = SimpleNamespace(config=SimpleNamespace(protocol="sc_abd", n=3, seed=0), message_log=log)
    escaped = (serialize_history(h), serialize_message_log(trace))
    assert all("\\u2028" in text and LS not in text for text in escaped)
    return escaped, tuple(text.replace("\\u2028", LS) for text in escaped)


def test_a_raw_line_separator_in_a_string_parses_as_its_escape():
    (hist, log), (raw_hist, raw_log) = _raw_ls_files()
    for parse in (parse_history, dict_parse_history):
        assert _history_view(parse, raw_hist) == _history_view(parse, hist)
    for parse in (parse_message_log, dict_parse_message_log):
        assert _log_view(parse, raw_log) == _log_view(parse, log)
    assert parse_history(raw_hist)[0].op.reg == f"x{LS}y"
    assert parse_message_log(raw_log)[1][0].msg.reg == f"x{LS}y"


def test_an_error_after_a_raw_line_separator_names_the_line_in_the_file(tmp_path):
    (_, _), (raw_hist, raw_log) = _raw_ls_files()
    inv = raw_hist.split("\n")[0]
    for parse in (parse_history, dict_parse_history):
        with pytest.raises(ParseError, match=r"^line 2: not valid JSON"):
            parse(f"{inv}\njunk\n")
    with pytest.raises(ParseError, match=r"^line 3: not valid JSON"):
        parse_message_log(raw_log + "junk\n")
    p = tmp_path / "h.jsonl"
    p.write_bytes(f"{inv}\n".encode() + b'{"reg":"\xff"}\n')
    with pytest.raises(ParseError, match=r"h\.jsonl: line 2: not UTF-8$"):
        read_history(p)


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="no /dev/fd to open a pipe by path")
def test_a_pipe_that_is_not_utf8_is_refused_with_its_line(tmp_path):
    # a pipe is read once, as a file is: the first bad byte's line, not a later one's
    lines = serialize_history(_trace(workload=Workload(ops_per_process=30)).history).split("\n")
    for i in (1, 150):
        lines[i] = "\xff" + lines[i]
    data = "\n".join(lines).encode("latin-1")
    assert 16_384 < len(data) < 65_536  # past the text layer's first reads, inside a pipe's buffer
    p = tmp_path / "h.jsonl"
    p.write_bytes(data)
    with pytest.raises(ParseError, match=r"h\.jsonl: line 2: not UTF-8$"):
        read_history(p)
    r, w = os.pipe()
    try:
        assert os.write(w, data) == len(data)
        os.close(w)
        with pytest.raises(ParseError, match=rf"^/dev/fd/{r}: line 2: not UTF-8$"):
            read_history(f"/dev/fd/{r}")
    finally:
        os.close(r)


def test_a_bare_carriage_return_between_tokens_is_whitespace():
    t = _trace()
    hist, log = serialize_history(t.history), serialize_message_log(t)
    cr_hist = hist.replace(',"opid":', ',\r"opid":')
    cr_log = log.replace(',"sender":', ',\r"sender":')
    assert cr_hist != hist and cr_log != log
    assert _history_view(parse_history, cr_hist) == _history_view(parse_history, hist)
    assert _log_view(parse_message_log, cr_log) == _log_view(parse_message_log, log)


def test_crlf_files_give_the_same_records_and_line_numbers():
    t = _trace()
    hist, log = serialize_history(t.history), serialize_message_log(t)
    crlf = {text: text.replace("\n", "\r\n") for text in (hist, log)}
    assert _history_view(parse_history, crlf[hist]) == _history_view(parse_history, hist)
    assert _log_view(parse_message_log, crlf[log]) == _log_view(parse_message_log, log)
    for parse, text in ((parse_history, hist), (parse_message_log, log)):
        lines = crlf[text].split("\r\n")
        lines[3] = "junk"
        with pytest.raises(ParseError, match=r"^line 4: not valid JSON"):
            parse("\r\n".join(lines))
    assert parse_config("n = 5\r\nseed = 2\r\n") == parse_config("n = 5\nseed = 2\n")


# --- run config files ---------------------------------------------------------------


def test_parse_config_defaults():
    cfg = parse_config("")
    assert cfg == SimConfig()
    assert cfg.n == 3 and cfg.seed == 0 and cfg.protocol == "sc_abd"
    assert cfg.mutant == "none" and cfg.crashes == ()
    assert isinstance(cfg.delay, UniformDelay)
    assert (cfg.delay.lo, cfg.delay.hi) == (1, 10)


def test_parse_config_full_uniform():
    cfg = parse_config(
        """
        # five replicas, biased toward reads
        n = 5
        seed = 42
        protocol = mw_abd
        ops_per_process = 4
        read_fraction = 0.75
        register_count = 2
        think_time = 0
        max_ticks = 5000
        delay = uniform
        delay_min = 2
        delay_max = 6
        crashes = 4@30, 5@60
        """
    )
    assert cfg.n == 5 and cfg.seed == 42 and cfg.protocol == "mw_abd"
    assert cfg.workload.ops_per_process == 4
    assert cfg.workload.read_fraction == 0.75
    assert cfg.workload.register_count == 2
    assert cfg.workload.think_time == 0
    assert cfg.max_ticks == 5000
    assert cfg.crashes == ((4, 30), (5, 60))
    assert (cfg.delay.lo, cfg.delay.hi) == (2, 6)


def test_parse_config_fixed_links():
    cfg = parse_config("delay = fixed\ndelay_fixed = 3\ndelay_links = 1>2:5, 2>1:7")
    assert isinstance(cfg.delay, FixedLinkDelay)
    assert cfg.delay.default == 3
    assert cfg.delay.links == {(1, 2): 5, (2, 1): 7}


def test_parse_config_adversarial_schedule():
    cfg = parse_config(
        "delay = adversarial\n"
        "schedule = update:*>other:900; response@2:1>self:1; *:*>*:2-4"
    )
    assert isinstance(cfg.delay, AdversarialSchedule)
    r1, r2, r3 = cfg.delay.rules
    assert (r1.kind, r1.sender, r1.receiver, r1.lo, r1.hi) == ("update", None, "other", 900, None)
    assert (r2.kind, r2.rid, r2.sender, r2.receiver, r2.lo) == ("response", 2, 1, "self", 1)
    assert (r3.kind, r3.sender, r3.receiver, r3.lo, r3.hi) == (None, None, None, 2, 4)


def test_parse_config_mutant_and_mid_op_crash():
    cfg = parse_config("mutant = small-quorum\nmid_op_crash = true\ncrashes = 2@9")
    assert cfg.mutant == "small-quorum" and cfg.mid_op_crash
    assert cfg.crashes == ((2, 9),)


def test_parse_config_rejections():
    bad = [
        "bogus = 1",                            # unknown key
        "n = 3\nn = 5",                         # duplicate
        "n three",                              # no equals sign
        "n = three",                            # not an int
        "read_fraction = lots",                 # not a float
        "mid_op_crash = maybe",                 # not a bool
        "protocol = paxos",
        "mutant = chaos",
        "delay = exponential",
        "delay = uniform\ndelay_fixed = 3",     # key from another model
        "delay = fixed\ndelay_min = 2",
        "delay = fixed\ndelay_links = 1-2:5",   # bad link syntax
        "crashes = 2:40",                       # bad crash syntax
        "delay = adversarial\nschedule = update:*>other",   # missing delay
        "delay = adversarial\nschedule = gossip:*>*:1",     # unknown kind
        "n = 0",                                # fails SimConfig.validate
        "n = 3\ncrashes = 1@2, 2@3",            # too many crashes for quorum
        "delay = uniform\ndelay_min = 5\ndelay_max = 2",
    ]
    for text in bad:
        with pytest.raises(ConfigError):
            parse_config(text)
    # a mutant applies to either protocol
    cfg = parse_config("mutant = small-quorum\nprotocol = mw_abd")
    assert _Run(cfg).states[1].v == Variant(query_writes=True, n=3, threshold=1, writeback=True)
    assert run_simulation(cfg).protocol == "mw_abd"


@pytest.mark.parametrize(
    "text, error",
    [
        ("delay = fixed\ndelay_fixed = 0", "fixed delay default must be >= 1"),
        ("delay = fixed\ndelay_links = 1>2:0", "fixed delay for link (1, 2) must be >= 1, got 0"),
        ("delay = adversarial\nschedule = query:1>2:0", "delay rule needs lo >= 1, got 0"),
        (
            "delay = adversarial\nschedule = query:1>2:5-3",
            "delay rule needs 1 <= lo <= hi, got 5..3",
        ),
        (
            "delay = adversarial\nschedule = query:12:5",
            "rule 'query:12:5': link must look like sender>receiver",
        ),
        ("ops_per_process = -1", "ops_per_process must be >= 0"),
        ("register_count = 0", "register_count must be >= 1"),
        ("think_time = -1", "think_time must be >= 0"),
        ("crashes = 2@-5", "crash tick must be >= 0, got -5"),
        ("seed = -5", "seed must be >= 0, got -5"),
    ],
    ids=[
        "delay-fixed-0", "delay-links-0", "rule-delay-0", "rule-range-reversed",
        "rule-link-without-arrow", "ops-negative", "registers-0", "think-negative",
        "crash-tick-negative", "seed-negative",
    ],
)
def test_parse_config_refusal_texts(text, error):
    with pytest.raises(ConfigError, match=f"^{re.escape(error)}$"):
        parse_config(text)


# key -> (value text, the config it gives with every other key left out).
# A delay model's own keys come with the "delay" line that selects it.
CONFIG_KEY_CASES = {
    "n": ("5", SimConfig(n=5)),
    "seed": ("42", SimConfig(seed=42)),
    "protocol": ("mw_abd", SimConfig(protocol="mw_abd")),
    "mutant": ("no-writeback", SimConfig(mutant="no-writeback")),
    "max_ticks": ("5000", SimConfig(max_ticks=5000)),
    "mid_op_crash": ("true", SimConfig(mid_op_crash=True)),
    "crashes": ("2@9", SimConfig(crashes=((2, 9),))),
    "delay": ("fixed", SimConfig(delay=FixedLinkDelay())),
    "ops_per_process": ("4", SimConfig(workload=Workload(ops_per_process=4))),
    "read_fraction": ("0.75", SimConfig(workload=Workload(read_fraction=0.75))),
    "register_count": ("3", SimConfig(workload=Workload(register_count=3))),
    "think_time": ("0", SimConfig(workload=Workload(think_time=0))),
    "delay_min": ("2", SimConfig(delay=UniformDelay(lo=2))),
    "delay_max": ("6", SimConfig(delay=UniformDelay(hi=6))),
    "delay_fixed": ("3", SimConfig(delay=FixedLinkDelay(default=3))),
    "delay_links": ("1>2:5", SimConfig(delay=FixedLinkDelay(links={(1, 2): 5}))),
    "schedule": (
        "ack:*>*:4", SimConfig(delay=AdversarialSchedule(rules=(DelayRule(kind="ack", lo=4),)))
    ),
}


def _delay_line(key: str) -> str:
    part = files._CONFIG_KEYS[key][0]
    name = next((k for k, m in files._DELAY_MODELS.items() if m is part), None)
    return f"delay = {name}\n" if name else ""


@pytest.mark.parametrize("key", sorted(CONFIG_KEY_CASES))
def test_parse_config_each_key_sets_its_field(key):
    raw, expected = CONFIG_KEY_CASES[key]
    assert expected != SimConfig()
    assert parse_config(_delay_line(key) + f"{key} = {raw}") == expected


def test_config_key_cases_cover_every_key():
    assert set(CONFIG_KEY_CASES) == set(files._CONFIG_KEYS)
    assert len(files._CONFIG_KEYS) == 17


def _readme_config_rows() -> dict:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = text.split("## Config file format", 1)[1].split("\n## ", 1)[0]
    return dict(re.findall(r"^\| `(\w+)` \| ([^|]*?) \|", section, flags=re.M))


def test_readme_config_table_lists_exactly_the_accepted_keys():
    rows = _readme_config_rows()
    assert set(rows) == set(files._CONFIG_KEYS)
    # and each default it states is the dataclass default
    for key, default in rows.items():
        raw = "" if default == "empty" else default.strip("`")
        line = _delay_line(key)
        assert parse_config(line + f"{key} = {raw}") == parse_config(line), key


def test_parse_config_comments_and_blank_lines():
    cfg = parse_config("# comment only\n\nn = 5   # trailing comment\n\n")
    assert cfg.n == 5


def test_read_config_and_parsed_configs_run(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("n = 3\nseed = 7\nops_per_process = 2\n", encoding="utf-8")
    cfg = read_config(p)
    t = run_simulation(cfg)
    assert t.quiescent and t.completed()


def test_config_drives_identical_run_as_programmatic(tmp_path):
    text = "n = 3\nseed = 13\ndelay = uniform\ndelay_min = 1\ndelay_max = 4\n"
    t1 = run_simulation(parse_config(text))
    t2 = run_simulation(SimConfig(n=3, seed=13, delay=UniformDelay(1, 4)))
    assert serialize_history(t1.history) == serialize_history(t2.history)
