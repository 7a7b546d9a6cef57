"""Seeded mutations of whole input files: histories and sidecars of campaign
runs, and the README's example config. Every mutant either parses or is
refused with ParseError or ConfigError, and through the CLI, `check` and
`stats` exit only with a documented code, an exit 5 with one stderr line.
The readers, which parse a file as the text layer streams its lines, give
what the parsers give on the file's whole text, whatever the text layer's
read size."""

import builtins
import io
import os
import random
import re
import threading
from contextlib import suppress
from pathlib import Path

import pytest

from dsmlab import files
from dsmlab.cli import EXIT_OK, EXIT_PARSE, EXIT_REJECTED, EXIT_UNDECIDED, main
from dsmlab.core import MESSAGE_TYPES
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
)
from dsmlab.fuzz import campaign_config
from dsmlab.protocol import PROTOCOLS
from dsmlab.simnet import run_simulation

README = Path(__file__).resolve().parents[1] / "README.md"
FORMAT_KEYS = sorted({*files._EVENT_VALUES, *files._MSG_VALUES})
KINDS = ("inv", "res", *MESSAGE_TYPES)
# characters that an inserted one is drawn from: JSON and config syntax,
# digits, letters, and line ends that JSON Lines does or does not split at
CHARS = '{}[]",:.-+0123456789 eEnutlfaxr#=@>;*\t\r\n\x0b\x1e\x85\u2028\u00e9'
PARSERS = {"history": parse_history, "sidecar": parse_message_log, "config": parse_config}
READERS = {"history": read_history, "sidecar": read_message_log, "config": read_config}


def _outcome(call, arg):
    """("parsed", call(arg) as comparable data), or ("refused", its refusal's
    text). A history compares as each event's repr with the index of the
    first event that shares its descriptor, any other result as its repr."""
    try:
        got = call(arg)
    except (ParseError, ConfigError) as exc:
        return ("refused", str(exc))
    if isinstance(got, list):
        first: dict = {}
        return "parsed", [(repr(e), first.setdefault(id(e.op), i)) for i, e in enumerate(got)]
    return "parsed", repr(got)


def _read_back(fmt: str, path: Path):
    """The format's reader on the file at path: its records, or its refusal's
    text without the file name that starts it."""
    outcome = _outcome(READERS[fmt], path)
    if outcome[0] == "refused":
        prefix = f"{path}: "
        assert outcome[1].startswith(prefix), outcome
        return ("refused", outcome[1][len(prefix):])
    return outcome


def _whole_text(fmt: str, data: bytes):
    """The format's parser on a file's bytes decoded whole: its records, or
    its refusal's text; a byte that is not UTF-8 is refused, wherever it is,
    with its line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        return ("refused", f"line {lineno}: not UTF-8")
    return _outcome(PARSERS[fmt], text)


def _readme_config() -> str:
    section = README.read_text(encoding="utf-8").split("## Config file format", 1)[1]
    (example,) = re.findall(r"```\n(# .*?)```", section, flags=re.S)
    return example


@pytest.fixture(scope="module")
def corpus() -> list:
    """(format, text) pairs: the README's config example, then the history
    and sidecar of the first two campaign runs at n = 3 of each protocol
    (up to 24 events and 114 messages, so that a case takes well under a
    millisecond)."""
    texts = [("config", _readme_config())]
    for protocol in PROTOCOLS:
        configs = (campaign_config("none", seed, protocol) for seed in range(100))
        for cfg in [c for c in configs if c.n == 3][:2]:
            t = run_simulation(cfg)
            texts += [("history", serialize_history(t.history)),
                      ("sidecar", serialize_message_log(t))]
    return texts


def _rename(rng: random.Random, text: str, pattern: str, names) -> str:
    """text with one match of pattern's group 1, drawn at random, replaced
    by a name drawn from names."""
    found = list(re.finditer(pattern, text, flags=re.M))
    if not found:
        return text
    m = rng.choice(found)
    return text[:m.start(1)] + rng.choice(names) + text[m.end(1):]


def mutate(rng: random.Random, fmt: str, text: str) -> str:
    """One to three mutations of a whole file: lines shuffled, duplicated or
    deleted; a cut at a random character; a character inserted or deleted; a
    key renamed to another key of its format family; a kind (in a config,
    the delay model) swapped for another."""
    for _ in range(rng.randint(1, 3)):
        lines = text.split("\n")
        i = rng.randrange(len(lines))
        at = rng.randrange(len(text) + 1)
        how = rng.randrange(8)
        if how == 0:
            window = lines[i:i + rng.randint(2, 8)]
            rng.shuffle(window)
            text = "\n".join(lines[:i] + window + lines[i + len(window):])
        elif how == 1:
            j = rng.randrange(len(lines) + 1)
            text = "\n".join(lines[:j] + [lines[i]] + lines[j:])
        elif how == 2:
            text = "\n".join(lines[:i] + lines[i + 1:])
        elif how == 3:
            text = text[:at]
        elif how == 4:
            text = text[:at] + rng.choice(CHARS) + text[at:]
        elif how == 5:
            text = text[:at] + text[at + 1:]
        elif fmt == "config":
            if how == 6:
                text = _rename(rng, text, r"^(\w+) =", sorted(files._CONFIG_KEYS))
            else:
                text = _rename(rng, text, r"^delay = (\w+)", sorted(files._DELAY_MODELS))
        elif how == 6:
            text = _rename(rng, text, r'"(\w+)":', FORMAT_KEYS)
        else:
            text = _rename(rng, text, r'"kind":"(\w+)"', KINDS)
    return text


def _read_in_chunks(monkeypatch, size: int) -> None:
    """Make the files that the readers open decode `size` bytes per read."""
    def open_in_chunks(*args, **kwargs):
        f = builtins.open(*args, **kwargs)
        f._CHUNK_SIZE = size  # the bytes a text file reads and decodes at a time
        return f
    monkeypatch.setattr(files, "open", open_in_chunks, raising=False)


def _parse_and_read(corpus, path: Path) -> None:
    """10,000 seeded mutants: each parses or is refused, and the format's
    reader, on the mutant written to path, gives what its parser gives."""
    rng = random.Random("file-fuzz")
    outcomes = {fmt: [0, 0] for fmt in PARSERS}  # format -> [parsed, refused]
    for case in range(10_000):
        fmt, text = rng.choice(corpus)
        mutant = mutate(rng, fmt, text)
        try:
            parsed = _outcome(PARSERS[fmt], mutant)
        except Exception as exc:
            raise AssertionError(f"case {case}: {fmt} mutant {mutant!r}") from exc
        outcomes[fmt][parsed[0] == "refused"] += 1
        path.write_bytes(mutant.encode("utf-8"))
        assert _read_back(fmt, path) == parsed, (case, fmt, mutant)
    assert all(parsed > 100 and refused > 300 for parsed, refused in outcomes.values()), outcomes


def test_every_mutated_file_parses_or_is_refused(corpus, tmp_path):
    _parse_and_read(corpus, tmp_path / "mutant")


def test_every_mutated_file_reads_alike_in_7_byte_chunks(corpus, tmp_path, monkeypatch):
    # lines, and the inserted multi-byte characters, cross read boundaries
    _read_in_chunks(monkeypatch, 7)
    _parse_and_read(corpus, tmp_path / "mutant")


def test_every_mutated_file_gets_a_documented_exit_code(corpus, tmp_path, capsys):
    rng = random.Random("file-fuzz-cli")
    runs = [(corpus[i][1], corpus[i + 1][1]) for i in range(1, len(corpus), 2)]
    hist = tmp_path / "run.jsonl"
    codes = {}
    for case in range(250):
        history, sidecar = rng.choice(runs)
        if rng.random() < 0.5:
            history = mutate(rng, "history", history)
        else:
            sidecar = mutate(rng, "sidecar", sidecar)
        hist.write_text(history, encoding="utf-8")
        sidecar_path(hist).write_text(sidecar, encoding="utf-8")
        for argv in (["check", str(hist), "--mode", "both", "--state-cap", "20000"],
                     ["stats", str(hist)]):
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (EXIT_OK, EXIT_REJECTED, EXIT_UNDECIDED, EXIT_PARSE), (case, argv, err)
            if code == EXIT_PARSE:
                lines = err.splitlines()
                assert len(lines) == 1 and lines[0].startswith("dsmlab: "), (case, argv, err)
            codes[argv[0], code] = codes.get((argv[0], code), 0) + 1
    assert codes.get(("check", EXIT_OK)) and codes.get(("check", EXIT_PARSE)), codes
    assert codes.get(("stats", EXIT_OK)) and codes.get(("stats", EXIT_PARSE)), codes


def _in_line(lineno: int, bad: bytes):
    """A build that puts bytes `bad` after the first character of a line."""
    def build(text: str) -> bytes:
        lines = text.encode().split(b"\n")
        lines[lineno - 1] = lines[lineno - 1][:1] + bad + lines[lineno - 1][1:]
        return b"\n".join(lines)
    return build


# (build the file's bytes from its format's corpus text, the line of the byte
# that is not UTF-8 in them or None). 32 kB of blank lines put the bad byte
# several of the text layer's reads after the malformed line, so that the reader
# has parsed that line before reading it.
BYTE_CASES = {
    "not-utf8-chunks-after-a-malformed-line": (
        lambda text: b"{\n" + text.encode() + b" \n" * (1 << 14) + b"\xff\n",
        lambda text: text.count("\n") + (1 << 14) + 2,
    ),
    "multibyte-cut-at-end-of-file": (
        lambda text: text.encode() + "\u00e9".encode()[:1], lambda text: text.count("\n") + 1
    ),
    "crlf-line-ends": (lambda text: text.replace("\n", "\r\n").encode(), None),
    "no-final-newline": (lambda text: text.rstrip("\n").encode(), None),
    "blank-lines-only": (lambda text: b"\n \r\n\t\n\n", None),
    "empty": (lambda text: b"", None),
    # sequences that a lenient decoder would take: a UTF-16 surrogate (U+D800),
    # an overlong NUL, a code point above U+10FFFF, and a lone continuation byte
    "encoded-surrogate": (_in_line(2, b"\xed\xa0\x80"), lambda text: 2),
    "overlong-nul": (
        lambda text: text.encode() + b"\xc0\x80\n", lambda text: text.count("\n") + 1
    ),
    "above-u10ffff": (_in_line(3, b"\xf4\x90\x80\x80"), lambda text: 3),
    "lone-continuation-byte-on-line-1": (lambda text: b"\x80" + text.encode(), lambda text: 1),
    # the line's "\n" is no part of the string: json reads it as unterminated
    "unterminated-string": (lambda text: text.encode() + b'{"kind":"inv\n', None),
}
# the refusal that the whole text of each format gives for its "unterminated-string" file
UNTERMINATED = {
    "history": "not valid JSON (Unterminated string starting at)",
    "sidecar": "not valid JSON (Unterminated string starting at)",
    "config": """expected key = value, got '{"kind":"inv'""",
}


# the text layer's own read size, io.DEFAULT_BUFFER_SIZE, and 7 bytes
CHUNKS = {"argvalues": [io.DEFAULT_BUFFER_SIZE, 7], "ids": ["module-chunk", "7-byte-chunk"]}


@pytest.mark.parametrize("chunk", **CHUNKS)
@pytest.mark.parametrize("case", list(BYTE_CASES))
@pytest.mark.parametrize("fmt", list(PARSERS))
def test_a_file_read_in_chunks_gives_what_its_whole_text_gives(
    corpus, tmp_path, monkeypatch, fmt, case, chunk
):
    _read_in_chunks(monkeypatch, chunk)
    build, bad_line = BYTE_CASES[case]
    text = next(t for f, t in corpus if f == fmt)
    assert text.endswith("\n")
    path = tmp_path / "file"
    path.write_bytes(build(text))
    whole = _whole_text(fmt, path.read_bytes())
    if bad_line is not None:
        assert whole == ("refused", f"line {bad_line(text)}: not UTF-8")
    if case == "unterminated-string":
        last = text.count("\n") + 1
        assert whole == ("refused", f"line {last}: {UNTERMINATED[fmt]}")
    assert _read_back(fmt, path) == whole


def _feed(w: int, data: bytes) -> None:
    """Write data into a pipe's write end w, then close it. A reader that
    stops early closes the read end, and the write ends there."""
    with suppress(BrokenPipeError), open(w, "wb") as f:
        f.write(data)


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="no /dev/fd to open a pipe by path")
@pytest.mark.parametrize("case", list(BYTE_CASES))
@pytest.mark.parametrize("fmt", list(PARSERS))
def test_a_file_read_through_a_pipe_gives_what_the_file_gives(corpus, tmp_path, fmt, case):
    # a pipe is read once, as it comes; a thread feeds it, because the largest
    # case is larger than a pipe's buffer
    text = next(t for f, t in corpus if f == fmt)
    path = tmp_path / "file"
    path.write_bytes(BYTE_CASES[case][0](text))
    r, w = os.pipe()
    writer = threading.Thread(target=_feed, args=(w, path.read_bytes()))
    writer.start()
    try:
        piped = _read_back(fmt, Path(f"/dev/fd/{r}"))
    finally:
        os.close(r)
        writer.join()
    assert piped == _read_back(fmt, path)


# strict-invalid UTF-8: bytes that never occur, a continuation byte with no
# lead, overlong forms, encoded surrogates, code points above U+10FFFF, and a
# lead byte whose sequence stops short
INVALID = (
    b"\xff", b"\xfe", b"\x80", b"\xbf", b"\xc0\x80", b"\xc1\xbf", b"\xe0\x80\x80",
    b"\xf0\x80\x80\x80", b"\xed\xa0\x80", b"\xed\xbf\xbf", b"\xf4\x90\x80\x80",
    b"\xf5\x80\x80\x80", b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98",
)


@pytest.mark.parametrize("chunk", **CHUNKS)
def test_a_file_with_invalid_bytes_reads_as_its_whole_bytes_decode(
    corpus, tmp_path, monkeypatch, chunk
):
    # 2,000 seeded files: a corpus text, mutated half the time, with 1 to 3
    # invalid sequences inserted at random bytes, then cut at a random byte a
    # third of the time, which may drop the bad bytes or split a character
    _read_in_chunks(monkeypatch, chunk)
    rng = random.Random("invalid-bytes")
    path = tmp_path / "file"
    outcomes = {"not UTF-8": 0, "other refusal": 0, "parsed": 0}
    for case in range(2_000):
        fmt, text = rng.choice(corpus)
        if rng.random() < 0.5:
            text = mutate(rng, fmt, text)
        data = text.encode()
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(data) + 1)
            data = data[:at] + rng.choice(INVALID) + data[at:]
        if rng.random() < 1 / 3:
            data = data[:rng.randrange(len(data) + 1)]
        path.write_bytes(data)
        whole = _whole_text(fmt, data)
        assert _read_back(fmt, path) == whole, (case, fmt, data)
        if whole[0] == "parsed":
            outcomes["parsed"] += 1
        else:
            outcomes["not UTF-8" if whole[1].endswith(": not UTF-8") else "other refusal"] += 1
    assert outcomes["not UTF-8"] > 1_500 and outcomes["other refusal"] > 100, outcomes
    assert outcomes["parsed"] > 10, outcomes
