"""Seeded mutations of whole input files: histories and sidecars of campaign
runs, and the README's example config. Every mutant either parses or is
refused with ParseError or ConfigError, and through the CLI, `check` and
`stats` exit only with a documented code, an exit 5 with one stderr line."""

import random
import re
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


def test_every_mutated_file_parses_or_is_refused(corpus):
    rng = random.Random("file-fuzz")
    outcomes = {fmt: [0, 0] for fmt in PARSERS}  # format -> [parsed, refused]
    for case in range(10_000):
        fmt, text = rng.choice(corpus)
        mutant = mutate(rng, fmt, text)
        try:
            PARSERS[fmt](mutant)
        except (ParseError, ConfigError):
            outcomes[fmt][1] += 1
        except Exception as exc:
            raise AssertionError(f"case {case}: {fmt} mutant {mutant!r}") from exc
        else:
            outcomes[fmt][0] += 1
    assert all(parsed > 100 and refused > 300 for parsed, refused in outcomes.values()), outcomes


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
