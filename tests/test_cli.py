"""End-to-end command-line behavior via main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dsmlab import checker, cli, fuzz
from dsmlab.checker import ACCEPTED, REJECTED, UNDECIDED, Verdict
from dsmlab.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CONFIG,
    EXIT_HORIZON,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_REJECTED,
    EXIT_UNDECIDED,
    main,
)
from types import SimpleNamespace

from dsmlab.core import OK, READ, WRITE, Query, Timestamp, TimestampValuePair, Update
from dsmlab.files import (
    read_history,
    serialize_history,
    serialize_message_log,
    sidecar_path,
    write_history,
    write_message_log,
)
from dsmlab.fuzz import CampaignReport, RunOutcome
from dsmlab.simnet import MessageRecord, SimConfig, Workload, op_rounds, run_simulation

from helpers import (
    dense_op_rounds,
    merge_by_rt,
    op_events,
    sc_not_lin,
    strip_ts,
    unstamped_pending_write,
    write_then_stale_read,
)


def _cfg(tmp_path, text="n = 3\nseed = 4\n", name="run.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# --- run -------------------------------------------------------------------------


def test_run_writes_history_and_sidecar(tmp_path, capsys):
    cfg = _cfg(tmp_path)
    assert main(["run", str(cfg)]) == EXIT_OK
    out = capsys.readouterr().out
    hist = tmp_path / "run.jsonl"
    side = tmp_path / "run.msgs.jsonl"
    assert hist.exists() and side.exists()
    assert "protocol sc_abd" in out and "seed=4" in out
    assert "writes completed" in out and "reads completed" in out
    assert "outcome: quiescent" in out
    assert read_history(hist)  # parses back


def test_run_seed_override_and_out_path(tmp_path):
    cfg = _cfg(tmp_path)
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    assert main(["run", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["run", str(cfg), "--seed", "99", "--out", str(out2)]) == EXIT_OK
    assert out1.read_text() != out2.read_text()
    assert main(["run", str(cfg), "--seed", "4", "--out", str(out2)]) == EXIT_OK
    assert out1.read_text() == out2.read_text()


def test_run_on_a_jsonl_config_keeps_the_config(tmp_path, capsys):
    # the default --out swaps the suffix for .jsonl; a .jsonl config gets one appended
    cfg = _cfg(tmp_path, name="cfg.jsonl")
    before = cfg.read_bytes()
    assert main(["run", str(cfg)]) == EXIT_OK
    assert cfg.read_bytes() == before
    assert f"history -> {tmp_path / 'cfg.jsonl.jsonl'}\n" in capsys.readouterr().out
    assert read_history(tmp_path / "cfg.jsonl.jsonl")
    assert (tmp_path / "cfg.jsonl.msgs.jsonl").exists()


@pytest.mark.parametrize(
    "name, out, clash",
    [("c.txt", "c.txt", "c.txt"), ("h.msgs.jsonl", "h.jsonl", "h.msgs.jsonl")],
    ids=["history-is-config", "sidecar-is-config"],
)
def test_run_refuses_to_write_over_its_config(tmp_path, capsys, name, out, clash):
    cfg = _cfg(tmp_path, name=name)
    before = cfg.read_bytes()
    # a path that resolves to the config is refused however it is spelled
    out_path = tmp_path / "sub" / ".." / out
    assert main(["run", str(cfg), "--out", str(out_path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    error = f"{out_path.with_name(clash)}: writing it would overwrite the config"
    assert (captured.out, captured.err) == ("", f"dsmlab: invalid config: {error}\n")
    assert cfg.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_run_round_shapes_in_summary(tmp_path, capsys):
    cfg = _cfg(tmp_path, "n = 5\nseed = 1\nops_per_process = 3\n")
    assert main(["run", str(cfg)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "(rounds: 1)" in out   # writes take one round
    assert "(rounds: 2)" in out   # reads take two


def test_run_invalid_config_exits_3(tmp_path, capsys):
    cfg = _cfg(tmp_path, "protocol = raft\n")
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert "invalid config" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "missing.cfg")]) == EXIT_CONFIG
    # Random(-5) draws as Random(5) does, so a negative seed would replay a positive one
    for text, argv in (("seed = -5\n", []), ("seed = 5\n", ["--seed", "-5"])):
        capsys.readouterr()
        assert main(["run", str(_cfg(tmp_path, text)), *argv]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("dsmlab: invalid config: ")
        assert captured.err.endswith("seed must be >= 0, got -5\n")
        assert not (tmp_path / "run.jsonl").exists()


@pytest.mark.parametrize(
    "text",
    [
        "delay = fixed\ndelay_links = 1>2:4, 1>9:3",  # receiver 9 at n = 3
        "delay = adversarial\nschedule = update:*>self:2; query:7>1:5",  # sender 7
    ],
    ids=["delay_links", "schedule"],
)
def test_run_refuses_a_link_or_rule_pid_outside_1_to_n(tmp_path, capsys, text):
    cfg = _cfg(tmp_path, f"n = 3\n{text}\n")
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert "outside 1..3" in capsys.readouterr().err
    assert not (tmp_path / "run.jsonl").exists()


@pytest.mark.parametrize(
    "text, error",
    [
        ("delay = adversarial\nschedule = query@0:1>2:50", "rid 0 must be >= 1"),
        ("delay = adversarial\nschedule = query@-4:1>2:50", "rid -4 must be >= 1"),
        ("delay = fixed\ndelay_links = 1>2:5, 1>2:7", "link 1>2 is listed twice"),
    ],
    ids=["rule-rid-0", "rule-rid-negative", "link-twice"],
)
def test_run_refuses_a_rule_rid_below_1_or_a_link_listed_twice(tmp_path, capsys, text, error):
    cfg = _cfg(tmp_path, f"n = 3\n{text}\n")
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert error in capsys.readouterr().err
    assert not (tmp_path / "run.jsonl").exists()


@pytest.mark.parametrize(
    "schedule, error",
    [
        ("query:1>2:5; query:1>2:9", "schedule rule 2 never applies: rule 1 covers it"),
        ("update:*>self:1; *@2:3>*:4; ack@2:3>1:9", "schedule rule 3 never applies: rule 2"),
        ("*:*>*:2; query:1>2:5", "schedule rule 2 never applies: rule 1 covers it"),
        ("update:1>self:5; update:1>1:9", "schedule rule 2 never applies: rule 1 covers it"),
        ("update:*>other:1; update:1>2:9", "schedule rule 2 never applies: rule 1 covers it"),
        (
            "update:*>self:1; update:*>other:2; update:*>*:3",
            "schedule rule 3 never applies: rules 1 and 2 cover it",
        ),
    ],
    ids=["repeated", "wildcards", "catch-all-first", "self-pid", "other-pair", "self-and-other"],
)
def test_run_refuses_a_schedule_rule_that_an_earlier_rule_covers(
    tmp_path, capsys, schedule, error
):
    cfg = _cfg(tmp_path, f"n = 3\ndelay = adversarial\nschedule = {schedule}\n")
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert error in capsys.readouterr().err
    assert not (tmp_path / "run.jsonl").exists()


def test_run_horizon_exits_4_but_writes_files(tmp_path, capsys):
    cfg = _cfg(tmp_path, "n = 5\nops_per_process = 4\nmax_ticks = 10\n")
    assert main(["run", str(cfg)]) == EXIT_HORIZON
    captured = capsys.readouterr()
    assert "horizon" in captured.err
    assert (tmp_path / "run.jsonl").exists()
    assert (tmp_path / "run.msgs.jsonl").exists()


def test_run_reports_crashes(tmp_path, capsys):
    cfg = _cfg(tmp_path, "n = 3\nseed = 2\ncrashes = 3@8\n")
    assert main(["run", str(cfg)]) == EXIT_OK
    assert "crashes applied: p3@" in capsys.readouterr().out


def test_run_with_a_crash_past_the_horizon_exits_0(tmp_path, capsys):
    # The crash never applies, and it does not hold the finished run open.
    cfg = _cfg(tmp_path, "n = 3\nseed = 1\ncrashes = 2@5000\nmax_ticks = 1000\n")
    assert main(["run", str(cfg)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "outcome: quiescent" in out and "crashes applied" not in out


# --- check ------------------------------------------------------------------------


def _run_then_history(tmp_path, text="n = 3\nseed = 4\n"):
    cfg = _cfg(tmp_path, text)
    assert main(["run", str(cfg)]) in (EXIT_OK, EXIT_HORIZON)
    return tmp_path / "run.jsonl"


def test_check_accepts_simulated_run(tmp_path, capsys):
    hist = _run_then_history(tmp_path)
    capsys.readouterr()
    assert main(["check", str(hist)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "compositional: accepted" in out
    assert "register r0: accepted" in out


def test_check_rejects_violation_exits_1(tmp_path, capsys):
    hist = tmp_path / "bad.jsonl"
    write_history(hist, write_then_stale_read())
    assert main(["check", str(hist)]) == EXIT_REJECTED
    out = capsys.readouterr().out
    assert "compositional: rejected" in out
    assert "register x: rejected" in out


def test_check_mode_both_agreement(tmp_path, capsys):
    hist = tmp_path / "h.jsonl"
    write_history(hist, sc_not_lin())
    assert main(["check", str(hist), "--mode", "both"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "compositional: accepted" in out
    assert "bruteforce: accepted" in out
    assert "agreement: yes" in out

    write_history(hist, write_then_stale_read())
    assert main(["check", str(hist), "--mode", "both"]) == EXIT_REJECTED
    assert "agreement: yes" in capsys.readouterr().out

    # a pending write without a ts is kept, so the read that saw it is legal
    write_history(hist, unstamped_pending_write())
    assert len(hist.read_text(encoding="utf-8").splitlines()) == 3
    assert main(["check", str(hist), "--mode", "both"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "note: 1 pending operation(s) resolved before checking\n"
        "compositional: accepted\n  register x: accepted\n"
        "bruteforce: accepted\nagreement: yes\n"
    )


def test_check_disagreement_exits_1(tmp_path, capsys, monkeypatch):
    hist = tmp_path / "h.jsonl"
    write_history(hist, sc_not_lin())

    def flipped(h, op_cap):
        return Verdict(REJECTED)

    monkeypatch.setattr(cli, "check_sc_bruteforce", flipped)
    assert main(["check", str(hist), "--mode", "both"]) == EXIT_REJECTED
    captured = capsys.readouterr()
    assert captured.out == "compositional: accepted\n  register x: accepted\nbruteforce: rejected\n"
    assert captured.err == (
        "dsmlab: checker disagreement: compositional says accepted, brute force says rejected\n"
    )


def test_check_bruteforce_cap_exits_2(tmp_path, capsys):
    events = []
    for i in range(11):
        events += op_events(i + 1, 1, WRITE, "x", arg=i, ret=OK, ts=(i + 1, 1),
                            inv=(2 * i, 2 * i + 1), res=(2 * i + 1, 2 * i + 2))
    hist = tmp_path / "big.jsonl"
    write_history(hist, events)
    assert main(["check", str(hist), "--mode", "bruteforce"]) == EXIT_UNDECIDED
    assert "cap" in capsys.readouterr().err
    assert main(["check", str(hist), "--mode", "bruteforce", "--op-cap", "11"]) == EXIT_OK


def test_check_state_cap_can_force_undecided(tmp_path, capsys):
    # strip instrumentation so the checker has to search, then starve it
    hist = _run_then_history(tmp_path, "n = 3\nseed = 6\nops_per_process = 3\n")
    stripped = []
    for line in hist.read_text().splitlines():
        rec = json.loads(line)
        rec["ts"] = None
        stripped.append(json.dumps(rec, separators=(",", ":")))
    hist.write_text("\n".join(stripped) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["check", str(hist), "--state-cap", "1"])
    assert code == EXIT_UNDECIDED
    assert "undecided" in capsys.readouterr().out


def test_check_state_cap_0_leaves_the_fast_path_alone(tmp_path, capsys):
    hist = _run_then_history(tmp_path)
    capsys.readouterr()
    assert main(["check", str(hist), "--state-cap", "0"]) == EXIT_OK
    assert "compositional: accepted" in capsys.readouterr().out
    write_history(hist, strip_ts(read_history(hist)))
    assert main(["check", str(hist), "--state-cap", "0"]) == EXIT_UNDECIDED
    assert "search cap hit after 0 states" in capsys.readouterr().out


def _untimestamped_register_file(tmp_path, ops_per_process):
    cfg = SimConfig(n=5, seed=0, workload=Workload(
        ops_per_process=ops_per_process, read_fraction=0.5, register_count=1, think_time=0))
    hist = tmp_path / "bare.jsonl"
    write_history(hist, strip_ts(run_simulation(cfg).history))
    assert '"ts":[' not in hist.read_text(encoding="utf-8")
    return hist


def test_check_decides_2000_op_untimestamped_register(tmp_path, capsys):
    hist = _untimestamped_register_file(tmp_path, 400)
    assert main(["check", str(hist)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "compositional: accepted" in out and "register r0: accepted" in out


def test_check_capped_search_on_long_register_exits_2(tmp_path, capsys):
    hist = _untimestamped_register_file(tmp_path, 400)
    assert main(["check", str(hist), "--state-cap", "100"]) == EXIT_UNDECIDED
    out = capsys.readouterr().out
    assert "compositional: undecided" in out
    assert "search cap hit after 100 states" in out


def test_check_bruteforce_undecided_exits_2(tmp_path, capsys, monkeypatch):
    hist = tmp_path / "h.jsonl"
    write_history(hist, sc_not_lin())
    monkeypatch.setattr(checker, "DEFAULT_STATE_CAP", 1)
    assert main(["check", str(hist), "--mode", "bruteforce"]) == EXIT_UNDECIDED
    assert "bruteforce: undecided" in capsys.readouterr().out
    assert main(["check", str(hist), "--mode", "both"]) == EXIT_OK
    assert "agreement: oracle undecided, compositional decided" in capsys.readouterr().out


def test_check_pending_note(tmp_path, capsys):
    cfg = _cfg(tmp_path, "n = 3\nseed = 3\ncrashes = 2@3\nmid_op_crash = true\nthink_time = 0\nops_per_process = 3\n")
    assert main(["run", str(cfg)]) == EXIT_OK
    hist = tmp_path / "run.jsonl"
    capsys.readouterr()
    code = main(["check", str(hist)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    if "pending" in out:
        assert "resolved before checking" in out


@pytest.fixture
def wellformed_passes(monkeypatch):
    """One entry per well-formedness pass, counted as the benchmark's tracer
    counts them: by wrapping is_well_formed where checker and cli look it up."""
    passes = []
    for module in (checker, cli):
        def counted(h, original=module.is_well_formed):
            passes.append(len(h))
            return original(h)
        monkeypatch.setattr(module, "is_well_formed", counted)
    return passes


def test_each_command_and_campaign_run_validates_its_history_once(
    tmp_path, capsys, wellformed_passes
):
    # two registers, a pending write to resolve, few enough ops for the oracle
    cfg = _cfg(tmp_path, "n = 3\nseed = 4\ncrashes = 2@3\nmid_op_crash = true\n"
                         "think_time = 0\nops_per_process = 3\nregister_count = 2\n")
    assert main(["run", str(cfg)]) == EXIT_OK
    hist = str(tmp_path / "run.jsonl")
    assert {e.op.reg for e in read_history(hist)} == {"r0", "r1"}
    capsys.readouterr()
    for argv in (["check", hist], ["check", hist, "--mode", "both"],
                 ["check", hist, "--mode", "bruteforce"], ["stats", hist]):
        wellformed_passes.clear()
        assert main(argv) == EXIT_OK, argv
        assert len(wellformed_passes) == 1, argv
        out = capsys.readouterr().out
        assert argv[0] == "stats" or "note: 1 pending operation(s) resolved" in out
    # the four shapes of the benchmark's campaign cycle, at its seeds
    for seed, protocol, mutant in ((0, "sc_abd", "none"), (4, "mw_abd", "none"),
                                   (6, "sc_abd", "small-quorum"), (7, "sc_abd", "no-writeback")):
        wellformed_passes.clear()
        assert fuzz.run_campaign(1, mutant, seed, protocol).runs == 1
        assert len(wellformed_passes) == 1, (protocol, mutant)


def test_check_parse_error_exits_5(tmp_path, capsys):
    bad = tmp_path / "junk.jsonl"
    bad.write_text("not json\n", encoding="utf-8")
    assert main(["check", str(bad)]) == EXIT_PARSE
    assert main(["check", str(tmp_path / "missing.jsonl")]) == EXIT_PARSE


# --- refusals ----------------------------------------------------------------------


def _append_line(path, data: bytes) -> int:
    """Append one line of raw bytes to the file at path; its line number."""
    lineno = len(path.read_bytes().splitlines()) + 1
    with path.open("ab") as f:
        f.write(data + b"\n")
    return lineno


def _history_not_utf8(tmp_path):
    hist = tmp_path / "h.jsonl"
    write_history(hist, write_then_stale_read())
    lineno = _append_line(hist, b'{"kind":"inv","reg":"\xff"}')
    return [str(hist)], f"h.jsonl: line {lineno}: not UTF-8"


def _sidecar_not_utf8(tmp_path):
    hist = _run_then_history(tmp_path)
    lineno = _append_line(sidecar_path(hist), b"\x80")
    return [str(hist)], f"run.msgs.jsonl: line {lineno}: not UTF-8"


def _config_not_utf8(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"n = 3\n# caf\xe9\n")
    return [str(cfg)], "run.cfg: line 2: not UTF-8"


def _out_in_missing_directory(tmp_path):
    out = tmp_path / "missing" / "h.jsonl"
    return [str(_cfg(tmp_path)), "--out", str(out)], "h.jsonl: cannot write"


def _lt_backward(tmp_path):
    # p1's response carries a smaller lt than its invocation
    hist = tmp_path / "h.jsonl"
    w = op_events(1, 1, WRITE, "x", arg=1, ret=OK, ts=(5, 1), inv=(0, 5), res=(1, 4))
    write_history(hist, w)
    return [str(hist)], "logical times at process 1 not strictly increasing (5 then 4)"


@pytest.mark.parametrize(
    "command, make_input, code",
    [
        ("check", _history_not_utf8, EXIT_PARSE),
        ("stats", _history_not_utf8, EXIT_PARSE),
        ("stats", _sidecar_not_utf8, EXIT_PARSE),
        ("run", _config_not_utf8, EXIT_CONFIG),
        ("run", _out_in_missing_directory, EXIT_CONFIG),
        ("check", _lt_backward, EXIT_PARSE),
    ],
    ids=[
        "check-history-not-utf8", "stats-history-not-utf8", "stats-sidecar-not-utf8",
        "run-config-not-utf8", "run-out-in-missing-directory", "check-lt-backward",
    ],
)
def test_hostile_input_exits_with_its_documented_code(
    tmp_path, capsys, command, make_input, code
):
    args, error = make_input(tmp_path)
    capsys.readouterr()
    assert main([command, *args]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith("dsmlab: ") and error in line


@pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="no /dev/stdin to name a pipe by")
@pytest.mark.parametrize("command", ["check", "stats"])
def test_a_piped_history_that_is_not_utf8_is_refused_with_its_line(command):
    # `cat run.jsonl | dsmlab check /dev/stdin`: stdin is a pipe, read once
    t = run_simulation(SimConfig(n=3, seed=4, workload=Workload(ops_per_process=3)))
    lines = serialize_history(t.history).encode().split(b"\n")
    lines[4] = lines[4][:1] + b"\xff" + lines[4][1:]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "dsmlab", command, "/dev/stdin"], env=env,
                          input=b"\n".join(lines), capture_output=True, timeout=120)
    assert done.returncode == EXIT_PARSE
    assert done.stderr.decode() == "dsmlab: /dev/stdin: line 5: not UTF-8\n"


# --- fuzz -------------------------------------------------------------------------


def test_fuzz_zero_runs(capsys):
    assert main(["fuzz", "--runs", "0"]) == EXIT_OK
    assert capsys.readouterr().out == "fuzz: 0 runs, protocol sc_abd, mutant none\n"


def test_fuzz_clean_campaign(capsys):
    assert main(["fuzz", "--runs", "25", "--protocol", "mw_abd"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("fuzz: 25 runs, protocol mw_abd, mutant none, seeds 0..24\n")
    assert "accepted: 25/25" in out
    assert "clock audit failures: 0" in out
    assert "SOUNDNESS" not in out


def test_fuzz_small_quorum_campaign(capsys):
    assert main(["fuzz", "--runs", "30", "--mutant", "small-quorum"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "rejected:" in out and "first seed" in out
    assert "confirmed" in out
    assert "SOUNDNESS" not in out


def test_fuzz_no_writeback_campaign(capsys):
    assert main(["fuzz", "--runs", "20", "--mutant", "no-writeback"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "visibility audit failures:" in out
    assert "(first seed 0)" in out


def test_fuzz_mutant_campaign_simulates_the_chosen_protocol(capsys, monkeypatch):
    # Mutant campaigns once simulated sc_abd whatever --protocol said.
    for mutant in ("small-quorum", "no-writeback"):
        assert fuzz.campaign_config(mutant, 0, "mw_abd").protocol == "mw_abd"
    traces = []

    def recording(cfg):
        traces.append(run_simulation(cfg))
        return traces[-1]

    monkeypatch.setattr(fuzz, "run_simulation", recording)
    argv = ["fuzz", "--runs", "5", "--protocol", "mw_abd", "--mutant", "small-quorum"]
    assert main(argv) == EXIT_OK
    assert "protocol mw_abd, mutant small-quorum" in capsys.readouterr().out
    assert len(traces) == 5
    for t in traces:
        assert (t.protocol, t.config.mutant) == ("mw_abd", "small-quorum")
        assert json.loads(serialize_message_log(t).splitlines()[0])["protocol"] == "mw_abd"
        # mw_abd writes query first: two rounds each
        writes = [o for o, d in t.completed().items() if d.kind == WRITE]
        assert writes and all(t.rounds[o] == 2 for o in writes)


FUZZ_PINS = {  # argv after `fuzz --runs 60` -> stdout; every one exits 0
    "--mutant small-quorum": (
        "fuzz: 60 runs, protocol sc_abd, mutant small-quorum, seeds 0..59\n"
        "accepted: 18/60\n"
        "rejected: 42 (first seed 1; oracle confirmed 25, first 5, conservative 17,"
        " beyond oracle cap 0)\n"
        "clock audit failures: 0\n"
        "visibility audit failures: 45 (first seed 0)\n"
    ),
    "--mutant small-quorum --protocol mw_abd": (
        "fuzz: 60 runs, protocol mw_abd, mutant small-quorum, seeds 0..59\n"
        "accepted: 9/60\n"
        "rejected: 51 (first seed 0; oracle confirmed 37, first 1, conservative 14,"
        " beyond oracle cap 0)\n"
        "clock audit failures: 0\n"
        "visibility audit failures: 51 (first seed 0)\n"
    ),
    "--mutant no-writeback": (
        "fuzz: 60 runs, protocol sc_abd, mutant no-writeback, seeds 0..59\n"
        "accepted: 36/60\n"
        "rejected: 24 (first seed 0; oracle confirmed 0, conservative 0,"
        " beyond oracle cap 24)\n"
        "clock audit failures: 0\n"
        "visibility audit failures: 24 (first seed 0)\n"
    ),
    "--protocol mw_abd": (
        "fuzz: 60 runs, protocol mw_abd, mutant none, seeds 0..59\n"
        "accepted: 60/60\n"
        "clock audit failures: 0\n"
        "visibility audit failures: 0\n"
    ),
}


@pytest.mark.parametrize("flags", FUZZ_PINS)
def test_fuzz_stdout_is_pinned(capsys, flags):
    # together: every clause of the rejected: line, and the visibility line's first seed
    assert main(["fuzz", "--runs", "60", *flags.split()]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == FUZZ_PINS[flags]
    assert captured.err == ""


def _stub_campaign(monkeypatch, **outcome):
    fields = dict(seed=0, verdict=ACCEPTED, clock_ok=True, visibility_ok=True,
                  quiescent=True, ops=4)
    fields.update(outcome)

    def run_campaign(runs, mutant, seed0, protocol):
        return CampaignReport(protocol=protocol, mutant=mutant, outcomes=[RunOutcome(**fields)])

    monkeypatch.setattr(cli, "run_campaign", run_campaign)


def test_fuzz_soundness_violation_exits_1(capsys, monkeypatch):
    _stub_campaign(monkeypatch, oracle=REJECTED)
    assert main(["fuzz", "--runs", "1"]) == EXIT_REJECTED
    assert "SOUNDNESS VIOLATIONS at seeds [0]" in capsys.readouterr().out
    assert main(["fuzz", "--runs", "1", "--mutant", "small-quorum"]) == EXIT_REJECTED


def test_fuzz_rejection_exits_1_only_without_mutant(capsys, monkeypatch):
    # confirmed by the oracle, overturned by it, or beyond its op cap
    for oracle in (REJECTED, ACCEPTED, None):
        _stub_campaign(monkeypatch, verdict=REJECTED, oracle=oracle)
        assert main(["fuzz", "--runs", "1"]) == EXIT_REJECTED
        assert "rejected: 1 (first seed 0;" in capsys.readouterr().out
        assert main(["fuzz", "--runs", "1", "--mutant", "small-quorum"]) == EXIT_OK


def test_fuzz_counts_undecided_runs(capsys, monkeypatch):
    _stub_campaign(monkeypatch, verdict=UNDECIDED)
    assert main(["fuzz", "--runs", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "accepted: 0/1\nundecided: 1\nclock audit failures: 0\n" in out


def test_campaign_config_refuses_an_unknown_mutant():
    with pytest.raises(ValueError, match="^unknown mutant 'bogus'$"):
        fuzz.campaign_config("bogus", 0)


def test_fuzz_audit_failure_exits_1_only_without_mutant(capsys, monkeypatch):
    for failure in ({"clock_ok": False}, {"visibility_ok": False}):
        _stub_campaign(monkeypatch, **failure)
        assert main(["fuzz", "--runs", "1"]) == EXIT_REJECTED
        assert main(["fuzz", "--runs", "1", "--mutant", "no-writeback"]) == EXIT_OK
    _stub_campaign(monkeypatch)
    assert main(["fuzz", "--runs", "1"]) == EXIT_OK


# --- stats -------------------------------------------------------------------------


def test_stats_with_sidecar(tmp_path, capsys):
    hist = _run_then_history(tmp_path, "n = 3\nseed = 5\nops_per_process = 3\n")
    capsys.readouterr()
    assert main(["stats", str(hist)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "operations:" in out
    assert "write rounds: 1 round(s)" in out
    assert "read rounds: 2 round(s)" in out
    assert "latency ticks" in out
    assert "dropped:" in out


def test_stats_refuses_a_sidecar_field_that_the_kind_cannot_carry(tmp_path, capsys):
    hist = _run_then_history(tmp_path)
    side = tmp_path / "run.msgs.jsonl"
    lines = side.read_text(encoding="utf-8").splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith('{"kind":"ack"'))
    lines[i] = lines[i].replace('"reg":null,"ts":null,"val":null', '"reg":"r0","ts":[1,1],"val":5')
    side.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["stats", str(hist)]) == EXIT_PARSE
    assert f"line {i + 1}: ack record must have reg null" in capsys.readouterr().err


@pytest.mark.parametrize(
    "record, error",
    [
        (lambda line: line.replace('"ts":', '"ts ":'),
         "bad keys (missing ['ts'], unexpected ['ts '])"),
        (lambda line: "[]", "record is not an object"),
    ],
    ids=["renamed-key", "not-an-object"],
)
def test_stats_refuses_a_sidecar_record_without_the_format_keys(
    tmp_path, capsys, record, error
):
    # the history's two refusal texts, from the one record-line loop
    hist = _run_then_history(tmp_path)
    side = sidecar_path(hist)
    header, first = side.read_text(encoding="utf-8").splitlines()[:2]
    side.write_text(f"{header}\n{record(first)}\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["stats", str(hist)]) == EXIT_PARSE
    assert capsys.readouterr().err.splitlines() == [f"dsmlab: {side}: line 2: {error}"]


def test_stats_without_sidecar(tmp_path, capsys):
    hist = _run_then_history(tmp_path)
    (tmp_path / "run.msgs.jsonl").unlink()
    capsys.readouterr()
    assert main(["stats", str(hist)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "no message-log sidecar" in captured.err
    assert "rounds" not in captured.out


def test_stats_parse_error(tmp_path):
    bad = tmp_path / "junk.jsonl"
    bad.write_text("{}\n", encoding="utf-8")
    assert main(["stats", str(bad)]) == EXIT_PARSE


def test_stats_refuses_ill_formed_history(tmp_path, capsys):
    # p1 invokes a second op before its first responds
    w = op_events(1, 1, WRITE, "x", arg=1, ret=OK, ts=(1, 1), inv=(1, 1), res=(4, 4))
    r = op_events(2, 1, READ, "x", ret=1, ts=(1, 1), inv=(2, 2), res=(3, 3))
    hist = tmp_path / "overlap.jsonl"
    write_history(hist, merge_by_rt(w, r))
    for command in ("stats", "check"):
        assert main([command, str(hist)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert "unusable history: history is not well formed" in captured.err
        assert captured.out == ""


def _hostile_run():
    """p1 writes (ticks 10-20) and then reads (30-40); p2 and p3 invoke
    nothing. Besides the ops' own phases the log holds a query from p2, which
    has no invocation, a query from p1 before its first invocation, and an
    update from p1 after its write's response."""
    w = op_events(1, 1, WRITE, "x", arg=5, ret=OK, ts=(1, 1), inv=(10, 1), res=(20, 4))
    r = op_events(2, 1, READ, "x", ret=5, ts=(1, 1), inv=(30, 5), res=(40, 9))
    tsv = TimestampValuePair(Timestamp(1, 1), 5)

    def sent(msg_type, rid, rt, sender=1, **fields):
        msg = msg_type(sender=sender, receiver=1, lt=1, rid=rid, reg="x", **fields)
        return MessageRecord(msg=msg, send_rt=rt, recv_rt=rt + 1, recv_lt=2, handled=True)

    records = [
        sent(Query, 1, 12, sender=2),     # p2 never invoked anything
        sent(Query, 1, 5),                # before p1's first invocation
        sent(Update, 1, 10, tsv=tsv),     # the write's one round
        sent(Update, 1, 11, tsv=tsv),     # same rid again: still one round
        sent(Update, 9, 25, tsv=tsv),     # after the write's response
        sent(Query, 2, 30),               # the read's query round
        sent(Update, 3, 35, tsv=tsv),     # the read's write-back round
    ]
    return merge_by_rt(w, r), records


def test_op_rounds_ignores_sends_outside_every_op():
    history, records = _hostile_run()
    assert op_rounds(history, records) == {1: 1, 2: 2} == dense_op_rounds(history, records)


def test_stats_on_hostile_sidecar(tmp_path, capsys):
    history, records = _hostile_run()
    hist = tmp_path / "hostile.jsonl"
    write_history(hist, history)
    write_message_log(
        sidecar_path(hist), SimpleNamespace(config=SimConfig(n=3), message_log=records)
    )
    assert main(["stats", str(hist)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "write rounds: 1 round(s) x1" in captured.out
    assert "read rounds: 2 round(s) x1" in captured.out
    assert "Traceback" not in captured.err


def test_check_deeply_nested_line_exits_5(tmp_path, capsys):
    hist = tmp_path / "deep.jsonl"
    hist.write_text("[" * 200_000 + "\n", encoding="utf-8")
    assert main(["check", str(hist)]) == EXIT_PARSE
    assert "nested too deeply" in capsys.readouterr().err


def test_stats_deeply_nested_line_exits_5(tmp_path, capsys):
    hist = tmp_path / "deep.jsonl"
    hist.write_text("[" * 200_000 + "\n", encoding="utf-8")
    assert main(["stats", str(hist)]) == EXIT_PARSE
    hist = _run_then_history(tmp_path)
    side = tmp_path / "run.msgs.jsonl"
    header = side.read_text(encoding="utf-8").splitlines()[0]
    side.write_text(header + "\n" + "[" * 200_000 + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["stats", str(hist)]) == EXIT_PARSE
    assert "nested too deeply" in capsys.readouterr().err


def test_entry_point_requires_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_CONFIG
    assert "required: command" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, error",
    [
        (["run", "x.cfg", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        (["check", "h.jsonl", "--mode", "bogus"], "argument --mode: invalid choice: 'bogus'"),
        (["fuzz", "--mutant", "bogus"], "argument --mutant: invalid choice: 'bogus'"),
        (["stats", "h.jsonl", "--bogus"], "unrecognized arguments: --bogus"),
        (["check", "h.jsonl", "--state-cap", "-3"], "argument --state-cap: must be >= 0, got -3"),
        (["check", "h.jsonl", "--op-cap", "-1", "--mode", "both"],
         "argument --op-cap: must be >= 0, got -1"),
        (["fuzz", "--runs", "-3"], "dsmlab fuzz: error: argument --runs: must be >= 0, got -3"),
        (["fuzz", "--seed0", "-1"], "dsmlab fuzz: error: argument --seed0: must be >= 0, got -1"),
    ],
    ids=[
        "run", "check", "fuzz", "stats", "check-state-cap", "check-op-cap", "fuzz-runs",
        "fuzz-seed0",
    ],
)
def test_usage_error_exits_3_not_the_undecided_code(capsys, argv, error):
    # exit 2 means "verdict unavailable"; a typo must not read as one
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("usage: dsmlab") and error in captured.err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: dsmlab check")


def test_python_m_dsmlab_exits_with_mains_code(tmp_path):
    # `python -m dsmlab` runs __main__, which hands main's code to sys.exit via console_main
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def dsmlab(*argv):
        return subprocess.run([sys.executable, "-m", "dsmlab", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)

    done = dsmlab("fuzz", "--runs", "0")
    assert (done.returncode, done.stdout, done.stderr) == (
        EXIT_OK, "fuzz: 0 runs, protocol sc_abd, mutant none\n", ""
    )
    helped = dsmlab("check", "--help")
    assert (helped.returncode, helped.stderr) == (EXIT_OK, "")
    assert helped.stdout.startswith("usage: dsmlab check")
    for argv, code, error in (
        (["check", "h.jsonl", "--mode", "bogus"], EXIT_CONFIG,
         "dsmlab check: error: argument --mode: invalid choice: 'bogus'"),
        (["check", "missing.jsonl"], EXIT_PARSE, "dsmlab: missing.jsonl: "),
    ):
        refused = dsmlab(*argv)
        assert (refused.returncode, refused.stdout) == (code, "")
        assert "Traceback" not in refused.stderr
        (line,) = [ln for ln in refused.stderr.splitlines() if ln.startswith("dsmlab")]
        assert line.startswith(error)


def test_a_closed_stdout_exits_141_without_a_traceback(tmp_path):
    # `dsmlab stats run.jsonl | head -1`, made deterministic: the pipe's read end is closed
    # before the child starts, so its first write to stdout fails. The child's stdout is
    # block-buffered, as a shell's pipe gives it, or unbuffered (PYTHONUNBUFFERED, python -u),
    # where argparse's own printing of --help would swallow the write's error.
    base = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    base["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    t = run_simulation(SimConfig(n=3, seed=4, workload=Workload(ops_per_process=3)))
    write_history(tmp_path / "run.jsonl", t.history)
    write_message_log(sidecar_path(tmp_path / "run.jsonl"), t)
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        env = {**base, **unbuffered}
        for argv in (["check", "run.jsonl"], ["stats", "run.jsonl"], ["fuzz", "--runs", "3"],
                     ["--help"], ["check", "--help"]):
            r, w = os.pipe()
            os.close(r)
            try:
                done = subprocess.run([sys.executable, "-m", "dsmlab", *argv], cwd=tmp_path,
                                      env=env, stdout=w, stderr=subprocess.PIPE, text=True,
                                      timeout=120)
            finally:
                os.close(w)
            assert (done.returncode, done.stderr) == (EXIT_BROKEN_PIPE, ""), (argv, unbuffered)


def test_both_exit_code_tables_list_exactly_the_exit_codes():
    # the README's table and the module docstring's: no code ships undocumented,
    # and neither table lists a code that main cannot return
    codes = {v for k, v in vars(cli).items() if k.startswith("EXIT_")}
    assert codes == {0, 1, 2, 3, 4, 5, 141}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Exit codes\n", 1)[1].strip().split("\n\n")[0]
    assert [int(row.split("|")[1]) for row in table.splitlines()[2:]] == sorted(codes)
    doc = cli.__doc__.split("Exit codes are part of the interface:\n\n", 1)[1].split("\n\n")[0]
    listed = [int(ln.split()[0]) for ln in doc.splitlines() if ln.split()[0].isdigit()]
    assert listed == sorted(codes)
