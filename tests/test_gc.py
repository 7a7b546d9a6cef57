"""The cyclic garbage collector's premise: nothing dsmlab builds forms a
reference cycle, so `dsmlab.cli.main` may run each command with the
collector paused and leave all freeing to reference counting.

With the collector disabled, `gc.collect()` after a library call must find
nothing unreachable. After `main`, it must find exactly what parsing the
same argv alone leaves: argparse's parser and its actions refer to one
another, and those cycles are the collector's to free once it resumes.
Every case runs on a small and a larger input, so garbage that grew with
the input would show."""

from __future__ import annotations

import gc

import pytest

from dsmlab import cli
from dsmlab.checker import (
    OracleCapError,
    check_sc_bruteforce,
    check_sc_compositional,
    complete_history,
)
from dsmlab.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_REJECTED,
    EXIT_UNDECIDED,
    build_parser,
    main,
)
from dsmlab.files import (
    read_history,
    read_message_log,
    sidecar_path,
    write_history,
    write_message_log,
)
from dsmlab.fuzz import campaign_config, run_campaign
from dsmlab.protocol import MUTANTS, PROTOCOLS
from dsmlab.simnet import SimConfig, UniformDelay, Workload, run_simulation

from helpers import strip_ts, write_then_stale_read

SEEDS = range(2)  # run_campaign below covers 50 seeds of each mutant


@pytest.fixture
def paused():
    """The collector off for one test, with no garbage left from before:
    from then on each gc.collect() counts what was made since the last."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if was:
        gc.enable()


def _configs():
    for protocol in PROTOCOLS:
        for mutant in MUTANTS:
            for seed in SEEDS:
                yield campaign_config(mutant, seed, protocol)
    # a larger run than any campaign makes: n=5, 500 ops, 2 registers
    yield SimConfig(n=5, seed=3, delay=UniformDelay(1, 10),
                    workload=Workload(ops_per_process=100, register_count=2))


def test_library_pipeline_leaves_no_cycles(tmp_path, paused):
    hist = tmp_path / "h.jsonl"
    for cfg in _configs():
        trace = run_simulation(cfg)
        assert gc.collect() == 0, cfg
        write_history(hist, trace.history)
        write_message_log(sidecar_path(hist), trace)
        assert gc.collect() == 0, cfg
        read_message_log(sidecar_path(hist))
        history = complete_history(read_history(hist))
        assert gc.collect() == 0, cfg
        check_sc_compositional(history)
        try:
            check_sc_bruteforce(history)
        except OracleCapError:  # past its op cap the oracle only raises
            pass
        assert gc.collect() == 0, cfg
        check_sc_compositional(strip_ts(history))  # no timestamps: the search decides
        assert gc.collect() == 0, cfg


@pytest.mark.parametrize("mutant", MUTANTS)
def test_campaign_leaves_no_cycles(paused, mutant):
    assert run_campaign(50, mutant).runs == 50
    assert gc.collect() == 0


def _commands(tmp_path):
    """argv of every command, on a small and on a larger run: `run` writes
    the history file that the commands after it read."""
    for name, n, ops, runs in (("small", 3, 3, 5), ("large", 5, 100, 50)):
        cfg, hist = tmp_path / f"{name}.cfg", tmp_path / f"{name}.jsonl"
        cfg.write_text(f"n = {n}\nseed = 5\nops_per_process = {ops}\nregister_count = 2\n",
                       encoding="utf-8")
        yield ["run", str(cfg)]
        for mode in ("compositional", "bruteforce", "both"):
            yield ["check", str(hist), "--mode", mode]
        yield ["stats", str(hist)]
        yield ["fuzz", "--runs", str(runs)]


def test_main_leaves_only_the_parsers_cycles(tmp_path, capsys, paused):
    for argv in _commands(tmp_path):
        build_parser().parse_args(argv)
        parser_only = gc.collect()
        assert parser_only > 0  # argparse's cycles: the comparison is not vacuous
        code = main(argv)
        assert gc.collect() == parser_only, argv
        assert code in (EXIT_OK, EXIT_UNDECIDED), (argv, capsys.readouterr())
        assert not gc.isenabled()
    capsys.readouterr()


def _exits(tmp_path):
    """(argv, exit code) for each code main returns here."""
    hist, bad, cfg = tmp_path / "h.jsonl", tmp_path / "bad.jsonl", tmp_path / "bad.cfg"
    write_history(hist, strip_ts(write_then_stale_read()[:2]))
    write_history(bad, write_then_stale_read())
    cfg.write_text("n = 0\n", encoding="utf-8")
    return [
        (["check", str(hist)], EXIT_OK),
        (["check", str(bad)], EXIT_REJECTED),
        (["check", str(hist), "--state-cap", "0"], EXIT_UNDECIDED),
        (["run", str(cfg)], EXIT_CONFIG),
        (["stats", str(tmp_path / "missing.jsonl")], EXIT_PARSE),
    ]


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_main_restores_the_callers_collector_state(tmp_path, capsys, monkeypatch, enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, code in _exits(tmp_path):
            assert main(argv) == code, (argv, capsys.readouterr())
            assert gc.isenabled() is enabled, argv
        with pytest.raises(SystemExit) as usage:
            main(["check", str(tmp_path / "h.jsonl"), "--state-cap", "-1"])
        assert usage.value.code == EXIT_CONFIG
        assert gc.isenabled() is enabled

        def boom(args):
            assert not gc.isenabled()
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_stats", boom)
        with pytest.raises(RuntimeError, match="boom"):
            main(["stats", "any.jsonl"])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
