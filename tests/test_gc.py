"""The cyclic garbage collector's premise: nothing dsmlab builds forms a
reference cycle, so `dsmlab.simnet.acyclic` may pause the collector around
`dsmlab.cli.main`, `run_simulation` and `run_campaign` and leave all freeing
to reference counting. Each paused call restores the caller's setting, and
runs the young pass that its own allocations made due before it returns.

With the collector disabled, `gc.collect()` after a library call must find
nothing unreachable. After `main`, it must find exactly what parsing the
same argv alone leaves: argparse's parser and its actions refer to one
another, and those cycles are the collector's to free once it resumes.
Every case runs on a small and a larger input, so garbage that grew with
the input would show; the library pipeline also runs at the benchmark's
large-run shape, the size the pause serves."""

from __future__ import annotations

import gc

import pytest

from dsmlab import cli, fuzz
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
from dsmlab.simnet import ConfigError, SimConfig, UniformDelay, Workload, run_simulation

from helpers import strip_ts, write_then_stale_read

SEEDS = range(2)  # run_campaign below covers 50 seeds of each mutant
# the benchmark's large-run shape: n=7, 2,800 ops, 2 registers
LARGE_RUN = SimConfig(n=7, seed=1, delay=UniformDelay(1, 10),
                      workload=Workload(ops_per_process=400, register_count=2))


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
    yield LARGE_RUN


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


@pytest.fixture(params=[True, False], ids=["on", "off"])
def collector(request):
    """The collector on or off for one test, as the parameter says, and
    the caller's setting back afterwards."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def test_main_restores_the_callers_collector_state(tmp_path, capsys, monkeypatch, collector):
    for argv, code in _exits(tmp_path):
        assert main(argv) == code, (argv, capsys.readouterr())
        assert gc.isenabled() is collector, argv
    with pytest.raises(SystemExit) as usage:
        main(["check", str(tmp_path / "h.jsonl"), "--state-cap", "-1"])
    assert usage.value.code == EXIT_CONFIG
    assert gc.isenabled() is collector

    def boom(args):
        assert not gc.isenabled()
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_stats", boom)
    with pytest.raises(RuntimeError, match="boom"):
        main(["stats", "any.jsonl"])
    assert gc.isenabled() is collector
    capsys.readouterr()


def test_library_calls_restore_the_callers_collector_state(monkeypatch, collector):
    assert run_simulation(SimConfig()).quiescent
    assert gc.isenabled() is collector
    assert run_campaign(2).runs == 2
    assert gc.isenabled() is collector
    with pytest.raises(ConfigError):  # validate runs inside the pause
        run_simulation(SimConfig(n=0))
    assert gc.isenabled() is collector
    with pytest.raises(ValueError, match="bogus"):
        run_campaign(1, "bogus")
    assert gc.isenabled() is collector

    def boom(*args):
        assert not gc.isenabled()
        raise RuntimeError("boom")

    monkeypatch.setattr(SimConfig, "validate", boom)
    monkeypatch.setattr(fuzz, "campaign_config", boom)  # run_campaign's own step
    for call in (lambda: run_simulation(LARGE_RUN), lambda: run_campaign(1)):
        with pytest.raises(RuntimeError, match="boom"):
            call()
        assert gc.isenabled() is collector


def test_run_simulation_runs_the_young_pass_it_made_due():
    """The call's allocations outgrow the young threshold many times over;
    with the collector on, the only pass is the young one on the way out,
    so none is left for the caller's next allocation to run."""
    was = gc.isenabled()
    passes = []

    def note(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.collect()
    gc.enable()
    gc.callbacks.append(note)
    try:
        run_simulation(LARGE_RUN)
        assert gc.get_count()[0] <= gc.get_threshold()[0]
    finally:
        gc.callbacks.remove(note)
        (gc.enable if was else gc.disable)()
    assert passes == [0]
