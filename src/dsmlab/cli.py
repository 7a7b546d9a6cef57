"""Command-line front end.

Subcommands:

* run CONFIG    simulate one seeded run, write the history file and its
                message-log sidecar, print a summary
* check FILE    check a history file for sequential consistency
* fuzz          run a seeded checking campaign, optionally against a mutant
* stats FILE    operation and message statistics for a recorded history

Exit codes are part of the interface:

    0  success; for `check`, the history was accepted
    1  `check` rejected the history (or the two checking routes disagreed);
       `fuzz` found a soundness violation, or with no mutant a rejection or an audit failure
    2  verdict unavailable: a search hit its state cap, or the oracle refused the history
    3  `run`: config unreadable, not UTF-8 or invalid, `--out` unwritable, or a history or sidecar
       path that is the config; any command: a usage error (unknown option, bad value, a count,
       seed0 or cap < 0, missing argument)
    4  simulation hit the tick horizon before quiescing (files still written)
    5  history or message log unreadable, not UTF-8, malformed or ill-formed
  141  stdout closed before the output was written (128 + SIGPIPE, as a shell reports it)

main, run_simulation and run_campaign each run with the cyclic GC paused by `simnet.acyclic`, which
restores the caller's setting and runs the young pass that the call made due before it returns. What
a command builds is acyclic, freed by refcounts: only the parser's cycles wait for the collector.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import NoReturn, Optional, Sequence

from .checker import (
    ACCEPTED,
    DEFAULT_STATE_CAP,
    ORACLE_OP_CAP,
    REJECTED,
    UNDECIDED,
    HistoryError,
    OracleCapError,
    Verdict,
    check_sc_bruteforce,
    check_sc_compositional,
    complete_history,
)
from .core import INVOCATION, READ, WRITE, Event, OpId, is_well_formed
from .files import (
    ParseError,
    read_config,
    read_history,
    read_message_log,
    sidecar_path,
    write_history,
    write_message_log,
)
from .fuzz import run_campaign
from .protocol import MUTANTS, MUTANT_NONE, PROTOCOLS, SC_ABD
from .simnet import ConfigError, acyclic, op_rounds, run_simulation

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_UNDECIDED = 2
EXIT_CONFIG = 3
EXIT_HORIZON = 4
EXIT_PARSE = 5
EXIT_BROKEN_PIPE = 141

_EXIT_OF = {ACCEPTED: EXIT_OK, REJECTED: EXIT_REJECTED, UNDECIDED: EXIT_UNDECIDED}


def _err(msg: str) -> None:
    print(f"dsmlab: {msg}", file=sys.stderr)


def _default_out(config_path: str) -> Path:
    p = Path(config_path)
    out = p.with_suffix(".jsonl")
    if out == p:
        out = p.with_name(p.name + ".jsonl")
    return out


def _completed_ops(history: Sequence[Event]) -> tuple[int, dict[str, dict[OpId, int]]]:
    """One pass over a history whose responses follow their invocations:
    (ops invoked, kind -> {opid: latency in ticks} of its completed ops),
    writes first. Every report of run, check and stats prints from it."""
    invoked: dict[OpId, int] = {}
    completed: dict[str, dict[OpId, int]] = {WRITE: {}, READ: {}}
    for e in history:
        if e.kind == INVOCATION:
            invoked[e.op.opid] = e.rt
        else:
            completed[e.op.kind][e.op.opid] = e.rt - invoked[e.op.opid]
    return len(invoked), completed


def cmd_run(args: argparse.Namespace) -> int:
    cfg = read_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    out = Path(args.out) if args.out else _default_out(args.config)
    side = sidecar_path(out)
    for path in (out, side):
        if path.resolve() == Path(args.config).resolve():
            raise ConfigError(f"{path}: writing it would overwrite the config")
    trace = run_simulation(cfg)
    try:
        write_history(out, trace.history)
        write_message_log(side, trace)
    except OSError as exc:
        raise ConfigError(f"{exc.filename or out}: cannot write ({exc.strerror})") from None

    invoked, completed = _completed_ops(trace.history)
    print(f"protocol {cfg.protocol}  n={cfg.n}  seed={cfg.seed}  mutant={cfg.mutant}")
    print(f"history -> {out}")
    print(f"messages -> {side}")
    for kind, latency in completed.items():
        rounds = [trace.rounds[opid] for opid in latency]
        if rounds:
            lo, hi = min(rounds), max(rounds)
            shape = str(lo) if lo == hi else f"{lo}..{hi}"
            print(f"{kind}s completed: {len(rounds)} (rounds: {shape})")
        else:
            print(f"{kind}s completed: 0")
    if pending := invoked - sum(map(len, completed.values())):
        print(f"pending operations: {pending}")
    delivered = sum(1 for r in trace.message_log if r.recv_rt is not None)
    dropped = sum(1 for r in trace.message_log if r.dropped)
    print(f"messages: {len(trace.message_log)} sent, {delivered} delivered, {dropped} dropped")
    if trace.crash_log:
        crashes = ", ".join(f"p{p}@{t}" for p, t in trace.crash_log)
        print(f"crashes applied: {crashes}")
    if not trace.quiescent:
        _err(f"run hit the tick horizon (max_ticks={cfg.max_ticks}) before quiescing")
        return EXIT_HORIZON
    print("outcome: quiescent")
    return EXIT_OK


def _print_verdict(label: str, v: Verdict) -> None:
    print(f"{label}: {v.outcome}")
    for reg, vx in v.per_register.items():
        extra = ""
        if vx.rejected and vx.violation is not None:
            extra = f" ({vx.violation.condition}"
            if vx.violation.ops:
                extra += f"; ops {vx.violation.ops[0]} then {vx.violation.ops[1]}"
            extra += ")"
        print(f"  register {reg}: {vx.outcome}{extra}")
    if v.rejected and v.violation is not None and not v.per_register:
        print(f"  {v.violation.condition}")
    if v.undecided:
        print(f"  search cap hit after {v.states_explored} states")


def cmd_check(args: argparse.Namespace) -> int:
    history = read_history(args.history)
    completed = complete_history(history)
    invoked, done = _completed_ops(history)
    if pending := invoked - sum(map(len, done.values())):
        print(f"note: {pending} pending operation(s) resolved before checking")

    comp: Optional[Verdict] = None
    oracle: Optional[Verdict] = None
    if args.mode in ("compositional", "both"):
        comp = check_sc_compositional(completed, state_cap=args.state_cap)
        _print_verdict("compositional", comp)
    if args.mode in ("bruteforce", "both"):
        try:
            oracle = check_sc_bruteforce(completed, op_cap=args.op_cap)
        except OracleCapError as exc:
            _err(str(exc))  # under --mode both, a note: the compositional verdict stands
        else:
            _print_verdict("bruteforce", oracle)
    if comp is None:
        return _EXIT_OF[oracle.outcome] if oracle is not None else EXIT_UNDECIDED
    if oracle is not None:
        if comp.outcome == oracle.outcome:
            print("agreement: yes")
        elif comp.undecided or oracle.undecided:
            names = ("compositional", "oracle") if comp.undecided else ("oracle", "compositional")
            print("agreement: {} undecided, {} decided".format(*names))
        else:
            _err(
                "checker disagreement: compositional says "
                f"{comp.outcome}, brute force says {oracle.outcome}"
            )
            return EXIT_REJECTED
    return _EXIT_OF[comp.outcome]


def cmd_fuzz(args: argparse.Namespace) -> int:
    report = run_campaign(
        runs=args.runs, mutant=args.mutant, seed0=args.seed0, protocol=args.protocol
    )
    print(f"fuzz: {report.runs} runs, protocol {report.protocol}, mutant {report.mutant}"
          + (f", seeds {args.seed0}..{args.seed0 + args.runs - 1}" if args.runs else ""))
    if report.runs == 0:
        return EXIT_OK
    print(f"accepted: {report.accepted}/{report.runs}")
    if rejected := report.rejected_seeds:
        confirmed = report.confirmed_rejection_seeds
        conservative = report.conservative_rejection_seeds
        unchecked = len(rejected) - len(confirmed) - len(conservative)
        print(
            f"rejected: {len(rejected)} "
            f"(first seed {rejected[0]}; oracle confirmed {len(confirmed)}"
            + (f", first {confirmed[0]}" if confirmed else "")
            + f", conservative {len(conservative)}, beyond oracle cap {unchecked})"
        )
    if report.undecided_seeds:
        print(f"undecided: {len(report.undecided_seeds)}")
    clock_bad = report.clock_failure_seeds
    vis_bad = report.visibility_failure_seeds
    print(f"clock audit failures: {len(clock_bad)}")
    print(
        f"visibility audit failures: {len(vis_bad)}"
        + (f" (first seed {vis_bad[0]})" if vis_bad else "")
    )
    if report.soundness_violation_seeds:
        print(f"SOUNDNESS VIOLATIONS at seeds {report.soundness_violation_seeds}")
        return EXIT_REJECTED
    # mutants are there to trip the checker and the audits; the intact protocols never may
    if report.mutant == MUTANT_NONE and (rejected or clock_bad or vis_bad):
        return EXIT_REJECTED
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    history = read_history(args.history)
    if not is_well_formed(history):
        raise HistoryError("history is not well formed")
    invoked, completed = _completed_ops(history)
    procs = len({e.proc for e in history})
    print(f"events: {len(history)}  operations: {invoked} "
          f"({sum(map(len, completed.values()))} completed)  processes: {procs}")
    for kind, latency in completed.items():
        print(f"{kind}s: {len(latency)}")
    for kind, latency in completed.items():
        if latency:
            ticks = latency.values()
            mean = sum(ticks) / len(ticks)
            print(f"{kind} latency ticks: min {min(ticks)}  mean {mean:.1f}  max {max(ticks)}")

    side = sidecar_path(args.history)
    if not os.path.exists(side):  # unlike Path.exists, never raises
        _err(f"no message-log sidecar at {side}; skipping round and message stats")
        return EXIT_OK
    header, records = read_message_log(side)
    print(f"protocol: {header['protocol']}  n={header['n']}  seed={header['seed']}")
    rounds = op_rounds(history, records)
    for kind, latency in completed.items():
        hist = Counter(rounds[opid] for opid in latency)
        shape = "  ".join(f"{r} round(s) x{c}" for r, c in sorted(hist.items())) or "none"
        print(f"{kind} rounds: {shape}")
    by_kind = Counter(r.msg.kind for r in records)
    total = len(records)
    dropped = sum(1 for r in records if r.dropped)
    stale = sum(1 for r in records if r.recv_rt is not None and not r.handled)
    mix = "  ".join(f"{k}:{c}" for k, c in sorted(by_kind.items()))
    print(f"messages: {total} ({mix})")
    print(f"dropped: {dropped}  delivered-but-stale: {stale}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_CONFIG, subparsers' too: 2 means "verdict unavailable"."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    def count(text: str) -> int:  # --runs, --seed0 and the caps; --state-cap 0: the fast path alone
        if (n := int(text)) < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
        return n
    parser = _Parser(
        prog="dsmlab",
        description="Quorum-replicated shared-memory lab: simulate, check, fuzz.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one seeded run and record it")
    p_run.add_argument("config", help="run config file (key = value lines)")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="history file path (default: config stem + .jsonl)")
    p_run.set_defaults(fn=cmd_run)

    p_check = sub.add_parser("check", help="check a history file for sequential consistency")
    p_check.add_argument("history", help="history file (JSON lines)")
    p_check.add_argument(
        "--mode",
        choices=("compositional", "bruteforce", "both"),
        default="compositional",
    )
    p_check.add_argument("--state-cap", type=count, default=DEFAULT_STATE_CAP)
    p_check.add_argument("--op-cap", type=count, default=ORACLE_OP_CAP)
    p_check.set_defaults(fn=cmd_check)

    p_fuzz = sub.add_parser("fuzz", help="run a seeded checking campaign")
    p_fuzz.add_argument("--runs", type=count, default=100)
    p_fuzz.add_argument("--mutant", choices=MUTANTS, default=MUTANT_NONE)
    p_fuzz.add_argument("--seed0", type=count, default=0)
    p_fuzz.add_argument(
        "--protocol", choices=PROTOCOLS, default=SC_ABD,
        help="protocol to simulate; a --mutant applies to either",
    )
    p_fuzz.set_defaults(fn=cmd_fuzz)

    p_stats = sub.add_parser("stats", help="statistics for a recorded history")
    p_stats.add_argument("history", help="history file (JSON lines)")
    p_stats.set_defaults(fn=cmd_stats)
    return parser


@acyclic
def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; the one place where a refusal becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        _err(f"invalid config: {exc}")
        return EXIT_CONFIG
    except ParseError as exc:
        _err(str(exc))
        return EXIT_PARSE
    except HistoryError as exc:
        _err(f"unusable history: {exc}")
        return EXIT_PARSE


def console_main() -> None:
    sys.stdout.reconfigure(write_through=False)  # even under -u: argparse swallows a write's EPIPE
    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse's: 0 after --help, EXIT_CONFIG on a usage error
            code = exc.code
        sys.stdout.flush()  # a closed pipe fails here, not at exit
    except BrokenPipeError:
        # `dsmlab stats big.jsonl | head -1`: point stdout at devnull so that the flush at exit
        # cannot fail again (https://docs.python.org/3/library/signal.html#note-on-sigpipe)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)
