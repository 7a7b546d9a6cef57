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
       `fuzz` found a soundness violation, or an audit failure with no mutant
    2  verdict unavailable: a search hit its state cap, or the oracle refused the history
    3  `run`: config unreadable, not UTF-8 or invalid, `--out` unwritable; any command: a usage
       error (unknown option, bad value, a count or cap < 0, missing argument)
    4  simulation hit the tick horizon before quiescing (files still written)
    5  history or message log unreadable, not UTF-8, malformed or ill-formed

Each command runs with the cyclic GC paused, and main restores the caller's setting; library calls
leave it alone. What a command builds is acyclic, freed by refcounts: only the parser's cycles wait.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
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
from .core import READ, WRITE, is_well_formed, pending_operations
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
from .simnet import ConfigError, op_rounds, run_simulation

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_UNDECIDED = 2
EXIT_CONFIG = 3
EXIT_HORIZON = 4
EXIT_PARSE = 5

_EXIT_OF = {ACCEPTED: EXIT_OK, REJECTED: EXIT_REJECTED, UNDECIDED: EXIT_UNDECIDED}


def _err(msg: str) -> None:
    print(f"dsmlab: {msg}", file=sys.stderr)


def _default_out(config_path: str) -> Path:
    p = Path(config_path)
    out = p.with_suffix(".jsonl")
    if out == p:
        out = p.with_name(p.name + ".jsonl")
    return out


def cmd_run(args: argparse.Namespace) -> int:
    cfg = read_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    trace = run_simulation(cfg)
    out = Path(args.out) if args.out else _default_out(args.config)
    side = sidecar_path(out)
    try:
        write_history(out, trace.history)
        write_message_log(side, trace)
    except OSError as exc:
        raise ConfigError(f"{exc.filename or out}: cannot write ({exc.strerror})") from None

    completed = trace.completed()
    by_kind = {READ: [], WRITE: []}
    for opid, desc in sorted(completed.items()):
        by_kind[desc.kind].append(trace.rounds.get(opid, 0))
    print(f"protocol {cfg.protocol}  n={cfg.n}  seed={cfg.seed}  mutant={cfg.mutant}")
    print(f"history -> {out}")
    print(f"messages -> {side}")
    for kind in (WRITE, READ):
        rounds = by_kind[kind]
        if rounds:
            lo, hi = min(rounds), max(rounds)
            shape = str(lo) if lo == hi else f"{lo}..{hi}"
            print(f"{kind}s completed: {len(rounds)} (rounds: {shape})")
        else:
            print(f"{kind}s completed: 0")
    pending = len(trace.ops) - len(completed)
    if pending:
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
    pend = pending_operations(history)
    completed = complete_history(history)
    if pend:
        print(f"note: {len(pend)} pending operation(s) resolved before checking")

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
    if report.rejected_seeds:
        confirmed = report.confirmed_rejection_seeds
        conservative = report.conservative_rejection_seeds
        unchecked = len(report.rejected_seeds) - len(confirmed) - len(conservative)
        print(
            f"rejected: {len(report.rejected_seeds)} "
            f"(first seed {report.first_rejected_seed}; oracle confirmed {len(confirmed)}"
            + (f", first {report.first_confirmed_rejection_seed}" if confirmed else "")
            + f", conservative {len(conservative)}, beyond oracle cap {unchecked})"
        )
    if report.undecided_seeds:
        print(f"undecided: {len(report.undecided_seeds)}")
    clock_bad = report.clock_failure_seeds
    vis_bad = report.visibility_failure_seeds
    print(f"clock audit failures: {len(clock_bad)}")
    print(
        f"visibility audit failures: {len(vis_bad)}"
        + (f" (first seed {report.first_visibility_failure_seed})" if vis_bad else "")
    )
    if report.soundness_violation_seeds:
        print(f"SOUNDNESS VIOLATIONS at seeds {report.soundness_violation_seeds}")
        return EXIT_REJECTED
    # mutants are there to trip the audits; the intact protocol never may
    if report.mutant == MUTANT_NONE and (clock_bad or vis_bad):
        return EXIT_REJECTED
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    history = read_history(args.history)
    if not is_well_formed(history):
        raise HistoryError("history is not well formed")
    ops = {e.op.opid: e.op for e in history}
    completed = {o: d for o, d in ops.items() if d.ret is not None}
    procs = sorted({e.proc for e in history})
    print(f"events: {len(history)}  operations: {len(ops)} "
          f"({len(completed)} completed)  processes: {len(procs)}")
    for kind in (WRITE, READ):
        ks = [d for d in completed.values() if d.kind == kind]
        print(f"{kind}s: {len(ks)}")
    lat: dict[int, int] = {}
    inv_rt = {e.op.opid: e.rt for e in history if e.kind == "inv"}
    for e in history:
        if e.kind == "res":
            lat[e.op.opid] = e.rt - inv_rt[e.op.opid]
    for kind in (WRITE, READ):
        ls = sorted(lat[o] for o, d in completed.items() if d.kind == kind)
        if ls:
            mean = sum(ls) / len(ls)
            print(f"{kind} latency ticks: min {ls[0]}  mean {mean:.1f}  max {ls[-1]}")

    side = sidecar_path(args.history)
    if not os.path.exists(side):  # unlike Path.exists, never raises
        _err(f"no message-log sidecar at {side}; skipping round and message stats")
        return EXIT_OK
    header, records = read_message_log(side)
    print(f"protocol: {header['protocol']}  n={header['n']}  seed={header['seed']}")
    rounds = op_rounds(history, records)
    for kind in (WRITE, READ):
        hist: dict[int, int] = {}
        for opid, d in completed.items():
            if d.kind == kind:
                hist[rounds[opid]] = hist.get(rounds[opid], 0) + 1
        shape = "  ".join(f"{r} round(s) x{c}" for r, c in sorted(hist.items())) or "none"
        print(f"{kind} rounds: {shape}")
    by_kind: dict[str, int] = {}
    for r in records:
        by_kind[r.msg.kind] = by_kind.get(r.msg.kind, 0) + 1
    total = len(records)
    dropped = sum(1 for r in records if r.dropped)
    stale = sum(1 for r in records if r.recv_rt is not None and not r.handled)
    mix = "  ".join(f"{k}:{by_kind[k]}" for k in sorted(by_kind))
    print(f"messages: {total} ({mix})")
    print(f"dropped: {dropped}  delivered-but-stale: {stale}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_CONFIG, subparsers' too: 2 means "verdict unavailable"."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    def count(text: str) -> int:  # --runs and the caps; --state-cap 0: the fast path alone
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
    p_fuzz.add_argument("--seed0", type=int, default=0)
    p_fuzz.add_argument(
        "--protocol", choices=PROTOCOLS, default=SC_ABD,
        help="protocol to simulate; a --mutant applies to either",
    )
    p_fuzz.set_defaults(fn=cmd_fuzz)

    p_stats = sub.add_parser("stats", help="statistics for a recorded history")
    p_stats.add_argument("history", help="history file (JSON lines)")
    p_stats.set_defaults(fn=cmd_stats)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; the one place where a refusal becomes an exit code."""
    args = build_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
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
    finally:
        if collecting:
            gc.enable()


def console_main() -> None:
    sys.exit(main())
