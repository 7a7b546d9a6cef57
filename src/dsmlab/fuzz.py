"""Seeded fuzz campaigns over the simulator and checker.

A campaign runs a batch of simulations at consecutive seeds, checks every
recorded history for sequential consistency, and audits clocks and timestamp
visibility. With a mutant selected, the runs use adversarial delivery
schedules shaped to expose that mutant's weakness quickly:

* small-quorum: thresholds of floor(n/2) lose quorum intersection. The
  schedule starves every cross-replica update and every self response, so an
  operation's "quorum" is a single replica that never saw the client's own
  writes. A process that writes and then reads gets the initial value back,
  which no sequential order can explain.

* no-writeback: reads return without propagating the pair they chose, so the
  read-to-read half of the visibility contract breaks: one read observes a
  fresh write via a fast response, a later read of the same process hits a
  stale quorum. The resulting history is often still consistent, which is
  exactly why this mutant is hunted with the visibility audit rather than
  the checker alone.

Everything is deterministic: run i uses seed seed0 + i for both its config
derivation and its simulation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .checker import (
    ACCEPTED,
    OracleCapError,
    REJECTED,
    UNDECIDED,
    audit_logical_clocks,
    audit_timestamp_visibility,
    check_sc_bruteforce,
    check_sc_compositional,
    complete_history,
)
from .protocol import (
    MUTANT_NO_WRITEBACK,
    MUTANT_NONE,
    MUTANT_SMALL_QUORUM,
    SC_ABD,
)
from .simnet import (
    AdversarialSchedule,
    DelayRule,
    OTHER,
    SELF,
    SimConfig,
    UniformDelay,
    Workload,
    quorum_size,
    run_simulation,
)


def small_quorum_schedule() -> AdversarialSchedule:
    """Starve cross-replica updates and self responses. With intersection
    gone, a reader's one-replica quorum answers from a replica that has only
    its own writes, making stale reads near-certain."""
    return AdversarialSchedule(
        rules=(
            DelayRule(kind="update", receiver=SELF, lo=1),
            DelayRule(kind="update", receiver=OTHER, lo=900),
            DelayRule(kind="response", receiver=SELF, lo=900),
            DelayRule(kind="response", receiver=OTHER, lo=1),
        ),
        default=1,
    )


def no_writeback_schedule() -> AdversarialSchedule:
    """Keep a window (slow cross updates) in which replicas disagree, and
    jitter responses so consecutive reads assemble different quorums inside
    that window: one sees the fresh pair, the next does not."""
    return AdversarialSchedule(
        rules=(
            DelayRule(kind="update", receiver=SELF, lo=1),
            DelayRule(kind="update", receiver=OTHER, lo=30, hi=60),
            DelayRule(kind="response", lo=1, hi=6),
        ),
        default=1,
    )


_MUTANT_SETUPS = {  # mutant -> (schedule factory, workload) of its campaign, at n = 3
    MUTANT_SMALL_QUORUM: (small_quorum_schedule, Workload(
        ops_per_process=3, read_fraction=0.5, register_count=1, think_time=1)),
    MUTANT_NO_WRITEBACK: (no_writeback_schedule, Workload(
        ops_per_process=4, read_fraction=0.7, register_count=1, think_time=0)),
}


def campaign_config(mutant: str, seed: int, protocol: str = SC_ABD) -> SimConfig:
    """The config run at one campaign seed, on either protocol. Mutant
    campaigns use the fixed adversarial setup above; the plain campaign
    varies topology, workload, delays, and crashes from a generator derived
    from the seed. Raises ValueError for an unknown mutant."""
    if mutant in _MUTANT_SETUPS:
        schedule, workload = _MUTANT_SETUPS[mutant]
        return SimConfig(n=3, seed=seed, delay=schedule(), workload=workload,
                         protocol=protocol, mutant=mutant)
    if mutant != MUTANT_NONE:
        raise ValueError(f"unknown mutant {mutant!r}")
    rng = random.Random(f"campaign:{protocol}:{seed}")
    n = rng.choice([3, 5, 7])
    workload = Workload(
        ops_per_process=rng.randint(2, 4),
        read_fraction=rng.choice([0.3, 0.5, 0.7]),
        register_count=rng.randint(1, 2),
        think_time=rng.randint(0, 2),
    )
    crashes: tuple = ()
    f = n - quorum_size(n)
    if f and rng.random() < 0.5:
        pids = rng.sample(range(1, n + 1), rng.randint(1, f))
        crashes = tuple((p, rng.randint(0, 60)) for p in sorted(pids))
    return SimConfig(
        n=n,
        seed=seed,
        delay=UniformDelay(1, rng.randint(4, 12)),
        workload=workload,
        crashes=crashes,
        protocol=protocol,
        mutant=MUTANT_NONE,
    )


@dataclass(slots=True)
class RunOutcome:
    seed: int
    verdict: str  # checker outcome on the (completed) history
    clock_ok: bool
    visibility_ok: bool
    quiescent: bool
    ops: int
    oracle: Optional[str] = None  # brute-force outcome, None beyond its op cap


@dataclass(slots=True)
class CampaignReport:
    protocol: str
    mutant: str
    outcomes: list = field(default_factory=list)  # list[RunOutcome]

    @property
    def runs(self) -> int:
        return len(self.outcomes)

    @property
    def accepted(self) -> int:
        return sum(1 for o in self.outcomes if o.verdict == ACCEPTED)

    @property
    def rejected_seeds(self) -> list:
        return [o.seed for o in self.outcomes if o.verdict == REJECTED]

    @property
    def undecided_seeds(self) -> list:
        return [o.seed for o in self.outcomes if o.verdict == UNDECIDED]

    @property
    def clock_failure_seeds(self) -> list:
        return [o.seed for o in self.outcomes if not o.clock_ok]

    @property
    def visibility_failure_seeds(self) -> list:
        return [o.seed for o in self.outcomes if not o.visibility_ok]

    # Oracle cross-check classes. Rejections the oracle confirms are genuine
    # consistency violations; rejections it overturns are conservatism of the
    # logical-time route (it checks a sufficient condition, so on mutant
    # histories it may reject orders it cannot reconstruct). An acceptance
    # the oracle overturns would be a soundness bug and is reported apart.

    @property
    def confirmed_rejection_seeds(self) -> list:
        return [
            o.seed for o in self.outcomes if o.verdict == REJECTED and o.oracle == REJECTED
        ]

    @property
    def conservative_rejection_seeds(self) -> list:
        return [
            o.seed for o in self.outcomes if o.verdict == REJECTED and o.oracle == ACCEPTED
        ]

    @property
    def soundness_violation_seeds(self) -> list:
        return [
            o.seed for o in self.outcomes if o.verdict == ACCEPTED and o.oracle == REJECTED
        ]


def run_campaign(
    runs: int,
    mutant: str = MUTANT_NONE,
    seed0: int = 0,
    protocol: str = SC_ABD,
) -> CampaignReport:
    """Run `runs` seeded simulations and check each one. Every history small
    enough for the brute-force oracle is verified against it in both
    directions: rejections are sorted into confirmed versus conservative, and
    a spurious acceptance cannot pass silently."""
    report = CampaignReport(protocol=protocol, mutant=mutant)
    for i in range(runs):
        seed = seed0 + i
        trace = run_simulation(campaign_config(mutant, seed, protocol))
        history = complete_history(trace.history)
        verdict = check_sc_compositional(history)
        try:
            oracle = check_sc_bruteforce(history).outcome
        except OracleCapError:  # not cross-checked
            oracle = None
        report.outcomes.append(
            RunOutcome(
                seed=seed,
                verdict=verdict.outcome,
                clock_ok=audit_logical_clocks(trace),
                visibility_ok=audit_timestamp_visibility(trace),
                quiescent=trace.quiescent,
                ops=len(trace.ops),
                oracle=oracle,
            )
        )
    return report
