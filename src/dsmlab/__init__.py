"""Desk-scale lab for quorum-replicated shared memory.

A deterministic discrete-event simulator runs n peer processes under a
one-round-write register protocol (plus a two-round-write baseline) with
seeded delays, reorderings, and crash-stop faults; a checker decides
sequential consistency of the recorded histories by re-sorting them in
Lamport-clock order and composing per-register linearizability witnesses,
with a brute-force oracle and trace audits as cross-checks.
"""

from .core import (
    INITIAL_PAIR,
    INITIAL_TS,
    OK,
    READ,
    WRITE,
    Ack,
    Event,
    Message,
    OperationDescriptor,
    Query,
    Response,
    Timestamp,
    TimestampValuePair,
    Update,
    clock_local_step,
    clock_merge,
    histories_equivalent,
    is_well_formed,
    operations,
    pending_operations,
    quorum_size,
)
from .protocol import (
    MUTANTS,
    MW_ABD,
    PROTOCOLS,
    SC_ABD,
    Completion,
    Invoke,
    ProtocolError,
    State,
    StepOutput,
    Variant,
    initial_state,
    step,
)
from .simnet import (
    AdversarialSchedule,
    ConfigError,
    DelayRule,
    FixedLinkDelay,
    MessageRecord,
    SimConfig,
    Trace,
    UniformDelay,
    Workload,
    generate_workload,
    run_simulation,
)
from .checker import (
    ACCEPTED,
    REJECTED,
    UNDECIDED,
    CheckerInternalError,
    HistoryError,
    InstrumentationError,
    OracleCapError,
    Verdict,
    Violation,
    audit_logical_clocks,
    audit_timestamp_visibility,
    build_logical_time_history,
    check_linearizable,
    check_sc_bruteforce,
    check_sc_compositional,
    complete_history,
    construct_timestamp_witness,
    is_legal_sequential,
)
from .files import (
    ParseError,
    parse_config,
    parse_history,
    read_config,
    read_history,
    read_message_log,
    serialize_history,
    serialize_message_log,
    sidecar_path,
    write_history,
    write_message_log,
)
from .fuzz import CampaignReport, RunOutcome, campaign_config, run_campaign

__version__ = "0.1.0"
