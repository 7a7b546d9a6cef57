"""Desk-scale lab for quorum-replicated shared memory.

A deterministic discrete-event simulator runs n peer processes under a
one-round-write register protocol (plus a two-round-write baseline) with
seeded delays, reorderings, and crash-stop faults; a checker decides
sequential consistency of the recorded histories by re-sorting them in
Lamport-clock order and composing per-register linearizability witnesses,
with a brute-force oracle and trace audits as cross-checks.

The package exports what the README's library example uses; everything
else lives in its module (`dsmlab.core`, `.protocol`, `.simnet`,
`.checker`, `.files`, `.fuzz`, `.cli`).
"""

from .checker import check_sc_compositional
from .simnet import SimConfig, Workload, run_simulation

__all__ = ["SimConfig", "Workload", "check_sc_compositional", "run_simulation"]
