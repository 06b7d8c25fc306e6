"""Extended communication mechanisms of Section 4 and their simulations.

Weak broadcasts (:mod:`.broadcast`, compiled by :mod:`.broadcast_sim`, Lemma
4.7), weak absence detection (:mod:`.absence`, compiled by
:mod:`.absence_sim`, Lemma 4.9) and rendez-vous graph population protocols
(:mod:`.rendezvous`, compiled by :mod:`.rendezvous_sim`, Lemma 4.10).  All
three are atomic models (:class:`~repro.core.verification.AtomicModel`): one
exact decider over their own configurations, the reference for their
compilations.
"""

from repro.extensions.absence import AbsenceDetectionMachine, support_probe_machine
from repro.extensions.absence_sim import compile_absence_detection
from repro.extensions.broadcast import (
    BroadcastMachine,
    WeakBroadcast,
    response_from_mapping,
)
from repro.extensions.broadcast_sim import (
    compile_broadcasts,
    is_phase_state,
    phase_of,
    simulated_state,
)
from repro.extensions.generalized import (
    configurations_agree_on_q,
    is_extension,
    is_valid_reordering,
    non_silent_steps,
    project_run,
)
from repro.extensions.rendezvous import (
    GraphPopulationProtocol,
    majority_with_movement,
    parity_protocol,
    token_protocol,
    transition_table,
)
from repro.extensions.rendezvous_sim import (
    compile_rendezvous,
    original_state,
    status_of,
)

__all__ = [
    "AbsenceDetectionMachine",
    "BroadcastMachine",
    "GraphPopulationProtocol",
    "WeakBroadcast",
    "compile_absence_detection",
    "compile_broadcasts",
    "compile_rendezvous",
    "configurations_agree_on_q",
    "is_extension",
    "is_phase_state",
    "is_valid_reordering",
    "majority_with_movement",
    "non_silent_steps",
    "original_state",
    "parity_protocol",
    "phase_of",
    "project_run",
    "response_from_mapping",
    "simulated_state",
    "status_of",
    "support_probe_machine",
    "token_protocol",
    "transition_table",
]
