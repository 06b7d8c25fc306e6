"""Limitation witnesses, the agreement harness and the Figure 1 table.

The table lives in :mod:`repro.analysis.figure1` and is not re-exported
here: the sweep reports load this package, and they do not need the table.
"""

from repro.analysis.convergence import (
    ConvergenceSample,
    ConvergenceSeries,
    reachable_configuration_count,
)
from repro.analysis.harness import (
    AgreementReport,
    check_decides_property,
    check_same_verdict,
)
from repro.analysis.limitations import (
    SurgeryResult,
    clique_cutoff_pair,
    clique_state_counts_match,
    covering_lockstep_holds,
    covering_pair,
    halting_surgery_graph,
    line_extension_lockstep_holds,
    line_extension_pair,
    star_pair,
    surgery_lockstep_holds,
)

__all__ = [
    "AgreementReport",
    "ConvergenceSample",
    "ConvergenceSeries",
    "SurgeryResult",
    "check_decides_property",
    "check_same_verdict",
    "clique_cutoff_pair",
    "clique_state_counts_match",
    "covering_lockstep_holds",
    "covering_pair",
    "halting_surgery_graph",
    "line_extension_lockstep_holds",
    "line_extension_pair",
    "reachable_configuration_count",
    "star_pair",
    "surgery_lockstep_holds",
]
