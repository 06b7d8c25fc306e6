"""repro — reproduction of "Decision Power of Weak Asynchronous Models of
Distributed Computing" (Czerner, Guttenberg, Helfrich, Esparza; PODC 2021).

The package is organised into

* :mod:`repro.core` — the distributed-automata substrate: labelled graphs,
  machines with counting bounds, schedulers, runs, and exact decision of
  acceptance by stable consensus under adversarial or pseudo-stochastic
  fairness;
* :mod:`repro.properties` — labelling properties (majority, thresholds,
  cutoffs, semilinear predicates) and the Figure 1 property classes;
* :mod:`repro.extensions` — weak broadcasts, weak absence detection and
  rendez-vous transitions, together with the simulation constructions of
  Section 4 that compile them down to plain automata;
* :mod:`repro.constructions` — the automata built in the expressiveness
  proofs: Cutoff(1) detectors, dAF threshold automata, the DAF token
  construction for NL, and the bounded-degree DAf majority algorithm of
  Section 6.1;
* :mod:`repro.population` — population-protocol baselines;
* :mod:`repro.analysis` — limitation witnesses (Section 3) and the experiment
  harness that regenerates Figure 1.
"""

__version__ = "1.0.0"

from repro.core import (
    Alphabet,
    AutomatonClass,
    DistributedAutomaton,
    DistributedMachine,
    LabelCount,
    LabeledGraph,
    Neighborhood,
    SelectionMode,
    Verdict,
    automaton,
    decide,
)
from repro.properties import LabellingProperty, majority_property
from repro.workloads import (
    EngineOptions,
    InstanceSpec,
    Workload,
    build_workload,
    list_scenarios,
)

__all__ = [
    "Alphabet",
    "AutomatonClass",
    "DistributedAutomaton",
    "DistributedMachine",
    "EngineOptions",
    "InstanceSpec",
    "LabelCount",
    "LabeledGraph",
    "LabellingProperty",
    "Neighborhood",
    "SelectionMode",
    "Verdict",
    "Workload",
    "__version__",
    "automaton",
    "build_workload",
    "decide",
    "list_scenarios",
    "majority_property",
]
