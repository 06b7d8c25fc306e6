"""Boolean closure of stable-consensus automata via product machines.

The decision power of every stable-consensus class is closed under boolean
combinations (used implicitly throughout Appendix C, e.g. Prop. C.6 writes a
Cutoff property as a finite boolean combination of threshold properties).
The constructions are the obvious ones:

* **Negation** — swap accepting and rejecting states.
* **Conjunction / disjunction** — run both machines side by side (product
  states), accept when the component verdicts combine appropriately.

The product machine's counting bound is the maximum of the two inputs; the
component machines see their own projection of the neighbourhood.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.automaton import AutomatonClass, DistributedAutomaton
from repro.core.labels import Label
from repro.core.machine import DistributedMachine, Neighborhood, State


def negate_machine(machine: DistributedMachine) -> DistributedMachine:
    """The machine deciding the complement (swap accepting and rejecting)."""
    return DistributedMachine(
        alphabet=machine.alphabet,
        beta=machine.beta,
        init=machine.init,
        delta=machine.delta,
        accepting=machine.is_rejecting,
        rejecting=machine.is_accepting,
        states=machine.states,
        name=f"not({machine.name})",
    )


def negate(automaton: DistributedAutomaton) -> DistributedAutomaton:
    return DistributedAutomaton(
        machine=negate_machine(automaton.machine),
        automaton_class=automaton.automaton_class,
        selection=automaton.selection,
        name=f"not({automaton.name})",
    )


def _project(neighborhood: Neighborhood, index: int, beta: int) -> Neighborhood:
    """The neighbourhood seen by component ``index`` of a product machine."""
    counts: dict[State, int] = {}
    for state, count in neighborhood.unordered_items():
        component = state[index]
        counts[component] = counts.get(component, 0) + count
    return Neighborhood(counts, beta, total=neighborhood.degree)


def product_machine(
    first: DistributedMachine,
    second: DistributedMachine,
    combine: Callable[[bool | None, bool | None], bool | None],
    name: str,
) -> DistributedMachine:
    """Run two machines in lock-step; combine their per-node verdicts.

    ``combine`` receives the component outputs (True / False / None for
    "undecided") and must return the product output; returning ``None``
    marks the product state as neither accepting nor rejecting.
    """
    if first.alphabet != second.alphabet:
        raise ValueError("product of machines over different alphabets")
    beta = max(first.beta, second.beta)

    def init(label: Label) -> State:
        return (first.init(label), second.init(label))

    def delta(state: State, neighborhood: Neighborhood) -> State:
        left, right = state
        left_next = first.delta(left, _project(neighborhood, 0, first.beta))
        right_next = second.delta(right, _project(neighborhood, 1, second.beta))
        return (left_next, right_next)

    def output(state: State) -> bool | None:
        return combine(first.output_of(state[0]), second.output_of(state[1]))

    def accepting(state: State) -> bool:
        return output(state) is True

    def rejecting(state: State) -> bool:
        return output(state) is False

    return DistributedMachine(
        alphabet=first.alphabet,
        beta=beta,
        init=init,
        delta=delta,
        accepting=accepting,
        rejecting=rejecting,
        name=name,
    )


def _and(a: bool | None, b: bool | None) -> bool | None:
    if a is False or b is False:
        return False
    if a is True and b is True:
        return True
    return None


def _or(a: bool | None, b: bool | None) -> bool | None:
    if a is True or b is True:
        return True
    if a is False and b is False:
        return False
    return None


def _stronger_class(a: AutomatonClass, b: AutomatonClass) -> AutomatonClass:
    """The least class containing both inputs (pointwise maximum of features)."""
    from repro.core.automaton import Acceptance, Detection
    from repro.core.scheduler import Fairness

    detection = (
        Detection.COUNTING
        if Detection.COUNTING in (a.detection, b.detection)
        else Detection.NON_COUNTING
    )
    acceptance = (
        Acceptance.STABLE_CONSENSUS
        if Acceptance.STABLE_CONSENSUS in (a.acceptance, b.acceptance)
        else Acceptance.HALTING
    )
    fairness = (
        Fairness.PSEUDO_STOCHASTIC
        if Fairness.PSEUDO_STOCHASTIC in (a.fairness, b.fairness)
        else Fairness.ADVERSARIAL
    )
    return AutomatonClass(detection=detection, acceptance=acceptance, fairness=fairness)


def conjunction(
    first: DistributedAutomaton, second: DistributedAutomaton
) -> DistributedAutomaton:
    machine = product_machine(
        first.machine, second.machine, _and, f"and({first.name},{second.name})"
    )
    return DistributedAutomaton(
        machine=machine,
        automaton_class=_stronger_class(first.automaton_class, second.automaton_class),
        selection=first.selection,
        name=machine.name,
    )


def disjunction(
    first: DistributedAutomaton, second: DistributedAutomaton
) -> DistributedAutomaton:
    machine = product_machine(
        first.machine, second.machine, _or, f"or({first.name},{second.name})"
    )
    return DistributedAutomaton(
        machine=machine,
        automaton_class=_stronger_class(first.automaton_class, second.automaton_class),
        selection=first.selection,
        name=machine.name,
    )
