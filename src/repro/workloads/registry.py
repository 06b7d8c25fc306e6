"""The scenario registry: named workload families behind one factory interface.

A *scenario* is a named family of workload instances — a machine (or
protocol) together with the input it runs on — parameterised by a plain
``{str: value}`` dict so that specs stay JSON round-trippable and worker
processes can rebuild instances from nothing but the registry.  The builders
themselves live in :mod:`repro.workloads.catalog`; importing
:mod:`repro.workloads` populates the registry.

Registered scenarios cover every workload family of the codebase:

=================== ================= ==========================================
name                kind              workload
=================== ================= ==========================================
exists-label        detection-machine flooding dAF detector for ``∃a`` on any
                                      graph family
clique-majority     detection-machine local-majority counting machine on an
                                      implicit clique (count-backend substrate)
threshold-broadcast broadcast         Lemma C.5 ``x_a ≥ k`` weak-broadcast
                                      protocol compiled via Lemma 4.7
absence-probe       absence           DA$ support probe compiled for bounded
                                      degree via Lemma 4.9 (Appendix B.3)
rendezvous-parity   rendezvous        pair-interaction parity compiled via the
                                      Figure 4 handshake (Lemma 4.10)
rendezvous-majority rendezvous        majority-with-movement under the same
                                      handshake compilation
population-majority population        classical 4-state exact majority
population-threshold population      token-accumulation ``x_a ≥ k``
population-parity   population        leader-based parity
=================== ================= ==========================================

Every scenario declares ``defaults`` — a complete parameter assignment that
constructs a small, fast instance.  :func:`validated_params` merges a partial
parameter dict against those defaults and rejects unknown keys, so typos fail
loudly instead of silently running the default; this is the per-scenario
validation layer :class:`~repro.workloads.spec.InstanceSpec` builds on.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.base import Workload


@dataclass(frozen=True)
class Scenario:
    """A registered scenario: metadata plus the workload factory.

    ``ground_truth`` is the human-readable decision rule the scenario's
    ``expected`` field implements (empty when the builder declares none for
    some parameter regions), and ``notes`` collects the documented footguns
    of the scenario family — both are rendered into the auto-generated
    scenario catalog (``python -m repro docs``), so they live here, next to
    the builder, instead of drifting in hand-written documentation.
    """

    name: str
    kind: str
    description: str
    builder: "Callable[[dict], Workload]" = field(repr=False)
    defaults: dict = field(default_factory=dict)
    ground_truth: str = ""
    notes: tuple[str, ...] = ()


SCENARIOS: dict[str, Scenario] = {}

#: The workload families the registry distinguishes.
KINDS = ("detection-machine", "broadcast", "absence", "rendezvous", "population")


def register_scenario(
    name: str,
    kind: str,
    description: str,
    defaults: dict,
    ground_truth: str = "",
    notes: tuple[str, ...] = (),
) -> "Callable[[Callable[[dict], Workload]], Callable[[dict], Workload]]":
    """Class/function decorator registering a scenario builder."""
    if kind not in KINDS:
        raise ValueError(f"unknown scenario kind {kind!r}; expected one of {KINDS}")
    if name in SCENARIOS:
        raise ValueError(f"scenario {name!r} already registered")

    def decorator(builder: "Callable[[dict], Workload]"):
        SCENARIOS[name] = Scenario(
            name=name,
            kind=kind,
            description=description,
            builder=builder,
            defaults=defaults,
            ground_truth=ground_truth,
            notes=tuple(notes),
        )
        return builder

    return decorator


def get_scenario(name: str) -> Scenario:
    """The registered scenario of ``name`` (KeyError lists the known names)."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered scenarios: {sorted(SCENARIOS)}"
        ) from None


def list_scenarios() -> list[Scenario]:
    """Every registered scenario, sorted by name (deterministic for docs/CLI)."""
    return [SCENARIOS[name] for name in sorted(SCENARIOS)]


def validated_params(name: str, params: Mapping[str, object] | None = None) -> dict:
    """The full parameter assignment of ``name`` with ``params`` merged in.

    ``params`` overrides the scenario's defaults; keys outside the default
    set are rejected so that specs fail loudly on typos.  This is the
    registry half of the spec-level validation
    (:class:`~repro.workloads.spec.InstanceSpec` adds the workload-specific
    guards on top).
    """
    scenario = get_scenario(name)
    merged = dict(scenario.defaults)
    if params:
        unknown = set(params) - set(merged)
        if unknown:
            raise ValueError(
                f"scenario {name!r} got unknown parameters {sorted(unknown)}; "
                f"accepted: {sorted(merged)}"
            )
        merged.update(params)
    return merged
