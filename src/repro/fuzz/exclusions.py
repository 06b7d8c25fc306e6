"""Known-hard fuzz exclusions: instances the oracle must not flag.

Two categories of machine earn an entry here, and both are *structured
data* rather than prose so the oracle consults them mechanically and the
test suite cross-checks them against their cited references:

* **correct but adversarial to truncated simulation** — the exact verdict
  is decidable, yet any faithful engine needs more steps than a bounded run
  to absorb into it, so a simulated-verdict-vs-exact-verdict comparison
  would report a disagreement that is a property of the protocol, not a
  bug (the classical four-state majority protocol, the three-phase
  broadcast compilations);
* **known divergences under investigation** — the fuzzer found a genuine
  semantic bug, it is pinned by a regression test and tracked in
  ROADMAP.md, and the affected verdict checks are quarantined until the
  fix lands so every campaign after the discovery stays actionable (a
  red fuzz run must always mean *new* information).

Bit-identity and batch-lockstep checks are never excluded: engines must
agree with each other byte-for-byte even on adversarial or known-broken
instances.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class KnownHardExclusion:
    """One machine family the differential oracle must not verdict-check.

    ``subject_fragment`` is matched as a substring of ``machine.name`` (so
    combinator wrappers like ``not(...)`` / ``conjunction(...)`` inherit
    their children's exclusions); ``checks`` are the oracle check names to
    skip.
    """

    name: str
    subject_fragment: str
    checks: tuple[str, ...]
    reason: str
    reference: str


#: The registry.  Append — never silently drop — entries; each one must cite
#: where the underlying fact is documented.
KNOWN_HARD_EXCLUSIONS: tuple[KnownHardExclusion, ...] = (
    KnownHardExclusion(
        name="four-state-majority-accept-absorption",
        subject_fragment="pp-majority",
        checks=("reference-vs-decide", "verdict:count", "property-vs-decide"),
        reason=(
            "The follower tie-fight ((b, a) → (b, b)) makes accept-side "
            "absorption take exponentially long in the population size for "
            "any faithful engine, so bounded runs legitimately stop "
            "UNDECIDED (or stabilise on the reject side) while the exact "
            "decision procedure reports ACCEPT."
        ),
        reference=(
            "repro.workloads.catalog: population-majority scenario footgun "
            "note (PR 1)"
        ),
    ),
    KnownHardExclusion(
        name="threshold-daf-wave-recirculation",
        subject_fragment="dAF-threshold",
        checks=("reference-vs-decide", "verdict:count", "property-vs-decide"),
        reason=(
            "KNOWN BUG (found by the fuzzer): the three-phase weak-broadcast "
            "compilation (Lemma 4.7, repro.extensions.broadcast_sim) lets a "
            "broadcast wave recirculate on graph cycles of length >= 4 — a "
            "node that finished the wave rejoins it via a still-live "
            "wavefront, so the initiator eventually responds to its own "
            "trigger and self-counts.  Witness: threshold(a >= 2) on a "
            "4-cycle with one 'a' — the atomic weak-broadcast machine "
            "rejects, the compiled machine's exact decision accepts.  All "
            "verdict-level checks are quarantined until the compiler is "
            "fixed; bit-identity checks still run."
        ),
        reference=(
            "tests/test_fuzz_oracle.py::TestKnownDivergences pins the "
            "witness; ROADMAP.md open item 1 tracks the fix"
        ),
    ),
    KnownHardExclusion(
        name="broadcast-compilation-long-transients",
        subject_fragment="DAF(strong-",
        checks=("reference-vs-decide", "verdict:count"),
        reason=(
            "Broadcast-compiled NL machines wander through long transient "
            "consensus windows (the three-phase waves keep every node's "
            "verdict flapping), so a bounded run with a finite stability "
            "window can legitimately stabilise on a transient verdict — "
            "the same footgun class as the rendez-vous compilations, which "
            "need stability windows >= ~1200."
        ),
        reference=(
            "docs/scenarios.md rendezvous-parity stability-window note; "
            "repro.workloads.spec window warning"
        ),
    ),
)


def excluded_checks(machine_name: str) -> frozenset[str]:
    """The oracle checks to skip for a machine, by name-fragment match."""
    skipped: set[str] = set()
    for exclusion in KNOWN_HARD_EXCLUSIONS:
        if exclusion.subject_fragment in machine_name:
            skipped.update(exclusion.checks)
    return frozenset(skipped)
