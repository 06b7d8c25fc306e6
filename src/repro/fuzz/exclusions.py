"""Known-hard fuzz exclusions: instances the oracle must not flag.

Two categories of machine earn an entry here, and both are *structured
data* rather than prose so the oracle consults them mechanically and the
test suite cross-checks them against their cited references:

* **correct but adversarial to truncated simulation** — the exact verdict
  is decidable, yet any faithful engine needs more steps than a bounded run
  to absorb into it, so a simulated-verdict-vs-exact-verdict comparison
  would report a disagreement that is a property of the protocol, not a
  bug (the classical four-state majority protocol);
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
)


def excluded_checks(machine_name: str) -> frozenset[str]:
    """The oracle checks to skip for a machine, by name-fragment match."""
    skipped: set[str] = set()
    for exclusion in KNOWN_HARD_EXCLUSIONS:
        if exclusion.subject_fragment in machine_name:
            skipped.update(exclusion.checks)
    return frozenset(skipped)
