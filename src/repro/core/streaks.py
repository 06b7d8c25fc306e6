"""Shared streak/fixed-point bookkeeping for the count-level engines.

The count-level row engines (:mod:`repro.core.vector_batch`: clique machine
instances and pair-interaction population protocols) fast-forward stretches
of silent steps geometrically and must then account for those skipped steps
in the stabilisation heuristic: during a silent stretch the consensus value
is constant, so the consensus streak grows by one per skipped step while a
consensus exists.  Machines and populations have genuinely different
*dynamics* (neighbourhood steps vs ordered pair interactions), but this
accounting is identical, so it lives here once.

:class:`ConsensusStreakDriver` owns the shared state — step counter, streak,
current consensus value, stabilisation step — and the two operations:

* :meth:`advance_silent` — absorb a stretch of steps that do not change the
  configuration, stabilising mid-stretch if the streak reaches the window
  within the step budget;
* :meth:`record_active` — count one configuration-changing step and update
  the streak against the new consensus value.

The ``value`` tracked here is deliberately generic (``bool | None`` for the
machine engines, :class:`~repro.core.results.Verdict` ``| None`` for the
population engine): the driver only ever compares it for equality and against
``None`` ("no consensus").

Every count-level run keeps one driver: each row of the count-level row
engine (a single run is a row too, random-exclusive or synchronous).  The
per-node row engine (:mod:`repro.core.vector_pernode`) keeps the
:meth:`record_active` rule in plain ints inside its row loop.
"""

from __future__ import annotations


class ConsensusStreakDriver:
    """Step/streak accounting shared by the count-level simulation engines.

    Parameters
    ----------
    window:
        The stabilisation window: the run stabilises once the same consensus
        value has persisted for this many consecutive steps.
    max_steps:
        Hard bound on the number of scheduler steps.
    value:
        The consensus value of the *initial* configuration (``None`` when it
        is not a consensus).
    """

    __slots__ = ("window", "max_steps", "step", "streak", "value", "stabilised_at")

    def __init__(self, window: int, max_steps: int, value: object | None):
        self.window = window
        self.max_steps = max_steps
        self.step = 0
        self.streak = 0
        self.value = value
        self.stabilised_at: int | None = None

    # ------------------------------------------------------------------ #
    @property
    def exhausted(self) -> bool:
        """Whether the step budget is spent."""
        return self.step >= self.max_steps

    # ------------------------------------------------------------------ #
    def advance_silent(self, silent: int, value: object | None) -> bool:
        """Absorb ``silent`` steps that leave the configuration unchanged.

        ``value`` is the consensus value of the (constant) configuration
        during the stretch.  Returns ``True`` if the run is finished — it
        stabilised mid-stretch (the streak reached the window within the step
        budget) or the budget ran out.  Mirrors the per-node backend exactly:
        the consensus streak grows by one per silent step while a consensus
        exists, and resets never (a silent step cannot change the value).
        """
        if silent <= 0:
            return self.exhausted
        self.value = value
        if value is not None:
            # Steps until the streak reaches the window.
            to_stabilise = max(0, self.window - self.streak)
            if (
                self.streak + silent >= self.window
                and self.step + to_stabilise <= self.max_steps
            ):
                self.step += to_stabilise
                self.streak = self.window
                self.stabilised_at = self.step
                return True
        take = min(silent, self.max_steps - self.step)
        self.step += take
        if value is not None:
            self.streak += take
        return self.exhausted

    def finish_at_fixed_point(self, value: object | None) -> bool:
        """Absorb the rest of the run at a fixed point (every step is silent)."""
        return self.advance_silent(self.max_steps - self.step, value)

    def record_active(self, value: object | None) -> bool:
        """Count one configuration-changing step against the new consensus.

        The streak extends when the new configuration has the same (non-
        ``None``) consensus value as before the step and resets otherwise.
        Returns ``True`` if the streak reached the window.
        """
        self.step += 1
        if value is not None and value == self.value:
            self.streak += 1
        else:
            self.streak = 0
        self.value = value
        if self.streak >= self.window:
            self.stabilised_at = self.step
            return True
        return False

