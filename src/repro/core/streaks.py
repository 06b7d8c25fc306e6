"""Shared streak/fixed-point bookkeeping for the count-level engines.

Both count-vector engines — :class:`repro.core.backends._CountRun` (clique
machine instances) and ``PopulationProtocol._simulate_counts`` (pair
interactions) — fast-forward stretches of silent steps geometrically and must
then account for those skipped steps in the stabilisation heuristic: during a
silent stretch the consensus value is constant, so the consensus streak grows
by one per skipped step while a consensus exists.  The two engines have
genuinely different *dynamics* (neighbourhood steps vs ordered pair
interactions), but this accounting is identical, and before this module it was
duplicated in both.

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

:class:`ArrayStreakDriver` is the same accounting lifted into array form for
the count-level lockstep batch engine (:mod:`repro.core.vector_batch`),
its only user — the per-node batch engine (:mod:`repro.core.vector_pernode`)
runs its rows one at a time and keeps the scalar rule in plain ints.  One
numpy row per Monte-Carlo run, with :meth:`ArrayStreakDriver.advance_silent` /
:meth:`ArrayStreakDriver.record_active` applied to a *subset* of rows per
lockstep iteration.  Its update rules are a transliteration of the scalar
driver — for every row the sequence of (step, streak, value, stabilised_at)
states is identical to what a private :class:`ConsensusStreakDriver` fed the
same per-row events would produce, which is what makes the batch engine's
bit-identity guarantee possible.  Consensus values are encoded as small ints
(``-1`` = no consensus) because numpy rows cannot hold arbitrary objects;
the encoding is private to each engine and only equality against the
previous code matters, mirroring the scalar driver's generic ``value``.
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


class ArrayStreakDriver:
    """:class:`ConsensusStreakDriver` over ``rows`` parallel runs (numpy).

    All state lives in int64/int8 arrays of length ``rows``; every method
    takes an index array selecting the rows the event applies to and returns
    a boolean array (aligned with that index array) flagging the rows that
    finished — stabilised, or exhausted their step budget mid-stretch.
    Consensus values are int8 codes with ``NO_CONSENSUS`` (= -1) playing the
    role of the scalar driver's ``None``.

    The class is constructed lazily by the batch engine and therefore imports
    numpy at call sites' risk: callers must only instantiate it when numpy is
    available (the batch engine's eligibility check guarantees this).
    """

    NO_CONSENSUS = -1

    def __init__(self, window: int, max_steps: int, initial_values) -> None:
        import numpy as np

        self._np = np
        self.window = window
        self.max_steps = max_steps
        values = np.asarray(initial_values, dtype=np.int8)
        rows = values.shape[0]
        self.step = np.zeros(rows, dtype=np.int64)
        self.streak = np.zeros(rows, dtype=np.int64)
        self.value = values.copy()
        self.stabilised_at = np.full(rows, -1, dtype=np.int64)

    # ------------------------------------------------------------------ #
    def advance_silent(self, rows, silent, values):
        """Array form of :meth:`ConsensusStreakDriver.advance_silent`.

        ``rows`` selects the runs, ``silent``/``values`` are aligned with it;
        every selected row must have ``silent > 0`` (the scalar loops only
        call ``advance_silent`` for non-empty stretches).  Returns the
        finished mask aligned with ``rows``.
        """
        np = self._np
        rows = np.asarray(rows, dtype=np.intp)
        silent = np.asarray(silent, dtype=np.int64)
        values = np.asarray(values, dtype=np.int8)
        self.value[rows] = values
        streak = self.streak[rows]
        step = self.step[rows]
        has_value = values != self.NO_CONSENSUS
        to_stabilise = np.maximum(0, self.window - streak)
        stabilises = (
            has_value
            & (streak + silent >= self.window)
            & (step + to_stabilise <= self.max_steps)
        )
        stab_rows = rows[stabilises]
        self.step[stab_rows] += to_stabilise[stabilises]
        self.streak[stab_rows] = self.window
        self.stabilised_at[stab_rows] = self.step[stab_rows]
        rest = ~stabilises
        rest_rows = rows[rest]
        take = np.minimum(silent[rest], self.max_steps - step[rest])
        self.step[rest_rows] += take
        self.streak[rest_rows] += np.where(has_value[rest], take, 0)
        finished = np.empty(rows.shape[0], dtype=bool)
        finished[stabilises] = True
        finished[rest] = self.step[rest_rows] >= self.max_steps
        return finished

    def finish_at_fixed_point(self, rows, values) -> None:
        """Absorb the rest of each selected run at a fixed point.

        Mirrors :meth:`ConsensusStreakDriver.finish_at_fixed_point`: the
        remaining budget is one silent stretch, and every selected row is
        finished afterwards (stabilised mid-stretch or exhausted).
        """
        np = self._np
        rows = np.asarray(rows, dtype=np.intp)
        self.advance_silent(rows, self.max_steps - self.step[rows], values)

    def record_active(self, rows, values):
        """Array form of :meth:`ConsensusStreakDriver.record_active`.

        Returns the mask (aligned with ``rows``) of rows whose streak reached
        the window on this step.
        """
        np = self._np
        rows = np.asarray(rows, dtype=np.intp)
        values = np.asarray(values, dtype=np.int8)
        self.step[rows] += 1
        previous = self.value[rows]
        extends = (values != self.NO_CONSENSUS) & (values == previous)
        self.streak[rows] = np.where(extends, self.streak[rows] + 1, 0)
        self.value[rows] = values
        finished = self.streak[rows] >= self.window
        done_rows = rows[finished]
        self.stabilised_at[done_rows] = self.step[done_rows]
        return finished

    def exhausted(self, rows):
        """Mask (aligned with ``rows``) of rows whose step budget is spent."""
        np = self._np
        rows = np.asarray(rows, dtype=np.intp)
        return self.step[rows] >= self.max_steps
