"""The unit of simulation: a two-phase component.

A cycle splits into two explicit phases:

``compute(cycle)``
    Read committed state and *stage* intents.  Implementations may only
    write ``self.cycle`` and staged-intent attributes (conventionally
    prefixed ``_staged``); everything else is committed state and must
    not change.  The order-independence oracle (``tests/perturb.py``)
    tests this by running a cycle's computes in shuffled orders.
``commit(cycle)``
    Apply the staged intents, run the component's internal datapath for
    the cycle, and advance ``self.cycle`` to ``cycle + 1``.

The split makes the simulation order-insensitive across components:
when a :class:`~repro.engine.scheduler.Scheduler` runs compute for
every live component before any commit, no component can observe
another's same-cycle output a phase early.  Commit order is fixed (the
scheduler runs registration order) because it is not free: a commit
that returns a credit to another component is seen by that component
in the same cycle only if it commits later.
"""

from __future__ import annotations

from typing import Optional

from .hooks import EngineHooks


class Component:
    """Base class for objects driven by the engine scheduler.

    Subclasses own a ``hooks`` bus, a ``cycle`` counter, and implement
    the two phases.  ``next_event()`` is the one probe active-set
    scheduling asks (keep stepping, sleep until a cycle, or park);
    ``on_wake()`` re-synchronizes a skipped component's local clock
    when an external event or its timer re-activates it.

    A component has no checkpoint code of its own: a checkpoint
    pickles the whole simulation, so every attribute — hook
    subscriptions and wiring included — must pickle, and the loaded
    object is the one that was saved (see
    :mod:`repro.harness.checkpoint`).  ``tests/test_state_contracts.py``
    checks that a loaded twin equals its original everywhere.
    """

    def __init__(self) -> None:
        self.cycle = 0
        self.hooks = EngineHooks()

    def compute(self, cycle: int) -> None:
        """Phase 1: read committed state, stage intents."""
        raise NotImplementedError

    def commit(self, cycle: int) -> None:
        """Phase 2: apply staged intents and advance to ``cycle + 1``."""
        raise NotImplementedError

    def next_event(self, now: int) -> Optional[int]:
        """The parking probe: the earliest cycle ``>= now`` this
        component must next run, or None.

        The scheduler asks it after every commit, with ``now`` the next
        cycle to run, and files the component by the answer: ``now``
        (or earlier) keeps it awake; a later cycle puts it to sleep
        until that cycle or an earlier external wake; None parks it
        until an external arrival (delivered via :meth:`on_wake`).
        Reporting *earlier* than necessary is safe (the cycle executes
        as a no-op); reporting later than the real horizon skips live
        work and corrupts the run.  The default keeps the component
        awake.

        Purity contract: implementations must not mutate any state or
        emit hook events; they may be called any number of times per
        cycle.  ``tests/perturb.py`` tests this by calling every probe
        extra times.
        """
        return now

    def on_wake(self, cycle: int) -> None:
        """Re-activation callback: fast-forward the local clock.

        Called by the scheduler when an external event (flit or credit
        arrival) targets an asleep or parked component, *before* that
        event is applied, and when an asleep component's timer rings,
        so state stamped with ``self.cycle`` (e.g. flit arrival times)
        uses the current cycle rather than the cycle the component
        stopped on.
        """
        self.cycle = cycle

    def step(self) -> None:
        """Run one full cycle standalone (compute + commit + hooks).

        Equivalent to what a one-component scheduler would do; kept so
        components remain independently steppable in tests and small
        experiments.
        """
        now = self.cycle
        hooks = self.hooks
        if hooks.cycle_start:
            hooks.emit_cycle_start(now)
        self.compute(now)
        self.commit(now)
        if hooks.cycle_end:
            hooks.emit_cycle_end(self.cycle)
