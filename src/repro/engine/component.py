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

import copy
from typing import Any, ClassVar, Dict, Optional, Tuple

from .hooks import EngineHooks


class Component:
    """Base class for objects driven by the engine scheduler.

    Subclasses own a ``hooks`` bus, a ``cycle`` counter, and implement
    the two phases.  ``busy()`` is the parking predicate for active-set
    scheduling; ``on_wake()`` re-synchronizes a parked component's
    local clock when an external event re-activates it.

    Components are also the unit of *checkpointing*: :meth:`snapshot`
    captures every attribute except the entries of
    :attr:`SNAPSHOT_WIRING` (live wiring — hook buses, injector
    handles — that a restored simulation reconstructs rather than
    deserializes), and :meth:`restore` applies such a capture back onto
    a freshly constructed twin *in place*, preserving the object's
    identity in schedulers and sinks.  The default implementation
    copies ``self.__dict__`` wholesale; components holding references
    to objects outside themselves (shared sinks, simulations) override
    ``_snapshot_state``/``_restore_state`` with an explicit encoding —
    lint rule R010 checks such explicit snapshots for completeness
    against what ``__init__`` assigns.
    """

    #: Attribute names excluded from :meth:`snapshot` because they are
    #: wiring or derived state that restore must *not* replace.
    SNAPSHOT_WIRING: ClassVar[Tuple[str, ...]] = ("hooks",)

    def __init__(self) -> None:
        self.cycle = 0
        self.hooks = EngineHooks()

    def compute(self, cycle: int) -> None:
        """Phase 1: read committed state, stage intents."""
        raise NotImplementedError

    def commit(self, cycle: int) -> None:
        """Phase 2: apply staged intents and advance to ``cycle + 1``."""
        raise NotImplementedError

    def busy(self) -> bool:
        """True while the component has work that needs cycles.

        A component returning False may be parked by the scheduler: it
        must be a no-op to skip its phases until an external arrival
        (delivered via :meth:`on_wake`) makes it busy again.
        """
        return True

    def next_event(self, now: int) -> Optional[int]:
        """Horizon: earliest future cycle this component must next run.

        Consulted by :class:`~repro.engine.scheduler.EventScheduler`
        when the component is parked, to decide how far the simulation
        may fast-forward.  Return the earliest cycle ``> now`` at which
        the component has self-scheduled work (e.g. a delay-line
        maturity), or None when only an external wake can make it busy
        again.  Reporting *earlier* than necessary is safe (the cycle
        executes as a no-op); reporting later than the real horizon
        skips live work and corrupts the run.

        Purity contract: implementations — like :meth:`busy` — must
        not mutate any state or emit hook events; the scheduler may
        call them any number of times per cycle.  ``tests/perturb.py``
        tests this by calling every probe extra times.
        """
        return None

    def on_wake(self, cycle: int) -> None:
        """Re-activation callback: fast-forward the local clock.

        Called by the scheduler when an external event (flit or credit
        arrival) targets a parked component, *before* that event is
        applied, so state stamped with ``self.cycle`` (e.g. flit
        arrival times) uses the current cycle rather than the cycle the
        component was parked on.
        """
        self.cycle = cycle

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def _snapshot_state(self) -> Dict[str, Any]:
        """Reference dict of the attributes a snapshot must capture.

        Values are *live* references, not copies: callers that snapshot
        several coupled objects (a network of routers plus the harness
        heaps threading flits between them) collect every component's
        reference dict first and deep-copy the whole bundle in one
        pass, so aliasing across components survives the capture.
        """
        wiring = self._snapshot_wiring()
        return {
            name: value
            for name, value in self.__dict__.items()
            if name not in wiring
        }

    def _restore_state(self, state: Dict[str, Any]) -> None:
        """Apply an already-copied state dict onto ``self`` in place."""
        for name, value in state.items():
            setattr(self, name, value)

    @classmethod
    def _snapshot_wiring(cls) -> frozenset:
        """Union of ``SNAPSHOT_WIRING`` along the class's MRO."""
        names = set()
        for klass in cls.__mro__:
            names.update(getattr(klass, "SNAPSHOT_WIRING", ()))
        return frozenset(names)

    def snapshot(self) -> Dict[str, Any]:
        """Independent, picklable capture of this component's state."""
        return copy.deepcopy(self._snapshot_state())

    def restore(self, state: Dict[str, Any]) -> None:
        """Apply a :meth:`snapshot` capture in place (wiring untouched).

        ``state`` is deep-copied first so one capture can seed any
        number of restores without sharing mutable structures.
        """
        self._restore_state(copy.deepcopy(state))

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
