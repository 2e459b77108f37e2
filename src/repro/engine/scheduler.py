"""Active-set component scheduler and event-driven fast-forward.

The scheduler advances a fixed set of components one cycle at a time.
Each cycle it runs the compute phase for every *active* component, then
the commit phase for every active component (two-phase barrier), then
parks components whose :meth:`~repro.engine.component.Component.busy`
predicate went False.

Parked components are skipped entirely — at low offered load or in a
large multi-stage network most routers are empty most cycles, and
skipping them removes the O(routers x ports) per-cycle floor.  A parked
component is re-activated by :meth:`Scheduler.wake`, which the harness
calls at every external arrival site (flit injection, link delivery)
*before* handing the component the event, so the component can
fast-forward its local clock via ``on_wake``.

Correctness contract: a component may only report ``busy() == False``
when running its phases would not change its state or statistics.  The
routers guarantee this structurally — an empty router's arbitration
loops are mutation-free (round-robin pointers do not advance on empty
request sets) — which is what makes active-set scheduling byte-exact
versus stepping everything.  That reference schedule is a test oracle
(``tests/exhaustive.py``), not a mode of this module.

Components are registered in a fixed order and both phases always run
in that order, so scheduling is deterministic regardless of wake
history.

Two drive modes share the :meth:`Scheduler.run_until` interface:

:class:`Scheduler`
    The cycle stepper: executes every cycle in ``[now, end)`` one by
    one.  Parked components are skipped, but empty cycle *spans* are
    still walked.
:class:`EventScheduler`
    The fast-forward mode: when every component is parked, it jumps
    straight to the earliest *horizon* — the minimum over (a) the
    registered wake-source callables (arrival predictors, in-flight
    delivery heaps, fault schedules) and (b) the parked components' own
    :meth:`~repro.engine.component.Component.next_event` declarations,
    polled once as each parks and kept in a binary heap.  A cycle that
    executes runs exactly the same code as cycle mode, so the two modes
    are byte-identical; a skipped span is provably state-invariant, and
    its ``cycle_start``/``cycle_end`` hook events are replayed in order
    when anything subscribes (so per-cycle instrumentation — trace
    cycle counters, sampled metrics, sanitizer checks — observes an
    identical event stream).

Horizon safety rule: a wake source may report a cycle *earlier* than
work actually exists (the cycle executes as a no-op) but never later —
skipping a cycle with live work is a correctness bug, not a slowdown.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..core.errors import UnregisteredComponentError
from .component import Component
from .hooks import EngineHooks

#: A wake source reports the earliest cycle ``>= now`` at which it will
#: produce externally-driven work, or None for "never" (as known now).
WakeSource = Callable[[int], Optional[int]]


class Scheduler:
    """Drive a set of :class:`Component` objects with active-set parking.

    Args:
        components: Components in deterministic phase order.
        hooks: Optional scheduler-level bus for ``cycle_start`` /
            ``cycle_end`` events spanning the whole component set.
    """

    def __init__(
        self,
        components: Iterable[Component] = (),
        hooks: Optional[EngineHooks] = None,
    ) -> None:
        self.components: List[Component] = []
        self.hooks = hooks if hooks is not None else EngineHooks()
        self._index: Dict[int, int] = {}
        self._active: List[bool] = []
        #: Sorted slot indices of active components — run_cycle iterates
        #: this, so a mostly-parked population costs O(active), not
        #: O(registered).  Kept consistent with ``_active`` by
        #: register/wake/park.
        self._active_slots: List[int] = []
        self._n_active = 0
        #: Current cycle of :meth:`run_until` (the next cycle to run).
        self.now = 0
        #: Cycles advanced via :meth:`run_cycle`.
        self.cycles_run = 0
        #: Total component-cycles actually executed (compute+commit
        #: pairs).  With parking this lags ``cycles_run * len(components)``;
        #: the gap is the work active-set scheduling skipped.
        self.component_steps = 0
        #: Cycles fast-forwarded over without executing (event mode;
        #: always 0 for the cycle stepper).
        self.cycles_skipped = 0
        #: Number of fast-forward jumps taken (event mode; always 0
        #: for the cycle stepper).
        self.ff_jumps = 0
        #: Harness phases hoisted into the drive loop: per-cycle work
        #: that used to live in hand-rolled ``for cycle in range(...)``
        #: loops (fault advance, packet generation, injection before
        #: the engine cycle; delivery collection after it).
        self._pre_cycle: List[Callable[[int], None]] = []
        self._post_cycle: List[Callable[[int], None]] = []
        self._wake_sources: List[WakeSource] = []
        for comp in components:
            self.register(comp)

    def register(self, comp: Component) -> None:
        """Append a component; phase order is registration order."""
        slot = len(self.components)
        self._index[id(comp)] = slot
        self.components.append(comp)
        self._active.append(True)
        self._active_slots.append(slot)  # ascending by construction
        self._n_active += 1

    def add_pre_cycle(self, fn: Callable[[int], None]) -> None:
        """Run ``fn(now)`` before each executed engine cycle."""
        self._pre_cycle.append(fn)

    def add_post_cycle(self, fn: Callable[[int], None]) -> None:
        """Run ``fn(now)`` after each executed engine cycle."""
        self._post_cycle.append(fn)

    def add_wake_source(self, source: WakeSource) -> None:
        """Register a horizon callable consulted before fast-forwarding.

        Ignored by the cycle stepper (which never jumps), accepted on
        both modes so harnesses can wire unconditionally.
        """
        self._wake_sources.append(source)

    def wake(self, comp: Component, now: int) -> None:
        """Re-activate ``comp`` for cycle ``now`` if it is parked.

        Must be called before delivering the waking event (the
        component stamps arrivals with its local clock).  No-op for
        components that are already active.
        """
        slot = self._index.get(id(comp))
        if slot is None:
            raise UnregisteredComponentError(comp)
        if not self._active[slot]:
            self._active[slot] = True
            insort(self._active_slots, slot)
            self._n_active += 1
            comp.on_wake(now)

    def active_count(self) -> int:
        return self._n_active

    def _on_park(self, comp: Component, now: int) -> None:
        """A component just parked; ``now`` is the next cycle to run.

        The cycle stepper ignores parking beyond the active-set skip;
        :class:`EventScheduler` snapshots the component's ``next_event``
        horizon here, so jump decisions never need to re-poll the
        parked population.
        """

    def run_cycle(self, now: int) -> None:
        """Advance every active component through one two-phase cycle."""
        hooks = self.hooks
        if hooks.cycle_start:
            hooks.emit_cycle_start(now)
        components = self.components
        active = self._active
        slots = self._active_slots
        for slot in slots:
            components[slot].compute(now)
        parked = False
        for slot in slots:
            comp = components[slot]
            comp.commit(now)
            if not comp.busy():
                active[slot] = False
                self._n_active -= 1
                parked = True
                self._on_park(comp, now + 1)
        self.component_steps += len(slots)
        if parked:
            self._active_slots = [s for s in slots if active[s]]
        self.cycles_run += 1
        if hooks.cycle_end:
            hooks.emit_cycle_end(now + 1)

    def _tick(self) -> None:
        """Execute one full cycle: harness pre-phases, engine, post."""
        now = self.now
        for fn in self._pre_cycle:
            fn(now)
        self.run_cycle(now)
        for fn in self._post_cycle:
            fn(now)
        self.now = now + 1

    def run_until(
        self, end: int, stop: Optional[Callable[[], bool]] = None
    ) -> int:
        """Advance the simulation through cycles ``[now, end)``.

        ``stop`` is checked before each cycle (drain loops terminate
        the moment their outstanding count hits zero).  Returns the
        cycle reached.  The cycle stepper executes every cycle;
        :class:`EventScheduler` overrides this with fast-forward.
        """
        while self.now < end:
            if stop is not None and stop():
                break
            self._tick()
        return self.now

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    #: Wiring and derived attributes a snapshot must not capture: the
    #: registered components checkpoint themselves, callbacks and wake
    #: sources are re-wired by the owning harness at construction, and
    #: ``_active_slots``/``_n_active``/``_index`` are rebuilt from the
    #: ``active`` flags on restore.
    SNAPSHOT_WIRING = (
        "components", "hooks", "_index", "_active",
        "_active_slots", "_n_active", "_pre_cycle", "_post_cycle",
        "_wake_sources",
    )

    def snapshot(self) -> Dict[str, Any]:
        """Picklable scheduler state: clock, counters, active flags."""
        return {
            "now": self.now,
            "cycles_run": self.cycles_run,
            "component_steps": self.component_steps,
            "cycles_skipped": self.cycles_skipped,
            "ff_jumps": self.ff_jumps,
            "active": list(self._active),
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Apply a :meth:`snapshot` onto this scheduler in place.

        The registered component set must match the snapshotted one
        (same count, same order); the components themselves are
        restored separately by the owning harness.
        """
        active = state["active"]
        if len(active) != len(self.components):
            raise ValueError(
                f"snapshot captured {len(active)} components, scheduler "
                f"has {len(self.components)}"
            )
        self.now = state["now"]
        self.cycles_run = state["cycles_run"]
        self.component_steps = state["component_steps"]
        self.cycles_skipped = state["cycles_skipped"]
        self.ff_jumps = state["ff_jumps"]
        self._active = list(active)
        self._active_slots = [s for s, on in enumerate(active) if on]
        self._n_active = len(self._active_slots)

    def next_horizon(self, now: int) -> Optional[int]:
        """Earliest upcoming cycle with possible work, or None.

        Pure read over the wake sources (and, in event mode, the time
        wheel's live head); the cycle stepper never jumps, but exposes
        the same probe so sharded workers can report a horizon in
        either mode.
        """
        horizon: Optional[int] = None
        for source in self._wake_sources:
            h = source(now)
            if h is not None and (horizon is None or h < horizon):
                horizon = h
        return horizon


class EventScheduler(Scheduler):
    """Event-driven drive mode: fast-forward over provably-idle spans.

    Maintains a binary-heap time wheel, with lazy expiry, of the
    horizons components declared as they parked (:meth:`_on_park`),
    merged at each jump decision with the dynamic horizons of the
    registered wake sources.  Producers of future work keep their own
    priority structure (the network's in-flight flit heap, per-source
    arrival predictions, sorted fault schedules), so their wake source
    just reports the head.

    When at least one component is busy the engine runs every cycle,
    exactly as the cycle stepper does — fast-forward only engages when
    *all* components are parked, so arbitration, round-robin pointers,
    and every other piece of committed state evolve identically in the
    two modes (the golden and property tests pin this byte-for-byte).
    """

    def __init__(
        self,
        components: Iterable[Component] = (),
        hooks: Optional[EngineHooks] = None,
    ) -> None:
        super().__init__(components, hooks=hooks)
        self._wheel: List[int] = []

    def _on_park(self, comp: Component, now: int) -> None:
        """Snapshot the parking component's horizon into the wheel.

        A parked component's state is frozen until it is woken
        (``next_event`` is pure, which ``tests/perturb.py`` tests by
        over-polling it, and the active-set contract pins
        that parked components are not stepped), so one poll at park
        time captures every event it can produce.  If it is woken and
        re-parks, it posts a fresh horizon; the stale earlier post
        then executes one harmless no-op cycle.  This keeps jump
        decisions O(wake sources + log wheel) instead of O(components).
        """
        horizon = comp.next_event(now)
        if horizon is not None:
            heapq.heappush(self._wheel, horizon)

    def _next_horizon(self, now: int) -> Optional[int]:
        """Earliest upcoming cycle with (possible) work, or None.

        May return ``now`` itself, meaning work is due this cycle and
        no jump is possible.
        """
        wheel = self._wheel
        while wheel and wheel[0] < now:
            heapq.heappop(wheel)
        horizon: Optional[int] = wheel[0] if wheel else None
        for source in self._wake_sources:
            h = source(now)
            if h is not None and (horizon is None or h < horizon):
                horizon = h
        return horizon

    def _skip_span(self, start: int, end: int) -> None:
        """Fast-forward over ``[start, end)`` without executing.

        State is frozen across the span (all components parked, no
        wake source fires), so when per-cycle instrumentation is
        subscribed the span's ``cycle_start``/``cycle_end`` events are
        replayed in order — every observation a subscriber would have
        made cycle-stepping an idle span is made here too, keeping
        trace cycle counters, sampled metrics, and sanitizer streams
        byte-identical between modes.  With no subscribers (the common
        case) nothing is emitted and the span costs O(1).
        """
        self.cycles_skipped += end - start
        self.ff_jumps += 1
        hooks = self.hooks
        if hooks.cycle_start or hooks.cycle_end:
            for cycle in range(start, end):
                if hooks.cycle_start:
                    hooks.emit_cycle_start(cycle)
                if hooks.cycle_end:
                    hooks.emit_cycle_end(cycle + 1)

    def run_until(
        self, end: int, stop: Optional[Callable[[], bool]] = None
    ) -> int:
        """Advance to ``end``, jumping over provably-idle cycle spans.

        A jump is taken only when every component is parked *and* no
        horizon falls on the current cycle; jumps land exactly on the
        next horizon (clamped to ``end``), so no cycle with work is
        ever skipped.  ``stop`` predicates stay exact: state can only
        change on executed cycles, so checking before each executed
        cycle (and before each jump) is equivalent to the cycle
        stepper's per-cycle check.
        """
        while self.now < end:
            if stop is not None and stop():
                break
            now = self.now
            if self.active_count() == 0:
                horizon = self._next_horizon(now)
                target = end if horizon is None else min(horizon, end)
                if target > now:
                    self._skip_span(now, target)
                    self.now = target
                    continue
            self._tick()
        return self.now

    def snapshot(self) -> Dict[str, Any]:
        state = super().snapshot()
        state["wheel"] = sorted(self._wheel)
        return state

    def restore(self, state: Dict[str, Any]) -> None:
        super().restore(state)
        wheel = list(state["wheel"])
        heapq.heapify(wheel)
        self._wheel = wheel

    def next_horizon(self, now: int) -> Optional[int]:
        """Wheel head merged with the wake sources (see base class)."""
        return self._next_horizon(now)


def make_scheduler(
    mode: str,
    components: Iterable[Component] = (),
    hooks: Optional[EngineHooks] = None,
) -> Scheduler:
    """Build the drive loop for ``mode``: "cycle" or "event"."""
    if mode == "cycle":
        return Scheduler(components, hooks=hooks)
    if mode == "event":
        return EventScheduler(components, hooks=hooks)
    raise ValueError(f"unknown scheduler mode {mode!r}; use 'cycle' or 'event'")
