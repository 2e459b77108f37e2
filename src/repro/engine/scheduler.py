"""Active-set component scheduler and event-driven fast-forward.

The scheduler advances a fixed set of components one cycle at a time.
Each cycle it runs the compute phase for every *awake* component, then
the commit phase for every awake component (two-phase barrier).  After
each commit it asks the component one question,
:meth:`~repro.engine.component.Component.next_event` of the next
cycle, and files it by the answer:

awake
    The answer is that cycle (or earlier): the component runs next
    cycle.
asleep
    The answer is a later cycle: the component is skipped until that
    cycle rings on the scheduler's timer heap, or until an earlier
    :meth:`Scheduler.wake`, whichever comes first.
parked
    The answer is None: the component is skipped until a
    :meth:`Scheduler.wake`.

At low offered load, or in a large multi-stage network, most routers
are empty most cycles, and a router whose occupied inputs are all
still serializing a flit cannot move anything until the first of them
frees; skipping both removes the O(routers x ports) per-cycle floor.
A component that is asleep or parked is re-activated by
:meth:`Scheduler.wake`, which the harness calls at every external
arrival site (flit injection, link delivery) *before* handing the
component the event, so the component can fast-forward its local
clock via ``on_wake``.  A ringing timer calls ``on_wake`` too.

Correctness contract: a component may skip exactly the cycles its
``next_event`` answer skips only when running its phases on them would
not change its state or statistics.  The routers guarantee this
structurally — an empty router's arbitration loops are mutation-free
(round-robin pointers do not advance on empty request sets), and an
input that is still serializing asks no arbiter — which is what makes
the schedule byte-exact versus stepping everything.  That reference
schedule is a test oracle (``tests/exhaustive.py``), not a mode of this
module.

Components are registered in a fixed order and both phases always run
in that order, so scheduling is deterministic regardless of wake
history.

Fast-forward: when every component is parked — none awake and none
asleep — :meth:`Scheduler.run_until` jumps straight to the earliest
*horizon* over the registered wake-source callables (arrival queue,
in-flight delivery queues, fault schedules).  Jumping is invisible:
the cycles it lands on run exactly the code they would have run had
the clock been stepped, a skipped span is provably state-invariant,
and its ``cycle_start``/``cycle_end`` hook events are replayed in
order when anything subscribes (so per-cycle instrumentation — trace
cycle counters, sampled metrics, sanitizer checks — observes an
identical event stream).  The never-jump schedule that steps every
cycle is a test oracle (``tests/exhaustive.py``'s ``never_jump``).

Horizon safety rule: a wake source or a ``next_event`` answer may
report a cycle *earlier* than work actually exists (the cycle executes
as a no-op) but never later — skipping a cycle with live work is a
correctness bug, not a slowdown.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..core.errors import UnregisteredComponentError
from .component import Component
from .hooks import EngineHooks

#: A wake source reports the earliest cycle ``>= now`` at which it will
#: produce externally-driven work, or None for "never" (as known now).
WakeSource = Callable[[int], Optional[int]]


class Scheduler:
    """Drive a set of :class:`Component` objects with active-set parking
    and fast-forward over spans in which all of them are parked.

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
        #: Component -> slot, keyed by the component itself (not its
        #: ``id()``, which a pickled scheduler would not carry over).
        self._index: Dict[Component, int] = {}
        #: Per slot: True while the component is awake (stepped).
        self._active: List[bool] = []
        #: Per slot: the cycle an asleep component's timer rings, None
        #: while it is awake or parked.
        self._alarm: List[Optional[int]] = []
        #: ``(cycle, slot)`` timers of asleep components, a binary heap
        #: expired lazily: an entry whose slot no longer sleeps until
        #: that cycle (woken early, or asleep again until another) is
        #: dropped when it surfaces.
        self._timers: List[Tuple[int, int]] = []
        #: Sorted slot indices of awake components — run_cycle iterates
        #: this, so a mostly-idle population costs O(awake), not
        #: O(registered).  Kept consistent with ``_active`` by
        #: register/wake/the timers/run_cycle.
        self._active_slots: List[int] = []
        #: Components awake or asleep: the live count fast-forward and
        #: the sharded workers' horizon reports read.
        self._n_active = 0
        #: Current cycle of :meth:`run_until` (the next cycle to run).
        self.now = 0
        #: Cycles advanced via :meth:`run_cycle`.
        self.cycles_run = 0
        #: Total component-cycles actually executed (compute+commit
        #: pairs).  With parking and sleep this lags
        #: ``cycles_run * len(components)``; the gap is the work
        #: active-set scheduling skipped.
        self.component_steps = 0
        #: Cycles fast-forwarded over without executing.
        self.cycles_skipped = 0
        #: Number of fast-forward jumps taken.
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
        self._index[comp] = slot
        self.components.append(comp)
        self._active.append(True)
        self._alarm.append(None)
        self._active_slots.append(slot)  # ascending by construction
        self._n_active += 1

    def add_pre_cycle(self, fn: Callable[[int], None]) -> None:
        """Run ``fn(now)`` before each executed engine cycle."""
        self._pre_cycle.append(fn)

    def add_post_cycle(self, fn: Callable[[int], None]) -> None:
        """Run ``fn(now)`` after each executed engine cycle."""
        self._post_cycle.append(fn)

    def add_wake_source(self, source: WakeSource) -> None:
        """Register a horizon callable consulted before fast-forwarding."""
        self._wake_sources.append(source)

    def wake(self, comp: Component, now: int) -> None:
        """Re-activate ``comp`` for cycle ``now`` if it is asleep or
        parked.

        Must be called before delivering the waking event (the
        component stamps arrivals with its local clock).  No-op for
        components that are already awake.
        """
        slot = self._index.get(comp)
        if slot is None:
            raise UnregisteredComponentError(comp)
        if not self._active[slot]:
            self._active[slot] = True
            insort(self._active_slots, slot)
            if self._alarm[slot] is None:
                self._n_active += 1
            else:
                self._alarm[slot] = None
            comp.on_wake(now)

    def active_count(self) -> int:
        """Components awake or asleep (everything not parked)."""
        return self._n_active

    def _ring(self, now: int) -> None:
        """Wake every sleeper whose timer is due by ``now``."""
        timers, alarm, active = self._timers, self._alarm, self._active
        while timers and timers[0][0] <= now:
            due, slot = heappop(timers)
            if alarm[slot] == due:
                alarm[slot] = None
                active[slot] = True
                insort(self._active_slots, slot)
                self.components[slot].on_wake(now)

    def run_cycle(self, now: int) -> None:
        """Advance every awake component through one two-phase cycle."""
        timers = self._timers
        if timers and timers[0][0] <= now:
            self._ring(now)
        hooks = self.hooks
        if hooks.cycle_start:
            hooks.emit_cycle_start(now)
        components = self.components
        active = self._active
        slots = self._active_slots
        for slot in slots:
            components[slot].compute(now)
        left = False
        nxt = now + 1
        for slot in slots:
            comp = components[slot]
            comp.commit(now)
            due = comp.next_event(nxt)
            if due is not None and due <= nxt:
                continue
            active[slot] = False
            left = True
            if due is None:
                self._n_active -= 1
            else:
                self._alarm[slot] = due
                heappush(timers, (due, slot))
        self.component_steps += len(slots)
        if left:
            self._active_slots = [s for s in slots if active[s]]
        self.cycles_run += 1
        if hooks.cycle_end:
            hooks.emit_cycle_end(nxt)

    def _tick(self) -> None:
        """Execute one full cycle: harness pre-phases, engine, post."""
        now = self.now
        for fn in self._pre_cycle:
            fn(now)
        self.run_cycle(now)
        for fn in self._post_cycle:
            fn(now)
        self.now = now + 1

    def _skip_span(self, start: int, end: int) -> None:
        """Fast-forward over ``[start, end)`` without executing.

        State is frozen across the span (all components parked, no
        wake source fires), so when per-cycle instrumentation is
        subscribed the span's ``cycle_start``/``cycle_end`` events are
        replayed in order — every observation a subscriber would have
        made stepping an idle span is made here too, keeping trace
        cycle counters, sampled metrics, and sanitizer streams
        byte-identical to a never-jump run.  With no subscribers (the
        common case) nothing is emitted and the span costs O(1).
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
        cycle (and before each jump) is equivalent to checking before
        every cycle.  Returns the cycle reached.
        """
        while self.now < end:
            if stop is not None and stop():
                break
            now = self.now
            if self._n_active == 0:
                horizon = self.next_horizon(now)
                target = end if horizon is None else min(horizon, end)
                if target > now:
                    self._skip_span(now, target)
                    self.now = target
                    continue
            self._tick()
        return self.now

    def next_horizon(self, now: int) -> Optional[int]:
        """Earliest upcoming cycle with possible work, or None.

        Pure read over the wake sources, which the sharded workers also
        report to the parent.
        """
        horizon: Optional[int] = None
        for source in self._wake_sources:
            h = source(now)
            if h is not None and (horizon is None or h < horizon):
                horizon = h
        return horizon


#: Kept because the end-to-end benchmark's tracer
#: (``benchmarks/e2e/trace.py``) looks the scheduler up by this name.
EventScheduler = Scheduler
