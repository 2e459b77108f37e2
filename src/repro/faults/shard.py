"""Fault injection split across shard boundaries.

The serial :class:`~repro.faults.injector.NetworkFaultInjector` sees
every router of the network.  A sharded run
(:class:`~repro.network.sharded.ShardedNetworkSimulation`) splits that
single injector into cooperating halves that together make *exactly*
the draws, counter bumps, and hook emissions of the serial one:

* :class:`MirrorFaultInjector` runs in the parent process against the
  router-less front-end.  It owns everything the parent drives: the
  host-channel corruption machinery (the parent injects all host
  traffic) and the ``dead_links`` view consumed by dead-link-aware
  routing (the parent computes all routes).  It mirrors the link-fault
  schedule only to track ``dead_links`` — the counter bumps and hook
  events for a link transition come from the worker that owns the
  switch, so nothing is double-counted.

* :class:`ShardFaultInjector` runs inside each worker against the
  shard's local routers, with the plan narrowed by
  :func:`plan_for_shard`.  Credit-loss draws use the same per-router
  ``derive_rng(seed, "fault", "credit", name)`` streams as serial; for
  credits that will mature next cycle the worker *pre-draws* the
  verdicts during the boundary exchange (in
  :meth:`~repro.core.pipeline.DelayLine.pending` order — the exact
  order the commit will consume them), so the decision for a
  cross-shard credit is known before the remote restore must be
  announced.  A dropped cross-shard credit books its resync locally
  (the drop-side injector keeps the ``faults.credit_lost`` /
  ``faults.credit_resyncs`` bumps and the ``CREDIT_LOSS`` /
  ``CREDIT_RESYNC`` events, matching serial totals) while the actual
  ``restore_credit`` is shipped to the owning worker for the due cycle.
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Any, Callable, Iterable, List, Optional, Set, Tuple

from .injector import NetworkFaultInjector
from .plan import CREDIT_LOSS, CREDIT_RESYNC, FaultPlan


def plan_for_shard(plan: FaultPlan, local: Iterable[Any]) -> Optional[FaultPlan]:
    """Narrow ``plan`` to what one shard's workers inject themselves.

    Host-channel corruption is zeroed (the parent owns host injection)
    and the link schedule is filtered to switches in ``local``.  Credit
    loss stays: every worker needs the per-router streams for its own
    routers.  Returns None when nothing remains enabled, so idle
    workers skip the injector entirely.
    """
    local_set = set(local)
    narrowed = dataclasses.replace(
        plan,
        corrupt_rate=0.0,
        links=tuple(f for f in plan.links if f.switch in local_set),
    )
    return narrowed if narrowed.enabled else None


class MirrorFaultInjector(NetworkFaultInjector):
    """Parent-side injector for a router-less sharded front-end.

    The base constructor degrades gracefully against an empty
    ``sim.routers``: the credit-loss machinery attaches to no router
    (workers own those streams), while the corruption machinery — keyed
    only by host count — attaches in full.
    """

    def _build_schedule(self) -> List[Tuple[int, int, str, object]]:
        """Validate the link schedule against the topology, not routers.

        Same events, same order, same error contract as the base —
        only the lookup changes, because the parent builds no routers.
        """
        topo = self.sim.topology
        switches = set(topo.switch_ids())
        events: List[Tuple[int, int, str, object]] = []
        for idx, fault in enumerate(self.plan.links):
            if fault.switch not in switches:
                raise ValueError(f"LinkFault names unknown switch "
                                 f"{fault.switch!r}")
            if not 0 <= fault.port < topo.ports_used(fault.switch):
                raise ValueError(
                    f"LinkFault port {fault.port} out of range on "
                    f"{fault.switch!r}"
                )
            events.append((fault.cycle, idx, "down", fault))
            if fault.until is not None:
                events.append((fault.until, idx, "up", fault))
        events.sort(key=lambda e: (e[0], e[1]))
        return events

    def _apply_event(self, action: str, fault, now: int) -> None:
        """Track ``dead_links`` only; the owning worker flips the live
        link, bumps the counters, and emits the hook events."""
        key = (fault.switch, fault.port)
        if action == "down":
            self.dead_links.add(key)
        else:
            self.dead_links.discard(key)


class ShardFaultInjector(NetworkFaultInjector):
    """Worker-side injector over one shard's local routers.

    Construct with a :func:`plan_for_shard` plan against the worker
    facade (which exposes ``routers``/``hooks``/``topology`` like a
    simulation).  Two extensions over the base:

    * **Pre-drawn credit verdicts.**  :meth:`draw_drop_ahead` consumes the
      router's credit stream ahead of the commit that acts on it and
      queues the verdict; :meth:`_decide_drop` replays queued verdicts
      before touching the stream again.  Because pre-draws happen in
      :meth:`~repro.core.pipeline.DelayLine.pending` order — the exact
      pop order of the next commit — the stream is consumed in the
      serial order even though the draw moved one cycle earlier.

    * **Cross-shard resyncs.**  :meth:`record_drop` recognizes remote
      credit sinks by their ``remote_address`` attribute: the restore
      is queued for the owning worker (drained by the boundary exchange
      via :meth:`drain_resyncs`) while the due-cycle bump and
      ``CREDIT_RESYNC`` event stay local, preserving serial totals.
    """

    def __init__(self, plan: FaultPlan, sim, seed: int) -> None:
        from collections import deque

        self._drawn_ahead: dict = {}
        self._deque = deque
        #: (due, remote switch, remote port, vc) restores awaiting export.
        self._resync_out: List[Tuple[int, Any, int, int]] = []
        #: (due, vc) heap of remote drops still owing their local
        #: bump/emit at the due cycle.
        self._resync_due: List[Tuple[int, int]] = []
        super().__init__(plan, sim, seed)

    # -- credit verdicts -----------------------------------------------

    def draw_drop_ahead(self, router) -> bool:
        """Draw (and queue) the next loss verdict for ``router``."""
        verdict = super()._decide_drop(router)
        queue = self._drawn_ahead.get(router.name)
        if queue is None:
            queue = self._drawn_ahead[router.name] = self._deque()
        queue.append(verdict)
        return verdict

    def _decide_drop(self, router) -> bool:
        queue = self._drawn_ahead.get(router.name)
        if queue:
            return queue.popleft()
        return super()._decide_drop(router)

    # -- cross-shard resyncs -------------------------------------------

    def record_drop(self, router, sink: Callable[[int], None], vc: int,
                    cycle: int) -> None:
        address = getattr(sink, "remote_address", None)
        if address is None:
            super().record_drop(router, sink, vc, cycle)
            return
        due = cycle + self.plan.credit_resync_timeout
        self._resync_out.append((due, address[0], address[1], vc))
        heapq.heappush(self._resync_due, (due, vc))
        self._bump("faults.credit_lost")
        if self.hooks.fault_inject:
            self.hooks.emit_fault_inject(CREDIT_LOSS, (router.name, vc),
                                         cycle)

    def drain_resyncs(self) -> List[Tuple[int, Any, int, int]]:
        """Hand the queued cross-shard restores to the exchange."""
        out, self._resync_out = self._resync_out, []
        return out

    def advance(self, now: int) -> None:
        super().advance(now)
        while self._resync_due and self._resync_due[0][0] <= now:
            _, vc = heapq.heappop(self._resync_due)
            self._bump("faults.credit_resyncs")
            if self.hooks.fault_recover:
                self.hooks.emit_fault_recover(CREDIT_RESYNC, (vc,), now)

    def next_event(self, now: int) -> Optional[int]:
        horizon = super().next_event(now)
        if self._resync_due:
            due = self._resync_due[0][0]
            if horizon is None or due < horizon:
                horizon = due
        return horizon
