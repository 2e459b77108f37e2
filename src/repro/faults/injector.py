"""Fault injectors: interpret a :class:`~repro.faults.plan.FaultPlan`
against a live simulation.

Two injectors, one per simulation stack:

* :class:`SwitchFaultInjector` drives a standalone switch simulation
  (``harness.SwitchSimulation``): host-channel flit corruption with
  CRC-style detection and sender retransmission, credit loss on the
  credit-return wires/buses with a resync timeout, and scheduled stuck
  crosspoint/subswitch/input buffers.
* :class:`NetworkFaultInjector` drives a multi-router simulation
  (``network.NetworkSimulation``): host-channel corruption, credit
  loss on the inter-router credit return, and scheduled dead links
  that routing then avoids (graceful degradation).

Both emit ``fault_inject`` / ``fault_recover`` on the simulation's
hook bus (commit-phase or externally driven — never inside a
component's ``compute``), and both are driven by an explicit
``advance(now)`` call at the top of the owning simulation's ``step``,
so every injection and recovery lands at a schedule-independent point.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..core.credit import CreditCounter
from ..core.rng import derive_rng
from .plan import (
    CORRUPT,
    CREDIT_LOSS,
    CREDIT_RESYNC,
    LINK_DOWN,
    LINK_UP,
    RETRANSMIT,
    STUCK,
    UNSTUCK,
    FaultPlan,
    flit_checksum,
)


def _flatten_counters(node) -> List[CreditCounter]:
    """All CreditCounters reachable under ``node`` (nested lists/dicts)."""
    if isinstance(node, CreditCounter):
        return [node]
    if isinstance(node, dict):
        values = [node[k] for k in sorted(node)]
    else:
        values = list(node)
    found: List[CreditCounter] = []
    for value in values:
        found.extend(_flatten_counters(value))
    return found


class _ChannelFaults:
    """Shared host-channel corruption machinery (both injectors).

    One RNG stream per channel, one draw per actual transmission
    attempt: a draw below ``corrupt_rate`` corrupts the flit on the
    wire.  The receiver's CRC check detects the nonzero syndrome and
    discards the flit; the sender keeps it queued and retries after a
    growing back-off (``retry_delay``).  The first clean transmission
    after one or more corruptions is the retransmission recovery.
    """

    #: Construction-time wiring, reattached (not serialized) on restore.
    SNAPSHOT_WIRING = ("plan", "hooks", "_bump")

    def __init__(self, plan: FaultPlan, seed: int, num_channels: int,
                 hooks, bump: Callable[[str], None]) -> None:
        self.plan = plan
        self.hooks = hooks
        self._bump = bump
        self._rngs = [
            derive_rng(seed, "fault", "corrupt", c)
            for c in range(num_channels)
        ]
        self._attempts = [0] * num_channels
        self._retry_at = [0] * num_channels

    def snapshot(self) -> Dict[str, Any]:
        """Picklable capture: per-channel RNG states and back-off state."""
        return {
            "rngs": [rng.getstate() for rng in self._rngs],
            "attempts": list(self._attempts),
            "retry_at": list(self._retry_at),
        }

    def restore(self, state: Dict[str, Any]) -> None:
        for rng, rng_state in zip(self._rngs, state["rngs"]):
            rng.setstate(rng_state)
        self._attempts = list(state["attempts"])
        self._retry_at = list(state["retry_at"])

    def rebind_bump(self, bump: Callable[[str], None]) -> None:
        """Repoint the counter sink (the owner's stats object may have
        been replaced by a restore)."""
        self._bump = bump

    def channel_ready(self, channel: int, now: int) -> bool:
        """False while ``channel`` is backing off after a corruption."""
        return self._retry_at[channel] <= now

    def retry_at(self, channel: int) -> int:
        """Cycle at which ``channel``'s back-off expires (0 = ready).

        Horizon for event-driven scheduling: a backlogged source whose
        channel is backing off need not run before this.  Pure read —
        no RNG is consulted until an actual transmission attempt.
        """
        return self._retry_at[channel]

    def attempt_transmit(self, channel: int, flit, now: int) -> bool:
        """One transmission attempt; True when the flit goes through."""
        rng = self._rngs[channel]
        if rng.random() < self.plan.corrupt_rate:
            # The wire flips bits: a nonzero syndrome lands on the check
            # symbol, so the receiver's CRC-8 recomputation can't match
            # (single-error model) and the flit is discarded on arrival.
            syndrome = 1 + rng.randrange(255)
            expected = flit_checksum(flit)
            detected = (expected ^ syndrome) != expected
            assert detected  # nonzero syndrome: always caught
            self._attempts[channel] += 1
            self._retry_at[channel] = now + self.plan.retry_delay(
                self._attempts[channel]
            )
            self._bump("faults.corrupt")
            if self.hooks.fault_inject:
                self.hooks.emit_fault_inject(CORRUPT, (channel,), now)
            return False
        if self._attempts[channel]:
            self._bump("faults.retransmits")
            if self.hooks.fault_recover:
                self.hooks.emit_fault_recover(RETRANSMIT, (channel,), now)
            self._attempts[channel] = 0
        return True


class _FaultInjector:
    """What the two injectors share: the disabled-plan refusal and the
    fault-seed rule, the host-channel corruption delegates, and the
    cursor over the event schedule plus the lost-credit resync FIFO
    with their common horizon.

    A subclass supplies ``_build_schedule`` (sorted ``(cycle, idx,
    action, fault)`` events), ``_apply_event`` (what one of them does),
    ``_resync`` (how a ``_lost`` entry is re-delivered) and its own
    snapshot encoding; whatever those read must be set before
    ``super().__init__`` runs.
    """

    def __init__(self, plan: FaultPlan, hooks, seed: int, num_channels: int,
                 bump: Callable[[str], None]) -> None:
        if not plan.enabled:
            raise ValueError("refusing to attach a disabled FaultPlan")
        self.plan = plan
        self.hooks = hooks
        self._fault_seed = plan.seed if plan.seed is not None else seed
        self._channels: Optional[_ChannelFaults] = None
        if plan.corrupt_rate > 0.0:
            self._channels = _ChannelFaults(
                plan, self._fault_seed, num_channels, hooks, bump,
            )
        #: Lost credits awaiting resync: FIFO of ``(due_cycle, sink)``
        #: (switch) or ``(due_cycle, sink, vc)`` (network) entries; due
        #: cycles are monotonic because the timeout is fixed.
        self._lost: Deque[Tuple[Any, ...]] = deque()
        self._schedule = self._build_schedule()
        self._next_event = 0

    def advance(self, now: int) -> None:
        """Per-cycle driver, called at the top of the owning ``step``."""
        while (
            self._next_event < len(self._schedule)
            and self._schedule[self._next_event][0] <= now
        ):
            _, _, action, fault = self._schedule[self._next_event]
            self._apply_event(action, fault, now)
            self._next_event += 1
        while self._lost and self._lost[0][0] <= now:
            self._resync(self._lost.popleft(), now)

    def next_event(self, now: int) -> Optional[int]:
        """Horizon: the next scheduled event or due credit resync.

        Pure read over the pre-sorted schedule (``_next_event`` cursor)
        and the resync FIFO, so event-driven fast-forward never jumps
        over a fault injection or a recovery.
        """
        horizon: Optional[int] = None
        if self._next_event < len(self._schedule):
            horizon = self._schedule[self._next_event][0]
        if self._lost and (horizon is None or self._lost[0][0] < horizon):
            horizon = self._lost[0][0]
        return horizon

    # Corruption, consulted by the owner's injection loop; ``channel``
    # is a switch port or a network host.

    def channel_ready(self, channel: int, now: int) -> bool:
        if self._channels is None:
            return True
        return self._channels.channel_ready(channel, now)

    def channel_retry_at(self, channel: int) -> int:
        """Back-off expiry cycle for ``channel`` (0 when never corrupted)."""
        if self._channels is None:
            return 0
        return self._channels.retry_at(channel)

    def attempt_transmit(self, channel: int, flit, now: int) -> bool:
        if self._channels is None:
            return True
        return self._channels.attempt_transmit(channel, flit, now)


class _DropHook:
    """Credit-loss tap installed on credit pipes/buses.

    A module-level callable class rather than a bound method so the
    router object graph stays picklable for checkpoint/restore.
    """

    __slots__ = ("injector",)

    def __init__(self, injector: "SwitchFaultInjector") -> None:
        self.injector = injector

    def __call__(self, sink: Callable[[], None]) -> bool:
        return self.injector.maybe_drop(sink)


class SwitchFaultInjector(_FaultInjector):
    """Applies a FaultPlan to one standalone switch simulation.

    Owns three mechanisms:

    * host-channel corruption (via :class:`_ChannelFaults`), consulted
      by ``StagedRun._try_inject`` at each transmission attempt;
    * credit loss: a ``drop_hook`` installed on the router's
      credit-return pipes/buses claims delivered credits with
      probability ``credit_loss_rate`` and re-delivers them
      ``credit_resync_timeout`` cycles later (the resync handshake) —
      organizations without a credit-return wire (baseline,
      distributed, VOQ, and the shared-buffer model's internal ACK
      path) are unaffected;
    * the stuck-buffer schedule: at each ``StuckFault.cycle`` the named
      crosspoint/subswitch counters are marked ``stuck`` (they stop
      accepting flits) or the named input read port is wedged via
      ``Router.stick_input``.

    Fault counters land in ``router.stats.extra["faults.*"]`` and are
    folded into run results as ``stats.faults.*``.
    """

    #: Wiring and derived indexes rebuilt by :meth:`restore` rather than
    #: captured in :meth:`snapshot` (``tests/test_state_contracts.py``
    #: checks that a restore leaves nothing else behind).
    SNAPSHOT_WIRING = ("plan", "router", "hooks", "credit_capable",
                       "_counter_where", "_schedule")

    def __init__(self, plan: FaultPlan, router, seed: int) -> None:
        self.router = router
        self._now = 0
        super().__init__(plan, router.hooks, seed, router.config.radix,
                         router.stats.bump)
        self._credit_rng = derive_rng(self._fault_seed, "fault", "credit")
        self._counter_where: Dict[int, Tuple[int, ...]] = {}
        if plan.credit_loss_rate > 0.0:
            self._install_credit_hooks()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def _credit_taps(self) -> List[object]:
        taps = list(getattr(self.router, "_credit_pipes", ()) or ())
        taps.extend(getattr(self.router, "_credit_buses", ()) or ())
        pipe = getattr(self.router, "_credit_pipe", None)
        if pipe is not None:
            taps.append(pipe)
        return taps

    def _install_credit_hooks(self) -> None:
        taps = self._credit_taps()
        for tap in taps:
            tap.drop_hook = _DropHook(self)
        self.credit_capable = bool(taps)
        self._map_counters()

    def detach_credit_hooks(self) -> None:
        """Remove the drop taps (pipes revert to the zero-cost path).

        The checkpoint layer detaches around a router snapshot so the
        captured pipes don't drag the injector (and through its hook
        bus, the whole simulation) into the copied object graph;
        :meth:`attach_credit_hooks` re-installs the taps.
        """
        for tap in self._credit_taps():
            tap.drop_hook = None

    def attach_credit_hooks(self) -> None:
        """Re-install the taps removed by :meth:`detach_credit_hooks`."""
        if self.plan.credit_loss_rate > 0.0:
            self._install_credit_hooks()

    def _walk_counters(self) -> List[Tuple[Tuple[int, ...], CreditCounter]]:
        """(address, counter) pairs over the router's credit tree.

        Addresses are the stable (i, j[, vc]) coordinates; the tree is
        walked in deterministic index order, so the same address names
        the same logical buffer before and after a restore replaces the
        counter objects.
        """
        root = getattr(self.router, "_credits", None)
        if root is None:
            root = getattr(self.router, "_in_credits", None)
        found: List[Tuple[Tuple[int, ...], CreditCounter]] = []

        def walk(node, prefix: Tuple[int, ...]) -> None:
            if isinstance(node, CreditCounter):
                found.append((prefix, node))
                return
            for idx, child in enumerate(node):
                walk(child, prefix + (idx,))

        if root is not None:
            walk(root, ())
        return found

    def _map_counters(self) -> None:
        """Label credit counters by their stable (i, j[, vc]) address,
        so dropped-credit events can name a location (the runtime keys
        are object ids, but the emitted labels are the addresses)."""
        self._counter_where = {
            id(counter): where for where, counter in self._walk_counters()
        }

    def _build_schedule(self) -> List[Tuple[int, int, str, object]]:
        events: List[Tuple[int, int, str, object]] = []
        for idx, fault in enumerate(self.plan.stuck):
            events.append((fault.cycle, idx, "stick", fault))
            if fault.until is not None:
                events.append((fault.until, idx, "unstick", fault))
        events.sort(key=lambda e: (e[0], e[1]))
        return events

    # ------------------------------------------------------------------
    # Per-cycle driver (called at the top of SwitchSimulation.step)
    # ------------------------------------------------------------------

    def advance(self, now: int) -> None:
        self._now = now
        super().advance(now)

    def _resync(self, entry: Tuple[Any, ...], now: int) -> None:
        _, sink = entry
        sink()
        self.router.stats.bump("faults.credit_resyncs")
        if self.hooks.fault_recover:
            where = self._counter_where.get(id(sink.__self__), ())
            self.hooks.emit_fault_recover(CREDIT_RESYNC, where, now)

    # ------------------------------------------------------------------
    # Credit loss
    # ------------------------------------------------------------------

    def maybe_drop(self, sink: Callable[[], None]) -> bool:
        """drop_hook decision, called through the installed :class:`_DropHook`."""
        if self._credit_rng.random() >= self.plan.credit_loss_rate:
            return False
        self._lost.append(
            (self._now + self.plan.credit_resync_timeout, sink)
        )
        self.router.stats.bump("faults.credit_lost")
        if self.hooks.fault_inject:
            where = self._counter_where.get(id(sink.__self__), ())
            self.hooks.emit_fault_inject(CREDIT_LOSS, where, self._now)
        return True

    def pending_credit_sinks(self) -> List[Callable[[], None]]:
        """Sinks held for resync (credit-conservation accounting)."""
        return [sink for _, sink in self._lost]

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Picklable capture of the injector's mutable state.

        Held resync sinks (bound counter methods) are encoded by the
        owning counter's stable address plus the method name, so the
        capture carries no live object references; :meth:`restore`
        re-resolves them against the (by then restored) router.
        """
        lost = []
        for due, sink in self._lost:
            where = self._counter_where.get(id(sink.__self__))
            if where is None:
                raise RuntimeError(
                    "cannot checkpoint a resync sink whose counter has "
                    "no stable address"
                )
            lost.append((due, where, sink.__func__.__name__))
        return {
            "now": self._now,
            "next_event": self._next_event,
            "credit_rng": self._credit_rng.getstate(),
            "lost": lost,
            "channels": (
                None if self._channels is None else self._channels.snapshot()
            ),
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Apply a :meth:`snapshot` capture; call *after* the router's
        own state has been restored (sink resolution and hook taps run
        against the live counter tree)."""
        self._now = state["now"]
        self._next_event = state["next_event"]
        self._credit_rng.setstate(state["credit_rng"])
        if self._channels is not None:
            self._channels.restore(state["channels"])
            # The router restore replaced its stats object; counters
            # must land on the live one.
            self._channels.rebind_bump(self.router.stats.bump)
        if self.plan.credit_loss_rate > 0.0:
            # The restore may have replaced pipes and counters: re-tap
            # the credit wires and re-index the counter addresses.
            self._install_credit_hooks()
        by_address = dict(self._walk_counters())
        self._lost = deque(
            (due, getattr(by_address[tuple(where)], method))
            for due, where, method in state["lost"]
        )

    # ------------------------------------------------------------------
    # Stuck buffers
    # ------------------------------------------------------------------

    def _apply_event(self, action: str, fault, now: int) -> None:
        stick = action == "stick"
        if fault.kind == "crosspoint":
            for counter in self._resolve_crosspoint(fault.where):
                counter.stuck = stick
        else:  # "input"
            port = fault.where[0]
            vc = fault.where[1] if len(fault.where) > 1 else None
            if stick:
                self.router.stick_input(port, vc)
            else:
                self.router.unstick_input(port, vc)
        if stick:
            self.router.stats.bump("faults.stuck")
            if self.hooks.fault_inject:
                self.hooks.emit_fault_inject(STUCK, fault.where, now)
        else:
            self.router.stats.bump("faults.unstuck")
            if self.hooks.fault_recover:
                self.hooks.emit_fault_recover(UNSTUCK, fault.where, now)

    def _resolve_crosspoint(self, where) -> List[CreditCounter]:
        root = getattr(self.router, "_credits", None)
        if root is None:
            root = getattr(self.router, "_in_credits", None)
        if root is None:
            raise ValueError(
                f"{type(self.router).__name__} has no crosspoint or "
                f"subswitch buffers; use kind='input' stuck faults"
            )
        node = root
        for idx in where:
            node = node[idx]
        counters = _flatten_counters(node)
        if not counters:
            raise ValueError(f"stuck-fault address {where} names no buffer")
        return counters


class NetworkFaultInjector(_FaultInjector):
    """Applies a FaultPlan to a multi-router network simulation.

    Host-channel corruption mirrors the switch injector.  Credit loss
    intercepts the committed inter-router credit deliveries (each
    ``NetworkRouter`` consults its ``fault_injector`` attribute before
    calling a staged credit sink) and re-delivers after the resync
    timeout.  Scheduled :class:`~repro.faults.plan.LinkFault` events
    take output links down/up; route computation then avoids dead
    links (``route_avoiding`` when the topology provides it, bounded
    re-rolls of the oblivious route otherwise), counting reroutes and
    give-ups.  Counters land in the run result as ``stats.faults.*``.
    """

    #: Wiring and the pre-validated link schedule, rebuilt from the plan
    #: at construction rather than captured by :meth:`snapshot`.
    SNAPSHOT_WIRING = ("plan", "sim", "hooks", "_schedule")

    def __init__(self, plan: FaultPlan, sim, seed: int) -> None:
        self.sim = sim
        self.counters: Dict[str, int] = {}
        self.dead_links: set = set()
        super().__init__(plan, sim.hooks, seed, sim.topology.num_hosts,
                         self._bump)
        self._credit_rngs: Dict[str, object] = {}
        if plan.credit_loss_rate > 0.0:
            for sid, router in sim.routers.items():
                router.fault_injector = self
                self._credit_rngs[router.name] = derive_rng(
                    self._fault_seed, "fault", "credit", router.name
                )

    def _bump(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _build_schedule(self) -> List[Tuple[int, int, str, object]]:
        events: List[Tuple[int, int, str, object]] = []
        for idx, fault in enumerate(self.plan.links):
            router = self.sim.routers.get(fault.switch)
            if router is None:
                raise ValueError(f"LinkFault names unknown switch "
                                 f"{fault.switch!r}")
            if not 0 <= fault.port < len(router.links):
                raise ValueError(
                    f"LinkFault port {fault.port} out of range on "
                    f"{fault.switch!r}"
                )
            events.append((fault.cycle, idx, "down", fault))
            if fault.until is not None:
                events.append((fault.until, idx, "up", fault))
        events.sort(key=lambda e: (e[0], e[1]))
        return events

    # ------------------------------------------------------------------
    # Per-cycle driver (called at the top of NetworkSimulation.step)
    # ------------------------------------------------------------------

    def _resync(self, entry: Tuple[Any, ...], now: int) -> None:
        _, sink, vc = entry
        sink(vc)
        self._bump("faults.credit_resyncs")
        if self.hooks.fault_recover:
            self.hooks.emit_fault_recover(CREDIT_RESYNC, (vc,), now)

    def _apply_event(self, action: str, fault, now: int) -> None:
        down = action == "down"
        router = self.sim.routers[fault.switch]
        link = router.links[fault.port]
        link.alive = not down
        key = (fault.switch, fault.port)
        where = (str(fault.switch), fault.port)
        if down:
            self.dead_links.add(key)
            self._bump("faults.link_down")
            if self.hooks.fault_inject:
                self.hooks.emit_fault_inject(LINK_DOWN, where, now)
        else:
            self.dead_links.discard(key)
            self._bump("faults.link_up")
            if self.hooks.fault_recover:
                self.hooks.emit_fault_recover(LINK_UP, where, now)

    # ------------------------------------------------------------------
    # Credit loss (consulted from NetworkRouter.commit)
    # ------------------------------------------------------------------

    def _decide_drop(self, router) -> bool:
        """One loss decision on ``router``'s private credit stream.

        Split from the bookkeeping so the sharded engine can pre-draw
        decisions for credits that mature on a later cycle (the stream
        is per-router, so consuming it ahead of the commit that acts on
        the decision preserves the serial draw order).
        """
        rng = self._credit_rngs.get(router.name)
        return rng is not None and rng.random() < self.plan.credit_loss_rate

    def record_drop(self, router, sink: Callable[[int], None], vc: int,
                    cycle: int) -> None:
        """Book a dropped credit: queue its resync, count it, emit."""
        self._lost.append(
            (cycle + self.plan.credit_resync_timeout, sink, vc)
        )
        self._bump("faults.credit_lost")
        if self.hooks.fault_inject:
            self.hooks.emit_fault_inject(
                CREDIT_LOSS, (router.name, vc), cycle
            )

    def drop_credit(self, router, sink: Callable[[int], None], vc: int,
                    cycle: int) -> bool:
        if not self._decide_drop(router):
            return False
        self.record_drop(router, sink, vc, cycle)
        return True

    def pending_credits(self) -> List[Tuple[Callable[[int], None], int]]:
        """(sink, vc) pairs held for resync (conservation accounting)."""
        return [(sink, vc) for _, sink, vc in self._lost]

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def _sink_addresses(self) -> Dict[int, Tuple[object, int]]:
        """id(credit sink) -> (switch id, port) over the live network."""
        where: Dict[int, Tuple[object, int]] = {}
        for sid, router in self.sim.routers.items():
            for port, sink in enumerate(router.credit_sinks):
                if sink is not None:
                    where[id(sink)] = (sid, port)
        return where

    def snapshot(self) -> Dict[str, Any]:
        """Picklable capture of the injector's mutable state.

        Held resync sinks are encoded as the (switch, port) coordinates
        of the credit-sink slot they occupy; :meth:`restore` resolves
        the coordinates back to the live sink objects.
        """
        where = self._sink_addresses()
        lost = []
        for due, sink, vc in self._lost:
            address = where.get(id(sink))
            if address is None:
                raise RuntimeError(
                    "cannot checkpoint a resync sink that is not a "
                    "registered credit sink"
                )
            lost.append((due, address, vc))
        return {
            "counters": dict(self.counters),
            "dead_links": sorted(self.dead_links),
            "next_event": self._next_event,
            "lost": lost,
            "credit_rngs": {
                name: rng.getstate()
                for name, rng in sorted(self._credit_rngs.items())
            },
            "channels": (
                None if self._channels is None else self._channels.snapshot()
            ),
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Apply a :meth:`snapshot` capture (routers restored first)."""
        self.counters = dict(state["counters"])
        self.dead_links = {
            (sid, port) for sid, port in state["dead_links"]
        }
        self._next_event = state["next_event"]
        for name, rng_state in state["credit_rngs"].items():
            self._credit_rngs[name].setstate(rng_state)
        if self._channels is not None:
            self._channels.restore(state["channels"])
        routers = self.sim.routers
        self._lost = deque(
            (due, routers[sid].credit_sinks[port], vc)
            for due, (sid, port), vc in state["lost"]
        )

    # ------------------------------------------------------------------
    # Dead-link-aware routing
    # ------------------------------------------------------------------

    def route(self, topo, src_host: int, dst_host: int, rng) -> List[int]:
        """Route ``src -> dst``, avoiding dead links when possible."""
        ports = topo.route(src_host, dst_host, rng)
        if not self.dead_links or self._route_clean(topo, src_host, ports):
            return ports
        self._bump("faults.reroutes")
        avoid = getattr(topo, "route_avoiding", None)
        if avoid is not None:
            alt = avoid(src_host, dst_host, rng, self._link_ok)
            if alt is not None:
                return alt
        else:
            for _ in range(16):
                alt = topo.route(src_host, dst_host, rng)
                if self._route_clean(topo, src_host, alt):
                    return alt
        # No clean path found: ship the blind route — the packet waits
        # at the dead link until (if ever) it comes back up.
        self._bump("faults.route_giveups")
        return ports

    def _link_ok(self, switch, port: int) -> bool:
        return (switch, port) not in self.dead_links

    def _route_clean(self, topo, src_host: int, ports: List[int]) -> bool:
        switch = topo.host_attachment(src_host).switch
        for port in ports:
            if (switch, port) in self.dead_links:
                return False
            ref = topo.neighbor(switch, port)
            if ref.switch is None:
                break
            switch = ref.switch
        return True
