"""Network-level router model.

Figure 19 simulates 4096-node Clos networks; the paper notes that
"because of the complexity of simulating a large network, we use the
simulation methodology outlined in [19] to reduce the simulation time
with minimal loss in the accuracy of the simulation".  In the same
spirit this module provides a reduced-detail router for multi-router
simulation: an input-queued VC router with

* per-VC input buffers and credit-based flow control toward the
  downstream router (real backpressure, unlike the standalone switch
  models whose outputs always drain);
* source routing (each flit carries its remaining output-port list);
* single-cycle separable allocation plus a configurable
  ``pipeline_delay`` that models the internal pipeline depth of the
  actual (hierarchical) router microarchitecture — deeper for higher
  radix, per Section 2's t_r = t_cy (X + Y log2 k);
* the same ``flit_cycles`` switch/channel serialization as the
  switch-level models.

The absolute saturation point of a single router is taken from the
switch-level simulations; what the network simulation adds — hop count,
serialization, queueing across stages, and backpressure — is what
Figure 19 is about (zero-load latency and network-level saturation of
high- vs low-radix Clos networks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..core.arbiter import RoundRobinArbiter
from ..core.errors import InvariantViolation, drift, invariant
from ..core.buffers import VcBufferBank, audit_bounds, bank_lengths, per_bank
from ..core.credit import CreditCounter
from ..core.flit import Flit
from ..core.pipeline import BusyTracker, DelayLine
from ..core.vcstate import OutputVcState
from ..engine.component import Component
from ..engine.hooks import EngineHooks


@dataclass(frozen=True)
class NetworkRouterConfig:
    """Parameters of one network router (and its output channels)."""

    num_ports: int
    num_vcs: int = 4
    buffer_depth: int = 8
    flit_cycles: int = 4
    pipeline_delay: int = 3
    channel_latency: int = 1
    credit_latency: int = 1

    def __post_init__(self) -> None:
        if self.num_ports < 2:
            raise ValueError(f"num_ports must be >= 2, got {self.num_ports}")
        if self.num_vcs < 1:
            raise ValueError(f"num_vcs must be >= 1, got {self.num_vcs}")
        if self.buffer_depth < 1:
            raise ValueError(
                f"buffer_depth must be >= 1, got {self.buffer_depth}"
            )
        if self.flit_cycles < 1:
            raise ValueError(
                f"flit_cycles must be >= 1, got {self.flit_cycles}"
            )
        if self.pipeline_delay < 0:
            raise ValueError(
                f"pipeline_delay must be >= 0, got {self.pipeline_delay}"
            )
        if self.channel_latency < 0:
            raise ValueError(
                f"channel_latency must be >= 0, got {self.channel_latency}"
            )
        # A credit pushed during a commit is popped by the next cycle's
        # compute at the earliest, so 0 would silently run as 1.
        if self.credit_latency < 1:
            raise ValueError(
                f"credit_latency must be >= 1, got {self.credit_latency}"
            )


def pipeline_depth_for_radix(radix: int, base: int = 2) -> int:
    """Router pipeline depth scaling as X + log2(k)/2 (Section 2)."""
    return base + max(1, round(math.log2(radix) / 2))


class OutputLink:
    """One router output port: where it leads and its flow-control state.

    ``alive`` models link failure (repro.faults): a dead link stops
    transmitting — flits queued toward it simply wait — until the fault
    schedule brings it back up.
    """

    __slots__ = ("deliver", "space", "vc_state", "credits", "is_host",
                 "alive")

    def __init__(
        self,
        num_vcs: int,
        deliver: Callable[[Flit, int], None],
        downstream_depth: Optional[int],
    ) -> None:
        self.deliver = deliver
        self.vc_state = OutputVcState(num_vcs)
        self.is_host = downstream_depth is None
        self.alive = True
        if downstream_depth is None:
            self.credits: Optional[List[CreditCounter]] = None
        else:
            self.credits = [
                CreditCounter(downstream_depth) for _ in range(num_vcs)
            ]

    def restore_credit(self, vc: int) -> None:
        if self.credits is not None:
            self.credits[vc].restore()


class NetworkRouter(Component):
    """Reduced-detail input-queued VC router for network simulation."""

    # The reduced-detail model folds its internal pipeline into a fixed
    # ``pipeline_delay``, so only arrival ("RC") and link transmission
    # ("ST") are observable per hop.
    TRACE_STAGES = ("RC", "ST")

    def __init__(self, config: NetworkRouterConfig, name: str = "") -> None:
        self.config = config
        self.name = name
        self.cycle = 0
        self.hooks = EngineHooks()
        n, v = config.num_ports, config.num_vcs
        self.inputs = [VcBufferBank(v, config.buffer_depth) for _ in range(n)]
        self.links: List[Optional[OutputLink]] = [None] * n
        self._input_arb = [RoundRobinArbiter(v) for _ in range(n)]
        self._output_arb = [RoundRobinArbiter(n) for _ in range(n)]
        self.input_busy = BusyTracker(n)
        self.output_busy = BusyTracker(n)
        # Credits owed upstream: (sink, vc) pairs delayed by
        # credit_latency, kept unapplied so sanitizers can count them.
        self._credit_out: DelayLine[Tuple[Callable[[int], None], int]] = DelayLine(
            config.credit_latency
        )
        # Per-input credit-return callbacks, installed during wiring.
        self.credit_sinks: List[Optional[Callable[[int], None]]] = [None] * n
        # Output VC releases pending tail departure.
        self._vc_release: DelayLine[Tuple[int, int, int]] = DelayLine(
            config.flit_cycles
        )
        # Occupancy indices (docs/architecture.md, "NetworkRouter hot
        # path"): flits buffered at each input, the inputs whose count
        # is non-zero, and the total.  Allocation visits ``_occupied``
        # and parking reads ``_resident`` and ``_occupied``, so a cycle
        # costs what is resident, not ports x VCs.  All three move only
        # at the one push in accept() and the one pop in _transmit().
        self._in_flits = [0] * n
        self._occupied: Set[int] = set()
        self._resident = 0
        self._staged_credits: tuple = ()
        self._staged_releases: tuple = ()
        # Fault machinery (repro.faults): wedged input read ports and
        # the NetworkFaultInjector that may claim committed credit
        # deliveries.  Inert (one None/empty-set test) without a plan.
        self._stuck_inputs: set = set()
        self.fault_injector = None

    # ------------------------------------------------------------------

    def attach(self, port: int, link: OutputLink) -> None:
        """Install the output link for ``port``."""
        if self.links[port] is not None:
            raise RuntimeError(f"{self.name}: port {port} already attached")
        self.links[port] = link

    def accept(self, port: int, flit: Flit) -> None:
        # Each hop reads the deque behind the FlitQueue directly (here,
        # in _allocate and in _transmit); a full queue still goes
        # through push(), which raises the credit-protocol overflow.
        queue = self.inputs[port].queues[flit.vc]
        if len(queue._q) < queue.maxlen:
            queue._q.append(flit)
        else:
            queue.push(flit)
        self._in_flits[port] += 1
        self._occupied.add(port)
        self._resident += 1
        if self.hooks.flit_move:
            self.hooks.emit_flit_move("accept", flit, port, self.cycle)
        if self.hooks.stage_enter:
            self.hooks.emit_stage_enter(flit, "RC", port, self.cycle)

    def input_space(self, port: int, vc: int) -> int:
        return self.inputs[port].queues[vc].free_slots

    def occupancy(self) -> int:
        return sum(b.occupancy() for b in self.inputs)

    def audit(self, cycle: int) -> None:
        """One walk of the input banks checks their depth and the
        occupancy indices the hot path trusts in place of walking them
        (allocation visits ``_occupied``, parking reads ``_resident`` and
        ``_occupied``).
        Reads only; :class:`~repro.analysis.sanitizer.NetworkSanitizer`
        runs it every cycle."""
        v = self.config.num_vcs
        lengths = bank_lengths(self.inputs)
        audit_bounds(lengths, self.config.buffer_depth, cycle,
                     lambda n: (f"input buffer [{n // v}] of router "
                                f"{self.name}", n // v, n % v))
        in_flits = per_bank(lengths, v)
        for name, walked in (
            ("_in_flits", in_flits),
            ("_occupied", {port for port, held in enumerate(in_flits) if held}),
            ("_resident", sum(in_flits)),
        ):
            index = getattr(self, name)
            if index != walked:
                raise drift(f"router {self.name} {name}", index, walked,
                            "its input banks", cycle, router=self.name)

    # ------------------------------------------------------------------

    def compute(self, cycle: int) -> None:
        """Phase 1: collect matured credits and VC releases."""
        self.cycle = cycle
        self._staged_credits = self._credit_out.pop_ready(cycle)
        self._staged_releases = self._vc_release.pop_ready(cycle)

    def commit(self, cycle: int) -> None:
        """Phase 2: apply credits/releases, then allocate and transmit."""
        hooks = self.hooks
        inj = self.fault_injector
        for sink, vc in self._staged_credits:
            if inj is not None and inj.drop_credit(self, sink, vc, cycle):
                continue
            sink(vc)
            if hooks.credit:
                hooks.emit_credit(-1, vc, cycle)
        for port, vc, pid in self._staged_releases:
            link = self.links[port]
            invariant(link is not None, "VC release on a detached output "
                      "port", cycle=cycle, port=port, vc=vc,
                      check="topology")
            link.vc_state.release(vc, pid)
        self._staged_credits = ()
        self._staged_releases = ()
        self._allocate()
        self.cycle = cycle + 1

    def next_event(self, now: int) -> Optional[int]:
        """The parking probe: ``now`` while an occupied input is free to
        send; otherwise the earliest cycle at which an occupied input
        stops serializing, or a credit or VC release falls due (None
        with nothing pending).

        Until then nothing can move: every buffered flit sits behind an
        input still serializing its last flit, so allocation would ask
        no arbiter.  A flit arriving at a free input comes through the
        scheduler's wake first.  Resident flits with no indexed input
        (a broken index, which the audit reports) keep the router
        awake.  Pure read (``tests/perturb.py`` over-polls it).
        """
        horizon: Optional[int] = None
        if self._resident:
            busy_until = self.input_busy._busy_until
            for i in self._occupied:
                free_at = busy_until[i]
                if free_at <= now:
                    return now
                if horizon is None or free_at < horizon:
                    horizon = free_at
            if horizon is None:
                return now
        for due in (self._credit_out.next_due(), self._vc_release.next_due()):
            if due is not None and (horizon is None or due < horizon):
                horizon = due
        return horizon

    def __getstate__(self) -> Dict[str, Any]:
        """Everything but ``links`` and ``credit_sinks``, which the
        owning :class:`~repro.network.netsim.NetworkSimulation` pickles
        after all of its routers (their sinks lead to other routers)."""
        state = dict(self.__dict__)
        del state["links"], state["credit_sinks"]
        return state

    def _allocate(self) -> None:
        """Separable allocation: a v:1 grant per ready input, then a
        grant per requested output among the inputs that want it.

        Skip rule: an input outside ``_occupied`` holds no head flit,
        so probing it would yield no candidate and ask no arbiter —
        nothing moves, nothing raises.  Every VC head of a visited
        input is still probed, in VC order, and inputs are visited in
        ascending order (as a walk of every input does), which fixes the
        order outputs resolve and flits deliver in.

        A head may leave when its output link is up, holds a credit for
        the flit's VC, and that VC is owned by (or, for a head flit,
        free for) its packet; busy times, credits and VC owners are
        read inline.
        """
        now = self.cycle
        inputs = self.inputs
        links = self.links
        stuck = self._stuck_inputs
        in_busy = self.input_busy._busy_until
        # output port -> {requesting input: (vc, flit)}
        requests: Dict[int, Dict[int, Tuple[int, Flit]]] = {}
        for i in sorted(self._occupied):
            if in_busy[i] > now:
                continue
            cands: Dict[int, Flit] = {}
            for vc, queue in enumerate(inputs[i].queues):
                q = queue._q
                if not q or (stuck and (i, vc) in stuck):
                    continue
                flit = q[0]
                route = flit.route
                if flit.hops >= len(route):
                    raise RuntimeError(
                        f"{self.name}: flit {flit.packet_id} has exhausted "
                        "its route"
                    )
                link = links[route[flit.hops]]
                if link is None:
                    raise RuntimeError(
                        f"{self.name}: output {route[flit.hops]} not attached"
                    )
                if not link.alive:
                    continue
                fvc = flit.vc
                credits = link.credits
                if credits is not None:
                    counter = credits[fvc]
                    if counter._free <= 0 or counter.stuck:
                        continue
                owner = link.vc_state.owners[fvc]
                if owner == flit.packet_id or (flit.is_head and owner is None):
                    cands[vc] = flit
            vc = self._input_arb[i].grant(cands)
            if vc is None:
                continue
            flit = cands.get(vc)
            if flit is None:
                raise InvariantViolation(
                    "input arbiter granted a VC with no candidate flit",
                    cycle=now, port=i, vc=vc, check="arbitration",
                )
            out = flit.route[flit.hops]
            wanted = requests.get(out)
            if wanted is None:
                requests[out] = {i: (vc, flit)}
            else:
                wanted[i] = (vc, flit)
        out_busy = self.output_busy._busy_until
        for out, wanted in requests.items():
            if out_busy[out] > now:
                continue
            winner = self._output_arb[out].grant(wanted)
            vc, flit = wanted[winner]
            self._transmit(winner, vc, flit, out)

    def _transmit(self, i: int, vc: int, flit: Flit, out: int) -> None:
        """Move ``flit`` from input ``i`` onto output ``out``: both are
        free (``_allocate`` just read their busy times), so each is held
        for ``flit_cycles`` by a plain write."""
        now = self.cycle
        config, hooks = self.config, self.hooks
        link = self.links[out]
        if link is None:
            raise InvariantViolation(
                "transmit toward a detached output port",
                cycle=now, port=out, check="topology",
            )
        popped = self.inputs[i].queues[vc]._q.popleft()
        if popped is not flit:
            raise InvariantViolation(
                "input buffer head changed between grant and pop",
                cycle=now, port=i, vc=vc, check="buffer-integrity",
            )
        self._in_flits[i] -= 1
        if not self._in_flits[i]:
            self._occupied.discard(i)
        self._resident -= 1
        fc = config.flit_cycles
        self.input_busy._busy_until[i] = now + fc
        self.output_busy._busy_until[out] = now + fc
        if flit.is_head:
            link.vc_state.allocate(flit.vc, flit.packet_id)
        flit.out_vc = flit.vc
        flit.hops += 1
        if link.credits is not None:
            link.credits[flit.vc].consume()
        link.deliver(
            flit, now + fc + config.pipeline_delay + config.channel_latency
        )
        if hooks.grant:
            hooks.emit_grant(flit, out, now)
        if hooks.stage_enter:
            hooks.emit_stage_enter(flit, "ST", out, now)
        if flit.is_tail:
            self._vc_release.push(now, (out, flit.vc, flit.packet_id))
        # Return a credit upstream for the freed input buffer slot.
        sink = self.credit_sinks[i]
        if sink is not None:
            self._credit_out.push(now, (sink, vc))
