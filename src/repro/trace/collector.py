"""Flit-lifecycle trace collection on the engine hook bus.

A :class:`TraceCollector` subscribes to a router's (or simulation's)
:class:`~repro.engine.hooks.EngineHooks` and records, for every flit
admitted by its :class:`TraceFilter`, a :class:`FlitTrace` lifecycle
record: the inject cycle, a timestamp for each pipeline stage the flit
enters (the ``stage_enter`` events the routers emit — ``"RC"``,
``"SA"``, ``"XB"``, ``"ROW"``, ``"SUB"``, ``"ST"``), and the eject
cycle.  Records live in a bounded ring buffer so full-detail tracing
stays opt-in and memory-bounded: when the buffer is full, the oldest
record is evicted (and counted) to make room.

Independently of the per-flit records — and unaffected by the filter —
the collector accumulates aggregate counters: speculation hit/miss
counts per allocation kind (``spec_outcome`` events), per-output-channel
grant counts (utilization), a per-(input, output) crosspoint traffic
matrix, and observed cycles.  :meth:`TraceCollector.fold_stats` folds
the aggregate summaries into :class:`~repro.routers.base.RouterStats`
``extra`` counters so they ride the existing ``stats.*`` reporting path
(:func:`~repro.harness.report.format_extras`).

Everything here is passive: attaching a collector never changes router
behavior, and with no collector attached the emission guards in the
routers are single truthiness tests (see the overhead benchmark in
``benchmarks/test_perf_simulator.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..core.flit import Flit

#: (packet_id, flit_index): the identity of one flit within one router.
TraceKey = Tuple[int, int]


@dataclass(frozen=True)
class TraceFilter:
    """Predicate deciding which flits get lifecycle records.

    All criteria must pass (conjunction); a criterion left ``None``
    admits everything.  The decision is made once, at the flit's
    ``accept`` — later stage/eject events for unadmitted flits are
    ignored, so a rejecting filter keeps per-event cost to a dict miss.

    * ``every_nth`` — admit packets whose ``packet_id`` is a multiple
      of ``n`` (deterministic 1-in-n packet sampling; flits of a packet
      are kept or dropped together);
    * ``ports`` — admit only flits arriving on these input ports;
    * ``vcs`` — admit only flits arriving on these VCs;
    * ``packets`` — admit only these packet ids (an empty set admits
      nothing: the "count, don't record" configuration).
    """

    every_nth: int = 1
    ports: Optional[FrozenSet[int]] = None
    vcs: Optional[FrozenSet[int]] = None
    packets: Optional[FrozenSet[int]] = None

    def __post_init__(self) -> None:
        if self.every_nth < 1:
            raise ValueError(
                f"every_nth must be >= 1, got {self.every_nth}"
            )

    def admits(self, flit: Flit, port: int) -> bool:
        """True if ``flit`` (arriving on input ``port``) is traced."""
        if self.every_nth > 1 and flit.packet_id % self.every_nth:
            return False
        if self.ports is not None and port not in self.ports:
            return False
        if self.vcs is not None and flit.vc not in self.vcs:
            return False
        if self.packets is not None and flit.packet_id not in self.packets:
            return False
        return True


#: A filter that records no flits: aggregate counters only.
COUNT_ONLY = TraceFilter(packets=frozenset())


@dataclass
class FlitTrace:
    """Lifecycle of one traced flit through one router."""

    packet_id: int
    flit_index: int
    src: int
    dest: int
    vc: int
    in_port: int
    injected_at: int
    is_head: bool
    is_tail: bool
    #: Every ``stage_enter`` event, in emission order:
    #: (stage name, entry cycle, port).  Stages may repeat when a
    #: speculative step retries (shared-buffer NACK relaunches, killed
    #: distributed-allocator bids).
    stages: List[Tuple[str, int, int]] = field(default_factory=list)
    ejected_at: Optional[int] = None
    out_port: Optional[int] = None

    @property
    def complete(self) -> bool:
        return self.ejected_at is not None

    @property
    def latency(self) -> Optional[int]:
        if self.ejected_at is None:
            return None
        return self.ejected_at - self.injected_at


class TraceCollector:
    """Ring-buffered flit-lifecycle recorder + aggregate trace counters.

    Usage (standalone router or a ``SwitchSimulation``)::

        collector = TraceCollector(capacity=4096)
        sim = SwitchSimulation(router, load=0.5, tracer=collector)
        sim.run()
        for rec in collector.records():
            ...

    or attach explicitly to anything exposing a ``hooks`` bus::

        TraceCollector().attach(router)
    """

    def __init__(
        self,
        capacity: int = 4096,
        trace_filter: Optional[TraceFilter] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.filter = trace_filter if trace_filter is not None else TraceFilter()
        self._records: "OrderedDict[TraceKey, FlitTrace]" = OrderedDict()
        #: Declared pipeline of the attached router (``TRACE_STAGES``).
        self.declared_stages: Tuple[str, ...] = ()
        self.label = ""
        self._flit_cycles = 1
        self._num_ports = 0
        # Aggregate counters (filter-independent).
        self.cycles = 0
        self.accepts = 0
        self.ejects = 0
        self.grants = 0
        self.opened = 0
        self.completed = 0
        self.evicted = 0
        self.reopened = 0
        self.double_ejects = 0
        #: kind -> [hits, misses] from ``spec_outcome`` events.
        self.spec: Dict[str, List[int]] = {}
        #: output port -> switch grants toward it.
        self.grants_by_output: Dict[int, int] = {}
        #: (source, output) -> grants: the crosspoint traffic matrix.
        self.crosspoint_grants: Dict[Tuple[int, int], int] = {}
        self.fault_injects = 0
        self.fault_recovers = 0
        #: Bounded (direction, kind, where, cycle) fault-event log from
        #: the ``fault_inject``/``fault_recover`` events (see
        #: :mod:`repro.faults`); capped at ``capacity`` entries, oldest
        #: evicted first — the counters above keep exact totals.
        self.fault_events: List[Tuple[str, str, Tuple, int]] = []
        #: packet_id -> extra labels merged into the packet's Chrome
        #: span args (workload flow/phase annotations; see
        #: :meth:`annotate_packet`).
        self.annotations: Dict[int, Dict[str, str]] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self, target) -> "TraceCollector":
        """Subscribe to ``target.hooks``.

        ``target`` is a router or anything wrapping one (a
        ``SwitchSimulation`` exposing ``hooks`` and ``router``).
        Returns ``self`` for chaining.  One collector traces one
        router: flit identity is (packet_id, flit_index), which is only
        unique per hop.
        """
        router = getattr(target, "router", target)
        config = getattr(router, "config", None)
        if config is not None:
            self._flit_cycles = getattr(config, "flit_cycles", 1)
            self._num_ports = len(router.inputs)
        self.declared_stages = tuple(getattr(router, "TRACE_STAGES", ()))
        self.label = type(router).__name__
        hooks = target.hooks
        hooks.on_flit_move(self._on_flit_move)
        hooks.on_stage_enter(self._on_stage_enter)
        hooks.on_spec_outcome(self._on_spec_outcome)
        hooks.on_grant(self._on_grant)
        hooks.on_cycle_end(self._on_cycle_end)
        hooks.on_fault_inject(self._on_fault_inject)
        hooks.on_fault_recover(self._on_fault_recover)
        return self

    def attach_network(self, sim, switch) -> "TraceCollector":
        """Trace one router of a network simulation.

        Per-flit lifecycle events come from the traced router's own
        hook bus; per-cycle counts and fault injections/recoveries are
        network-wide events emitted on the *simulation* bus, so those
        handlers subscribe there.  (The router bus never carries cycle
        or fault events in a network simulation, and vice versa, so
        nothing is double-counted.)
        """
        router = sim.routers[switch]
        self.attach(router)
        self.label = f"{type(router).__name__}[{switch}]"
        hooks = sim.hooks
        hooks.on_cycle_end(self._on_cycle_end)
        hooks.on_fault_inject(self._on_fault_inject)
        hooks.on_fault_recover(self._on_fault_recover)
        return self

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def _on_flit_move(self, kind: str, flit: Flit, port: int,
                      cycle: int) -> None:
        key = (flit.packet_id, flit.flit_index)
        if kind == "accept":
            self.accepts += 1
            if not self.filter.admits(flit, port):
                return
            if key in self._records:
                # Same identity accepted again (only possible if one
                # collector is shared across routers): keep the newest.
                del self._records[key]
                self.reopened += 1
            elif len(self._records) >= self.capacity:
                self._records.popitem(last=False)
                self.evicted += 1
            self._records[key] = FlitTrace(
                packet_id=flit.packet_id,
                flit_index=flit.flit_index,
                src=flit.src,
                dest=flit.dest,
                vc=flit.vc,
                in_port=port,
                injected_at=cycle,
                is_head=flit.is_head,
                is_tail=flit.is_tail,
            )
            self.opened += 1
        else:  # eject
            self.ejects += 1
            rec = self._records.get(key)
            if rec is None:
                return
            if rec.ejected_at is not None:
                self.double_ejects += 1
                return
            rec.ejected_at = cycle
            rec.out_port = port
            self.completed += 1

    def _on_stage_enter(self, flit: Flit, stage: str, port: int,
                        cycle: int) -> None:
        rec = self._records.get((flit.packet_id, flit.flit_index))
        if rec is not None and rec.ejected_at is None:
            rec.stages.append((stage, cycle, port))

    def _on_spec_outcome(self, kind: str, hit: bool, port: int,
                         cycle: int) -> None:
        bucket = self.spec.setdefault(kind, [0, 0])
        bucket[0 if hit else 1] += 1

    def _on_grant(self, flit: Flit, out_port: int, cycle: int) -> None:
        self.grants += 1
        self.grants_by_output[out_port] = (
            self.grants_by_output.get(out_port, 0) + 1
        )
        xpt = (flit.src, out_port)
        self.crosspoint_grants[xpt] = self.crosspoint_grants.get(xpt, 0) + 1

    def _on_cycle_end(self, cycle: int) -> None:
        self.cycles += 1

    def _on_fault_inject(self, kind: str, where, cycle: int) -> None:
        self.fault_injects += 1
        self._log_fault("inject", kind, where, cycle)

    def _on_fault_recover(self, kind: str, where, cycle: int) -> None:
        self.fault_recovers += 1
        self._log_fault("recover", kind, where, cycle)

    def _log_fault(self, direction: str, kind: str, where,
                   cycle: int) -> None:
        if len(self.fault_events) >= self.capacity:
            self.fault_events.pop(0)
        self.fault_events.append((direction, kind, tuple(where), cycle))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def annotate_packet(self, packet_id: int, **labels: str) -> None:
        """Attach string labels to one packet's exported trace spans.

        Labels accumulate (later calls merge over earlier ones) and
        surface in the Chrome export's span ``args``; the workload
        layer uses this to tag packets with their flow and phase.
        """
        if labels:
            self.annotations.setdefault(packet_id, {}).update(labels)

    def records(self, completed_only: bool = True) -> List[FlitTrace]:
        """Buffered lifecycle records, oldest first."""
        recs = list(self._records.values())
        if completed_only:
            recs = [r for r in recs if r.complete]
        return recs

    def spec_hit_rate(self, kind: str) -> Optional[float]:
        """Hits / attempts for one speculation kind, or None if unseen."""
        bucket = self.spec.get(kind)
        if bucket is None or bucket[0] + bucket[1] == 0:
            return None
        return bucket[0] / (bucket[0] + bucket[1])

    def channel_utilization(self) -> Dict[int, float]:
        """Per-output-channel busy fraction over the observed window.

        Each grant occupies its output channel for ``flit_cycles``
        cycles; utilization is busy cycles over observed cycles.
        """
        if self.cycles == 0:
            return {}
        fc = self._flit_cycles
        return {
            port: min(1.0, count * fc / self.cycles)
            for port, count in sorted(self.grants_by_output.items())
        }

    def fold_stats(self, stats) -> None:
        """Fold aggregate trace counters into ``RouterStats.extra``.

        Utilization fractions are scaled to integer per-mille so they
        fit the integer ``extra`` counter convention.
        """
        stats.bump("trace.records", self.completed)
        if self.evicted:
            stats.bump("trace.evicted", self.evicted)
        if self.fault_injects:
            stats.bump("trace.fault_injects", self.fault_injects)
        if self.fault_recovers:
            stats.bump("trace.fault_recovers", self.fault_recovers)
        for kind in sorted(self.spec):
            hits, misses = self.spec[kind]
            stats.bump(f"trace.spec_hits.{kind}", hits)
            stats.bump(f"trace.spec_misses.{kind}", misses)
        util = self.channel_utilization()
        if util:
            values = list(util.values())
            stats.bump(
                "trace.chan_util_mean_permille",
                round(1000 * sum(values) / max(1, self._num_ports or len(values))),
            )
            stats.bump("trace.chan_util_max_permille",
                       round(1000 * max(values)))
