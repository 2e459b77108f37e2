"""Network simulation (Figure 19 and beyond).

Wires :class:`~repro.network.router.NetworkRouter` instances according
to any topology satisfying :class:`~repro.network.topology.Topology`
(the folded Clos of Figure 19, the mesh of
:mod:`repro.network.mesh`, ...), attaches hosts with Bernoulli traffic
sources, routes packets with the topology's routing function, and
measures packet latency from generation to tail arrival — the same
warm-up / label / drain methodology as the switch-level harness.
"""

from __future__ import annotations

import functools
from bisect import insort
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from ..core.errors import InvariantViolation
from ..core.flit import Flit
from ..core.rng import derive_rng
from ..engine import EngineHooks, Scheduler
from ..harness.experiment import SweepResult, SweepSettings, map_points
from ..harness.program import StagedRun
from ..harness.stats import RunResult
from ..traffic.injection import Bernoulli
from ..traffic.patterns import UniformRandom
from ..traffic.source import TrafficSource
from ..workloads.base import Workload
from .router import NetworkRouter, OutputLink, pipeline_depth_for_radix
from .topology import FoldedClos, SwitchId, Topology


@dataclass(frozen=True)
class NetworkConfig:
    """Parameters of a Clos network experiment."""

    radix: int = 16
    levels: int = 2
    num_vcs: int = 4
    buffer_depth: int = 8
    flit_cycles: int = 4
    channel_latency: int = 1
    credit_latency: int = 1
    packet_size: int = 1
    pipeline_delay: Optional[int] = None  # default: scale with log2(radix)
    seed: int = 1

    def __post_init__(self) -> None:
        for name, least in (
            ("radix", 2), ("levels", 1), ("num_vcs", 1), ("buffer_depth", 1),
            ("flit_cycles", 1), ("channel_latency", 0), ("packet_size", 1),
            # A credit pushed during a commit is popped by the next
            # cycle's compute at the earliest, so 0 would silently run
            # as 1.
            ("credit_latency", 1),
        ):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        if self.pipeline_delay is not None and self.pipeline_delay < 0:
            raise ValueError(f"pipeline_delay must be >= 0, got {self.pipeline_delay}")

    @property
    def link_latency(self) -> int:
        """Cycles from a router's transmit to the flit's arrival at the
        far end of the link, the same on every link: serialization, the
        router pipeline (``pipeline_delay``, or by default the depth
        Section 2 gives a router of this radix) and the wire."""
        depth = self.pipeline_delay
        if depth is None:
            depth = pipeline_depth_for_radix(self.radix)
        return self.flit_cycles + depth + self.channel_latency


def enqueue_in_order(queue: Deque[tuple], entry: tuple) -> None:
    """File ``entry`` in the in-flight ``queue``, kept in
    ``(arrival, sequence key)`` order.  A uniform channel latency makes
    arrivals monotonic in send order, so appending is the rule; an
    entry that sorts before the tail is inserted in order instead.
    Sequence keys are unique, so an insertion never compares flits."""
    if queue and entry < queue[-1]:
        insort(queue, entry)
    else:
        queue.append(entry)


class _RouterSink:
    """Delivery callable for a router-to-router channel.

    A module-level class rather than a closure so the wired network
    pickles into a checkpoint; the sanitizer reads the wiring off
    :attr:`target`/:attr:`port`.
    """

    __slots__ = ("sim", "target", "port")

    def __init__(
        self, sim: "NetworkSimulation", target: NetworkRouter, port: int
    ) -> None:
        self.sim = sim
        self.target = target
        self.port = port

    def __call__(self, flit: Flit, arrival: int) -> None:
        sim = self.sim
        seq = sim._seq
        sim._seq = seq + 1
        enqueue_in_order(
            sim._inflight, (arrival, seq, flit, (self.target, self.port))
        )


class _HostSink:
    """Delivery callable for a router-to-host ejection channel."""

    __slots__ = ("sim", "host")

    def __init__(self, sim: "NetworkSimulation", host: Optional[int]) -> None:
        self.sim = sim
        self.host = host

    def __call__(self, flit: Flit, arrival: int) -> None:
        sim = self.sim
        seq = sim._seq
        sim._seq = seq + 1
        enqueue_in_order(sim._inflight, (arrival, seq, flit, self.host))


class _CreditSink:
    """Credit-return callable restoring an upstream link's counter."""

    __slots__ = ("link",)

    def __init__(self, link: OutputLink) -> None:
        self.link = link

    def __call__(self, vc: int) -> None:
        self.link.restore_credit(vc)


class NetworkSimulation(StagedRun):
    """End-to-end simulation of a network of routers on any topology.

    Idle routers (no buffered flits, credits or VC releases pending)
    are parked until a flit arrival wakes them, and routers that cannot
    move a flit before a known cycle sleep until then — byte-identical
    to stepping every router, which ``tests/exhaustive.py`` checks.
    """

    def __init__(
        self,
        config: NetworkConfig,
        load: float = 0.0,
        topology: Optional[Topology] = None,
        host_pattern: Optional[object] = None,
        sanitize: bool = False,
        faults: Optional[object] = None,
        scheduler: str = "event",
        workload: Optional[Workload] = None,
        tracer=None,
        trace_switch: Optional[SwitchId] = None,
    ) -> None:
        """Args:
            config: Router/channel parameters (``radix``/``levels`` are
                only used when ``topology`` is omitted, in which case a
                folded Clos is built from them).
            load: Offered load as a fraction of host channel capacity.
            topology: Any object satisfying the Topology protocol.
            host_pattern: Optional traffic pattern over *hosts* (a
                :class:`~repro.traffic.patterns.TrafficPattern` built
                for ``topology.num_hosts`` ports); uniform random when
                omitted.
            sanitize: Run a :class:`~repro.analysis.NetworkSanitizer`
                check (link credit conservation, buffer bounds) after
                every cycle; it attaches through the engine hooks.
            faults: Optional :class:`~repro.faults.FaultPlan`.  When
                set (and enabled), a
                :class:`~repro.faults.NetworkFaultInjector` drives
                host-channel corruption, inter-router credit loss with
                resync, and the scheduled dead-link faults; routing
                avoids dead links.  None (or a disabled plan) keeps
                the simulation byte-identical to a plain run.
            scheduler: Accepts only ``"event"``, the one drive loop,
                which fast-forwards over spans with no awake or asleep
                router, no due flit delivery, no queued host arrival,
                no injectable backlog, and no scheduled fault event.
                The keyword stays because the end-to-end benchmark
                (``benchmarks/e2e/workloads.py``) still passes it.
            workload: Optional dependency-driven workload (see
                :mod:`repro.workloads`) whose ranks map to host ids.
                Replaces the Bernoulli injection process entirely — a
                message injects at its host only once its DAG
                dependencies have been delivered.  Drive with
                :meth:`run_workload` instead of :meth:`run`.
            tracer: Optional :class:`~repro.trace.TraceCollector`
                tracing the router named by ``trace_switch`` (per-flit
                lifecycle records from that router, cycle counts and
                fault events network-wide).  Aggregate trace counters
                land in the run result's ``stats.trace.*`` extras.
            trace_switch: Which switch the tracer follows; defaults to
                the first switch in ``topology.switch_ids()`` order.
        """
        if not 0.0 <= load <= 1.0:
            raise ValueError(f"load must be in [0, 1], got {load}")
        if scheduler != "event":
            raise ValueError(
                f"unknown scheduler {scheduler!r}; the only one is 'event'"
            )
        self.config = config
        self.load = load
        self.topology = topology or FoldedClos(config.radix, config.levels)
        self._workload = workload
        if workload is not None:
            if workload.num_ranks > self.topology.num_hosts:
                raise ValueError(
                    f"workload has {workload.num_ranks} ranks but the "
                    f"topology only has {self.topology.num_hosts} hosts"
                )
            if workload.has_self_sends:
                raise ValueError(
                    "workload contains self-send messages (src == "
                    "dest), which cannot be routed between hosts; "
                    "replay switch traces on --target switch"
                )
            # The injection process is replaced by DAG eligibility:
            # at a zero rate no host has a queued arrival.
            load = 0.0
        self._build_network()
        #: Simulation-level event bus; ``cycle_start``/``cycle_end``
        #: span the whole router set.  Instrumentation (sanitizer,
        #: metrics, tracing) attaches here.
        self.hooks = EngineHooks()
        self._sched = Scheduler(self.routers.values(), hooks=self.hooks)
        # Inverted drive loop: the scheduler owns the per-cycle phase
        # sequence; this harness contributes its pre-engine work and
        # its wake horizons.
        self._sched.add_pre_cycle(self._pre_cycle)
        self._sched.add_wake_source(self._next_work)
        self._tracer = tracer
        self._trace_switch: Optional[SwitchId] = None
        if tracer is not None:
            if trace_switch is None:
                trace_switch = next(iter(self.routers))
            if trace_switch not in self.routers:
                raise ValueError(
                    f"trace_switch {trace_switch!r} is not a switch of "
                    f"this topology"
                )
            self._trace_switch = trace_switch
            tracer.attach_network(self, trace_switch)
        n = self.topology.num_hosts
        pattern = host_pattern or UniformRandom(n)
        # One Bernoulli process, shared: it holds no state.
        process = Bernoulli(
            load * (1.0 / config.flit_cycles) / config.packet_size
        )
        self._init_host_side(n, [
            TrafficSource(host, pattern, process, config.packet_size,
                          derive_rng(config.seed, "net", host))
            for host in range(n)
        ])
        self._route_rng = derive_rng(config.seed, "route")
        #: Where each host injects: (edge router, input port), resolved
        #: once.  A sharded front-end owns no router, so its entries
        #: keep the switch id.
        self._host_port: List[Tuple[Any, int]] = []
        for host in range(n):
            attach = self.topology.host_attachment(host)
            if attach.switch is None:
                raise ValueError(f"host {host} attaches to no switch")
            self._host_port.append(
                (self.routers.get(attach.switch, attach.switch), attach.port)
            )
        # Global in-flight flit event queue, a FIFO in (arrival, seq)
        # order: (arrival, seq, flit, target); ``_seq`` is the next seq.
        self._inflight: Deque[Tuple[int, int, Flit, object]] = deque()
        self._seq = 0
        if faults is not None and faults.enabled:
            # Imported lazily: faults sits above the network layer.
            from ..faults import NetworkFaultInjector

            self._faults: Optional[NetworkFaultInjector] = (
                NetworkFaultInjector(faults, self, config.seed)
            )
        else:
            self._faults = None
        if sanitize:
            # Imported lazily: analysis sits above the network layer.
            from ..analysis.sanitizer import NetworkSanitizer

            self.sanitizer: Optional[NetworkSanitizer] = NetworkSanitizer(self)
        else:
            self.sanitizer = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build_network(self) -> None:
        topo = self.topology
        self.routers: Dict[SwitchId, NetworkRouter] = {}
        for sid in topo.switch_ids():
            ports = topo.ports_used(sid)
            self.routers[sid] = NetworkRouter(self.config, ports, name=str(sid))
        # Wire every connected port of every switch.
        for sid, router in self.routers.items():
            for port in topo.wired_ports(sid):
                ref = topo.neighbor(sid, port)
                if ref.switch is None:
                    link = OutputLink(
                        self.config.num_vcs,
                        _HostSink(self, ref.host),
                        downstream_depth=None,
                    )
                else:
                    target = self.routers[ref.switch]
                    link = OutputLink(
                        self.config.num_vcs,
                        _RouterSink(self, target, ref.port),
                        downstream_depth=self.config.buffer_depth,
                    )
                    # Credit return path: when the downstream router
                    # frees the slot, restore this link's counter.
                    target.credit_sinks[ref.port] = _CreditSink(link)
                router.attach(port, link)

    # ------------------------------------------------------------------
    # Simulation loop
    # ------------------------------------------------------------------

    def _next_work(self, now: int) -> Optional[int]:
        """The host-side horizon, or the head of the in-flight queue
        (a flit's arrival or ejection) if that comes first."""
        horizon = super()._next_work(now)
        if self._inflight:
            due = self._inflight[0][0]
            if horizon is None or due < horizon:
                horizon = due
        return horizon

    def _deliver_arrivals(self, now: int) -> None:
        inflight = self._inflight
        while inflight and inflight[0][0] <= now:
            _, _, flit, target = inflight.popleft()
            if isinstance(target, tuple):
                router, port = target
                self._sched.wake(router, now)
                router.accept(port, flit)
            else:
                if flit.dest != target:
                    raise InvariantViolation(
                        f"flit of packet {flit.packet_id} for host "
                        f"{flit.dest} ejected at host {target}",
                        cycle=now, check="routing", dest=flit.dest,
                        host=target,
                    )
                self._delivered(flit, now)

    def _route(self, src: int, dest: int) -> List[int]:
        """Draw a packet's source route from the shared route stream
        (around dead links when faults are on)."""
        if self._faults is not None:
            return self._faults.route(
                self.topology, src, dest, self._route_rng
            )
        return self.topology.route(src, dest, self._route_rng)

    def _input_space(self, channel: int, vc: int) -> int:
        router, port = self._host_port[channel]
        return router.inputs[port].queues[vc].free_slots  # input_space, inlined

    def _hand_over(self, channel: int, flit: Flit, now: int) -> None:
        router, port = self._host_port[channel]
        self._sched.wake(router, now)
        router.accept(port, flit)

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def run(
        self, warmup: int = 2000, measure: int = 2000, drain: int = 30000
    ) -> RunResult:
        self.start_run(warmup=warmup, measure=measure, drain=drain)
        self.advance_run()
        return self.finish_run()

    def run_workload(self, max_cycles: int = 1_000_000) -> RunResult:
        """Run the attached workload DAG to completion; summarize.

        Advances until every workload message has been delivered or
        ``max_cycles`` elapse (the result is then marked saturated and
        ``undelivered`` counts the stuck messages).  The latency
        sample holds per-message send-to-delivery latencies from the
        workload's own records; aggregate DAG metrics (makespan, flow
        percentiles, per-phase step time and skew) land in the
        ``stats.workload.*`` extras.
        """
        self.start_workload_run(max_cycles)
        self.advance_run()
        return self.finish_run()

    def start_run(
        self, warmup: int = 2000, measure: int = 2000, drain: int = 30000
    ) -> None:
        """Begin the warm-up/measure/drain program without running it
        (see :mod:`repro.harness.program`)."""
        self._start_measure_run(
            warmup, measure, drain, SweepSettings.min_drain_fraction
        )

    def finish_run(self) -> RunResult:
        """Summarize a completed program into a :class:`RunResult`."""
        result, workload_run = self._summarize_run(
            self.topology.num_hosts, 1.0 / self.config.flit_cycles
        )
        if workload_run:
            result.extra["source_backlog"] = float(self.source_backlog())
        self._fold_extras(result, workload_stats=workload_run)
        return result

    def _fold_extras(
        self, result: RunResult, workload_stats: bool = False
    ) -> None:
        """Fold shared observability extras into a run result."""
        result.extra["stats.engine.cycles_skipped"] = float(
            self._sched.cycles_skipped
        )
        result.extra["stats.engine.ff_jumps"] = float(self._sched.ff_jumps)
        result.extra["stats.traffic.max_source_queue"] = float(
            self._peak_source_q
        )
        if workload_stats:
            for name, value in sorted(self._workload.stats().items()):
                result.extra[f"stats.{name}"] = float(value)
        for name, value in self._fault_extra():
            result.extra[f"stats.{name}"] = float(value)
        if self._tracer is not None:
            # Aggregate trace counters ride along like the switch-level
            # harness does: folded through a scratch RouterStats so the
            # collector's integer-counter convention applies unchanged.
            from ..routers.base import RouterStats

            scratch = RouterStats()
            if self._workload is not None:
                self._workload.annotate(self._tracer)
            self._tracer.fold_stats(scratch)
            for name in sorted(scratch.extra):
                result.extra[f"stats.{name}"] = float(scratch.extra[name])

    def _fault_extra(self) -> List[Tuple[str, object]]:
        """Sorted fault-counter items; the sharded front-end overrides
        this to merge the per-worker counter dictionaries."""
        if self._faults is None:
            return []
        return sorted(self._faults.counters.items())

    # ------------------------------------------------------------------
    # Pickling (checkpoints)
    # ------------------------------------------------------------------

    def __getstate__(self) -> Tuple[Dict[str, Any], List[Tuple[list, list]]]:
        """The attributes, then every router's ``links`` and
        ``credit_sinks``, which :class:`NetworkRouter` leaves out of its
        own state: each link's sink holds its downstream router, so
        pickling links with their routers would nest one router inside
        the next across the whole network, deeper than the recursion
        limit on a large one.  After every router, a link's target is
        a memo reference."""
        wiring = [
            (router.links, router.credit_sinks)
            for router in self.routers.values()
        ]
        return self.__dict__, wiring

    def __setstate__(
        self, state: Tuple[Dict[str, Any], List[Tuple[list, list]]]
    ) -> None:
        attrs, wiring = state
        self.__dict__.update(attrs)
        for router, (links, sinks) in zip(self.routers.values(), wiring):
            router.links = links
            router.credit_sinks = sinks


def _run_network_point(
    config: NetworkConfig,
    warmup: int,
    measure: int,
    drain: int,
    shards: Optional[int],
    sim_options: Dict[str, Any],
    load: float,
) -> RunResult:
    """Build one network simulation at ``load`` and run it (``load``
    last and module-level, for a picklable :func:`functools.partial`)."""
    if shards is None:
        sim = NetworkSimulation(config, load, **sim_options)
        return sim.run(warmup=warmup, measure=measure, drain=drain)
    from .sharded import ShardedNetworkSimulation

    sim = ShardedNetworkSimulation(config, load, shards=shards, **sim_options)
    try:
        return sim.run(warmup=warmup, measure=measure, drain=drain)
    finally:
        sim.close()


def run_network_sweep(
    config: NetworkConfig,
    loads: Sequence[float],
    label: str = "",
    warmup: int = 2000,
    measure: int = 2000,
    drain: int = 30000,
    processes: Optional[int] = 1,
    shards: Optional[int] = None,
    **sim_options: Any,
) -> SweepResult:
    """Load-latency curve over a network (the Figure 19 sweep).

    Returns a :class:`~repro.harness.experiment.SweepResult`, so the
    same reporting and plotting helpers apply to network curves as to
    single-router curves.  ``sim_options`` (``topology``,
    ``host_pattern``, ``faults``, ...) go to every
    point's :class:`NetworkSimulation` unchanged.

    Two orthogonal levers, both byte-identical to the serial sweep:
    ``processes`` fans independent load points over a process pool (see
    :func:`~repro.harness.experiment.map_points`); ``shards`` runs each
    point as a :class:`~repro.network.sharded.ShardedNetworkSimulation`
    over that many worker processes (cycle-level parallelism for big
    networks).  Combining them multiplies process counts; prefer one.
    """
    point = functools.partial(
        _run_network_point, config, warmup, measure, drain, shards,
        sim_options,
    )
    return SweepResult(
        label=label or "network", results=map_points(point, loads, processes)
    )
