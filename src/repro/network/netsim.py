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

import copy
import functools
import itertools
from bisect import insort
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from ..core.errors import InvariantViolation, invariant
from ..core.flit import Flit, make_packet
from ..core.rng import derive_rng
from ..engine import EngineHooks, make_scheduler
from ..harness.experiment import SweepResult, SweepSettings, map_points
from ..harness.program import StagedRun
from ..harness.stats import LatencySample, RunResult
from ..workloads.base import Message, Workload
from .arrivals import HostArrivals
from .router import NetworkRouter, NetworkRouterConfig, OutputLink, pipeline_depth_for_radix
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
        # The router fields are checked by NetworkRouterConfig.
        if self.packet_size < 1:
            raise ValueError(f"packet_size must be >= 1, got {self.packet_size}")
        if self.pipeline_delay is not None and self.pipeline_delay < 0:
            raise ValueError(f"pipeline_delay must be >= 0, got {self.pipeline_delay}")

    def router_config(self, num_ports: int) -> NetworkRouterConfig:
        depth = (
            self.pipeline_delay
            if self.pipeline_delay is not None
            else pipeline_depth_for_radix(self.radix)
        )
        return NetworkRouterConfig(
            num_ports=num_ports,
            num_vcs=self.num_vcs,
            buffer_depth=self.buffer_depth,
            flit_cycles=self.flit_cycles,
            pipeline_delay=depth,
            channel_latency=self.channel_latency,
            credit_latency=self.credit_latency,
        )


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
    stays picklable for checkpoint/restore; the sanitizer reads the
    wiring off :attr:`target`/:attr:`port`.
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
        enqueue_in_order(
            sim._inflight,
            (arrival, next(sim._seq), flit, (self.target, self.port)),
        )


class _HostSink:
    """Delivery callable for a router-to-host ejection channel."""

    __slots__ = ("sim", "host")

    def __init__(self, sim: "NetworkSimulation", host: Optional[int]) -> None:
        self.sim = sim
        self.host = host

    def __call__(self, flit: Flit, arrival: int) -> None:
        sim = self.sim
        enqueue_in_order(
            sim._inflight, (arrival, next(sim._seq), flit, self.host)
        )


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

    #: Attributes :meth:`snapshot` deliberately omits (the restore
    #: check in ``tests/test_state_contracts.py`` skips them):
    #: construction parameters (``config``/``load``/``topology``/
    #: ``_host_pattern``/``_trace_switch``), the hook bus, and
    #: ``_host_port`` (a pure function of the topology).
    SNAPSHOT_WIRING = (
        "config", "load", "topology", "_host_pattern", "hooks",
        "_trace_switch", "_host_port",
    )

    def __init__(
        self,
        config: NetworkConfig,
        load: float = 0.0,
        topology: Optional[Topology] = None,
        host_pattern: Optional[object] = None,
        sanitize: bool = False,
        faults: Optional[object] = None,
        scheduler: str = "cycle",
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
            scheduler: Drive loop: ``"cycle"`` executes every cycle;
                ``"event"`` fast-forwards over spans with no awake or
                asleep router, no due flit delivery, no pre-drawn host
                arrival, no injectable backlog, and no scheduled fault
                event.  Byte-identical results either way; only the
                ``stats.engine.*`` counters and wall-clock differ.
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
        self.config = config
        self.load = load
        self.topology = topology or FoldedClos(config.radix, config.levels)
        self._host_pattern = host_pattern
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
            # The injection process is replaced by DAG eligibility;
            # a zero rate also keeps the arrival pre-draw (heap, state
            # rows) out of event mode.
            load = 0.0
        self._build_network()
        #: Simulation-level event bus; ``cycle_start``/``cycle_end``
        #: span the whole router set.  Instrumentation (sanitizer,
        #: metrics, tracing) attaches here.
        self.hooks = EngineHooks()
        self._sched = make_scheduler(
            scheduler, self.routers.values(), hooks=self.hooks
        )
        # Inverted drive loop: the scheduler owns the per-cycle phase
        # sequence; this harness contributes its pre-engine work and
        # (in event mode) its wake horizons.
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
        cap = 1.0 / config.flit_cycles
        #: The hosts' arrival process: polled per cycle, or — event
        #: mode — pre-drawn so the scheduler can fast-forward to it.
        self.arrivals = HostArrivals(
            config.seed, n, load * cap / config.packet_size,
            predraw=scheduler == "event",
        )
        self._route_rng = derive_rng(config.seed, "route")
        self._source_q: List[Deque[Flit]] = [deque() for _ in range(n)]
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
        #: Exactly the hosts with a non-empty source queue.  Both modes
        #: inject over this set instead of scanning all hosts.
        self._backlog_hosts: set = set()
        self._next_inject = [0] * n
        self._packet_vc: List[Optional[int]] = [None] * n
        self._vc_rr = [0] * n
        self._next_packet_id = 0
        self._measuring = False
        self._count_flits = False
        self._outstanding = 0
        self._labeled_total = 0
        #: Peak per-host injection-queue depth (flits) ever observed.
        self._peak_source_q = 0
        self.sample = LatencySample()
        self.measured_flits = 0
        #: Active staged run program (see :meth:`start_run`): plain
        #: data, so a snapshot taken mid-run carries it along.
        self._program: Optional[Dict[str, Any]] = None
        # Global in-flight flit event queue, a FIFO in (arrival, seq)
        # order: (arrival, seq, flit, target).
        self._inflight: Deque[Tuple[int, int, Flit, object]] = deque()
        self._seq = itertools.count()
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
            self.routers[sid] = NetworkRouter(
                self.config.router_config(ports), name=str(sid)
            )
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

    def _extend_draws(self, end: int) -> None:
        self.arrivals.extend(end)

    def _pre_cycle(self, now: int) -> None:
        """Harness work before the two-phase engine cycle.

        The engine cycle itself (and the instrumentation on the
        ``cycle_end`` hook, including the sanitizer's per-cycle check)
        runs from the scheduler after this returns.
        """
        if self._faults is not None:
            # Apply scheduled link faults and deliver due credit
            # resyncs before anything else observes this cycle.
            self._faults.advance(now)
        self._deliver_arrivals(now)
        if self._workload is not None:
            # DAG eligibility replaces the injection process; both
            # modes pop the same ready messages in ascending host
            # order, so the shared route RNG stream stays identical.
            self._generate_workload(now)
        else:
            # Same-cycle arrivals come in ascending host order in both
            # modes, which keeps the shared route RNG stream and
            # packet-id allocation identical between them.
            arrivals = self.arrivals
            hosts = arrivals.due if arrivals.predraw else arrivals.poll
            for host in hosts(now):
                self._generate_packet(host, now)
        self._inject(now)

    def _next_work(self, now: int) -> Optional[int]:
        """Wake horizon: earliest cycle >= ``now`` with harness work.

        The minimum over the pre-drawn host-arrival heap, the in-flight
        flit/ejection heap, the fault injector's schedule, and — per
        backlogged host — the earliest injection retry (channel
        throttle or fault back-off).  Early is safe, late is not.
        """
        horizon = self.arrivals.next_due()
        if self._inflight:
            due = self._inflight[0][0]
            if horizon is None or due < horizon:
                horizon = due
        faults = self._faults
        backlog = self._backlog_hosts
        if faults is not None:
            due = faults.next_event(now)
            if due is not None and (horizon is None or due < horizon):
                horizon = due
            for host in backlog:
                retry = self._retry_at(host, now)
                if horizon is None or retry < horizon:
                    horizon = retry
        elif backlog:
            # Without a fault back-off a host's retry is its throttle.
            next_inject = self._next_inject
            retry = max(min(next_inject[host] for host in backlog), now)
            if horizon is None or retry < horizon:
                horizon = retry
        if self._workload is not None:
            due = self._workload.next_ready(now)
            if due is not None and (horizon is None or due < horizon):
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

    def _generate_workload(self, now: int) -> None:
        """Queue every workload message that became eligible by ``now``.

        Ready hosts are visited in ascending order — the host-order
        iteration of the cycle-mode generate loop — and both drive
        modes execute every cycle with an eligible message (the
        ``next_ready`` horizon pins it), so the shared route RNG
        stream is consumed identically either way.
        """
        workload = self._workload
        invariant(workload is not None, "workload generation without a "
                  "workload", cycle=now, check="workload")
        for host in workload.ready_ranks(now):
            while True:
                message = workload.next_message(host, now)
                if message is None:
                    break
                self._generate_packet(host, now, message)

    def _generate_packet(
        self, host: int, now: int, message: Optional[Message] = None
    ) -> None:
        """Create one packet at ``host`` and queue its flits.

        With ``message`` set (workload mode) the destination and size
        come from the DAG node and the packet is never
        measurement-labeled — the workload keeps its own send/delivery
        records; only the route draw touches shared RNG state.
        """
        if message is not None:
            dest = message.dest
            size = message.size
        else:
            rng = self.arrivals.streams[host]
            if self._host_pattern is None:
                dest = rng.randrange(self.topology.num_hosts)
            else:
                dest = self._host_pattern.dest(host, rng)
            size = self.config.packet_size
        if self._faults is not None:
            route = self._faults.route(
                self.topology, host, dest, self._route_rng
            )
        else:
            route = self.topology.route(host, dest, self._route_rng)
        flits = make_packet(
            dest=dest,
            size=size,
            src=host,
            created_at=now,
            measured=self._measuring if message is None else False,
            packet_id=self._new_packet_id(),
            route=route,
        )
        if message is not None:
            invariant(self._workload is not None, "workload message "
                      "without a workload", cycle=now, check="workload")
            self._workload.sent(message.node, flits[0].packet_id, now)
        self._source_q[host].extend(flits)
        if len(self._source_q[host]) > self._peak_source_q:
            self._peak_source_q = len(self._source_q[host])
        self._backlog_hosts.add(host)
        if self._measuring and message is None:
            self._outstanding += 1
            self._labeled_total += 1

    def _inject(self, now: int) -> None:
        """Offer one flit from every backlogged host whose channel is
        past its ``flit_cycles`` throttle, in ascending host order (a
        host without backlog, or still serializing its last flit, has
        nothing to offer, so the walk equals a scan of every host)."""
        next_inject = self._next_inject
        source_q = self._source_q
        backlog = self._backlog_hosts
        for host in sorted(backlog):
            if next_inject[host] <= now:
                queue = source_q[host]
                self._try_inject(host, queue, now)
                if not queue:
                    backlog.discard(host)

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
            result.extra["source_backlog"] = float(
                sum(len(q) for q in self._source_q)
            )
        self._fold_extras(result, workload_stats=workload_run)
        return result

    def _fold_extras(
        self, result: RunResult, workload_stats: bool = False
    ) -> None:
        """Fold shared observability extras into a run result."""
        result.extra["stats.engine.cycles_skipped"] = float(
            self._engine_skips()[0]
        )
        result.extra["stats.engine.ff_jumps"] = float(self._engine_skips()[1])
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

    def _engine_skips(self) -> Tuple[int, int]:
        """(cycles_skipped, ff_jumps) of the drive loop (overridable)."""
        return (self._sched.cycles_skipped, self._sched.ff_jumps)

    def _fault_extra(self) -> List[Tuple[str, object]]:
        """Sorted fault-counter items; the sharded front-end overrides
        this to merge the per-worker counter dictionaries."""
        if self._faults is None:
            return []
        return sorted(self._faults.counters.items())

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Deep-copied picklable capture of the full simulation state.

        Captures the routers, the drive loop, every RNG stream, the
        in-flight flit queue, the host-side injection machinery, the
        staged run program, the workload, the fault injector, and the
        trace collector.  Restoring the capture onto a freshly built
        twin (same constructor arguments) resumes byte-identically;
        see :mod:`repro.harness.checkpoint` for the on-disk format.
        """
        run = self._capture_run()
        arrivals = self.arrivals.snapshot()
        switch_of = {id(r): sid for sid, r in self.routers.items()}
        inflight = []
        for arrival, seq, flit, target in self._inflight:
            if isinstance(target, tuple):
                router, port = target
                encoded: Tuple = ("r", switch_of[id(router)], port)
            else:
                encoded = ("h", target)
            inflight.append((arrival, seq, flit, encoded))
        return copy.deepcopy({
            **run,
            "routers": [
                router._snapshot_state() for router in self.routers.values()
            ],
            "seq": next(copy.copy(self._seq)),
            "inflight": inflight,
            "harness": {
                "source_q": [list(queue) for queue in self._source_q],
                "backlog_hosts": sorted(self._backlog_hosts),
                "next_inject": self._next_inject,
                "packet_vc": self._packet_vc,
                "vc_rr": self._vc_rr,
                "peak_source_q": self._peak_source_q,
            },
            "rngs": arrivals["rngs"],
            "route_rng": self._route_rng.getstate(),
            "arrivals": arrivals["arrivals"],
        })

    def restore(self, state: Dict[str, Any]) -> None:
        """Apply a :meth:`snapshot` onto this simulation in place.

        The simulation must have been built with the same constructor
        arguments as the one the snapshot came from (same topology,
        scheduler mode, fault plan, workload and tracer presence).
        """
        self._check_run(state)
        if len(state["routers"]) != len(self.routers):
            raise ValueError(
                f"snapshot captured {len(state['routers'])} routers, "
                f"simulation has {len(self.routers)}"
            )
        if len(state["rngs"]) != len(self.arrivals.streams):
            raise ValueError(
                f"snapshot captured {len(state['rngs'])} hosts, "
                f"simulation has {len(self.arrivals.streams)}"
            )
        state = copy.deepcopy(state)
        for router, captured in zip(self.routers.values(), state["routers"]):
            router._restore_state(captured)
        self._seq = itertools.count(state["seq"])
        inflight: Deque[Tuple[int, int, Flit, object]] = deque()
        for arrival, seq, flit, encoded in state["inflight"]:
            if encoded[0] == "r":
                target: object = (self.routers[encoded[1]], encoded[2])
            else:
                target = encoded[1]
            inflight.append((arrival, seq, flit, target))
        # Captured sorted, which is the queue's order.
        self._inflight = inflight
        harness = state["harness"]
        self._source_q = [deque(queue) for queue in harness["source_q"]]
        self._backlog_hosts = set(harness["backlog_hosts"])
        self._next_inject = harness["next_inject"]
        self._packet_vc = harness["packet_vc"]
        self._vc_rr = harness["vc_rr"]
        self._peak_source_q = harness["peak_source_q"]
        self.arrivals.restore(state)
        self._route_rng.setstate(state["route_rng"])
        # After the routers: lost-credit sinks resolve through the
        # (identity-preserved) credit_sinks wiring.
        self._apply_run(state)


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
    ``scheduler``, ``host_pattern``, ``faults``, ...) go to every
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
