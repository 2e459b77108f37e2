"""Experiment driver: load-latency sweeps over a single router.

Mirrors the paper's measurement procedure (Section 4.3): the simulator
is warmed up under load without taking measurements, a sample of
packets injected during a measurement interval is labeled, and the
simulation runs until all labeled packets reach their destinations.
Offered load is expressed as a fraction of switch capacity (one flit
per ``flit_cycles`` cycles per port); latency is measured from packet
generation (so source queueing counts) to tail-flit ejection.
"""

from __future__ import annotations

import functools
import multiprocessing
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..core.config import RouterConfig
from ..core.flit import Flit
from ..engine import Scheduler
from ..routers.base import Router
from ..traffic.arrivals import ArrivalQueue
from ..traffic.injection import make_injection
from ..traffic.patterns import TrafficPattern, UniformRandom
from ..traffic.source import TrafficSource
from ..workloads.base import Workload
from ..workloads.source import WorkloadSource
from .program import StagedRun
from .stats import LatencySample, RunResult

RouterFactory = Callable[[RouterConfig], Router]
PatternFactory = Callable[[RouterConfig], TrafficPattern]


@dataclass
class SweepSettings:
    """Timing parameters of a measurement run (in cycles)."""

    warmup: int = 2000
    measure: int = 2000
    drain: int = 30000
    #: Treat the run as saturated when fewer than this fraction of the
    #: labeled packets drain within the drain budget.
    min_drain_fraction: float = 0.999

    def scaled(self, factor: float) -> "SweepSettings":
        """Scale all windows (used by reduced-scale benchmarks)."""
        return SweepSettings(
            warmup=max(1, int(self.warmup * factor)),
            measure=max(1, int(self.measure * factor)),
            drain=max(1, int(self.drain * factor)),
            min_drain_fraction=self.min_drain_fraction,
        )


class SwitchSimulation(StagedRun):
    """Drives one router instance with per-input traffic sources."""

    def __init__(
        self,
        router: Router,
        load: float = 0.0,
        packet_size: int = 1,
        pattern: Optional[TrafficPattern] = None,
        injection: str = "bernoulli",
        avg_burst: float = 8.0,
        seed: Optional[int] = None,
        sanitize: bool = False,
        tracer=None,
        faults=None,
        workload: Optional[Workload] = None,
    ) -> None:
        """``faults`` is an optional :class:`~repro.faults.FaultPlan`:
        when set (and enabled) a
        :class:`~repro.faults.SwitchFaultInjector` drives host-channel
        corruption with retransmission, credit loss with resync, and
        the plan's stuck-buffer schedule.  None — or a disabled plan —
        leaves the simulation byte-identical to a plain run.

        The drive loop fast-forwards over spans in which the router is
        parked and no arrival, injection retry, or fault event is due;
        ``stats.engine.cycles_skipped`` / ``stats.engine.ff_jumps``
        count what it skipped.

        ``workload`` replaces the synthetic sources with one
        :class:`~repro.workloads.WorkloadSource` per port, all sharing
        the workload's dependency DAG: a message injects only once its
        dependencies have been ejected.  Drive with
        :meth:`run_workload` instead of :meth:`run`."""
        if not 0.0 <= load <= 1.0:
            raise ValueError(f"load must be in [0, 1], got {load}")
        self.router = router
        #: The router's event bus (metrics/tracing attach here).
        self.hooks = router.hooks
        # The runtime invariant checker observes ``router`` on its hook
        # bus; nothing else about the simulation changes.
        if sanitize:
            # Imported lazily: the analysis layer sits above the harness.
            from ..analysis.sanitizer import SimSanitizer

            self.sanitizer: Optional[SimSanitizer] = SimSanitizer(router)
        else:
            self.sanitizer = None
        self._sched = Scheduler([router], hooks=router.hooks)
        # The drive loop is inverted: the scheduler owns the per-cycle
        # sequence (faults -> generate -> inject -> engine -> collect)
        # and this harness contributes its phases and its wake
        # horizons.
        self._sched.add_pre_cycle(self._pre_cycle)
        self._sched.add_post_cycle(self._collect_ejected)
        self._sched.add_wake_source(self._next_work)
        #: Optional trace collector (see :mod:`repro.trace`): anything
        #: with ``attach(sim)`` and ``fold_stats(stats)``.  Attached
        #: here — before any cycle runs — so lifecycle records start at
        #: the first accept; its aggregate counters are folded into the
        #: run result's ``stats.trace.*`` extras by :meth:`run`.
        self._tracer = tracer
        if tracer is not None:
            tracer.attach(self)
        self.config = router.config
        self.load = load
        self.packet_size = packet_size
        seed = self.config.seed if seed is None else seed
        pattern = pattern or UniformRandom(self.config.radix)
        packet_rate = load * self.config.capacity_flits_per_cycle / packet_size
        peak_rate = self.config.capacity_flits_per_cycle / packet_size
        self._workload = workload
        self.sources: List[Union[TrafficSource, WorkloadSource]] = []
        traffic: List[TrafficSource] = []
        if workload is not None:
            if workload.num_ranks > self.config.radix:
                raise ValueError(
                    f"workload has {workload.num_ranks} ranks but the "
                    f"router only has {self.config.radix} ports"
                )
            for i in range(self.config.radix):
                self.sources.append(WorkloadSource(i, workload))
        else:
            for i in range(self.config.radix):
                proc = make_injection(
                    injection, packet_rate, peak_rate, avg_burst
                )
                traffic.append(
                    TrafficSource(i, pattern, proc, packet_size, seed)
                )
            self.sources.extend(traffic)
        #: When each port's next packet arrives (empty for a workload).
        self.arrivals = ArrivalQueue(
            [src.stream for src in traffic], [src.injection for src in traffic]
        )
        if self.sanitizer is not None:
            self.sanitizer.arrivals = self.arrivals
        if faults is not None and faults.enabled:
            # Imported lazily: the faults layer sits above the harness.
            from ..faults import SwitchFaultInjector

            self._faults: Optional[SwitchFaultInjector] = (
                SwitchFaultInjector(faults, router, seed)
            )
            # The router's audit reads the injector's lost-credit
            # ledger through this handle when balancing the credit books.
            router.fault_injector = self._faults
        else:
            self._faults = None
        k = self.config.radix
        self._next_inject = [0] * k
        self._packet_vc: List[Optional[int]] = [None] * k
        self._vc_rr = [0] * k
        self._next_packet_id = 0
        self._measuring = False
        self._generating = True
        self._outstanding = 0
        self._labeled_total = 0
        self.sample = LatencySample()
        self.measured_flits = 0
        self._count_flits = False
        #: In-progress measurement program (see :meth:`start_run`), or
        #: None when no staged run is active.
        self._program: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------

    def _pre_cycle(self, now: int) -> None:
        """Harness work before the engine cycle: faults, traffic."""
        if self._faults is not None:
            # Apply scheduled stuck faults and deliver due credit
            # resyncs before anything else observes this cycle.
            self._faults.advance(now)
        if self._generating:
            measuring = self._measuring
            new_id = self._new_packet_id
            if self._workload is None:
                sources = self.sources
                for i in self.arrivals.due(now):
                    sources[i].generate(now, measuring, new_id)
                    if measuring:
                        self._outstanding += 1
                        self._labeled_total += 1
            else:
                for src in self.sources:
                    if (src.generate(now, measuring, new_id) is not None
                            and measuring):
                        self._outstanding += 1
                        self._labeled_total += 1
        self._inject(now)

    def _collect_ejected(self, now: int) -> None:
        """Harness work after the engine cycle: delivery accounting."""
        for flit, eject_cycle in self.router.drain_ejected():
            self._delivered(flit, eject_cycle)

    def _next_work(self, now: int) -> Optional[int]:
        """Wake horizon: earliest cycle >= ``now`` with harness work.

        Consulted before fast-forwarding past a span in which the
        router is parked: the next queued packet arrival (or
        a workload source's next eligible message),
        the earliest cycle a backlogged source can retry injection
        (channel bandwidth throttle, fault back-off), and the fault
        injector's schedule.  Horizons may be conservative (early) but
        never late — see the engine module docstring.
        """
        dues: List[Optional[int]] = [
            self._retry_at(i, now) for i, src in enumerate(self.sources) if src.queue
        ]
        if self._generating:
            if self._workload is None:
                dues.append(self.arrivals.next_due())
            else:
                dues += [src.peek_arrival(now) for src in self.sources]
        if self._faults is not None:
            dues.append(self._faults.next_event(now))
        return min((due for due in dues if due is not None), default=None)

    def _inject(self, now: int) -> None:
        """Offer one flit from every backlogged input whose channel is
        past its ``flit_cycles`` throttle, in port order."""
        next_inject = self._next_inject
        packet_vc = self._packet_vc
        # Blocked-port skip: a count equal to the bank's capacity means
        # every VC queue is full, so _pick_vc would scan all v of them
        # and return None — nothing moves, nothing raises.
        in_flits = self.router._in_flits
        bank_capacity = self.config.num_vcs * self.config.input_buffer_depth
        for i, src in enumerate(self.sources):
            if now < next_inject[i]:
                continue
            queue = src.queue
            if queue and (packet_vc[i] is not None or in_flits[i] != bank_capacity):
                self._try_inject(i, queue, now)

    def _input_space(self, channel: int, vc: int) -> int:
        # Direct buffer read (== router.input_space): probed for every
        # backlogged port every cycle, so it skips two calls.
        q = self.router.inputs[channel].queues[vc]
        return q.maxlen - len(q._q)

    def _hand_over(self, channel: int, flit: Flit, now: int) -> None:
        # Wake a parked or asleep router *before* accept so the flit's
        # injection timestamp uses the current cycle.
        self._sched.wake(self.router, now)
        self.router.accept(channel, flit)

    def stop_sources(self) -> None:
        """Stop generating new packets (used to drain the system)."""
        self._generating = False
        self.arrivals.stop()

    # ------------------------------------------------------------------

    def run(self, settings: Optional[SweepSettings] = None) -> RunResult:
        """Warm up, measure, drain; return the summarized result.

        Each phase is one ``run_until`` call, so fast-forward jumps
        never cross a warm-up/measurement boundary — the flag flips
        happen between calls, exactly where the per-cycle loop
        flipped them.
        """
        self.start_run(settings)
        self.advance_run()
        return self.finish_run()

    # ------------------------------------------------------------------
    # Staged measurement program (checkpointable run)
    # ------------------------------------------------------------------

    def start_run(self, settings: Optional[SweepSettings] = None) -> None:
        """Begin the warm-up/measure/drain program without running it
        (see :mod:`repro.harness.program`)."""
        settings = settings or SweepSettings()
        self._start_measure_run(
            settings.warmup, settings.measure, settings.drain,
            settings.min_drain_fraction,
        )

    def finish_run(self) -> RunResult:
        """Summarize a completed program into a :class:`RunResult`."""
        result, workload_run = self._summarize_run(
            self.config.radix, self.config.capacity_flits_per_cycle
        )
        if not workload_run:
            result.extra["undelivered"] = float(self._outstanding)
        self._fold_extras(result)
        return result

    def _fold_extras(self, result: RunResult) -> None:
        """Fold shared observability extras into a run result."""
        result.extra["source_backlog"] = float(
            sum(s.backlog() for s in self.sources)
        )
        # Peak injection-queue depth across ports: how far the worst
        # source queue got behind channel bandwidth.
        result.extra["stats.traffic.max_source_queue"] = float(
            max((s.peak_backlog for s in self.sources), default=0)
        )
        # Drive-loop observability: how much of the run fast-forward
        # skipped.  Deliberately excluded from never-jump equivalence
        # comparisons — they are the only legitimate difference.
        result.extra["stats.engine.cycles_skipped"] = float(
            self._sched.cycles_skipped
        )
        result.extra["stats.engine.ff_jumps"] = float(self._sched.ff_jumps)
        if self._tracer is not None:
            if self._workload is not None:
                self._workload.annotate(self._tracer)
            self._tracer.fold_stats(self.router.stats)
        if self._workload is not None:
            self._workload.fold_stats(self.router.stats)
        # Ad-hoc RouterStats.bump() counters ride along under a
        # ``stats.`` prefix so they survive into reports and sweeps
        # instead of being silently dropped with the router instance.
        stats_extra = self.router.stats.extra
        for name in sorted(stats_extra):
            result.extra[f"stats.{name}"] = float(stats_extra[name])

    def run_workload(self, max_cycles: int = 1_000_000) -> RunResult:
        """Run the attached workload DAG to completion; summarize.

        The simulation advances until every workload message has been
        delivered (or ``max_cycles`` elapse — the result is then marked
        saturated and ``undelivered`` counts the stuck messages).  The
        latency sample holds per-message send-to-ejection latencies
        from the workload's own records; aggregate DAG metrics (flow
        percentiles, per-phase step time and skew, makespan) land in
        the ``stats.workload.*`` extras.
        """
        self.start_workload_run(max_cycles)
        self.advance_run()
        return self.finish_run()


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------


@dataclass
class SweepResult:
    """A load-latency curve for one router configuration."""

    label: str
    results: List[RunResult] = field(default_factory=list)

    @property
    def loads(self) -> List[float]:
        return [r.offered_load for r in self.results]

    @property
    def latencies(self) -> List[float]:
        return [r.avg_latency for r in self.results]

    def saturation_throughput(self) -> float:
        """Largest accepted throughput observed on the curve."""
        return max((r.throughput for r in self.results), default=0.0)

    def zero_load_latency(self) -> float:
        """Latency of the lowest-load point on the curve."""
        if not self.results:
            return float("nan")
        return min(self.results, key=lambda r: r.offered_load).avg_latency


def _run_point(
    make_router: RouterFactory,
    config: RouterConfig,
    pattern_factory: Optional[PatternFactory],
    settings: Optional[SweepSettings],
    sim_options: Dict[str, Any],
    load: float,
) -> RunResult:
    """Build one simulation at ``load`` and run it (``load`` last and
    module-level, for a picklable :func:`functools.partial`)."""
    pattern = pattern_factory(config) if pattern_factory else None
    sim = SwitchSimulation(
        make_router(config), load=load, pattern=pattern, **sim_options
    )
    return sim.run(settings)


def map_points(
    point: Callable[[float], RunResult],
    loads: Sequence[float],
    processes: Optional[int],
) -> List[RunResult]:
    """``point(load)`` for each load, optionally over a process pool.

    Each point re-derives its RNG streams from the seed, so the results
    do not depend on ``processes``: 1 runs inline (as does a single
    point), None sizes the pool as ``min(len(loads), cpu_count)``.
    ``point`` and its results must then be picklable — router and
    pattern factories should be classes or module-level functions.
    """
    if processes is not None and processes < 1:
        raise ValueError(f"processes must be >= 1, got {processes}")
    if processes == 1 or len(loads) <= 1:
        return [point(load) for load in loads]
    workers = processes or min(len(loads), multiprocessing.cpu_count())
    with multiprocessing.Pool(workers) as pool:
        return pool.map(point, loads)


def run_load_sweep(
    make_router: RouterFactory,
    config: RouterConfig,
    loads: Sequence[float],
    label: str = "",
    pattern_factory: Optional[PatternFactory] = None,
    settings: Optional[SweepSettings] = None,
    processes: Optional[int] = 1,
    **sim_options: Any,
) -> SweepResult:
    """Simulate one router at each offered load; returns the curve.

    Here and in the two saturation helpers below, ``sim_options``
    (``packet_size``, ``injection``, ``seed``, ``faults``, ...) reach
    every point's :class:`SwitchSimulation` unchanged.  ``processes``
    fans the points out as :func:`map_points` describes.
    """
    point = functools.partial(
        _run_point, make_router, config, pattern_factory, settings,
        sim_options,
    )
    results = map_points(point, loads, processes)
    return SweepResult(
        label=label or type(make_router(config)).__name__, results=results
    )


def saturation_throughput(
    make_router: RouterFactory,
    config: RouterConfig,
    pattern_factory: Optional[PatternFactory] = None,
    settings: Optional[SweepSettings] = None,
    load: float = 1.0,
    **sim_options: Any,
) -> float:
    """Accepted throughput at (near-)unit offered load."""
    return _run_point(
        make_router, config, pattern_factory, settings, sim_options, load
    ).throughput


def find_saturation_load(
    make_router: RouterFactory,
    config: RouterConfig,
    pattern_factory: Optional[PatternFactory] = None,
    settings: Optional[SweepSettings] = None,
    tolerance: float = 0.02,
    **sim_options: Any,
) -> float:
    """Binary-search the saturation load of a router configuration.

    A point is *unsaturated* when the accepted throughput tracks the
    offered load (within ``slack = max(0.03, tolerance)``) and the
    labeled packets drain — i.e. a steady state exists, which is what
    the paper's methodology presumes below saturation.  Returns the
    largest load, within ``tolerance``, that is still unsaturated.

    This is the load at which the latency-load curve turns vertical —
    the quantity the paper reads off its figures as "saturates at
    approximately X% of capacity".  It agrees with
    :func:`saturation_throughput` (accepted throughput at load 1.0) up
    to the queueing growth near the knee.
    """
    if not 0.0 < tolerance < 1.0:
        raise ValueError(f"tolerance must be in (0, 1), got {tolerance}")
    slack = max(0.03, tolerance)

    def saturated_at(load: float) -> bool:
        result = _run_point(
            make_router, config, pattern_factory, settings, sim_options, load
        )
        return result.saturated or result.throughput < load - slack

    lo, hi = 0.0, 1.0
    if not saturated_at(1.0):
        return 1.0
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if saturated_at(mid):
            hi = mid
        else:
            lo = mid
    return lo
