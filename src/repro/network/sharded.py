"""Sharded multi-process Clos simulation, byte-identical to serial.

:class:`ShardedNetworkSimulation` partitions the routers of a network
simulation across N worker processes (contiguous blocks of the
topology's ``switch_ids()`` order, via
:func:`repro.engine.shard.partition`) and drives them in lock-step: the
parent process keeps everything host-side — packet generation, the
traffic pattern and per-host RNG streams, injection flow control, host
ejections, latency measurement, the workload DAG, and dead-link-aware
routing — while each worker owns its block's routers and executes the
two-phase engine cycle for them.  Boundary flits and credits cross
shards through the parent at phase boundaries over pipes
(:class:`repro.engine.shard.ShardPool`).

Determinism: the per-shard RNG streams are *unchanged from serial* —
host traffic and route draws stay in the parent (same streams, same
draw points), and the per-router credit-loss streams live with their
routers (same ``derive_rng`` keys, consumed in the serial order via the
pre-draw protocol of
:class:`~repro.faults.shard.ShardFaultInjector`).  The run result, the
``stats.*`` extras, the fault counters, the Chrome trace bytes, and the
fast-forward jump structure are byte-identical to the single-process
run; ``tests/test_sharding.py`` pins this differentially.

Why lock-step works without a global clock fabric: within a cycle, the
only cross-router visibility the serial engine allows is credit
restores applied during registration-order commits.  Flit delivery is
always cross-cycle (uniform positive channel latency), so the parent
can collect every boundary event at the end of cycle T and deliver it
before (or, for commit-order "trailing" credits, after) the workers run
cycle T+1.  A router with undelivered credits never parks
(``NetworkRouter.busy`` covers ``_credit_out``), so the end-of-T
``pending(T+1)`` walk in each worker announces every cross-shard credit
exactly one cycle before it applies.

Sharded runs cannot checkpoint: :meth:`ShardedNetworkSimulation.snapshot`
raises.  Checkpoint serially, then resume with any shard count (the
state protocol is process-count-free).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Dict, List, Optional, Tuple

from ..core.errors import invariant
from ..engine import EngineHooks, make_scheduler
from ..engine.shard import ShardPool, partition
from .netsim import NetworkConfig, NetworkSimulation, _CreditSink
from .router import NetworkRouter, OutputLink
from .topology import SwitchId


class _RemoteCreditSink:
    """Stand-in credit sink for an input port fed from another shard.

    The restore is a no-op locally — the owning worker applies the real
    ``restore_credit`` when the parent relays the announcement.  The
    ``remote_address`` attribute is the duck-type marker the report
    walk and :class:`~repro.faults.shard.ShardFaultInjector` key on:
    ``(remote switch id, remote output port)`` of the link whose
    counter this credit restores.
    """

    __slots__ = ("remote_address",)

    def __init__(self, remote_switch: SwitchId, remote_port: int) -> None:
        self.remote_address = (remote_switch, remote_port)

    def __call__(self, vc: int) -> None:
        pass


class _LocalFlitSink:
    """Delivery callable for a router-to-router channel within a shard."""

    __slots__ = ("worker", "target", "port")

    def __init__(self, worker: "_ShardWorker", target: NetworkRouter,
                 port: int) -> None:
        self.worker = worker
        self.target = target
        self.port = port

    def __call__(self, flit, arrival: int) -> None:
        worker = self.worker
        heapq.heappush(
            worker._inflight,
            (arrival, worker._next_key(), flit, (self.target, self.port)),
        )


class _RemoteFlitSink:
    """Delivery callable exporting a flit to the parent exchange.

    ``target`` is ``("r", switch, port)`` for a router on another shard
    or ``("h", host)`` for a host ejection (always parent-side).
    """

    __slots__ = ("worker", "target")

    def __init__(self, worker: "_ShardWorker", target: Tuple) -> None:
        self.worker = worker
        self.target = target

    def __call__(self, flit, arrival: int) -> None:
        worker = self.worker
        worker._out_flits.append(
            (arrival, worker._next_key(), flit, self.target)
        )


class _FaultRecorder:
    """Append-only log of fault hook events, for cross-process replay.

    Both the parent (host-channel corruption) and every worker (link
    transitions, credit loss/resync) record the fault events their half
    of the injector emits; at finalization the merged log is replayed
    through the user's trace collector so its fault view matches the
    serial run's event set exactly.
    """

    __slots__ = ("events",)

    def __init__(self, hooks: EngineHooks) -> None:
        self.events: List[Tuple[str, str, Tuple, int]] = []
        hooks.on_fault_inject(self._on_inject)
        hooks.on_fault_recover(self._on_recover)

    def _on_inject(self, kind: str, where, cycle: int) -> None:
        self.events.append(("inject", kind, tuple(where), cycle))

    def _on_recover(self, kind: str, where, cycle: int) -> None:
        self.events.append(("recover", kind, tuple(where), cycle))


def _canonical_fault_order(event: Tuple[str, str, Tuple, int]) -> Tuple:
    """Deterministic merge order for per-process fault logs."""
    direction, kind, where, cycle = event
    return (cycle, direction, kind, str(where))


def _build_shard_worker(payload: Dict[str, Any]) -> "_ShardWorker":
    """Module-level factory for :class:`~repro.engine.shard.ShardPool`
    (spawned children re-import this module and call it by name)."""
    return _ShardWorker(payload)


class _ShardWorker:
    """One shard's half of the simulation, living in a child process.

    Owns the block's routers, their local scheduler (same mode and
    active-set setting as the parent's), and — when the plan calls for
    it — a :class:`~repro.faults.shard.ShardFaultInjector` over the
    local routers.  Exposes ``routers``/``hooks``/``topology`` so the
    injector attaches exactly as it would to a simulation.
    """

    def __init__(self, payload: Dict[str, Any]) -> None:
        self.shard: int = payload["shard"]
        self.config: NetworkConfig = payload["config"]
        self.topology = payload["topology"]
        blocks: List[List[SwitchId]] = payload["blocks"]
        self.hooks = EngineHooks()
        order = [sid for block in blocks for sid in block]
        self._serial_index = {sid: idx for idx, sid in enumerate(order)}
        self._block = list(blocks[self.shard])
        local = set(self._block)
        self._key_counter = itertools.count()
        #: Local in-flight deliveries: (arrival, key, flit, (router, port)).
        self._inflight: List[Tuple] = []
        #: Cross-shard resyncs awaiting their due cycle: (due, sid, port, vc).
        self._resync_in: List[Tuple[int, SwitchId, int, int]] = []
        #: Flits leaving the shard this cycle: (arrival, key, flit, target).
        self._out_flits: List[Tuple] = []
        self.routers: Dict[SwitchId, NetworkRouter] = {}
        for sid in self._block:
            ports = self.topology.ports_used(sid)
            self.routers[sid] = NetworkRouter(
                self.config.router_config(ports), name=str(sid)
            )
        self._wire(local)
        self._sched = make_scheduler(
            payload["scheduler"],
            self.routers.values(),
            hooks=self.hooks,
            active_set=payload["active_set"],
        )
        self._sched.add_pre_cycle(self._pre_cycle)
        self._sched.add_wake_source(self._next_work)
        self._injector = None
        self._predraw = False
        plan = payload["plan"]
        if plan is not None:
            # Imported lazily: faults sits above the network layer.
            from ..faults.shard import ShardFaultInjector, plan_for_shard

            narrowed = plan_for_shard(plan, local)
            if narrowed is not None:
                self._injector = ShardFaultInjector(
                    narrowed, self, payload["seed"]
                )
                self._predraw = narrowed.credit_loss_rate > 0.0
        self._recorder = None
        self._collector = None
        tracer_spec = payload["tracer"]
        if tracer_spec is not None:
            self._recorder = _FaultRecorder(self.hooks)
            switch = payload["trace_switch"]
            if switch in local:
                # Imported lazily: trace sits above the network layer.
                from ..trace import TraceCollector

                collector = TraceCollector(
                    capacity=tracer_spec["capacity"],
                    trace_filter=tracer_spec["filter"],
                )
                router = self.routers[switch]
                collector.attach(router)
                collector.label = f"{type(router).__name__}[{switch}]"
                self._collector = collector
        #: Host injection ports this shard hosts: (host, router, port).
        self._host_ports: List[Tuple[int, NetworkRouter, int]] = []
        for host in range(self.topology.num_hosts):
            attach = self.topology.host_attachment(host)
            if attach.switch in local:
                self._host_ports.append(
                    (host, self.routers[attach.switch], attach.port)
                )
        self._crash_at: Optional[int] = payload["crash_at"]
        self._cmd_cycle: Optional[int] = None
        self._accepts: List[Tuple[SwitchId, int, Any]] = []

    def _wire(self, local: set) -> None:
        """Serial wiring restricted to the local block.

        Remote-facing ports get exporting flit sinks; input ports fed
        from another shard get :class:`_RemoteCreditSink` stand-ins
        whose address is derived from the symmetric back-edge (the
        serial wiring installs the real sink from the *neighbor's*
        loop, which a shard cannot run).
        """
        num_vcs = self.config.num_vcs
        depth = self.config.buffer_depth
        for sid in self._block:
            router = self.routers[sid]
            for port in self.topology.wired_ports(sid):
                ref = self.topology.neighbor(sid, port)
                if ref.switch is None:
                    link = OutputLink(
                        num_vcs,
                        _RemoteFlitSink(self, ("h", ref.host)),
                        downstream_depth=None,
                    )
                elif ref.switch in local:
                    target = self.routers[ref.switch]
                    link = OutputLink(
                        num_vcs,
                        _LocalFlitSink(self, target, ref.port),
                        downstream_depth=depth,
                    )
                    target.credit_sinks[ref.port] = _CreditSink(link)
                else:
                    back = self.topology.neighbor(ref.switch, ref.port)
                    if back.switch != sid or back.port != port:
                        raise ValueError(
                            f"sharding requires symmetric inter-router "
                            f"wiring, but {sid!r}:{port} -> "
                            f"{ref.switch!r}:{ref.port} has back-edge "
                            f"{back.switch!r}:{back.port}"
                        )
                    link = OutputLink(
                        num_vcs,
                        _RemoteFlitSink(self, ("r", ref.switch, ref.port)),
                        downstream_depth=depth,
                    )
                    router.credit_sinks[port] = _RemoteCreditSink(
                        ref.switch, ref.port
                    )
                router.attach(port, link)

    def _next_key(self) -> Tuple[int, int]:
        """Tiebreak key ordering same-arrival deliveries as serial.

        Blocks are contiguous serial-index ranges and same-arrival
        entries always share a creation cycle (uniform channel
        latency), so (shard, local counter) sorts exactly like the
        serial global sequence counter: by source-router commit order.
        """
        return (self.shard, next(self._key_counter))

    # -- command protocol ----------------------------------------------

    def handle(self, message: Tuple):
        kind = message[0]
        if kind == "cycle":
            return self._cycle(*message[1:])
        if kind == "finish":
            return self._finish()
        raise ValueError(f"unknown shard worker message {kind!r}")

    def _cycle(self, now: int, accepts, flits, leading, trailing, resyncs):
        if self._crash_at is not None and now >= self._crash_at:
            raise RuntimeError(
                f"injected shard crash at cycle {now}"
            )
        for arrival, key, flit, sid, port in flits:
            heapq.heappush(
                self._inflight,
                (arrival, key, flit, (self.routers[sid], port)),
            )
        for entry in resyncs:
            heapq.heappush(self._resync_in, tuple(entry))
        for sid, port, vc in leading:
            self.routers[sid].links[port].restore_credit(vc)
        self._cmd_cycle = now
        self._accepts = accepts
        self._sched.run_until(now + 1)
        for sid, port, vc in trailing:
            self.routers[sid].links[port].restore_credit(vc)
        return self._report(now)

    def _pre_cycle(self, now: int) -> None:
        """Shard-local mirror of ``NetworkSimulation._pre_cycle``:
        faults first, then due deliveries, then this cycle's host
        injections — the serial phase order."""
        if self._injector is not None:
            self._injector.advance(now)
        while self._resync_in and self._resync_in[0][0] <= now:
            _, sid, port, vc = heapq.heappop(self._resync_in)
            self.routers[sid].links[port].restore_credit(vc)
        while self._inflight and self._inflight[0][0] <= now:
            _, _, flit, target = heapq.heappop(self._inflight)
            router, port = target
            self._sched.wake(router, now)
            router.accept(port, flit)
        if now == self._cmd_cycle and self._accepts:
            for sid, port, flit in self._accepts:
                router = self.routers[sid]
                self._sched.wake(router, now)
                router.accept(port, flit)
            self._accepts = []

    def _next_work(self, now: int) -> Optional[int]:
        """Wake horizon over the shard-local work queues."""
        horizon: Optional[int] = None
        if self._inflight:
            horizon = self._inflight[0][0]
        if self._resync_in:
            due = self._resync_in[0][0]
            if horizon is None or due < horizon:
                horizon = due
        if self._injector is not None:
            due = self._injector.next_event(now)
            if due is not None and (horizon is None or due < horizon):
                horizon = due
        if self._accepts and self._cmd_cycle is not None:
            if horizon is None or self._cmd_cycle < horizon:
                horizon = self._cmd_cycle
        return horizon

    def _report(self, now: int) -> Dict[str, Any]:
        """End-of-cycle boundary report for the parent exchange.

        The credit walk visits each busy router's delay line in
        :meth:`~repro.core.pipeline.DelayLine.pending` order — the
        exact order the next commit will pop — pre-drawing the loss
        verdict for every maturing credit (preserving the serial
        per-router stream order) and announcing the survivors whose
        restore belongs to another shard.
        """
        nxt = now + 1
        credits: List[Tuple[int, SwitchId, int, int]] = []
        for sid in self._block:
            router = self.routers[sid]
            if not router._credit_out:
                continue
            src_idx = self._serial_index[sid]
            for _, (sink, vc) in router._credit_out.pending(nxt):
                drop = (
                    self._injector.predraw_drop(router)
                    if self._predraw else False
                )
                address = getattr(sink, "remote_address", None)
                if address is not None and not drop:
                    credits.append((src_idx, address[0], address[1], vc))
        flits, self._out_flits = self._out_flits, []
        resyncs = (
            self._injector.drain_resyncs()
            if self._injector is not None else []
        )
        hosts = {
            host: [
                router.input_space(port, vc)
                for vc in range(self.config.num_vcs)
            ]
            for host, router, port in self._host_ports
        }
        if self._sched.active_count() > 0:
            horizon: Optional[int] = nxt
        else:
            horizon = self._sched.next_horizon(nxt)
        return {
            "flits": flits,
            "credits": credits,
            "resyncs": resyncs,
            "hosts": hosts,
            "horizon": horizon,
        }

    def _finish(self) -> Dict[str, Any]:
        return {
            "counters": (
                dict(self._injector.counters)
                if self._injector is not None else {}
            ),
            "events": (
                list(self._recorder.events)
                if self._recorder is not None else []
            ),
            "collector": self._collector,
        }


class ShardedNetworkSimulation(NetworkSimulation):
    """Multi-process front-end with the serial simulation's contract.

    Construct like :class:`NetworkSimulation` plus ``shards``; drive
    with the same ``run``/``run_workload``/staged-run API.  Results,
    extras, fault counters, and trace exports are byte-identical to
    the serial run (see the module docstring for why).  One run per
    instance; call :meth:`close` (or let ``finish_run`` do it) to reap
    the worker processes.
    """

    def __init__(
        self,
        config: NetworkConfig,
        load: float = 0.0,
        shards: int = 2,
        topology=None,
        host_pattern=None,
        sanitize: bool = False,
        active_set: bool = True,
        faults=None,
        scheduler: str = "cycle",
        workload=None,
        tracer=None,
        trace_switch: Optional[SwitchId] = None,
        _crash_at: Optional[Tuple[int, int]] = None,
    ) -> None:
        if sanitize:
            raise ValueError(
                "cannot sanitize a sharded simulation; run the "
                "sanitizer on a serial twin instead"
            )
        self._shards = shards
        super().__init__(
            config, load, topology=topology, host_pattern=host_pattern,
            active_set=active_set, faults=None, scheduler=scheduler,
            workload=workload, tracer=None, trace_switch=None,
        )
        order = [sid for block in self._blocks for sid in block]
        self._owner: Dict[SwitchId, int] = {}
        self._lo: List[int] = []
        self._hi: List[int] = []
        idx = 0
        for w, block in enumerate(self._blocks):
            self._lo.append(idx)
            for sid in block:
                self._owner[sid] = w
            idx += len(block)
            self._hi.append(idx)
        # Tracing: validated here (the base saw tracer=None because it
        # has no routers to attach to); merged from the owning worker
        # at finalization.
        self._requested_tracer = tracer
        self._cycle_count = 0
        self._parent_recorder: Optional[_FaultRecorder] = None
        if tracer is not None:
            if trace_switch is None:
                trace_switch = order[0]
            if trace_switch not in self._owner:
                raise ValueError(
                    f"trace_switch {trace_switch!r} is not a switch of "
                    f"this topology"
                )
            self._trace_switch = trace_switch
            self.hooks.on_cycle_end(self._count_cycle)
            self._parent_recorder = _FaultRecorder(self.hooks)
        if faults is not None and faults.enabled:
            # Imported lazily: faults sits above the network layer.
            from ..faults.shard import MirrorFaultInjector

            self._faults = MirrorFaultInjector(faults, self, config.seed)
        plan = faults if (faults is not None and faults.enabled) else None
        tracer_spec = (
            None if tracer is None
            else {"capacity": tracer.capacity, "filter": tracer.filter}
        )
        # Host-side flow-control mirror: per-host free input slots at
        # the attach port, refreshed from the owning worker's report
        # after every cycle and decremented by this cycle's accepts —
        # exactly the value serial ``input_space`` reads pre-cycle.
        self._free: List[List[int]] = [
            [config.buffer_depth] * config.num_vcs
            for _ in range(self.topology.num_hosts)
        ]
        self._host_worker: List[int] = [
            self._owner[self.topology.host_attachment(h).switch]
            for h in range(self.topology.num_hosts)
        ]
        self._host_port: List[Tuple[SwitchId, int]] = []
        for h in range(self.topology.num_hosts):
            attach = self.topology.host_attachment(h)
            self._host_port.append((attach.switch, attach.port))
        self._accept_out: List[List[Tuple]] = [[] for _ in range(shards)]
        self._stash_flits: List[List[Tuple]] = [[] for _ in range(shards)]
        self._lead: List[List[Tuple]] = [[] for _ in range(shards)]
        self._trail: List[List[Tuple]] = [[] for _ in range(shards)]
        self._stash_resyncs: List[List[Tuple]] = [[] for _ in range(shards)]
        self._stash_dues: List[int] = []
        self._credit_cycle: Optional[int] = None
        self._worker_horizons: List[Optional[int]] = [0] * shards
        self._worker_counters: List[Dict[str, int]] = []
        self._worker_events: List[Tuple] = []
        self._finished_workers = False
        payloads = [
            {
                "shard": w,
                "config": config,
                "topology": self.topology,
                "blocks": self._blocks,
                "scheduler": scheduler,
                "active_set": active_set,
                "plan": plan,
                "seed": config.seed,
                "tracer": tracer_spec,
                "trace_switch": self._trace_switch,
                "crash_at": (
                    _crash_at[1]
                    if _crash_at is not None and _crash_at[0] == w
                    else None
                ),
            }
            for w in range(shards)
        ]
        self._pool = ShardPool(_build_shard_worker, payloads)

    # -- construction---------------------------------------------------

    def _build_network(self) -> None:
        """No local routers: the workers build the partitioned network."""
        order = list(self.topology.switch_ids())
        self._blocks = partition(order, self._shards)
        self.routers = {}

    def _count_cycle(self, cycle: int) -> None:
        self._cycle_count += 1

    # -- drive loop -----------------------------------------------------

    def _pre_cycle(self, now: int) -> None:
        """Serial host-side phases, then the shard boundary exchange."""
        super()._pre_cycle(now)
        self._exchange(now)

    def _try_inject(self, host: int, now: int) -> None:
        """Serial injection against the mirrored flow-control state.

        Guard order, RNG draw points, and round-robin updates replicate
        ``NetworkSimulation._try_inject`` exactly; the only change is
        that the accept ships to the owning worker (inside this cycle's
        command) instead of landing on a local router.
        """
        faults = self._faults
        if now < self._next_inject[host] or not self._source_q[host]:
            return
        if faults is not None and not faults.channel_ready(host, now):
            return
        flit = self._source_q[host][0]
        switch, port = self._host_port[host]
        invariant(switch is not None, "host attaches to no switch",
                  cycle=now, check="topology")
        free = self._free[host]
        vc = self._packet_vc[host]
        if flit.is_head and vc is None:
            vc = self._pick_free_vc(free, host)
            if vc is None:
                return
            self._packet_vc[host] = vc
        invariant(vc is not None, "packet VC lost mid-packet",
                  cycle=now, port=port, check="injection")
        if free[vc] < 1:
            return
        flit.vc = vc
        if faults is not None and not faults.attempt_transmit(
            host, flit, now
        ):
            self._next_inject[host] = now + self.config.flit_cycles
            return
        self._source_q[host].pop(0)
        if not self._source_q[host]:
            self._backlog_hosts.discard(host)
        free[vc] -= 1
        self._accept_out[self._host_worker[host]].append(
            (switch, port, flit)
        )
        self._next_inject[host] = now + self.config.flit_cycles
        if flit.is_tail:
            self._packet_vc[host] = None

    def _pick_free_vc(self, free: List[int], host: int) -> Optional[int]:
        """``_pick_vc`` against the mirror: same round-robin pointer."""
        v = self.config.num_vcs
        for offset in range(v):
            vc = (self._vc_rr[host] + offset) % v
            if free[vc] >= 1:
                self._vc_rr[host] = (vc + 1) % v
                return vc
        return None

    def _exchange(self, now: int) -> None:
        """Command every worker to run cycle ``now``; route the reports.

        Sends this cycle's host accepts plus everything stashed from
        earlier reports (cross-shard flits, leading/trailing credits,
        resyncs), then files each report's boundary events for the
        cycle they become visible.
        """
        invariant(
            self._credit_cycle is None or self._credit_cycle == now,
            "stashed boundary credits missed their delivery cycle",
            cycle=now, check="shard-exchange",
        )
        self._credit_cycle = None
        pool = self._pool
        shards = self._shards
        for w in range(shards):
            pool.send(w, (
                "cycle", now, self._accept_out[w], self._stash_flits[w],
                self._lead[w], self._trail[w], self._stash_resyncs[w],
            ))
        self._accept_out = [[] for _ in range(shards)]
        self._stash_flits = [[] for _ in range(shards)]
        self._lead = [[] for _ in range(shards)]
        self._trail = [[] for _ in range(shards)]
        self._stash_resyncs = [[] for _ in range(shards)]
        self._stash_dues = []
        reports = pool.gather()
        for w, report in enumerate(reports):
            self._worker_horizons[w] = report["horizon"]
            for host, spaces in report["hosts"].items():
                self._free[host] = spaces
            for arrival, key, flit, target in report["flits"]:
                if target[0] == "h":
                    heapq.heappush(
                        self._inflight, (arrival, key, flit, target[1])
                    )
                else:
                    owner = self._owner[target[1]]
                    self._stash_flits[owner].append(
                        (arrival, key, flit, target[1], target[2])
                    )
                    heapq.heappush(self._stash_dues, arrival)
            for src_idx, sid, port, vc in report["credits"]:
                owner = self._owner[sid]
                if src_idx < self._lo[owner]:
                    self._lead[owner].append((sid, port, vc))
                else:
                    self._trail[owner].append((sid, port, vc))
                heapq.heappush(self._stash_dues, now + 1)
                self._credit_cycle = now + 1
            for due, sid, port, vc in report["resyncs"]:
                owner = self._owner[sid]
                self._stash_resyncs[owner].append((due, sid, port, vc))
                heapq.heappush(self._stash_dues, due)

    def _next_work(self, now: int) -> Optional[int]:
        """Serial host-side horizon merged with the shard horizons."""
        horizon = super()._next_work(now)
        for due in self._worker_horizons:
            if due is not None and (horizon is None or due < horizon):
                horizon = due
        if self._stash_dues:
            due = self._stash_dues[0]
            if horizon is None or due < horizon:
                horizon = due
        return horizon

    # -- results --------------------------------------------------------

    def finish_run(self):
        program = self._program
        if program is not None and program["stage"] >= program["final"]:
            self._finalize_workers()
        return super().finish_run()

    def _fault_extra(self) -> List[Tuple[str, object]]:
        """Merge the mirror's counters with the per-worker counters."""
        merged: Dict[str, int] = {}
        if self._faults is not None:
            merged.update(self._faults.counters)
        for counters in self._worker_counters:
            for name, value in counters.items():
                merged[name] = merged.get(name, 0) + value
        return sorted(merged.items())

    def _finalize_workers(self) -> None:
        """Collect final worker payloads and reap the pool (idempotent).

        Merges the per-worker fault counters, replays the merged fault
        event log through the user's trace collector (whose contents
        are taken wholesale from the worker that traced the target
        switch), and stamps the network-wide cycle count.
        """
        if self._finished_workers:
            return
        self._finished_workers = True
        for w in range(self._shards):
            self._pool.send(w, ("finish",))
        finals = self._pool.gather()
        self._pool.close()
        self._worker_counters = [final["counters"] for final in finals]
        events: List[Tuple] = []
        for final in finals:
            events.extend(final["events"])
        if self._requested_tracer is None:
            return
        if self._parent_recorder is not None:
            events.extend(self._parent_recorder.events)
        collector = None
        for final in finals:
            if final["collector"] is not None:
                collector = final["collector"]
        target = self._requested_tracer
        vars(target).clear()
        vars(target).update(vars(collector))
        target.fault_injects = 0
        target.fault_recovers = 0
        target.fault_events = []
        for direction, kind, where, cycle in sorted(
            events, key=_canonical_fault_order
        ):
            if direction == "inject":
                target._on_fault_inject(kind, where, cycle)
            else:
                target._on_fault_recover(kind, where, cycle)
        target.cycles = self._cycle_count
        self._tracer = target

    # -- lifecycle ------------------------------------------------------

    def _check_startable(self) -> None:
        if self._finished_workers:
            raise RuntimeError(
                "sharded workers were already reaped; build a new "
                "ShardedNetworkSimulation for another run"
            )
        super()._check_startable()

    def snapshot(self) -> Dict[str, Any]:
        raise ValueError(
            "a sharded simulation cannot checkpoint; checkpoint a "
            "serial run and resume it with any shard count"
        )

    def restore(self, state: Dict[str, Any]) -> None:
        raise ValueError(
            "a sharded simulation cannot restore; load the checkpoint "
            "into a serial simulation instead"
        )

    def close(self) -> None:
        """Reap the worker processes (safe to call more than once)."""
        pool = getattr(self, "_pool", None)
        if pool is not None:
            pool.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass
