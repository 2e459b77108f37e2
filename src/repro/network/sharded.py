"""Sharded multi-process Clos simulation, byte-identical to serial.

:class:`ShardedNetworkSimulation` deals the routers of a network
simulation to N worker processes — the blocks the topology proposes
(:meth:`~repro.network.topology.FoldedClos.shard_blocks` splits every
level evenly, so half the links of a two-level Clos stay inside a
worker), or contiguous blocks of ``switch_ids()``
(:func:`repro.engine.shard.partition`) for a topology that proposes
none — and drives them in lock-step: the parent process keeps
everything host-side — packet generation, the traffic pattern and
per-host RNG streams, injection flow control, host ejections, latency
measurement, the workload DAG, and dead-link-aware routing — while each
worker owns its block's routers and executes the two-phase engine cycle
for them.  Boundary flits and credits cross shards through the parent
over pipes (:class:`repro.engine.shard.ShardPool`), one exchange per
simulated cycle.

Determinism: the per-shard RNG streams are *unchanged from serial* —
host traffic and route draws stay in the parent (same streams, same
draw points), and the per-router credit-loss streams live with their
routers (same ``derive_rng`` keys, consumed in the serial order via the
pre-draw protocol of
:class:`~repro.faults.shard.ShardFaultInjector`).  The run result, the
``stats.*`` extras, the fault counters, the Chrome trace bytes, and the
fast-forward jump structure are byte-identical to the single-process
run for *any* assignment of switches to workers: everything that means
"serial order" is stated per router against ``switch_ids()`` (the
same-arrival sort key of :class:`_LocalFlitSink`, the leading/trailing
credit rule of :meth:`ShardedNetworkSimulation._collect`), never per
block.  ``tests/test_sharding.py`` pins this differentially.

Why lock-step works without a global clock fabric: within a cycle, the
only cross-router visibility the serial engine allows is credit
restores applied during registration-order commits.  Flit delivery is
always cross-cycle (uniform positive channel latency), so the parent
can collect every boundary event at the end of cycle T and deliver it
before (or, for commit-order "trailing" credits, after) the workers run
cycle T+1.  A router with undelivered credits never parks (its
``NetworkRouter.next_event`` names the first credit's due cycle at the
latest), and the end-of-T ``pending(T+1)`` walk in each worker visits
every router of the block, awake or not, so it announces every
cross-shard credit exactly one cycle before it applies.

What the barrier carries, and who waits at it (the Tiny Tera rule: the
central scheduler stays off the data path).  The parent sends the
workers into cycle T (:meth:`~ShardedNetworkSimulation._dispatch`) and
returns; it gathers their reports
(:meth:`~ShardedNetworkSimulation._collect`) only at the first phase of
cycle T+1 that reads one — injection, as a rule — so its fault advance,
host ejections and packet generation run while the workers compute.
Flits cross a pipe as field tuples (``Flit.to_wire``), which the parent
relays between workers without rebuilding, and host-port space is
reported as a delta against the mirror the parent already holds.
Deliberately not built: multi-cycle windows (a cross-shard credit is
known only ``credit_latency`` = 1 cycle ahead, so the conservative
window is one cycle) and worker-to-worker pipes (the parent's relay
measured ~0.04 s of a 732-cycle run with every link cut, and half of
them are cut now); see ``docs/checkpoint_sharding.md``.

Sharded runs cannot checkpoint:
:meth:`ShardedNetworkSimulation.save_checkpoint` raises before writing
anything.  Checkpoint a serial run instead; it produces the same bytes.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Dict, List, Optional, Tuple

from ..core.errors import invariant
from ..core.flit import Flit
from ..engine import EngineHooks, Scheduler
from ..engine.shard import ShardPool, partition
from .netsim import NetworkConfig, NetworkSimulation, _CreditSink, enqueue_in_order
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
    """Delivery callable for a router-to-router channel within a shard.

    ``sender`` is the sending router's position in the serial order.
    Same-arrival deliveries always share a creation cycle (uniform
    channel latency), and within a cycle the serial engine numbers
    them in commit order — router by router in ``switch_ids()`` order,
    transmit by transmit within a router — so ``(sender, worker
    counter)`` sorts exactly like the serial global sequence counter,
    whichever worker each sender lives on.
    """

    __slots__ = ("worker", "sender", "target", "port")

    def __init__(self, worker: "_ShardWorker", sender: int,
                 target: NetworkRouter, port: int) -> None:
        self.worker = worker
        self.sender = sender
        self.target = target
        self.port = port

    def __call__(self, flit, arrival: int) -> None:
        worker = self.worker
        heapq.heappush(
            worker._inflight,
            (arrival, (self.sender, next(worker._key_counter)), flit,
             (self.target, self.port)),
        )


class _RemoteFlitSink:
    """Delivery callable exporting a flit to the parent exchange.

    ``target`` is ``("r", switch, port)`` for a router on another shard
    or ``("h", host)`` for a host ejection (always parent-side).  The
    flit leaves as its field tuple (:meth:`~repro.core.flit.Flit.to_wire`);
    the sort key is :class:`_LocalFlitSink`'s.
    """

    __slots__ = ("worker", "sender", "target")

    def __init__(self, worker: "_ShardWorker", sender: int,
                 target: Tuple) -> None:
        self.worker = worker
        self.sender = sender
        self.target = target

    def __call__(self, flit, arrival: int) -> None:
        worker = self.worker
        worker._out_flits.append(
            (arrival, (self.sender, next(worker._key_counter)),
             flit.to_wire(), self.target)
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

    Owns the block's routers, their local scheduler, and — when the
    plan calls for it — a :class:`~repro.faults.shard.ShardFaultInjector` over the
    local routers.  Exposes ``routers``/``hooks``/``topology`` so the
    injector attaches exactly as it would to a simulation.
    """

    def __init__(self, payload: Dict[str, Any]) -> None:
        self.config: NetworkConfig = payload["config"]
        self.topology = payload["topology"]
        self.hooks = EngineHooks()
        self._serial_index = {
            sid: idx for idx, sid in enumerate(self.topology.switch_ids())
        }
        #: This worker's switches, in serial order.
        self._block: List[SwitchId] = payload["block"]
        local = set(self._block)
        self._key_counter = itertools.count()
        #: Local in-flight deliveries: (arrival, key, flit, (router, port)).
        self._inflight: List[Tuple] = []
        #: Cross-shard resyncs awaiting their due cycle: (due, sid, port, vc).
        self._resync_in: List[Tuple[int, SwitchId, int, int]] = []
        #: Flits leaving the shard this cycle: (arrival, key, wire, target).
        self._out_flits: List[Tuple] = []
        self.routers: Dict[SwitchId, NetworkRouter] = {}
        for sid in self._block:
            ports = self.topology.ports_used(sid)
            self.routers[sid] = NetworkRouter(
                self.config.router_config(ports), name=str(sid)
            )
        self._wire(local)
        self._sched = Scheduler(self.routers.values(), hooks=self.hooks)
        self._sched.add_pre_cycle(self._pre_cycle)
        self._sched.add_wake_source(self._next_work)
        self._injector = None
        self._draw_ahead = False
        plan = payload["plan"]
        if plan is not None:
            # Imported lazily: faults sits above the network layer.
            from ..faults.shard import ShardFaultInjector, plan_for_shard

            narrowed = plan_for_shard(plan, local)
            if narrowed is not None:
                self._injector = ShardFaultInjector(
                    narrowed, self, payload["seed"]
                )
                self._draw_ahead = narrowed.credit_loss_rate > 0.0
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
        #: Host injection ports this shard hosts: host -> (router, port).
        self._host_ports: Dict[int, Tuple[NetworkRouter, int]] = {}
        for host in range(self.topology.num_hosts):
            attach = self.topology.host_attachment(host)
            if attach.switch in local:
                self._host_ports[host] = (
                    self.routers[attach.switch], attach.port
                )
        #: Free slots per VC at each host port as the parent's mirror
        #: holds them (its own decrement per accept included).
        self._host_space: Dict[int, List[int]] = {
            host: [self.config.buffer_depth] * self.config.num_vcs
            for host in self._host_ports
        }
        #: Hosts whose port took an accept since the last report or
        #: still holds flits: the only ports whose space can have moved.
        self._live_hosts: Dict[int, None] = {}
        self._crash_at: Optional[int] = payload["crash_at"]
        self._cmd_cycle: Optional[int] = None
        self._accepts: List[Tuple[int, tuple]] = []

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
            sender = self._serial_index[sid]
            for port in self.topology.wired_ports(sid):
                ref = self.topology.neighbor(sid, port)
                if ref.switch is None:
                    link = OutputLink(
                        num_vcs,
                        _RemoteFlitSink(self, sender, ("h", ref.host)),
                        downstream_depth=None,
                    )
                elif ref.switch in local:
                    target = self.routers[ref.switch]
                    link = OutputLink(
                        num_vcs,
                        _LocalFlitSink(self, sender, target, ref.port),
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
                        _RemoteFlitSink(
                            self, sender, ("r", ref.switch, ref.port)
                        ),
                        downstream_depth=depth,
                    )
                    router.credit_sinks[port] = _RemoteCreditSink(
                        ref.switch, ref.port
                    )
                router.attach(port, link)

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
        for arrival, key, wire, sid, port in flits:
            heapq.heappush(
                self._inflight,
                (arrival, key, Flit.from_wire(wire),
                 (self.routers[sid], port)),
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
            for host, wire in self._accepts:
                flit = Flit.from_wire(wire)
                router, port = self._host_ports[host]
                self._sched.wake(router, now)
                router.accept(port, flit)
                self._host_space[host][flit.vc] -= 1
                self._live_hosts[host] = None
            self._accepts = []

    def _next_work(self, now: int) -> Optional[int]:
        """Wake horizon over the shard-local work queues."""
        dues = [self._cmd_cycle if self._accepts else None]
        if self._inflight:
            dues.append(self._inflight[0][0])
        if self._resync_in:
            dues.append(self._resync_in[0][0])
        if self._injector is not None:
            dues.append(self._injector.next_event(now))
        return min((due for due in dues if due is not None), default=None)

    def _report(self, now: int) -> Dict[str, Any]:
        """End-of-cycle boundary report for the parent exchange.

        The credit walk visits each router's pending credit line in
        :meth:`~repro.core.pipeline.DelayLine.pending` order — the
        exact order the next commit will pop — pre-drawing the loss
        verdict for every maturing credit (preserving the serial
        per-router stream order) and announcing the survivors whose
        restore belongs to another shard.  Host-port space is reported
        as a delta: only the hosts whose free-slot vector differs from
        what the parent's mirror already holds.
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
                    self._injector.draw_drop_ahead(router)
                    if self._draw_ahead else False
                )
                address = getattr(sink, "remote_address", None)
                if address is not None and not drop:
                    credits.append((src_idx, address[0], address[1], vc))
        flits, self._out_flits = self._out_flits, []
        resyncs = (
            self._injector.drain_resyncs()
            if self._injector is not None else []
        )
        hosts: Dict[int, List[int]] = {}
        for host in list(self._live_hosts):
            router, port = self._host_ports[host]
            bank = router.inputs[port]
            spaces = [queue.free_slots for queue in bank.queues]
            if spaces != self._host_space[host]:
                hosts[host] = self._host_space[host] = spaces
            if not bank:
                del self._live_hosts[host]
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
        faults=None,
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
            faults=None, workload=workload, tracer=None, trace_switch=None,
        )
        self._owner: Dict[SwitchId, int] = {
            sid: w for w, block in enumerate(self._blocks) for sid in block
        }
        # Tracing: validated here (the base saw tracer=None because it
        # has no routers to attach to); merged from the owning worker
        # at finalization.
        self._requested_tracer = tracer
        self._cycle_count = 0
        self._parent_recorder: Optional[_FaultRecorder] = None
        if tracer is not None:
            if trace_switch is None:
                trace_switch = next(iter(self._serial_index))
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
        # the attach port, decremented by this cycle's accepts and
        # corrected by the owning worker's report wherever a transmit
        # freed a slot — exactly the value serial ``input_space`` reads
        # pre-cycle.
        self._free: List[List[int]] = [
            [config.buffer_depth] * config.num_vcs
            for _ in range(self.topology.num_hosts)
        ]
        self._host_worker: List[int] = [
            self._owner[switch] for switch, _ in self._host_port
        ]
        # Cycles from a router's transmit to the arrival downstream
        # (what ``NetworkRouter._transmit`` adds; the same on every
        # link).  Below 2, a flit sent in cycle T can eject in T+1.
        router = config.router_config(num_ports=2)
        self._link_latency = (
            router.flit_cycles + router.pipeline_delay
            + router.channel_latency
        )
        self._reset_stashes()
        #: Cycle the workers were last sent and have not been heard
        #: back from (None: every report is filed).
        self._awaited: Optional[int] = None
        self._credit_cycle: Optional[int] = None
        self._worker_horizons: List[Optional[int]] = [0] * shards
        self._worker_counters: List[Dict[str, int]] = []
        payloads = [
            {
                "config": config,
                "topology": self.topology,
                "block": self._blocks[w],
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
        """No local routers: the workers build the partitioned network.

        The topology's own ``shard_blocks`` if it has one, contiguous
        blocks of ``switch_ids()`` otherwise.  Any split of the
        switches is byte-identical to serial, provided each worker
        steps its routers in serial order — so blocks are sorted here.
        """
        order = list(self.topology.switch_ids())
        self._serial_index: Dict[SwitchId, int] = {
            sid: idx for idx, sid in enumerate(order)
        }
        blocks_of = getattr(self.topology, "shard_blocks", None)
        blocks = (
            partition(order, self._shards) if blocks_of is None
            else blocks_of(self._shards)
        )
        dealt = [sid for block in blocks for sid in block]
        if (
            len(blocks) != self._shards or len(dealt) != len(order)
            or set(dealt) != set(order)
        ):
            raise ValueError(
                f"shard_blocks({self._shards}) of "
                f"{type(self.topology).__name__} must return "
                f"{self._shards} blocks holding every switch exactly once"
            )
        self._blocks = [
            sorted(block, key=self._serial_index.__getitem__)
            for block in blocks
        ]
        self.routers = {}

    def _reset_stashes(self) -> None:
        """Empty the per-worker outboxes (at construction and after
        every dispatch, which ships all of them)."""
        shards = self._shards
        self._accept_out: List[List[Tuple]] = [[] for _ in range(shards)]
        self._stash_flits: List[List[Tuple]] = [[] for _ in range(shards)]
        self._lead: List[List[Tuple]] = [[] for _ in range(shards)]
        self._trail: List[List[Tuple]] = [[] for _ in range(shards)]
        self._stash_resyncs: List[List[Tuple]] = [[] for _ in range(shards)]
        #: Earliest cycle a stashed event must have reached its worker.
        self._stash_due: Optional[int] = None

    def _count_cycle(self, cycle: int) -> None:
        self._cycle_count += 1

    # -- drive loop -----------------------------------------------------

    def _pre_cycle(self, now: int) -> None:
        """Serial host-side phases, then send the workers into ``now``.

        The reports of cycle ``now - 1`` are collected by the first
        phase that reads one — :meth:`_inject`, as a rule — so the
        fault advance, host ejections and packet generation before it
        overlap the workers' cycle.
        """
        self._check_workers()
        super()._pre_cycle(now)
        self._dispatch(now)

    def _deliver_arrivals(self, now: int) -> None:
        if self._link_latency < 2:
            self._collect()  # a flit sent last cycle may eject now
        super()._deliver_arrivals(now)

    def _inject(self, now: int) -> None:
        self._collect()  # injection reads the host-space mirror
        super()._inject(now)

    def _input_space(self, channel: int, vc: int) -> int:
        return self._free[channel][vc]

    def _hand_over(self, channel: int, flit: Flit, now: int) -> None:
        """Ship the accept to the owning worker (inside this cycle's
        command) instead of landing it on a local router."""
        self._free[channel][flit.vc] -= 1
        self._accept_out[self._host_worker[channel]].append(
            (channel, flit.to_wire())
        )

    def _dispatch(self, now: int) -> None:
        """Command every worker to run cycle ``now``, and return.

        Sends this cycle's host accepts plus everything stashed from
        earlier reports (cross-shard flits, leading/trailing credits,
        resyncs); :meth:`_collect` picks the reports up.
        """
        invariant(
            self._awaited is None,
            "dispatched a cycle before collecting the previous one",
            cycle=now, check="shard-exchange",
        )
        invariant(
            self._credit_cycle is None or self._credit_cycle == now,
            "stashed boundary credits missed their delivery cycle",
            cycle=now, check="shard-exchange",
        )
        self._credit_cycle = None
        pool = self._pool
        for w in range(self._shards):
            pool.send(w, (
                "cycle", now, self._accept_out[w], self._stash_flits[w],
                self._lead[w], self._trail[w], self._stash_resyncs[w],
            ))
        self._reset_stashes()
        self._awaited = now

    def _collect(self) -> None:
        """Gather the reports of the cycle in flight, if one is, and
        file each boundary event for the cycle it becomes visible.

        A cross-shard credit restores its target link's counter during
        the *sending* router's commit of the next cycle: if that router
        commits before the target in serial order the target sees the
        credit that same cycle (leading: applied before the worker runs
        it), otherwise one cycle later (trailing: applied after).
        """
        now = self._awaited
        if now is None:
            return
        self._check_workers()
        self._awaited = None
        serial_index = self._serial_index
        due: Optional[int] = None
        for w, report in enumerate(self._pool.gather()):
            self._worker_horizons[w] = report["horizon"]
            for host, spaces in report["hosts"].items():
                self._free[host] = spaces
            for arrival, key, wire, target in report["flits"]:
                if target[0] == "h":
                    enqueue_in_order(
                        self._inflight,
                        (arrival, key, Flit.from_wire(wire), target[1]),
                    )
                    continue
                self._stash_flits[self._owner[target[1]]].append(
                    (arrival, key, wire, target[1], target[2])
                )
                if due is None or arrival < due:
                    due = arrival
            for src_idx, sid, port, vc in report["credits"]:
                owner = self._owner[sid]
                if src_idx < serial_index[sid]:
                    self._lead[owner].append((sid, port, vc))
                else:
                    self._trail[owner].append((sid, port, vc))
                self._credit_cycle = now + 1
            for resync in report["resyncs"]:
                self._stash_resyncs[self._owner[resync[1]]].append(resync)
                if due is None or resync[0] < due:
                    due = resync[0]
        if self._credit_cycle is not None and (
            due is None or now + 1 < due
        ):
            due = now + 1
        self._stash_due = due

    def _next_work(self, now: int) -> Optional[int]:
        """Serial host-side horizon merged with the shard horizons.

        The parent schedules no component, so the scheduler asks this
        before every cycle.  When the host side has work due now, the
        cycle runs whatever the workers report, and their reports are
        left to the first phase that reads one (so they keep
        overlapping the host-side phases before it).
        """
        own = super()._next_work(now)
        if own is not None and own <= now:
            return own
        self._collect()  # the horizons are the workers' to report
        dues = [super()._next_work(now), *self._worker_horizons, self._stash_due]
        return min((due for due in dues if due is not None), default=None)

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
        """Collect final worker payloads and reap the pool.

        Merges the per-worker fault counters, replays the merged fault
        event log through the user's trace collector (whose contents
        are taken wholesale from the worker that traced the target
        switch), and stamps the network-wide cycle count.
        """
        self._check_workers()
        self._collect()
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

    def _check_workers(self) -> None:
        if self._pool.closed:
            raise RuntimeError(
                "sharded workers were already reaped; build a new "
                "ShardedNetworkSimulation for another run"
            )

    def _check_startable(self) -> None:
        self._check_workers()
        super()._check_startable()

    def save_checkpoint(self, path) -> None:
        """Refused before anything is written: the state lives in the
        worker processes."""
        raise ValueError(
            "a sharded simulation cannot checkpoint; checkpoint a "
            "serial run instead"
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
