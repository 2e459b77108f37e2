"""Differential harness: sharded Clos simulation vs. the serial one.

The sharded engine's whole contract is *byte-identity*: running a
folded-Clos simulation split across 1, 2, or 4 worker processes must
produce exactly the results of the serial :class:`NetworkSimulation` —
the :class:`RunResult` tuple, every ``stats.*`` extra (fault counters
included), the canonically-ordered fault action log, and the Chrome
trace export, under both scheduler modes, with a link-fault plan and a
collective workload in play.  These tests pin that contract; any
divergence is a sharding bug by definition, never an accepted delta.

Failure handling is covered too: a worker crash must surface promptly
in the parent as a :class:`ShardWorkerError` carrying the original
traceback (no hang, no silent partial results), and impossible shard
counts must be rejected at construction.
"""

import pytest

from repro.core.flit import reset_packet_ids
from repro.engine.shard import ShardWorkerError, partition
from repro.faults import FaultPlan, LinkFault
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.network.sharded import ShardedNetworkSimulation
from repro.trace import TraceCollector
from repro.trace.chrome import chrome_trace_json
from repro.workloads import all_reduce

CFG = dict(radix=8, levels=2, seed=5)


def _switches():
    config = NetworkConfig(**CFG)
    probe = NetworkSimulation(config, load=0.0)
    return list(probe.topology.switch_ids())


def _fault_plan(switches):
    return FaultPlan(
        corrupt_rate=0.02,
        credit_loss_rate=0.01,
        links=(
            LinkFault(cycle=60, switch=switches[1], port=2, until=200),
            LinkFault(cycle=90, switch=switches[-1], port=0, until=260),
        ),
    )


def _canon_faults(tracer):
    """Fault events in shard-independent order.

    Workers interleave per-shard event streams, so only the *set* per
    cycle is defined; sort by (cycle, direction, kind, where) exactly
    as the Chrome exporter does.
    """
    return sorted(
        tracer.fault_events, key=lambda e: (e[3], e[0], e[1], str(e[2]))
    )


def _run(shards, scheduler, workload=False, faults=True):
    """One full observation: result, fault log, chrome bytes, tracer."""
    reset_packet_ids()
    config = NetworkConfig(**CFG)
    switches = _switches()
    tracer = TraceCollector(capacity=100000)
    kw = dict(
        faults=_fault_plan(switches) if faults else None,
        scheduler=scheduler,
        tracer=tracer,
        trace_switch=switches[2],
        workload=all_reduce(16, size=2) if workload else None,
    )
    load = 0.0 if workload else 0.3
    if shards == 0:
        sim = NetworkSimulation(config, load=load, **kw)
        close = lambda: None  # noqa: E731
    else:
        sim = ShardedNetworkSimulation(config, load=load, shards=shards, **kw)
        close = sim.close
    try:
        if workload:
            result = sim.run_workload(max_cycles=20000)
        else:
            result = sim.run(warmup=80, measure=150, drain=400)
    finally:
        close()
    return result, _canon_faults(tracer), chrome_trace_json(tracer), tracer


class TestByteIdentity:
    @pytest.mark.parametrize("scheduler", ["cycle", "event"])
    @pytest.mark.parametrize("workload", [False, True])
    def test_shards_match_serial(self, scheduler, workload):
        ref, ref_faults, ref_chrome, ref_tr = _run(0, scheduler, workload)
        for shards in (1, 2, 4):
            got, got_faults, got_chrome, got_tr = _run(
                shards, scheduler, workload
            )
            assert got == ref
            assert got.extra == ref.extra
            assert got_faults == ref_faults
            assert got_tr.cycles == ref_tr.cycles
            assert got_chrome == ref_chrome

    def test_heavy_credit_loss_counters_match(self):
        """The cross-shard credit drop/resync path, non-vacuously: the
        rates are high enough that remote credits are lost and resynced
        across the pipe protocol, and every fault counter must still
        land exactly where the serial injector puts it."""
        plan = FaultPlan(corrupt_rate=0.03, credit_loss_rate=0.08)
        ref = None
        for shards in (0, 2, 4):
            reset_packet_ids()
            config = NetworkConfig(radix=8, levels=2, seed=11)
            if shards == 0:
                sim = NetworkSimulation(
                    config, load=0.5, faults=plan, scheduler="event"
                )
                result = sim.run(warmup=100, measure=300, drain=800)
            else:
                sim = ShardedNetworkSimulation(
                    config, load=0.5, shards=shards, faults=plan,
                    scheduler="event",
                )
                try:
                    result = sim.run(warmup=100, measure=300, drain=800)
                finally:
                    sim.close()
            if ref is None:
                ref = (result, result.extra)
                # The scenario must actually exercise the path.
                assert result.extra["stats.faults.credit_lost"] > 0
                assert result.extra["stats.faults.credit_resyncs"] > 0
            else:
                assert (result, result.extra) == ref


class TestFailureModes:
    def test_worker_crash_propagates_traceback(self):
        """A dying worker must fail the run (not hang at the phase
        barrier) and carry the worker's own traceback to the caller."""
        config = NetworkConfig(**CFG)
        sim = ShardedNetworkSimulation(
            config, load=0.3, shards=2, _crash_at=(1, 50)
        )
        try:
            with pytest.raises(ShardWorkerError) as err:
                sim.run(warmup=80, measure=150, drain=400)
        finally:
            sim.close()
        assert "injected shard crash at cycle 50" in str(err.value)
        assert "shard worker 1 failed" in str(err.value)

    def test_more_shards_than_switches_rejected(self):
        config = NetworkConfig(**CFG)  # radix 8, 2 levels -> 12 switches
        with pytest.raises(ValueError, match="shards must be <="):
            ShardedNetworkSimulation(config, load=0.3, shards=64)

    def test_partition_is_contiguous_and_balanced(self):
        blocks = partition(list(range(10)), 4)
        assert [len(b) for b in blocks] == [2, 3, 2, 3]
        assert [x for block in blocks for x in block] == list(range(10))
        with pytest.raises(ValueError):
            partition([1, 2], 3)

    def test_sharded_simulation_refuses_snapshot(self):
        """Checkpointing goes through the serial front-end; the sharded
        engine opts out of the protocol explicitly (R010 raise-only)."""
        config = NetworkConfig(**CFG)
        sim = ShardedNetworkSimulation(config, load=0.3, shards=2)
        try:
            with pytest.raises(ValueError):
                sim.snapshot()
            with pytest.raises(ValueError):
                sim.restore({})
        finally:
            sim.close()

    def test_workers_not_reusable_after_finish(self):
        config = NetworkConfig(**CFG)
        sim = ShardedNetworkSimulation(config, load=0.3, shards=2)
        try:
            sim.run(warmup=40, measure=60, drain=300)
            with pytest.raises(RuntimeError, match="already reaped"):
                sim.start_run(warmup=40, measure=60, drain=300)
        finally:
            sim.close()
