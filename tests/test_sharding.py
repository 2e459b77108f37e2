"""Differential harness: sharded Clos simulation vs. the serial one.

The sharded engine's whole contract is *byte-identity*: running a
folded-Clos simulation split across 1, 2, or 4 worker processes must
produce exactly the results of the serial :class:`NetworkSimulation` —
the :class:`RunResult` tuple, every ``stats.*`` extra (fault counters
included), the canonically-ordered fault action log, and the Chrome
trace export, with a link-fault plan and a collective workload in
play.  These tests pin that contract; any
divergence is a sharding bug by definition, never an accepted delta.

The contract holds for *any* assignment of switches to workers, not
just the one a topology proposes: the interleaved-blocks tests pin
that, and the partition tests pin what :class:`FoldedClos` proposes.

Failure handling is covered too: a worker crash must surface promptly
in the parent as a :class:`ShardWorkerError` carrying the original
traceback (no hang, no silent partial results), and impossible shard
counts must be rejected at construction.
"""

import pytest

from repro.engine.shard import ShardWorkerError, partition
from repro.faults import FaultPlan, LinkFault
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.network.sharded import ShardedNetworkSimulation
from repro.network.topology import FoldedClos
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


class InterleavedClos(FoldedClos):
    """A Clos dealt to the workers round-robin: no two neighbours in
    serial order share a worker, and nearly every link is cut."""

    def shard_blocks(self, shards):
        ids = self.switch_ids()
        return [ids[w::shards] for w in range(shards)]


def _run(shards, workload=False, faults=True, topology=None, **cfg):
    """One full observation: result, fault log, chrome bytes, tracer."""
    config = NetworkConfig(**{**CFG, **cfg})
    switches = _switches()
    tracer = TraceCollector(capacity=100000)
    kw = dict(
        faults=_fault_plan(switches) if faults else None,
        tracer=tracer,
        trace_switch=switches[2],
        workload=all_reduce(16, size=2) if workload else None,
        topology=topology,
    )
    load = 0.0 if workload else 0.3
    if shards == 0:
        sim = NetworkSimulation(config, load=load, **kw)
        close = lambda: None  # noqa: E731
    else:
        sim = ShardedNetworkSimulation(
            config, load=load, shards=shards, **kw)
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
    @pytest.mark.parametrize("workload", [False, True])
    def test_shards_match_serial(self, workload):
        ref, ref_faults, ref_chrome, ref_tr = _run(0, workload)
        for shards in (1, 2, 4):
            got, got_faults, got_chrome, got_tr = _run(shards, workload)
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
            config = NetworkConfig(radix=8, levels=2, seed=11)
            if shards == 0:
                sim = NetworkSimulation(config, load=0.5, faults=plan)
                result = sim.run(warmup=100, measure=300, drain=800)
            else:
                sim = ShardedNetworkSimulation(
                    config, load=0.5, shards=shards, faults=plan,
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


def _assert_same(got, ref):
    for observed, expected in zip(got[:3], ref[:3]):
        assert observed == expected
    assert got[0].extra == ref[0].extra
    assert got[3].cycles == ref[3].cycles


class TestAnyPartition:
    """Nothing in the protocol may depend on how switches are dealt."""

    def test_interleaved_blocks_match_serial(self):
        ref = _run(0)
        for shards in (2, 3):
            topology = InterleavedClos(CFG["radix"], CFG["levels"])
            _assert_same(_run(shards, topology=topology), ref)

    @pytest.mark.parametrize("cfg", [
        # Link latency 1: a flit sent in cycle T ejects in T+1, so the
        # parent may not deliver before it has collected.
        dict(flit_cycles=1, pipeline_delay=0, channel_latency=0),
        # Head, body and tail flits all cross the wire.
        dict(packet_size=3),
    ], ids=["latency1", "packet3"])
    def test_edge_configs_match_serial(self, cfg):
        _assert_same(_run(2, **cfg), _run(0, **cfg))

    def test_blocks_must_cover_every_switch_once(self):
        class Lossy(FoldedClos):
            def shard_blocks(self, shards):
                return [self.switch_ids()[:3], self.switch_ids()[4:]]

        with pytest.raises(ValueError, match="every switch exactly once"):
            ShardedNetworkSimulation(
                NetworkConfig(**CFG), shards=2, topology=Lossy(8, 2)
            )

    def test_pause_and_resume_matches_uninterrupted(self):
        """A pause leaves a dispatched cycle uncollected; resuming must
        pick it up where an uninterrupted run would have."""
        config = NetworkConfig(**CFG)
        windows = dict(warmup=80, measure=150, drain=400)
        ref = NetworkSimulation(config, load=0.3).run(**windows)
        sim = ShardedNetworkSimulation(config, load=0.3, shards=2)
        try:
            sim.start_run(**windows)
            assert not sim.advance_run(stop_at=100)  # mid warm-up
            assert sim.cycle == 100
            assert not sim.advance_run(stop_at=200)  # mid measure
            assert sim.advance_run()
            got = sim.finish_run()
        finally:
            sim.close()
        assert got == ref
        assert got.extra == ref.extra


def _cut_fraction(topology, blocks):
    owner = {sid: w for w, block in enumerate(blocks) for sid in block}
    links = cut = 0
    for sid in topology.switch_ids():
        for port in topology.wired_ports(sid):
            peer = topology.neighbor(sid, port).switch
            if peer is not None:
                links += 1
                cut += owner[peer] != owner[sid]
    return cut / links


class TestClosBlocks:
    @pytest.mark.parametrize("radix,levels,shards", [
        (16, 2, 2), (16, 2, 3), (8, 3, 4), (8, 3, 5), (8, 2, 4),
    ])
    def test_every_level_is_split_evenly(self, radix, levels, shards):
        topology = FoldedClos(radix, levels)
        blocks = topology.shard_blocks(shards)
        assert len(blocks) == shards
        assert sorted(sid for block in blocks for sid in block) == sorted(
            topology.switch_ids()
        )
        for level in range(levels):
            counts = [
                sum(sid[0] == level for sid in block) for block in blocks
            ]
            assert max(counts) - min(counts) <= 1

    def test_two_shards_cut_half_the_links_not_all(self):
        topology = FoldedClos(16, 2)
        ids = topology.switch_ids()
        assert _cut_fraction(topology, partition(ids, 2)) == 1.0
        assert _cut_fraction(topology, topology.shard_blocks(2)) <= 0.5

    def test_falls_back_to_contiguous_past_a_levels_width(self):
        topology = FoldedClos(8, 2)  # 4 switches per level
        ids = topology.switch_ids()
        assert topology.shard_blocks(5) == partition(ids, 5)
        with pytest.raises(ValueError, match="shards must be <="):
            topology.shard_blocks(len(ids) + 1)
        with pytest.raises(ValueError, match="shards must be >= 1"):
            topology.shard_blocks(0)


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

    def test_sharded_simulation_refuses_snapshot(self, tmp_path):
        """Checkpointing goes through the serial simulation: a sharded
        one's state lives in its workers, so its save is refused by
        name before anything is written."""
        config = NetworkConfig(**CFG)
        sim = ShardedNetworkSimulation(config, load=0.3, shards=2)
        try:
            with pytest.raises(ValueError, match="sharded simulation "
                                                 "cannot checkpoint"):
                sim.save_checkpoint(tmp_path / "sharded.ckpt")
            assert list(tmp_path.iterdir()) == []
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

    def test_workers_not_reusable_after_close(self):
        config = NetworkConfig(**CFG)
        sim = ShardedNetworkSimulation(config, load=0.3, shards=2)
        sim.close()
        with pytest.raises(RuntimeError, match="already reaped"):
            sim.start_run(warmup=40, measure=60, drain=300)

    @pytest.mark.parametrize("in_flight", [False, True])
    def test_driving_after_close_is_a_typed_error(self, in_flight):
        """``advance_run``, ``step`` and ``run_until`` on reaped workers
        raise the same ``RuntimeError`` ``start_run`` does, without
        running a cycle, instead of dying in ``conn.send``/``recv``
        with ``OSError: handle is closed`` — whether or not a cycle was
        dispatched and never collected."""
        config = NetworkConfig(**CFG)
        sim = ShardedNetworkSimulation(config, load=0.3, shards=2)
        sim.start_run(warmup=80, measure=150, drain=400)
        if in_flight:
            assert not sim.advance_run(stop_at=60)
        sim.close()
        cycle = sim.cycle
        for drive in (
            sim.advance_run, sim.step, lambda: sim.run_until(cycle + 5),
        ):
            with pytest.raises(RuntimeError, match="already reaped"):
                drive()
        assert sim.cycle == cycle

    def test_close_with_a_reply_in_flight_is_clean(self):
        """A paused run has dispatched a cycle it never collected;
        closing must neither wait for that reply nor trip over it."""
        config = NetworkConfig(**CFG)
        sim = ShardedNetworkSimulation(config, load=0.3, shards=2)
        sim.start_run(warmup=80, measure=150, drain=400)
        assert not sim.advance_run(stop_at=60)
        procs = list(sim._pool._procs)
        sim.close()
        assert [proc.is_alive() for proc in procs] == [False, False]
        assert [proc.exitcode for proc in procs] == [0, 0]
