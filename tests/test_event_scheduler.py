"""Fast-forward: jumping idle spans is invisible, and it is safe.

The scheduler's jump over spans in which every component is parked may
only change *wall-clock* behavior, never simulation behavior: every
statistic other than the ``stats.engine.*`` counters, every trace
byte, and every fault-recovery action must be identical to a run that
steps every cycle (``tests/exhaustive.py``'s ``never_jump``).  These
tests pin that contract deterministically for every switch
organization and the Clos network — including under tracing and fault
plans — and property-test it across random seeds and loads.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import RouterConfig
from repro.faults import FaultPlan
from repro.harness.experiment import SweepSettings, SwitchSimulation
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.routers.baseline import BaselineRouter
from repro.routers.buffered import BufferedCrossbarRouter
from repro.routers.distributed import DistributedRouter
from repro.routers.hierarchical import HierarchicalCrossbarRouter
from repro.routers.shared_buffer import SharedBufferCrossbarRouter
from repro.routers.voq import VoqRouter
from repro.trace import TraceCollector, chrome_trace_json

from tests.exhaustive import engine_free, never_jump, row

ROUTERS = {
    "baseline": BaselineRouter,
    "distributed": DistributedRouter,
    "buffered": BufferedCrossbarRouter,
    "shared-buffer": SharedBufferCrossbarRouter,
    "hierarchical": HierarchicalCrossbarRouter,
    "voq": VoqRouter,
}

SETTINGS = SweepSettings(warmup=150, measure=250, drain=3000)


def _config(seed: int = 7) -> RouterConfig:
    return RouterConfig(radix=8, num_vcs=2, subswitch_size=4,
                        local_group_size=4, seed=seed)


def _with_jump(sim, jump: bool):
    """``sim`` as built (it jumps idle spans), or under ``never_jump``."""
    return sim if jump else never_jump(sim)


def _switch_snapshot(arch: str, jump: bool = True, load: float = 0.2,
                     seed: int = 7, faults=None) -> dict:
    sim = _with_jump(SwitchSimulation(
        ROUTERS[arch](_config(seed)), load=load, packet_size=2,
        faults=faults,
    ), jump)
    result = sim.run(SETTINGS)
    return {**row(result), **engine_free(result.extra)}


def _network_snapshot(jump: bool = True, load: float = 0.2,
                      seed: int = 7, faults=None) -> dict:
    cfg = NetworkConfig(radix=4, levels=2, num_vcs=2, packet_size=2,
                        seed=seed)
    sim = _with_jump(NetworkSimulation(cfg, load, faults=faults), jump)
    result = sim.run(warmup=150, measure=250, drain=3000)
    return {**row(result), **engine_free(result.extra)}


class TestSwitchEquivalence:
    """Every organization: jumping == never jumping, byte for byte."""

    @pytest.mark.parametrize("arch", sorted(ROUTERS))
    def test_results_identical(self, arch):
        assert _switch_snapshot(arch, jump=False) == _switch_snapshot(arch)

    def test_low_load_actually_fast_forwards(self):
        sim = SwitchSimulation(
            HierarchicalCrossbarRouter(_config()), load=0.02,
        )
        sim.run(SETTINGS)
        assert sim._sched.cycles_skipped > 0
        assert sim._sched.ff_jumps > 0

    def test_never_jump_never_skips(self):
        """The oracle ``never_jump`` does what it claims: it steps
        every cycle."""
        sim = never_jump(SwitchSimulation(
            HierarchicalCrossbarRouter(_config()), load=0.02,
        ))
        result = sim.run(SETTINGS)
        assert sim._sched.cycles_skipped == 0
        assert result.extra["stats.engine.cycles_skipped"] == 0.0
        assert sim._sched.cycles_run == result.cycles

    def test_skip_counters_land_in_extras(self):
        sim = SwitchSimulation(
            HierarchicalCrossbarRouter(_config()), load=0.02,
        )
        result = sim.run(SETTINGS)
        assert result.extra["stats.engine.cycles_skipped"] == float(
            sim._sched.cycles_skipped
        )
        assert result.extra["stats.engine.ff_jumps"] == float(
            sim._sched.ff_jumps
        )

    def test_identical_under_fault_plan(self):
        plan = FaultPlan(corrupt_rate=0.02, credit_loss_rate=0.01)
        assert (_switch_snapshot("buffered", jump=False, faults=plan)
                == _switch_snapshot("buffered", faults=plan))


class TestNetworkEquivalence:
    def test_results_identical(self):
        assert _network_snapshot(jump=False) == _network_snapshot()

    def test_identical_under_fault_plan(self):
        plan = FaultPlan(corrupt_rate=0.02, credit_loss_rate=0.01)
        assert (_network_snapshot(jump=False, load=0.1, faults=plan)
                == _network_snapshot(load=0.1, faults=plan))

    def test_low_load_actually_fast_forwards(self):
        cfg = NetworkConfig(radix=4, levels=2, num_vcs=2)
        sim = NetworkSimulation(cfg, 0.02)
        sim.run(warmup=150, measure=250, drain=3000)
        assert sim._sched.cycles_skipped > 0


class TestTraceEquivalence:
    """Fast-forward must be invisible in the exported Chrome trace and
    to every ``cycle_end`` subscriber: a jump replays the skipped
    span's cycle hooks."""

    def _traced(self, jump, load=0.1, seed=9, sanitize=False):
        """Chrome bytes, the collector's ``cycle_end`` count and, when
        sanitized, the sanitizer's checks (one per ``cycle_end``); and
        the cycles the run jumped."""
        collector = TraceCollector()
        sim = _with_jump(SwitchSimulation(
            HierarchicalCrossbarRouter(_config(seed)), load=load,
            tracer=collector, sanitize=sanitize,
        ), jump)
        sim.run(SETTINGS)
        checks = sim.sanitizer.checks_run if sanitize else None
        observed = chrome_trace_json(collector), collector.cycles, checks
        return observed, sim._sched.cycles_skipped

    def test_trace_byte_identical(self):
        assert self._traced(False)[0] == self._traced(True)[0]

    def test_trace_byte_identical_at_low_load(self):
        # Low load maximizes skipped spans; the replayed cycle hooks
        # must keep the collector's cycle accounting identical.
        assert (self._traced(False, load=0.02)[0]
                == self._traced(True, load=0.02)[0])

    def test_sanitized_run_at_low_load(self):
        """The sanitizer audits at every ``cycle_end``, so a jump that
        replayed no hook event would run fewer checks."""
        expect, _ = self._traced(False, load=0.02, sanitize=True)
        assert expect[2] == expect[1] > 0
        observed, skipped = self._traced(True, load=0.02, sanitize=True)
        assert skipped > 0
        assert observed == expect


class TestPropertyEquivalence:
    """Randomized seeds/loads: the equivalence is not knife-edge."""

    @settings(max_examples=12, deadline=None)
    @given(
        arch=st.sampled_from(sorted(ROUTERS)),
        seed=st.integers(min_value=0, max_value=2**16),
        load=st.sampled_from([0.02, 0.1, 0.3, 0.6]),
    )
    def test_switch_stats_identical(self, arch, seed, load):
        assert (_switch_snapshot(arch, jump=False, load=load, seed=seed)
                == _switch_snapshot(arch, load=load, seed=seed))

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        load=st.sampled_from([0.02, 0.15, 0.4]),
    )
    def test_network_stats_identical(self, seed, load):
        assert (_network_snapshot(jump=False, load=load, seed=seed)
                == _network_snapshot(load=load, seed=seed))


class TestArrivalQueue:
    """Every executed cycle pops the arrival queue, and a jump lands on
    its head, so a jumping run and a never-jump run pop the same
    arrivals.  Each arrival costs its host stream one gap draw and one
    destination draw."""

    CFG = dict(radix=4, levels=2, num_vcs=2, seed=13)
    LOAD = 0.02

    def _packets(self, jump, stages):
        """Every generated packet as (cycle, host, dest), driven
        through ``run_until`` in the given stages."""
        sim = _with_jump(
            NetworkSimulation(NetworkConfig(**self.CFG), self.LOAD), jump)
        packets = []

        def logged(src):
            generate = src.generate

            def wrapper(now, *args):
                flits = generate(now, *args)
                packets.append((now, src.input_id, flits[0].dest))
                return flits
            return wrapper

        for src in sim.sources:
            src.generate = logged(src)
        for end in stages:
            sim.run_until(end)
        return packets, [s.getstate() for s in sim.arrivals.streams]

    def test_stage_edges_on_arrival_cycles(self):
        """A stage that ends just before, on, or just after an arrival
        cycle neither loses nor repeats it, jumping or not."""
        expect = self._packets(False, (2000,))
        hit = expect[0][4][0]
        assert 8 < hit < 1000 and len(expect[0]) > 20
        for stages in ((hit, 2000), (hit + 1, 2000), (hit - 1, hit, 2000),
                       (1, hit, hit + 1, 2 * hit, 2000)):
            for jump in (False, True):
                assert self._packets(jump, stages) == expect, (
                    jump, stages)

    @pytest.mark.parametrize("rate", [1e-4, 3e-4], ids=["1e-4", "3e-4"])
    def test_idle_rate_is_identical_and_fast_forwarded(self, rate):
        """At an idle rate (packets per host per cycle) jumping and
        never jumping produce the same result and extras, leave every
        host stream in the same state, and the jumping run skips most
        of it."""
        cfg = NetworkConfig(radix=8, levels=2, num_vcs=2, packet_size=2,
                            seed=5)

        load = rate * cfg.flit_cycles * cfg.packet_size

        def run(jump):
            sim = _with_jump(NetworkSimulation(cfg, load), jump)
            result = sim.run(warmup=2000, measure=40000, drain=3000)
            assert result.packets_measured > 40
            return sim, result

        stepped, expect = run(False)
        jumped, result = run(True)
        assert result.extra["stats.engine.cycles_skipped"] > 0.8 * result.cycles
        assert (replace(result, extra=engine_free(result.extra))
                == replace(expect, extra=engine_free(expect.extra)))
        assert ([s.getstate() for s in jumped.arrivals.streams]
                == [s.getstate() for s in stepped.arrivals.streams])
        assert jumped.arrivals.queued() == stepped.arrivals.queued()

    def test_draws_track_arrivals(self):
        """Two draws per arrival once built (its destination, then the
        next gap): what a run draws follows the packets it makes, not
        the cycles it spans."""
        cfg = NetworkConfig(radix=16, levels=2, num_vcs=2, packet_size=2,
                            seed=7)
        sim = NetworkSimulation(cfg, 1e-4)
        hosts = sim.topology.num_hosts
        drawn = [0]

        class Counted:
            def __init__(self, stream):
                self.stream = stream

            def random(self):
                drawn[0] += 1
                return self.stream.random()

            def randrange(self, n):
                drawn[0] += 1
                return self.stream.randrange(n)

        # The arrival queue draws the gaps and each host's source the
        # destinations, from the one stream they share.
        for src in sim.sources:
            src.stream = Counted(src.stream)
        sim.arrivals.streams = [src.stream for src in sim.sources]
        result = sim.run(warmup=1000, measure=62500, drain=5000)
        generated = sum(src.packets_generated for src in sim.sources)
        assert result.packets_measured > 40
        assert drawn[0] == 2 * generated
        assert result.extra["stats.engine.cycles_skipped"] > 0.8 * result.cycles
        assert generated < 0.01 * hosts * result.cycles


class TestWorkloadRuns:
    """The two sanitized workload runs CI once printed jumping and
    never jumping and diffed, at CI's sizes and the ``repro.cli workload``
    defaults (4 VCs, seed 1, gap 8): the decode DAG with credit loss on
    a radix-16 Clos, and an all-to-all over every host pair of a
    three-level radix-8 Clos (routes climb to all three levels)."""

    @staticmethod
    def _outcome(jump, config, workload, faults=None):
        sim = _with_jump(NetworkSimulation(config, workload=workload,
                                         faults=faults), jump)
        result = sim.run_workload(max_cycles=1_000_000)
        assert result.extra["undelivered"] == 0.0
        return repr(result.row()), result.cycles, engine_free(result.extra)

    def test_decode_with_credit_loss(self):
        from repro.workloads import transformer_decode

        def outcome(jump):
            return self._outcome(
                jump, NetworkConfig(radix=16, levels=2, num_vcs=4, seed=1),
                transformer_decode(32, layers=1, steps=1, size=4, gap=8),
                FaultPlan(credit_loss_rate=0.01),
            )

        expect = outcome(False)
        assert expect[2]["stats.faults.credit_lost"] > 0
        assert outcome(True) == expect

    def test_three_level_alltoall(self):
        from repro.workloads import all_to_all

        def outcome(jump):
            return self._outcome(
                jump, NetworkConfig(radix=8, levels=3, num_vcs=4, seed=1),
                all_to_all(64, size=2),
            )

        assert outcome(True) == outcome(False)
