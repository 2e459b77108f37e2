"""Fast-forward: jumping idle spans is invisible, and it is safe.

The scheduler's jump over spans in which every component is parked may
only change *wall-clock* behavior, never simulation behavior: every
statistic other than the ``stats.engine.*`` counters, every trace
byte, and every fault-recovery action must be identical to a run that
steps every cycle (``tests/exhaustive.py``'s ``never_jump``).  The
``never_jump`` lane of ``tests/test_differential.py`` draws that
contract over every stack; the runs here are its pinned points (every
switch organization, faulted, traced and low-load runs, the Clos, and
two sanitized workloads too large for a small draw), plus the counter
checks that the jump really happens and that the arrival queue stays
exact across it.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import pytest

from repro.core.config import RouterConfig
from repro.faults import FaultPlan
from repro.harness.experiment import SweepSettings, SwitchSimulation
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.routers.hierarchical import HierarchicalCrossbarRouter
from repro.trace import TraceCollector, chrome_trace_json
from repro.workloads import all_to_all, transformer_decode

from tests.differential import ROUTERS, Run, compare
from tests.exhaustive import engine_free, never_jump

SETTINGS = SweepSettings(warmup=150, measure=250, drain=3000)
WINDOW = (150, 250, 3000)
FAULTS = FaultPlan(corrupt_rate=0.02, credit_loss_rate=0.01)


def _config(seed: int = 7) -> RouterConfig:
    return RouterConfig(radix=8, num_vcs=2, subswitch_size=4,
                        local_group_size=4, seed=seed)


def _with_jump(sim, jump: bool):
    """``sim`` as built (it jumps idle spans), or under ``never_jump``."""
    return sim if jump else never_jump(sim)


def _switch(arch, **fields):
    return Run(arch, window=WINDOW, **{"load": 0.2, **fields})


def _clos(**fields):
    return Run("clos", radix=4, window=WINDOW, **{"load": 0.2, **fields})


class TestSwitchEquivalence:
    """Every organization: jumping == never jumping, byte for byte."""

    @pytest.mark.parametrize("arch", sorted(ROUTERS))
    def test_results_identical(self, arch):
        compare("never_jump", _switch(arch))

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
        compare("never_jump", _switch("buffered", faults=FAULTS))


class TestNetworkEquivalence:
    def test_results_identical(self):
        compare("never_jump", _clos())

    def test_identical_under_fault_plan(self):
        compare("never_jump", _clos(load=0.1, faults=FAULTS))

    def test_low_load_actually_fast_forwards(self):
        cfg = NetworkConfig(radix=4, levels=2, num_vcs=2)
        sim = NetworkSimulation(cfg, 0.02)
        sim.run(warmup=150, measure=250, drain=3000)
        assert sim._sched.cycles_skipped > 0


class TestTraceEquivalence:
    """Fast-forward must be invisible in the exported Chrome trace and
    to every ``cycle_end`` subscriber: a jump replays the skipped
    span's cycle hooks."""

    def test_trace_byte_identical(self):
        compare("never_jump", _switch("hierarchical", load=0.1, seed=9,
                                      traced=True))

    def test_trace_byte_identical_at_low_load(self):
        # Low load maximizes skipped spans; the replayed cycle hooks
        # must keep the collector's cycle accounting identical.
        sim, _, _ = compare("never_jump", _switch(
            "hierarchical", load=0.02, seed=9, traced=True))
        assert sim._sched.cycles_skipped > 0

    def test_sanitized_run_at_low_load(self):
        """The sanitizer audits at every ``cycle_end``, so a jump that
        replayed no hook event would run fewer checks."""
        def traced(jump):
            collector = TraceCollector()
            sim = _with_jump(SwitchSimulation(
                HierarchicalCrossbarRouter(_config(9)), load=0.02,
                tracer=collector, sanitize=True,
            ), jump)
            sim.run(SETTINGS)
            observed = (chrome_trace_json(collector), collector.cycles,
                        sim.sanitizer.checks_run)
            return observed, sim._sched.cycles_skipped

        expect, _ = traced(False)
        assert expect[2] == expect[1] > 0
        observed, skipped = traced(True)
        assert skipped > 0
        assert observed == expect


class TestPropertyEquivalence:
    """Seeds and loads away from the pinned points above; the
    ``never_jump`` lane draws many more."""

    def test_switch_stats_identical(self):
        for arch, seed, load in (("voq", 4021, 0.02), ("distributed", 77, 0.6)):
            compare("never_jump", _switch(arch, seed=seed, load=load))

    def test_network_stats_identical(self):
        compare("never_jump", _clos(seed=913, load=0.02))
        compare("never_jump", _clos(seed=52, load=0.4))


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
    def _compare(**fields):
        _, _, seen = compare("never_jump", Run(
            "clos", num_vcs=4, packet_size=1, seed=1, load=0.0,
            max_cycles=1_000_000, **fields))
        assert seen["extra"]["undelivered"] == 0.0
        return seen

    def test_decode_with_credit_loss(self):
        seen = self._compare(
            radix=16, faults=FaultPlan(credit_loss_rate=0.01),
            workload=partial(transformer_decode, 32, layers=1, steps=1,
                             size=4, gap=8))
        assert seen["extra"]["stats.faults.credit_lost"] > 0

    def test_three_level_alltoall(self):
        self._compare(radix=8, levels=3, workload=partial(all_to_all, 64,
                                                          size=2))
