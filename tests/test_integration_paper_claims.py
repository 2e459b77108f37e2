"""Integration tests: the paper's headline claims at reduced scale.

These are fast (radix-16) versions of the benchmark experiments, kept
in the test suite so a plain ``pytest tests/`` run already validates
that the reproduction tells the paper's story end to end.  The
full-scale regenerations live in ``benchmarks/``.
"""

import pytest

from repro.core.config import RouterConfig
from repro.harness.experiment import (
    SweepSettings,
    SwitchSimulation,
    saturation_throughput,
)
from repro.models.area import AreaModel
from repro.models.latency import optimal_radix
from repro.models.technology import TECH_2003, TECH_2010
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.routers.baseline import BaselineRouter
from repro.routers.buffered import BufferedCrossbarRouter
from repro.routers.distributed import DistributedRouter
from repro.routers.hierarchical import HierarchicalCrossbarRouter
from repro.traffic.patterns import WorstCaseHierarchical

CFG = RouterConfig(radix=16, num_vcs=4, subswitch_size=4,
                   local_group_size=4)
SAT = SweepSettings(warmup=600, measure=1000, drain=100)


@pytest.fixture(scope="module")
def saturations():
    """Saturation throughput of the four main organizations (shared
    across the tests in this module)."""
    return {
        "baseline": saturation_throughput(BaselineRouter, CFG, settings=SAT),
        "distributed": saturation_throughput(
            DistributedRouter, CFG, settings=SAT),
        "distributed-ova": saturation_throughput(
            DistributedRouter, CFG.with_(vc_allocator="ova"), settings=SAT),
        "buffered": saturation_throughput(
            BufferedCrossbarRouter, CFG, settings=SAT),
        "hierarchical": saturation_throughput(
            HierarchicalCrossbarRouter, CFG, settings=SAT),
    }


class TestHeadlineOrdering:
    """The paper's abstract in one test class."""

    def test_buffering_recovers_throughput(self, saturations):
        """Naive scaling loses throughput; crosspoint buffers recover it
        ("a 20-60% increase in throughput compared to a conventional
        crossbar")."""
        gain = saturations["buffered"] / saturations["distributed"]
        assert 1.2 < gain < 2.2

    def test_hierarchical_keeps_buffered_performance(self, saturations):
        assert saturations["hierarchical"] > saturations["buffered"] - 0.08

    def test_hierarchical_beats_distributed_by_20_to_60_percent(
        self, saturations
    ):
        gain = saturations["hierarchical"] / saturations["distributed"]
        assert 1.2 < gain < 2.2

    def test_ova_below_cva(self, saturations):
        assert saturations["distributed-ova"] < saturations["distributed"]

    def test_hierarchical_saves_40_percent_area(self):
        model = AreaModel()
        cfg = RouterConfig(radix=64, subswitch_size=8)
        saving = 1 - (
            model.total_area("hierarchical", cfg)
            / model.total_area("buffered", cfg)
        )
        assert 0.3 < saving < 0.5

    def test_optimal_radix_grows_with_technology(self):
        assert optimal_radix(TECH_2010) > optimal_radix(TECH_2003) > 16


class TestWorstCaseStory:
    def test_worst_case_ordering(self):
        """Figure 17(b) at radix 16: fully buffered > hierarchical >
        baseline on the adversarial pattern."""
        pattern = lambda c: WorstCaseHierarchical(16, 4)
        buffered = saturation_throughput(
            BufferedCrossbarRouter, CFG, settings=SAT,
            pattern_factory=pattern)
        hier = saturation_throughput(
            HierarchicalCrossbarRouter, CFG, settings=SAT,
            pattern_factory=pattern)
        base = saturation_throughput(
            DistributedRouter, CFG, settings=SAT, pattern_factory=pattern)
        assert buffered > hier > base


class TestLatencyStory:
    def test_zero_load_latency_ordering(self):
        """Single stage: the deeper high-radix pipeline costs latency
        (Figure 9's zero-load region)."""
        settings = SweepSettings(warmup=200, measure=600, drain=6000)
        lats = {}
        for name, cls in (
            ("baseline", BaselineRouter),
            ("distributed", DistributedRouter),
        ):
            sim = SwitchSimulation(cls(CFG), load=0.05)
            lats[name] = sim.run(settings).avg_latency
        assert lats["distributed"] > lats["baseline"]

    def test_network_reverses_the_ordering(self):
        """Figure 19: at the *network* level the high-radix router wins
        despite its deeper pipeline."""
        high = NetworkSimulation(
            NetworkConfig(radix=16, levels=2), load=0.1
        ).run(warmup=300, measure=400, drain=3000)
        low = NetworkSimulation(
            NetworkConfig(radix=8, levels=3), load=0.1
        ).run(warmup=300, measure=400, drain=3000)
        assert high.avg_latency < low.avg_latency
