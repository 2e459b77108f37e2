"""Behavioral tests for the hierarchical crossbar (Section 6)."""

import hashlib
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.sanitizer import SimSanitizer
from repro.core.config import RouterConfig
from repro.core.flit import make_packet
from repro.faults import FaultPlan, StuckFault
from repro.harness.experiment import SwitchSimulation, SweepSettings
from repro.routers.hierarchical import HierarchicalCrossbarRouter
from tests.exhaustive import CLOCKS, clocked, engine_free
from repro.trace import TraceCollector, chrome_trace_json
from repro.traffic.patterns import (
    Hotspot,
    UniformRandom,
    WorstCaseHierarchical,
)

CFG = RouterConfig(radix=8, num_vcs=2, subswitch_size=4, local_group_size=4)
FAST = SweepSettings(warmup=400, measure=800, drain=50)


def _drain(router, max_cycles=1500):
    out = []
    for _ in range(max_cycles):
        router.step()
        out.extend(router.drain_ejected())
        if router.idle():
            break
    return out


class TestStructure:
    def test_subswitch_grid_shape(self):
        router = HierarchicalCrossbarRouter(CFG)
        assert router.num_sub == 2
        assert len(router.sub) == 2
        assert len(router.sub[0]) == 2

    def test_p_equals_k_single_subswitch(self):
        cfg = CFG.with_(subswitch_size=8)
        router = HierarchicalCrossbarRouter(cfg)
        assert router.num_sub == 1

    def test_p_of_one(self):
        """p=1 degenerates to a fully buffered crossbar structure."""
        cfg = CFG.with_(subswitch_size=1)
        router = HierarchicalCrossbarRouter(cfg)
        assert router.num_sub == 8
        (flit,) = make_packet(dest=5, size=1, src=2)
        router.accept(2, flit)
        out = _drain(router)
        assert len(out) == 1


class TestRoutingThroughSubswitches:
    @pytest.mark.parametrize("src,dest", [(0, 0), (0, 7), (7, 0), (3, 5)])
    def test_any_input_reaches_any_output(self, src, dest):
        router = HierarchicalCrossbarRouter(CFG)
        (flit,) = make_packet(dest=dest, size=1, src=src)
        router.accept(src, flit)
        out = _drain(router)
        assert len(out) == 1
        assert out[0][0].dest == dest

    def test_multi_flit_packet_through_subswitch(self):
        router = HierarchicalCrossbarRouter(CFG)
        flits = make_packet(dest=6, size=5, src=1)
        for f in flits:
            router.accept(1, f)
        out = _drain(router)
        assert [f.flit_index for f, _ in out] == [0, 1, 2, 3, 4]

    def test_deeper_pipeline_than_flat_buffered(self):
        """Two stages of buffering add latency relative to the fully
        buffered crossbar's single crosspoint hop."""
        from repro.routers.buffered import BufferedCrossbarRouter

        def zero_load(cls):
            r = cls(CFG)
            (flit,) = make_packet(dest=7, size=1, src=0)
            r.accept(0, flit)
            (_, cycle), = _drain(r)
            return cycle

        assert zero_load(HierarchicalCrossbarRouter) > zero_load(
            BufferedCrossbarRouter
        )


class TestLocalVcAllocation:
    def test_writer_lock_prevents_interleave(self):
        """Two packets from different subswitch inputs bound for the
        same output VC must not interleave in the output buffer."""
        cfg = CFG.with_(num_vcs=1)
        router = HierarchicalCrossbarRouter(cfg)
        pa = make_packet(dest=2, size=4, src=0)
        pb = make_packet(dest=2, size=4, src=1)
        for f in pa:
            router.accept(0, f)
        for f in pb:
            router.accept(1, f)
        out = _drain(router, max_cycles=3000)
        assert len(out) == 8
        ids = [f.packet_id for f, _ in out]
        # One packet fully precedes the other.
        switch_points = sum(
            1 for a, b in zip(ids, ids[1:]) if a != b
        )
        assert switch_points == 1

    def test_local_vc_failures_counted(self):
        cfg = CFG.with_(num_vcs=1)
        router = HierarchicalCrossbarRouter(cfg)
        for src in (0, 1):
            for f in make_packet(dest=2, size=6, src=src):
                router.accept(src, f)
        _drain(router, max_cycles=3000)
        assert router.stats.spec_vc_failures > 0


class TestPerformance:
    def test_near_buffered_on_uniform(self):
        """Figure 17(a): on uniform random traffic the hierarchical
        crossbar performs about as well as the fully buffered one."""
        from repro.routers.buffered import BufferedCrossbarRouter

        cfg = RouterConfig(radix=16, subswitch_size=4, local_group_size=4)
        hier = SwitchSimulation(
            HierarchicalCrossbarRouter(cfg), load=1.0
        ).run(FAST)
        full = SwitchSimulation(
            BufferedCrossbarRouter(cfg), load=1.0
        ).run(FAST)
        assert hier.throughput > full.throughput - 0.07

    def test_worst_case_hurts_hierarchical(self):
        """Figure 17(b): the worst-case pattern concentrates load on
        the diagonal subswitches and costs throughput."""
        cfg = RouterConfig(radix=16, subswitch_size=4, local_group_size=4)
        uniform = SwitchSimulation(
            HierarchicalCrossbarRouter(cfg), load=1.0,
            pattern=UniformRandom(16),
        ).run(FAST)
        worst = SwitchSimulation(
            HierarchicalCrossbarRouter(cfg), load=1.0,
            pattern=WorstCaseHierarchical(16, 4),
        ).run(FAST)
        assert worst.throughput < uniform.throughput - 0.1

    def test_smaller_subswitch_better_on_worst_case(self):
        """Figure 17(b): 'the benefit of having smaller subswitch size
        is apparent'."""
        cfg = RouterConfig(radix=16, subswitch_size=8, local_group_size=4)
        big = SwitchSimulation(
            HierarchicalCrossbarRouter(cfg), load=1.0,
            pattern=WorstCaseHierarchical(16, 8),
        ).run(FAST)
        small_cfg = cfg.with_(subswitch_size=2)
        small = SwitchSimulation(
            HierarchicalCrossbarRouter(small_cfg), load=1.0,
            pattern=WorstCaseHierarchical(16, 2),
        ).run(FAST)
        assert small.throughput > big.throughput

    def test_beats_unbuffered_baseline_on_worst_case(self):
        """Figure 17(b): hierarchical still outperforms the baseline."""
        from repro.routers.distributed import DistributedRouter

        cfg = RouterConfig(radix=16, subswitch_size=4, local_group_size=4)
        pattern = WorstCaseHierarchical(16, 4)
        hier = SwitchSimulation(
            HierarchicalCrossbarRouter(cfg), load=1.0, pattern=pattern
        ).run(FAST)
        base = SwitchSimulation(
            DistributedRouter(cfg), load=1.0, pattern=pattern
        ).run(FAST)
        assert hier.throughput > base.throughput


class TestCredits:
    def test_subswitch_input_credits_restored_after_drain(self):
        cfg = CFG
        router = HierarchicalCrossbarRouter(cfg)
        for src in range(8):
            for f in make_packet(dest=(src + 3) % 8, size=4, src=src):
                router.accept(src, f)
        _drain(router, max_cycles=3000)
        assert router.idle()
        s = cfg.num_subswitches_per_side
        for i in range(cfg.radix):
            for c in range(s):
                for vc in range(cfg.num_vcs):
                    counter = router._in_credits[i][c][vc]
                    assert counter.free == counter.capacity


def _assert_indices_sum_to_occupancy(router):
    """``_Subswitch.occupancy()`` walks the queues, independently of the
    indices the hot path trusts; the two must agree.  (The per-lane
    audit lives in ``SimSanitizer``; tests run it via ``sanitize``.)"""
    for row in router.sub:
        for sub in row:
            assert sub.occupancy() == (
                sub.in_total + sum(sub.out_count) + len(sub.crossing)
            )


class TestResidentCounter:
    def test_resident_tracks_buffer_occupancy(self):
        """The hot path trusts the occupancy indices instead of walking
        the buffers, so after every cycle each one must equal the
        walked queue lengths (the sanitizer's per-cycle audit)."""
        cfg = RouterConfig(radix=16, num_vcs=2, subswitch_size=4,
                           local_group_size=4)
        for pattern in (UniformRandom(16), WorstCaseHierarchical(16, 4)):
            sim = SwitchSimulation(
                HierarchicalCrossbarRouter(cfg), load=0.7, packet_size=3,
                pattern=pattern, sanitize=True,
            )
            for _ in range(300):
                sim.step()
                _assert_indices_sum_to_occupancy(sim.router)
            assert sim.sanitizer.checks_run == 300

    def test_resident_zero_after_drain(self):
        router = HierarchicalCrossbarRouter(CFG)
        sanitizer = SimSanitizer(router)
        for src in range(8):
            for f in make_packet(dest=(src + 3) % 8, size=2, src=src):
                router.accept(src, f)
        _drain(router, max_cycles=2000)
        sanitizer.assert_drained()
        assert router._port_flits == [0] * 8
        assert router._crossing == set()
        for row in router.sub:
            for sub in row:
                assert sub.in_total == 0
                assert sub.in_count == [0] * 4
                assert sub.out_count == [0] * 4


# ----------------------------------------------------------------------
# Occupancy-indexed hot path: generative identity + parent-commit pin
# ----------------------------------------------------------------------

PROPERTY_RUN = SweepSettings(warmup=40, measure=80, drain=400)


@st.composite
def _scenarios(draw):
    radix, p = draw(st.sampled_from(
        [(4, 2), (8, 1), (8, 2), (8, 4), (8, 8), (12, 3), (16, 4), (16, 8)]
    ))
    pattern = draw(st.sampled_from(["uniform", "worst-case", "hotspot"]))
    stuck = []
    if draw(st.booleans()):  # a wedged input read port
        start = draw(st.integers(0, 150))
        stuck.append(StuckFault(
            cycle=start, where=(draw(st.integers(0, radix - 1)),),
            kind="input", until=start + draw(st.integers(1, 120)),
        ))
    if draw(st.booleans()):  # a subswitch input buffer that stops accepting
        start = draw(st.integers(0, 150))
        stuck.append(StuckFault(
            cycle=start,
            where=(draw(st.integers(0, radix - 1)),
                   draw(st.integers(0, radix // p - 1))),
            until=start + draw(st.integers(1, 120)),
        ))
    return dict(
        config=RouterConfig(
            radix=radix, subswitch_size=p, local_group_size=p,
            num_vcs=draw(st.sampled_from([1, 2, 4])),
            flit_cycles=draw(st.sampled_from([1, 2, 4])),
            seed=draw(st.integers(0, 2**16)),
        ),
        packet_size=draw(st.integers(1, 4)),
        load=draw(st.sampled_from([0.1, 0.5, 0.9, 1.0])),
        pattern={
            "uniform": UniformRandom(radix),
            "worst-case": WorstCaseHierarchical(radix, p),
            "hotspot": Hotspot(radix, num_hotspots=1, hot_fraction=0.6),
        }[pattern],
        faults=FaultPlan(stuck=tuple(stuck)) if stuck else None,
        restore_at=draw(st.integers(1, 300)),
    )


def _build(scenario, clock, sanitize):
    return clocked(SwitchSimulation(
        HierarchicalCrossbarRouter(scenario["config"]),
        load=scenario["load"], packet_size=scenario["packet_size"],
        pattern=scenario["pattern"], faults=scenario["faults"],
        sanitize=sanitize,
    ), clock)


def _comparable(result):
    """Everything but the two extras that legitimately differ between
    a jumping and a never-jump run."""
    return (repr(result.row()), result.cycles, result.saturated,
            engine_free(result.extra))


class TestOccupancyIndexedHotPath:
    @settings(max_examples=10, deadline=None)
    @given(scenario=_scenarios())
    def test_sanitized_run_survives_restore_under_both_schedulers(
        self, scenario
    ):
        """A sanitized run (every index audited every cycle) and a twin
        that is pickled mid-run and loaded back agree exactly, jumping
        idle spans and stepping every cycle."""
        outcomes = []
        for clock in CLOCKS:
            checked = _build(scenario, clock, sanitize=True)
            expect = checked.run(PROPERTY_RUN)
            assert checked.sanitizer.checks_run > 0

            first = _build(scenario, clock, sanitize=False)
            first.start_run(PROPERTY_RUN)
            done = first.advance_run(stop_at=scenario["restore_at"])
            resumed = pickle.loads(pickle.dumps(first))
            _assert_indices_sum_to_occupancy(resumed.router)
            resumed.hooks.on_cycle_end(
                lambda cycle: _assert_indices_sum_to_occupancy(
                    resumed.router
                )
            )
            if not done:
                assert resumed.advance_run()
            got = resumed.finish_run()
            assert got == expect
            assert got.extra == expect.extra
            outcomes.append(_comparable(got))
        assert outcomes[0] == outcomes[1]

    def test_radix64_high_load_matches_parent_commit(self):
        """Radix 64, p=8, load 0.9, 1000 cycles: result row, every
        extra and the Chrome-trace bytes, pinned by a digest first
        computed at the commit *before* the occupancy indices replaced
        the buffer scans — the skip rule must not move a single byte —
        and re-pinned once when arrivals became geometric gaps."""
        tracer = TraceCollector()
        sim = SwitchSimulation(
            HierarchicalCrossbarRouter(
                RouterConfig(radix=64, subswitch_size=8, seed=7)
            ),
            load=0.9, tracer=tracer,
        )
        result = sim.run(SweepSettings(
            warmup=250, measure=600, drain=150, min_drain_fraction=0.99,
        ))
        assert result.cycles == 1000
        row = {name: getattr(result, name) for name in (
            "offered_load", "avg_latency", "p99_latency", "max_latency",
            "throughput", "packets_measured", "cycles", "saturated",
        )}
        digest = hashlib.sha256()
        digest.update(repr(sorted(row.items())).encode())
        digest.update(repr(sorted(result.extra.items())).encode())
        digest.update(chrome_trace_json(tracer).encode())
        assert digest.hexdigest() == (
            "17f8b819245b9682a24896cfcd2cbfdd"
            "bdfef0b98f4fb5b13fd1507aebbc1e8f"
        )
