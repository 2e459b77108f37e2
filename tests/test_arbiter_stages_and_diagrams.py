"""Tests for the multi-stage arbiter and the pipeline diagrams."""

import pytest
from hypothesis import given, strategies as st

from repro.core.arbiter import HierarchicalArbiter, MultiStageArbiter
from repro.core.config import RouterConfig
from repro.core.pipeline_diagram import (
    baseline_pipeline,
    compare,
    cva_pipeline,
    head_flit_latency,
    ova_pipeline,
    pipeline_for,
    render,
)
from repro.routers.baseline import BaselineRouter
from repro.routers.distributed import DistributedRouter

CFG = RouterConfig(radix=8, num_vcs=2, subswitch_size=4, local_group_size=4)


class TestMultiStageArbiter:
    def test_two_stage_matches_hierarchical(self):
        """With one group size, the tree degenerates to Figure 6's
        two-stage arbiter and makes identical decisions."""
        multi = MultiStageArbiter(16, [4])
        hier = HierarchicalArbiter(16, 4)
        for step in range(50):
            reqs = [(i + step) % 3 == 0 for i in range(16)]
            assert multi.arbitrate(reqs) == hier.arbitrate(reqs)

    def test_stage_count(self):
        assert MultiStageArbiter(64, [8]).num_stages == 2
        assert MultiStageArbiter(512, [8, 8]).num_stages == 3
        assert MultiStageArbiter(4096, [8, 8, 8]).num_stages == 4

    def test_single_request_wins_any_depth(self):
        arb = MultiStageArbiter(512, [8, 8])
        reqs = [False] * 512
        reqs[300] = True
        assert arb.arbitrate(reqs) == 300

    def test_no_requests(self):
        assert MultiStageArbiter(64, [8]).arbitrate([False] * 64) is None

    def test_fairness_under_full_load(self):
        arb = MultiStageArbiter(27, [3, 3])
        wins = [0] * 27
        for _ in range(27 * 20):
            wins[arb.arbitrate([True] * 27)] += 1
        assert max(wins) - min(wins) <= 21  # every line served repeatedly
        assert min(wins) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiStageArbiter(0, [4])
        with pytest.raises(ValueError):
            MultiStageArbiter(8, [])
        with pytest.raises(ValueError):
            MultiStageArbiter(8, [0])
        with pytest.raises(ValueError):
            MultiStageArbiter(8, [4]).arbitrate([True] * 7)

    @given(
        st.integers(2, 100),
        st.lists(st.integers(2, 8), min_size=1, max_size=3),
        st.data(),
    )
    def test_grant_implies_request_property(self, size, groups, data):
        arb = MultiStageArbiter(size, groups)
        reqs = data.draw(st.lists(st.booleans(), min_size=size,
                                  max_size=size))
        winner = arb.arbitrate(reqs)
        if any(reqs):
            assert winner is not None and reqs[winner]
        else:
            assert winner is None

    @given(st.integers(1, 70), st.integers(1, 12), st.data())
    def test_one_group_size_is_the_two_stage_arbiter(self, size, group, data):
        """Same grant and same pointers after every step of a random
        request sequence."""
        multi = MultiStageArbiter(size, [group])
        hier = HierarchicalArbiter(size, group)

        def pointers(arb):
            return ([a.pointer for a in arb._locals], arb._global.pointer)

        rows = data.draw(st.lists(
            st.lists(st.booleans(), min_size=size, max_size=size),
            min_size=1, max_size=12))
        for reqs in rows:
            assert multi.arbitrate(reqs) == hier.arbitrate(reqs)
            assert pointers(multi) == pointers(hier)


class TestPipelineDiagrams:
    def test_baseline_stage_names(self):
        """The SA grant overlaps the first ST cycle, so the diagram
        lists RC | VA | ST."""
        names = [s.name for s in baseline_pipeline(CFG)]
        assert names == ["RC", "VA", "ST"]

    def test_cva_has_no_va_stage(self):
        """Figure 7(b): CVA folds VA into the switch-allocation cycles."""
        names = [s.name for s in cva_pipeline(CFG)]
        assert "VA" not in names
        assert names[0] == "RC" and names[-1] == "ST"

    def test_ova_serializes_va(self):
        """Figure 7(c): OVA adds a VA stage between SA3 and ST."""
        names = [s.name for s in ova_pipeline(CFG)]
        assert "VA" in names
        assert names.index("VA") == len(names) - 2

    def test_speculative_marking(self):
        stages = cva_pipeline(CFG)
        spec = [s.name for s in stages if s.speculative]
        assert "SA1" in spec
        assert "RC" not in spec and "ST" not in spec

    def test_latency_matches_simulated_router(self):
        """The diagram's head-flit latency equals the measured zero-load
        delivery cycle of the corresponding router model."""
        from repro.core.flit import make_packet

        def zero_load(router):
            (flit,) = make_packet(dest=3, size=1, src=0)
            router.accept(0, flit)
            for _ in range(100):
                router.step()
                out = router.drain_ejected()
                if out:
                    return out[0][1]
            raise AssertionError("flit never delivered")

        assert zero_load(BaselineRouter(CFG)) == head_flit_latency(
            baseline_pipeline(CFG)
        )
        assert zero_load(DistributedRouter(CFG)) == head_flit_latency(
            cva_pipeline(CFG)
        )
        assert zero_load(
            DistributedRouter(CFG.with_(vc_allocator="ova"))
        ) == head_flit_latency(ova_pipeline(CFG))

    def test_render_format(self):
        text = render(baseline_pipeline(CFG), "baseline:")
        assert text.splitlines()[0] == "baseline:"
        assert "| RC |" in text
        assert "ST(4)" in text
        assert "head-flit latency" in text

    def test_compare_renders_all_three(self):
        text = compare(CFG)
        assert "Figure 5(b)" in text
        assert "Figure 7(b)" in text
        assert "Figure 7(c)" in text

    def test_pipeline_for_dispatch(self):
        assert pipeline_for(CFG, "baseline") == baseline_pipeline(CFG)
        with pytest.raises(ValueError):
            pipeline_for(CFG, "wormhole")

    def test_short_sa_budget(self):
        cfg = CFG.with_(sa_latency=2)
        names = [s.name for s in cva_pipeline(cfg)]
        assert names == ["RC", "SA1", "wire", "ST"]

    def test_zero_sa_budget(self):
        """With sa_latency=0 the grant is immediate: no SA stages."""
        cfg = CFG.with_(sa_latency=0)
        names = [s.name for s in cva_pipeline(cfg)]
        assert names == ["RC", "ST"]
