"""Tests for the pipeline diagrams."""

import pytest

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
