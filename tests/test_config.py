"""Tests for RouterConfig validation and derived properties."""

import dataclasses

import pytest

from repro.core.config import FAST_CONFIG, PAPER_CONFIG, RouterConfig


class TestDefaults:
    def test_paper_config_matches_section_4_3(self):
        assert PAPER_CONFIG.radix == 64
        assert PAPER_CONFIG.num_vcs == 4
        assert PAPER_CONFIG.flit_cycles == 4
        assert PAPER_CONFIG.subswitch_size == 8
        assert PAPER_CONFIG.local_group_size == 8
        assert PAPER_CONFIG.crosspoint_buffer_depth == 4

    def test_fast_config_keeps_structure(self):
        assert FAST_CONFIG.radix == 32
        assert FAST_CONFIG.subswitch_size == 8
        assert FAST_CONFIG.radix % FAST_CONFIG.subswitch_size == 0

    def test_capacity(self):
        assert PAPER_CONFIG.capacity_flits_per_cycle == pytest.approx(0.25)

    def test_num_subswitches(self):
        assert PAPER_CONFIG.num_subswitches_per_side == 8

    def test_subswitch_depths_default_to_crosspoint_depth(self):
        cfg = RouterConfig()
        assert cfg.subswitch_in_depth == cfg.crosspoint_buffer_depth
        assert cfg.subswitch_out_depth == cfg.crosspoint_buffer_depth

    def test_subswitch_depths_override(self):
        cfg = RouterConfig(subswitch_input_depth=16, subswitch_output_depth=2)
        assert cfg.subswitch_in_depth == 16
        assert cfg.subswitch_out_depth == 2


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("radix", 1),
        ("radix", 0),
        ("num_vcs", 0),
        ("flit_cycles", 0),
        ("input_buffer_depth", 0),
        ("crosspoint_buffer_depth", 0),
        ("local_group_size", 0),
        ("sa_latency", -1),
        ("credit_latency", -1),
    ])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError):
            RouterConfig(**{field: value})

    def test_zero_credit_latency_stays_legal(self):
        """On the switch a zero-latency credit return is a real
        configuration (it runs differently from 1), unlike the network
        router's."""
        assert RouterConfig(credit_latency=0).credit_latency == 0

    def test_subswitch_must_divide_radix(self):
        with pytest.raises(ValueError):
            RouterConfig(radix=64, subswitch_size=6)

    def test_vc_allocator_values(self):
        assert RouterConfig(vc_allocator="cva").vc_allocator == "cva"
        assert RouterConfig(vc_allocator="ova").vc_allocator == "ova"
        with pytest.raises(ValueError):
            RouterConfig(vc_allocator="ideal")


class TestWith:
    def test_with_returns_modified_copy(self):
        base = RouterConfig()
        changed = base.with_(radix=32, num_vcs=2)
        assert changed.radix == 32
        assert changed.num_vcs == 2
        assert base.radix == 64

    def test_with_validates(self):
        with pytest.raises(ValueError):
            RouterConfig().with_(radix=63)  # subswitch 8 does not divide

    def test_frozen(self):
        # Assignment, setattr and del all raise: the interpreter, not a
        # lint rule, keeps shared configurations immutable.
        cfg = RouterConfig()

        def assign():
            cfg.radix = 16  # type: ignore[misc]

        def delete():
            del cfg.radix  # type: ignore[misc]

        for write in (assign, lambda: setattr(cfg, "radix", 16), delete):
            with pytest.raises(dataclasses.FrozenInstanceError):
                write()
        assert cfg.radix == 64
