"""Tests for the output virtual-channel ownership ledger."""

import pytest

from repro.core.vcstate import OutputVcState


class TestOutputVcState:
    def test_starts_all_free(self):
        s = OutputVcState(4)
        assert all(s.is_free(vc) for vc in range(4))

    def test_allocate_release_cycle(self):
        s = OutputVcState(2)
        s.allocate(0, packet_id=7)
        assert not s.is_free(0)
        assert s.owner(0) == 7
        assert s.is_free(1)
        s.release(0, packet_id=7)
        assert s.is_free(0)

    def test_reallocate_same_packet_idempotent(self):
        s = OutputVcState(1)
        s.allocate(0, 3)
        s.allocate(0, 3)  # no error
        assert s.owner(0) == 3

    def test_conflicting_allocate_raises(self):
        s = OutputVcState(1)
        s.allocate(0, 3)
        with pytest.raises(RuntimeError):
            s.allocate(0, 4)

    def test_release_by_non_owner_raises(self):
        s = OutputVcState(1)
        s.allocate(0, 3)
        with pytest.raises(RuntimeError):
            s.release(0, 4)

    def test_release_unowned_raises(self):
        with pytest.raises(RuntimeError):
            OutputVcState(1).release(0, 1)

    def test_any_free_false_when_exhausted(self):
        s = OutputVcState(2)
        s.allocate(0, 1)
        s.allocate(1, 2)
        assert not any(s.is_free(vc) for vc in range(2))

    def test_invalid_num_vcs(self):
        with pytest.raises(ValueError):
            OutputVcState(0)
