"""Tests for FlitQueue and VcBufferBank, including FIFO properties."""

import pytest
from hypothesis import given, strategies as st

from repro.core.buffers import FlitQueue, VcBufferBank
from repro.core.flit import make_packet


def _flit(i=0):
    return make_packet(dest=0, size=1, packet_id=i)[0]


class TestFlitQueue:
    def test_starts_empty(self):
        q = FlitQueue(4)
        assert len(q) == 0
        assert not q
        assert q.head() is None
        assert q.free_slots == 4
        assert not q.full

    def test_push_pop_fifo(self):
        q = FlitQueue(4)
        flits = [_flit(i) for i in range(3)]
        for f in flits:
            q.push(f)
        assert q.head() is flits[0]
        assert [q.pop() for _ in range(3)] == flits

    def test_overflow_raises(self):
        q = FlitQueue(2)
        q.push(_flit())
        q.push(_flit())
        assert q.full
        with pytest.raises(OverflowError):
            q.push(_flit())

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            FlitQueue(1).pop()

    def test_unbounded_queue(self):
        q = FlitQueue(None)
        for i in range(1000):
            q.push(_flit(i))
        assert len(q) == 1000
        assert not q.full
        assert q.free_slots > 1000

    def test_clear_returns_contents(self):
        q = FlitQueue(4)
        flits = [_flit(i) for i in range(3)]
        for f in flits:
            q.push(f)
        assert q.clear() == flits
        assert len(q) == 0

    def test_invalid_maxlen(self):
        with pytest.raises(ValueError):
            FlitQueue(0)

    def test_iteration_order(self):
        q = FlitQueue(8)
        flits = [_flit(i) for i in range(5)]
        for f in flits:
            q.push(f)
        assert list(q) == flits

    @given(st.lists(st.integers(0, 100), max_size=50))
    def test_fifo_property(self, ids):
        """Whatever goes in comes out in the same order."""
        q = FlitQueue(None)
        flits = [_flit(i) for i in ids]
        for f in flits:
            q.push(f)
        out = [q.pop() for _ in range(len(flits))]
        assert [f.packet_id for f in out] == ids

    @given(st.lists(st.sampled_from(["push", "pop"]), max_size=60))
    def test_occupancy_never_exceeds_capacity(self, ops):
        q = FlitQueue(5)
        for op in ops:
            if op == "push" and not q.full:
                q.push(_flit())
            elif op == "pop" and q:
                q.pop()
            assert 0 <= len(q) <= 5
            assert q.free_slots == 5 - len(q)


class TestVcBufferBank:
    def test_shape(self):
        bank = VcBufferBank(4, 8)
        assert bank.num_vcs == 4
        assert all(bank[vc].free_slots == 8 for vc in range(4))

    def test_occupancy_sums_vcs(self):
        bank = VcBufferBank(3, 4)
        bank[0].push(_flit())
        bank[2].push(_flit())
        bank[2].push(_flit())
        assert bank.occupancy() == 3
        assert len(bank) == 3

    def test_invalid_num_vcs(self):
        with pytest.raises(ValueError):
            VcBufferBank(0, 4)
