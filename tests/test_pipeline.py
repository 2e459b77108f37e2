"""Tests for DelayLine and BusyTracker."""

import heapq
import itertools
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.core.pipeline import BusyTracker, DelayLine

#: One delay-line operation: a push at a cycle, a push maturing at an
#: explicit cycle, or a pop of everything due by a cycle.
_OPS = st.lists(st.one_of(
    st.tuples(st.just("push"), st.integers(0, 30)),
    st.tuples(st.just("push_at"), st.integers(0, 40)),
    st.tuples(st.just("pop"), st.integers(0, 40)),
), max_size=60)


class TestDelayLine:
    def test_matures_after_latency(self):
        line = DelayLine(3)
        line.push(10, "x")
        assert line.pop_ready(12) == []
        assert line.pop_ready(13) == ["x"]
        assert line.pop_ready(14) == []

    def test_zero_latency(self):
        line = DelayLine(0)
        line.push(5, "a")
        assert line.pop_ready(5) == ["a"]

    def test_insertion_order_preserved_same_cycle(self):
        line = DelayLine(2)
        line.push(0, "a")
        line.push(0, "b")
        line.push(0, "c")
        assert line.pop_ready(2) == ["a", "b", "c"]

    def test_push_at_explicit_due(self):
        line = DelayLine(1)
        line.push_at(7, "late")
        line.push_at(3, "early")
        assert line.pop_ready(3) == ["early"]
        assert line.pop_ready(7) == ["late"]

    def test_out_of_order_pushes_drain_in_due_order(self):
        line = DelayLine(0)
        line.push_at(5, "b")
        line.push_at(2, "a")
        line.push_at(9, "c")
        assert line.pop_ready(100) == ["a", "b", "c"]

    def test_peek_does_not_remove(self):
        line = DelayLine(1)
        line.push(0, "x")
        assert line.pending(1) == [(1, "x")]
        assert line.pop_ready(1) == ["x"]

    def test_len_and_bool(self):
        line = DelayLine(1)
        assert not line
        line.push(0, 1)
        assert line and len(line) == 1

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            DelayLine(-1)

    @given(latency=st.integers(0, 6), ops=_OPS)
    def test_pops_what_a_due_counter_heap_pops(self, latency, ops):
        """The FIFO with ordered-insert fallback replaced a binary heap
        on ``(due, counter)``: for any mix of operations it pops the
        same items in the same order, and a pickled twin taken at any
        point behaves the same from there on."""
        line = DelayLine(latency)
        heap, counter = [], itertools.count()
        for n, (op, cycle) in enumerate(ops):
            if op == "pop":
                expect = []
                while heap and heap[0][0] <= cycle:
                    expect.append(heapq.heappop(heap)[2])
                assert line.pop_ready(cycle) == expect
            else:
                due = cycle + latency if op == "push" else cycle
                heapq.heappush(heap, (due, next(counter), n))
                if op == "push":
                    line.push(cycle, n)
                else:
                    line.push_at(cycle, n)
            assert line.next_due() == (heap[0][0] if heap else None)
            assert len(line) == len(heap)
        twin = pickle.loads(pickle.dumps(line))
        assert twin.pending(10**6) == line.pending(10**6)
        for each in (line, twin):
            each.push(0, "after")
        assert twin.pending(10**6) == line.pending(10**6)
        assert twin.pop_ready(10**6) == line.pop_ready(10**6)

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 100)), max_size=40))
    def test_everything_matures_exactly_once(self, items):
        line = DelayLine(0)
        for due, val in items:
            line.push_at(due, val)
        out = []
        for t in range(51):
            out.extend(line.pop_ready(t))
        assert sorted(out) == sorted(v for _, v in items)
        assert len(line) == 0


class TestBusyTracker:
    def test_starts_free(self):
        bt = BusyTracker(4)
        assert all(bt.free(i, 0) for i in range(4))

    def test_reserve_blocks_until_expiry(self):
        bt = BusyTracker(2)
        bt.reserve(0, now=5, duration=4)
        assert not bt.free(0, 8)
        assert bt.free(0, 9)
        assert bt.free(1, 5)

    def test_double_reserve_raises(self):
        bt = BusyTracker(1)
        bt.reserve(0, 0, 4)
        with pytest.raises(RuntimeError):
            bt.reserve(0, 2, 4)

    def test_reserve_after_expiry_ok(self):
        bt = BusyTracker(1)
        bt.reserve(0, 0, 4)
        bt.reserve(0, 4, 4)
        assert bt.busy_until(0) == 8

    def test_extend(self):
        bt = BusyTracker(1)
        bt.extend(0, 10)
        assert not bt.free(0, 9)
        bt.extend(0, 5)  # never shrinks
        assert bt.busy_until(0) == 10

    def test_len(self):
        assert len(BusyTracker(7)) == 7

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            BusyTracker(0)
