"""Tests for round-robin, hierarchical, and prioritized arbiters."""

import pytest
from hypothesis import given, strategies as st

from repro.core.arbiter import (
    HierarchicalArbiter,
    PriorityArbiter,
    RoundRobinArbiter,
)


class TestRoundRobinArbiter:
    def test_no_request_no_grant(self):
        arb = RoundRobinArbiter(4)
        assert arb.arbitrate([False] * 4) is None

    def test_single_request_wins(self):
        arb = RoundRobinArbiter(4)
        assert arb.arbitrate([False, False, True, False]) == 2

    def test_pointer_rotates_past_winner(self):
        arb = RoundRobinArbiter(3)
        assert arb.arbitrate([True, True, True]) == 0
        assert arb.arbitrate([True, True, True]) == 1
        assert arb.arbitrate([True, True, True]) == 2
        assert arb.arbitrate([True, True, True]) == 0

    def test_pointer_not_advanced_without_grant(self):
        arb = RoundRobinArbiter(3)
        arb.arbitrate([False] * 3)
        assert arb.pointer == 0

    def test_no_advance_option(self):
        arb = RoundRobinArbiter(3)
        assert arb.arbitrate([True, True, True], advance=False) == 0
        assert arb.arbitrate([True, True, True], advance=False) == 0

    def test_commit_sets_pointer(self):
        arb = RoundRobinArbiter(4)
        arb.commit(2)
        assert arb.arbitrate([True] * 4) == 3

    def test_commit_out_of_range(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(2).commit(5)

    def test_fairness_over_many_rounds(self):
        """With all lines requesting, every line wins equally often."""
        arb = RoundRobinArbiter(5)
        wins = [0] * 5
        for _ in range(100):
            w = arb.arbitrate([True] * 5)
            wins[w] += 1
        assert wins == [20] * 5

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(3).arbitrate([True])

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(0)

    @given(st.lists(st.booleans(), min_size=1, max_size=16))
    def test_grant_implies_request(self, requests):
        arb = RoundRobinArbiter(len(requests))
        winner = arb.arbitrate(requests)
        if any(requests):
            assert winner is not None and requests[winner]
        else:
            assert winner is None

    @given(st.data())
    def test_sparse_grant_equals_dense_arbitrate(self, data):
        """``grant(asserted indices)`` is ``arbitrate(dense vector)``:
        same winner, same pointer afterwards, for any size, pointer
        and request set — the empty set included, which moves
        nothing — whatever order the indices arrive in.  Handed a
        ``{line: candidate}`` dict (the hierarchical crossbar's stages)
        the winner is one of its keys, so ``cands[winner]`` cannot
        miss, and an empty dict moves no pointer, so a stage may skip
        the call."""
        size = data.draw(st.integers(1, 64))
        pointer = data.draw(st.integers(0, size - 1))
        lines = data.draw(st.permutations(
            sorted(data.draw(st.sets(st.integers(0, size - 1))))
        ))
        dense, sparse, keyed = (RoundRobinArbiter(size) for _ in range(3))
        for arb in (dense, sparse, keyed):
            arb.commit((pointer - 1) % size)
            assert arb.pointer == pointer
        expected = dense.arbitrate([i in lines for i in range(size)])
        assert sparse.grant(lines) == expected
        assert sparse.pointer == dense.pointer
        cands = {line: object() for line in lines}
        assert keyed.grant(cands) == expected
        assert keyed.pointer == dense.pointer
        if lines:
            assert expected in cands
        else:
            assert expected is None
            assert sparse.pointer == keyed.pointer == pointer

    def test_sparse_grant_takes_any_collection_of_lines(self):
        arb = RoundRobinArbiter(8)
        assert arb.grant({5: "a", 2: "b"}) == 2  # a dict's keys
        assert arb.grant((1, 6)) == 6 and arb.pointer == 7
        assert arb.grant(set()) is None and arb.pointer == 7

    def test_sparse_grant_rejects_a_line_out_of_range(self):
        arb = RoundRobinArbiter(4)
        for bad in (4, -1):
            with pytest.raises(ValueError, match="out of range"):
                arb.grant([1, bad])
        assert arb.pointer == 0


class TestHierarchicalArbiter:
    def test_group_structure(self):
        arb = HierarchicalArbiter(64, 8)
        assert arb.num_groups == 8

    def test_uneven_groups(self):
        arb = HierarchicalArbiter(10, 4)
        assert arb.num_groups == 3
        winner = arb.arbitrate([False] * 9 + [True])
        assert winner == 9

    def test_single_winner_per_cycle(self):
        arb = HierarchicalArbiter(16, 4)
        winner = arb.arbitrate([True] * 16)
        assert winner is not None and 0 <= winner < 16

    def test_no_requests(self):
        arb = HierarchicalArbiter(8, 4)
        assert arb.arbitrate([False] * 8) is None

    def test_fairness_across_groups(self):
        """All groups win approximately equally under full load."""
        arb = HierarchicalArbiter(8, 2)
        group_wins = [0] * 4
        for _ in range(400):
            w = arb.arbitrate([True] * 8)
            group_wins[w // 2] += 1
        assert group_wins == [100] * 4

    def test_fairness_within_group(self):
        arb = HierarchicalArbiter(4, 4)  # one group
        wins = [0] * 4
        for _ in range(100):
            wins[arb.arbitrate([True] * 4)] += 1
        assert wins == [25] * 4

    def test_local_pointer_only_rotates_for_transmitting_group(self):
        """Only the globally winning group's local pointer advances."""
        arb = HierarchicalArbiter(4, 2)
        w1 = arb.arbitrate([True, True, True, True])
        w2 = arb.arbitrate([True, True, True, True])
        # The second grant goes to the other group, and within that
        # group to its first-priority member (pointer never advanced).
        assert w1 // 2 != w2 // 2

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            HierarchicalArbiter(8, 4).arbitrate([True] * 7)

    @given(
        st.integers(2, 32),
        st.integers(1, 8),
        st.data(),
    )
    def test_grant_implies_request_property(self, size, group, data):
        arb = HierarchicalArbiter(size, group)
        requests = data.draw(
            st.lists(st.booleans(), min_size=size, max_size=size)
        )
        winner = arb.arbitrate(requests)
        if any(requests):
            assert winner is not None and requests[winner]
        else:
            assert winner is None


class TestPriorityArbiter:
    def test_nonspec_beats_spec(self):
        arb = PriorityArbiter(4)
        winner, spec = arb.arbitrate(
            [False, True, False, False], [True, False, True, True]
        )
        assert winner == 1
        assert not spec

    def test_spec_granted_only_without_nonspec(self):
        arb = PriorityArbiter(4)
        winner, spec = arb.arbitrate([False] * 4, [False, False, True, False])
        assert winner == 2
        assert spec

    def test_no_requests(self):
        arb = PriorityArbiter(4)
        winner, spec = arb.arbitrate([False] * 4, [False] * 4)
        assert winner is None
        assert not spec

    def test_spec_pointer_frozen_while_nonspec_wins(self):
        """Figure 10(b): the speculative pointer is updated only when a
        speculative request is actually granted."""
        arb = PriorityArbiter(3)
        # Nonspeculative traffic dominates for a while.
        for _ in range(5):
            arb.arbitrate([True, True, True], [True, True, True])
        # First speculative grant still goes to line 0.
        winner, spec = arb.arbitrate([False] * 3, [True, True, True])
        assert spec
        assert winner == 0

    def test_hierarchical_variant(self):
        arb = PriorityArbiter(16, group_size=4)
        winner, spec = arb.arbitrate([False] * 16, [False] * 15 + [True])
        assert winner == 15
        assert spec
