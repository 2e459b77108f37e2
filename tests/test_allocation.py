"""Tests for the allocation package (OutputArbiterBank, OVA)."""

from repro.allocation.switch_alloc import OutputArbiterBank
from repro.allocation.vc_alloc import OvaPolicy
from repro.core.vcstate import OutputVcState


class TestOutputArbiterBank:
    def test_no_requests(self):
        bank = OutputArbiterBank(4, 8, 4)
        assert bank.grant(0, []) is None

    def test_single_request_granted(self):
        bank = OutputArbiterBank(4, 8, 4)
        assert bank.grant(2, [(5, False)]) == 5

    def test_independent_outputs(self):
        bank = OutputArbiterBank(2, 4, 2)
        assert bank.grant(0, [(1, False)]) == 1
        assert bank.grant(1, [(1, False)]) == 1

    def test_round_robin_across_grants(self):
        bank = OutputArbiterBank(1, 4, 4)
        reqs = [(i, False) for i in range(4)]
        winners = [bank.grant(0, reqs) for _ in range(8)]
        assert sorted(set(winners)) == [0, 1, 2, 3]

    def test_prioritized_nonspec_first(self):
        bank = OutputArbiterBank(1, 4, 4, prioritized=True)
        winner = bank.grant(0, [(0, True), (3, False), (1, True)])
        assert winner == 3

    def test_prioritized_spec_fallback(self):
        bank = OutputArbiterBank(1, 4, 4, prioritized=True)
        winner = bank.grant(0, [(2, True)])
        assert winner == 2


class TestOvaPolicy:
    def test_allocates_free_vc(self):
        policy = OvaPolicy(num_outputs=2, num_vcs=2)
        state = OutputVcState(2)
        vc = policy.allocate(0, state)
        assert vc in (0, 1)

    def test_returns_none_when_exhausted(self):
        policy = OvaPolicy(1, 2)
        state = OutputVcState(2)
        state.allocate(0, 1)
        state.allocate(1, 2)
        assert policy.allocate(0, state) is None

    def test_round_robins_over_vcs(self):
        policy = OvaPolicy(1, 4)
        state = OutputVcState(4)
        first = policy.allocate(0, state)
        second = policy.allocate(0, state)
        assert first != second
