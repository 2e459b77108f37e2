"""The switch stack's per-probe hot path: identity where the parent is
the oracle.

``Router._in_flits`` (a flat per-input flit count) replaced the
per-input activity flags and the bank re-sum after every pop; the
hierarchical crossbar's stages hand ``{line: candidate}`` dicts of
direct deque heads to ``RoundRobinArbiter.grant``; the harness skips a
port whose bank is full and asks the injection process once per
arrival.  None of it may move a result, an extra, a fault event, a
trace byte or an arbiter pointer.  The ``exhaustive`` lane of
``tests/test_differential.py`` (against ``tests/exhaustive.py``, which
consults no count) draws that over every organization; here are its
pinned points, a check that the lane sees a broken count, and the
counter checks.  The radix-64 digest of
``tests/test_hierarchical_router.py`` and the goldens pin the same
thing at the parent's own bytes.
"""

import pytest

from repro.core.arbiter import HAVE_NUMPY
from repro.core.config import RouterConfig
from repro.faults import FaultPlan, StuckFault
from repro.harness.experiment import SwitchSimulation, SweepSettings
from repro.routers import BaselineRouter, BufferedCrossbarRouter, VoqRouter
from repro.routers.base import Router

import tests.differential as differential
from tests.differential import ROUTERS, Run, compare, kept, observed
from tests.exhaustive import exhaustive

ORGANIZATIONS = [pytest.param(name, id=cls.__name__)
                 for name, cls in ROUTERS.items()]


def _walked(router):
    return [len(bank) for bank in router.inputs]


class TestCountedEqualsExhaustive:
    """The exhaustive oracle swaps the counts for ``AlwaysActive`` and
    parks nothing: every input of every stage is probed every cycle and
    the harness never skips a port — the oracle for both skip rules."""

    @pytest.mark.parametrize("stack", ORGANIZATIONS)
    def test_faulted_traced_run(self, stack):
        # No labeled packet arrives (NaN latencies) on the shared-buffer
        # crossbar; the rows must still compare equal.  The oracle
        # never parks, so it never jumps; the counted run is also
        # compared with itself under never_jump.
        run = Run(
            stack, num_vcs=1, depth=1, seed=378, packet_size=3, load=0.3,
            injection="onoff", traced=True, faults=FaultPlan(
                stuck=tuple(
                    StuckFault(cycle=0, where=(port,), kind="input", until=1)
                    for port in (0, 1)
                ),
                credit_loss_rate=0.02,
            ),
        )
        compare("never_jump", run)
        compare("exhaustive", run)


class TestOracleCatchesABrokenCount:
    @pytest.mark.parametrize("stack", ORGANIZATIONS)
    def test_uncounted_port_differs_from_the_oracle(self, monkeypatch, stack):
        """Port 3's accepts go uncounted, so every input stage skips a
        port that holds flits.  The oracle consults no count and runs
        as before; the exhaustive lane must tell the two apart once
        the per-cycle count audit, which would fail first, is switched
        off."""
        run = Run(stack, seed=5, load=0.6, traced=True)
        _, _, seen = compare("exhaustive", run)
        oracle = kept("exhaustive", seen)
        accept = Router.accept

        def uncounted(self, port, flit):
            accept(self, port, flit)
            if port == 3:
                self._in_flits[3] -= 1

        monkeypatch.setattr(Router, "accept", uncounted)
        monkeypatch.setattr(differential, "audit_counts", lambda sim: None)
        assert kept("exhaustive", observed(run, exhaustive)[1]) == oracle
        assert kept("exhaustive", observed(run)[1]) != oracle


class TestBlockedPortSkip:
    def test_full_bank_is_skipped_and_nothing_else(self, monkeypatch):
        """At saturation with one-deep input buffers the skip fires
        constantly: the shared injection walk asks the switch's
        ``_channel_full`` before a head flit looks for a VC, so
        ``_pick_vc`` is then only ever called for a port with room,
        i.e. it never again returns None."""
        config = RouterConfig(radix=8, num_vcs=2, input_buffer_depth=1, seed=4)
        sim = SwitchSimulation(BaselineRouter(config), load=1.0)
        picked = []
        pick = sim._pick_vc
        full = sim._channel_full
        full_polls = []

        def recording_pick(i):
            picked.append(pick(i))
            return picked[-1]

        def recording_full(i):
            answer = full(i)
            assert answer == (sim.router._in_flits[i] == 2)
            full_polls.append(answer)
            return answer

        monkeypatch.setattr(sim, "_pick_vc", recording_pick)
        monkeypatch.setattr(sim, "_channel_full", recording_full)
        for _ in range(300):
            sim.step()
        assert sum(full_polls) > 100
        assert picked and None not in picked


class TestTwinsKeepTheSameCount:
    @pytest.mark.skipif(not HAVE_NUMPY, reason="batched path needs numpy")
    def test_batched_buffered_input_stage_decrements(self):
        """Regression: ``_input_stage_batched`` popped input flits
        without telling the per-input bookkeeping, so after a drained
        run the batched twin still read every input as occupied while
        the scalar router read what its banks held."""
        counts = []
        for batch in (False, True):
            config = RouterConfig(radix=8, seed=13, batch_hot_path=batch)
            sim = SwitchSimulation(
                BufferedCrossbarRouter(config), load=0.3, sanitize=True
            )
            sim.run(SweepSettings(warmup=100, measure=200, drain=2000))
            router = sim.router
            assert router._in_flits == _walked(router)
            counts.append(router._in_flits)
        assert counts[0] == counts[1]

    def test_voq_counts_every_sorted_flit(self):
        """``_sort_arrivals`` moves every flit a released input read
        port had been holding in one cycle; each pop is counted, not
        one signal per input after the loop."""
        config = RouterConfig(radix=8, num_vcs=2, seed=2)
        sim = SwitchSimulation(VoqRouter(config), load=1.0, packet_size=3)
        router = sim.router
        router.stick_input(0)
        for _ in range(60):
            sim.step()
        held = router._in_flits[0]
        assert held >= 4
        router.unstick_input(0)
        sim.step()
        assert router._in_flits[0] <= held - 3
        for _ in range(100):
            assert router._in_flits == _walked(router)
            sim.step()
