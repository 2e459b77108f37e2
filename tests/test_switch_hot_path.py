"""The switch stack's per-probe hot path: identity where the parent is
the oracle.

``Router._in_flits`` (a flat per-input flit count) replaced the
per-input activity flags and the bank re-sum after every pop; the
hierarchical crossbar's stages hand ``{line: candidate}`` dicts of
direct deque heads to ``RoundRobinArbiter.grant``; the harness skips a
port whose bank is full and asks the injection process once per
arrival.  None of it may move a result, an extra, a fault event, a
trace byte or an arbiter pointer — pinned here against the exhaustive
oracle (``tests/exhaustive.py``, which consults no count).  The
radix-64 digest of ``tests/test_hierarchical_router.py`` and the
goldens pin the same thing at the parent's own bytes.
"""

from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.arbiter import HAVE_NUMPY, RoundRobinArbiter
from repro.core.config import RouterConfig
from repro.core.flit import Flit
from repro.faults import FaultPlan, StuckFault
from repro.harness.experiment import SwitchSimulation, SweepSettings
from repro.routers import (
    BaselineRouter,
    BufferedCrossbarRouter,
    DistributedRouter,
    HierarchicalCrossbarRouter,
    SharedBufferCrossbarRouter,
    VoqRouter,
)
from repro.routers.base import Router
from repro.trace import TraceCollector, chrome_trace_json
from tests.exhaustive import engine_free, exhaustive, never_jump, row


ALL_ROUTERS = [
    BaselineRouter,
    DistributedRouter,
    BufferedCrossbarRouter,
    SharedBufferCrossbarRouter,
    HierarchicalCrossbarRouter,
    VoqRouter,
]

PROPERTY_RUN = SweepSettings(warmup=40, measure=80, drain=400)


def _walked(router):
    return [len(bank) for bank in router.inputs]


def _audit_counts_every_cycle(sim, router):
    def audit(cycle):
        assert router._in_flits == _walked(router), cycle
    sim.hooks.on_cycle_end(audit)


def _arbiter_pointers(router):
    """Pointer of every round-robin arbiter reachable from ``router``,
    in attribute (= construction) order — whatever the organization
    calls them and however it nests them."""
    found, seen = [], set()

    def walk(node):
        if id(node) in seen or isinstance(
            node, (int, float, str, Flit, set, frozenset, deque, type(None))
        ):
            return
        seen.add(id(node))
        if isinstance(node, RoundRobinArbiter):
            found.append(node.pointer)
        elif isinstance(node, dict):
            for key in sorted(node, key=repr):
                walk(node[key])
        elif isinstance(node, (list, tuple)):
            for child in node:
                walk(child)
        else:
            names = list(getattr(node, "__dict__", ()))
            for klass in type(node).__mro__:
                names.extend(getattr(klass, "__slots__", ()))
            for name in names:
                if name not in ("hooks", "fault_injector", "config"):
                    walk(getattr(node, name, None))

    walk(router)
    assert found
    return found


@st.composite
def _scenarios(draw):
    """Radix 8 under load with two wedged input read ports (flits stay
    buffered and counted while nothing drains them) and credit loss."""
    ports = draw(st.lists(st.integers(0, 7), min_size=2, max_size=2,
                          unique=True))
    stuck = []
    for port in ports:
        start = draw(st.integers(0, 150))
        stuck.append(StuckFault(
            cycle=start, where=(port,), kind="input",
            until=start + draw(st.integers(1, 120)),
        ))
    return dict(
        config=RouterConfig(
            radix=8, subswitch_size=4, local_group_size=4,
            num_vcs=draw(st.sampled_from([1, 2, 4])),
            input_buffer_depth=draw(st.sampled_from([1, 2, 16])),
            seed=draw(st.integers(0, 2**16)),
        ),
        packet_size=draw(st.integers(1, 3)),
        load=draw(st.sampled_from([0.3, 0.9, 1.0])),
        injection=draw(st.sampled_from(["bernoulli", "onoff"])),
        faults=FaultPlan(
            stuck=tuple(stuck),
            credit_loss_rate=draw(st.sampled_from([0.02, 0.1])),
        ),
    )


def _observe(router_cls, scenario, oracle, jump=True):
    tracer = TraceCollector()
    sim = SwitchSimulation(
        router_cls(scenario["config"]), load=scenario["load"],
        packet_size=scenario["packet_size"], faults=scenario["faults"],
        injection=scenario["injection"], tracer=tracer,
    )
    if not jump:
        never_jump(sim)
    router = sim.router
    if oracle:
        exhaustive(sim)
    else:
        _audit_counts_every_cycle(sim, router)
    result = sim.run(PROPERTY_RUN)
    return (
        row(result), engine_free(result.extra), list(tracer.fault_events),
        chrome_trace_json(tracer), _arbiter_pointers(router),
    )


class TestCountedEqualsExhaustive:
    """The exhaustive oracle swaps the counts for ``AlwaysActive`` and
    parks nothing: every input of every stage is probed every cycle and
    the harness never skips a port — the oracle for both skip rules."""

    @pytest.mark.parametrize("router_cls", ALL_ROUTERS)
    @settings(max_examples=6, deadline=None)
    @given(scenario=_scenarios())
    # No labeled packet arrives (NaN latencies) on the shared-buffer
    # crossbar; the rows must still compare equal.
    @example(scenario=dict(
        config=RouterConfig(
            radix=8, subswitch_size=4, local_group_size=4, num_vcs=1,
            input_buffer_depth=1, seed=378,
        ),
        packet_size=3, load=0.3, injection="onoff",
        faults=FaultPlan(
            stuck=tuple(
                StuckFault(cycle=0, where=(port,), kind="input", until=1)
                for port in (0, 1)
            ),
            credit_loss_rate=0.02,
        ),
    ))
    def test_faulted_traced_run(self, router_cls, scenario):
        # The oracle never parks, so it never jumps; the counted run is
        # also compared with itself under never_jump.
        first = _observe(router_cls, scenario, oracle=False)
        assert _observe(router_cls, scenario, oracle=False,
                        jump=False) == first
        assert _observe(router_cls, scenario, oracle=True) == first


class TestOracleCatchesABrokenCount:
    @pytest.mark.parametrize("router_cls", ALL_ROUTERS)
    def test_uncounted_port_differs_from_the_oracle(
        self, monkeypatch, router_cls
    ):
        """Port 3's accepts go uncounted, so every input stage skips a
        port that holds flits.  The oracle consults no count and runs
        as before; the differential above must tell the two apart once
        the per-cycle audit, which would fail first, is switched off."""
        scenario = dict(
            config=RouterConfig(radix=8, subswitch_size=4,
                                local_group_size=4, num_vcs=2, seed=5),
            packet_size=2, load=0.6, injection="bernoulli", faults=None,
        )
        oracle = _observe(router_cls, scenario, oracle=True)
        assert _observe(router_cls, scenario, oracle=False) == oracle
        accept = Router.accept

        def uncounted(self, port, flit):
            accept(self, port, flit)
            if port == 3:
                self._in_flits[3] -= 1

        monkeypatch.setattr(Router, "accept", uncounted)
        monkeypatch.setattr(f"{__name__}._audit_counts_every_cycle",
                            lambda sim, router: None)
        assert _observe(router_cls, scenario, oracle=True) == oracle
        assert _observe(router_cls, scenario, oracle=False) != oracle


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
