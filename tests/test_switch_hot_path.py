"""The switch stack's per-probe hot path: identity where the parent is
the oracle.

``Router._in_flits`` (a flat per-input flit count) replaced the
per-input activity flags and the bank re-sum after every pop; the
hierarchical crossbar's stages hand ``{line: candidate}`` dicts of
direct deque heads to ``RoundRobinArbiter.grant``; the harness skips a
port whose bank is full and asks the injection process once per
arrival.  None of it may move a result, an extra, a fault event, a
trace byte or an arbiter pointer — pinned here against the exhaustive
oracle (``tests/exhaustive.py``, which consults no count) and against
checkpoints written by earlier commits (restore recounts).  The
radix-64 digest of ``tests/test_hierarchical_router.py`` and the
goldens pin the same thing at the parent's own bytes.
"""

import math
import pickle
from collections import deque
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.arbiter import HAVE_NUMPY, RoundRobinArbiter
from repro.core.config import RouterConfig
from repro.core.flit import Flit, reset_packet_ids
from repro.faults import FaultPlan, StuckFault
from repro.harness.checkpoint import CHECKPOINT_FORMAT, load_checkpoint
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
from tests.exhaustive import exhaustive

FIXTURES = Path(__file__).parent / "fixtures" / "checkpoints"

ALL_ROUTERS = [
    BaselineRouter,
    DistributedRouter,
    BufferedCrossbarRouter,
    SharedBufferCrossbarRouter,
    HierarchicalCrossbarRouter,
    VoqRouter,
]

ROW = (
    "offered_load", "avg_latency", "p99_latency", "max_latency",
    "throughput", "packets_measured", "cycles", "saturated",
)

PROPERTY_RUN = SweepSettings(warmup=40, measure=80, drain=400)


def _row(result):
    # A measurement window in which no labeled packet arrives reports
    # NaN latencies, and NaN never equals itself: map it to None so two
    # such rows compare equal when every field matches.
    row = {name: getattr(result, name) for name in ROW}
    return {
        name: None if isinstance(value, float) and math.isnan(value) else value
        for name, value in row.items()
    }


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


def _observe(router_cls, scenario, scheduler, oracle):
    reset_packet_ids()
    tracer = TraceCollector()
    sim = SwitchSimulation(
        router_cls(scenario["config"]), load=scenario["load"],
        packet_size=scenario["packet_size"], faults=scenario["faults"],
        injection=scenario["injection"], scheduler=scheduler,
        tracer=tracer,
    )
    router = sim.router
    if oracle:
        exhaustive(sim)
    else:
        _audit_counts_every_cycle(sim, router)
    result = sim.run(PROPERTY_RUN)
    extras = {k: v for k, v in result.extra.items()
              if not k.startswith("stats.engine.")}
    return (
        _row(result), extras, list(tracer.fault_events),
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
        first = _observe(router_cls, scenario, "cycle", oracle=False)
        for scheduler, oracle in (
            ("cycle", True), ("event", False), ("event", True),
        ):
            assert _observe(router_cls, scenario, scheduler, oracle) == first


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
        oracle = _observe(router_cls, scenario, "cycle", oracle=True)
        assert _observe(router_cls, scenario, "cycle", oracle=False) == oracle
        accept = Router.accept

        def uncounted(self, port, flit):
            accept(self, port, flit)
            if port == 3:
                self._in_flits[3] -= 1

        monkeypatch.setattr(Router, "accept", uncounted)
        monkeypatch.setattr(f"{__name__}._audit_counts_every_cycle",
                            lambda sim, router: None)
        assert _observe(router_cls, scenario, "cycle", oracle=True) == oracle
        assert _observe(router_cls, scenario, "cycle", oracle=False) != oracle


class TestBlockedPortSkip:
    def test_full_bank_is_skipped_and_nothing_else(self, monkeypatch):
        """At saturation with one-deep input buffers the skip fires
        constantly; ``_pick_vc`` is then only ever called for a port
        with room, i.e. it never again returns None."""
        reset_packet_ids()
        config = RouterConfig(radix=8, num_vcs=2, input_buffer_depth=1, seed=4)
        sim = SwitchSimulation(BaselineRouter(config), load=1.0)
        picked = []
        pick = sim._pick_vc

        def recording_pick(i):
            picked.append(pick(i))
            return picked[-1]

        monkeypatch.setattr(sim, "_pick_vc", recording_pick)
        full_polls = 0
        for _ in range(300):
            full_polls += sum(
                count == 2 for count in sim.router._in_flits
            )
            sim.step()
        assert full_polls > 100
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
            reset_packet_ids()
            config = RouterConfig(radix=8, seed=13, batch_hot_path=batch)
            sim = SwitchSimulation(
                BufferedCrossbarRouter(config), load=0.3, sanitize=True
            )
            sim.run(SweepSettings(warmup=100, measure=200, drain=2000))
            router = sim.router.inner
            assert router._in_flits == _walked(router)
            counts.append(router._in_flits)
        assert counts[0] == counts[1]

    def test_voq_counts_every_sorted_flit(self):
        """``_sort_arrivals`` moves every flit a released input read
        port had been holding in one cycle; each pop is counted, not
        one signal per input after the loop."""
        reset_packet_ids()
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


class TestParentWrittenCheckpoint:
    """``tests/fixtures/checkpoints/switch_format4_hier.ckpt`` was
    written by the commit before the count existed: a radix-8, p=4
    hierarchical crossbar at load 0.9, paused mid-measure at cycle 167
    with 33 flits inside (four in the input banks) and 8 in the source
    queues.  Its router capture carries activity flags and no count;
    restore recounts from the banks, so the run continues to the row
    the parent commit itself reached, uninterrupted."""

    def test_restores_and_continues(self):
        if CHECKPOINT_FORMAT != 4:
            pytest.skip("the fixture is a format-4 file")
        sim = load_checkpoint(FIXTURES / "switch_format4_hier.ckpt")
        router = sim.router
        assert isinstance(router, HierarchicalCrossbarRouter)
        assert sim.cycle == 167
        assert router._in_flits == _walked(router)
        assert router._in_flits == [0, 0, 0, 0, 1, 1, 1, 1]
        # The capture's retired flag list is dropped, not resurrected:
        # a re-capture has exactly the keys of a freshly built twin.
        fresh = HierarchicalCrossbarRouter(router.config)
        assert "_in_active" not in router._snapshot_state()
        assert set(router._snapshot_state()) == set(fresh._snapshot_state())
        assert router.occupancy() == 33
        assert [len(src.queue) for src in sim.sources] == [
            2, 1, 1, 1, 1, 0, 1, 1,
        ]
        _audit_counts_every_cycle(sim, router)
        assert sim.advance_run()
        result = sim.finish_run()
        assert _row(result) == {
            "offered_load": 0.9, "avg_latency": 26.378612716763005,
            "p99_latency": 79.65000000000003, "max_latency": 96.0,
            "throughput": 0.8075, "packets_measured": 346, "cycles": 379,
            "saturated": False,
        }
        assert result.extra == {
            "undelivered": 0.0, "source_backlog": 28.0,
            "stats.traffic.max_source_queue": 12.0,
            "stats.engine.cycles_skipped": 0.0,
            "stats.engine.ff_jumps": 0.0,
        }


class TestParentWrittenCrosspointCheckpoints:
    """Two more format-4 files written by the commit before the credit
    buses indexed their waiting sources and the baseline lost its array
    twin.  Both bus indices are derived and recounted on restore; the
    baseline's capture of its twin's arrays and arbiter bank is dropped.
    Each run continues to the row the parent commit itself reached."""

    def _resume(self, name, router_cls):
        if CHECKPOINT_FORMAT != 4:
            pytest.skip("the fixture is a format-4 file")
        sim = load_checkpoint(FIXTURES / name)
        router = sim.router
        assert isinstance(router, router_cls)
        assert router._in_flits == _walked(router)
        fresh = router_cls(router.config)
        assert set(router._snapshot_state()) == set(fresh._snapshot_state())
        return sim, router

    def test_buffered_with_credits_on_the_buses(self):
        """Radix 8 at load 0.9, paused mid-measure at cycle 177 with a
        credit waiting for bus 7 and credits on four bus wires."""
        sim, router = self._resume(
            "switch_format4_buffered.ckpt", BufferedCrossbarRouter
        )
        assert sim.cycle == 177
        assert router.occupancy() == 54
        assert router._in_flits == [0, 0, 1, 0, 0, 0, 0, 0]
        assert [sorted(bus._waiting) for bus in router._credit_buses] == [
            [], [], [], [], [], [], [], [1],
        ]
        assert router._bus_live == {3, 4, 6, 7}
        _audit_counts_every_cycle(sim, router)
        assert sim.advance_run()
        result = sim.finish_run()
        assert _row(result) == {
            "offered_load": 0.9, "avg_latency": 59.73684210526316,
            "p99_latency": 137.0, "max_latency": 141.0, "throughput": 0.895,
            "packets_measured": 171, "cycles": 425, "saturated": False,
        }
        assert result.extra == {
            "undelivered": 0.0, "source_backlog": 47.0,
            "stats.traffic.max_source_queue": 21.0,
            "stats.engine.cycles_skipped": 0.0,
            "stats.engine.ff_jumps": 0.0,
        }

    @pytest.mark.skipif(not HAVE_NUMPY, reason="the capture pickles arrays")
    def test_baseline_written_by_its_deleted_twin(self):
        """Radix 8 under ``batch_hot_path=True`` at load 0.7, paused
        mid-measure at cycle 170 with 58 flits inside."""
        sim, router = self._resume(
            "switch_format4_baseline_batch.ckpt", BaselineRouter
        )
        assert router.config.batch_hot_path
        assert sim.cycle == 170
        assert router.occupancy() == 58
        assert router._in_flits == [4, 11, 7, 13, 8, 1, 8, 0]
        _audit_counts_every_cycle(sim, router)
        assert sim.advance_run()
        result = sim.finish_run()
        assert _row(result) == {
            "offered_load": 0.7, "avg_latency": 63.669117647058826,
            "p99_latency": 202.3, "max_latency": 256.0, "throughput": 0.68,
            "packets_measured": 136, "cycles": 544, "saturated": False,
        }
        assert result.extra == {
            "undelivered": 0.0, "source_backlog": 13.0,
            "stats.traffic.max_source_queue": 16.0,
            "stats.engine.cycles_skipped": 0.0,
            "stats.engine.ff_jumps": 0.0,
        }


class TestParentWrittenExhaustiveCheckpoint:
    """``tests/fixtures/checkpoints/switch_format4_exhaustive.ckpt`` was
    written on the exhaustive schedule, when that was still a
    constructor option: a radix-8 buffered crossbar at load 0.9, paused
    mid-measure at cycle 170 with 19 flits inside.  Its spec carries the
    retired option's key and its scheduler snapshot marks the router
    active; restore ignores the key and recounts ``_in_flits`` from the
    banks, and the run continues to the row (and every extra but the
    engine's) that the parent commit reached uninterrupted."""

    def test_restores_and_continues(self):
        if CHECKPOINT_FORMAT != 4:
            pytest.skip("the fixture is a format-4 file")
        path = FIXTURES / "switch_format4_exhaustive.ckpt"
        with open(path, "rb") as fh:
            assert pickle.load(fh)["spec"]["active_set"] is False
        sim = load_checkpoint(path)
        router = sim.router
        assert isinstance(router, BufferedCrossbarRouter)
        assert sim.cycle == 170
        assert router.occupancy() == 19
        assert router._in_flits == _walked(router)
        assert [len(src.queue) for src in sim.sources] == [
            3, 1, 4, 0, 0, 0, 0, 0,
        ]
        _audit_counts_every_cycle(sim, router)
        assert sim.advance_run()
        result = sim.finish_run()
        assert _row(result) == {
            "offered_load": 0.9, "avg_latency": 20.59259259259259,
            "p99_latency": 63.76999999999998, "max_latency": 114.0,
            "throughput": 0.8125, "packets_measured": 324, "cycles": 374,
            "saturated": False,
        }
        assert {
            k: v for k, v in result.extra.items()
            if not k.startswith("stats.engine.")
        } == {
            "undelivered": 0.0, "source_backlog": 11.0,
            "stats.traffic.max_source_queue": 8.0,
        }
