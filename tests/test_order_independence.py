"""A cycle's outcome depends on neither evaluation order nor probe count.

The two-phase split lets the scheduler evaluate components in any
order, and the engine, the harness and the wake horizons probe
``next_event``, the wake sources and the workload as often as they
like.  Both claims are checked here from outside, through the
oracle in ``tests/perturb.py``.  A perturbed run must reproduce the
plain run's row, extras, Chrome-trace bytes and hook-event stream
byte for byte.

Commit order is the exception.  A router's commit returns credits
upstream, and the upstream router may spend them in the same cycle
only if it commits later.  Under credit pressure, results therefore
follow commit order (ROADMAP item 8(b)).  Those rows are strict
xfails, so the fix for that race has to remove the marks.
"""

import functools
import math

import pytest

from repro.core.config import RouterConfig
from repro.faults import FaultPlan, LinkFault
from repro.harness.experiment import SwitchSimulation, SweepSettings
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.network.router import NetworkRouter
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
from repro.workloads import all_reduce
from tests.exhaustive import CLOCKS, clocked
from tests.perturb import (
    EventRecord,
    over_poll,
    shuffle_commit,
    shuffle_compute,
)

ROW = (
    "offered_load", "avg_latency", "p99_latency", "max_latency",
    "throughput", "packets_measured", "cycles", "saturated",
)

CLOS = {
    "r16-l2-0.9": (dict(radix=16, levels=2), 0.9),
    "r8-l3-0.9": (dict(radix=8, levels=3), 0.9),
    "r8-tight-0.95": (dict(radix=8, levels=2, num_vcs=1, buffer_depth=2,
                           flit_cycles=1, packet_size=4), 0.95),
    "r8-l2-0.9": (dict(radix=8, levels=2), 0.9),
    "r8-l2-0.5": (dict(radix=8, levels=2), 0.5),
}
CLOS_WINDOW = dict(warmup=100, measure=300, drain=1500)

ALL_ROUTERS = [
    BaselineRouter,
    DistributedRouter,
    BufferedCrossbarRouter,
    SharedBufferCrossbarRouter,
    HierarchicalCrossbarRouter,
    VoqRouter,
]


def _unperturbed(sim):
    return sim


def _observe(sim, tracer, run):
    """Run ``sim`` and return what it produced: row, extras (NaN as
    None), Chrome-trace bytes and the hook-event stream's digest."""
    record = EventRecord(sim)
    result = run(sim)
    row = {name: getattr(result, name) for name in ROW}
    row = {k: None if isinstance(v, float) and math.isnan(v) else v
           for k, v in row.items()}
    return row, result.extra, chrome_trace_json(tracer), record.hexdigest()


def _clos(name, clock, perturb=_unperturbed):
    config, load = CLOS[name]
    tracer = TraceCollector(capacity=100000)
    sim = clocked(NetworkSimulation(NetworkConfig(**config), load=load,
                                    tracer=tracer), clock)
    return _observe(perturb(sim), tracer,
                    lambda s: s.run(**CLOS_WINDOW))


def _faulted_clos(clock, perturb=_unperturbed):
    """Radix 16 with host-channel corruption, credit loss and two dead
    links, traced at a leaf."""
    plan = FaultPlan(
        corrupt_rate=0.01,
        credit_loss_rate=0.02,
        links=(
            LinkFault(cycle=30, switch=(0, 1, 0), port=9, until=120),
            LinkFault(cycle=50, switch=(1, 0, 2), port=0, until=90),
        ),
    )
    tracer = TraceCollector(capacity=100000)
    sim = clocked(NetworkSimulation(
        NetworkConfig(radix=16, levels=2, num_vcs=2, seed=11), load=0.3,
        faults=plan, tracer=tracer, trace_switch=(0, 0, 0),
    ), clock)
    return _observe(perturb(sim), tracer,
                    lambda s: s.run(warmup=40, measure=200, drain=600))


def _switch(router_cls, clock, perturb=_unperturbed):
    tracer = TraceCollector()
    sim = clocked(SwitchSimulation(router_cls(RouterConfig(radix=16, seed=5)),
                                   load=0.7, tracer=tracer), clock)
    return _observe(perturb(sim), tracer, lambda s: s.run(
        SweepSettings(warmup=40, measure=120, drain=400)))


def _switch_workload(clock, perturb=_unperturbed):
    tracer = TraceCollector()
    sim = clocked(SwitchSimulation(
        BaselineRouter(RouterConfig(radix=8, seed=7)),
        workload=all_reduce(8, size=2), tracer=tracer,
    ), clock)
    return _observe(perturb(sim), tracer,
                    lambda s: s.run_workload(max_cycles=50_000))


def _clos_workload(clock, perturb=_unperturbed):
    tracer = TraceCollector()
    sim = clocked(NetworkSimulation(
        NetworkConfig(radix=8, levels=2, num_vcs=2, packet_size=2, seed=7),
        workload=all_reduce(16, size=2), tracer=tracer,
    ), clock)
    return _observe(perturb(sim), tracer,
                    lambda s: s.run_workload(max_cycles=100_000))


@functools.lru_cache(maxsize=None)
def _plain(observe, *args):
    """``observe(*args)`` unperturbed, run once per module."""
    return observe(*args)


def _shuffled(seed):
    return lambda sim: shuffle_compute(sim, seed)


def _both(sim):
    return over_poll(shuffle_compute(sim, 1))


ON_BOTH_CLOCKS = pytest.mark.parametrize("clock", CLOCKS)


@ON_BOTH_CLOCKS
class TestComputeOrder:
    """``compute`` only stages intents, so running a cycle's computes in
    any order reproduces everything, interleaved hook stream included."""

    @pytest.mark.parametrize("name, seed", [
        ("r16-l2-0.9", 1), ("r8-tight-0.95", 2),
        ("r8-l2-0.9", 1), ("r8-l2-0.9", 2), ("r8-l2-0.9", 3),
        ("r8-l2-0.5", 1),
    ])
    def test_clos(self, clock, name, seed):
        assert _clos(name, clock, _shuffled(seed)) == _plain(
            _clos, name, clock)

    def test_faulted_traced_clos(self, clock):
        assert _faulted_clos(clock, _shuffled(1)) == _plain(
            _faulted_clos, clock)

    def test_clos_workload(self, clock):
        assert _clos_workload(clock, _shuffled(1)) == _plain(
            _clos_workload, clock)


@ON_BOTH_CLOCKS
class TestOverPolling:
    """Probes answer questions; asking again changes nothing."""

    def test_clos(self, clock):
        assert _clos("r16-l2-0.9", clock, over_poll) == _plain(
            _clos, "r16-l2-0.9", clock)

    def test_faulted_traced_clos(self, clock):
        assert _faulted_clos(clock, over_poll) == _plain(
            _faulted_clos, clock)

    def test_clos_workload(self, clock):
        assert _clos_workload(clock, over_poll) == _plain(
            _clos_workload, clock)

    @pytest.mark.parametrize("router_cls", ALL_ROUTERS)
    def test_switch(self, clock, router_cls):
        """The switch stack schedules one component, so its compute
        shuffle is trivial; it rides along with the over-poll."""
        assert _switch(router_cls, clock, _both) == _switch(
            router_cls, clock)

    def test_switch_workload(self, clock):
        assert _switch_workload(clock, _both) == _switch_workload(
            clock)


_RACE = pytest.mark.xfail(
    strict=True,
    reason="credits returned in commit reach an upstream router in the "
    "same cycle only if it commits later (ROADMAP item 8(b))",
)


@pytest.mark.parametrize("name", [
    pytest.param("r16-l2-0.9", marks=_RACE),
    pytest.param("r8-l3-0.9", marks=_RACE),
    pytest.param("r8-tight-0.95", marks=_RACE),
    pytest.param("r8-l2-0.9", marks=_RACE),
    "r8-l2-0.5",
])
def test_commit_order(name):
    """The row, extras and trace bytes must not follow commit order.
    The hook-event stream does, by construction (see
    ``perturb.EventRecord``), so it is left out."""
    plain = _plain(_clos, name, "cycle")
    for seed in (1, 2, 3):
        shuffled = _clos(name, "cycle", lambda sim: shuffle_commit(sim, seed))
        assert shuffled[:3] == plain[:3], seed


class TestOracleSees:
    """Each perturbation catches the mutation it exists for."""

    def test_compute_shuffle_sees_a_hook_event_from_compute(
        self, monkeypatch
    ):
        """A ``credit`` event fired from ``compute`` leaks a staged
        intent; the compute shuffle moves it within the stream."""
        compute = NetworkRouter.compute

        def emitting(self, cycle):
            compute(self, cycle)
            for _, vc in self._staged_credits:
                if self.hooks.credit:
                    self.hooks.emit_credit(-1, vc, cycle)

        monkeypatch.setattr(NetworkRouter, "compute", emitting)
        plain = _clos("r8-l2-0.9", "cycle")
        shuffled = _clos("r8-l2-0.9", "cycle", _shuffled(1))
        assert shuffled[:3] == plain[:3]
        assert shuffled[3] != plain[3]

    def test_over_poll_sees_a_counting_probe(self, monkeypatch):
        """A ``next_event`` that counts its calls makes extras depend on
        how often the scheduler asked."""
        next_event = Router.next_event

        def counting(self, now):
            self.stats.bump("next_event_polls")
            return next_event(self, now)

        monkeypatch.setattr(Router, "next_event", counting)
        plain = _switch(BaselineRouter, "cycle")
        polled = _switch(BaselineRouter, "cycle", over_poll)
        assert polled[0] == plain[0]
        assert polled[1] != plain[1]
