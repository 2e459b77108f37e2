"""A cycle's outcome depends on neither evaluation order nor probe count.

The two-phase split lets the scheduler evaluate components in any
order, and the engine, the harness and the wake horizons probe
``next_event``, the wake sources and the workload as often as they
like.  Both claims are checked from outside, through the oracle in
``tests/perturb.py``: the ``shuffle_compute`` and ``over_poll`` lanes
of ``tests/test_differential.py`` draw them over every stack, and the
runs here are their pinned points.  A perturbed run must reproduce the
plain run's row, extras, Chrome-trace bytes and hook-event stream
byte for byte.

Commit order is the exception.  A router's commit returns credits
upstream, and the upstream router may spend them in the same cycle
only if it commits later.  Under credit pressure, results therefore
follow commit order (ROADMAP item 8(b)).  Those rows are strict
xfails, so the fix for that race has to remove the marks.
"""

from functools import partial

import pytest

from repro.faults import FaultPlan, LinkFault
from repro.network.router import NetworkRouter
from repro.routers.base import Router
from repro.workloads import all_reduce

from tests.differential import ROUTERS, Run, compare, observed, plain
from tests.perturb import over_poll, shuffle_commit, shuffle_compute


def _clos(name):
    fields = dict(radix=8, load=0.9, num_vcs=None, packet_size=1,
                  window=(100, 300, 1500), traced=True)
    fields.update({
        "r16-l2-0.9": dict(radix=16),
        "r8-l3-0.9": dict(levels=3),
        "r8-tight-0.95": dict(num_vcs=1, depth=2, flit_cycles=1,
                              packet_size=4, load=0.95),
        "r8-l2-0.9": {},
        "r8-l2-0.5": dict(load=0.5),
    }[name])
    return Run("clos", seed=1, **fields)


#: Radix 16 with host-channel corruption, credit loss and two dead
#: links, traced at a leaf.
FAULTED_CLOS = Run(
    "clos", radix=16, seed=11, load=0.3, packet_size=1, traced=True,
    window=(40, 200, 600), faults=FaultPlan(
        corrupt_rate=0.01,
        credit_loss_rate=0.02,
        links=(
            LinkFault(cycle=30, switch=(0, 1, 0), port=9, until=120),
            LinkFault(cycle=50, switch=(1, 0, 2), port=0, until=90),
        ),
    ),
)
CLOS_WORKLOAD = Run("clos", seed=7, traced=True, max_cycles=100_000,
                    workload=partial(all_reduce, 16, size=2))
SWITCH_WORKLOAD = Run("baseline", packet_size=1, num_vcs=None, traced=True,
                      workload=partial(all_reduce, 8, size=2))


def _switch(stack):
    return Run(stack, radix=16, num_vcs=None, packet_size=1, seed=5,
               load=0.7, traced=True, window=(40, 120, 400))


class TestComputeOrder:
    """``compute`` only stages intents, so running a cycle's computes in
    any order reproduces everything, interleaved hook stream included."""

    @pytest.mark.parametrize("name, seed", [
        ("r16-l2-0.9", 1), ("r8-tight-0.95", 2),
        ("r8-l2-0.9", 1), ("r8-l2-0.9", 2), ("r8-l2-0.9", 3),
        ("r8-l2-0.5", 1),
    ])
    def test_clos(self, name, seed):
        compare("shuffle_compute", _clos(name), seed)

    def test_faulted_traced_clos(self):
        compare("shuffle_compute", FAULTED_CLOS)

    def test_clos_workload(self):
        compare("shuffle_compute", CLOS_WORKLOAD)


class TestOverPolling:
    """Probes answer questions; asking again changes nothing."""

    def test_clos(self):
        compare("over_poll", _clos("r16-l2-0.9"))

    def test_faulted_traced_clos(self):
        compare("over_poll", FAULTED_CLOS)

    def test_clos_workload(self):
        compare("over_poll", CLOS_WORKLOAD)

    @pytest.mark.parametrize("stack", [
        pytest.param(name, id=cls.__name__) for name, cls in ROUTERS.items()
    ])
    def test_switch(self, stack):
        compare("over_poll", _switch(stack))

    def test_switch_workload(self):
        compare("over_poll", SWITCH_WORKLOAD)


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
    The hook-event stream and the order of the trace's lifecycle
    records do, by construction (see ``perturb.EventRecord``), so they
    are left out."""
    kept = ("row", "extra", "chrome")
    expect = [plain(_clos(name))[1][key] for key in kept]
    for seed in (1, 2, 3):
        _, shuffled = observed(_clos(name),
                               lambda sim: shuffle_commit(sim, seed))
        assert [shuffled[key] for key in kept] == expect, seed


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
        run = _clos("r8-l2-0.9")
        _, seen = observed(run, events=True)
        _, shuffled = observed(run, lambda sim: shuffle_compute(sim, 1),
                               events=True)
        assert shuffled["events"] != seen.pop("events")
        del shuffled["events"]
        assert shuffled == seen

    def test_over_poll_sees_a_counting_probe(self, monkeypatch):
        """A ``next_event`` that counts its calls makes extras depend on
        how often the scheduler asked."""
        next_event = Router.next_event

        def counting(self, now):
            self.stats.bump("next_event_polls")
            return next_event(self, now)

        monkeypatch.setattr(Router, "next_event", counting)
        run = _switch("baseline")
        _, seen = observed(run)
        _, polled = observed(run, over_poll)
        assert polled["row"] == seen["row"]
        assert polled["extra"] != seen["extra"]
