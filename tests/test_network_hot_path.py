"""The occupancy-indexed ``NetworkRouter`` hot path moves no byte.

``NetworkRouter._allocate`` visits only inputs that hold a flit and
resolves each requested output through the sparse
:meth:`~repro.core.arbiter.RoundRobinArbiter.grant`; these tests pin
that against the commit before the index existed (a digest) and against
the exhaustive oracle (``tests/exhaustive.py``) that ignores the index
(differentials under faults and tracing).
"""

import hashlib

import pytest

from repro.faults import FaultPlan, LinkFault
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.network.router import NetworkRouter
from repro.trace import TraceCollector, chrome_trace_json
from tests.exhaustive import clocked, exhaustive


ROW = (
    "offered_load", "avg_latency", "p99_latency", "max_latency",
    "throughput", "packets_measured", "cycles", "saturated",
)


def _row(result):
    return {name: getattr(result, name) for name in ROW}


class TestParentPinnedDigest:
    def test_radix64_clos_matches_parent_commit(self):
        """Radix 64, v=4, load 0.3, 1,024 hosts: result row, every
        extra, the Chrome-trace bytes and the traced router's per-flit
        RC/ST records, pinned by a digest first computed at the commit
        *before* the occupancy index and the sparse grant replaced the
        port x VC scan, and re-pinned once when arrivals became
        geometric gaps."""
        tracer = TraceCollector(capacity=100000)
        sim = NetworkSimulation(
            NetworkConfig(radix=64, levels=2, seed=7), load=0.3,
            tracer=tracer,
        )
        result = sim.run(warmup=40, measure=80, drain=400)
        assert result.cycles == 183
        assert tracer.grants > 700
        digest = hashlib.sha256()
        digest.update(repr(sorted(_row(result).items())).encode())
        digest.update(repr(sorted(result.extra.items())).encode())
        digest.update(chrome_trace_json(tracer).encode())
        digest.update(repr(tracer.records(completed_only=False)).encode())
        assert digest.hexdigest() == (
            "5a6ac1ddcf918d9a9c8154d235d12fb1"
            "6c091213f4d848658e06152e6864e5f4"
        )


def _observe(radix, num_vcs, clock, load, oracle):
    """One faulted, traced run: two dead links, credit loss,
    host-channel corruption, and two input VCs of the traced leaf
    wedged from cycle 0 until a pause at cycle 100."""
    config = NetworkConfig(radix=radix, levels=2, num_vcs=num_vcs, seed=11)
    m = radix // 2
    leaf, other = (0, 0, 0), (0, 1, 0)
    plan = FaultPlan(
        corrupt_rate=0.01,
        credit_loss_rate=0.02,
        links=(
            LinkFault(cycle=30, switch=other, port=m + 1, until=120),
            LinkFault(cycle=50, switch=(1, 0, 2), port=0, until=90),
        ),
    )
    tracer = TraceCollector(capacity=100000)
    sim = clocked(NetworkSimulation(
        config, load=load, faults=plan, tracer=tracer, trace_switch=leaf,
    ), clock)
    if oracle:
        exhaustive(sim)
    wedged = sim.routers[leaf]
    wedged._stuck_inputs.update({(0, 0), (m + 2, num_vcs - 1)})
    sim.start_run(warmup=40, measure=80, drain=400)
    assert not sim.advance_run(stop_at=100)
    paused = sim.cycle
    wedged._stuck_inputs.clear()
    assert sim.advance_run()
    result = sim.finish_run()
    faults = sorted(
        tracer.fault_events, key=lambda e: (e[3], e[0], e[1], str(e[2]))
    )
    return (
        result, result.extra, paused, faults, chrome_trace_json(tracer),
        repr(tracer.records(completed_only=False)),
    )


class TestIndexedEqualsExhaustive:
    """The exhaustive oracle walks every input of every router every
    cycle and never consults ``_occupied``: the oracle for the skip
    rule, under the faults that hold flits in place."""

    # "cycle" runs the indexed side under never_jump; the oracle
    # never jumps either way.
    @pytest.mark.parametrize("radix, num_vcs, clock, load", [
        (64, 4, "cycle", 0.3), (64, 4, "event", 0.1),
        (16, 2, "cycle", 0.3), (16, 2, "event", 0.3),
    ])
    def test_faulted_traced_run(self, radix, num_vcs, clock, load):
        indexed = _observe(radix, num_vcs, clock, load, oracle=False)
        oracle = _observe(radix, num_vcs, clock, load, oracle=True)
        result, extra, paused, faults, chrome, records = indexed
        assert paused == oracle[2] == 100
        assert result == oracle[0]
        assert extra == oracle[1]
        assert faults == oracle[3] and len(faults) > 4
        assert chrome == oracle[4]
        assert records == oracle[5]
        assert extra["stats.faults.credit_lost"] > 0

    def test_oracle_catches_an_unindexed_port(self, monkeypatch):
        """Port 1 never enters ``_occupied``, so allocation skips it
        while it holds flits.  The oracle ignores the index and runs as
        before; the indexed run must differ from it."""
        oracle = _observe(16, 2, "cycle", 0.3, oracle=True)
        accept = NetworkRouter.accept

        def unindexed(self, port, flit):
            accept(self, port, flit)
            if port == 1:
                self._occupied.discard(1)

        monkeypatch.setattr(NetworkRouter, "accept", unindexed)
        assert _observe(16, 2, "cycle", 0.3, oracle=True) == oracle
        assert _observe(16, 2, "cycle", 0.3, oracle=False) != oracle
