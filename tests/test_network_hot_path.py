"""The occupancy-indexed ``NetworkRouter`` hot path moves no byte.

``NetworkRouter._allocate`` visits only inputs that hold a flit and
resolves each requested output through the sparse
:meth:`~repro.core.arbiter.RoundRobinArbiter.grant`; these tests pin
that against the commit before the index existed (a digest).  The
``exhaustive`` lane of ``tests/test_differential.py`` draws small Clos
runs against the oracle that ignores the index (``tests/exhaustive.py``);
here are its pinned points, radix-64 ones among them, under faults and
tracing, and a check that the lane sees a broken index.
"""

import hashlib

import pytest

from repro.faults import FaultPlan, LinkFault
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.network.router import NetworkRouter
from repro.trace import TraceCollector, chrome_trace_json

from tests.differential import Run, compare, kept, observed
from tests.exhaustive import exhaustive, row


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
        digest.update(repr(sorted(row(result).items())).encode())
        digest.update(repr(sorted(result.extra.items())).encode())
        digest.update(chrome_trace_json(tracer).encode())
        digest.update(repr(tracer.records(completed_only=False)).encode())
        assert digest.hexdigest() == (
            "5a6ac1ddcf918d9a9c8154d235d12fb1"
            "6c091213f4d848658e06152e6864e5f4"
        )


def _faulted(radix, num_vcs, load):
    """One faulted, traced run: two dead links, credit loss and
    host-channel corruption, traced at the first leaf."""
    m = radix // 2
    return Run(
        "clos", radix=radix, num_vcs=num_vcs, packet_size=1, load=load,
        seed=11, traced=True, faults=FaultPlan(
            corrupt_rate=0.01,
            credit_loss_rate=0.02,
            links=(
                LinkFault(cycle=30, switch=(0, 1, 0), port=m + 1, until=120),
                LinkFault(cycle=50, switch=(1, 0, 2), port=0, until=90),
            ),
        ),
    )


class TestIndexedEqualsExhaustive:
    """The exhaustive oracle walks every input of every router every
    cycle and never consults ``_occupied``: the oracle for the skip
    rule, under the faults that hold flits in place."""

    @pytest.mark.parametrize("radix, num_vcs, load", [
        (64, 4, 0.3), (64, 4, 0.1), (16, 2, 0.3),
    ])
    def test_faulted_traced_run(self, radix, num_vcs, load):
        _, _, seen = compare("exhaustive", _faulted(radix, num_vcs, load))
        assert len(seen["faults"]) > 4
        assert seen["extra"]["stats.faults.credit_lost"] > 0

    def test_oracle_catches_an_unindexed_port(self, monkeypatch):
        """Port 1 never enters ``_occupied``, so allocation skips it
        while it holds flits.  The oracle ignores the index and runs as
        before; the indexed run must differ from it."""
        run = _faulted(16, 2, 0.3)
        oracle = kept("exhaustive", observed(run, exhaustive)[1])
        accept = NetworkRouter.accept

        def unindexed(self, port, flit):
            accept(self, port, flit)
            if port == 1:
                self._occupied.discard(1)

        monkeypatch.setattr(NetworkRouter, "accept", unindexed)
        assert kept("exhaustive", observed(run, exhaustive)[1]) == oracle
        assert kept("exhaustive", observed(run)[1]) != oracle
