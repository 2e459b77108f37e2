"""The occupancy-indexed ``NetworkRouter`` hot path moves no byte.

``NetworkRouter._allocate`` visits only inputs that hold a flit and
resolves each requested output through the sparse
:meth:`~repro.core.arbiter.RoundRobinArbiter.grant`; these tests pin
that against the commit before the index existed (a digest), against
the exhaustive oracle (``tests/exhaustive.py``) that ignores the index
(differentials under faults and tracing), and across checkpoints
written by earlier commits (restore rebuilds the index).
"""

import hashlib
import pickle
from pathlib import Path

import pytest

from repro.core.arbiter import HAVE_NUMPY
from repro.faults import FaultPlan, LinkFault
from repro.harness.checkpoint import CHECKPOINT_FORMAT, load_checkpoint
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.network.router import NetworkRouter
from repro.trace import TraceCollector, chrome_trace_json
from tests.exhaustive import exhaustive

FIXTURES = Path(__file__).parent / "fixtures" / "checkpoints"

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
        RC/ST records, pinned by a digest computed at the commit
        *before* the occupancy index and the sparse grant replaced the
        port x VC scan."""
        tracer = TraceCollector(capacity=100000)
        sim = NetworkSimulation(
            NetworkConfig(radix=64, levels=2, seed=7), load=0.3,
            tracer=tracer,
        )
        result = sim.run(warmup=40, measure=80, drain=400)
        assert result.cycles == 181
        assert tracer.grants > 700
        digest = hashlib.sha256()
        digest.update(repr(sorted(_row(result).items())).encode())
        digest.update(repr(sorted(result.extra.items())).encode())
        digest.update(chrome_trace_json(tracer).encode())
        digest.update(repr(tracer.records(completed_only=False)).encode())
        assert digest.hexdigest() == (
            "9330748cb21e667f12df9e49fb7c75f4"
            "269eb1ee59d4dfb8346747168d406894"
        )


def _observe(radix, num_vcs, scheduler, load, oracle):
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
    sim = NetworkSimulation(
        config, load=load, faults=plan, scheduler=scheduler,
        tracer=tracer, trace_switch=leaf,
    )
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

    # Event mode syncs a host's numpy stream mirror with its Python
    # stream at every arrival (~0.2 ms), so the 1,024-host event run
    # offers a third of the load to stay a two-second test.
    @pytest.mark.parametrize("radix, num_vcs, scheduler, load", [
        (64, 4, "cycle", 0.3), (64, 4, "event", 0.1),
        (16, 2, "cycle", 0.3), (16, 2, "event", 0.3),
    ])
    def test_faulted_traced_run(self, radix, num_vcs, scheduler, load):
        indexed = _observe(radix, num_vcs, scheduler, load, oracle=False)
        oracle = _observe(radix, num_vcs, scheduler, load, oracle=True)
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


class TestParentWrittenCheckpoint:
    """``tests/fixtures/checkpoints/net_format4_*.ckpt`` were written
    by the commit before the index existed: a radix-4 Clos at load 0.9
    paused at cycle 122 with 11 flits buffered in two routers and 8 in
    the hosts' (then ``list``) source queues.  Their router captures
    carry ``_in_active``/``_resident`` and no per-input count; restore
    recounts the indices from the banks, so the run continues to the
    row the parent commit itself reached, uninterrupted."""

    @pytest.mark.parametrize("scheduler, skipped, jumps", [
        ("cycle", 0.0, 0.0), ("event", 6.0, 3.0),
    ])
    def test_restores_and_continues(self, scheduler, skipped, jumps):
        if CHECKPOINT_FORMAT != 4:
            pytest.skip("the fixtures are format-4 files")
        if scheduler == "event" and not HAVE_NUMPY:
            # Written with numpy: the host streams sit at the mirrors'
            # last sync, which only a build with mirrors can resume.
            pytest.skip("an event-mode capture resumes only with numpy")
        sim = load_checkpoint(FIXTURES / f"net_format4_{scheduler}.ckpt")
        assert sim.cycle == 122
        assert [r._resident for r in sim.routers.values()] == [5, 6, 0, 0]
        for router in sim.routers.values():
            assert router._in_flits == [len(b) for b in router.inputs]
            assert router._occupied == {
                port for port, bank in enumerate(router.inputs) if len(bank)
            }
        assert [len(q) for q in sim._source_q] == [0, 3, 5, 0]
        assert sim.advance_run()
        result = sim.finish_run()
        assert _row(result) == {
            "offered_load": 0.9, "avg_latency": 59.707317073170735,
            "p99_latency": 150.60000000000002, "max_latency": 161.0,
            "throughput": 0.56, "packets_measured": 41, "cycles": 330,
            "saturated": False,
        }
        assert result.extra == {
            "stats.engine.cycles_skipped": skipped,
            "stats.engine.ff_jumps": jumps,
            "stats.traffic.max_source_queue": 19.0,
        }


class TestParentWrittenExhaustiveCheckpoint:
    """``tests/fixtures/checkpoints/net_format4_exhaustive.ckpt`` was
    written on the exhaustive schedule, when that was still a
    constructor option: a radix-4 Clos in event mode at load 0.8,
    paused mid-drain at cycle 260 with 35 flits buffered in two routers.
    Its spec carries the retired option's key and its scheduler snapshot
    marks every router active; restore ignores the key, the routers
    park at their next idle commit, and the run continues to the row
    (and every extra but the engine's) that the parent commit reached
    uninterrupted."""

    def test_restores_and_continues(self):
        if CHECKPOINT_FORMAT != 4:
            pytest.skip("the fixture is a format-4 file")
        path = FIXTURES / "net_format4_exhaustive.ckpt"
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        assert payload["spec"]["active_set"] is False
        assert payload["spec"]["scheduler"] == "event"
        sim = load_checkpoint(path)
        assert sim.cycle == 260
        assert sim._program["stage"] == 2  # draining
        assert sim._sched.active_count() == len(sim.routers)
        assert [r._resident for r in sim.routers.values()] == [12, 23, 0, 0]
        for router in sim.routers.values():
            assert router._in_flits == [len(b) for b in router.inputs]
        assert [len(q) for q in sim._source_q] == [1, 1, 1, 1]
        assert sim.advance_run()
        result = sim.finish_run()
        assert _row(result) == {
            "offered_load": 0.8, "avg_latency": 45.68852459016394,
            "p99_latency": 96.78999999999999, "max_latency": 108.0,
            "throughput": 0.6666666666666666, "packets_measured": 122,
            "cycles": 351, "saturated": False,
        }
        assert {
            k: v for k, v in result.extra.items()
            if not k.startswith("stats.engine.")
        } == {"stats.traffic.max_source_queue": 5.0}
