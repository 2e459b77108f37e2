"""Event-driven fast-forward: cycle/event byte-identity and safety.

The :class:`~repro.engine.EventScheduler` may only change *wall-clock*
behavior, never simulation behavior: every statistic, every trace
byte, and every fault-recovery action must be identical to the cycle
stepper's.  These tests pin that contract deterministically for every
switch organization and the Clos network — including under tracing and
fault plans — and property-test it across random seeds and loads.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import RouterConfig
from repro.engine import EventScheduler, Scheduler, make_scheduler
from repro.faults import FaultPlan
from repro.harness.experiment import SweepSettings, SwitchSimulation
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.routers.baseline import BaselineRouter
from repro.routers.buffered import BufferedCrossbarRouter
from repro.routers.distributed import DistributedRouter
from repro.routers.hierarchical import HierarchicalCrossbarRouter
from repro.routers.shared_buffer import SharedBufferCrossbarRouter
from repro.routers.voq import VoqRouter

ROUTERS = {
    "baseline": BaselineRouter,
    "distributed": DistributedRouter,
    "buffered": BufferedCrossbarRouter,
    "shared-buffer": SharedBufferCrossbarRouter,
    "hierarchical": HierarchicalCrossbarRouter,
    "voq": VoqRouter,
}

SETTINGS = SweepSettings(warmup=150, measure=250, drain=3000)


def _config(seed: int = 7) -> RouterConfig:
    return RouterConfig(radix=8, num_vcs=2, subswitch_size=4,
                        local_group_size=4, seed=seed)


def _normalize(snap: dict) -> dict:
    # A zero-packet measurement window reports NaN latencies; NaN
    # never compares equal to itself, so map it to None to keep the
    # snapshot equality meaningful for such runs.
    import math

    return {
        k: None if isinstance(v, float) and math.isnan(v) else v
        for k, v in snap.items()
    }


def _switch_snapshot(arch: str, scheduler: str, load: float = 0.2,
                     seed: int = 7, faults=None) -> dict:
    sim = SwitchSimulation(
        ROUTERS[arch](_config(seed)), load=load, packet_size=2,
        faults=faults, scheduler=scheduler,
    )
    result = sim.run(SETTINGS)
    snap = {
        f: getattr(result, f)
        for f in ("offered_load", "avg_latency", "p99_latency",
                  "max_latency", "throughput", "packets_measured",
                  "cycles", "saturated")
    }
    snap.update({
        k: v for k, v in result.extra.items()
        if not k.startswith("stats.engine.")
    })
    return _normalize(snap)


def _network_snapshot(scheduler: str, load: float = 0.2,
                      seed: int = 7, faults=None) -> dict:
    cfg = NetworkConfig(radix=4, levels=2, num_vcs=2, packet_size=2,
                        seed=seed)
    sim = NetworkSimulation(cfg, load, faults=faults,
                                scheduler=scheduler)
    result = sim.run(warmup=150, measure=250, drain=3000)
    snap = {
        f: getattr(result, f)
        for f in ("offered_load", "avg_latency", "p99_latency",
                  "max_latency", "throughput", "packets_measured",
                  "cycles", "saturated")
    }
    snap.update({
        k: v for k, v in result.extra.items()
        if not k.startswith("stats.engine.")
    })
    return _normalize(snap)


class TestFactory:
    def test_make_scheduler_modes(self):
        assert type(make_scheduler("cycle")) is Scheduler
        assert type(make_scheduler("event")) is EventScheduler

    def test_make_scheduler_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("turbo")


class TestSwitchEquivalence:
    """Every organization: event mode == cycle mode, byte for byte."""

    @pytest.mark.parametrize("arch", sorted(ROUTERS))
    def test_results_identical(self, arch):
        assert (_switch_snapshot(arch, "cycle")
                == _switch_snapshot(arch, "event"))

    def test_low_load_actually_fast_forwards(self):
        sim = SwitchSimulation(
            HierarchicalCrossbarRouter(_config()), load=0.02,
            scheduler="event",
        )
        sim.run(SETTINGS)
        assert sim._sched.cycles_skipped > 0
        assert sim._sched.ff_jumps > 0

    def test_cycle_mode_never_skips(self):
        sim = SwitchSimulation(
            HierarchicalCrossbarRouter(_config()), load=0.02,
        )
        result = sim.run(SETTINGS)
        assert sim._sched.cycles_skipped == 0
        assert result.extra["stats.engine.cycles_skipped"] == 0.0

    def test_skip_counters_land_in_extras(self):
        sim = SwitchSimulation(
            HierarchicalCrossbarRouter(_config()), load=0.02,
            scheduler="event",
        )
        result = sim.run(SETTINGS)
        assert result.extra["stats.engine.cycles_skipped"] == float(
            sim._sched.cycles_skipped
        )
        assert result.extra["stats.engine.ff_jumps"] == float(
            sim._sched.ff_jumps
        )

    def test_identical_under_fault_plan(self):
        plan = FaultPlan(corrupt_rate=0.02, credit_loss_rate=0.01)
        assert (_switch_snapshot("buffered", "cycle", faults=plan)
                == _switch_snapshot("buffered", "event", faults=plan))


class TestNetworkEquivalence:
    def test_results_identical(self):
        assert _network_snapshot("cycle") == _network_snapshot("event")

    def test_identical_under_fault_plan(self):
        plan = FaultPlan(corrupt_rate=0.02, credit_loss_rate=0.01)
        assert (_network_snapshot("cycle", load=0.1, faults=plan)
                == _network_snapshot("event", load=0.1, faults=plan))

    def test_low_load_actually_fast_forwards(self):
        cfg = NetworkConfig(radix=4, levels=2, num_vcs=2)
        sim = NetworkSimulation(cfg, 0.02, scheduler="event")
        sim.run(warmup=150, measure=250, drain=3000)
        assert sim._sched.cycles_skipped > 0

    def test_scalar_fallback_matches_bulk_draws(self, monkeypatch):
        # Arrival pre-drawing has two implementations: a vectorized
        # search over numpy state rows (low rates, numpy present) and
        # a pure-Python bounded loop.  Both must consume the host RNG
        # streams identically.
        import repro.network.arrivals as arrivals

        if not arrivals.HAVE_NUMPY:
            pytest.skip("numpy unavailable; the fallback is the only path")
        monkeypatch.setattr(arrivals, "BULK_MAX_RATE", 1.0)
        bulk = _network_snapshot("event")
        monkeypatch.setattr(arrivals, "HAVE_NUMPY", False)
        scalar = _network_snapshot("event")
        assert scalar == bulk


class TestTraceEquivalence:
    """Fast-forward must be invisible in the exported Chrome trace."""

    def _chrome_bytes(self, scheduler, load=0.1, seed=9):
        from repro.trace import TraceCollector, chrome_trace_json

        collector = TraceCollector()
        sim = SwitchSimulation(
            HierarchicalCrossbarRouter(_config(seed)), load=load,
            tracer=collector, scheduler=scheduler,
        )
        sim.run(SETTINGS)
        return chrome_trace_json(collector)

    def test_trace_byte_identical(self):
        assert self._chrome_bytes("cycle") == self._chrome_bytes("event")

    def test_trace_byte_identical_at_low_load(self):
        # Low load maximizes skipped spans; the replayed cycle hooks
        # must keep the collector's cycle accounting identical.
        assert (self._chrome_bytes("cycle", load=0.02)
                == self._chrome_bytes("event", load=0.02))

    def test_scheduler_stats_opt_in_only(self):
        from repro.trace import TraceCollector
        from repro.trace.chrome import to_chrome_trace

        collector = TraceCollector()
        plain = to_chrome_trace(collector)
        assert "scheduler" not in plain["otherData"]
        tagged = to_chrome_trace(
            collector, scheduler_stats={"cycles_skipped": 5, "ff_jumps": 1}
        )
        assert tagged["otherData"]["scheduler"] == {
            "cycles_skipped": 5, "ff_jumps": 1,
        }


class TestPropertyEquivalence:
    """Randomized seeds/loads: the equivalence is not knife-edge."""

    @settings(max_examples=12, deadline=None)
    @given(
        arch=st.sampled_from(sorted(ROUTERS)),
        seed=st.integers(min_value=0, max_value=2**16),
        load=st.sampled_from([0.02, 0.1, 0.3, 0.6]),
    )
    def test_switch_stats_identical(self, arch, seed, load):
        assert (_switch_snapshot(arch, "cycle", load=load, seed=seed)
                == _switch_snapshot(arch, "event", load=load, seed=seed))

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        load=st.sampled_from([0.02, 0.15, 0.4]),
    )
    def test_network_stats_identical(self, seed, load):
        assert (_network_snapshot("cycle", load=load, seed=seed)
                == _network_snapshot("event", load=load, seed=seed))


class TestArrivalPreDraw:
    """The bulk pre-draw searches ``DRAW_CHUNK`` polls per numpy call
    and must consume each host stream exactly as the scalar loop's
    one-poll-at-a-time search does, wherever a hit falls relative to a
    chunk or to the edge of a staged ``HostArrivals.extend`` window."""

    CFG = dict(radix=4, levels=2, num_vcs=2, seed=13)
    LOAD = 0.02  # one poll in 200 hits: above the real crossover

    def _arrivals(self, monkeypatch, numpy, chunk, stages, rows=None):
        """Every generated packet as (cycle, host, dest), plus the
        pre-draw bookkeeping after each staged ``run_until``."""
        import repro.network.arrivals as arrivals

        monkeypatch.setattr(arrivals, "HAVE_NUMPY", numpy)
        monkeypatch.setattr(arrivals, "DRAW_CHUNK", chunk)
        monkeypatch.setattr(arrivals, "BULK_MAX_RATE", 1.0)
        sim = NetworkSimulation(
            NetworkConfig(**self.CFG), self.LOAD, scheduler="event"
        )
        assert sim.arrivals.bulk == (numpy if rows is None else rows)
        packets, books = [], []
        generate = sim._generate_packet

        def logged(host, now, message=None):
            generate(host, now, message)
            packets.append((now, host, sim._source_q[host][-1].dest))

        sim._generate_packet = logged
        for end in stages:
            sim.run_until(end)
            book = sim.arrivals.snapshot()["arrivals"]
            books.append((book["cursor"], book["heap"], book["undrawn"]))
        return packets, books

    def test_hits_on_chunk_and_window_edges(self, monkeypatch):
        import repro.network.arrivals as arrivals

        if not arrivals.HAVE_NUMPY:
            pytest.skip("numpy unavailable; the fallback is the only path")
        stages = (2000,)
        scalar, _ = self._arrivals(monkeypatch, False, 8192, stages)
        hit = min(cycle for cycle, host, _ in scalar if host == 0)
        assert 8 < hit < 1000 and len(scalar) > 20
        cases = [
            (hit + 1, stages),        # the last poll of the first chunk
            (hit, stages),            # the first poll of the second chunk
            (7, stages),              # many chunks per gap
            (8192, (hit + 1, 2000)),  # at limit - 1 of the first window
            (8192, (hit, hit + 1, 2000)),  # first poll of the next window
            (hit, (hit, 2 * hit, 2000)),   # chunk edge on window edge
        ]
        for chunk, windows in cases:
            expect = self._arrivals(monkeypatch, False, chunk, windows)
            got = self._arrivals(monkeypatch, True, chunk, windows)
            assert got == expect, (chunk, windows)
            assert got[0] == scalar

    def test_failed_self_check_takes_the_scalar_loop(self, monkeypatch):
        """numpy's state struct is not ours: when the construction-time
        check of the view fails, event mode polls the Python streams
        as if numpy were absent — same arrivals, same bookkeeping."""
        import repro.network.arrivals as arrivals

        if not arrivals.HAVE_NUMPY:
            pytest.skip("numpy unavailable; the fallback is the only path")
        stages = (700, 2000)
        bulk = self._arrivals(monkeypatch, True, 64, stages)
        assert len(bulk[0]) > 20
        monkeypatch.setattr(
            arrivals.StreamRows, "_view_is_faithful", lambda self: False
        )
        refused = self._arrivals(monkeypatch, True, 64, stages, rows=False)
        assert refused == bulk
        assert refused == self._arrivals(monkeypatch, False, 64, stages)

    @pytest.mark.parametrize("side", [0.9, 1.1])
    def test_three_ways_agree_across_the_crossover(self, monkeypatch, side):
        """Either side of the real ``BULK_MAX_RATE``: the cycle
        stepper, event mode as built (rows below the constant, the
        scalar loop above it) and event mode without numpy produce the
        same result and extras, and leave every host stream in the
        same state once each is brought to the pre-draw cursor."""
        import copy

        import repro.network.arrivals as arrivals

        cfg = NetworkConfig(radix=8, levels=2, num_vcs=2, packet_size=2,
                            seed=5)
        load = side * arrivals.BULK_MAX_RATE * cfg.flit_cycles * cfg.packet_size

        def run(scheduler, numpy):
            monkeypatch.setattr(arrivals, "HAVE_NUMPY", numpy)
            sim = NetworkSimulation(cfg, load, scheduler=scheduler)
            result = sim.run(warmup=2000, measure=20000, drain=3000)
            assert result.packets_measured > 60
            return sim.arrivals, result

        have = arrivals.HAVE_NUMPY
        cycle, expect = run("cycle", have)
        built, result = run("event", have)
        scalar, result2 = run("event", False)
        assert built.bulk == (have and side < 1)
        assert not scalar.bulk
        assert result == result2 and result.extra == result2.extra
        assert result.extra["stats.engine.cycles_skipped"] > 10000
        for extra in (expect.extra, result.extra):
            for name in [n for n in extra if n.startswith("stats.engine.")]:
                del extra[name]
        assert result == expect and result.extra == expect.extra
        book = built.snapshot()["arrivals"]
        assert book["cursor"] == scalar.snapshot()["arrivals"]["cursor"]
        for host, polled in enumerate(cycle.streams):
            polled = copy.copy(polled)
            for _ in range(book["cursor"][host] - expect.cycles):
                polled.random()
            # With rows the Python stream waits at the host's last
            # sync; the polls since are what its row is ahead by.
            stream = copy.copy(built.streams[host])
            for _ in range(book["cursor"][host] - book["sync_cursor"][host]):
                stream.random()
            assert (polled.getstate() == stream.getstate()
                    == scalar.streams[host].getstate()), host

    def _doubles_drawn(self, monkeypatch, measure):
        """(doubles drawn on the one shared generator, polls cycle mode
        would make, the most the design may draw)."""
        import repro.network.arrivals as arrivals

        drawn, generated = [0], [0]

        class CountingRows(arrivals.StreamRows):
            def __init__(self, streams, chunk):
                super().__init__(streams, chunk)
                draw = self._draw

                def counted_draw(count):
                    drawn[0] += count
                    return draw(count)

                self._draw = counted_draw

        monkeypatch.setattr(arrivals, "StreamRows", CountingRows)
        sim = NetworkSimulation(
            NetworkConfig(radix=16, levels=2, num_vcs=2, packet_size=2,
                          seed=7),
            1e-4, scheduler="event",
        )
        assert sim.arrivals.bulk and drawn == [0]
        generate = sim._generate_packet

        def counted_generate(host, now, message=None):
            generated[0] += 1
            generate(host, now, message)

        sim._generate_packet = counted_generate
        result = sim.run(warmup=1000, measure=measure, drain=5000)
        assert result.packets_measured > 40
        hosts = sim.topology.num_hosts
        book = sim.arrivals.snapshot()["arrivals"]
        hits = generated[0] + len(book["heap"])  # some not yet due
        ceiling = hosts * book["draw_limit"] + hits * arrivals.DRAW_CHUNK
        return drawn[0], hosts * result.cycles, ceiling

    def test_doubles_drawn_track_polls(self, monkeypatch):
        """Cycle mode polls every host every cycle; byte-identity makes
        hosts x cycles the floor.  On top of it the search draws the
        chunk holding each hit twice — once whole, once up to the hit —
        and nothing else, so the total stays under polls + arrivals x
        ``DRAW_CHUNK`` and at most doubles (2.1x) when the window does
        (re-consuming the gap since each host's last arrival read 1.5x
        the floor and grew 2.25x here)."""
        import repro.network.arrivals as arrivals

        if not arrivals.HAVE_NUMPY:
            pytest.skip("numpy unavailable; nothing is drawn in bulk")
        drawn, polls, ceiling = self._doubles_drawn(monkeypatch, 62500)
        assert polls <= drawn <= ceiling
        doubled, polls2, ceiling2 = self._doubles_drawn(monkeypatch, 125000)
        assert polls2 > 1.9 * polls
        assert polls2 <= doubled <= ceiling2
        assert doubled <= 2.1 * drawn
