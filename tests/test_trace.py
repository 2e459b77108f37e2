"""Tests for repro.trace: lifecycle collection, filters, exports.

Three layers of checking:

* unit tests for :class:`TraceFilter`, the ring buffer, and the Chrome
  trace / stage-breakdown consumers;
* property-based lifecycle invariants (hypothesis workloads through
  every switch organization): stage timestamps are monotone, every
  traced flit is injected and ejected exactly once, and every observed
  stage name comes from the router's declared ``TRACE_STAGES``;
* a differential test pinning measured contention-free stage spans to
  the static :func:`repro.core.pipeline_diagram.measured_pipeline`
  tables (and, where the paper's figure pipelines apply, to
  ``head_flit_latency(pipeline_for(...))``).
"""

import json
from collections import defaultdict

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import RouterConfig
from repro.core.flit import make_packet
from repro.core.pipeline_diagram import (
    head_flit_latency,
    measured_pipeline,
    pipeline_for,
)
from repro.harness.experiment import SwitchSimulation, SweepSettings
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.routers import (
    BaselineRouter,
    BufferedCrossbarRouter,
    DistributedRouter,
    HierarchicalCrossbarRouter,
    SharedBufferCrossbarRouter,
    VoqRouter,
)
from repro.routers.base import RouterStats
from repro.trace import (
    COUNT_ONLY,
    TraceCollector,
    TraceFilter,
    chrome_trace_events,
    chrome_trace_json,
    dump_chrome_trace,
    format_stage_breakdown,
    stage_breakdown,
    stage_spans,
)

#: (architecture key for measured_pipeline, router class, config extras)
ARCH_CASES = [
    ("baseline", BaselineRouter, {}),
    ("cva", DistributedRouter, {"vc_allocator": "cva"}),
    ("ova", DistributedRouter, {"vc_allocator": "ova"}),
    ("buffered", BufferedCrossbarRouter, {}),
    ("shared-buffer", SharedBufferCrossbarRouter, {}),
    ("hierarchical", HierarchicalCrossbarRouter, {}),
    ("voq", VoqRouter, {}),
]

ALL_ROUTERS = sorted({cls for _, cls, _ in ARCH_CASES}, key=lambda c: c.__name__)


def _config(**extra):
    return RouterConfig(
        radix=8, num_vcs=2, subswitch_size=4, local_group_size=4,
        input_buffer_depth=8, **extra,
    )


def _drive(router, packets, collector=None, cycles=6000):
    """Inject packets (respecting buffer space) and drain fully."""
    pending = defaultdict(list)
    for src, dest, size, vc in packets:
        for f in make_packet(dest=dest, size=size, src=src):
            f.vc = vc
            pending[(src, vc)].append(f)
    delivered = []
    for _ in range(cycles):
        for (src, vc), flits in pending.items():
            while flits and router.input_space(src, vc) > 0:
                router.accept(src, flits.pop(0))
        router.step()
        delivered.extend(router.drain_ejected())
        if router.idle() and not any(pending.values()):
            break
    assert router.idle() and not any(pending.values()), "did not drain"
    return delivered


packets_strategy = st.lists(
    st.tuples(
        st.integers(0, 7),  # src
        st.integers(0, 7),  # dest
        st.integers(1, 4),  # size
        st.integers(0, 1),  # vc
    ),
    min_size=1,
    max_size=15,
)


# ----------------------------------------------------------------------
# TraceFilter
# ----------------------------------------------------------------------


class TestTraceFilter:
    def _flit(self, packet_id, vc=0):
        (f,) = make_packet(dest=3, size=1, src=0, packet_id=packet_id)
        f.vc = vc
        return f

    def test_default_admits_everything(self):
        assert TraceFilter().admits(self._flit(17), port=5)

    def test_every_nth_samples_by_packet_id(self):
        filt = TraceFilter(every_nth=3)
        admitted = [p for p in range(9) if filt.admits(self._flit(p), 0)]
        assert admitted == [0, 3, 6]

    def test_flits_of_one_packet_kept_together(self):
        filt = TraceFilter(every_nth=2)
        flits = make_packet(dest=1, size=4, src=0, packet_id=4)
        assert all(filt.admits(f, 0) for f in flits)

    def test_port_and_vc_filters(self):
        filt = TraceFilter(ports=frozenset({1, 2}), vcs=frozenset({0}))
        assert filt.admits(self._flit(1, vc=0), port=1)
        assert not filt.admits(self._flit(1, vc=0), port=3)
        assert not filt.admits(self._flit(1, vc=1), port=1)

    def test_packet_id_set(self):
        filt = TraceFilter(packets=frozenset({7}))
        assert filt.admits(self._flit(7), 0)
        assert not filt.admits(self._flit(8), 0)

    def test_count_only_admits_nothing(self):
        assert not COUNT_ONLY.admits(self._flit(0), 0)

    def test_every_nth_validated(self):
        with pytest.raises(ValueError):
            TraceFilter(every_nth=0)

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            TraceCollector(capacity=0)


# ----------------------------------------------------------------------
# Collector mechanics
# ----------------------------------------------------------------------


class TestCollectorMechanics:
    def test_ring_buffer_evicts_oldest(self):
        router = BaselineRouter(_config())
        collector = TraceCollector(capacity=2).attach(router)
        packets = [(0, d, 1, 0) for d in (1, 2, 3)]
        _drive(router, packets)
        assert collector.opened == 3
        assert collector.evicted == 1
        recs = collector.records()
        assert len(recs) == 2
        # The oldest (dest=1) record was evicted.
        assert sorted(r.dest for r in recs) == [2, 3]

    def test_count_only_keeps_aggregates(self):
        router = BaselineRouter(_config())
        collector = TraceCollector(trace_filter=COUNT_ONLY).attach(router)
        _drive(router, [(0, 1, 2, 0), (1, 2, 1, 0)])
        assert collector.records() == []
        assert collector.opened == 0
        assert collector.accepts == 3
        assert collector.ejects == 3
        assert collector.grants >= 2

    def test_filtered_ports_only(self):
        router = BaselineRouter(_config())
        collector = TraceCollector(
            trace_filter=TraceFilter(ports=frozenset({0}))
        ).attach(router)
        _drive(router, [(0, 2, 1, 0), (1, 3, 1, 0)])
        recs = collector.records()
        assert {r.in_port for r in recs} == {0}

    def test_attach_unwraps_simulation(self):
        sim = SwitchSimulation(
            BaselineRouter(_config()), load=0.2, seed=3,
        )
        collector = TraceCollector().attach(sim)
        assert collector.label == "BaselineRouter"
        assert collector.declared_stages == BaselineRouter.TRACE_STAGES

    def test_fold_stats_counters(self):
        router = HierarchicalCrossbarRouter(_config())
        collector = TraceCollector().attach(router)
        _drive(router, [(0, 5, 2, 0), (1, 6, 1, 0)])
        collector.cycles = collector.cycles or 100  # standalone drive
        stats = RouterStats()
        collector.fold_stats(stats)
        assert stats.extra["trace.records"] == collector.completed
        assert "trace.chan_util_mean_permille" in stats.extra
        spec_keys = [k for k in stats.extra if k.startswith("trace.spec_")]
        assert spec_keys  # hierarchical emits subva outcomes

    def test_tracer_rides_switch_simulation(self):
        collector = TraceCollector()
        sim = SwitchSimulation(
            HierarchicalCrossbarRouter(_config()), load=0.3, seed=11,
            tracer=collector,
        )
        result = sim.run(SweepSettings(
            warmup=50, measure=100, drain=2000,
        ))
        assert collector.cycles > 0
        assert collector.completed > 0
        assert result.extra["stats.trace.records"] == collector.completed


# ----------------------------------------------------------------------
# Lifecycle invariants (property-based, all organizations)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("router_cls", ALL_ROUTERS)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(packets=packets_strategy)
def test_lifecycle_invariants(router_cls, packets):
    router = router_cls(_config())
    collector = TraceCollector(capacity=4096).attach(router)
    delivered = _drive(router, packets)

    # Inject/eject exactly once: every flit opened one record, every
    # record completed, no duplicates or double ejects.
    total_flits = sum(size for _, _, size, _ in packets)
    assert len(delivered) == total_flits
    assert collector.opened == total_flits
    assert collector.completed == total_flits
    assert collector.evicted == 0
    assert collector.reopened == 0
    assert collector.double_ejects == 0

    declared = set(router.TRACE_STAGES)
    for rec in collector.records():
        # Stage names come from the declared pipeline.
        names = [s for s, _, _ in rec.stages]
        assert set(names) <= declared
        # First observation is route computation at the inject cycle.
        assert names[0] == "RC"
        assert rec.stages[0][1] == rec.injected_at
        # Timestamps are monotone in emission order and bracketed by
        # the inject/eject cycles.
        cycles = [c for _, c, _ in rec.stages]
        assert all(a <= b for a, b in zip(cycles, cycles[1:]))
        assert rec.injected_at <= cycles[0]
        assert cycles[-1] <= rec.ejected_at
        assert rec.latency == rec.ejected_at - rec.injected_at
        # Spans partition [first stage, eject] without overlap.
        spans = stage_spans(rec)
        assert [s[0] for s in spans] == list(dict.fromkeys(names))
        for (_, start, end, _), (_, nstart, _, _) in zip(spans, spans[1:]):
            assert start <= end == nstart
        assert spans[-1][2] == rec.ejected_at


@pytest.mark.parametrize("router_cls", ALL_ROUTERS)
def test_declared_stages_cover_head_flit_path(router_cls):
    """A contention-free head flit visits every declared stage."""
    router = router_cls(_config())
    collector = TraceCollector().attach(router)
    _drive(router, [(0, 5, 1, 0)])
    (rec,) = collector.records()
    assert [s[0] for s in stage_spans(rec)] == list(router.TRACE_STAGES)


# ----------------------------------------------------------------------
# Differential: measured spans vs the static pipeline tables
# ----------------------------------------------------------------------


@pytest.mark.parametrize("arch,router_cls,extra", ARCH_CASES)
def test_contention_free_spans_match_measured_pipeline(
    arch, router_cls, extra
):
    config = _config(**extra)
    router = router_cls(config)
    collector = TraceCollector().attach(router)
    _drive(router, [(0, 5, 1, 0)])
    (rec,) = collector.records()

    expected = measured_pipeline(config, arch)
    spans = stage_spans(rec)
    assert [s[0] for s in spans] == [st.name for st in expected]
    assert [end - start for _, start, end, _ in spans] == [
        st.cycles for st in expected
    ]
    assert rec.latency == head_flit_latency(expected)


@pytest.mark.parametrize(
    "arch,router_cls,extra",
    [case for case in ARCH_CASES if case[0] in ("baseline", "cva", "ova")],
)
def test_measured_latency_matches_paper_pipeline(arch, router_cls, extra):
    """For the paper's figure pipelines the trace total is the figure
    total (default ova_extra_latency folds into the SA span)."""
    config = _config(**extra)
    router = router_cls(config)
    collector = TraceCollector().attach(router)
    _drive(router, [(0, 5, 1, 0)])
    (rec,) = collector.records()
    assert rec.latency == head_flit_latency(pipeline_for(config, arch))


def test_measured_pipeline_rejects_unknown_architecture():
    with pytest.raises(ValueError, match="hierarchical"):
        measured_pipeline(_config(), "mesh")


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------


def _traced_run(seed=7, load=0.3):
    collector = TraceCollector()
    sim = SwitchSimulation(
        HierarchicalCrossbarRouter(_config()), load=load, seed=seed,
        tracer=collector,
    )
    sim.run(SweepSettings(
        warmup=50, measure=150, drain=2000,
    ))
    return collector


class TestChromeExport:
    def test_event_stream_is_valid(self):
        collector = _traced_run()
        events = chrome_trace_events(collector)
        assert events, "no events for a loaded run"
        metadata = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert len(metadata) + len(spans) == len(events)
        # Metadata first: process and per-track thread names.
        assert events[: len(metadata)] == metadata
        assert any(e["name"] == "process_name" for e in metadata)
        for e in spans:
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(e)
            assert e["args"]["packet"] >= 0

    def test_json_round_trip(self, tmp_path):
        collector = _traced_run()
        path = tmp_path / "trace.json"
        count = dump_chrome_trace(collector, path)
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == count
        assert doc["displayTimeUnit"] == "ms"

    def test_empty_collector_exports_no_spans(self):
        events = chrome_trace_events(TraceCollector())
        assert [e for e in events if e["ph"] == "X"] == []
        doc = json.loads(chrome_trace_json(TraceCollector()))
        assert [e for e in doc["traceEvents"] if e["ph"] == "X"] == []

    def test_same_seed_byte_identical(self):
        a = chrome_trace_json(_traced_run(seed=21))
        b = chrome_trace_json(_traced_run(seed=21))
        assert a == b

    def test_different_seed_differs(self):
        a = chrome_trace_json(_traced_run(seed=21))
        b = chrome_trace_json(_traced_run(seed=22))
        assert a != b


# ----------------------------------------------------------------------
# Stage breakdown report
# ----------------------------------------------------------------------


class TestStageBreakdown:
    def test_summaries_per_stage(self):
        collector = _traced_run()
        summaries = stage_breakdown(collector)
        names = [s.stage for s in summaries]
        assert names == list(HierarchicalCrossbarRouter.TRACE_STAGES)
        for s in summaries:
            assert s.count > 0
            assert s.min <= s.mean <= s.max

    def test_format_includes_zero_load_column(self):
        collector = _traced_run()
        text = format_stage_breakdown(
            collector, config=_config(), architecture="hierarchical",
        )
        assert "zero-load" in text
        assert "total" in text
        for stage in HierarchicalCrossbarRouter.TRACE_STAGES:
            assert stage in text

    def test_format_without_reference_pipeline(self):
        collector = _traced_run()
        text = format_stage_breakdown(collector)
        assert "zero-load" not in text
        assert "RC" in text

    def test_empty_collector_formats(self):
        text = format_stage_breakdown(TraceCollector())
        assert "stage" in text


@pytest.mark.xfail(strict=True, reason=(
    "NetworkRouter emits flit_move('accept') but never 'eject', so no "
    "record on a traced Clos router completes (FOUND in CHANGES.md)"
))
def test_traced_clos_router_completes_records():
    tracer = TraceCollector()
    sim = NetworkSimulation(
        NetworkConfig(radix=8, levels=2, seed=3), load=0.3, tracer=tracer,
        trace_switch=(0, 0, 0),
    )
    result = sim.run(warmup=40, measure=120, drain=400)
    assert tracer.records(completed_only=False)
    assert result.extra["stats.trace.records"] > 0
