"""Checkpoint/restore round-trip properties.

Every test runs a reference simulation to completion, then a twin that
stops at a mid-run cycle ``K``, saves a checkpoint file, reloads it
into a freshly built simulation, and finishes from there.  The resumed
result must equal the straight-through result *exactly* — same
:class:`~repro.harness.stats.RunResult` (tuple equality covers every
metric) and same ``stats.*`` extras — for random seeds, loads, and
split points, across every switch organization, the Clos network,
both scheduler modes, and with fault injection and dependency-driven
workloads in the mix.

Hypothesis supplies the randomized coordinates; the deterministic
parametrized tests pin every organization so a regression names the
culprit directly.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import RouterConfig
from repro.faults import FaultPlan, StuckFault, sample_link_faults
from repro.harness import (
    CHECKPOINT_FORMAT,
    SwitchSimulation,
    SweepSettings,
    load_checkpoint,
)
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.network.topology import FoldedClos
from repro.routers import (
    BaselineRouter,
    BufferedCrossbarRouter,
    DistributedRouter,
    HierarchicalCrossbarRouter,
    SharedBufferCrossbarRouter,
    VoqRouter,
)
from repro.trace import TraceCollector, chrome_trace_json
from repro.workloads import all_reduce

ALL_ROUTERS = [
    BaselineRouter,
    DistributedRouter,
    BufferedCrossbarRouter,
    SharedBufferCrossbarRouter,
    HierarchicalCrossbarRouter,
    VoqRouter,
]

#: Short measurement program — long enough to cross warmup/measure
#: stage boundaries, short enough for property-test budgets.
FAST = SweepSettings(warmup=60, measure=120, drain=800)

FAULTS = FaultPlan(corrupt_rate=0.02, credit_loss_rate=0.01)

#: A crosspoint stuck through the measurement window, and an input read
#: port wedged inside it.
STUCK = FaultPlan(
    corrupt_rate=0.02,
    stuck=(
        StuckFault(cycle=50, where=(1, 0), kind="crosspoint", until=200),
        StuckFault(cycle=80, where=(2,), kind="input", until=150),
    ),
)

#: Switch round trips beyond the six plain organizations: a traced run
#: and a stuck-fault run.  The plain cases keep the organization's name
#: as their id.
SWITCH_CASES = [
    pytest.param(cls, FAULTS, False, id=cls.__name__) for cls in ALL_ROUTERS
] + [
    pytest.param(HierarchicalCrossbarRouter, FAULTS, True,
                 id="HierarchicalCrossbarRouter-traced"),
    pytest.param(BufferedCrossbarRouter, STUCK, True,
                 id="BufferedCrossbarRouter-stuck-traced"),
]

relaxed = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _switch_sim(router_cls, seed, load, scheduler, plan, workload=None,
                traced=False):
    cfg = RouterConfig(radix=8, num_vcs=2, subswitch_size=4,
                       local_group_size=4, seed=seed)
    return SwitchSimulation(
        router_cls(cfg), load=load, seed=seed, scheduler=scheduler,
        faults=plan, workload=workload,
        tracer=TraceCollector() if traced else None,
    )


def _outcome(sim, result):
    """What a finished run produced: the row, its extras and, when
    traced, the Chrome-trace bytes."""
    tracer = sim._tracer
    chrome = None if tracer is None else chrome_trace_json(tracer)
    return result, result.extra, chrome


def _roundtrip(build, start, k, path):
    """Reference outcome vs. save-at-``K``-reload-finish outcome."""
    ref = build()
    start(ref)
    assert ref.advance_run()
    expect = _outcome(ref, ref.finish_run())

    twin = build()
    start(twin)
    done = twin.advance_run(stop_at=k)
    twin.save_checkpoint(path)
    resumed = load_checkpoint(path)
    if not done:
        assert resumed.advance_run()
    return expect, _outcome(resumed, resumed.finish_run())


class TestSwitchRoundTrip:
    @relaxed
    @given(
        router_cls=st.sampled_from(ALL_ROUTERS),
        seed=st.integers(0, 2**20),
        load=st.sampled_from([0.15, 0.3, 0.5]),
        scheduler=st.sampled_from(["cycle", "event"]),
        faults=st.booleans(),
        k=st.integers(1, 900),
    )
    def test_random_split_matches_reference(
        self, tmp_path, router_cls, seed, load, scheduler, faults, k
    ):
        path = tmp_path / "switch.ckpt"
        expect, got = _roundtrip(
            lambda: _switch_sim(router_cls, seed, load, scheduler,
                                FAULTS if faults else None),
            lambda sim: sim.start_run(FAST),
            k, path,
        )
        assert got == expect

    @pytest.mark.parametrize("router_cls, plan, traced", SWITCH_CASES)
    @pytest.mark.parametrize("scheduler", ["cycle", "event"])
    def test_every_organization(self, tmp_path, router_cls, plan, traced,
                                scheduler):
        path = tmp_path / "switch.ckpt"
        expect, got = _roundtrip(
            lambda: _switch_sim(router_cls, 7, 0.4, scheduler, plan,
                                traced=traced),
            lambda sim: sim.start_run(FAST),
            111, path,
        )
        assert got == expect

    @pytest.mark.parametrize("scheduler", ["cycle", "event"])
    def test_workload_run(self, tmp_path, scheduler):
        path = tmp_path / "switch.ckpt"
        expect, got = _roundtrip(
            lambda: _switch_sim(
                BaselineRouter, 3, 0.0, scheduler, None,
                workload=all_reduce(8, size=2),
            ),
            lambda sim: sim.start_workload_run(max_cycles=20000),
            60, path,
        )
        assert got == expect


class _GoneSlot:
    """Unpickles the way a format-2 ``MirroredFlitQueue`` does now that
    its ``_route_key`` slot is gone: with an AttributeError."""

    def __reduce__(self):
        return getattr, (0, "_route_key")


class TestFormatVersion:
    def test_previous_format_is_refused(self, tmp_path):
        """Older files are refused with the typed error, never resumed:
        format 1 predates the hierarchical occupancy indices (restoring
        it would leave them at zero with flits buffered), and a
        format-2 file written under ``batch_hot_path`` pickles slots
        that no longer exist — so the version must be read before
        ``pickle`` constructs anything; format 3 kept the measurement
        counters in the per-stack ``harness`` dict."""
        import pickle

        sim = _switch_sim(HierarchicalCrossbarRouter, 7, 0.4, "cycle", None)
        sim.start_run(FAST)
        assert not sim.advance_run(stop_at=100)
        path = tmp_path / "switch.ckpt"
        sim.save_checkpoint(path)
        payload = pickle.loads(path.read_bytes())
        assert payload["format"] == CHECKPOINT_FORMAT == 4
        payload["format"] = 1
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ValueError, match="unsupported checkpoint format 1"):
            load_checkpoint(path)
        payload["format"] = 2
        payload["state"] = [payload["state"], _GoneSlot()]
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ValueError, match="unsupported checkpoint format 2"):
            load_checkpoint(path)
        payload["format"] = 3
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ValueError, match="unsupported checkpoint format 3"):
            load_checkpoint(path)


class TestFileSafety:
    """A checkpoint on disk is either the last complete save or refused
    with one typed error — never a half-written file, never a bare
    unpickling traceback."""

    @staticmethod
    def _paused(path):
        sim = _switch_sim(BaselineRouter, 7, 0.4, "cycle", None)
        sim.start_run(FAST)
        assert not sim.advance_run(stop_at=100)
        sim.save_checkpoint(path)
        return sim

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path,
                                                   monkeypatch):
        import pickle

        path = tmp_path / "switch.ckpt"
        sim = self._paused(path)
        good = path.read_bytes()
        assert not sim.advance_run(stop_at=150)

        def dump(obj, fh):
            fh.write(pickle.dumps(obj)[:100])
            raise RuntimeError("killed mid-save")

        with monkeypatch.context() as patch:
            patch.setattr(pickle, "dump", dump)
            with pytest.raises(RuntimeError, match="mid-save"):
                sim.save_checkpoint(path)
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["switch.ckpt"]
        assert load_checkpoint(path).cycle == 100

    def test_truncated_file_is_refused(self, tmp_path):
        path = tmp_path / "switch.ckpt"
        self._paused(path)
        body = path.read_bytes()
        path.write_bytes(body[:len(body) // 2])
        with pytest.raises(ValueError, match="truncated or corrupt"):
            load_checkpoint(path)


def _start(sim):
    if sim._workload is not None:
        sim.start_workload_run(max_cycles=20000)
    elif isinstance(sim, SwitchSimulation):
        sim.start_run(SweepSettings(50, 50, 200))
    else:
        sim.start_run(50, 50, 200)
    return sim


def _build_switch(scheduler="cycle", workload=False):
    return SwitchSimulation(
        HierarchicalCrossbarRouter(RouterConfig(
            radix=8, num_vcs=2, subswitch_size=4, local_group_size=4)),
        load=0.0 if workload else 0.4, scheduler=scheduler,
        workload=all_reduce(8, size=2) if workload else None,
    )


def _build_network(scheduler="cycle", workload=False):
    return NetworkSimulation(
        NetworkConfig(radix=8, levels=2), load=0.0 if workload else 0.3,
        scheduler=scheduler,
        workload=all_reduce(16, size=2) if workload else None,
    )


class TestRestoreRefusesMismatch:
    """A capture restores only onto a twin built the same way; both
    stacks refuse the rest with one typed error, before touching any
    state (not a bare ``KeyError('wheel')``, and never by writing
    ``WorkloadSource`` state over a ``TrafficSource``)."""

    @pytest.mark.parametrize("build", [_build_switch, _build_network])
    @pytest.mark.parametrize("captured, target, message", [
        ({"scheduler": "event"}, {"scheduler": "cycle"},
         "scheduler mode mismatch"),
        ({"scheduler": "cycle"}, {"scheduler": "event"},
         "scheduler mode mismatch"),
        ({"workload": True}, {"workload": False}, "workload mismatch"),
    ])
    def test_typed_error_and_untouched_target(
        self, build, captured, target, message
    ):
        source = _start(build(**captured))
        assert not source.advance_run(stop_at=40)
        twin = build(**target)
        with pytest.raises(ValueError, match=message):
            twin.restore(source.snapshot())
        fresh = _start(build(**target))
        assert fresh.advance_run()
        assert _start(twin).advance_run()
        got, expect = twin.finish_run(), fresh.finish_run()
        assert (got, got.extra) == (expect, expect.extra)


class TestNetworkRoundTrip:
    @relaxed
    @given(
        seed=st.integers(0, 2**20),
        load=st.sampled_from([0.15, 0.3, 0.45]),
        scheduler=st.sampled_from(["cycle", "event"]),
        faults=st.booleans(),
        k=st.integers(1, 700),
    )
    def test_random_split_matches_reference(
        self, tmp_path, seed, load, scheduler, faults, k
    ):
        cfg = NetworkConfig(radix=8, levels=2, seed=seed)
        path = tmp_path / "net.ckpt"
        expect, got = _roundtrip(
            lambda: NetworkSimulation(
                cfg, load=load, scheduler=scheduler,
                faults=FAULTS if faults else None,
            ),
            lambda sim: sim.start_run(warmup=60, measure=120, drain=500),
            k, path,
        )
        assert got == expect

    @pytest.mark.parametrize("case", ["workload", "traced-dead-links"])
    @pytest.mark.parametrize("scheduler", ["cycle", "event"])
    def test_fixed_split(self, tmp_path, case, scheduler):
        """A workload run, and a traced run across two dead links (one
        dies before the cut and heals after it) with corruption and
        credit loss."""
        cfg = NetworkConfig(radix=8, levels=2, seed=5)
        path = tmp_path / "net.ckpt"
        if case == "workload":
            def build():
                return NetworkSimulation(
                    cfg, workload=all_reduce(16, size=2),
                    scheduler=scheduler,
                )

            def start(sim):
                sim.start_workload_run(max_cycles=20000)
        else:
            plan = FaultPlan(
                corrupt_rate=0.02, credit_loss_rate=0.01,
                links=sample_link_faults(FoldedClos(8, 2), seed=5, count=2,
                                         cycle=40, until=160),
            )

            def build():
                return NetworkSimulation(
                    cfg, load=0.3, faults=plan, scheduler=scheduler,
                    tracer=TraceCollector(), trace_switch=(0, 0, 0),
                )

            def start(sim):
                sim.start_run(warmup=60, measure=120, drain=500)
        expect, got = _roundtrip(build, start, 90, path)
        assert got == expect

    @pytest.mark.parametrize("written_with, restored_with", [
        (True, True), (False, False), (True, False), (False, True),
    ])
    def test_event_run_paused_mid_gap(
        self, tmp_path, monkeypatch, written_with, restored_with
    ):
        """A low-rate event run pauses with most hosts between
        arrivals: the pre-draw cursor is past the captured Python
        stream (by the polls its state row has made) when the bulk
        path is on, level with it when the scalar loop runs.  The
        capture means the same either way, so it resumes — identically
        to the uninterrupted run — with or without numpy, whichever
        wrote it."""
        import repro.network.arrivals as arrivals

        if (written_with or restored_with) and not arrivals.HAVE_NUMPY:
            pytest.skip("numpy unavailable; the fallback is the only path")
        cfg = NetworkConfig(radix=16, levels=2, num_vcs=2, seed=11)
        path = tmp_path / "net.ckpt"

        def build():
            sim = NetworkSimulation(cfg, load=1e-3, scheduler="event")
            sim.start_run(warmup=500, measure=6000, drain=2000)
            return sim

        ref = build()
        assert ref.arrivals.bulk == arrivals.HAVE_NUMPY
        assert ref.advance_run()
        expect = ref.finish_run()
        assert expect.packets_measured > 60

        monkeypatch.setattr(arrivals, "HAVE_NUMPY", written_with)
        twin = build()
        assert twin.arrivals.bulk == written_with
        assert not twin.advance_run(stop_at=3000)
        book = twin.snapshot()["arrivals"]
        ahead = [c - s for c, s in zip(book["cursor"], book["sync_cursor"])]
        assert min(ahead) >= 0 and (max(ahead) > 0) == written_with
        twin.save_checkpoint(path)

        monkeypatch.setattr(arrivals, "HAVE_NUMPY", restored_with)
        resumed = load_checkpoint(path)
        assert resumed.arrivals.bulk == restored_with
        assert resumed.advance_run()
        got = resumed.finish_run()
        assert (got, got.extra) == (expect, expect.extra)

    def test_checkpoint_is_a_plain_file(self, tmp_path):
        """The capture is a self-contained on-disk artifact: reloading
        it twice yields two independent simulations with equal
        results."""
        cfg = NetworkConfig(radix=8, levels=2, seed=2)
        sim = NetworkSimulation(cfg, load=0.3)
        sim.start_run(warmup=60, measure=120, drain=500)
        assert not sim.advance_run(stop_at=100)
        path = tmp_path / "net.ckpt"
        sim.save_checkpoint(path)

        first = load_checkpoint(path)
        assert first.advance_run()
        second = load_checkpoint(path)
        assert second.advance_run()
        assert first.finish_run() == second.finish_run()
