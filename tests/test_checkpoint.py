"""Checkpoint/restore round-trip properties.

Every test runs a reference simulation to completion, then a twin that
stops at a mid-run cycle ``K``, saves a checkpoint file, loads it back
and finishes the loaded simulation.  The resumed
result must equal the straight-through result *exactly* — same
:class:`~repro.harness.stats.RunResult` (tuple equality covers every
metric) and same ``stats.*`` extras — for random seeds, loads, and
split points, across every switch organization and the Clos network,
with fault injection and dependency-driven workloads in the mix.

Hypothesis supplies the randomized coordinates; the deterministic
parametrized tests pin every organization so a regression names the
culprit directly.
"""

import pickle
import sys
from pathlib import Path

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


def _switch_sim(router_cls, seed, load, plan, workload=None,
                traced=False):
    cfg = RouterConfig(radix=8, num_vcs=2, subswitch_size=4,
                       local_group_size=4, seed=seed)
    return SwitchSimulation(
        router_cls(cfg), load=load, seed=seed,
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
        faults=st.booleans(),
        k=st.integers(1, 900),
    )
    def test_random_split_matches_reference(
        self, tmp_path, router_cls, seed, load, faults, k
    ):
        path = tmp_path / "switch.ckpt"
        expect, got = _roundtrip(
            lambda: _switch_sim(router_cls, seed, load,
                                FAULTS if faults else None),
            lambda sim: sim.start_run(FAST),
            k, path,
        )
        assert got == expect

    @pytest.mark.parametrize("router_cls, plan, traced", SWITCH_CASES)
    def test_every_organization(self, tmp_path, router_cls, plan, traced):
        path = tmp_path / "switch.ckpt"
        expect, got = _roundtrip(
            lambda: _switch_sim(router_cls, 7, 0.4, plan, traced=traced),
            lambda sim: sim.start_run(FAST),
            111, path,
        )
        assert got == expect

    def test_workload_run(self, tmp_path):
        path = tmp_path / "switch.ckpt"
        expect, got = _roundtrip(
            lambda: _switch_sim(
                BaselineRouter, 3, 0.0, None,
                workload=all_reduce(8, size=2),
            ),
            lambda sim: sim.start_workload_run(max_cycles=20000),
            60, path,
        )
        assert got == expect


    def test_fault_labels_survive_a_resume(self, tmp_path):
        """A faulted buffered crossbar names each lost and resynced
        credit by its ``(i, j, vc)`` crosspoint after a resume as it
        does uninterrupted: the label index is keyed by counter, which
        the pickle carries over, not by an ``id()`` it does not."""
        plan = FaultPlan(credit_loss_rate=0.05)

        def build():
            sim = _switch_sim(BufferedCrossbarRouter, 7, 0.5, plan,
                              traced=True)
            sim.start_run(FAST)
            return sim

        ref = build()
        assert ref.advance_run()
        twin = build()
        assert not twin.advance_run(stop_at=111)
        path = tmp_path / "switch.ckpt"
        twin.save_checkpoint(path)
        resumed = load_checkpoint(path)
        assert resumed.advance_run()

        def credit_events(sim):
            return [event for event in sim._tracer.fault_events
                    if event[1] in ("credit_loss", "credit_resync")
                    and event[3] > 111]

        after = credit_events(resumed)
        assert {kind for _, kind, _, _ in after} == {
            "credit_loss", "credit_resync"}
        assert all(len(where) == 3 for _, _, where, _ in after)
        assert after == credit_events(ref)


class _GoneSlot:
    """Unpickles the way an object of a since-removed attribute does:
    with an AttributeError."""

    def __reduce__(self):
        return getattr, (0, "_route_key")


FORMAT4_FIXTURE = (
    Path(__file__).parent / "fixtures" / "checkpoints"
    / "switch_format4_hier.ckpt"
)


class TestFormatVersion:
    def test_previous_format_is_refused(self, tmp_path):
        """Older files are refused with the typed error, never resumed:
        formats 1-4 held a hand-written capture and a constructor spec,
        and pickle classes that have since changed shape, so the
        version must be read before ``pickle`` constructs anything."""
        sim = _switch_sim(HierarchicalCrossbarRouter, 7, 0.4, None)
        sim.start_run(FAST)
        assert not sim.advance_run(stop_at=100)
        path = tmp_path / "switch.ckpt"
        sim.save_checkpoint(path)
        payload = pickle.loads(path.read_bytes())
        assert payload["format"] == CHECKPOINT_FORMAT == 9
        assert set(payload) == {"format", "sim"}
        for fmt in (1, 2, 3, 4, 5, 6, 7, 8):
            path.write_bytes(pickle.dumps({"format": fmt,
                                           "state": _GoneSlot()}))
            with pytest.raises(ValueError,
                               match=f"unsupported checkpoint format {fmt}"):
                load_checkpoint(path)

    def test_a_format4_file_is_refused_by_number(self):
        """A file the previous layout wrote (a radix-8 hierarchical
        crossbar paused mid-measure) is refused by its format number,
        not by whatever its retired classes would raise."""
        with pytest.raises(ValueError, match=(
            "unsupported checkpoint format 4 "
            r"\(this build reads format 9\)"
        )):
            load_checkpoint(FORMAT4_FIXTURE)


class TestFileSafety:
    """A checkpoint on disk is either the last complete save or refused
    with one typed error — never a half-written file, never a bare
    unpickling traceback."""

    @staticmethod
    def _paused(path):
        sim = _switch_sim(BaselineRouter, 7, 0.4, None)
        sim.start_run(FAST)
        assert not sim.advance_run(stop_at=100)
        sim.save_checkpoint(path)
        return sim

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path,
                                                   monkeypatch):
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


def _build_switch(workload=False):
    return SwitchSimulation(
        HierarchicalCrossbarRouter(RouterConfig(
            radix=8, num_vcs=2, subswitch_size=4, local_group_size=4)),
        load=0.0 if workload else 0.4,
        workload=all_reduce(8, size=2) if workload else None,
    )


def _build_network(workload=False):
    return NetworkSimulation(
        NetworkConfig(radix=8, levels=2), load=0.0 if workload else 0.3,
        workload=all_reduce(16, size=2) if workload else None,
    )


class TestRefusals:
    """What cannot be checkpointed, or resumed, is refused with one
    typed error, and a refused save leaves the previous file as it
    was."""

    def test_a_file_from_a_build_with_other_classes_is_refused(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "switch.ckpt"
        _start(_build_switch()).save_checkpoint(path)
        import repro.routers.hierarchical as hierarchical

        with monkeypatch.context() as patch:
            patch.delattr(hierarchical, "HierarchicalCrossbarRouter")
            with pytest.raises(ValueError, match="classes differ") as info:
                load_checkpoint(path)
        assert "\n" not in str(info.value)
        with monkeypatch.context() as patch:
            patch.setitem(sys.modules, "repro.routers.hierarchical", None)
            with pytest.raises(ValueError, match="classes differ") as info:
                load_checkpoint(path)
        assert "\n" not in str(info.value)
        assert load_checkpoint(path).cycle == 0

    @pytest.mark.parametrize("build", [
        lambda: SwitchSimulation(BaselineRouter(RouterConfig(radix=8)),
                                 load=0.3, sanitize=True),
        lambda: NetworkSimulation(NetworkConfig(radix=4, levels=2),
                                  load=0.3, sanitize=True),
    ], ids=["switch", "network"])
    def test_a_sanitized_simulation_writes_nothing(self, tmp_path, build):
        sim = build()
        sim.step()
        path = tmp_path / "sim.ckpt"
        with pytest.raises(ValueError, match="sanitized simulation"):
            sim.save_checkpoint(path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("build", [_build_switch, _build_network])
    def test_an_unpicklable_subscriber_keeps_the_previous_file(
        self, tmp_path, build
    ):
        """A lambda on a hook bus cannot be pickled: the save fails and
        the last complete checkpoint stays."""
        path = tmp_path / "sim.ckpt"
        sim = _start(build())
        assert not sim.advance_run(stop_at=30)
        sim.save_checkpoint(path)
        good = path.read_bytes()
        sim.hooks.on_cycle_end(lambda cycle: None)
        assert not sim.advance_run(stop_at=40)
        with pytest.raises((pickle.PicklingError, AttributeError)):
            sim.save_checkpoint(path)
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["sim.ckpt"]
        assert load_checkpoint(path).cycle == 30


class TestNetworkRoundTrip:
    @relaxed
    @given(
        seed=st.integers(0, 2**20),
        load=st.sampled_from([0.15, 0.3, 0.45]),
        faults=st.booleans(),
        k=st.integers(1, 700),
    )
    def test_random_split_matches_reference(
        self, tmp_path, seed, load, faults, k
    ):
        cfg = NetworkConfig(radix=8, levels=2, seed=seed)
        path = tmp_path / "net.ckpt"
        expect, got = _roundtrip(
            lambda: NetworkSimulation(
                cfg, load=load, faults=FAULTS if faults else None,
            ),
            lambda sim: sim.start_run(warmup=60, measure=120, drain=500),
            k, path,
        )
        assert got == expect

    @pytest.mark.parametrize("case", ["workload", "traced-dead-links"])
    def test_fixed_split(self, tmp_path, case):
        """A workload run, and a traced run across two dead links (one
        dies before the cut and heals after it) with corruption and
        credit loss."""
        cfg = NetworkConfig(radix=8, levels=2, seed=5)
        path = tmp_path / "net.ckpt"
        if case == "workload":
            def build():
                return NetworkSimulation(
                    cfg, workload=all_reduce(16, size=2),
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
                    cfg, load=0.3, faults=plan,
                    tracer=TraceCollector(), trace_switch=(0, 0, 0),
                )

            def start(sim):
                sim.start_run(warmup=60, measure=120, drain=500)
        expect, got = _roundtrip(build, start, 90, path)
        assert got == expect

    @pytest.mark.parametrize("faults, cut_twice", [
        (True, True), (False, False), (True, False), (False, True),
    ])
    def test_event_run_paused_mid_gap(self, tmp_path, faults, cut_twice):
        """A low-rate run pauses with most hosts between
        arrivals, their next ones queued far ahead: the loaded
        simulation resumes identically to the uninterrupted run — with
        corruption and credit loss drawing on their own streams across
        the cut, and when the resumed run is itself paused mid-gap,
        saved and loaded again."""
        cfg = NetworkConfig(radix=16, levels=2, num_vcs=2, seed=11)
        path = tmp_path / "net.ckpt"

        def build():
            sim = NetworkSimulation(cfg, load=1e-3,
                                    faults=FAULTS if faults else None)
            sim.start_run(warmup=500, measure=6000, drain=2000)
            return sim

        def cut(sim, stop_at):
            assert not sim.advance_run(stop_at=stop_at)
            ahead = [arrival - sim.cycle
                     for arrival, _ in sim.arrivals.queued()]
            assert min(ahead) >= 0 and max(ahead) > 1000
            sim.save_checkpoint(path)
            resumed = load_checkpoint(path)
            assert resumed.arrivals.queued() == sim.arrivals.queued()
            return resumed

        ref = build()
        assert ref.advance_run()
        expect = ref.finish_run()
        assert expect.packets_measured > 60

        resumed = cut(build(), 3000)
        if cut_twice:
            resumed = cut(resumed, 5000)
        assert resumed.advance_run()
        got = resumed.finish_run()
        assert (got, got.extra) == (expect, expect.extra)

    def test_a_192_router_clos_resumes(self, tmp_path):
        """A radix-16, three-level Clos (192 routers) cut mid-run
        saves and loads at the default recursion limit: each router's
        links are pickled after every router, so no router's pickle
        nests its neighbours'."""
        assert sys.getrecursionlimit() <= 1000
        cfg = NetworkConfig(radix=16, levels=3, seed=4)

        def build():
            sim = NetworkSimulation(cfg, load=0.3)
            assert len(sim.routers) == 192
            return sim

        expect, got = _roundtrip(
            build,
            lambda sim: sim.start_run(warmup=20, measure=40, drain=300),
            30, tmp_path / "net.ckpt",
        )
        assert got == expect

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
