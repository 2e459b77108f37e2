"""Checkpoint/restore: round trips, the file format, refusals.

A round trip runs a reference simulation to completion, then a twin
that stops at a mid-run cycle ``K``, saves a checkpoint file, loads it
back (the loaded twin must equal the original field for field) and
finishes it.  The resumed run must produce exactly what the
straight-through run did.  The ``checkpoint`` lane of
``tests/test_differential.py`` draws that over every stack; the round
trips here are its pinned points (every organization, traced, stuck,
faulted and workload runs, runs paused mid-gap and a 192-router Clos),
beside the on-disk format, file-safety and refusal tests.
"""

import pickle
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

from repro.core.config import RouterConfig
from repro.faults import FaultPlan, StuckFault, sample_link_faults
from repro.harness import CHECKPOINT_FORMAT, SwitchSimulation, load_checkpoint
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.network.topology import FoldedClos
from repro.routers import BaselineRouter
from repro.workloads import all_reduce

from tests.differential import ROUTERS, Run, compare, finish, started

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
    pytest.param(name, FAULTS, False, id=cls.__name__)
    for name, cls in ROUTERS.items()
] + [
    pytest.param("hierarchical", FAULTS, True,
                 id="HierarchicalCrossbarRouter-traced"),
    pytest.param("buffered", STUCK, True,
                 id="BufferedCrossbarRouter-stuck-traced"),
]


def _switch(stack, **fields):
    """A radix-8 switch run, its program long enough to cross the
    warm-up and measurement boundaries."""
    return Run(stack, **{"packet_size": 1, "window": (60, 120, 800),
                         **fields})


def _clos(**fields):
    return Run("clos", **{"num_vcs": None, "packet_size": 1,
                          "window": (60, 120, 500), **fields})


class TestSwitchRoundTrip:
    def test_random_split_matches_reference(self, tmp_path):
        """Seeds, loads and cuts away from the pinned points below; the
        checkpoint lane draws many more."""
        for stack, seed, load, k in (("voq", 90210, 0.15, 817),
                                     ("shared-buffer", 3, 0.5, 7)):
            compare("checkpoint", _switch(stack, seed=seed, load=load,
                                          faults=FAULTS, cut=k),
                    path=tmp_path / "switch.ckpt")

    @pytest.mark.parametrize("stack, plan, traced", SWITCH_CASES)
    def test_every_organization(self, tmp_path, stack, plan, traced):
        compare("checkpoint", _switch(stack, load=0.4, faults=plan,
                                      traced=traced, cut=111),
                path=tmp_path / "switch.ckpt")

    def test_workload_run(self, tmp_path):
        compare("checkpoint", _switch(
            "baseline", seed=3, load=0.0, max_cycles=20000, cut=60,
            workload=partial(all_reduce, 8, size=2)),
            path=tmp_path / "switch.ckpt")

    def test_fault_labels_survive_a_resume(self, tmp_path):
        """A faulted buffered crossbar names each lost and resynced
        credit by its ``(i, j, vc)`` crosspoint after a resume as it
        does uninterrupted: the label index is keyed by counter, which
        the pickle carries over, not by an ``id()`` it does not."""
        _, resumed, _ = compare("checkpoint", _switch(
            "buffered", load=0.5, faults=FaultPlan(credit_loss_rate=0.05),
            traced=True, cut=111), path=tmp_path / "switch.ckpt")
        after = [event for event in resumed._tracer.fault_events
                 if event[1] in ("credit_loss", "credit_resync")
                 and event[3] > 111]
        assert {kind for _, kind, _, _ in after} == {
            "credit_loss", "credit_resync"}
        assert all(len(where) == 3 for _, _, where, _ in after)


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
        sim = started(_switch("hierarchical", load=0.4))
        assert not sim.advance_run(stop_at=100)
        path = tmp_path / "switch.ckpt"
        sim.save_checkpoint(path)
        payload = pickle.loads(path.read_bytes())
        assert payload["format"] == CHECKPOINT_FORMAT == 10
        assert set(payload) == {"format", "sim"}
        for fmt in range(1, 10):
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
            r"\(this build reads format 10\)"
        )):
            load_checkpoint(FORMAT4_FIXTURE)


class TestFileSafety:
    """A checkpoint on disk is either the last complete save or refused
    with one typed error — never a half-written file, never a bare
    unpickling traceback."""

    @staticmethod
    def _paused(path):
        sim = started(_switch("baseline", load=0.4))
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


def _build_switch():
    return started(Run("hierarchical", packet_size=1, load=0.4,
                       seed=1, window=(50, 50, 200)))


def _build_network():
    return started(_clos(seed=1, window=(50, 50, 200)))


class TestRefusals:
    """What cannot be checkpointed, or resumed, is refused with one
    typed error, and a refused save leaves the previous file as it
    was."""

    def test_a_file_from_a_build_with_other_classes_is_refused(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "switch.ckpt"
        _build_switch().save_checkpoint(path)
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
        sim = build()
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
    def test_random_split_matches_reference(self, tmp_path):
        """A seed, load and cut away from the pinned points below."""
        compare("checkpoint", _clos(seed=6007, load=0.45, faults=FAULTS,
                                    cut=433), path=tmp_path / "net.ckpt")

    @pytest.mark.parametrize("case", ["workload", "traced-dead-links"])
    def test_fixed_split(self, tmp_path, case):
        """A workload run, and a traced run across two dead links (one
        dies before the cut and heals after it) with corruption and
        credit loss."""
        if case == "workload":
            run = _clos(seed=5, load=0.0, max_cycles=20000,
                        workload=partial(all_reduce, 16, size=2))
        else:
            plan = FaultPlan(
                corrupt_rate=0.02, credit_loss_rate=0.01,
                links=sample_link_faults(FoldedClos(8, 2), seed=5, count=2,
                                         cycle=40, until=160),
            )
            run = _clos(seed=5, faults=plan, traced=True)
        compare("checkpoint", replace(run, cut=90), path=tmp_path / "net.ckpt")

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
        run = _clos(radix=16, num_vcs=2, seed=11, load=1e-3,
                    faults=FAULTS if faults else None,
                    window=(500, 6000, 2000))
        path = tmp_path / "net.ckpt"

        def cut(sim, stop_at):
            assert not sim.advance_run(stop_at=stop_at)
            ahead = [arrival - sim.cycle
                     for arrival, _ in sim.arrivals.queued()]
            assert min(ahead) >= 0 and max(ahead) > 1000
            sim.save_checkpoint(path)
            resumed = load_checkpoint(path)
            assert resumed.arrivals.queued() == sim.arrivals.queued()
            return resumed

        expect = finish(started(run))
        assert expect.packets_measured > 60

        resumed = cut(started(run), 3000)
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
        sim, _, _ = compare("checkpoint", _clos(
            radix=16, levels=3, seed=4, window=(20, 40, 300), cut=30),
            path=tmp_path / "net.ckpt")
        assert len(sim.routers) == 192

    def test_checkpoint_is_a_plain_file(self, tmp_path):
        """The capture is a self-contained on-disk artifact: reloading
        it twice yields two independent simulations with equal
        results."""
        sim = started(_clos(seed=2, load=0.3))
        assert not sim.advance_run(stop_at=100)
        path = tmp_path / "net.ckpt"
        sim.save_checkpoint(path)

        first = load_checkpoint(path)
        assert first.advance_run()
        second = load_checkpoint(path)
        assert second.advance_run()
        assert first.finish_run() == second.finish_run()
