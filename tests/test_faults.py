"""Tests for deterministic fault injection (repro.faults).

Covers the FaultPlan model, the CRC detection code, both injectors
(switch and network), graceful degradation around dead links, the
sanitizer accounting for injected losses, hook/trace/metrics plumbing,
and the determinism guarantees of docs/faults.md.
"""

from dataclasses import replace

import pytest

from repro.core.config import RouterConfig
from repro.core.credit import CreditCounter, DelayedCreditPipe
from repro.faults import (
    CORRUPT,
    CREDIT_LOSS,
    FaultPlan,
    LinkFault,
    NetworkFaultInjector,
    StuckFault,
    SwitchFaultInjector,
    crc8,
    flit_checksum,
    sample_link_faults,
)
from repro.harness.experiment import SweepSettings, SwitchSimulation
from repro.network.mesh import Mesh
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.network.topology import FoldedClos
from repro.routers.baseline import BaselineRouter
from repro.routers.buffered import BufferedCrossbarRouter
from repro.routers.hierarchical import HierarchicalCrossbarRouter
from repro.routers.voq import VoqRouter
from tests.exhaustive import engine_free, exhaustive

CFG = RouterConfig(radix=8, num_vcs=2, subswitch_size=4, local_group_size=4)
FAST = SweepSettings(warmup=150, measure=300, drain=3000)
NET = NetworkConfig(radix=8, levels=2)


# ----------------------------------------------------------------------
# FaultPlan model
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_disabled_by_default(self):
        assert not FaultPlan().enabled

    def test_enabled_by_any_mechanism(self):
        assert FaultPlan(corrupt_rate=0.1).enabled
        assert FaultPlan(credit_loss_rate=0.1).enabled
        assert FaultPlan(stuck=(StuckFault(1, (0, 0)),)).enabled
        assert FaultPlan(links=(LinkFault(1, (0, 0, 0), 0),)).enabled

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(corrupt_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(credit_loss_rate=-0.1)
        # A channel that corrupts every attempt never delivers; resync
        # recovers every lost credit, so credit loss may be certain.
        with pytest.raises(ValueError,
                           match=r"corrupt_rate 1\.0 outside \[0, 1\)"):
            FaultPlan(corrupt_rate=1.0)
        assert FaultPlan(credit_loss_rate=1.0).enabled

    def test_timeout_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(retransmit_timeout=0)
        with pytest.raises(ValueError):
            FaultPlan(retransmit_backoff=0.5)
        with pytest.raises(ValueError):
            FaultPlan(retransmit_timeout=8, retransmit_cap=4)
        with pytest.raises(ValueError):
            FaultPlan(credit_resync_timeout=0)

    def test_retry_delay_backs_off_and_caps(self):
        plan = FaultPlan(corrupt_rate=0.1, retransmit_timeout=4,
                         retransmit_backoff=2.0, retransmit_cap=20)
        assert plan.retry_delay(1) == 4
        assert plan.retry_delay(2) == 8
        assert plan.retry_delay(3) == 16
        assert plan.retry_delay(4) == 20  # capped
        assert plan.retry_delay(10) == 20
        # Regression: past ~1,024 consecutive corruptions the float
        # back-off overflowed and int() raised instead of capping.
        assert plan.retry_delay(1025) == 20
        assert plan.retry_delay(10**6) == 20

    def test_stuck_fault_validation(self):
        with pytest.raises(ValueError):
            StuckFault(cycle=-1, where=(0,))
        with pytest.raises(ValueError):
            StuckFault(cycle=10, where=(0,), until=10)
        with pytest.raises(ValueError):
            StuckFault(cycle=10, where=())
        with pytest.raises(ValueError):
            StuckFault(cycle=10, where=(0,), kind="bogus")

    def test_link_fault_validation(self):
        with pytest.raises(ValueError):
            LinkFault(cycle=-1, switch=(0, 0, 0), port=0)
        with pytest.raises(ValueError):
            LinkFault(cycle=5, switch=(0, 0, 0), port=0, until=4)


class TestCrc:
    def test_known_vector(self):
        # CRC-8/SMBUS check value for "123456789".
        assert crc8(b"123456789") == 0xF4

    def test_empty(self):
        assert crc8(b"") == 0

    def test_flit_checksum_deterministic_and_bounded(self):
        from repro.core.flit import make_packet

        (flit,) = make_packet(dest=3, size=1, src=1)
        a, b = flit_checksum(flit), flit_checksum(flit)
        assert a == b
        assert 0 <= a <= 0xFF

    def test_nonzero_syndrome_always_detected(self):
        from repro.core.flit import make_packet

        (flit,) = make_packet(dest=3, size=1, src=1)
        expected = flit_checksum(flit)
        for syndrome in range(1, 256):
            assert (expected ^ syndrome) != expected


class TestSampleLinkFaults:
    def test_deterministic_and_distinct(self):
        topo = FoldedClos(8, 2)
        a = sample_link_faults(topo, seed=3, count=4, cycle=100)
        b = sample_link_faults(topo, seed=3, count=4, cycle=100)
        assert a == b
        assert len({(f.switch, f.port) for f in a}) == 4

    def test_excludes_host_ports(self):
        topo = FoldedClos(8, 2)
        faults = sample_link_faults(topo, seed=1, count=8, cycle=0)
        for f in faults:
            assert topo.neighbor(f.switch, f.port).switch is not None

    def test_count_bound(self):
        topo = FoldedClos(4, 1)  # a single top-level switch: no links
        with pytest.raises(ValueError):
            sample_link_faults(topo, seed=1, count=1, cycle=0)


# ----------------------------------------------------------------------
# Credit primitives grown for fault support
# ----------------------------------------------------------------------


class TestStuckCounter:
    def test_stuck_masks_availability(self):
        c = CreditCounter(4)
        assert c.available
        c.stuck = True
        assert not c.available
        assert c.free == 4  # credits untouched: nothing is dropped
        c.stuck = False
        assert c.available

    def test_stuck_counter_still_restores(self):
        c = CreditCounter(2)
        c.consume()
        c.stuck = True
        c.restore()  # downstream drain continues while stuck
        assert c.free == 2


class TestDropHook:
    def test_drop_hook_claims_credit(self):
        pipe = DelayedCreditPipe(1)
        hits = []
        claimed = []
        # Test-only tap; real injectors install a picklable _DropHook.
        pipe.drop_hook = lambda sink: claimed.append(sink) or True
        pipe.send(0, lambda: hits.append(1))
        assert pipe.step(1) == 0
        assert hits == []
        assert len(claimed) == 1
        claimed[0]()  # the hook owner re-delivers (resync)
        assert hits == [1]

    def test_drop_hook_pass_through(self):
        pipe = DelayedCreditPipe(1)
        hits = []
        pipe.drop_hook = lambda sink: False
        pipe.send(0, lambda: hits.append(1))
        assert pipe.step(1) == 1
        assert hits == [1]


# ----------------------------------------------------------------------
# Switch-level injection
# ----------------------------------------------------------------------


def _run(router_cls, plan, load=0.5, cfg=CFG, oracle=False, **kw):
    sim = SwitchSimulation(router_cls(cfg), load=load, faults=plan, **kw)
    if oracle:
        exhaustive(sim)
    return sim.run(FAST)


class TestSwitchInjector:
    def test_refuses_disabled_plan(self):
        with pytest.raises(ValueError):
            SwitchFaultInjector(FaultPlan(), BufferedCrossbarRouter(CFG), 1)

    def test_zero_fault_run_identical_to_plain(self):
        """faults=None, and a disabled plan, are byte-identical."""
        plain = _run(BufferedCrossbarRouter, None)
        disabled = _run(BufferedCrossbarRouter, FaultPlan())
        assert plain == disabled

    def test_corruption_counts_and_recovers(self):
        plan = FaultPlan(corrupt_rate=0.05)
        r = _run(BufferedCrossbarRouter, plan)
        assert r.extra["stats.faults.corrupt"] > 0
        assert r.extra["stats.faults.retransmits"] > 0
        # Every corrupted transmission is eventually retransmitted.
        assert (r.extra["stats.faults.retransmits"]
                <= r.extra["stats.faults.corrupt"])

    def test_corruption_degrades_latency(self):
        clean = _run(BufferedCrossbarRouter, None, load=0.6)
        faulty = _run(
            BufferedCrossbarRouter, FaultPlan(corrupt_rate=0.1), load=0.6
        )
        assert faulty.avg_latency > clean.avg_latency

    def test_deterministic_replay(self):
        plan = FaultPlan(corrupt_rate=0.03, credit_loss_rate=0.01)
        a = _run(BufferedCrossbarRouter, plan)
        b = _run(BufferedCrossbarRouter, plan)
        assert a == b

    def test_active_set_equivalence_under_faults(self):
        plan = FaultPlan(corrupt_rate=0.03, credit_loss_rate=0.01)
        parked = _run(BufferedCrossbarRouter, plan, load=0.3)
        oracle = _run(BufferedCrossbarRouter, plan, load=0.3, oracle=True)
        assert (replace(parked, extra=engine_free(parked.extra))
                == replace(oracle, extra=engine_free(oracle.extra)))

    def test_plan_seed_decouples_fault_stream(self):
        """plan.seed overrides the sim seed for fault draws only."""
        a = _run(BufferedCrossbarRouter, FaultPlan(corrupt_rate=0.05, seed=11))
        b = _run(BufferedCrossbarRouter, FaultPlan(corrupt_rate=0.05, seed=12))
        c = _run(BufferedCrossbarRouter, FaultPlan(corrupt_rate=0.05, seed=11))
        assert a == c
        assert a != b

    def test_credit_loss_sanitized_no_false_positive(self):
        """Injected credit losses must balance in the sanitizer's books
        (the injector ledger is counted as in-flight)."""
        plan = FaultPlan(credit_loss_rate=0.05, credit_resync_timeout=16)
        r = _run(BufferedCrossbarRouter, plan, sanitize=True)
        assert r.extra["stats.faults.credit_lost"] > 0
        assert r.extra["stats.faults.credit_resyncs"] > 0

    def test_credit_loss_sanitized_hierarchical(self):
        plan = FaultPlan(credit_loss_rate=0.05, credit_resync_timeout=16)
        r = _run(HierarchicalCrossbarRouter, plan, sanitize=True)
        assert r.extra["stats.faults.credit_lost"] > 0

    def test_corruption_sanitized_all_archs(self):
        plan = FaultPlan(corrupt_rate=0.05)
        for cls in (BaselineRouter, BufferedCrossbarRouter,
                    HierarchicalCrossbarRouter, VoqRouter):
            r = _run(cls, plan, sanitize=True)
            assert r.extra["stats.faults.corrupt"] > 0, cls.__name__


class TestStuckFaults:
    def test_stuck_crosspoint_degrades_and_recovers(self):
        plan = FaultPlan(
            stuck=(StuckFault(cycle=50, where=(2, 3), until=500),)
        )
        r = _run(BufferedCrossbarRouter, plan, load=0.7, sanitize=True)
        assert r.extra["stats.faults.stuck"] == 1
        assert r.extra["stats.faults.unstuck"] == 1
        # The run completes and still moves traffic around the wedge.
        assert r.throughput > 0.3

    def test_stuck_crosspoint_flag_set_and_cleared(self):
        from repro.faults import STUCK, UNSTUCK

        plan = FaultPlan(stuck=(StuckFault(cycle=5, where=(1, 2), until=9),))
        sim = SwitchSimulation(
            BufferedCrossbarRouter(CFG), load=0.0, faults=plan
        )
        injected, recovered = [], []
        sim.hooks.on_fault_inject(
            lambda kind, where, cycle: injected.append((kind, where, cycle))
        )
        sim.hooks.on_fault_recover(
            lambda kind, where, cycle: recovered.append((kind, where, cycle))
        )
        counters = sim._faults._resolve_crosspoint((1, 2))
        assert counters
        for _ in range(7):
            sim.step()
        assert all(c.stuck for c in counters)
        assert injected == [(STUCK, (1, 2), 5)]
        for _ in range(5):
            sim.step()
        assert not any(c.stuck for c in counters)
        assert recovered == [(UNSTUCK, (1, 2), 9)]

    def test_stuck_single_vc_lane(self):
        plan = FaultPlan(stuck=(StuckFault(cycle=0, where=(0, 0, 1)),))
        sim = SwitchSimulation(
            BufferedCrossbarRouter(CFG), load=0.0, faults=plan
        )
        sim.step()
        assert sim._faults._resolve_crosspoint((0, 0, 1))[0].stuck
        assert not sim._faults._resolve_crosspoint((0, 0, 0))[0].stuck

    def test_stuck_input_wedges_and_releases(self):
        plan = FaultPlan(
            stuck=(StuckFault(cycle=50, where=(1,), kind="input",
                              until=400),)
        )
        r = _run(HierarchicalCrossbarRouter, plan, load=0.5, sanitize=True)
        assert r.extra["stats.faults.stuck"] == 1
        assert r.extra["stats.faults.unstuck"] == 1

    def test_persistent_stuck_input_starves_port(self):
        """An input stuck with no `until` never delivers again; traffic
        on other inputs keeps flowing (graceful degradation)."""
        plan = FaultPlan(
            stuck=(StuckFault(cycle=0, where=(0,), kind="input"),)
        )
        sim = SwitchSimulation(
            BufferedCrossbarRouter(CFG), load=0.4, faults=plan
        )
        for _ in range(600):
            sim.step()
        assert sim.router.stats.flits_ejected > 0
        # Input 0 accepted a few flits into its buffers, but none of
        # them ever won switch allocation.
        assert (0, 0) in sim.router._stuck_inputs

    def test_crosspoint_fault_rejected_without_crosspoints(self):
        """The schedule fires at the stuck cycle; a router with no
        crosspoint/subswitch buffers rejects it then."""
        plan = FaultPlan(stuck=(StuckFault(cycle=0, where=(0, 0)),))
        sim = SwitchSimulation(BaselineRouter(CFG), load=0.2, faults=plan)
        with pytest.raises(ValueError, match="crosspoint"):
            sim.step()

    def test_stuck_input_single_vc_lane(self):
        """A (port, vc) input address wedges one lane and releases it."""
        plan = FaultPlan(
            stuck=(StuckFault(cycle=0, where=(1, 0), kind="input",
                              until=10),)
        )
        sim = SwitchSimulation(
            BufferedCrossbarRouter(CFG), load=0.0, faults=plan
        )
        for _ in range(3):
            sim.step()
        assert sim.router._input_stuck(1, 0)
        assert not sim.router._input_stuck(1, 1)
        for _ in range(10):
            sim.step()
        assert not sim.router._stuck_inputs

    def test_credit_loss_inert_without_credit_hardware(self):
        """Baseline has no internal credit pipes to tap; a credit-loss
        plan attaches harmlessly and drops nothing."""
        plan = FaultPlan(credit_loss_rate=0.5)
        sim = SwitchSimulation(BaselineRouter(CFG), load=0.4, faults=plan)
        assert not sim._faults.credit_capable
        for _ in range(300):
            sim.step()
        assert sim.router.stats.extra.get("faults.credit_lost", 0) == 0

    def test_address_naming_no_buffer_rejected(self):
        router = BufferedCrossbarRouter(CFG)
        plan = FaultPlan(stuck=(StuckFault(cycle=1, where=(0, 0)),))
        inj = SwitchFaultInjector(plan, router, 1)
        router._credits = [[]]  # hollow out row 0
        with pytest.raises(ValueError, match="names no buffer"):
            inj._resolve_crosspoint((0,))

    def test_flatten_counters_handles_dicts(self):
        from repro.faults.injector import _flatten_counters

        a, b = CreditCounter(1), CreditCounter(2)
        found = _flatten_counters({"x": [a], "w": b})
        assert found == [b, a]  # sorted by key

    def test_stick_unstick_base_api(self):
        router = BufferedCrossbarRouter(CFG)
        router.stick_input(2)  # all VCs
        assert all(router._input_stuck(2, vc) for vc in range(CFG.num_vcs))
        router.unstick_input(2)
        assert not router._stuck_inputs
        router.stick_input(3, vc=1)
        assert router._input_stuck(3, 1)
        assert not router._input_stuck(3, 0)
        router.unstick_input(3, vc=1)
        assert not router._stuck_inputs


# ----------------------------------------------------------------------
# Network-level injection
# ----------------------------------------------------------------------


class TestNetworkInjector:
    def test_zero_fault_run_identical_to_plain(self):
        kw = dict(warmup=200, measure=300, drain=3000)
        plain = NetworkSimulation(NET, 0.3).run(**kw)
        disabled = NetworkSimulation(NET, 0.3, faults=FaultPlan()).run(**kw)
        assert plain == disabled

    def test_dead_link_reroutes_sanitized(self):
        topo = NetworkSimulation(NET, 0.3).topology
        links = sample_link_faults(topo, seed=7, count=2, cycle=100,
                                   until=700)
        plan = FaultPlan(credit_loss_rate=0.002, links=links)
        sim = NetworkSimulation(NET, 0.3, sanitize=True, faults=plan)
        r = sim.run(warmup=300, measure=400, drain=4000)
        assert r.extra["stats.faults.link_down"] == 2
        assert r.extra["stats.faults.link_up"] == 2
        assert r.extra["stats.faults.reroutes"] > 0
        assert r.throughput > 0.15  # degraded, not dead

    def test_network_determinism(self):
        topo = NetworkSimulation(NET, 0.3).topology
        links = sample_link_faults(topo, seed=5, count=1, cycle=50)
        plan = FaultPlan(corrupt_rate=0.02, credit_loss_rate=0.005,
                         links=links)
        kw = dict(warmup=200, measure=300, drain=3000)
        a = NetworkSimulation(NET, 0.3, faults=plan).run(**kw)
        b = NetworkSimulation(NET, 0.3, faults=plan).run(**kw)
        assert a == b

    def test_network_active_set_equivalence(self):
        plan = FaultPlan(corrupt_rate=0.02, credit_loss_rate=0.005)
        kw = dict(warmup=200, measure=300, drain=3000)
        parked = NetworkSimulation(NET, 0.2, faults=plan).run(**kw)
        oracle = exhaustive(NetworkSimulation(NET, 0.2, faults=plan))
        assert parked == oracle.run(**kw)

    def test_unknown_switch_rejected(self):
        plan = FaultPlan(links=(LinkFault(0, ("no", "such"), 0),))
        with pytest.raises(ValueError, match="unknown switch"):
            NetworkSimulation(NET, 0.2, faults=plan)

    def test_port_out_of_range_rejected(self):
        plan = FaultPlan(links=(LinkFault(0, (1, 0, 0), 99),))
        with pytest.raises(ValueError, match="out of range"):
            NetworkSimulation(NET, 0.2, faults=plan)

    def test_refuses_disabled_plan(self):
        sim = NetworkSimulation(NET, 0.2)
        with pytest.raises(ValueError):
            NetworkFaultInjector(FaultPlan(), sim, 1)

    def test_stuck_network_input_blocks_candidates(self):
        """NetworkRouter honors _stuck_inputs in candidate selection
        (the switch-level stuck-fault hook, exposed for extensions)."""
        sim = NetworkSimulation(NET, 0.4)
        router = next(iter(sim.routers.values()))
        for port in range(router.config.num_ports):
            for vc in range(router.config.num_vcs):
                router._stuck_inputs.add((port, vc))
        accepts = []
        router.hooks.on_flit_move(
            lambda kind, flit, port, cycle: accepts.append(kind)
        )
        for _ in range(400):
            sim.step()
        # Flits entered the wedged router but never left it: every
        # accepted flit is still resident.
        assert accepts.count("accept") > 0
        assert router._resident == accepts.count("accept")
        assert all(kind == "accept" for kind in accepts)


    def test_network_hook_events_fire(self):
        """Credit-loss and link events reach the shared hook bus."""
        from repro.faults import CREDIT_RESYNC, LINK_DOWN, LINK_UP

        topo = NetworkSimulation(NET, 0.3).topology
        links = sample_link_faults(topo, seed=9, count=1, cycle=50,
                                   until=300)
        plan = FaultPlan(credit_loss_rate=0.02, links=links)
        sim = NetworkSimulation(NET, 0.3, faults=plan)
        injected, recovered = [], []
        sim.hooks.on_fault_inject(
            lambda kind, where, cycle: injected.append(kind)
        )
        sim.hooks.on_fault_recover(
            lambda kind, where, cycle: recovered.append(kind)
        )
        for _ in range(500):
            sim.step()
        assert LINK_DOWN in injected
        assert CREDIT_LOSS in injected
        assert LINK_UP in recovered
        assert CREDIT_RESYNC in recovered


class _ParallelPairTopo:
    """Two switches, two parallel links, no route_avoiding: exercises
    the injector's bounded re-roll fallback.  Host 0 sits on switch
    "A"; host 1 hangs off port 2 of switch "B"; ports 0 and 1 of "A"
    both reach "B"."""

    def __init__(self):
        from repro.network.topology import PortRef

        self._ref = PortRef

    def host_attachment(self, host):
        return self._ref(switch="A" if host == 0 else "B", port=2, host=None)

    def neighbor(self, switch, port):
        if switch == "A" and port in (0, 1):
            return self._ref(switch="B", port=port, host=None)
        return self._ref(switch=None, port=0, host=1)

    def route(self, src_host, dst_host, rng):
        return [rng.randrange(2), 2]


class TestRerollFallback:
    def _injector(self):
        sim = NetworkSimulation(NET, 0.2)
        sid = next(iter(sim.routers))
        plan = FaultPlan(links=(LinkFault(cycle=10 ** 9, switch=sid,
                                          port=0),))
        return NetworkFaultInjector(plan, sim, seed=1)

    def test_rerolls_around_dead_link(self):
        from repro.core.rng import derive_rng

        inj = self._injector()
        topo = _ParallelPairTopo()
        inj.dead_links = {("A", 0)}
        rng = derive_rng(1, "test")
        for _ in range(30):
            ports = inj.route(topo, 0, 1, rng)
            assert ports[0] == 1  # never the dead port
        assert inj.counters["faults.reroutes"] > 0
        assert "faults.route_giveups" not in inj.counters

    def test_gives_up_when_no_clean_path(self):
        from repro.core.rng import derive_rng

        inj = self._injector()
        topo = _ParallelPairTopo()
        inj.dead_links = {("A", 0), ("A", 1)}
        rng = derive_rng(2, "test")
        ports = inj.route(topo, 0, 1, rng)
        assert ports[1] == 2  # blind route shipped anyway
        assert inj.counters["faults.route_giveups"] == 1


# ----------------------------------------------------------------------
# Dead-link-aware routing primitives
# ----------------------------------------------------------------------


class TestRouteAvoiding:
    def test_clos_avoids_dead_up_link(self):
        from repro.core.rng import derive_rng

        topo = FoldedClos(8, 2)
        rng = derive_rng(1, "test")
        leaf = topo.host_attachment(0).switch
        dead = {(leaf, topo.m)}  # first up port of host 0's leaf

        def link_ok(switch, port):
            return (switch, port) not in dead

        # Cross-subtree destination: the route must ascend, and must
        # never use the dead up port.
        dst = topo.num_hosts - 1
        for _ in range(20):
            ports = topo.route_avoiding(0, dst, rng, link_ok)
            assert ports is not None
            assert ports[0] != topo.m

    def test_clos_returns_none_when_cut_off(self):
        from repro.core.rng import derive_rng

        topo = FoldedClos(8, 2)
        rng = derive_rng(2, "test")
        leaf = topo.host_attachment(0).switch
        dead = {(leaf, topo.m + u) for u in range(topo.m)}  # all up ports

        def link_ok(switch, port):
            return (switch, port) not in dead

        assert topo.route_avoiding(
            0, topo.num_hosts - 1, rng, link_ok) is None

    def test_clos_route_avoiding_is_valid_path(self):
        from repro.core.rng import derive_rng

        topo = FoldedClos(8, 2)
        rng = derive_rng(3, "test")
        ports = topo.route_avoiding(1, 14, rng, lambda s, p: True)
        switch = topo.host_attachment(1).switch
        for port in ports[:-1]:
            switch = topo.neighbor(switch, port).switch
            assert switch is not None
        final = topo.neighbor(switch, ports[-1])
        assert final.switch is None and final.host == 14

    def test_mesh_permutes_dimension_order(self):
        from repro.core.rng import derive_rng

        topo = Mesh((3, 3))
        rng = derive_rng(4, "test")
        # Block the +x link out of (0, 0): the dimension-order route
        # (x first) dies, so the detour must correct y first.
        dead = {((0, 0), 0)}

        def link_ok(switch, port):
            return (switch, port) not in dead

        blind = topo.route(0, topo.num_hosts - 1, rng)
        assert blind[0] == 0  # x-first by default
        alt = topo.route_avoiding(0, topo.num_hosts - 1, rng, link_ok)
        assert alt is not None
        assert alt[0] == 2  # y-first detour

    def test_mesh_returns_none_when_cut_off(self):
        from repro.core.rng import derive_rng

        topo = Mesh((3, 3))
        rng = derive_rng(5, "test")
        # Sever every link out of the source switch.
        dead = {((0, 0), p) for p in range(4)}
        alt = topo.route_avoiding(
            0, topo.num_hosts - 1, rng, lambda s, p: (s, p) not in dead
        )
        assert alt is None


# ----------------------------------------------------------------------
# Observability: hooks, metrics, tracing, Chrome export
# ----------------------------------------------------------------------


class TestFaultObservability:
    def test_hook_events_fire(self):
        injected, recovered = [], []
        plan = FaultPlan(corrupt_rate=0.05, credit_loss_rate=0.02)
        sim = SwitchSimulation(
            BufferedCrossbarRouter(CFG), load=0.5, faults=plan
        )
        sim.hooks.on_fault_inject(
            lambda kind, where, cycle: injected.append((kind, where, cycle))
        )
        sim.hooks.on_fault_recover(
            lambda kind, where, cycle: recovered.append((kind, where, cycle))
        )
        for _ in range(600):
            sim.step()
        kinds = {k for k, _, _ in injected}
        assert CORRUPT in kinds
        assert CREDIT_LOSS in kinds
        assert recovered  # at least one retransmit or resync

    def test_metrics_collector_counts_faults(self):
        from repro.harness.metrics import MetricsCollector

        plan = FaultPlan(corrupt_rate=0.05)
        sim = SwitchSimulation(
            BufferedCrossbarRouter(CFG), load=0.5, faults=plan
        )
        metrics = MetricsCollector(CFG.radix).attach(sim)
        for _ in range(600):
            sim.step()
        assert metrics.fault_injects.get("corrupt", 0) > 0
        summary = metrics.summary()
        assert "faults injected" in summary
        assert "corrupt=" in summary

    def test_trace_collector_logs_fault_events(self):
        from repro.trace import TraceCollector

        plan = FaultPlan(corrupt_rate=0.05)
        collector = TraceCollector()
        sim = SwitchSimulation(
            BufferedCrossbarRouter(CFG), load=0.5, faults=plan,
            tracer=collector,
        )
        for _ in range(600):
            sim.step()
        assert collector.fault_injects > 0
        assert collector.fault_events
        direction, kind, where, cycle = collector.fault_events[0]
        assert direction in ("inject", "recover")
        assert kind == "corrupt"
        assert isinstance(where, tuple)

        from repro.routers.base import RouterStats

        stats = RouterStats()
        collector.fold_stats(stats)
        assert stats.extra["trace.fault_injects"] == collector.fault_injects

    def test_chrome_export_has_fault_track(self):
        import json

        from repro.trace import TraceCollector
        from repro.trace.chrome import chrome_trace_json

        plan = FaultPlan(corrupt_rate=0.08)
        collector = TraceCollector()
        sim = SwitchSimulation(
            BufferedCrossbarRouter(CFG), load=0.5, faults=plan,
            tracer=collector,
        )
        for _ in range(600):
            sim.step()
        doc = json.loads(chrome_trace_json(collector))
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert instants
        assert all(e["pid"] == 1 for e in instants)
        assert any("corrupt" in e["name"] for e in instants)
        # The fault track replays identically for an identical second
        # run.  (Packet ids are globally monotonic, so the span events
        # differ in-process; the fault instants carry no packet ids.)
        collector2 = TraceCollector()
        sim2 = SwitchSimulation(
            BufferedCrossbarRouter(CFG), load=0.5, faults=plan,
            tracer=collector2,
        )
        for _ in range(600):
            sim2.step()
        doc2 = json.loads(chrome_trace_json(collector2))
        instants2 = [e for e in doc2["traceEvents"] if e["ph"] == "i"]
        assert instants2 == instants

    def test_no_fault_trace_has_no_fault_track(self):
        import json

        from repro.trace import TraceCollector
        from repro.trace.chrome import chrome_trace_json

        collector = TraceCollector()
        sim = SwitchSimulation(
            BufferedCrossbarRouter(CFG), load=0.5, tracer=collector
        )
        for _ in range(300):
            sim.step()
        doc = json.loads(chrome_trace_json(collector))
        assert not [e for e in doc["traceEvents"] if e["ph"] == "i"]
