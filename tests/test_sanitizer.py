"""Tests for the runtime simulation sanitizer.

Two halves: clean sanitized runs of every switch organization must
complete with zero violations, and injected faults (credit leaks,
buffer overflows, double VC grants, conservation breaks) must each be
detected with a located :class:`InvariantViolation`.
"""

import pytest

from repro.analysis.sanitizer import NetworkSanitizer, SimSanitizer
from repro.core.config import RouterConfig
from repro.core.errors import InvariantViolation
from repro.core.flit import make_packet
from repro.harness.experiment import SweepSettings, SwitchSimulation
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.routers import (
    BaselineRouter,
    BufferedCrossbarRouter,
    DistributedRouter,
    HierarchicalCrossbarRouter,
    SharedBufferCrossbarRouter,
    VoqRouter,
)

ALL_ROUTERS = [
    BaselineRouter,
    DistributedRouter,
    BufferedCrossbarRouter,
    SharedBufferCrossbarRouter,
    HierarchicalCrossbarRouter,
    VoqRouter,
]

SHORT = SweepSettings(warmup=60, measure=120, drain=4000)


def _config(radix=16):
    return RouterConfig(radix=radix)


def _small_router(cls=BaselineRouter, radix=8):
    return cls(RouterConfig(radix=radix, input_buffer_depth=4))


def _single_flit(dest=1, src=0, vc=0, packet_id_offset=0):
    (flit,) = make_packet(dest=dest, size=1, src=src)
    flit.vc = vc
    return flit


# ----------------------------------------------------------------------
# Clean sanitized runs
# ----------------------------------------------------------------------


@pytest.mark.parametrize("router_cls", ALL_ROUTERS)
def test_sanitized_radix16_run_completes_clean(router_cls):
    """Every organization sustains per-cycle structural checks at k=16."""
    router = SimSanitizer(router_cls(_config(16)), check_interval=2)
    sim = SwitchSimulation(router, load=0.6, seed=7, sanitize=True)
    # sanitize=True must not re-wrap an existing sanitizer.
    assert sim.router is router
    sim.run(SHORT)
    sim.stop_sources()
    budget = 20000
    while budget > 0 and (
        any(s.backlog() for s in sim.sources) or not sim.router.idle()
    ):
        sim.step()
        budget -= 1
    sim.router.assert_drained()
    assert router.checks_run > 0
    assert router.violations_checked > 0


def test_switch_simulation_sanitize_flag_wraps_router():
    sim = SwitchSimulation(BaselineRouter(_config(8)), load=0.3,
                           sanitize=True)
    assert isinstance(sim.router, SimSanitizer)


def test_check_interval_throttles_structural_checks():
    router = SimSanitizer(_small_router(), check_interval=5)
    for _ in range(10):
        router.step()
    assert router.checks_run == 2


def test_check_interval_validated():
    with pytest.raises(ValueError):
        SimSanitizer(_small_router(), check_interval=0)
    with pytest.raises(ValueError):
        NetworkSanitizer(
            NetworkSimulation(NetworkConfig(radix=4, levels=2), load=0.1),
            check_interval=0,
        )


# ----------------------------------------------------------------------
# Fault injection: every invariant must actually trip
# ----------------------------------------------------------------------


def test_detects_flit_conservation_break():
    san = SimSanitizer(_small_router())
    san.accept(0, _single_flit())
    # Vanish the flit behind the sanitizer's back.
    san.inner.inputs[0][0].pop()
    with pytest.raises(InvariantViolation) as exc:
        san.check_now()
    assert exc.value.check == "flit-conservation"


def test_detects_buffer_overflow():
    san = SimSanitizer(_small_router())
    inner = san.inner
    depth = inner.config.input_buffer_depth
    for _ in range(depth):
        san.accept(0, _single_flit())
    # Bypass the push() guard: stuff one flit past the depth limit
    # (keeping the accounting consistent so only the bound trips).
    extra = _single_flit()
    inner.inputs[0][0]._q.append(extra)
    inner.stats.flits_accepted += 1
    with pytest.raises(InvariantViolation) as exc:
        san.check_now()
    assert exc.value.check == "buffer-bounds"
    assert exc.value.port == 0
    assert exc.value.vc == 0


def test_detects_stale_vc_ownership():
    san = SimSanitizer(_small_router())
    # Grant an output VC to a packet the router has never seen.
    san.inner.output_vcs[2].allocate(1, 999_999)
    with pytest.raises(InvariantViolation) as exc:
        san.check_now()
    assert exc.value.check == "vc-ownership"
    assert exc.value.port == 2
    assert exc.value.vc == 1


def test_detects_double_vc_grant():
    san = SimSanitizer(_small_router())
    flit = _single_flit()
    san.accept(0, flit)
    # One live packet granted two output VCs at once.
    san.inner.output_vcs[0].allocate(0, flit.packet_id)
    san.inner.output_vcs[1].allocate(0, flit.packet_id)
    with pytest.raises(InvariantViolation) as exc:
        san.check_now()
    assert exc.value.check == "vc-ownership"
    assert "two output VCs" in str(exc.value)


def test_detects_credit_leak_buffered():
    router = BufferedCrossbarRouter(RouterConfig(radix=8))
    san = SimSanitizer(router)
    router._credits[0][3][1].consume()  # leak one crosspoint credit
    with pytest.raises(InvariantViolation) as exc:
        san.check_now()
    err = exc.value
    assert err.check == "credit-conservation"
    assert "leak" in str(err)
    assert err.port == 0
    assert err.vc == 1
    assert err.context["output"] == 3


def test_detects_credit_surplus_hierarchical():
    router = HierarchicalCrossbarRouter(
        RouterConfig(radix=8, subswitch_size=4, local_group_size=4)
    )
    san = SimSanitizer(router)
    # Conjure a credit from nothing (restore() itself guards overflow,
    # so the fault is injected straight into the counter state).
    router._in_credits[5][0][0]._free += 1
    with pytest.raises(InvariantViolation) as exc:
        san.check_now()
    assert exc.value.check == "credit-conservation"
    assert "surplus" in str(exc.value)


def _corrupt_in_count(router):
    router.sub[1][0].in_count[2] += 1


def _corrupt_out_count(router):
    router.sub[0][1].out_count[3] -= 1


def _corrupt_in_total(router):
    router.sub[1][1].in_total += 1


def _corrupt_port_flits(router):
    router._port_flits[6] += 1


def _corrupt_crossing(router):
    # Toggle membership of subswitch (0, 0): wrong whether or not one
    # of its flits happens to be crossing right now.
    router._crossing ^= {0}


@pytest.mark.parametrize("corrupt", [
    _corrupt_in_count, _corrupt_out_count, _corrupt_in_total,
    _corrupt_port_flits, _corrupt_crossing,
])
def test_detects_occupancy_index_drift(corrupt):
    """Each counter the hierarchical hot path trusts instead of walking
    its buffers is audited against the walked queues every cycle."""
    sim = SwitchSimulation(
        HierarchicalCrossbarRouter(
            RouterConfig(radix=8, subswitch_size=4, local_group_size=4)
        ),
        load=0.6, sanitize=True, seed=3,
    )
    for _ in range(40):
        sim.step()
    router = sim.router.inner
    corrupt(router)
    with pytest.raises(InvariantViolation) as exc:
        sim.router.check_now()
    assert exc.value.check == "occupancy-index"
    assert exc.value.cycle == router.cycle


def _corrupt_occupied(router):
    # Toggle crosspoint (6, 3): wrong whether or not it holds a flit.
    router._occupied[3] ^= {6}


def _corrupt_bus_waiting(router):
    router._credit_buses[2]._waiting ^= {5}


def _corrupt_bus_live(router):
    router._bus_live ^= {0}


@pytest.mark.parametrize("router_cls, corrupt, config", [
    (BufferedCrossbarRouter, _corrupt_occupied, RouterConfig(radix=8)),
    (SharedBufferCrossbarRouter, _corrupt_occupied, RouterConfig(radix=8)),
    (BufferedCrossbarRouter, _corrupt_bus_waiting, RouterConfig(radix=8)),
    (BufferedCrossbarRouter, _corrupt_bus_live, RouterConfig(radix=8)),
    # The array twin shares the buses and their live set.
    (BufferedCrossbarRouter, _corrupt_bus_live,
     RouterConfig(radix=8, batch_hot_path=True)),
])
def test_detects_crosspoint_index_drift(router_cls, corrupt, config):
    """The crosspoint crossbars' output stages walk ``_occupied[j]``
    instead of column j, each credit bus arbitrates among its
    ``_waiting`` sources instead of scanning its row, and the router
    steps only ``_bus_live`` buses; each index is audited against a
    walk every cycle."""
    sim = SwitchSimulation(
        router_cls(config), load=0.6, sanitize=True, seed=3,
    )
    for _ in range(40):
        sim.step()
    router = sim.router.inner
    corrupt(router)
    with pytest.raises(InvariantViolation) as exc:
        sim.router.check_now()
    assert exc.value.check == "occupancy-index"
    assert exc.value.cycle == router.cycle


@pytest.mark.parametrize("router_cls", ALL_ROUTERS)
def test_detects_input_count_drift(router_cls):
    """``Router._in_flits`` — what every input stage and the harness's
    blocked-port skip trust instead of walking the banks — is recounted
    each checked cycle; a drift is reported at the cycle it happens."""
    sim = SwitchSimulation(
        router_cls(
            RouterConfig(radix=8, subswitch_size=4, local_group_size=4)
        ),
        load=0.6, sanitize=True, seed=3,
    )
    for _ in range(40):
        sim.step()
    router = sim.router.inner
    assert router._in_flits == [len(bank) for bank in router.inputs]
    router._in_flits[5] += 1
    drifted_at = router.cycle
    with pytest.raises(InvariantViolation) as exc:
        sim.step()
    assert exc.value.check == "occupancy-index"
    assert exc.value.cycle == drifted_at + 1
    assert "_in_flits" in str(exc.value)


def test_detects_credit_leak_shared_buffer():
    router = SharedBufferCrossbarRouter(RouterConfig(radix=8))
    san = SimSanitizer(router)
    router._credits[2][2].consume()
    with pytest.raises(InvariantViolation) as exc:
        san.check_now()
    assert exc.value.check == "credit-conservation"


def test_violation_carries_cycle_context():
    router = BufferedCrossbarRouter(RouterConfig(radix=8))
    san = SimSanitizer(router)
    for _ in range(17):
        san.step()
    router._credits[0][0][0].consume()
    with pytest.raises(InvariantViolation) as exc:
        san.step()
    err = exc.value
    assert err.cycle == 18
    assert f"cycle {err.cycle}" in str(err)
    assert "[credit-conservation]" in str(err)


def test_violation_is_assertion_error():
    # Backward compatibility: pytest.raises(AssertionError) in the
    # existing suites keeps catching sanitizer failures.
    assert issubclass(InvariantViolation, AssertionError)


# ----------------------------------------------------------------------
# Network-level sanitizer
# ----------------------------------------------------------------------


def test_sanitized_network_run_completes_clean():
    sim = NetworkSimulation(
        NetworkConfig(radix=4, levels=2, seed=3), load=0.4, sanitize=True
    )
    assert sim._sanitizer is not None
    sim.run(warmup=100, measure=100, drain=5000)
    assert sim._sanitizer.checks_run > 0


def test_network_sanitizer_detects_link_credit_leak():
    sim = NetworkSimulation(
        NetworkConfig(radix=4, levels=2, seed=3), load=0.4, sanitize=True
    )
    for _ in range(50):
        sim.step()
    _name, _port, link, _target, _tport = sim._sanitizer._links[0]
    link.credits[0].consume()
    with pytest.raises(InvariantViolation) as exc:
        sim.step()
    assert exc.value.check == "credit-conservation"


def test_network_sanitizer_detects_buffer_overflow():
    sim = NetworkSimulation(
        NetworkConfig(radix=4, levels=2, seed=3), load=0.2, sanitize=True
    )
    router = next(iter(sim.routers.values()))
    queue = router.inputs[0][0]
    for _ in range((queue.maxlen or 0) + 1):
        queue._q.append(_single_flit())
    with pytest.raises(InvariantViolation) as exc:
        sim._sanitizer.check_now(sim.cycle)
    assert exc.value.check == "buffer-bounds"


def _drift_in_flits(router):
    router._in_flits[1] += 1


def _drift_occupied(router):
    # Toggle membership of input 0: wrong whether or not it holds a
    # flit right now.
    router._occupied ^= {0}


def _drift_resident(router):
    router._resident -= 1


@pytest.mark.parametrize("drift", [
    _drift_in_flits, _drift_occupied, _drift_resident,
])
def test_network_sanitizer_detects_occupancy_index_drift(drift):
    """``NetworkRouter`` allocates over ``_occupied``, decides an input
    emptied from ``_in_flits`` and parks on ``_resident``; each is
    audited against a walk of the input banks every check, and a
    drifted one is reported at the cycle it drifts."""
    sim = NetworkSimulation(
        NetworkConfig(radix=4, levels=2, seed=3), load=0.6, sanitize=True
    )
    for _ in range(50):
        sim.step()
    router = list(sim.routers.values())[1]
    drift(router)
    with pytest.raises(InvariantViolation) as exc:
        sim.step()
    assert exc.value.check == "occupancy-index"
    assert exc.value.cycle == 51
    assert exc.value.context["router"] == router.name


def test_network_sanitizer_detects_arrival_stream_drift(monkeypatch):
    """Event mode's bulk pre-draw keeps each host's stream in a state
    row that runs ahead of the Python stream between arrivals; the
    snapshot relies on the two differing by polls alone.  A hand-back
    that leaves one row word wrong is reported at the cycle it
    happens, for the host it happened to."""
    from repro.core.rng import StreamRows
    from repro.network.arrivals import HAVE_NUMPY

    if not HAVE_NUMPY:
        pytest.skip("numpy unavailable; there are no state rows")
    sim = NetworkSimulation(
        NetworkConfig(radix=4, levels=2, seed=3), load=1e-3,
        scheduler="event", sanitize=True,
    )
    assert sim.arrivals.bulk
    sim.run_until(8000)
    book = sim.arrivals.snapshot()["arrivals"]
    assert sum(book["sync_cursor"]) > 0  # arrivals were audited, cleanly
    corrupted = []
    real_push = StreamRows.push

    def push(rows, host, stream):
        real_push(rows, host, stream)
        if not corrupted:
            rows.rows[host, 17] ^= 1
            corrupted.append((host, sim.cycle))

    monkeypatch.setattr(StreamRows, "push", push)
    with pytest.raises(InvariantViolation) as exc:
        sim.run_until(16000)
    (host, cycle), = corrupted
    assert exc.value.check == "arrival-stream"
    assert exc.value.cycle == cycle + 1
    assert exc.value.context["host"] == host
