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
    sim = SwitchSimulation(router_cls(_config(16)), load=0.6, seed=7,
                           sanitize=True)
    sim.run(SHORT)
    sim.stop_sources()
    budget = 20000
    while budget > 0 and (
        any(s.backlog() for s in sim.sources) or not sim.router.idle()
    ):
        sim.step()
        budget -= 1
    sim.sanitizer.assert_drained()
    assert sim.sanitizer.checks_run > 0
    assert sim.sanitizer.violations_checked > 0


def test_switch_simulation_sanitize_flag_wraps_router():
    """``sanitize=True`` attaches an observer; the simulation still
    drives the very router it was given."""
    router = BaselineRouter(_config(8))
    sim = SwitchSimulation(router, load=0.3, sanitize=True)
    assert sim.router is router
    assert isinstance(sim.sanitizer, SimSanitizer)
    assert sim.sanitizer.router is router
    assert SwitchSimulation(BaselineRouter(_config(8))).sanitizer is None


# ----------------------------------------------------------------------
# Fault injection: every invariant must actually trip
# ----------------------------------------------------------------------


def test_detects_flit_conservation_break():
    router = _small_router()
    san = SimSanitizer(router)
    router.accept(0, _single_flit())
    # Vanish the flit behind the sanitizer's back.
    router.inputs[0][0].pop()
    with pytest.raises(InvariantViolation) as exc:
        san.check_now()
    assert exc.value.check == "flit-conservation"


def test_detects_buffer_overflow():
    router = _small_router()
    san = SimSanitizer(router)
    depth = router.config.input_buffer_depth
    for _ in range(depth):
        router.accept(0, _single_flit())
    # Bypass the push() guard: stuff one flit past the depth limit
    # (keeping the accounting consistent so only the bound trips).
    extra = _single_flit()
    router.inputs[0][0]._q.append(extra)
    router.stats.flits_accepted += 1
    with pytest.raises(InvariantViolation) as exc:
        san.check_now()
    assert exc.value.check == "buffer-bounds"
    assert exc.value.port == 0
    assert exc.value.vc == 0


def test_detects_stale_vc_ownership():
    router = _small_router()
    san = SimSanitizer(router)
    # Grant an output VC to a packet the router has never seen.
    router.output_vcs[2].allocate(1, 999_999)
    with pytest.raises(InvariantViolation) as exc:
        san.check_now()
    assert exc.value.check == "vc-ownership"
    assert exc.value.port == 2
    assert exc.value.vc == 1


def test_detects_double_vc_grant():
    router = _small_router()
    san = SimSanitizer(router)
    flit = _single_flit()
    router.accept(0, flit)
    # One live packet granted two output VCs at once.
    router.output_vcs[0].allocate(0, flit.packet_id)
    router.output_vcs[1].allocate(0, flit.packet_id)
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


def _owed_counter_buffered(router):
    return next(sink for bus in router._credit_buses
                for sink in bus.pending_sinks()).__self__


def _owed_counter_hierarchical(router):
    return router._credit_pipe.pending_sinks()[0].__self__


@pytest.mark.parametrize("router_cls, owed_counter", [
    (BufferedCrossbarRouter, _owed_counter_buffered),
    (HierarchicalCrossbarRouter, _owed_counter_hierarchical),
])
def test_detects_credit_surplus_on_a_counter_owed_credits(router_cls,
                                                          owed_counter):
    """A counter with a credit on its way back balances without it once
    a credit is conjured into it; the books still count what it is owed
    and name the surplus."""
    sim = SwitchSimulation(
        router_cls(RouterConfig(radix=8, subswitch_size=4, local_group_size=4)),
        load=0.6, sanitize=True, seed=3,
    )
    for _ in range(40):
        sim.step()
    owed_counter(sim.router)._free += 1
    with pytest.raises(InvariantViolation) as exc:
        sim.sanitizer.check_now()
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
    router = sim.router
    corrupt(router)
    with pytest.raises(InvariantViolation) as exc:
        sim.sanitizer.check_now()
    assert exc.value.check == "occupancy-index"
    assert exc.value.cycle == router.cycle


def _corrupt_occupied(router):
    # Toggle crosspoint (6, 3): wrong whether or not it holds a flit.
    router._occupied[3] ^= {6}


def _corrupt_bus_waiting(router):
    router._credit_buses[2]._waiting ^= {5}


def _corrupt_bus_live(router):
    router._bus_live ^= {0}


def _forget_voq_row(router):
    # An occupied input forgets its destinations: its flits strand.
    i = next(i for i, dests in enumerate(router._occupied) if dests)
    router._occupied[i].clear()


def _phantom_voq_dest(router):
    # Input 0 claims a destination whose VOQ is empty.
    j = next(j for j, bank in enumerate(router.voqs[0]) if not len(bank))
    router._occupied[0].add(j)


@pytest.mark.parametrize("router_cls, corrupt, config", [
    (BufferedCrossbarRouter, _corrupt_occupied, RouterConfig(radix=8)),
    (SharedBufferCrossbarRouter, _corrupt_occupied, RouterConfig(radix=8)),
    (BufferedCrossbarRouter, _corrupt_bus_waiting, RouterConfig(radix=8)),
    (BufferedCrossbarRouter, _corrupt_bus_live, RouterConfig(radix=8)),
    # The array twin shares the buses and their live set.
    (BufferedCrossbarRouter, _corrupt_bus_live,
     RouterConfig(radix=8, batch_hot_path=True)),
    # The VOQ allocator visits _occupied[i] instead of walking row i.
    (VoqRouter, _forget_voq_row, RouterConfig(radix=8)),
    (VoqRouter, _phantom_voq_dest, RouterConfig(radix=8)),
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
    router = sim.router
    corrupt(router)
    with pytest.raises(InvariantViolation) as exc:
        sim.sanitizer.check_now()
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
    router = sim.router
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
    SimSanitizer(router)
    for _ in range(17):
        router.step()
    router._credits[0][0][0].consume()
    with pytest.raises(InvariantViolation) as exc:
        router.step()
    err = exc.value
    assert err.cycle == 18
    assert f"cycle {err.cycle}" in str(err)
    assert "[credit-conservation]" in str(err)


def test_violation_is_assertion_error():
    # Backward compatibility: pytest.raises(AssertionError) in the
    # existing suites keeps catching sanitizer failures.
    assert issubclass(InvariantViolation, AssertionError)


# ----------------------------------------------------------------------
# Stream contracts: each names its law and its cycle
# ----------------------------------------------------------------------


def _accept(router, *flits):
    for flit in flits:
        router.hooks.emit_flit_move("accept", flit, flit.src, 4)


def _eject(router, flit, port, cycle):
    router.hooks.emit_flit_move("eject", flit, port, cycle)


def _double_accept(router, san):
    (flit,) = make_packet(dest=1, size=1, src=0)
    _accept(router, flit)
    router.hooks.emit_flit_move("accept", flit, 2, 9)


def _phantom_eject(router, san):
    (flit,) = make_packet(dest=1, size=1, src=0)
    _eject(router, flit, 1, 9)


def _wrong_output(router, san):
    (flit,) = make_packet(dest=1, size=1, src=0)
    _accept(router, flit)
    _eject(router, flit, 2, 9)


def _out_of_order(router, san):
    head, tail = make_packet(dest=1, size=2, src=0)
    _accept(router, head, tail)
    _eject(router, tail, 1, 9)


def _interleaved_vc(router, san):
    first = make_packet(dest=1, size=2, src=0)
    second = make_packet(dest=1, size=2, src=2)
    _accept(router, *first, *second)
    _eject(router, first[0], 1, 5)
    _eject(router, second[0], 1, 9)


def _over_bandwidth(router, san):
    (first,) = make_packet(dest=1, size=1, src=0)
    (second,) = make_packet(dest=1, size=1, src=2)
    _accept(router, first, second)
    _eject(router, first, 1, 8)
    _eject(router, second, 1, 9)  # flit_cycles is 2


def _undrained(router, san):
    router.cycle = 9
    _accept(router, *make_packet(dest=1, size=1, src=0))
    san.assert_drained()


@pytest.mark.parametrize("provoke, check, port", [
    (_double_accept, "stream-conservation", 2),
    (_phantom_eject, "stream-conservation", 1),
    (_wrong_output, "stream-destination", 2),
    (_out_of_order, "stream-order", 1),
    (_interleaved_vc, "stream-vc-discipline", 1),
    (_over_bandwidth, "stream-bandwidth", 1),
    (_undrained, "drain", None),
])
def test_stream_violation_is_located(provoke, check, port):
    """Every stream contract raises with its ``check`` name, the cycle
    of the offending event, and the port it moved through."""
    router = BaselineRouter(RouterConfig(radix=8, flit_cycles=2))
    san = SimSanitizer(router)
    with pytest.raises(InvariantViolation) as exc:
        provoke(router, san)
    assert exc.value.check == check
    assert exc.value.cycle == 9
    assert exc.value.port == port
    assert f"[{check}]" in str(exc.value)


@pytest.mark.parametrize("scheduler", ["cycle", "event"])
def test_sanitizer_composes_with_tracing(scheduler):
    """The sanitizer and a trace collector share the router's hook bus
    without perturbing each other: a traced run is the same with and
    without the sanitizer, and the collector names the model."""
    from repro.core.flit import reset_packet_ids
    from repro.trace import TraceCollector, chrome_trace_json

    def traced(sanitize):
        reset_packet_ids()
        collector = TraceCollector()
        sim = SwitchSimulation(
            HierarchicalCrossbarRouter(
                RouterConfig(radix=8, subswitch_size=4, local_group_size=4)
            ),
            load=0.5, seed=5, sanitize=sanitize, tracer=collector,
            scheduler=scheduler,
        )
        result = sim.run(SHORT)
        assert collector.label == "HierarchicalCrossbarRouter"
        assert collector.declared_stages == (
            HierarchicalCrossbarRouter.TRACE_STAGES
        )
        if sanitize:
            assert sim.sanitizer.checks_run > 0
        return repr(result.row()), result.extra, chrome_trace_json(collector)

    assert traced(sanitize=True) == traced(sanitize=False)


# ----------------------------------------------------------------------
# Network-level sanitizer
# ----------------------------------------------------------------------


def test_sanitized_network_run_completes_clean():
    sim = NetworkSimulation(
        NetworkConfig(radix=4, levels=2, seed=3), load=0.4, sanitize=True
    )
    assert isinstance(sim.sanitizer, NetworkSanitizer)
    sim.run(warmup=100, measure=100, drain=5000)
    assert sim.sanitizer.checks_run > 0


def test_network_sanitizer_detects_link_credit_leak():
    """A leak is caught, and located, on the first and on the last
    credited link the sanitizer wired."""
    for which in (0, -1):
        sim = NetworkSimulation(
            NetworkConfig(radix=4, levels=2, seed=3), load=0.4, sanitize=True
        )
        for _ in range(50):
            sim.step()
        name, port, link, _target, _tport = sim.sanitizer._links[which]
        link.credits[0].consume()
        with pytest.raises(InvariantViolation) as exc:
            sim.step()
        assert exc.value.check == "credit-conservation"
        assert exc.value.context["router"] == name
        assert exc.value.port == port


def test_network_sanitizer_detects_buffer_overflow():
    sim = NetworkSimulation(
        NetworkConfig(radix=4, levels=2, seed=3), load=0.2, sanitize=True
    )
    router = next(iter(sim.routers.values()))
    queue = router.inputs[0][0]
    for _ in range((queue.maxlen or 0) + 1):
        queue._q.append(_single_flit())
    with pytest.raises(InvariantViolation) as exc:
        sim.sanitizer.check_now(sim.cycle)
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
