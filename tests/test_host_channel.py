"""The host-channel protocol, pinned once on both simulation stacks.

Every curve is measured through the same channel between a source
queue and the router: at most one send attempt per ``flit_cycles``
cycles (a corrupted attempt occupies the channel too), and a packet
enters on one input VC, head flit first, which it holds to its tail.
These tests observe a radix-8 switch and a serial radix-4 Clos, each
jumping idle spans and stepping every cycle, through their hook buses, with a fault plan that
corrupts a fifth of all attempts, and check those rules per channel.
The plan's retransmit back-off is one cycle, shorter than
``flit_cycles``, so only the channel throttle can hold a channel for
``flit_cycles`` after a corrupted attempt.
"""

from collections import defaultdict

import pytest

from repro.core.config import RouterConfig
from repro.faults import CORRUPT, FaultPlan
from repro.harness.experiment import SwitchSimulation
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.routers.baseline import BaselineRouter
from tests.exhaustive import CLOCKS, clocked

PLAN = FaultPlan(corrupt_rate=0.2, retransmit_timeout=1, retransmit_backoff=1.0)
CYCLES = 1500


class _ChannelLog:
    """Accepts and corruptions per channel, as the hooks report them."""

    def __init__(self):
        #: channel -> [(cycle, packet_id, flit_index, is_head, is_tail, vc)]
        self.accepts = defaultdict(list)
        #: channel -> [cycle of each corrupted attempt]
        self.corrupts = defaultdict(list)

    def accept(self, channel, flit, cycle):
        self.accepts[channel].append((
            cycle, flit.packet_id, flit.flit_index, flit.is_head,
            flit.is_tail, flit.vc,
        ))

    def fault(self, kind, where, cycle):
        if kind == CORRUPT:
            self.corrupts[where[0]].append(cycle)


def _switch_log(clock):
    config = RouterConfig(radix=8, num_vcs=2, seed=3)
    sim = clocked(SwitchSimulation(
        BaselineRouter(config), load=0.7, packet_size=3, faults=PLAN,
    ), clock)
    log = _ChannelLog()
    hooks = sim.router.hooks

    @hooks.on_flit_move
    def on_move(kind, flit, port, cycle):
        if kind == "accept":  # every input port is host-fed
            log.accept(port, flit, cycle)

    hooks.on_fault_inject(log.fault)
    sim.run_until(CYCLES)
    return log, config.flit_cycles


def _network_log(clock):
    config = NetworkConfig(radix=4, levels=2, num_vcs=2, packet_size=3, seed=3)
    sim = clocked(NetworkSimulation(config, 0.6, faults=PLAN), clock)
    log = _ChannelLog()
    host_of = {}
    for host in range(sim.topology.num_hosts):
        attach = sim.topology.host_attachment(host)
        host_of[(attach.switch, attach.port)] = host

    def subscribe(switch):
        def on_move(kind, flit, port, cycle):
            host = host_of.get((switch, port))
            if kind == "accept" and host is not None:
                log.accept(host, flit, cycle)

        sim.routers[switch].hooks.on_flit_move(on_move)

    for switch in sim.routers:
        subscribe(switch)
    sim.hooks.on_fault_inject(log.fault)
    sim.run_until(CYCLES)
    return log, config.flit_cycles


STACKS = {"switch": _switch_log, "network": _network_log}


@pytest.fixture(
    scope="module",
    params=[(stack, clock) for stack in STACKS for clock in CLOCKS],
    ids=lambda p: f"{p[0]}-{p[1]}",
)
def observed(request):
    stack, clock = request.param
    log, flit_cycles = STACKS[stack](clock)
    # Not vacuous: every channel sent, and the plan corrupted some
    # attempts of multi-flit packets.
    assert log.accepts and all(len(a) > 20 for a in log.accepts.values())
    assert sum(len(c) for c in log.corrupts.values()) > 20
    return log, flit_cycles


def test_consecutive_accepts_are_flit_cycles_apart(observed):
    log, flit_cycles = observed
    for channel, accepts in log.accepts.items():
        cycles = [entry[0] for entry in accepts]
        gaps = [b - a for a, b in zip(cycles, cycles[1:])]
        assert min(gaps) >= flit_cycles, channel


def test_a_corrupted_attempt_holds_the_channel(observed):
    log, flit_cycles = observed
    for channel, corrupts in log.corrupts.items():
        accepts = [entry[0] for entry in log.accepts[channel]]
        for t in corrupts:
            assert not [a for a in accepts if t <= a < t + flit_cycles], (
                channel, t,
            )
        # Attempts of either outcome share the one channel.
        attempts = sorted(accepts + corrupts)
        gaps = [b - a for a, b in zip(attempts, attempts[1:])]
        assert min(gaps) >= flit_cycles, channel


def test_a_packet_enters_on_one_vc_head_first(observed):
    log, _ = observed
    for channel, accepts in log.accepts.items():
        open_packet = None
        for _, packet, index, is_head, is_tail, vc in accepts:
            if open_packet is None:
                assert is_head and index == 0, (channel, packet)
                open_packet = (packet, vc, 0)
            else:
                # The next flit of the same packet, on the same VC: no
                # other packet interleaves on the channel.
                held, held_vc, last = open_packet
                assert (packet, vc, index) == (held, held_vc, last + 1), (
                    channel, packet,
                )
                open_packet = (packet, vc, index)
            if is_tail:
                open_packet = None
