"""Property-based stress tests over the router models.

Hypothesis drives randomized configurations and workloads through each
switch organization, checking the invariants no microarchitecture may
break: conservation, per-packet ordering, VC ownership discipline at
the outputs, and bounded buffer occupancy.
"""

from collections import defaultdict

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.sanitizer import SimSanitizer
from repro.core.config import RouterConfig
from repro.core.flit import make_packet
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

# Randomized workload: a list of packets (src, dest, size, vc).
packets_strategy = st.lists(
    st.tuples(
        st.integers(0, 7),  # src
        st.integers(0, 7),  # dest
        st.integers(1, 4),  # size
        st.integers(0, 1),  # vc
    ),
    min_size=1,
    max_size=25,
)


def _drive(router_cls, packets, num_vcs=2):
    """Inject the packets (respecting buffer space) and drain fully.

    A :class:`SimSanitizer` observes the router, so every randomized
    workload doubles as a structural fuzz test: flit/credit
    conservation, buffer bounds, and VC ownership are verified as the
    simulation advances.
    """
    cfg = RouterConfig(
        radix=8, num_vcs=num_vcs, subswitch_size=4, local_group_size=4,
        input_buffer_depth=8,
    )
    router = router_cls(cfg)
    sanitizer = SimSanitizer(router)
    # Pending flits per (input, vc) in packet order.
    pending = defaultdict(list)
    for src, dest, size, vc in packets:
        for f in make_packet(dest=dest, size=size, src=src):
            f.vc = vc
            pending[(src, vc)].append(f)
    delivered = []
    for _ in range(6000):
        for (src, vc), flits in pending.items():
            while flits and router.input_space(src, vc) > 0:
                router.accept(src, flits.pop(0))
        router.step()
        delivered.extend(router.drain_ejected())
        if router.idle() and not any(pending.values()):
            break
    if router.idle() and not any(pending.values()):
        sanitizer.assert_drained()
    return router, delivered


@pytest.mark.parametrize("router_cls", ALL_ROUTERS)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(packets=packets_strategy)
def test_conservation_and_order(router_cls, packets):
    total_flits = sum(size for _, _, size, _ in packets)
    router, delivered = _drive(router_cls, packets)
    # Every flit delivered exactly once; the router fully drains.
    assert len(delivered) == total_flits
    assert router.idle()
    # Per-packet flit order is preserved.
    seen_index = {}
    for f, _cycle in delivered:
        expected = seen_index.get(f.packet_id, 0)
        assert f.flit_index == expected
        seen_index[f.packet_id] = expected + 1
    # Every delivered flit reaches its requested destination.
    for f, _cycle in delivered:
        assert 0 <= f.dest < 8


@pytest.mark.parametrize("router_cls", ALL_ROUTERS)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(packets=packets_strategy)
def test_output_vc_discipline(router_cls, packets):
    """No two packets ever interleave on one (output, out VC)."""
    _, delivered = _drive(router_cls, packets)
    open_packet = {}
    for f, _cycle in delivered:
        key = (f.dest, f.out_vc)
        if f.is_head:
            assert open_packet.get(key) is None
            open_packet[key] = f.packet_id
        assert open_packet.get(key) == f.packet_id
        if f.is_tail:
            open_packet.pop(key)


@pytest.mark.parametrize("router_cls", ALL_ROUTERS)
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    packets=packets_strategy,
    num_vcs=st.integers(1, 2),
)
def test_output_vcs_all_released(router_cls, packets, num_vcs):
    """After a full drain, every output VC ledger is free again."""
    packets = [(s, d, size, min(vc, num_vcs - 1))
               for s, d, size, vc in packets]
    router, _ = _drive(router_cls, packets, num_vcs=num_vcs)
    for out in range(8):
        for vc in range(num_vcs):
            assert router.output_vcs[out].is_free(vc)
