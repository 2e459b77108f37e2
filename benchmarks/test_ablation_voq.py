"""Ablation (Section 8): VOQ + iSLIP vs the paper's buffered crossbars.

The paper positions its designs against virtual output queueing: a VOQ
switch achieves ~100% throughput but needs O(k^2) buffering *and* a
complex centralized allocator, whereas "the simple distributed
allocation scheme discussed in Section 4 is able to achieve 100%
throughput" once crosspoint buffers are added.  This ablation makes the
comparison concrete: saturation throughput of the VOQ switch (1 and 2
iSLIP iterations) against the fully buffered and hierarchical
crossbars, along with each design's storage bill.
"""

from common import BASE_CONFIG, SAT_SETTINGS, save_table

from repro.harness.experiment import saturation_throughput
from repro.harness.report import format_table
from repro.models.area import (
    fully_buffered_storage_bits,
    hierarchical_storage_bits,
    voq_storage_bits,
)
from repro.routers.buffered import BufferedCrossbarRouter
from repro.routers.hierarchical import HierarchicalCrossbarRouter
from repro.routers.voq import VoqRouter


def test_ablation_voq_vs_buffered():
    sats = {
        "VOQ iSLIP-1": saturation_throughput(
            lambda c: VoqRouter(c, iterations=1), BASE_CONFIG,
            settings=SAT_SETTINGS),
        "VOQ iSLIP-2": saturation_throughput(
            lambda c: VoqRouter(c, iterations=2), BASE_CONFIG,
            settings=SAT_SETTINGS),
        "fully buffered": saturation_throughput(
            BufferedCrossbarRouter, BASE_CONFIG, settings=SAT_SETTINGS),
        "hierarchical p=8": saturation_throughput(
            HierarchicalCrossbarRouter,
            BASE_CONFIG.with_(subswitch_size=8),
            settings=SAT_SETTINGS),
    }
    bits = {
        "VOQ iSLIP-1": voq_storage_bits(BASE_CONFIG),
        "VOQ iSLIP-2": voq_storage_bits(BASE_CONFIG),
        "fully buffered": fully_buffered_storage_bits(BASE_CONFIG),
        "hierarchical p=8": hierarchical_storage_bits(
            BASE_CONFIG.with_(subswitch_size=8)),
    }

    table = format_table(
        ["architecture", "saturation throughput", "storage (bits)",
         "allocator"],
        [
            ("VOQ iSLIP-1", f"{sats['VOQ iSLIP-1']:.3f}",
             f"{bits['VOQ iSLIP-1']:,}", "centralized, iterative"),
            ("VOQ iSLIP-2", f"{sats['VOQ iSLIP-2']:.3f}",
             f"{bits['VOQ iSLIP-2']:,}", "centralized, iterative"),
            ("fully buffered", f"{sats['fully buffered']:.3f}",
             f"{bits['fully buffered']:,}", "distributed"),
            ("hierarchical p=8", f"{sats['hierarchical p=8']:.3f}",
             f"{bits['hierarchical p=8']:,}", "distributed"),
        ],
        title="Ablation: VOQ + iSLIP vs buffered crossbars "
              "(uniform random, 1-flit packets)",
    )
    save_table("ablation_voq", table)

    # All three high-throughput organizations land in the same band...
    for name in ("VOQ iSLIP-2", "fully buffered", "hierarchical p=8"):
        assert sats[name] > 0.85
    # ...but the hierarchical crossbar does it with far less storage
    # than either O(k^2) design.
    assert bits["hierarchical p=8"] < bits["VOQ iSLIP-1"] / 2
    assert bits["hierarchical p=8"] < bits["fully buffered"] / 2
    # A second iSLIP iteration helps the VOQ switch.
    assert sats["VOQ iSLIP-2"] >= sats["VOQ iSLIP-1"]
