"""Ablation (Section 5.2): shared credit-return bus vs ideal credits.

The fully buffered crossbar returns crosspoint credits over one shared
bus per input row, with distributed arbitration.  The paper compares
this against an "ideal (but not realizable) switch in which credits are
returned immediately" and reports that "there is minimal difference" —
a crosspoint that loses the bus arbitration has three spare cycles to
retry because each flit occupies the row for four cycles.

This ablation regenerates that comparison.
"""

from common import BASE_CONFIG, SAT_SETTINGS, save_table

from repro.harness.experiment import saturation_throughput
from repro.harness.report import format_table
from repro.routers.buffered import BufferedCrossbarRouter


def test_ablation_credit_return_bus():
    shared = saturation_throughput(
        BufferedCrossbarRouter, BASE_CONFIG, settings=SAT_SETTINGS
    )
    ideal = saturation_throughput(
        BufferedCrossbarRouter,
        BASE_CONFIG.with_(ideal_credit_return=True),
        settings=SAT_SETTINGS,
    )
    # The shared bus matters most when buffers are shallow: with a
    # single-flit crosspoint buffer every credit is on the critical
    # path.
    shared_shallow = saturation_throughput(
        BufferedCrossbarRouter,
        BASE_CONFIG.with_(crosspoint_buffer_depth=1),
        settings=SAT_SETTINGS,
    )
    ideal_shallow = saturation_throughput(
        BufferedCrossbarRouter,
        BASE_CONFIG.with_(crosspoint_buffer_depth=1,
                          ideal_credit_return=True),
        settings=SAT_SETTINGS,
    )

    table = format_table(
        ["crosspoint depth", "shared bus", "ideal credits"],
        [
            (BASE_CONFIG.crosspoint_buffer_depth, f"{shared:.3f}",
             f"{ideal:.3f}"),
            (1, f"{shared_shallow:.3f}", f"{ideal_shallow:.3f}"),
        ],
        title="Ablation: shared credit-return bus vs ideal credit return "
              "(saturation throughput)",
    )
    save_table("ablation_credit_bus", table)

    # Section 5.2: minimal difference at the paper's 4-flit buffers.
    assert abs(shared - ideal) < 0.05
