"""Figure 14: crosspoint buffer size vs performance, short and long packets.

Regenerates the latency-load behaviour of the fully buffered crossbar
as the per-VC crosspoint buffer depth varies, for 1-flit packets
(Figure 14(a)) and 10-flit packets (Figure 14(b)).

Paper claims checked:
* for short packets, four-flit crosspoint buffers are sufficient —
  deeper buffers add (almost) nothing;
* for long packets, small buffers strangle throughput and larger
  crosspoint buffers are required.
"""

from common import BASE_CONFIG, SAT_SETTINGS, save_table

from repro.harness.experiment import saturation_throughput
from repro.harness.report import format_table
from repro.routers.buffered import BufferedCrossbarRouter

SHORT_DEPTHS = (1, 2, 4, 16)
LONG_DEPTHS = (4, 16, 64)


def test_fig14_crosspoint_buffer_size():
    short = {}
    for depth in SHORT_DEPTHS:
        cfg = BASE_CONFIG.with_(crosspoint_buffer_depth=depth)
        short[depth] = saturation_throughput(
            BufferedCrossbarRouter, cfg, settings=SAT_SETTINGS
        )
    long_ = {}
    for depth in LONG_DEPTHS:
        cfg = BASE_CONFIG.with_(
            crosspoint_buffer_depth=depth, input_buffer_depth=32
        )
        long_[depth] = saturation_throughput(
            BufferedCrossbarRouter, cfg, packet_size=10,
            settings=SAT_SETTINGS,
        )

    table = format_table(
        ["crosspoint depth (flits)", "saturation throughput"],
        [(d, f"{t:.3f}") for d, t in short.items()],
        title="Figure 14(a): 1-flit packets",
    )
    table += "\n\n" + format_table(
        ["crosspoint depth (flits)", "saturation throughput"],
        [(d, f"{t:.3f}") for d, t in long_.items()],
        title="Figure 14(b): 10-flit packets",
    )
    save_table("fig14_buffer_size", table)

    # (a) Four-flit buffers suffice for short packets.
    assert short[4] > 0.9
    assert short[16] - short[4] < 0.05
    # Depth 1 cannot cover the credit round-trip.
    assert short[1] < short[4]
    # (b) Long packets need bigger buffers.
    assert long_[64] > long_[4] + 0.1
    assert long_[16] > long_[4]
