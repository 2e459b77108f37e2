"""Core primitives shared by every router model.

Flits and packets, router configuration, bounded flit buffers,
credit-based flow control, round-robin / hierarchical / prioritized
arbiters, fixed-latency delay lines, and deterministic RNG streams.
"""

from .arbiter import (
    HierarchicalArbiter,
    PriorityArbiter,
    RoundRobinArbiter,
)
from .buffers import FlitQueue, VcBufferBank
from .config import FAST_CONFIG, PAPER_CONFIG, RouterConfig
from .credit import CreditCounter, CreditReturnBus, DelayedCreditPipe
from .flit import Flit, make_packet, reset_packet_ids
from .pipeline import BusyTracker, DelayLine
from .pipeline_diagram import (
    Stage,
    baseline_pipeline,
    compare as compare_pipelines,
    cva_pipeline,
    head_flit_latency,
    ova_pipeline,
    pipeline_for,
    render as render_pipeline,
)
from .rng import derive_rng

__all__ = [
    "Flit",
    "make_packet",
    "reset_packet_ids",
    "RouterConfig",
    "PAPER_CONFIG",
    "FAST_CONFIG",
    "FlitQueue",
    "VcBufferBank",
    "CreditCounter",
    "CreditReturnBus",
    "DelayedCreditPipe",
    "RoundRobinArbiter",
    "HierarchicalArbiter",
    "PriorityArbiter",
    "DelayLine",
    "BusyTracker",
    "Stage",
    "baseline_pipeline",
    "cva_pipeline",
    "ova_pipeline",
    "pipeline_for",
    "head_flit_latency",
    "render_pipeline",
    "compare_pipelines",
    "derive_rng",
]
