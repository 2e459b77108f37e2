"""Measurement harness: Section 4.3 methodology, sweeps, reporting."""

from ..core.errors import InvariantViolation
from .checkpoint import CHECKPOINT_FORMAT, load_checkpoint, save_checkpoint
from .experiment import (
    SweepResult,
    SweepSettings,
    SwitchSimulation,
    find_saturation_load,
    run_load_sweep,
    saturation_throughput,
)
from .metrics import Histogram, MetricsCollector
from .persistence import load_metadata, load_sweeps, save_sweeps
from .plot import ascii_plot, plot_sweeps
from .report import format_saturation, format_sweeps, format_table
from .stats import LatencySample, RunResult, summarize

__all__ = [
    "CHECKPOINT_FORMAT",
    "load_checkpoint",
    "save_checkpoint",
    "SwitchSimulation",
    "SweepSettings",
    "SweepResult",
    "run_load_sweep",
    "saturation_throughput",
    "find_saturation_load",
    "LatencySample",
    "RunResult",
    "summarize",
    "format_table",
    "format_sweeps",
    "format_saturation",
    "ascii_plot",
    "plot_sweeps",
    "Histogram",
    "MetricsCollector",
    "save_sweeps",
    "load_sweeps",
    "load_metadata",
    "InvariantViolation",
]
