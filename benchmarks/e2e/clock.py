"""Every host-clock, CPU-clock and process-id read of the benchmark.

The simulator's determinism lint (R002) forbids wall-clock reads in
anything that feeds a simulated result; a benchmark exists to read
them.  Keeping all of them in this one file, each behind its pragma,
means the rest of ``benchmarks/e2e`` stays lint-clean without pragmas
and a reviewer can see at a glance what the benchmark measures with.
"""

from __future__ import annotations

import os
import resource
import time


def wall() -> float:
    """Monotonic wall-clock seconds."""
    return time.perf_counter()  # lint: disable=R002


def cpu_self() -> float:
    """User+system CPU seconds of this process."""
    return time.process_time()


def cpu_reaped() -> float:
    """User+system CPU seconds of every child this process has reaped.

    Shard workers are joined inside the rep that spawned them, so a
    before/after delta of this counter is exactly their CPU time.
    """
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cpu_total() -> float:
    """CPU seconds of this process plus its reaped children."""
    return cpu_self() + cpu_reaped()


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reaped_peak_rss_mb() -> float:
    """Largest peak RSS among the children this process has reaped."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def pid() -> int:
    return os.getpid()  # lint: disable=R002
