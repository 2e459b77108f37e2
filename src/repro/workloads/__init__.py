"""Dependency-driven application workloads.

Unlike the open-loop synthetic patterns in :mod:`repro.traffic`, a
workload is a per-flow DAG: a message becomes eligible to inject only
once its dependencies have been *delivered* by the simulated fabric.
Three families are provided — closed-loop request/reply, collective
phase DAGs (ring / recursive-doubling all-reduce, all-to-all, ring
broadcast, and transformer-decode sequences of them), and
cycle-accurate trace replay (CSV or ``repro.cli trace --chrome``
output).  :class:`WorkloadSource` adapts a workload to the
:class:`~repro.traffic.source.TrafficSource` drain contract so the
same harness and fast-forwarding scheduler drive it unchanged.
"""

from .base import Message, Workload, WorkloadBuilder
from .collectives import (
    all_reduce,
    all_to_all,
    broadcast,
    build_alltoall,
    build_recursive_doubling_allreduce,
    build_ring_allreduce,
    build_ring_broadcast,
    transformer_decode,
)
from .replay import (
    from_chrome_trace,
    from_csv,
    load_trace,
    parse_chrome_rows,
    parse_csv_rows,
)
from .request_reply import request_reply
from .source import WorkloadSource

__all__ = [
    "Message",
    "Workload",
    "WorkloadBuilder",
    "WorkloadSource",
    "all_reduce",
    "all_to_all",
    "broadcast",
    "build_alltoall",
    "build_recursive_doubling_allreduce",
    "build_ring_allreduce",
    "build_ring_broadcast",
    "from_chrome_trace",
    "from_csv",
    "load_trace",
    "parse_chrome_rows",
    "parse_csv_rows",
    "request_reply",
    "transformer_decode",
]
