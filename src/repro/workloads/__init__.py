"""Dependency-driven application workloads.

Unlike the open-loop synthetic patterns in :mod:`repro.traffic`, a
workload is a per-flow DAG: a message becomes eligible to inject only
once its dependencies have been *delivered* by the simulated fabric.
Three families are provided — closed-loop request/reply, collective
phase DAGs (ring / recursive-doubling all-reduce, all-to-all, ring
broadcast, and transformer-decode sequences of them), and
cycle-accurate trace replay (CSV or ``repro.cli trace --chrome``
output).  Both simulations drive a workload through their one host
side (:class:`~repro.harness.program.StagedRun`): ready messages join
the same source queues as synthetic packets, and the fast-forwarding
scheduler wakes on the workload's eligibility horizon.
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

__all__ = [
    "Message",
    "Workload",
    "WorkloadBuilder",
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
