"""repro: a reproduction of "Microarchitecture of a High-Radix Router".

Kim, Dally, Towles, Gupta — ISCA 2005.

This package implements, from scratch in pure Python:

* cycle-accurate models of the paper's four switch organizations
  (:mod:`repro.routers`): the low-radix centralized baseline, the
  high-radix router with distributed switch/VC allocation (CVA and
  OVA), the fully buffered crossbar, the shared-buffer crossbar of
  Section 5.4, and the hierarchical crossbar the paper proposes;
* the distributed allocator microarchitectures (:mod:`repro.allocation`);
* the traffic patterns and injection processes of Table 1
  (:mod:`repro.traffic`);
* the analytical latency / cost / power / area models of Section 2 and
  Figures 3, 15, 17(d) (:mod:`repro.models`);
* folded-Clos network simulation for Figure 19 (:mod:`repro.network`);
* the warm-up / sample / drain measurement harness of Section 4.3
  (:mod:`repro.harness`);
* conservation tooling (:mod:`repro.analysis`): the
  :class:`SimSanitizer` runtime invariant checker;
* flit-lifecycle tracing (:mod:`repro.trace`): the
  :class:`TraceCollector` hook-bus subscriber with per-stage latency
  breakdowns and Chrome trace-event export.

Quick start::

    from repro import RouterConfig, HierarchicalCrossbarRouter, SwitchSimulation

    config = RouterConfig(radix=64, num_vcs=4, subswitch_size=8)
    sim = SwitchSimulation(HierarchicalCrossbarRouter(config), load=0.7)
    result = sim.run()
    print(result.avg_latency, result.throughput)
"""

from .analysis import NetworkSanitizer, SimSanitizer
from .core.config import FAST_CONFIG, PAPER_CONFIG, RouterConfig
from .core.errors import InvariantViolation, SimulationError, invariant
from .core.flit import Flit, make_packet
from .harness.experiment import (
    SweepResult,
    SweepSettings,
    SwitchSimulation,
    run_load_sweep,
    saturation_throughput,
)
from .harness.stats import LatencySample, RunResult
from .network.netsim import NetworkConfig, NetworkSimulation
from .network.topology import FoldedClos
from .routers.base import Router, RouterStats
from .routers.baseline import BaselineRouter
from .routers.buffered import BufferedCrossbarRouter
from .routers.distributed import DistributedRouter
from .routers.hierarchical import HierarchicalCrossbarRouter
from .routers.shared_buffer import SharedBufferCrossbarRouter
from .routers.voq import VoqRouter
from .trace import TraceCollector, TraceFilter
from .traffic.injection import Bernoulli, MarkovOnOff
from .traffic.patterns import (
    Diagonal,
    Hotspot,
    TrafficPattern,
    UniformRandom,
    WorstCaseHierarchical,
)

__version__ = "1.0.0"

__all__ = [
    "RouterConfig",
    "PAPER_CONFIG",
    "FAST_CONFIG",
    "Flit",
    "make_packet",
    "Router",
    "RouterStats",
    "BaselineRouter",
    "DistributedRouter",
    "BufferedCrossbarRouter",
    "SharedBufferCrossbarRouter",
    "HierarchicalCrossbarRouter",
    "VoqRouter",
    "TrafficPattern",
    "UniformRandom",
    "Diagonal",
    "Hotspot",
    "WorstCaseHierarchical",
    "Bernoulli",
    "MarkovOnOff",
    "TraceCollector",
    "TraceFilter",
    "SwitchSimulation",
    "SweepSettings",
    "SweepResult",
    "run_load_sweep",
    "saturation_throughput",
    "LatencySample",
    "RunResult",
    "FoldedClos",
    "NetworkConfig",
    "NetworkSimulation",
    "SimSanitizer",
    "NetworkSanitizer",
    "InvariantViolation",
    "SimulationError",
    "invariant",
    "__version__",
]
