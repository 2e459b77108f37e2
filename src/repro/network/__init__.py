"""Network-level simulation: topologies, oblivious/deterministic
routing, reduced-detail routers, and the Figure 19 experiment harness."""

from .mesh import Mesh
from .netsim import (
    NetworkConfig,
    NetworkSimulation,
    run_network_sweep,
)
from .router import (
    NetworkRouter,
    NetworkRouterConfig,
    OutputLink,
    pipeline_depth_for_radix,
)
from .sharded import ShardedNetworkSimulation
from .topology import FoldedClos, PortRef, Topology

__all__ = [
    "FoldedClos",
    "Mesh",
    "PortRef",
    "Topology",
    "NetworkRouter",
    "NetworkRouterConfig",
    "OutputLink",
    "pipeline_depth_for_radix",
    "NetworkConfig",
    "NetworkSimulation",
    "ShardedNetworkSimulation",
    "run_network_sweep",
]
