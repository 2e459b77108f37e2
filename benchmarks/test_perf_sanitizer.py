"""Sanitizer overhead: cost of per-cycle structural checking.

Not a paper figure — this benchmark bounds the slowdown of running a
simulation under :class:`repro.analysis.SimSanitizer` so the sanitizer
stays cheap enough to leave on in CI smoke runs and property tests.
Each check is the router's own ``audit``, one walk of every buffer,
credit counter and index the organization keeps, plus the VC ledger,
so the overhead is architecture-dependent; the bound is asserted on
all six radix-16 organizations.
"""

import pytest

from common import paired_best

from repro.core.config import RouterConfig
from repro.harness.experiment import SwitchSimulation
from repro.routers import (
    BaselineRouter,
    BufferedCrossbarRouter,
    DistributedRouter,
    HierarchicalCrossbarRouter,
    SharedBufferCrossbarRouter,
    VoqRouter,
)

CYCLES = 400
CONFIG = RouterConfig(radix=16)

#: Maximum tolerated slowdown of a sanitized run (checked every cycle);
#: five interleaved readings on the reference host, once each router
#: audits its own storage in one walk: baseline 1.40-1.58x,
#: distributed 1.36-1.40x, VOQ 2.00-2.13x, shared-buffer 1.95-2.18x,
#: hierarchical 2.22-2.38x, buffered 2.58-3.29x.  The buffered crossbar
#: is the ceiling: its audit reads all k*k*v crosspoint credit counters.
MAX_OVERHEAD = 4.5

ROUTERS = {
    "baseline": BaselineRouter,
    "distributed": DistributedRouter,
    "buffered": BufferedCrossbarRouter,
    "shared-buffer": SharedBufferCrossbarRouter,
    "hierarchical": HierarchicalCrossbarRouter,
    "voq": VoqRouter,
}


def _run(cls, sanitize):
    sim = SwitchSimulation(cls(CONFIG), load=0.6, seed=11, sanitize=sanitize)
    for _ in range(CYCLES):
        sim.step()
    return sim.router.stats.flits_ejected


@pytest.mark.parametrize("name", sorted(ROUTERS))
def test_sanitizer_overhead_bounded(name):
    """Per-cycle structural checking costs < MAX_OVERHEAD x runtime."""
    cls = ROUTERS[name]
    (base, ref), (checked, delivered) = paired_best(
        lambda: _run(cls, sanitize=False), lambda: _run(cls, sanitize=True))
    assert delivered == ref > 0, "the sanitizer changed the simulation"
    overhead = checked / base
    assert overhead < MAX_OVERHEAD, (
        f"{name}: sanitized run is {overhead:.2f}x the plain run "
        f"(limit {MAX_OVERHEAD}x)"
    )

