"""Sanitizer overhead: cost of per-cycle structural checking.

Not a paper figure — this benchmark bounds the slowdown of running a
simulation under :class:`repro.analysis.SimSanitizer` so the sanitizer
stays cheap enough to leave on in CI smoke runs and property tests.
The per-cycle structural checks walk every buffer, credit counter, and
VC ledger entry, so the overhead is architecture-dependent; the bound
is asserted on the radix-16 baseline and buffered-crossbar
organizations (centralized and most check-heavy, respectively).
"""

import pytest

from common import paired_best

from repro.core.config import RouterConfig
from repro.harness.experiment import SwitchSimulation
from repro.routers.baseline import BaselineRouter
from repro.routers.buffered import BufferedCrossbarRouter

CYCLES = 400
CONFIG = RouterConfig(radix=16)

#: Maximum tolerated slowdown of a sanitized run (checked every cycle);
#: ten interleaved readings on the reference host: baseline 1.92-2.02x,
#: buffered 3.44-3.96x (the plain run got faster once the scalar
#: stages probed only what they hold; the checks still walk all k*k*v
#: crosspoint queues, and now each column and credit bus as well).
MAX_OVERHEAD = 5.0

ROUTERS = {
    "baseline": BaselineRouter,
    "buffered": BufferedCrossbarRouter,
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

