"""Runtime correctness tooling for the simulator.

Flits, credits and output-VC ownership obey exact accounting laws at
every cycle (Sections 5.2 and 6 of the paper live or die on
buffer/credit bookkeeping).  This package checks them while a
simulation runs:

* :class:`SimSanitizer` — a per-cycle runtime checker observing any
  router (``--sanitize`` on the CLI) that runs the router's own
  ``audit`` of its storage;
* :class:`NetworkSanitizer` — the same for network simulations.

Determinism (every stream from :func:`repro.core.rng.derive_rng`; no
wall clock, process-salted ``hash`` or set order feeding a decision) is
tested, not checked here: ``tests/test_state_contracts.py`` scans the
sources and compares runs across processes.  See
``docs/determinism_and_sanitizer.md``.
"""

from ..core.errors import InvariantViolation, SimulationError, invariant
from .sanitizer import NetworkSanitizer, SimSanitizer

__all__ = [
    "SimSanitizer",
    "NetworkSanitizer",
    "InvariantViolation",
    "SimulationError",
    "invariant",
]
