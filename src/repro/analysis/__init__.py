"""Static and runtime correctness tooling for the simulator.

The value of this reproduction is cycle-accurate, *reproducible*
numbers — and reproducibility rests on two families of rules that
ordinary tests don't enforce:

* **Determinism**: every RNG stream must come from
  :func:`repro.core.rng.derive_rng`; no wall-clock, process-salted
  hashing, or unordered-set iteration may feed arbitration.
* **Conservation**: flits, credits, and output-VC ownership obey exact
  accounting laws at every cycle (Sections 5.2 and 6 of the paper live
  or die on buffer/credit bookkeeping).

This package supplies one tool per family:

* :mod:`repro.analysis.lint` — an AST lint pass with simulator-specific
  rules that neither the interpreter, ruff nor the test oracles check
  (R001, R002, R012), run as ``python -m repro.cli lint src``;
* :mod:`repro.analysis.sanitizer` — :class:`SimSanitizer`, a
  per-cycle runtime checker observing any router (``--sanitize`` on the
  CLI) that runs the router's own ``audit`` of its storage, plus
  :class:`NetworkSanitizer` for network simulations.

Simulations only ever need the sanitizers, so those are what this
package re-exports; the lint pass (:mod:`.lint`, :mod:`.rules`,
:mod:`.output`) is imported by ``repro.cli lint`` or by naming its
modules, never by ``import repro``.

See ``docs/static_analysis.md`` for the rule catalogue and invariants.
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
