"""The lint rule catalogue.

===== ==========================  ====================================
Code  Name                        Enforces
===== ==========================  ====================================
R001  no-direct-random            All randomness flows through
                                  :func:`repro.core.rng.derive_rng`
R002  no-nondeterminism           No wall clock, salted ``hash()``, or
                                  unordered-set iteration in the
                                  simulation
R009  rng-stream-audit            ``derive_rng`` keys are stable and
                                  globally unique; no module-level
                                  streams
R010  serialization-readiness     Component state stays picklable: no
                                  lambdas, generators, open handles,
                                  locks, or bound-method/closure
                                  captures
R012  stale-pragma                Every ``# lint: disable`` pragma
                                  suppresses at least one finding
===== ==========================  ====================================

R001 and R002 are file rules; R009, R010 and R012 are project rules
over the whole-program :class:`~repro.analysis.flow.index.ProjectIndex`.

Retired codes stay unused (a pragma naming one is an R012 finding):
R003 and R005 are enforced by the interpreter, R004 by ruff ``B006``,
R011 by ``tests/test_hook_contract.py``, and R006, R007, R008, R013
and R014 (the purity rules) by the order-independence oracle
``tests/perturb.py``.
"""

from __future__ import annotations

from typing import List

from ..lint import LintRule
from .determinism import DirectRandomRule, NondeterminismRule
from .flow_rules import (
    RngStreamRule,
    SerializationReadinessRule,
    StalePragmaRule,
)


def all_rules() -> List[LintRule]:
    """Instantiate the full rule catalogue, ordered by code.

    The order is deterministic by construction and verified here so a
    future edit cannot silently perturb output ordering.
    """
    rules: List[LintRule] = [
        DirectRandomRule(),
        NondeterminismRule(),
        RngStreamRule(),
        SerializationReadinessRule(),
        StalePragmaRule(),
    ]
    assert [r.code for r in rules] == sorted(r.code for r in rules)
    return rules


__all__ = [
    "all_rules",
    "DirectRandomRule",
    "NondeterminismRule",
    "RngStreamRule",
    "SerializationReadinessRule",
    "StalePragmaRule",
]
