"""The lint rule catalogue.

===== ==========================  ====================================
Code  Name                        Enforces
===== ==========================  ====================================
R001  no-direct-random            All randomness flows through
                                  :func:`repro.core.rng.derive_rng`
R002  no-nondeterminism           No wall clock, salted ``hash()``, or
                                  unordered-set iteration in the
                                  simulation
R012  stale-pragma                Every ``# lint: disable`` pragma
                                  suppresses at least one finding
===== ==========================  ====================================

Retired codes stay unused (a pragma naming one is an R012 finding):
R003 and R005 are enforced by the interpreter, R004 by ruff ``B006``,
R011 by ``tests/test_hook_contract.py``, R006, R007, R008, R013 and
R014 (the purity rules) by the order-independence oracle
``tests/perturb.py``, and R009 (stream keys) and R010 (picklable,
complete snapshots) by ``tests/test_state_contracts.py``.
"""

from __future__ import annotations

from typing import List

from ..lint import LintRule
from .determinism import DirectRandomRule, NondeterminismRule
from .pragmas import StalePragmaRule


def all_rules() -> List[LintRule]:
    """Instantiate the full rule catalogue, ordered by code.

    The order is deterministic by construction and verified here so a
    future edit cannot silently perturb output ordering.
    """
    rules: List[LintRule] = [
        DirectRandomRule(),
        NondeterminismRule(),
        StalePragmaRule(),
    ]
    assert [r.code for r in rules] == sorted(r.code for r in rules)
    return rules


__all__ = [
    "all_rules",
    "DirectRandomRule",
    "NondeterminismRule",
    "StalePragmaRule",
]
