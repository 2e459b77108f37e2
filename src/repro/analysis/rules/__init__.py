"""The lint rule catalogue.

===== ==========================  ====================================
Code  Name                        Enforces
===== ==========================  ====================================
R001  no-direct-random            All randomness flows through
                                  :func:`repro.core.rng.derive_rng`
R002  no-nondeterminism           No wall clock, salted ``hash()``, or
                                  unordered-set iteration in the
                                  simulation
R006  compute-phase-purity        ``Component.compute`` only stages
                                  intents (``self._staged*``); all
                                  mutation happens in ``commit``
R007  hook-emission-phase         Hook events (``*.emit_*``) fire from
                                  ``commit``, never from the
                                  speculative ``compute`` phase
R008  phase-race                  Compute-phase *call chains* stay
                                  pure; ``commit`` never writes another
                                  component's compute-read state
R009  rng-stream-audit            ``derive_rng`` keys are stable and
                                  globally unique; no module-level
                                  streams
R010  serialization-readiness     Component state stays picklable: no
                                  lambdas, generators, open handles,
                                  locks, or bound-method/closure
                                  captures
R012  stale-pragma                Every ``# lint: disable`` pragma
                                  suppresses at least one finding
R013  observer-purity             Scheduler probes (``busy``,
                                  ``next_event``) and their call
                                  chains never mutate state or emit
                                  hook events
R014  pattern-purity              ``TrafficPattern.dest`` and
                                  ``Workload.eligible`` probes (and
                                  their call chains) never mutate
                                  state — traffic must not depend on
                                  how often the harness asked
===== ==========================  ====================================

R001 and R002 are file rules; R006-R014 are project rules over the
whole-program :class:`~repro.analysis.flow.index.ProjectIndex`.  R006,
R007, the call-chain half of R008, R013 and R014 are rows of one
purity-contract table in :mod:`.flow_rules`.

Retired codes stay unused (a pragma naming one is an R012 finding):
R003 and R005 are enforced by the interpreter, R004 by ruff ``B006``,
R011 by ``tests/test_hook_contract.py``.
"""

from __future__ import annotations

from typing import List

from ..lint import LintRule
from .determinism import DirectRandomRule, NondeterminismRule
from .flow_rules import (
    ComputePhasePurityRule,
    HookEmissionPhaseRule,
    ObserverPurityRule,
    PatternPurityRule,
    PhaseRaceRule,
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
        ComputePhasePurityRule(),
        HookEmissionPhaseRule(),
        PhaseRaceRule(),
        RngStreamRule(),
        SerializationReadinessRule(),
        StalePragmaRule(),
        ObserverPurityRule(),
        PatternPurityRule(),
    ]
    assert [r.code for r in rules] == sorted(r.code for r in rules)
    return rules


__all__ = [
    "all_rules",
    "DirectRandomRule",
    "NondeterminismRule",
    "ComputePhasePurityRule",
    "HookEmissionPhaseRule",
    "PhaseRaceRule",
    "RngStreamRule",
    "SerializationReadinessRule",
    "StalePragmaRule",
    "ObserverPurityRule",
    "PatternPurityRule",
]
