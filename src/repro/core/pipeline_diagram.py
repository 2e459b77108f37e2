"""Pipeline diagrams (Figures 5(b) and 7 of the paper), as text.

The paper describes each router's pipeline with stage diagrams:
Figure 5(b) for the baseline (RC | VA | SA | ST), and Figure 7 for the
speculative high-radix pipelines — (b) CVA, where VC allocation runs
concurrently with the distributed switch-allocation stages, and (c)
OVA, where it is serialized after them.  This module regenerates those
diagrams from a :class:`~repro.core.config.RouterConfig`, so the
rendered pipeline always reflects the configured latencies
(``sa_latency``, ``flit_cycles``) and the fixed ones
(``ROUTE_LATENCY``, ``OVA_EXTRA_LATENCY``).

Speculative stages — those issued before VC allocation resolves — are
marked with ``*``, mirroring the underlines in Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .config import OVA_EXTRA_LATENCY, ROUTE_LATENCY, RouterConfig


@dataclass(frozen=True)
class Stage:
    """One pipeline stage: a label, a duration, a speculative flag."""

    name: str
    cycles: int
    speculative: bool = False

    def __post_init__(self) -> None:
        if self.cycles < 1:
            raise ValueError(f"stage cycles must be >= 1, got {self.cycles}")


def baseline_pipeline(config: RouterConfig) -> List[Stage]:
    """Figure 5(b): the centralized low-radix pipeline.

    In the cycle-accurate model the single-cycle SA grant coincides
    with the first switch-traversal cycle, so SA carries no stage of
    its own here and the stage sum equals the simulated zero-load
    head-flit latency exactly.
    """
    return [
        Stage("RC", ROUTE_LATENCY),
        Stage("VA", 1),
        Stage("ST", config.flit_cycles),
    ]


def _sa_stages(config: RouterConfig, speculative: bool) -> List[Stage]:
    """SA1 + wire + SA2 of the distributed allocator (Figure 6).

    The ``sa_latency`` budget covers request issue (SA1), the wire
    stage, and the local output arbitration (SA2); the *global*
    arbitration SA3 — the grant — coincides with the following stage's
    first cycle (the VC check for OVA, switch traversal otherwise), so
    the stage sum equals ``sa_latency`` and the diagram totals match
    the simulated router exactly.
    """
    total = config.sa_latency
    stages: List[Stage] = []
    if total >= 1:
        stages.append(Stage("SA1", 1, speculative))
    if total >= 3:
        stages.append(Stage("wire", total - 2, speculative))
        stages.append(Stage("SA2", 1, speculative))
    elif total == 2:
        stages.append(Stage("wire", 1, speculative))
    return stages


def cva_pipeline(config: RouterConfig) -> List[Stage]:
    """Figure 7(b): CVA — VC allocation in parallel with SA2/SA3.

    The VA work shares the switch-allocation cycles (it happens at the
    crosspoints while the output arbitration runs), so it adds no stage
    of its own; every stage after route computation is speculative
    until the grant resolves.
    """
    return (
        [Stage("RC", ROUTE_LATENCY)]
        + _sa_stages(config, speculative=True)
        + [Stage("ST", config.flit_cycles)]
    )


def ova_pipeline(config: RouterConfig) -> List[Stage]:
    """Figure 7(c): OVA — VC allocation serialized after SA3."""
    return (
        [Stage("RC", ROUTE_LATENCY)]
        + _sa_stages(config, speculative=True)
        + [Stage("VA", OVA_EXTRA_LATENCY, speculative=True)]
        + [Stage("ST", config.flit_cycles)]
    )


def pipeline_for(config: RouterConfig, architecture: str) -> List[Stage]:
    """Pipeline stages for an architecture name.

    ``baseline`` renders Figure 5(b); ``cva``/``ova`` render
    Figure 7(b)/(c).
    """
    table = {
        "baseline": baseline_pipeline,
        "cva": cva_pipeline,
        "ova": ova_pipeline,
    }
    if architecture not in table:
        raise ValueError(
            f"unknown architecture {architecture!r}; expected one of "
            f"{sorted(table)}"
        )
    return table[architecture](config)


def measured_pipeline(config: RouterConfig, architecture: str) -> List[Stage]:
    """Expected *observable* stage spans at zero load, per architecture.

    Where :func:`pipeline_for` renders the paper's figure pipelines
    (with their RC/VA/SA1/SA2 decomposition), this table describes the
    stages a :class:`repro.trace.TraceCollector` actually sees on the
    ``stage_enter`` hook — one entry per emission point, named after the
    router's ``TRACE_STAGES`` — and how many cycles a contention-free
    head flit spends in each.  Internal work with no emission point of
    its own is folded into the preceding stage: the baseline's "RC"
    span covers RC+VA (``ROUTE_LATENCY + 1``), and the OVA "SA" span
    covers SA plus the serialized VC check
    (``sa_latency + OVA_EXTRA_LATENCY``).

    The stage sum equals the simulated zero-load head-flit latency from
    :meth:`Router.accept` to ejection; for ``baseline``/``cva``/``ova``
    it also equals ``head_flit_latency(pipeline_for(config, arch))``,
    which the differential tests pin.
    """
    rl, fc = ROUTE_LATENCY, config.flit_cycles
    if architecture == "baseline":
        return [Stage("RC", rl + 1), Stage("ST", fc)]
    if architecture == "cva":
        return [
            Stage("RC", rl),
            Stage("SA", config.sa_latency, speculative=True),
            Stage("ST", fc),
        ]
    if architecture == "ova":
        return [
            Stage("RC", rl),
            Stage("SA", config.sa_latency + OVA_EXTRA_LATENCY,
                  speculative=True),
            Stage("ST", fc),
        ]
    if architecture in ("buffered", "shared-buffer"):
        return [Stage("RC", rl), Stage("XB", fc), Stage("ST", fc)]
    if architecture == "hierarchical":
        return [
            Stage("RC", rl),
            Stage("ROW", fc),
            Stage("SUB", fc),
            Stage("ST", fc),
        ]
    if architecture == "voq":
        return [Stage("RC", rl), Stage("ST", fc)]
    raise ValueError(
        f"unknown architecture {architecture!r}; expected one of "
        "['baseline', 'buffered', 'cva', 'hierarchical', 'ova', "
        "'shared-buffer', 'voq']"
    )


def head_flit_latency(stages: List[Stage]) -> int:
    """Zero-load cycles from arrival to delivery for a head flit."""
    return sum(stage.cycles for stage in stages)


def render(stages: List[Stage], title: str = "") -> str:
    """Render stages as the paper's boxed pipeline diagram.

    Speculative stages carry a ``*``; multi-cycle stages show their
    width, e.g. ``ST(4)``.
    """
    cells = []
    for stage in stages:
        label = stage.name
        if stage.cycles > 1:
            label += f"({stage.cycles})"
        if stage.speculative:
            label += "*"
        cells.append(f" {label} ")
    row = "|" + "|".join(cells) + "|"
    rule = "+" + "+".join("-" * len(c) for c in cells) + "+"
    lines = []
    if title:
        lines.append(title)
    lines.extend([rule, row, rule])
    lines.append(
        f"head-flit latency: {head_flit_latency(stages)} cycles "
        "(* = speculative stage)"
    )
    return "\n".join(lines)


def compare(config: RouterConfig) -> str:
    """Render all three pipelines side by side (Figures 5(b) and 7)."""
    parts = [
        render(baseline_pipeline(config), "baseline (Figure 5(b)):"),
        render(cva_pipeline(config), "high-radix CVA (Figure 7(b)):"),
        render(ova_pipeline(config), "high-radix OVA (Figure 7(c)):"),
    ]
    return "\n\n".join(parts)
