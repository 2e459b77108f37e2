"""Whole-program analysis index for the lint pass.

The per-file rules (R001, R002) see one module at a time; everything
the simulator's *contracts* promise — compute-phase purity across
helper calls, globally unique RNG streams, serializable component
state — is a property of the whole program.  This subpackage provides
the machinery the project rules (R006-R014) run on:

:mod:`~repro.analysis.flow.summary`
    One pass over a parsed module producing a :class:`FileSummary`:
    imports resolved to dotted targets, the class table with base-class
    references, and per-method records of attribute reads/writes,
    ``self`` method calls, hook emissions, and
    ``derive_rng`` call sites.  Summaries are plain data.

:mod:`~repro.analysis.flow.index`
    The :class:`ProjectIndex`: summaries keyed by module, a cross-module
    class hierarchy with MRO linearization, and method resolution along
    the MRO.

:mod:`~repro.analysis.flow.output`
    Deterministic JSON and SARIF 2.1.0 renderings of findings.
"""

from __future__ import annotations

from .index import ProjectIndex
from .summary import FileSummary, summarize_module

__all__ = [
    "FileSummary",
    "ProjectIndex",
    "summarize_module",
]
