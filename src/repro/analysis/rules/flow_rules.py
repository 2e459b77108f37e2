"""Whole-program rules R009, R010 and R012.

These rules consume the
:class:`~repro.analysis.flow.index.ProjectIndex` — cross-module MRO,
per-method flow summaries, and the runner's pragma-hit ledger —
rather than a single parsed module.

* **R009** audits ``derive_rng``/``derive_seed`` streams globally:
  duplicate constant keys collapse two logically distinct streams into
  one; keys built from ``id()``/``hash()``/set iteration are not
  stable across runs or processes; module-level streams are shared by
  everything that imports the module — all three break the sharding
  plan's one-stream-per-component invariant.
* **R010** is the static precondition for checkpoint/restore:
  component state must be picklable, so lambdas, generators, open
  handles, locks, and bound-method/closure captures stored on (or
  into) component state are flagged at the assignment site.
* **R012** reports ``lint: disable`` pragmas that suppress nothing —
  stale suppressions hide future regressions at their line.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

from ..lint import Finding, ProjectRule
from ..flow.summary import MethodSummary, RngSite

if TYPE_CHECKING:
    from ..flow.index import ProjectIndex


class RngStreamRule(ProjectRule):
    """R009: globally unique, stable ``derive_rng`` stream keys."""

    code = "R009"
    name = "rng-stream-audit"
    description = (
        "derive_rng keys must be stable (no id()/hash()/set iteration) "
        "and globally unique for constant keys; no module-level streams"
    )

    def check_project(self, index: "ProjectIndex") -> Iterator[Finding]:
        sites: List[Tuple[str, RngSite]] = []
        for summary in index.files.values():
            for site in summary.rng_sites:
                sites.append((summary.path, site))

        const_groups: Dict[Tuple[str, Tuple[str, ...]], List[Tuple[str, RngSite]]]
        const_groups = {}
        for path, site in sites:
            for reason in site.bad:
                yield self.project_finding(
                    path, site.line,
                    f"`{site.func}` key uses {reason}; the key must be "
                    "stable across runs and processes to keep streams "
                    "reproducible",
                )
            if site.func == "derive_rng" and not site.key:
                yield self.project_finding(
                    path, site.line,
                    "`derive_rng` with no key names derives the root "
                    "stream; every component stream needs a distinct key",
                )
            if site.assigned_global:
                yield self.project_finding(
                    path, site.line,
                    "module-level `derive_rng` stream is shared by every "
                    "importer; derive streams inside the component that "
                    "owns them so sharding can keep one stream per "
                    "process",
                )
            if site.key and all(k.startswith("const:") for k in site.key):
                const_groups.setdefault(
                    (site.func, tuple(site.key)), []
                ).append((path, site))

        for (func, key), group in sorted(const_groups.items()):
            if len(group) < 2:
                continue
            locations = sorted((path, site.line) for path, site in group)
            shown = ", ".join(k[len("const:"):] for k in key)
            for path, site in group:
                others = ", ".join(
                    f"{p}:{ln}"
                    for p, ln in locations
                    if (p, ln) != (path, site.line)
                )
                yield self.project_finding(
                    path, site.line,
                    f"duplicate `{func}` key ({shown}) also derived at "
                    f"{others}; identical keys collapse logically "
                    "distinct streams into one correlated sequence",
                )


class SerializationReadinessRule(ProjectRule):
    """R010: component state must survive checkpoint/restore.

    Two sub-checks share the code:

    * *Picklability* — two-phase/router-family classes must not store
      lambdas, generators, open handles, locks, or bound-method/closure
      captures on state.
    * *Snapshot completeness* — any class defining its own
      ``snapshot``/``_snapshot_state`` is an explicit serialization
      entry point: every attribute its ``__init__`` assigns must either
      be read somewhere along the snapshot call chain or be declared in
      ``SNAPSHOT_WIRING`` (live wiring that ``restore`` re-attaches).
      Stub bodies that only ``raise`` opt out, as do snapshots that
      capture ``self.__dict__`` wholesale.
    """

    code = "R010"
    name = "serialization-readiness"
    description = (
        "component classes must not store unpicklable values on state, "
        "and explicit snapshot()/_snapshot_state() methods must capture "
        "(or declare as SNAPSHOT_WIRING) every __init__-assigned "
        "attribute"
    )

    _KIND_LABELS = {
        "lambda": "a lambda",
        "generator": "a generator",
        "open": "an open file handle",
        "lock": "a synchronization primitive",
    }

    #: Method names that make a class an explicit serialization point.
    _ENTRY_POINTS = ("snapshot", "_snapshot_state")

    def check_project(self, index: "ProjectIndex") -> Iterator[Finding]:
        yield from self._check_picklability(index)
        yield from self._check_snapshot_completeness(index)

    def _check_picklability(self, index: "ProjectIndex") -> Iterator[Finding]:
        family = {
            qual
            for qual, _, _ in index.iter_classes()
            if index.is_two_phase(qual) or index.is_router_family(qual)
        }
        for qual, summary, cls in index.iter_classes():
            in_family = qual in family
            for mname, method in sorted(cls.methods.items()):
                for w in method.self_writes:
                    if not in_family:
                        continue
                    label = self._unpicklable_label(index, qual, w.kind)
                    if label is None:
                        continue
                    yield self.project_finding(
                        summary.path, w.line,
                        f"`{cls.name}.{mname}` stores {label} in "
                        f"`self.{w.attr}`; component state must stay "
                        "picklable for checkpoint/restore",
                    )
                for w in method.cross_writes:
                    if not w.root:
                        continue
                    label = self._unpicklable_label(index, qual, w.kind)
                    if label is None:
                        continue
                    yield self.project_finding(
                        summary.path, w.line,
                        f"`{cls.name}.{mname}` stores {label} in "
                        f"`{w.root}.{w.attr}`; attaching unpicklable "
                        "callables to another object's state blocks "
                        "checkpoint/restore of that component",
                    )

    def _check_snapshot_completeness(
        self, index: "ProjectIndex"
    ) -> Iterator[Finding]:
        for qual, summary, cls in index.iter_classes():
            entries = [
                cls.methods[name]
                for name in self._ENTRY_POINTS
                if name in cls.methods and not cls.methods[name].raises_only
            ]
            init = cls.methods.get("__init__")
            if not entries or init is None:
                continue
            reads = self._snapshot_reads(index, qual, entries)
            if "__dict__" in reads:
                continue  # wholesale capture — trivially complete
            wiring = self._mro_wiring(index, qual)
            entry_names = " / ".join(f"`{m.name}`" for m in entries)
            seen: Set[str] = set()
            for w in init.self_writes:
                if w.attr in seen or w.attr in reads or w.attr in wiring:
                    continue
                seen.add(w.attr)
                yield self.project_finding(
                    summary.path, w.line,
                    f"`{cls.name}.__init__` assigns `self.{w.attr}` but "
                    f"the serialization entry point ({entry_names}) never "
                    "reads it and no SNAPSHOT_WIRING entry excludes it; "
                    "checkpoint/restore would silently drop this state",
                )

    @staticmethod
    def _snapshot_reads(
        index: "ProjectIndex", qual: str, entries: List[MethodSummary]
    ) -> Set[str]:
        """Attributes read anywhere along the snapshot call chain."""
        reads: Set[str] = set()
        queue = list(entries)
        visited = {m.name for m in entries}
        while queue:
            method = queue.pop()
            reads.update(method.self_reads)
            for call in method.self_calls:
                if call.name in visited:
                    continue
                visited.add(call.name)
                resolved = index.resolve_method(qual, call.name)
                if resolved is not None:
                    queue.append(resolved[1])
        return reads

    @staticmethod
    def _mro_wiring(index: "ProjectIndex", qual: str) -> Set[str]:
        """Union of ``SNAPSHOT_WIRING`` declarations along the MRO."""
        wiring: Set[str] = set()
        chain, _ = index.mro(qual)
        for ancestor in chain:
            entry = index.classes.get(ancestor)
            if entry is not None:
                wiring.update(entry[1].snapshot_wiring)
        return wiring

    def _unpicklable_label(
        self, index: "ProjectIndex", qual: str, kind: str
    ) -> Optional[str]:
        if kind in self._KIND_LABELS:
            return self._KIND_LABELS[kind]
        if kind.startswith("self_call:"):
            name = kind[len("self_call:"):]
            resolved = index.resolve_method(qual, name)
            if resolved is not None and resolved[1].returns_closure:
                return f"a closure (from `self.{name}()`)"
            return None
        if kind.startswith("self_attr:"):
            name = kind[len("self_attr:"):]
            if index.resolve_method(qual, name) is not None:
                return f"a bound method (`self.{name}`)"
            return None
        return None


class StalePragmaRule(ProjectRule):
    """R012: a ``lint: disable`` pragma that suppresses nothing."""

    code = "R012"
    name = "stale-pragma"
    description = (
        "a `# lint: disable` pragma must suppress at least one finding; "
        "stale pragmas hide future regressions on their line"
    )
    runs_last = True

    def check_project(self, index: "ProjectIndex") -> Iterator[Finding]:
        for summary in index.files.values():
            hits = index.rule_hits.get(summary.path, set())
            by_line: Dict[int, Set[str]] = {}
            for line, code in hits:
                by_line.setdefault(line, set()).add(code)
            for line in sorted(summary.pragmas):
                codes = set(summary.pragmas[line])
                if "R012" in codes or codes & index.unrun_codes:
                    # A pragma explicitly acknowledging this rule is the
                    # sanctioned opt-out; reporting it would be circular.
                    # A rule filtered out of this run might have fired.
                    continue
                fired = by_line.get(line, set())
                if "*" in codes:
                    if fired or index.unrun_codes:
                        continue
                    yield self.project_finding(
                        summary.path, line,
                        "blanket `# lint: disable` pragma suppresses "
                        "nothing: no rule fires on this line",
                    )
                    continue
                dead = sorted(codes - fired)
                if len(dead) == len(codes):
                    listed = ", ".join(dead)
                    yield self.project_finding(
                        summary.path, line,
                        f"stale pragma: `# lint: disable={listed}` "
                        "suppresses nothing on this line",
                    )


__all__ = [
    "RngStreamRule",
    "SerializationReadinessRule",
    "StalePragmaRule",
]
