"""The whole-program analysis index.

A :class:`ProjectIndex` stitches the per-file summaries into one view:
classes are keyed by qualified name (``module.Class``), base-class
references are resolved across module boundaries, and a C3-free MRO
linearization (depth-first, left-to-right, first occurrence wins — the
paper-repro codebase uses single inheritance plus mixins, where this
coincides with Python's MRO) lets the rules ask "which ``compute`` does
this class actually run?" without importing simulator code.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from .summary import ClassSummary, FileSummary, MethodSummary


class ProjectIndex:
    """Cross-module view over a set of :class:`FileSummary` objects."""

    def __init__(self, summaries: List[FileSummary]) -> None:
        #: summaries keyed by display path, in insertion order
        self.files: Dict[str, FileSummary] = {}
        #: summaries keyed by dotted module name
        self.modules: Dict[str, FileSummary] = {}
        #: ``module.Class`` -> (owning summary, class summary)
        self.classes: Dict[str, Tuple[FileSummary, ClassSummary]] = {}
        #: simple class name -> sorted qualnames defining it
        self.by_name: Dict[str, List[str]] = {}
        for s in summaries:
            self.add(s)
        self._mro_cache: Dict[str, Tuple[List[str], List[str]]] = {}
        #: display path -> every ``(line, code)`` any rule fired on that
        #: file pre-suppression, and the catalogue codes whose rule was
        #: filtered out of the run; populated by the lint runner,
        #: consumed by the stale-pragma rule (R012).
        self.rule_hits: Dict[str, Set[Tuple[int, str]]] = {}
        self.unrun_codes: Set[str] = set()

    def add(self, summary: FileSummary) -> None:
        self.files[summary.path] = summary
        self.modules[summary.module] = summary
        for cls in summary.classes:
            qual = f"{summary.module}.{cls.name}" if summary.module else cls.name
            self.classes[qual] = (summary, cls)
            self.by_name.setdefault(cls.name, []).append(qual)
        for quals in self.by_name.values():
            quals.sort()

    # ------------------------------------------------------------------
    # Base resolution and MRO
    # ------------------------------------------------------------------

    def resolve_class(self, ref: str, from_module: str = "") -> Optional[str]:
        """Resolve a (possibly dotted) class reference to a qualname.

        Resolution order: module-local name, exact qualname, then an
        unambiguous simple-name match anywhere in the program (this is
        what closes the cross-module subclass hole: ``HierRouter`` in a
        fixture module resolves to the one class of that name even when
        the import graph is not fully modeled).  Returns ``None`` for
        references that stay external to the indexed tree.
        """
        if from_module:
            local = f"{from_module}.{ref}"
            if local in self.classes:
                return local
        if ref in self.classes:
            return ref
        simple = ref.rsplit(".", 1)[-1]
        candidates = self.by_name.get(simple, [])
        if len(candidates) == 1:
            return candidates[0]
        # Ambiguous simple name: only accept a dotted-suffix match.
        if "." in ref:
            suffix = [q for q in candidates if q.endswith("." + ref) or q == ref]
            if len(suffix) == 1:
                return suffix[0]
        return None

    def mro(self, qualname: str) -> Tuple[List[str], List[str]]:
        """``(internal_chain, external_bases)`` for a class.

        ``internal_chain`` starts with ``qualname`` and lists ancestors
        resolved inside the index, depth-first left-to-right with
        duplicates dropped (cycle-safe).  ``external_bases`` collects
        base references that never resolved internally, with their
        original (import-resolved) dotted text preserved.
        """
        cached = self._mro_cache.get(qualname)
        if cached is not None:
            return cached
        chain: List[str] = []
        external: List[str] = []
        seen: Set[str] = set()

        def visit(qual: str) -> None:
            if qual in seen:
                return
            seen.add(qual)
            chain.append(qual)
            entry = self.classes.get(qual)
            if entry is None:
                return
            summary, cls = entry
            for base in cls.bases:
                resolved = self.resolve_class(base, summary.module)
                if resolved is not None:
                    visit(resolved)
                elif base not in external:
                    external.append(base)

        visit(qualname)
        result = (chain, external)
        self._mro_cache[qualname] = result
        return result

    def resolve_method(
        self, qualname: str, name: str
    ) -> Optional[Tuple[str, MethodSummary]]:
        """First definition of ``name`` along the MRO, with its owner."""
        chain, _ = self.mro(qualname)
        for qual in chain:
            entry = self.classes.get(qual)
            if entry is None:
                continue
            method = entry[1].methods.get(name)
            if method is not None:
                return qual, method
        return None

    def defines_in_mro(self, qualname: str, name: str) -> bool:
        return self.resolve_method(qualname, name) is not None

    def iter_classes(self) -> Iterator[Tuple[str, FileSummary, ClassSummary]]:
        """All indexed classes as ``(qualname, file, class)``, in path
        order then definition order — the deterministic rule-walk order."""
        for summary in self.files.values():
            for cls in summary.classes:
                qual = (
                    f"{summary.module}.{cls.name}" if summary.module else cls.name
                )
                yield qual, summary, cls

    # ------------------------------------------------------------------
    # Family queries
    # ------------------------------------------------------------------

    def is_router_family(self, qualname: str) -> bool:
        """True when the class descends from the Router contract.

        Internal descent means the MRO reaches a class named ``Router``
        inside the index; external descent means some unresolved base's
        name ends in ``Router`` (``Router`` itself, or an organization
        such as ``BaselineRouter`` imported from outside the linted
        tree — all the index can go on when the base is out of view).
        """
        chain, external = self.mro(qualname)
        for qual in chain[1:]:
            if qual.rsplit(".", 1)[-1] == "Router":
                return True
        return any(b.endswith("Router") for b in external)

    def is_two_phase(self, qualname: str) -> bool:
        """True when the class participates in the compute/commit
        protocol: both phases are defined somewhere along its MRO, or
        it (transitively) extends an external base named ``Component``.
        """
        if self.defines_in_mro(qualname, "compute") and self.defines_in_mro(
            qualname, "commit"
        ):
            return True
        _, external = self.mro(qualname)
        return any(b.rsplit(".", 1)[-1] == "Component" for b in external)
