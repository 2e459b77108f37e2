"""Whole-program rules R006-R014.

These rules consume the
:class:`~repro.analysis.flow.index.ProjectIndex` — cross-module MRO,
per-method flow summaries, and the runner's pragma-hit ledger —
rather than a single parsed module.

* **R006/R007/R008/R013/R014** are one contract, stated once in
  :data:`PURITY_CONTRACTS`: *method M of class family F, and everything
  reachable from it through ``self.*()`` calls, may write only W and
  may not emit hook events.*  The :class:`repro.engine.Component`
  protocol splits each cycle into ``compute`` (read state, stage
  intents in ``self._staged*``) and ``commit`` (apply them), which is
  what frees the scheduler to evaluate components in any order — but
  only if ``compute`` really is write-free and silent: a hook event
  fired from it leaks a speculative intent to trace consumers.  A
  direct write in ``compute`` is R006, a direct emission R007, either
  one reached through a helper R008.  The scheduler probes
  (``busy``/``next_event``, R013) and the traffic probes
  (``TrafficPattern.dest``, pre-drawn and cached by the sources, and
  ``Workload.eligible``, polled by fast-forward wake horizons; R014)
  run any number of times per cycle, so they may write nothing at all:
  a mutating probe makes results depend on how often the harness
  asked, which breaks the cycle/event byte-identity contract.
* **R008** also checks ``commit`` for writes into *other* components'
  state that some ``compute`` reads the same cycle (an
  evaluation-order race the two-phase split exists to prevent).
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

from fnmatch import fnmatchcase
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from ..lint import Finding, ProjectRule
from ..flow.summary import STAGED_PREFIX, MethodSummary, RngSite

if TYPE_CHECKING:
    from ..flow.index import ProjectIndex


def _class_path(index: "ProjectIndex", qual: str) -> str:
    return index.classes[qual][0].path


class _Contract(NamedTuple):
    """One row of the purity policy: the ``methods`` of class family
    ``family``, and everything reachable from them through ``self.*()``
    calls, may write only ``writable`` and may not emit hook events.

    ``family`` is a base-class simple name, or ``""`` for the two-phase
    (compute/commit) classes.  ``writable`` holds ``fnmatch`` patterns
    for the ``self`` attributes the chain may assign.  ``direct`` maps
    each kind of impurity in the method's own body — ``"write"`` (to
    ``self``), ``"cross"`` (to another object), ``"emit"`` — to the
    ``(code, message)`` reporting it; a kind it omits is not reported
    there.  ``chain`` is the ``(code, message)`` for an impurity of any
    kind reached through a helper, reported at the method's call site.
    Messages are ``str.format`` templates over ``who`` (the
    ``Class.method`` bound), ``what`` (e.g. "writes `self.x`"),
    ``subject`` (the attribute or event alone), ``probe`` (the row's
    ``Family.method``), ``call`` and ``via``.
    """

    family: str
    methods: Tuple[str, ...]
    writable: Tuple[str, ...]
    direct: Dict[str, Tuple[str, str]]
    chain: Tuple[str, str]


_VIA_HELPER = "{who} calls `self.{call}()`, which {what}{via}; "

_R013_DIRECT = (
    "R013",
    "{who} {what}; scheduler probes run outside the compute/commit "
    "phases and may be called any number of times per cycle, so they "
    "must be side-effect free",
)
_R014_DIRECT = (
    "R014",
    "{who} {what}; {probe} implementations may be probed any number of "
    "times per cycle (pre-draw caching, fast-forward horizons), so they "
    "must be side-effect free",
)
_R014_CHAIN = (
    "R014",
    _VIA_HELPER + "{probe} must stay pure through its whole call chain",
)
_ANY_KIND = ("write", "cross", "emit")

#: The purity policy, one row per probed method family.  ``compute``
#: may stamp ``self.cycle`` and stage intents; the scheduler probes
#: (called zero, one, or many times per cycle by the engine: parking,
#: fast-forward horizon computation) and the traffic probes may write
#: nothing — drawing from a *passed-in* RNG is not a write to ``self``,
#: which is what keeps ``TrafficPattern.dest`` implementable.
PURITY_CONTRACTS: Tuple[_Contract, ...] = (
    _Contract(
        family="",
        methods=("compute",),
        writable=("cycle", STAGED_PREFIX + "*"),
        direct={
            "write": (
                "R006",
                "{who} {what}; the compute phase only reads state and "
                "stages intents (`self._staged*`) — apply mutations in "
                "`commit`",
            ),
            "emit": (
                "R007",
                "{who} calls `{subject}`; hook events describe committed "
                "state and must be emitted from `commit` (or an "
                "externally driven entry point), never during the "
                "speculative compute phase",
            ),
        },
        chain=(
            "R008",
            _VIA_HELPER + "the compute phase must stay pure through its "
            "whole call chain — stage the intent and apply it in `commit`",
        ),
    ),
    _Contract(
        family="",
        methods=("busy", "next_event"),
        writable=(),
        direct=dict.fromkeys(_ANY_KIND, _R013_DIRECT),
        chain=(
            "R013",
            _VIA_HELPER + "scheduler probes must stay pure through their "
            "whole call chain",
        ),
    ),
    _Contract(
        family="TrafficPattern",
        methods=("dest",),
        writable=(),
        direct=dict.fromkeys(_ANY_KIND, _R014_DIRECT),
        chain=_R014_CHAIN,
    ),
    _Contract(
        family="Workload",
        methods=("eligible",),
        writable=(),
        direct=dict.fromkeys(_ANY_KIND, _R014_DIRECT),
        chain=_R014_CHAIN,
    ),
)


def _impurities(
    method: MethodSummary, writable: Tuple[str, ...]
) -> Iterator[Tuple[str, str, int]]:
    """``(kind, subject, line)`` for every state write or hook emission
    in one method body that ``writable`` does not sanction."""
    for w in method.self_writes:
        if not any(fnmatchcase(w.attr, ok) for ok in writable):
            yield "write", f"self.{w.attr}", w.line
    for w in method.cross_writes:
        if w.root:
            yield "cross", f"{w.root}.{w.attr}", w.line
    for e in method.emits:
        yield "emit", e.event, e.line


def _what(kind: str, subject: str) -> str:
    return f"{'emits' if kind == 'emit' else 'writes'} `{subject}`"


def _impure_chain(
    index: "ProjectIndex",
    qual: str,
    name: str,
    writable: Tuple[str, ...],
    visited: Set[str],
) -> Optional[Tuple[str, List[str]]]:
    """First impurity reachable from ``self.<name>()``, as ``(what,
    call chain)`` — interprocedural, helpers resolved along the MRO of
    the concrete class ``qual``, cycle-safe through ``visited``."""
    if name in visited:
        return None
    visited.add(name)
    resolved = index.resolve_method(qual, name)
    if resolved is None:
        return None
    method = resolved[1]
    for kind, subject, _ in _impurities(method, writable):
        return _what(kind, subject), [name]
    for call in method.self_calls:
        deeper = _impure_chain(index, qual, call.name, writable, visited)
        if deeper is not None:
            return deeper[0], [name] + deeper[1]
    return None


def _in_family(index: "ProjectIndex", qual: str, family: str) -> bool:
    """True when ``qual`` (or an ancestor, internal or external) is
    named ``family``; the empty family is the two-phase classes."""
    if not family:
        return index.is_two_phase(qual)
    chain, external = index.mro(qual)
    return any(q.rsplit(".", 1)[-1] == family for q in chain + external)


class _PurityRule(ProjectRule):
    """Reports the :data:`PURITY_CONTRACTS` violations carrying its code.

    Every class a row binds is walked with the method resolved along
    its MRO — a subclass overriding only ``compute`` is bound by the
    ``commit`` it inherits from another module, and a helper is judged
    by the override the concrete class actually runs — and a finding
    is reported once, at the class that defines the method.
    """

    def check_project(self, index: "ProjectIndex") -> Iterator[Finding]:
        emitted: Set[Tuple[str, int, str]] = set()
        for contract in PURITY_CONTRACTS:
            for path, line, message in self._violations(index, contract):
                if (path, line, message) not in emitted:
                    emitted.add((path, line, message))
                    yield self.project_finding(path, line, message)

    def _violations(
        self, index: "ProjectIndex", contract: _Contract
    ) -> Iterator[Tuple[str, int, str]]:
        direct = {
            kind: message
            for kind, (code, message) in contract.direct.items()
            if code == self.code
        }
        chain_code, chain_message = contract.chain
        if not direct and chain_code != self.code:
            return
        for qual, _, _ in index.iter_classes():
            if not _in_family(index, qual, contract.family):
                continue
            for name in contract.methods:
                resolved = index.resolve_method(qual, name)
                if resolved is None:
                    continue
                owner, method = resolved
                path = _class_path(index, owner)
                who = f"`{owner.rsplit('.', 1)[-1]}.{name}`"
                probe = f"`{contract.family}.{name}`"
                for kind, subject, line in _impurities(
                    method, contract.writable
                ):
                    if kind in direct:
                        yield path, line, direct[kind].format(
                            who=who, what=_what(kind, subject),
                            subject=subject, probe=probe,
                        )
                if chain_code != self.code:
                    continue
                for call in method.self_calls:
                    found = _impure_chain(
                        index, qual, call.name, contract.writable, {name}
                    )
                    if found is None:
                        continue
                    what, chain = found
                    via = ""
                    if len(chain) > 1:
                        via = " (via `" + "` -> `".join(chain) + "`)"
                    yield path, call.line, chain_message.format(
                        who=who, what=what, call=call.name, via=via,
                        probe=probe,
                    )


class ComputePhasePurityRule(_PurityRule):
    """R006: ``compute`` stages intents; it never mutates committed state."""

    code = "R006"
    name = "compute-phase-purity"
    description = (
        "Component.compute must not assign committed state; stage "
        "intents in _staged* attributes and apply them in commit"
    )


class HookEmissionPhaseRule(_PurityRule):
    """R007: hook events fire from ``commit``, never from ``compute``."""

    code = "R007"
    name = "hook-emission-phase"
    description = (
        "Component.compute must not emit hook events (*.emit_* calls); "
        "observability fires from commit, where state is final"
    )


class PhaseRaceRule(_PurityRule):
    """R008: no mutation or emission reachable from ``compute``, and no
    ``commit`` writes into another component's compute-read state."""

    code = "R008"
    name = "phase-race"
    description = (
        "compute-phase call chains must stay pure (no state writes or "
        "hook emissions through helpers), and commit must not write "
        "another component's compute-read attributes"
    )

    def check_project(self, index: "ProjectIndex") -> Iterator[Finding]:
        yield from super().check_project(index)
        emitted: Set[Tuple[str, int, str]] = set()
        compute_reads = self._compute_read_attrs(index)
        for qual, _, _ in index.iter_classes():
            if not index.is_two_phase(qual):
                continue
            for finding in self._check_commit_writes(
                index, qual, compute_reads
            ):
                key = (finding.path, finding.line, finding.message)
                if key not in emitted:
                    emitted.add(key)
                    yield finding

    # -- commit cross-writes -------------------------------------------

    @staticmethod
    def _compute_read_attrs(index: "ProjectIndex") -> Set[str]:
        """Attributes any resolved ``compute`` reads off ``self``."""
        reads: Set[str] = set()
        for qual, _, _ in index.iter_classes():
            if not index.is_two_phase(qual):
                continue
            resolved = index.resolve_method(qual, "compute")
            if resolved is not None:
                reads.update(resolved[1].self_reads)
        return reads

    def _check_commit_writes(
        self,
        index: "ProjectIndex",
        qual: str,
        compute_reads: Set[str],
    ) -> Iterator[Finding]:
        resolved = index.resolve_method(qual, "commit")
        if resolved is None:
            return
        owner, commit = resolved
        path = _class_path(index, owner)
        cls_name = owner.rsplit(".", 1)[-1]
        for w in commit.cross_writes:
            if not w.root or w.attr not in compute_reads:
                continue
            yield self.project_finding(
                path, w.line,
                f"`{cls_name}.commit` writes `{w.root}.{w.attr}`, an "
                "attribute some `compute` reads the same cycle; commits "
                "racing against other components' reads reintroduce the "
                "evaluation-order coupling the two-phase split removes",
            )


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


class ObserverPurityRule(_PurityRule):
    """R013: ``busy``/``next_event`` and their call chains stay pure.

    The scheduler calls these probes between cycles — to park idle
    components and to compute the fast-forward horizon — any number of
    times (including zero: the cycle stepper never calls
    ``next_event``).  A probe that mutates state or emits hook events
    makes simulation results depend on *how often the scheduler asked*,
    which breaks the cycle/event byte-identity contract.
    """

    code = "R013"
    name = "observer-purity"
    description = (
        "busy/next_event are scheduler probes called zero or more "
        "times per cycle; they and their self-call chains must not "
        "write state or emit hook events"
    )


class PatternPurityRule(_PurityRule):
    """R014: ``TrafficPattern.dest`` / ``Workload.eligible`` stay pure.

    Both are *probe* contracts the harness may invoke a varying number
    of times per simulated cycle: destination draws are pre-drawn and
    cached by the traffic sources (and replayed under both drive
    loops), and workload eligibility feeds the event scheduler's wake
    horizons, which poll it zero or more times per cycle.  An
    implementation that mutates its own state (or emits hook events)
    makes traffic — and therefore results — depend on how often the
    harness asked, breaking seed determinism and the cycle/event
    byte-identity contract.  Drawing from the *passed-in* RNG is the
    sanctioned effect; writing ``self`` is not.
    """

    code = "R014"
    name = "pattern-purity"
    description = (
        "TrafficPattern.dest and Workload.eligible are probes the "
        "harness may call any number of times per cycle; they and "
        "their self-call chains must not mutate state or emit events"
    )


__all__ = [
    "ComputePhasePurityRule",
    "HookEmissionPhaseRule",
    "ObserverPurityRule",
    "PatternPurityRule",
    "PhaseRaceRule",
    "RngStreamRule",
    "SerializationReadinessRule",
    "StalePragmaRule",
]
