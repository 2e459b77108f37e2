"""Unit tests for the whole-program analysis layer.

Covers the per-file summarizer (:mod:`repro.analysis.flow.summary`),
the cross-module index (:mod:`repro.analysis.flow.index`), and the
project rules R006-R014 (:mod:`repro.analysis.rules.flow_rules`),
plus the cross-module regression cases for R006-R007 that a one-file
index is blind to.
"""

import ast
import dataclasses
import json
import textwrap

import pytest

from repro.analysis.flow.index import ProjectIndex
from repro.analysis.flow.summary import summarize_module
from repro.analysis.lint import _parse_pragmas, lint_file, lint_paths, run_lint
from repro.analysis.rules import all_rules
from repro.analysis.rules.flow_rules import (
    ComputePhasePurityRule,
    HookEmissionPhaseRule,
    ObserverPurityRule,
    PatternPurityRule,
    PhaseRaceRule,
    RngStreamRule,
    SerializationReadinessRule,
    StalePragmaRule,
)


def summarize(src, path="mod.py"):
    src = textwrap.dedent(src)
    tree = ast.parse(src)
    pragmas = {ln: sorted(c) for ln, c in _parse_pragmas(src).items()}
    return summarize_module(tree, path, pragmas=pragmas)


def index_of(**sources):
    """Build a ProjectIndex from ``name=source`` pairs (module ``name``)."""
    summaries = [
        summarize(src, "%s.py" % name) for name, src in sorted(sources.items())
    ]
    return ProjectIndex(summaries)


def run_rule(rule, index):
    return list(rule.check_project(index))


# ----------------------------------------------------------------------
# Summarizer
# ----------------------------------------------------------------------


class TestSummarizer:
    def test_self_vs_cross_writes(self):
        s = summarize(
            """
            class C:
                def commit(self, cycle):
                    self.count = 1
                    peer.queue = 2
                    self.peer.depth = 3
            """
        )
        commit = s.classes[0].methods["commit"]
        self_attrs = {w.attr for w in commit.self_writes}
        # `self.peer.depth` has leftmost root `self`: it is a self write.
        assert self_attrs == {"count", "depth"}
        assert [(w.root, w.attr) for w in commit.cross_writes] == [
            ("peer", "queue")
        ]

    def test_value_kind_classification(self):
        s = summarize(
            """
            import threading

            class C:
                def __init__(self, path):
                    self.a = lambda x: x
                    self.b = (n for n in range(3))
                    self.c = open(path)
                    self.d = threading.Lock()
                    self.e = self.commit
                    self.f = self._make()
                    self.g = 42
            """
        )
        kinds = {
            w.attr: w.kind for w in s.classes[0].methods["__init__"].self_writes
        }
        assert kinds == {
            "a": "lambda",
            "b": "generator",
            "c": "open",
            "d": "lock",
            "e": "self_attr:commit",
            "f": "self_call:_make",
            "g": "plain",
        }

    def test_self_reads_calls_and_emits(self):
        s = summarize(
            """
            class C:
                def compute(self, cycle):
                    depth = self.queue
                    self._scan()
                    self.hooks.emit_grant(None, 0, cycle)
            """
        )
        compute = s.classes[0].methods["compute"]
        assert "queue" in compute.self_reads
        assert [c.name for c in compute.self_calls] == ["_scan"]
        assert [e.event for e in compute.emits] == ["emit_grant"]

    def test_rng_site_keys_and_instability(self):
        s = summarize(
            """
            from repro.core.rng import derive_rng

            SHARED = derive_rng(7, "traffic")


            def make(seed, comp):
                a = derive_rng(seed, "arb", comp.name)
                b = derive_rng(seed, id(comp))
                c = derive_rng(seed, {1, 2})
            """
        )
        by_line = {site.line: site for site in s.rng_sites}
        module_site = by_line[4]
        assert module_site.scope == "module"
        assert module_site.assigned_global
        assert module_site.key == ["const:'traffic'"]
        fn_site = by_line[8]
        assert fn_site.scope == "function"
        assert not fn_site.assigned_global
        assert fn_site.key[0] == "const:'arb'"
        assert fn_site.key[1].startswith("dyn:")
        assert by_line[9].bad == ["id()"]
        assert by_line[10].bad == ["set iteration"]

    def test_closure_return_detection(self):
        s = summarize(
            """
            class C:
                def _make(self):
                    def sink(v):
                        return (self, v)
                    return sink

                def _plain(self):
                    return 3
            """
        )
        methods = s.classes[0].methods
        assert methods["_make"].returns_closure
        assert not methods["_plain"].returns_closure

    def test_roundtrip_through_json_dict(self):
        s = summarize(
            """
            from repro.core.rng import derive_rng  # lint: disable=R001

            class C:
                def compute(self, cycle):
                    self._staged = self.queue

                def commit(self, cycle):
                    self.queue = self._staged
            """
        )
        # Plain data only: nothing but JSON types survives summarizing
        # (pragma lines are int keys, which JSON spells as strings).
        data = dataclasses.asdict(s)
        data["pragmas"] = {str(k): v for k, v in data["pragmas"].items()}
        assert data["classes"][0]["methods"]["compute"]["self_writes"]
        assert json.loads(json.dumps(data)) == data


# ----------------------------------------------------------------------
# Index
# ----------------------------------------------------------------------


class TestProjectIndex:
    def test_resolve_class_across_modules(self):
        index = index_of(
            base="""
            class Router:
                pass
            """,
            mesh="""
            from base import Router

            class MeshSwitch(Router):
                pass
            """,
        )
        assert index.resolve_class("MeshSwitch") == "mesh.MeshSwitch"
        assert index.resolve_class("Router", "mesh") == "base.Router"
        assert index.resolve_class("NoSuchClass") is None

    def test_ambiguous_simple_name_needs_dotted_suffix(self):
        index = index_of(
            one="""
            class Arb:
                pass
            """,
            two="""
            class Arb:
                pass
            """,
        )
        assert index.resolve_class("Arb") is None
        assert index.resolve_class("one.Arb") == "one.Arb"

    def test_mro_chain_and_external_bases(self):
        index = index_of(
            base="""
            class Router:
                pass
            """,
            sub="""
            from base import Router

            class A(Router):
                pass

            class B(A, SomeMixin):
                pass
            """,
        )
        chain, external = index.mro("sub.B")
        assert chain == ["sub.B", "sub.A", "base.Router"]
        assert external == ["SomeMixin"]
        assert index.is_router_family("sub.B")

    def test_two_phase_via_external_component_base(self):
        index = index_of(
            comp="""
            from repro.engine import Component

            class Stage(Component):
                def compute(self, cycle):
                    pass
            """
        )
        assert index.is_two_phase("comp.Stage")

    def test_resolve_method_walks_mro(self):
        index = index_of(
            base="""
            class Base:
                def commit(self, cycle):
                    self.x = 1
            """,
            sub="""
            from base import Base

            class Sub(Base):
                def compute(self, cycle):
                    pass
            """,
        )
        resolved = index.resolve_method("sub.Sub", "commit")
        assert resolved is not None
        assert resolved[0] == "base.Base"


# ----------------------------------------------------------------------
# R008 phase-race
# ----------------------------------------------------------------------


class TestPhaseRace:
    def test_impure_helper_reached_from_compute(self):
        index = index_of(
            comp="""
            class C:
                def compute(self, cycle):
                    self._scan()

                def _scan(self):
                    self.seen = 1

                def commit(self, cycle):
                    pass
            """
        )
        findings = run_rule(PhaseRaceRule(), index)
        assert len(findings) == 1
        assert "writes `self.seen`" in findings[0].message

    def test_chain_through_two_helpers_reports_via(self):
        index = index_of(
            comp="""
            class C:
                def compute(self, cycle):
                    self._a()

                def _a(self):
                    self._b()

                def _b(self):
                    self.hooks.emit_grant(None, 0, 0)

                def commit(self, cycle):
                    pass
            """
        )
        findings = run_rule(PhaseRaceRule(), index)
        assert len(findings) == 1
        assert "via `_a` -> `_b`" in findings[0].message

    def test_staged_writes_through_helpers_are_pure(self):
        index = index_of(
            comp="""
            class C:
                def compute(self, cycle):
                    self.cycle = cycle
                    self._stage()

                def _stage(self):
                    self._staged_grant = 1

                def commit(self, cycle):
                    self.granted = self._staged_grant
            """
        )
        assert run_rule(PhaseRaceRule(), index) == []

    def test_commit_writing_compute_read_attr_of_peer(self):
        index = index_of(
            reader="""
            class Reader:
                def compute(self, cycle):
                    self._staged = self.queue

                def commit(self, cycle):
                    pass
            """,
            writer="""
            class Writer:
                def compute(self, cycle):
                    pass

                def commit(self, cycle):
                    peer = self.peer
                    peer.queue = ()
                    peer.unrelated = 1
            """,
        )
        findings = run_rule(PhaseRaceRule(), index)
        assert len(findings) == 1
        assert "writes `peer.queue`" in findings[0].message

    def test_helper_resolution_is_per_subclass(self):
        # The same inherited compute is dangerous or safe depending on
        # which override of the helper the concrete class binds.
        index = index_of(
            base="""
            class Base:
                def compute(self, cycle):
                    self._step()

                def _step(self):
                    pass

                def commit(self, cycle):
                    pass
            """,
            sub="""
            from base import Base

            class Dirty(Base):
                def _step(self):
                    self.log = 1
            """,
        )
        findings = run_rule(PhaseRaceRule(), index)
        assert len(findings) == 1
        assert "writes `self.log`" in findings[0].message


# ----------------------------------------------------------------------
# The purity contract table (R006, R007, R008 chains, R013, R014)
# ----------------------------------------------------------------------

PURITY_RULES = [
    ComputePhasePurityRule(),
    HookEmissionPhaseRule(),
    PhaseRaceRule(),
    ObserverPurityRule(),
    PatternPurityRule(),
]

#: (family, method, code of a direct write, of a direct emission, of
#: either one reached through helpers, sanctioned body)
CONTRACT_ROWS = [
    ("", "compute", "R006", "R007", "R008",
     "self.cycle = arg; self._staged_x = 1; self._stage(rng)"),
    ("", "busy", "R013", "R013", "R013", "return self._draw(rng)"),
    ("", "next_event", "R013", "R013", "R013", "return self._draw(rng)"),
    ("TrafficPattern", "dest", "R014", "R014", "R014",
     "return (arg + rng.randrange(4) + self._draw(rng)) % 8"),
    ("Workload", "eligible", "R014", "R014", "R014",
     "return self._draw(rng)"),
]


def _contract_findings(family, method, body):
    """Purity findings for a class of ``family`` whose ``method`` runs
    ``body``; ``_a`` -> ``_b`` is an impure two-hop helper chain,
    ``_stage`` / ``_draw`` are the sanctioned effects."""
    if family:
        head = f"class {family}:\n    pass\n\nclass C({family}):\n"
    else:
        head = "class C:\n    def commit(self, cycle):\n        pass\n"
        if method != "compute":
            head += "    def compute(self, cycle):\n        pass\n"
    src = head + (
        f"    def {method}(self, arg, rng):\n"
        f"        {body}\n"
        "    def _a(self):\n"
        "        self._b()\n"
        "    def _b(self):\n"
        "        self.seen = 1\n"
        "    def _stage(self, rng):\n"
        "        self._staged_y = rng.randrange(4)\n"
        "    def _draw(self, rng):\n"
        "        return rng.randrange(4)\n"
    )
    index = index_of(mod=src)
    return [
        (f.code, f.message)
        for rule in PURITY_RULES
        for f in run_rule(rule, index)
    ]


@pytest.mark.parametrize(
    "family,method,write_code,emit_code,chain_code,sanctioned",
    CONTRACT_ROWS,
    ids=[row[1] for row in CONTRACT_ROWS],
)
class TestPurityContract:
    def test_direct_write(self, family, method, write_code, emit_code,
                          chain_code, sanctioned):
        [(code, message)] = _contract_findings(family, method, "self.seen = 1")
        assert code == write_code
        assert f"`C.{method}` writes `self.seen`" in message

    def test_direct_emission(self, family, method, write_code, emit_code,
                             chain_code, sanctioned):
        [(code, message)] = _contract_findings(
            family, method, "self.hooks.emit_grant(None, 0, 0)"
        )
        assert code == emit_code
        assert f"`C.{method}`" in message and "`emit_grant`" in message

    def test_two_helper_hops_spell_out_the_chain(
        self, family, method, write_code, emit_code, chain_code, sanctioned
    ):
        [(code, message)] = _contract_findings(family, method, "self._a()")
        assert code == chain_code
        assert (
            f"`C.{method}` calls `self._a()`, which writes `self.seen` "
            "(via `_a` -> `_b`)"
        ) in message

    def test_sanctioned_effects_stay_quiet(
        self, family, method, write_code, emit_code, chain_code, sanctioned
    ):
        assert _contract_findings(family, method, sanctioned) == []

    def test_only_compute_may_stamp_the_cycle_and_stage(
        self, family, method, write_code, emit_code, chain_code, sanctioned
    ):
        findings = _contract_findings(
            family, method, "self.cycle = arg; self._stage(rng)"
        )
        if method == "compute":
            assert findings == []
        else:
            assert [code for code, _ in findings] == [write_code, chain_code]


# ----------------------------------------------------------------------
# R009 rng streams
# ----------------------------------------------------------------------


class TestRngStreams:
    def test_duplicate_constant_keys_across_files(self):
        index = index_of(
            a="""
            from repro.core.rng import derive_rng

            def make(seed):
                return derive_rng(seed, "traffic")
            """,
            b="""
            from repro.core.rng import derive_rng

            def make(seed):
                return derive_rng(seed, "traffic")
            """,
        )
        findings = run_rule(RngStreamRule(), index)
        assert len(findings) == 2
        a_side = next(f for f in findings if f.path == "a.py")
        assert "b.py:5" in a_side.message
        assert "a.py" not in a_side.message.split("also derived at")[1]

    def test_distinct_keys_are_clean(self):
        index = index_of(
            a="""
            from repro.core.rng import derive_rng

            def make(seed, port):
                return derive_rng(seed, "arb", port)
            """
        )
        assert run_rule(RngStreamRule(), index) == []

    def test_module_level_stream_flagged(self):
        index = index_of(
            a="""
            from repro.core.rng import derive_rng

            STREAM = derive_rng(1, "shared")
            """
        )
        findings = run_rule(RngStreamRule(), index)
        assert len(findings) == 1
        assert "module-level" in findings[0].message

    def test_empty_key_flagged(self):
        index = index_of(
            a="""
            from repro.core.rng import derive_rng

            def make(seed):
                return derive_rng(seed)
            """
        )
        findings = run_rule(RngStreamRule(), index)
        assert len(findings) == 1
        assert "no key" in findings[0].message


# ----------------------------------------------------------------------
# R010 serialization readiness
# ----------------------------------------------------------------------


class TestSerializationReadiness:
    def test_lambda_on_component_state(self):
        index = index_of(
            comp="""
            class C:
                def __init__(self):
                    self.cb = lambda x: x

                def compute(self, cycle):
                    pass

                def commit(self, cycle):
                    pass
            """
        )
        findings = run_rule(SerializationReadinessRule(), index)
        assert len(findings) == 1
        assert "a lambda" in findings[0].message

    def test_plain_class_self_state_not_flagged(self):
        index = index_of(
            helper="""
            class SortKey:
                def __init__(self):
                    self.fn = lambda x: x
            """
        )
        assert run_rule(SerializationReadinessRule(), index) == []

    def test_cross_write_flagged_even_from_plain_class(self):
        index = index_of(
            wirer="""
            class Wirer:
                def wire(self, peer):
                    peer.handler = lambda v: v
            """
        )
        findings = run_rule(SerializationReadinessRule(), index)
        assert len(findings) == 1
        assert "`peer.handler`" in findings[0].message

    def test_bound_method_and_closure_labels(self):
        index = index_of(
            comp="""
            class C:
                def __init__(self):
                    self.cb = self.commit
                    self.sink = self._make()
                    self.snapshot = self.tuple_of_state

                def _make(self):
                    def sink(v):
                        return (self, v)
                    return sink

                def compute(self, cycle):
                    pass

                def commit(self, cycle):
                    pass
            """
        )
        findings = run_rule(SerializationReadinessRule(), index)
        messages = "\n".join(f.message for f in findings)
        assert "a bound method (`self.commit`)" in messages
        assert "a closure (from `self._make()`)" in messages
        # `self.tuple_of_state` names no method in the MRO: treated as a
        # plain attribute copy, not a bound-method capture.
        assert len(findings) == 2


# ----------------------------------------------------------------------
# R012 stale pragmas
# ----------------------------------------------------------------------


class TestStalePragma:
    def _findings(self, src, hits):
        summary = summarize(src, "mod.py")
        index = ProjectIndex([summary])
        index.rule_hits = {"mod.py": set(hits)}
        return run_rule(StalePragmaRule(), index)

    def test_stale_listed_pragma(self):
        findings = self._findings("x = 1  # lint: disable=R001\n", hits=[])
        assert len(findings) == 1
        assert "stale pragma" in findings[0].message

    def test_used_pragma_is_clean(self):
        src = "import random  # lint: disable=R001\n"
        assert self._findings(src, hits=[(1, "R001")]) == []

    def test_partially_used_pragma_is_clean(self):
        # One of the listed codes fires: the pragma is earning its keep.
        src = "import random  # lint: disable=R001,R002\n"
        assert self._findings(src, hits=[(1, "R001")]) == []

    def test_stale_blanket_pragma(self):
        findings = self._findings("x = 1  # lint: disable\n", hits=[])
        assert len(findings) == 1
        assert "blanket" in findings[0].message

    def test_pragma_naming_r012_is_exempt(self):
        src = "x = 1  # lint: disable=R012\n"
        assert self._findings(src, hits=[]) == []

    @pytest.mark.parametrize(
        "line,options,stale",
        [
            ("import random  # lint: disable=R001", {"ignore": ["R001"]}, False),
            ("import random  # lint: disable=R001", {"select": ["R012"]}, False),
            ("x = 1  # lint: disable", {"ignore": ["R009"]}, False),
            ("x = 1  # lint: disable=R003", {}, True),
        ],
        ids=["rule-ignored", "rule-not-selected", "blanket-partial-run",
             "retired-code"],
    )
    def test_only_rules_that_ran_are_judged(
        self, tmp_path, capsys, line, options, stale
    ):
        # A rule filtered out of the run might have fired, so its
        # pragma is not stale; a code outside the catalogue never fires.
        path = tmp_path / "mod.py"
        path.write_text(line + "\n", encoding="utf-8")
        assert run_lint([str(path)], **options) == int(stale)
        assert ("R012 stale pragma" in capsys.readouterr().out) == stale


# ----------------------------------------------------------------------
# Cross-module regressions for R006/R007
# ----------------------------------------------------------------------


def _write_tree(tmp_path, files):
    for name, src in files.items():
        (tmp_path / name).write_text(textwrap.dedent(src), encoding="utf-8")


class TestCrossModuleBlindness:
    """Two-file cases where per-file linting is provably blind and the
    whole-program pass is not."""

    TWO_PHASE_BASE = """
        class Pipeline:
            def compute(self, cycle):
                self._staged = 1

            def commit(self, cycle):
                self.value = self._staged
    """

    SUB_R006 = """
        from base import Pipeline


        class LeakyPipeline(Pipeline):
            def compute(self, cycle):
                self.value = cycle
    """

    def test_r006_subclass_overriding_only_compute(self, tmp_path):
        _write_tree(
            tmp_path, {"base.py": self.TWO_PHASE_BASE, "sub.py": self.SUB_R006}
        )
        rule = ComputePhasePurityRule()
        per_file = lint_file(tmp_path / "sub.py", [rule])
        assert per_file == []  # no `commit` in this file: per-file blind
        project = [
            f
            for f in lint_paths([str(tmp_path)], all_rules())
            if f.code == "R006"
        ]
        assert len(project) == 1
        assert project[0].path.endswith("sub.py")
        assert "`LeakyPipeline.compute` writes `self.value`" in project[0].message

    SUB_R007 = """
        from base import Pipeline


        class ChattyPipeline(Pipeline):
            def compute(self, cycle):
                self.hooks.emit_grant(None, 0, cycle)
    """

    def test_r007_subclass_emitting_in_compute(self, tmp_path):
        _write_tree(
            tmp_path, {"base.py": self.TWO_PHASE_BASE, "sub.py": self.SUB_R007}
        )
        rule = HookEmissionPhaseRule()
        per_file = lint_file(tmp_path / "sub.py", [rule])
        assert per_file == []
        project = [
            f
            for f in lint_paths([str(tmp_path)], all_rules())
            if f.code == "R007"
        ]
        assert len(project) == 1
        assert "`ChattyPipeline.compute` calls `emit_grant`" in project[0].message

    def test_shared_base_reports_once(self, tmp_path):
        # Many subclasses inheriting one bad compute: one finding, at
        # the defining class, not one per subclass.
        _write_tree(
            tmp_path,
            {
                "base.py": """
                class Leaky:
                    def compute(self, cycle):
                        self.value = cycle

                    def commit(self, cycle):
                        pass
                """,
                "subs.py": """
                from base import Leaky


                class A(Leaky):
                    pass


                class B(Leaky):
                    pass
                """,
            },
        )
        project = [
            f
            for f in lint_paths([str(tmp_path)], all_rules())
            if f.code == "R006"
        ]
        assert len(project) == 1
        assert project[0].path.endswith("base.py")
