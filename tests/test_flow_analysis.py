"""Unit tests for the whole-program analysis layer.

Covers the per-file summarizer (:mod:`repro.analysis.flow.summary`),
the cross-module index (:mod:`repro.analysis.flow.index`), and the
project rules R009, R010 and R012
(:mod:`repro.analysis.rules.flow_rules`), plus the cross-module
regression cases for R010 that a one-file index is blind to.
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

    def test_self_reads_and_calls(self):
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
        # A call through an attribute (`self.hooks.emit_grant`) is not
        # a call of this object's own method.
        assert [c.name for c in compute.self_calls] == ["_scan"]

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
        # An external ``Component`` base alone puts a class in the
        # component family R010 checks, with no phase defined locally.
        index = index_of(
            comp="""
            from repro.engine import Component

            class Stage(Component):
                def __init__(self):
                    self.cb = lambda v: v
            """
        )
        assert index.is_two_phase("comp.Stage")
        [finding] = run_rule(SerializationReadinessRule(), index)
        assert "`Stage.__init__` stores a lambda" in finding.message

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
# Cross-module regressions for R010
# ----------------------------------------------------------------------


def _write_tree(tmp_path, files):
    for name, src in files.items():
        (tmp_path / name).write_text(textwrap.dedent(src), encoding="utf-8")


class TestCrossModuleBlindness:
    """Two-file cases where per-file linting is provably blind and the
    whole-program pass is not: R010 needs the MRO to know a class is a
    component and which methods it binds."""

    TWO_PHASE_BASE = """
        class Pipeline:
            def compute(self, cycle):
                self._staged = 1

            def commit(self, cycle):
                self.value = self._staged
    """

    SUB_LAMBDA = """
        from base import Pipeline


        class LeakyPipeline(Pipeline):
            def __init__(self):
                self.on_flit = lambda flit: flit
    """

    def _project(self, tmp_path, sub):
        _write_tree(tmp_path, {"base.py": self.TWO_PHASE_BASE, "sub.py": sub})
        per_file = lint_file(tmp_path / "sub.py", [SerializationReadinessRule()])
        project = [
            f
            for f in lint_paths([str(tmp_path)], all_rules())
            if f.code == "R010"
        ]
        return per_file, project

    def test_r010_subclass_inheriting_both_phases(self, tmp_path):
        per_file, project = self._project(tmp_path, self.SUB_LAMBDA)
        assert per_file == []  # no phase in this file: per-file blind
        assert len(project) == 1
        assert project[0].path.endswith("sub.py")
        assert "`LeakyPipeline.__init__` stores a lambda" in project[0].message

    SUB_BOUND = """
        from base import Pipeline


        class HookedPipeline(Pipeline):
            def __init__(self):
                self.on_flit = self.commit
    """

    def test_r010_bound_method_resolved_in_base(self, tmp_path):
        per_file, project = self._project(tmp_path, self.SUB_BOUND)
        assert per_file == []  # `commit` is not defined in this file
        assert len(project) == 1
        assert "a bound method (`self.commit`)" in project[0].message

    def test_shared_base_reports_once(self, tmp_path):
        # Many subclasses inheriting one bad __init__: one finding, at
        # the defining class, not one per subclass.
        _write_tree(
            tmp_path,
            {
                "base.py": """
                class Leaky:
                    def __init__(self):
                        self.cb = lambda v: v

                    def compute(self, cycle):
                        pass

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
            if f.code == "R010"
        ]
        assert len(project) == 1
        assert project[0].path.endswith("base.py")
