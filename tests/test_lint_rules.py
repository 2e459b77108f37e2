"""Unit tests for the repro.analysis lint pass (rules R001-R007).

Each rule gets a positive fixture (the violation is found, with the
right code and line), a negative fixture (idiomatic code stays clean),
and a pragma fixture (``# lint: disable=R00x`` suppresses it).
"""

from pathlib import Path

import pytest

from repro.analysis.lint import (
    Finding,
    format_findings,
    lint_file,
    lint_paths,
    run_lint,
)
from repro.analysis.rules import all_rules
from repro.analysis.rules.config_rules import (
    ConfigMutationRule,
    MutableDefaultRule,
)
from repro.analysis.rules.determinism import (
    DirectRandomRule,
    NondeterminismRule,
)
from repro.analysis.rules.flow_rules import (
    ComputePhasePurityRule,
    HookEmissionPhaseRule,
)
from repro.analysis.rules.structure import RouterSubclassRule

REPO_ROOT = Path(__file__).resolve().parent.parent


def _lint(tmp_path, source, rules):
    path = tmp_path / "fixture.py"
    path.write_text(source)
    return lint_file(path, rules)


def _codes(findings):
    return [f.code for f in findings]


# ----------------------------------------------------------------------
# R001: no direct random
# ----------------------------------------------------------------------


class TestDirectRandom:
    RULES = [DirectRandomRule()]

    def test_import_random_flagged(self, tmp_path):
        findings = _lint(tmp_path, "import random\n", self.RULES)
        assert _codes(findings) == ["R001"]
        assert findings[0].line == 1

    def test_from_random_import_flagged(self, tmp_path):
        findings = _lint(
            tmp_path, "from random import randrange, shuffle\n", self.RULES
        )
        assert _codes(findings) == ["R001"]
        assert "randrange" in findings[0].message

    def test_attribute_calls_flagged_individually(self, tmp_path):
        src = "import random\n\nx = random.random()\nrandom.seed(3)\n"
        findings = _lint(tmp_path, src, self.RULES)
        # One for the import, one per drawing call.
        assert _codes(findings) == ["R001", "R001", "R001"]
        assert sorted(f.line for f in findings) == [1, 3, 4]

    def test_aliased_import_tracked(self, tmp_path):
        src = "import random as rnd\n\nx = rnd.randrange(4)\n"
        findings = _lint(tmp_path, src, self.RULES)
        assert _codes(findings) == ["R001", "R001"]

    def test_derive_rng_clean(self, tmp_path):
        src = (
            "from repro.core.rng import Rng, derive_rng\n"
            "\n"
            "rng = derive_rng(1, 'traffic', 3)\n"
            "x = rng.random()\n"
        )
        assert _lint(tmp_path, src, self.RULES) == []

    def test_pragma_suppresses(self, tmp_path):
        src = "import random  # lint: disable=R001\n"
        assert _lint(tmp_path, src, self.RULES) == []

    def test_bare_pragma_suppresses_all(self, tmp_path):
        src = "import random  # lint: disable\n"
        assert _lint(tmp_path, src, self.RULES) == []

    def test_rng_module_itself_exempt(self):
        rng_py = REPO_ROOT / "src" / "repro" / "core" / "rng.py"
        assert lint_file(rng_py, self.RULES) == []


# ----------------------------------------------------------------------
# R002: no nondeterminism
# ----------------------------------------------------------------------


class TestNondeterminism:
    RULES = [NondeterminismRule()]

    def test_wall_clock_flagged(self, tmp_path):
        src = "import time\n\nstart = time.time()\n"
        findings = _lint(tmp_path, src, self.RULES)
        assert _codes(findings) == ["R002"]
        assert findings[0].line == 3

    def test_datetime_now_flagged(self, tmp_path):
        src = "from datetime import datetime\n\nt = datetime.now()\n"
        assert _codes(_lint(tmp_path, src, self.RULES)) == ["R002"]

    def test_builtin_hash_flagged(self, tmp_path):
        findings = _lint(tmp_path, "h = hash('seed')\n", self.RULES)
        assert _codes(findings) == ["R002"]
        assert "salted" in findings[0].message

    def test_urandom_and_uuid4_flagged(self, tmp_path):
        src = "import os\nimport uuid\n\na = os.urandom(8)\nb = uuid.uuid4()\n"
        findings = _lint(tmp_path, src, self.RULES)
        assert _codes(findings) == ["R002", "R002"]

    def test_for_over_set_literal_flagged(self, tmp_path):
        src = "for x in {1, 2, 3}:\n    print(x)\n"
        findings = _lint(tmp_path, src, self.RULES)
        assert _codes(findings) == ["R002"]

    def test_for_over_set_named_variable_flagged(self, tmp_path):
        src = "seen = set()\nseen.add(1)\nfor x in seen:\n    print(x)\n"
        findings = _lint(tmp_path, src, self.RULES)
        assert _codes(findings) == ["R002"]
        assert findings[0].line == 3

    def test_list_over_set_flagged(self, tmp_path):
        src = "xs = list({3, 1, 2})\n"
        assert _codes(_lint(tmp_path, src, self.RULES)) == ["R002"]

    def test_sorted_set_clean(self, tmp_path):
        src = "seen = {3, 1}\nfor x in sorted(seen):\n    print(x)\n"
        assert _lint(tmp_path, src, self.RULES) == []

    def test_list_iteration_clean(self, tmp_path):
        src = "items = [3, 1]\nfor x in items:\n    print(x)\n"
        assert _lint(tmp_path, src, self.RULES) == []

    def test_pragma_suppresses(self, tmp_path):
        src = "seen = {1, 2}\nfor x in seen:  # lint: disable=R002\n    pass\n"
        assert _lint(tmp_path, src, self.RULES) == []


# ----------------------------------------------------------------------
# R003: no frozen-config mutation
# ----------------------------------------------------------------------


class TestConfigMutation:
    RULES = [ConfigMutationRule()]

    def test_attribute_assignment_flagged(self, tmp_path):
        src = "def f(config):\n    config.radix = 32\n"
        findings = _lint(tmp_path, src, self.RULES)
        assert _codes(findings) == ["R003"]
        assert findings[0].line == 2

    def test_self_config_attribute_flagged(self, tmp_path):
        src = "def f(self):\n    self.config.num_vcs = 8\n"
        assert _codes(_lint(tmp_path, src, self.RULES)) == ["R003"]

    def test_augmented_assignment_flagged(self, tmp_path):
        src = "def f(cfg):\n    cfg.radix += 1\n"
        assert _codes(_lint(tmp_path, src, self.RULES)) == ["R003"]

    def test_setattr_flagged(self, tmp_path):
        src = "def f(config):\n    setattr(config, 'radix', 8)\n"
        assert _codes(_lint(tmp_path, src, self.RULES)) == ["R003"]

    def test_object_setattr_flagged(self, tmp_path):
        src = "def f(cfg):\n    object.__setattr__(cfg, 'radix', 8)\n"
        assert _codes(_lint(tmp_path, src, self.RULES)) == ["R003"]

    def test_dataclasses_replace_clean(self, tmp_path):
        src = (
            "from dataclasses import replace\n"
            "\n"
            "def f(config):\n"
            "    return replace(config, radix=32)\n"
        )
        assert _lint(tmp_path, src, self.RULES) == []

    def test_binding_config_attribute_on_self_clean(self, tmp_path):
        src = "def __init__(self, config):\n    self.config = config\n"
        assert _lint(tmp_path, src, self.RULES) == []

    def test_pragma_suppresses(self, tmp_path):
        src = "def f(cfg):\n    cfg.radix = 16  # lint: disable=R003\n"
        assert _lint(tmp_path, src, self.RULES) == []


# ----------------------------------------------------------------------
# R004: no mutable defaults
# ----------------------------------------------------------------------


class TestMutableDefault:
    RULES = [MutableDefaultRule()]

    def test_list_default_flagged(self, tmp_path):
        src = "def f(xs=[]):\n    return xs\n"
        findings = _lint(tmp_path, src, self.RULES)
        assert _codes(findings) == ["R004"]
        assert "f" in findings[0].message

    def test_dict_and_set_defaults_flagged(self, tmp_path):
        src = "def f(a={}, b=set()):\n    return a, b\n"
        assert _codes(_lint(tmp_path, src, self.RULES)) == ["R004", "R004"]

    def test_factory_call_default_flagged(self, tmp_path):
        src = (
            "from collections import deque\n"
            "\n"
            "def f(q=deque()):\n"
            "    return q\n"
        )
        assert _codes(_lint(tmp_path, src, self.RULES)) == ["R004"]

    def test_kwonly_default_flagged(self, tmp_path):
        src = "def f(*, xs=[]):\n    return xs\n"
        assert _codes(_lint(tmp_path, src, self.RULES)) == ["R004"]

    def test_none_and_tuple_defaults_clean(self, tmp_path):
        src = "def f(a=None, b=(), c=3, d='x'):\n    return a, b, c, d\n"
        assert _lint(tmp_path, src, self.RULES) == []

    def test_pragma_suppresses(self, tmp_path):
        src = "def f(xs=[]):  # lint: disable=R004\n    return xs\n"
        assert _lint(tmp_path, src, self.RULES) == []


# ----------------------------------------------------------------------
# R005: Router subclass contract
# ----------------------------------------------------------------------

_ROUTER_NO_STEP = """\
from repro.routers.base import Router

class BrokenRouter(Router):
    def __init__(self, config):
        super().__init__(config)
"""

_ROUTER_NO_CHAIN = """\
from repro.routers.baseline import BaselineRouter

class TweakedRouter(BaselineRouter):
    def __init__(self, config):
        self.config = config
"""

_ROUTER_OK = """\
from repro.routers.base import Router

class FineRouter(Router):
    def __init__(self, config):
        super().__init__(config)

    def step(self):
        pass
"""

_ROUTER_ADVANCE_OK = """\
from repro.routers.base import Router

class TemplatedRouter(Router):
    def _advance(self):
        pass
"""


class TestRouterSubclass:
    RULES = [RouterSubclassRule()]

    def test_missing_step_hook_flagged(self, tmp_path):
        findings = _lint(tmp_path, _ROUTER_NO_STEP, self.RULES)
        assert _codes(findings) == ["R005"]
        assert "BrokenRouter" in findings[0].message

    def test_init_without_super_flagged(self, tmp_path):
        findings = _lint(tmp_path, _ROUTER_NO_CHAIN, self.RULES)
        assert _codes(findings) == ["R005"]
        assert "__init__" in findings[0].message

    def test_step_and_chain_clean(self, tmp_path):
        assert _lint(tmp_path, _ROUTER_OK, self.RULES) == []

    def test_advance_hook_satisfies_contract(self, tmp_path):
        assert _lint(tmp_path, _ROUTER_ADVANCE_OK, self.RULES) == []

    def test_unrelated_class_ignored(self, tmp_path):
        src = "class Helper:\n    def __init__(self):\n        self.x = 1\n"
        assert _lint(tmp_path, src, self.RULES) == []

    def test_explicit_base_init_call_accepted(self, tmp_path):
        src = (
            "from repro.routers.base import Router\n"
            "\n"
            "class OldStyleRouter(Router):\n"
            "    def __init__(self, config):\n"
            "        Router.__init__(self, config)\n"
            "\n"
            "    def step(self):\n"
            "        pass\n"
        )
        assert _lint(tmp_path, src, self.RULES) == []


# ----------------------------------------------------------------------
# R006: compute-phase purity
# ----------------------------------------------------------------------

_COMPUTE_MUTATES = """\
class LeakyComponent:
    def compute(self, cycle):
        self.cycle = cycle
        self.occupancy = self.occupancy + 1

    def commit(self, cycle):
        pass
"""

_COMPUTE_STAGES = """\
class CleanComponent:
    def compute(self, cycle):
        self.cycle = cycle
        self._staged_ejects = self._pipe.pop_ready(cycle)
        self._staged_credits = ()

    def commit(self, cycle):
        self.total += len(self._staged_ejects)
        self._staged_ejects = ()
"""


class TestComputePhasePurity:
    RULES = [ComputePhasePurityRule()]

    def test_committed_state_write_flagged(self, tmp_path):
        findings = _lint(tmp_path, _COMPUTE_MUTATES, self.RULES)
        assert _codes(findings) == ["R006"]
        assert "self.occupancy" in findings[0].message
        assert findings[0].line == 4

    def test_cycle_and_staged_writes_clean(self, tmp_path):
        assert _lint(tmp_path, _COMPUTE_STAGES, self.RULES) == []

    def test_augassign_and_subscript_writes_flagged(self, tmp_path):
        src = (
            "class C:\n"
            "    def compute(self, cycle):\n"
            "        self.count += 1\n"
            "        self.slots[0] = None\n"
            "    def commit(self, cycle):\n"
            "        pass\n"
        )
        findings = _lint(tmp_path, src, self.RULES)
        assert _codes(findings) == ["R006", "R006"]
        assert [f.line for f in findings] == [3, 4]

    def test_tuple_unpack_write_flagged(self, tmp_path):
        src = (
            "class C:\n"
            "    def compute(self, cycle):\n"
            "        self._staged_a, self.b = 1, 2\n"
            "    def commit(self, cycle):\n"
            "        pass\n"
        )
        findings = _lint(tmp_path, src, self.RULES)
        assert _codes(findings) == ["R006"]
        assert "self.b" in findings[0].message

    def test_class_without_commit_ignored(self, tmp_path):
        src = (
            "class NotAComponent:\n"
            "    def compute(self, cycle):\n"
            "        self.cache = cycle\n"
        )
        assert _lint(tmp_path, src, self.RULES) == []

    def test_local_and_non_self_writes_clean(self, tmp_path):
        src = (
            "class C:\n"
            "    def compute(self, cycle):\n"
            "        total = 0\n"
            "        other.attr = 1\n"
            "    def commit(self, cycle):\n"
            "        pass\n"
        )
        assert _lint(tmp_path, src, self.RULES) == []

    def test_pragma_suppresses(self, tmp_path):
        src = (
            "class C:\n"
            "    def compute(self, cycle):\n"
            "        self.scratch = 1  # lint: disable=R006\n"
            "    def commit(self, cycle):\n"
            "        pass\n"
        )
        assert _lint(tmp_path, src, self.RULES) == []


# ----------------------------------------------------------------------
# R007: hook emission phase
# ----------------------------------------------------------------------

_EMIT_IN_COMPUTE = """\
class ChattyComponent:
    def compute(self, cycle):
        self.cycle = cycle
        self.hooks.emit_stage_enter(None, "RC", 0, cycle)

    def commit(self, cycle):
        pass
"""

_EMIT_IN_COMMIT = """\
class QuietComponent:
    def compute(self, cycle):
        self.cycle = cycle
        self._staged_ejects = ()

    def commit(self, cycle):
        for flit in self._staged_ejects:
            self.hooks.emit_flit_move("eject", flit, 0, cycle)
"""


class TestHookEmissionPhase:
    RULES = [HookEmissionPhaseRule()]

    def test_emit_in_compute_flagged(self, tmp_path):
        findings = _lint(tmp_path, _EMIT_IN_COMPUTE, self.RULES)
        assert _codes(findings) == ["R007"]
        assert "emit_stage_enter" in findings[0].message
        assert findings[0].line == 4

    def test_emit_in_commit_clean(self, tmp_path):
        assert _lint(tmp_path, _EMIT_IN_COMMIT, self.RULES) == []

    def test_aliased_bus_still_flagged(self, tmp_path):
        src = (
            "class C:\n"
            "    def compute(self, cycle):\n"
            "        hooks = self.hooks\n"
            "        hooks.emit_grant(None, 0, cycle)\n"
            "    def commit(self, cycle):\n"
            "        pass\n"
        )
        findings = _lint(tmp_path, src, self.RULES)
        assert _codes(findings) == ["R007"]
        assert "emit_grant" in findings[0].message

    def test_emit_in_compute_helper_not_flagged(self, tmp_path):
        # R007 is syntactic, like R006: only the compute body is
        # scanned, not helpers it calls (the runtime sanitizer covers
        # dynamic escape hatches).
        src = (
            "class C:\n"
            "    def compute(self, cycle):\n"
            "        self._scan(cycle)\n"
            "    def _scan(self, cycle):\n"
            "        self.hooks.emit_credit(0, 0, cycle)\n"
            "    def commit(self, cycle):\n"
            "        pass\n"
        )
        assert _lint(tmp_path, src, self.RULES) == []

    def test_class_without_commit_ignored(self, tmp_path):
        src = (
            "class NotAComponent:\n"
            "    def compute(self, cycle):\n"
            "        self.hooks.emit_cycle_start(cycle)\n"
        )
        assert _lint(tmp_path, src, self.RULES) == []

    def test_non_emit_calls_clean(self, tmp_path):
        src = (
            "class C:\n"
            "    def compute(self, cycle):\n"
            "        self._staged = self.pipe.pop_ready(cycle)\n"
            "    def commit(self, cycle):\n"
            "        pass\n"
        )
        assert _lint(tmp_path, src, self.RULES) == []

    def test_pragma_suppresses(self, tmp_path):
        src = (
            "class C:\n"
            "    def compute(self, cycle):\n"
            "        self.hooks.emit_cycle_start(cycle)  "
            "# lint: disable=R007\n"
            "    def commit(self, cycle):\n"
            "        pass\n"
        )
        assert _lint(tmp_path, src, self.RULES) == []


# ----------------------------------------------------------------------
# Runner behaviour
# ----------------------------------------------------------------------


class TestRunner:
    def test_finding_format(self):
        f = Finding(path="src/x.py", line=12, code="R001", message="bad")
        assert f.format() == "src/x.py:12: R001 bad"

    def test_format_findings_one_per_line(self):
        fs = [
            Finding(path="a.py", line=1, code="R001", message="m1"),
            Finding(path="b.py", line=2, code="R002", message="m2"),
        ]
        assert format_findings(fs) == "a.py:1: R001 m1\nb.py:2: R002 m2"

    def test_syntax_error_reported_as_e999(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        findings = lint_file(path, all_rules())
        assert _codes(findings) == ["E999"]

    def test_lint_paths_sorted_and_recursive(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "b.py").write_text("import random\n")
        (tmp_path / "a.py").write_text("x = hash('k')\n")
        findings = lint_paths([str(tmp_path)])
        assert [(Path(f.path).name, f.code) for f in findings] == [
            ("a.py", "R002"),
            ("b.py", "R001"),
        ]

    def test_run_lint_exit_codes(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        assert run_lint([str(dirty)]) == 1
        out = capsys.readouterr().out
        assert f"{dirty}:1: R001" in out
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert run_lint([str(clean)]) == 0

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths(["definitely/not/a/path"])

    def test_repo_source_tree_is_clean(self):
        src = REPO_ROOT / "src"
        assert lint_paths([str(src)]) == []
