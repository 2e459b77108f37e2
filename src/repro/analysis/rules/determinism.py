"""Determinism rules: R001 (direct random) and R002 (nondeterminism).

Reproducibility is the simulator's core contract: the same seed must
produce the same latency numbers in any process on any platform.  Two
classes of code break it silently:

* drawing from the *global* :mod:`random` module (or constructing ad
  hoc ``random.Random`` instances), which bypasses the per-component
  streams of :func:`repro.core.rng.derive_rng`;
* consulting state that varies across runs — the wall clock, the
  process-salted builtin ``hash``, ``os.urandom``/``uuid4``, or the
  iteration order of a ``set`` feeding an ordered decision such as
  arbitration.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from ..lint import FileContext, Finding, LintRule

#: Module-level attributes whose *call* is wall-clock or process-salted.
_FORBIDDEN_CALLS = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
             "perf_counter_ns"},
    "datetime": {"now", "utcnow", "today"},
    "date": {"today"},
    "os": {"urandom", "getpid"},
    "uuid": {"uuid1", "uuid4"},
}


class DirectRandomRule(LintRule):
    """R001: all randomness must come from ``repro.core.rng.derive_rng``.

    Flags ``import random`` / ``from random import ...`` and any
    attribute use of the ``random`` module (``random.Random(...)``,
    ``random.random()``, ``random.seed(...)``, ...) outside
    ``repro/core/rng.py``.  Modules that only need the stream *type*
    for annotations import :data:`repro.core.rng.Rng` instead.
    """

    code = "R001"
    name = "no-direct-random"
    description = (
        "direct use of the `random` module outside repro.core.rng; "
        "derive per-component streams with derive_rng (annotate with Rng)"
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        if ctx.is_rng_module:
            return
        aliases: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        aliases.add(alias.asname or alias.name.split(".")[0])
                        yield self.finding(
                            ctx, node,
                            "import of the global `random` module; use "
                            "repro.core.rng.derive_rng for streams "
                            "(or the Rng type alias for annotations)",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    names = ", ".join(a.name for a in node.names)
                    yield self.finding(
                        ctx, node,
                        f"`from random import {names}`; use "
                        "repro.core.rng.derive_rng instead",
                    )
        if not aliases:
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in aliases and node.attr != "Random":
                    # random.Random in *annotations* is tolerated once the
                    # import itself is flagged; calls like random.random()
                    # or random.seed() get their own finding for locality.
                    yield self.finding(
                        ctx, node,
                        f"call path `{node.value.id}.{node.attr}` draws from "
                        "the shared global RNG; use a derive_rng stream",
                    )


class NondeterminismRule(LintRule):
    """R002: no wall-clock or process-salted state in the simulation.

    Flags calls to ``time.time``/``datetime.now``-style functions,
    builtin ``hash(...)`` (salted per process for ``str``/``bytes``),
    ``os.urandom``/``uuid.uuid4``/``os.getpid``, and iteration over a
    ``set`` literal or ``set(...)`` call (unordered) in ``for`` loops,
    comprehensions, and ``list``/``tuple``/``enumerate`` conversions.
    """

    code = "R002"
    name = "no-nondeterminism"
    description = (
        "wall-clock, process-salted, or unordered-set nondeterminism "
        "in simulation code"
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        set_names = self._collect_set_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, set_names)
            elif isinstance(node, (ast.For, ast.comprehension)):
                iterable = node.iter
                if self._is_unordered_set(iterable, set_names):
                    target = node if isinstance(node, ast.For) else iterable
                    yield self.finding(
                        ctx, target,
                        "iteration over an unordered set; sort first "
                        "(set order must never feed arbitration)",
                    )

    @staticmethod
    def _collect_set_names(tree: ast.Module) -> Set[str]:
        """Names bound to a set literal or ``set()``/``frozenset()`` call.

        Deliberately simple flow-insensitive inference: good enough to
        catch ``seen = set(); ... for x in seen:`` without a type
        checker.  A name later rebound to an ordered value can carry a
        ``# lint: disable=R002`` pragma at the iteration site.
        """
        names: Set[str] = set()
        for node in ast.walk(tree):
            value = None
            if isinstance(node, ast.Assign):
                value = node.value
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value = node.value
                targets = [node.target]
            else:
                continue
            if NondeterminismRule._is_set_value(value):
                for target in targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    @staticmethod
    def _is_set_value(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        return False

    def _check_call(
        self, ctx: FileContext, node: ast.Call, set_names: Set[str]
    ) -> Iterator[Finding]:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "hash" and node.args:
                yield self.finding(
                    ctx, node,
                    "builtin hash() is salted per process; use "
                    "repro.core.rng.derive_seed for stable digests",
                )
            elif func.id in ("list", "tuple", "enumerate") and node.args:
                if self._is_unordered_set(node.args[0], set_names):
                    yield self.finding(
                        ctx, node,
                        f"{func.id}() over an unordered set; sort first",
                    )
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            module, attr = func.value.id, func.attr
            if attr in _FORBIDDEN_CALLS.get(module, ()):
                yield self.finding(
                    ctx, node,
                    f"`{module}.{attr}()` is wall-clock/process state; "
                    "simulations must depend only on the seed",
                )

    @staticmethod
    def _is_unordered_set(node: ast.expr, set_names: Set[str]) -> bool:
        if NondeterminismRule._is_set_value(node):
            return True
        return isinstance(node, ast.Name) and node.id in set_names
