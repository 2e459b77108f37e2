"""Per-file analysis summaries.

A :class:`FileSummary` is everything the project rules need to know
about one module, extracted in a single AST pass and expressed as plain
data: no AST nodes survive, so the project rules never walk a tree.

The summarizer resolves imports to dotted targets (``from
repro.routers.base import Router`` binds the local name ``Router`` to
``"repro.routers.base.Router"``) so the index can stitch class
hierarchies across modules without ever importing simulator code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Constructor names whose instances can never be pickled (R010).
_LOCK_FACTORIES = {
    "Lock", "RLock", "Condition", "Event", "Semaphore", "BoundedSemaphore",
    "Barrier",
}


@dataclass
class WriteSite:
    """One attribute assignment: ``<root>.<attr>[...] = <value>``."""

    root: str  #: leftmost name of the target chain ("self", a local, "")
    attr: str  #: attribute being written
    line: int
    kind: str  #: value classification — "plain", "lambda", "generator",
    #: "open", "lock", "self_call:<m>", or "self_attr:<a>"


@dataclass
class CallSite:
    """A ``self.<name>(...)`` call inside a method body."""

    name: str
    line: int


@dataclass
class RngSite:
    """A ``derive_rng``/``derive_seed`` call site and its key shape."""

    func: str
    line: int
    #: One entry per key argument (everything after the seed):
    #: ``"const:<repr>"`` for compile-time constants, ``"dyn:<text>"``.
    key: List[str]
    #: Statically detectable instability in the key ("id()", "hash()",
    #: "set iteration").
    bad: List[str]
    scope: str  #: "module", "class", or "function"
    assigned_global: bool  #: result bound to a module-level name


@dataclass
class MethodSummary:
    """Flow facts about one function or method body."""

    name: str
    line: int
    self_writes: List[WriteSite] = field(default_factory=list)
    cross_writes: List[WriteSite] = field(default_factory=list)
    self_reads: List[str] = field(default_factory=list)
    self_calls: List[CallSite] = field(default_factory=list)
    returns_closure: bool = False
    raises_only: bool = False  #: body is nothing but ``raise`` (a stub)


@dataclass
class ClassSummary:
    """One class definition: resolved bases and method summaries."""

    name: str
    line: int
    bases: List[str]  #: dotted refs after import resolution
    methods: Dict[str, MethodSummary] = field(default_factory=dict)
    #: string entries of a class-body ``SNAPSHOT_WIRING = (...)`` tuple —
    #: attributes the serialization rule (R010) must treat as live
    #: wiring that ``restore`` re-attaches rather than deserializes
    snapshot_wiring: List[str] = field(default_factory=list)


@dataclass
class FileSummary:
    """Everything the project rules need to know about one module."""

    path: str
    module: str
    classes: List[ClassSummary] = field(default_factory=list)
    functions: Dict[str, MethodSummary] = field(default_factory=dict)
    rng_sites: List[RngSite] = field(default_factory=list)
    pragmas: Dict[int, List[str]] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Extraction helpers
# ----------------------------------------------------------------------


def _expr_text(node: ast.expr) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return "<expr>"


def _root_and_attr(node: ast.expr) -> Optional[Tuple[str, str]]:
    """``(root, attr)`` for a write target ``root...<attr>`` (through
    any subscript chain), or ``None`` for plain-name targets."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if not isinstance(node, ast.Attribute):
        return None
    attr = node.attr
    base = node.value
    # Walk to the leftmost name: self.a.b -> root "self" is what matters
    # for ownership, so report the *immediate* receiver's root.
    while isinstance(base, (ast.Attribute, ast.Subscript)):
        base = base.value if isinstance(base, ast.Subscript) else base.value
    if isinstance(base, ast.Name):
        return base.id, attr
    if isinstance(base, ast.Call):
        return "", attr
    return "", attr


def _flatten_targets(target: ast.expr) -> List[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        leaves: List[ast.expr] = []
        for elt in target.elts:
            leaves.extend(_flatten_targets(elt))
        return leaves
    if isinstance(target, ast.Starred):
        return _flatten_targets(target.value)
    return [target]


def _value_kind(value: Optional[ast.expr]) -> str:
    """Classify an assigned value for serialization-readiness (R010)."""
    if value is None:
        return "plain"
    if isinstance(value, ast.Lambda):
        return "lambda"
    if isinstance(value, ast.GeneratorExp):
        return "generator"
    if isinstance(value, ast.Call):
        func = value.func
        if isinstance(func, ast.Name):
            if func.id == "open":
                return "open"
            if func.id in _LOCK_FACTORIES:
                return "lock"
        elif isinstance(func, ast.Attribute):
            if func.attr == "open":
                return "open"
            if func.attr in _LOCK_FACTORIES:
                return "lock"
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                return f"self_call:{func.attr}"
    if (
        isinstance(value, ast.Attribute)
        and isinstance(value.value, ast.Name)
        and value.value.id == "self"
    ):
        return f"self_attr:{value.attr}"
    return "plain"


def _raises_only(body: List[ast.stmt]) -> bool:
    """True for stub bodies: docstring plus nothing but ``raise``.

    Such methods deliberately opt *out* of a protocol (e.g. a sharded
    simulation whose ``snapshot`` raises), so serialization rules must
    not treat them as entry points.
    """
    stmts = list(body)
    if (
        stmts
        and isinstance(stmts[0], ast.Expr)
        and isinstance(stmts[0].value, ast.Constant)
        and isinstance(stmts[0].value.value, str)
    ):
        stmts = stmts[1:]
    return bool(stmts) and all(isinstance(s, ast.Raise) for s in stmts)


def _contains_unstable_key(node: ast.expr) -> List[str]:
    """Reasons a key expression is unstable across runs/processes."""
    reasons: List[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
            if sub.func.id == "id":
                reasons.append("id()")
            elif sub.func.id == "hash":
                reasons.append("hash()")
        elif isinstance(sub, (ast.Set, ast.SetComp)):
            reasons.append("set iteration")
    return reasons


def _module_name_for(path_parts: Tuple[str, ...], root_parts: Tuple[str, ...]) -> str:
    """Dotted module name for a file, preferring the ``src`` layout."""
    parts = list(path_parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts.pop()
    # Prefer the conventional src-layout root when present.
    if "src" in parts:
        idx = len(parts) - 1 - parts[::-1].index("src")
        return ".".join(parts[idx + 1:])
    # Otherwise: relative to the lint root the file was found under.
    if root_parts and len(parts) > len(root_parts) and tuple(
        parts[: len(root_parts)]
    ) == root_parts:
        parts = parts[len(root_parts):]
        return ".".join(parts)
    return ".".join(parts[-2:]) if len(parts) > 1 else ".".join(parts)


class _Summarizer(ast.NodeVisitor):
    """Single-pass extractor filling a :class:`FileSummary`."""

    def __init__(self, summary: FileSummary) -> None:
        self.s = summary
        self.imports: Dict[str, str] = {}
        self._class_stack: List[ClassSummary] = []
        self._method_stack: List[MethodSummary] = []

    # -- imports -------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            self.imports[local] = alias.name if alias.asname else local
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:
            pkg_parts = self.s.module.split(".") if self.s.module else []
            # level=1 strips the module itself; each extra level strips
            # one more package component.
            keep = len(pkg_parts) - node.level
            prefix = ".".join(pkg_parts[:keep]) if keep > 0 else ""
            base = f"{prefix}.{base}".strip(".") if base else prefix
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.imports[local] = f"{base}.{alias.name}".strip(".")
        self.generic_visit(node)

    # -- classes and methods -------------------------------------------

    def _resolve_ref(self, node: ast.expr) -> str:
        text = _expr_text(node)
        first, _, rest = text.partition(".")
        target = self.imports.get(first)
        if target is None:
            return text
        return f"{target}.{rest}" if rest else target

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        cls = ClassSummary(
            name=node.name,
            line=node.lineno,
            bases=[self._resolve_ref(b) for b in node.bases
                   if not isinstance(b, (ast.Subscript, ast.Call))],
        )
        self.s.classes.append(cls)
        self._class_stack.append(cls)
        for stmt in node.body:
            self.visit(stmt)
        self._class_stack.pop()

    def _enter_function(
        self, node: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> None:
        if self._method_stack:
            # Nested function: its body is attributed to the enclosing
            # method (it captures self), but it is not itself resolvable.
            outer = self._method_stack[-1]
            self._method_stack.append(outer)
            for stmt in node.body:
                self.visit(stmt)
            self._method_stack.pop()
            return
        method = MethodSummary(
            name=node.name,
            line=node.lineno,
            raises_only=_raises_only(node.body),
        )
        self._method_stack.append(method)
        for stmt in node.body:
            self.visit(stmt)
        self._method_stack.pop()
        if self._class_stack:
            self._class_stack[-1].methods.setdefault(node.name, method)
        else:
            self.s.functions.setdefault(node.name, method)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)

    # -- statements inside bodies --------------------------------------

    def _record_write(self, target: ast.expr, value: Optional[ast.expr],
                      line: int) -> None:
        if not self._method_stack:
            return
        for leaf in _flatten_targets(target):
            located = _root_and_attr(leaf)
            if located is None:
                continue
            root, attr = located
            site = WriteSite(root=root, attr=attr, line=line,
                             kind=_value_kind(value))
            method = self._method_stack[-1]
            if root == "self":
                method.self_writes.append(site)
            else:
                method.cross_writes.append(site)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_write(target, node.value, node.lineno)
        self._maybe_snapshot_wiring(node)
        self.generic_visit(node)
        # After generic_visit so the RngSite for the RHS call exists.
        self._maybe_rng_assignment(node)

    def _maybe_snapshot_wiring(
        self, node: "ast.Assign | ast.AnnAssign"
    ) -> None:
        """Record a class-body ``SNAPSHOT_WIRING = ("attr", ...)``
        (plain or annotated assignment)."""
        if not self._class_stack or self._method_stack:
            return
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        if not any(
            isinstance(t, ast.Name) and t.id == "SNAPSHOT_WIRING"
            for t in targets
        ):
            return
        if not isinstance(node.value, (ast.Tuple, ast.List)):
            return
        self._class_stack[-1].snapshot_wiring = [
            elt.value
            for elt in node.value.elts
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
        ]

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_write(node.target, None, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_write(node.target, node.value, node.lineno)
            self._maybe_snapshot_wiring(node)
        self.generic_visit(node)
        if node.value is not None:
            self._maybe_rng_assignment(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            self._method_stack
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            self._method_stack[-1].self_reads.append(node.attr)
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            self._visit_attribute_call(node, func)
        elif isinstance(func, ast.Name):
            self._visit_name_call(node, func)
        self.generic_visit(node)

    def _visit_attribute_call(self, node: ast.Call, func: ast.Attribute) -> None:
        if (
            self._method_stack
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            self._method_stack[-1].self_calls.append(
                CallSite(name=func.attr, line=node.lineno)
            )
        self._maybe_rng_call(node, _expr_text(func))

    def _visit_name_call(self, node: ast.Call, func: ast.Name) -> None:
        self._maybe_rng_call(node, func.id)

    def _maybe_rng_call(self, node: ast.Call, call_text: str) -> None:
        name = call_text.rsplit(".", 1)[-1]
        if name not in ("derive_rng", "derive_seed"):
            return
        key: List[str] = []
        bad: List[str] = []
        for arg in node.args[1:]:
            if isinstance(arg, ast.Constant):
                key.append(f"const:{arg.value!r}")
            elif isinstance(arg, ast.Starred):
                key.append(f"dyn:{_expr_text(arg)}")
            else:
                key.append(f"dyn:{_expr_text(arg)}")
            if not isinstance(arg, ast.Constant):
                bad.extend(_contains_unstable_key(arg))
        if self._method_stack:
            scope = "function"
        elif self._class_stack:
            scope = "class"
        else:
            scope = "module"
        self.s.rng_sites.append(RngSite(
            func=name,
            line=node.lineno,
            key=key,
            bad=sorted(set(bad)),
            scope=scope,
            assigned_global=False,
        ))

    def _maybe_rng_assignment(self, node: "ast.Assign | ast.AnnAssign") -> None:
        """Mark module-level ``name = derive_rng(...)`` bindings."""
        if self._method_stack or self._class_stack:
            return
        value = node.value
        if not isinstance(value, ast.Call):
            return
        func = value.func
        name = ""
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name != "derive_rng":
            return
        for site in self.s.rng_sites:
            if site.line == node.lineno and site.func == "derive_rng":
                site.assigned_global = True


def summarize_module(
    tree: ast.Module,
    display_path: str,
    pragmas: Optional[Dict[int, List[str]]] = None,
    root: str = "",
) -> FileSummary:
    """Produce the :class:`FileSummary` for one parsed module.

    ``root`` is the lint path the file was found under; it anchors the
    module-name computation for trees that do not follow the ``src``
    layout (test fixtures, scratch dirs).
    """
    path_parts = tuple(p for p in display_path.replace("\\", "/").split("/") if p)
    root_parts = tuple(p for p in root.replace("\\", "/").split("/") if p)
    summary = FileSummary(
        path=display_path,
        module=_module_name_for(path_parts, root_parts),
        pragmas=dict(pragmas or {}),
    )
    summarizer = _Summarizer(summary)
    summarizer.visit(tree)
    _detect_closure_returns(tree, summary)
    return summary


def _detect_closure_returns(tree: ast.Module, summary: FileSummary) -> None:
    """Set ``returns_closure`` on methods returning a nested def/lambda."""

    def check(fn: "ast.FunctionDef | ast.AsyncFunctionDef",
              target: MethodSummary) -> None:
        nested = {
            stmt.name
            for stmt in ast.walk(fn)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt is not fn
        }
        for node in ast.walk(fn):
            if isinstance(node, ast.Return) and node.value is not None:
                value = node.value
                if isinstance(value, ast.Lambda):
                    target.returns_closure = True
                elif isinstance(value, ast.Name) and value.id in nested:
                    target.returns_closure = True

    by_name: Dict[Tuple[str, str], MethodSummary] = {}
    for cls in summary.classes:
        for mname, m in cls.methods.items():
            by_name[(cls.name, mname)] = m
    for fname, f in summary.functions.items():
        by_name[("", fname)] = f

    class_stack: List[str] = []

    def walk(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                class_stack.append(child.name)
                walk(child)
                class_stack.pop()
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = class_stack[-1] if class_stack else ""
                target = by_name.get((owner, child.name))
                if target is not None:
                    check(child, target)
            else:
                walk(child)

    walk(tree)
