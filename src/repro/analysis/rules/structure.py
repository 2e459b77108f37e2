"""Structural rule R005: the ``Router`` subclass contract.

Every switch organization extends :class:`repro.routers.base.Router`,
which owns the input banks, the statistics ledger, and the output-VC
ownership table.  Two obligations keep that machinery sound:

* a *direct* subclass of ``Router`` must implement the per-cycle hook —
  either ``step`` itself or the ``_advance`` template hook that the base
  ``step`` drives;
* any subclass in the ``Router`` hierarchy that defines ``__init__``
  must chain ``super().__init__(...)`` so the shared state (banks,
  stats, ledger) is actually constructed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..lint import Finding, ProjectRule

if TYPE_CHECKING:
    from ..flow.index import ProjectIndex

#: Hooks that satisfy the "implements the per-cycle step" obligation.
_STEP_HOOKS = {"step", "_advance"}


class RouterSubclassRule(ProjectRule):
    """R005: Router subclasses implement the step hook and chain init.

    Family membership comes from the resolved MRO, so a subclass two
    modules and one rename away from ``Router`` is still bound by the
    contract; a base outside the linted tree counts when its name ends
    in ``Router`` (see :meth:`ProjectIndex.is_router_family`).
    """

    code = "R005"
    name = "router-subclass-contract"
    description = (
        "Router subclasses must implement step/_advance and call "
        "super().__init__()"
    )

    def check_project(self, index: "ProjectIndex") -> Iterator[Finding]:
        for qual, summary, cls in index.iter_classes():
            if not index.is_router_family(qual):
                continue
            if self._is_direct_router_child(index, summary.module, cls.bases):
                if not (_STEP_HOOKS & set(cls.methods)):
                    yield self.project_finding(
                        summary.path, cls.line,
                        f"Router subclass `{cls.name}` defines neither "
                        "`step` nor `_advance`; the organization would "
                        "inherit a cycle loop that moves nothing",
                    )
            init = cls.methods.get("__init__")
            if init is not None and not init.calls_super_init and not any(
                base.rsplit(".", 1)[-1].endswith("Router")
                or index.resolve_class(base, summary.module) is not None
                for base in init.explicit_init_bases
            ):
                yield self.project_finding(
                    summary.path, init.line,
                    f"`{cls.name}.__init__` never calls "
                    "`super().__init__()`; input banks, stats, and the "
                    "VC ledger would be left unconstructed",
                )

    @staticmethod
    def _is_direct_router_child(
        index: "ProjectIndex", module: str, bases: "list[str]"
    ) -> bool:
        for base in bases:
            resolved = index.resolve_class(base, module)
            simple = (resolved or base).rsplit(".", 1)[-1]
            if simple == "Router":
                return True
        return False


__all__ = ["RouterSubclassRule"]
