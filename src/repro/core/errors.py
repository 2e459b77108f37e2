"""Structured simulation errors.

The simulator's correctness rests on conservation laws — flits, credits,
virtual-channel ownership — that must hold every cycle.  When one is
broken the failure must be *loud* and *located*: ``InvariantViolation``
carries the cycle, port, and VC at which the law failed, so a credit
leak surfaces as "cycle 812: output 3, VC 1: credit conservation
violated" instead of a latency number that is quietly wrong.

These classes deliberately live in :mod:`repro.core`, below both the
router models and the :mod:`repro.analysis` sanitizer, so every layer
can raise them without import cycles.  ``InvariantViolation`` is a
subclass of :class:`AssertionError`, so ``pytest.raises(AssertionError)``
catches it, but it is raised with an explicit ``raise`` — unlike a bare
``assert``, the checks survive ``python -O``.
"""

from __future__ import annotations

from typing import Any, Optional


class SimulationError(Exception):
    """Base class for errors raised by the simulation models."""


class UnregisteredComponentError(SimulationError):
    """A scheduler operation named a component it does not drive.

    Raised by :meth:`repro.engine.Scheduler.wake` (instead of the
    opaque ``KeyError`` on an object id it used to leak) when the
    target component was never registered — typically a harness wiring
    bug where an arrival sink points at a router outside the scheduled
    set.  Names the component so the broken wiring is identifiable.
    """

    def __init__(self, component: Any) -> None:
        name = getattr(component, "name", None)
        label = type(component).__name__ + (f" {name!r}" if name else "")
        self.component = component
        super().__init__(
            f"component {label} is not registered with this scheduler; "
            f"register() it before wake() (or check the harness wiring "
            f"that delivered the event)"
        )


class InvariantViolation(AssertionError, SimulationError):
    """A simulation invariant (conservation law, ownership rule) broke.

    Attributes:
        message: Human-readable description of what went wrong.
        cycle: Simulation cycle at which the violation was detected.
        port: Input or output port involved, when known.
        vc: Virtual channel involved, when known.
        check: Short machine-readable name of the violated invariant
            (e.g. ``"flit-conservation"``, ``"credit-conservation"``).
        context: Any further key/value detail supplied by the checker.
    """

    def __init__(
        self,
        message: str,
        *,
        cycle: Optional[int] = None,
        port: Optional[int] = None,
        vc: Optional[int] = None,
        check: Optional[str] = None,
        **context: Any,
    ) -> None:
        self.message = message
        self.cycle = cycle
        self.port = port
        self.vc = vc
        self.check = check
        self.context = context
        super().__init__(self._render())

    def _render(self) -> str:
        where = []
        if self.cycle is not None:
            where.append(f"cycle {self.cycle}")
        if self.port is not None:
            where.append(f"port {self.port}")
        if self.vc is not None:
            where.append(f"VC {self.vc}")
        prefix = ", ".join(where)
        body = self.message
        if self.check:
            body = f"[{self.check}] {body}"
        if self.context:
            detail = ", ".join(f"{k}={v!r}" for k, v in sorted(self.context.items()))
            body = f"{body} ({detail})"
        return f"{prefix}: {body}" if prefix else body


def drift(what: str, index: Any, walked: Any, walk: str, cycle: int,
          **context: Any) -> InvariantViolation:
    """An index a hot path trusts in place of ``walk`` disagrees with it."""
    return InvariantViolation(
        f"occupancy index drifted: {what} reads {index} but walking "
        f"{walk} finds {walked}",
        cycle=cycle, check="occupancy-index", index=index, walked=walked,
        **context,
    )


def invariant(
    condition: bool,
    message: str,
    *,
    cycle: Optional[int] = None,
    port: Optional[int] = None,
    vc: Optional[int] = None,
    check: Optional[str] = None,
    **context: Any,
) -> None:
    """Raise :class:`InvariantViolation` unless ``condition`` holds.

    A drop-in replacement for the bare ``assert`` statements that used
    to guard simulation state: the check is an ordinary ``if``/``raise``,
    so it is not stripped by ``python -O``.
    """
    if not condition:
        raise InvariantViolation(
            message, cycle=cycle, port=port, vc=vc, check=check, **context
        )
