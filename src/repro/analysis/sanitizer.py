"""Runtime simulation sanitizer: per-cycle conservation checking.

``SimSanitizer(router)`` observes any :class:`~repro.routers.base.Router`
through its :class:`~repro.engine.hooks.EngineHooks` bus, however the
router is driven.  Flit accept/eject events drive the *stream*
contracts (check ``stream-conservation``: accepted once, ejected once;
``stream-destination``; ``stream-order`` within a packet;
``stream-vc-discipline`` from head to tail; ``stream-bandwidth``, one
flit per ``flit_cycles`` per output), and the ``cycle_end`` event the
*structural* checks against the router's internal state (and, when
the driving simulation hands it over, its arrival queue).

The sanitizer keeps only what no organization owns: the stream
contracts, and **exclusive output-VC ownership** (every owned (output,
VC) entry belongs to a packet that still has undelivered flits, and no
packet owns two), which needs the sanitizer's ledger of live packets.
Everything else is the router's own ``audit(cycle)``, written beside
the structures it checks, which walks the router's storage once per
check:

* **flit conservation** — flits accepted equal flits ejected plus flits
  resident in buffers and pipelines (exact for every organization
  except the ACK/NACK shared-buffer crossbar, whose walk counts an
  original and its speculative copy both, and checks a lower bound);
* **buffer-depth bounds** — no bounded flit queue ever exceeds its
  capacity, even if state was mutated behind the ``push`` guard;
* **credit conservation** — for every credit counter,
  ``free + held == capacity`` where *held* counts flits buffered
  downstream, flits in flight toward the buffer, and credits in flight
  back to the counter;
* **occupancy indices** — every index a hot path trusts instead of
  walking its buffers (``_in_flits``, ``_occupied``, the hierarchical
  crossbar's lane counts, the credit buses' waiting sets) equals the
  walk.

Violations raise :class:`~repro.core.errors.InvariantViolation`
carrying the cycle, port, and VC, so a credit leak surfaces as
``cycle 812, port 3, VC 1: [credit-conservation] ...`` instead of a
quietly wrong latency curve.  See ``benchmarks/test_perf_sanitizer.py``
for the measured overhead.  ``SwitchSimulation(..., sanitize=True)``
attaches one as ``sim.sanitizer``.

``NetworkSanitizer`` runs every router's audit across a whole
:class:`~repro.network.netsim.NetworkSimulation` and keeps the checks
that span routers: link-credit conservation and the arrival queue.
It subscribes to the simulation's scheduler-level ``cycle_end`` hook
(enable with ``NetworkSimulation(..., sanitize=True)``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.credit import audit_credit_books
from ..core.errors import InvariantViolation
from ..routers.base import Router


def _bucket(counts: Dict, key) -> None:
    counts[key] = counts.get(key, 0) + 1


def _stream(check: str, flit, port: int, cycle: int,
            message: str) -> InvariantViolation:
    """A stream contract broke as ``flit`` moved through ``port``."""
    return InvariantViolation(message, cycle=cycle, port=port,
                              vc=flit.out_vc, check=f"stream-{check}")


class SimSanitizer:
    """Invariant checker observing one router through its hook bus."""

    def __init__(self, router: Router) -> None:
        self.router = router
        self.checks_run = 0
        #: Ejections run through the stream contracts so far.
        self.violations_checked = 0
        # Stream state: flit id -> requested output; packet id -> next
        # flit index; (output, output VC) -> owning packet; output ->
        # cycle of its last ejection.
        self._accepted: Dict[int, int] = {}
        self._next_index: Dict[int, int] = {}
        self._open_vc: Dict[Tuple[int, Optional[int]], int] = {}
        self._last_eject: Dict[int, int] = {}
        # Packet id -> number of accepted flits not yet delivered,
        # backing the stale-ownership check.
        self._live_packets: Dict[int, int] = {}
        self._flit_cycles = router.config.flit_cycles
        #: The driving simulation's arrival queue, audited at every
        #: cycle end when set (``SwitchSimulation`` sets it).
        self.arrivals = None
        # Stream checks ride on flit movement, structural checks on
        # cycle end.  The scheduler fires cycle_end even for parked or
        # asleep routers, so the check cadence is unchanged by
        # active-set scheduling.
        router.hooks.on_flit_move(self._on_flit_move)
        router.hooks.on_cycle_end(self._on_cycle_end)

    # -- hook handlers -------------------------------------------------

    def _on_flit_move(self, kind: str, flit, port: int, cycle: int) -> None:
        if kind == "accept":
            if id(flit) in self._accepted:
                raise _stream("conservation", flit, port, cycle, f"flit "
                              f"{flit.packet_id}:{flit.flit_index} accepted twice")
            self._accepted[id(flit)] = flit.dest
            _bucket(self._live_packets, flit.packet_id)
        elif kind == "eject":
            self._check_ejection(flit, port, cycle)

    def _on_cycle_end(self, cycle: int) -> None:
        self.check_now()
        if self.arrivals is not None:
            self.arrivals.audit(cycle)

    # -- stream contracts ------------------------------------------------

    def _check_ejection(self, flit, port: int, cycle: int) -> None:
        self.violations_checked += 1
        pid = flit.packet_id
        dest = self._accepted.pop(id(flit), None)
        if dest is None:
            raise _stream("conservation", flit, port, cycle, f"flit {pid}:"
                          f"{flit.flit_index} ejected but never accepted "
                          "(or ejected twice)")
        if port != dest:
            raise _stream("destination", flit, port, cycle, f"flit {pid} "
                          f"requested output {dest} but left on {port}")
        expected = self._next_index.get(pid, 0)
        if flit.flit_index != expected:
            raise _stream("order", flit, port, cycle, f"packet {pid} "
                          f"delivered flit {flit.flit_index}, expected {expected}")
        key = (port, flit.out_vc)
        owner = self._open_vc.get(key)
        if flit.is_head and owner is not None:
            raise _stream("vc-discipline", flit, port, cycle, f"packet {pid} "
                          f"head while packet {owner} is still open")
        if not flit.is_head and owner != pid:
            raise _stream("vc-discipline", flit, port, cycle, f"flit of "
                          f"packet {pid} on a VC owned by {owner}")
        last = self._last_eject.get(port)
        if last is not None and cycle - last < self._flit_cycles:
            raise _stream("bandwidth", flit, port, cycle, f"output ejected "
                          f"flits {cycle - last} cycles apart (minimum "
                          f"{self._flit_cycles})")
        self._last_eject[port] = cycle
        if flit.is_tail:
            self._next_index.pop(pid, None)
            self._open_vc.pop(key, None)
        else:
            self._next_index[pid] = expected + 1
            self._open_vc[key] = pid
        remaining = self._live_packets.pop(pid) - 1
        if remaining:
            self._live_packets[pid] = remaining

    def pending_flits(self) -> int:
        """Accepted flits not yet ejected (should reach 0 at drain)."""
        return len(self._accepted)

    def assert_drained(self) -> None:
        """Raise unless every accepted flit was delivered and every
        output VC closed; then run the structural checks once more."""
        if self._accepted or self._open_vc:
            raise InvariantViolation(
                f"{len(self._accepted)} flits accepted but never delivered, "
                f"output VCs still open: {self._open_vc}",
                cycle=self.router.cycle, check="drain",
            )
        self.check_now()

    # -- structural invariants -----------------------------------------

    def check_now(self) -> None:
        """Run every structural check against the current router state:
        the router's own :meth:`~repro.routers.base.Router.audit`, then
        output-VC ownership, which needs the stream ledger."""
        router = self.router
        router.audit(router.cycle)
        self._check_vc_ownership(router)
        self.checks_run += 1

    def _check_vc_ownership(self, router: Router) -> None:
        seen: Dict[int, Tuple[int, int]] = {}
        for out, state in enumerate(router.output_vcs):
            for vc, owner in enumerate(state.owners):
                if owner is None:
                    continue
                if self._live_packets.get(owner, 0) <= 0:
                    raise InvariantViolation(
                        f"output VC owned by packet {owner}, which has "
                        "no undelivered flits (stale ownership)",
                        cycle=router.cycle,
                        port=out,
                        vc=vc,
                        check="vc-ownership",
                        owner=owner,
                    )
                prior = seen.get(owner)
                if prior is not None:
                    raise InvariantViolation(
                        f"packet {owner} owns two output VCs at once: "
                        f"(out {prior[0]}, VC {prior[1]}) and "
                        f"(out {out}, VC {vc})",
                        cycle=router.cycle,
                        port=out,
                        vc=vc,
                        check="vc-ownership",
                        owner=owner,
                    )
                seen[owner] = (out, vc)


class NetworkSanitizer:
    """Per-cycle structural checks over a whole network simulation.

    Runs every router's :meth:`~repro.network.router.NetworkRouter.audit`
    (buffer bounds and occupancy indices), then what no router owns:
    for every inter-router link, the upstream credit counters, the
    downstream input-buffer occupancy, the flits in flight on the
    channel and the credits in flight on the return path always sum to
    the buffer capacity; and the host arrival queue holds one arrival
    per host, none of them overdue.  Subscribes to the simulation's
    scheduler-level ``cycle_end`` hook, so checks run once per simulated
    cycle without the simulation loop knowing about the sanitizer.
    Constructed by ``NetworkSimulation(..., sanitize=True)``.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.checks_run = 0
        sim.hooks.on_cycle_end(self.check_now)
        # (name, out port, link, downstream router, downstream port)
        # for every credited (router-to-router) link, whose delivery is
        # always the downstream router's sink.
        self._links: List[Tuple[str, int, object, object, int]] = [
            (str(sid), port, link, link.deliver.target, link.deliver.port)
            for sid, router in sim.routers.items()
            for port, link in enumerate(router.links)
            if link is not None and link.credits is not None
        ]

    def check_now(self, cycle: int) -> None:
        """Run every check against the simulation state at ``cycle``."""
        sim = self.sim
        for router in sim.routers.values():
            router.audit(cycle)
        # Flits in flight on channels: (downstream, port, vc) -> count.
        inflight: Dict[Tuple[int, int, int], int] = {}
        for _arrival, _seq, flit, target in sim._inflight:
            if isinstance(target, tuple):
                router, port = target
                _bucket(inflight, (id(router), port, flit.vc))
        # Credits in flight on return paths, and those the fault
        # injector holds until its resync re-delivers them (injected
        # loss must not read as a leak; a real leak still trips).
        owed = [sink.link.credits[vc] for router in sim.routers.values()
                for sink, vc in router._credit_out.items()]
        if sim._faults is not None:
            owed.extend(sink.link.credits[vc]
                        for sink, vc in sim._faults.pending_credits())
        counters: List = []
        held: List[int] = []
        for _name, _port, link, target, tport in self._links:
            for vc, counter in enumerate(link.credits):
                counters.append(counter)
                held.append(len(target.inputs[tport][vc])
                            + inflight.get((id(target), tport, vc), 0))
        v = sim.config.num_vcs

        def where(n: int):
            name, port = self._links[n // v][:2]
            return (f"router {name} port {port}",
                    {"port": port, "vc": n % v, "router": name})
        audit_credit_books(counters, held, owed, cycle, where)
        # One queued arrival per host, none of them overdue.
        sim.arrivals.audit(cycle)
        self.checks_run += 1


__all__ = ["SimSanitizer", "NetworkSanitizer"]
