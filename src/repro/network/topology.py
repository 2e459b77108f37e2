"""Folded-Clos (fat-tree) topology builder (Section 7, Figure 19).

The paper's network experiment configures routers "as a Clos network
with three stages for the radix-64 routers and five stages for the
radix-16 routers" and routes obliviously ("middle stages are selected
randomly").  An unfolded (2s-1)-stage Clos is the folded network with
s levels, so we build folded Clos networks directly:

* ``levels`` switch levels of radix-k switches, with m = k/2 down
  ports and m up ports per switch (the top level uses only its m down
  ports);
* N = m^levels hosts; every level contains m^(levels-1) switches;
* switch addressing (level l, subtree t, position i): subtree t groups
  the m^(l+1) hosts below it, position i distinguishes the m^l
  switches serving that subtree at level l.

``levels = 2`` is the paper's "three-stage" network and ``levels = 3``
the "five-stage" one.  Routing goes up to the lowest common ancestor
level — choosing an *arbitrary* up port at each step, which is where
the oblivious randomization lives — then deterministically down.  A
route is therefore one random draw per level plus integer arithmetic:
:meth:`FoldedClos.route` computes the ports without visiting the
switches on the path.  The switch-by-switch walk over
:meth:`FoldedClos.neighbor` stays where switch ids are read — the
wiring, :meth:`FoldedClos.route_avoiding` and the fault injector's
dead-link check — and the test suite keeps it as the oracle ``route``
must agree with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.rng import Rng
from ..core.errors import invariant
from ..engine.shard import partition

#: A switch address: (level, subtree, position).
SwitchId = Tuple[int, int, int]


@dataclass(frozen=True)
class PortRef:
    """One endpoint: a switch port, or a host port when switch is None."""

    switch: Optional[SwitchId]
    port: int
    host: Optional[int] = None


class FoldedClos:
    """A folded Clos network of radix-k switches.

    Args:
        radix: Switch radix k (must be even; m = k/2).
        levels: Number of switch levels (unfolded stages = 2*levels-1).
    """

    def __init__(self, radix: int, levels: int) -> None:
        if radix < 4 or radix % 2 != 0:
            raise ValueError(f"radix must be even and >= 4, got {radix}")
        if levels < 1:
            raise ValueError(f"levels must be >= 1, got {levels}")
        self.radix = radix
        self.levels = levels
        self.m = radix // 2
        self.num_hosts = self.m ** levels
        self.switches_per_level = self.m ** (levels - 1)

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------

    @property
    def num_switches(self) -> int:
        return self.levels * self.switches_per_level

    @property
    def stages_unfolded(self) -> int:
        """The stage count the paper quotes (3 for levels=2, 5 for 3)."""
        return 2 * self.levels - 1

    def switch_ids(self) -> List[SwitchId]:
        ids = []
        m = self.m
        for level in range(self.levels):
            for subtree in range(m ** (self.levels - 1 - level)):
                for pos in range(m ** level):
                    ids.append((level, subtree, pos))
        return ids

    def shard_blocks(self, shards: int) -> List[List[SwitchId]]:
        """Cut-aware split of the switches over ``shards`` workers.

        ``switch_ids()`` is level-major, so contiguous blocks of it put
        whole levels on different workers and cut every link between
        them.  Splitting each level evenly instead — its ids run
        subtree by subtree, so a slice of a level is a run of whole
        subtrees and slice ``w`` of one level sits under slice ``w`` of
        the next — keeps a subtree's internal links on one worker and
        spreads leaves (hence hosts) and spines alike: at two shards a
        two-level Clos has half its links cut instead of all of them.
        Falls back to the contiguous :func:`partition` when a level is
        narrower than ``shards``.
        """
        ids = self.switch_ids()
        width = self.switches_per_level
        if not 1 <= shards <= width:
            return partition(ids, shards)
        blocks: List[List[SwitchId]] = [[] for _ in range(shards)]
        for start in range(0, len(ids), width):
            level = partition(ids[start:start + width], shards)
            for block, part in zip(blocks, level):
                block.extend(part)
        return blocks

    def ports_used(self, switch: SwitchId) -> int:
        """Ports in use: k below the top level, m at the top."""
        level, _, _ = switch
        return self.m if level == self.levels - 1 else self.radix

    def wired_ports(self, switch: SwitchId) -> List[int]:
        """Every used port of a Clos switch is wired."""
        return list(range(self.ports_used(switch)))

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    # Port numbering per switch: 0..m-1 are DOWN ports (children or
    # hosts), m..2m-1 are UP ports (parents); top switches have only
    # down ports.

    def down_neighbor(self, switch: SwitchId, port: int) -> PortRef:
        """Endpoint reached from down port ``port`` of ``switch``."""
        level, subtree, pos = self._check(switch)
        m = self.m
        if not 0 <= port < m:
            raise ValueError(f"down port {port} out of range 0..{m - 1}")
        if level == 0:
            host = subtree * m + port
            return PortRef(switch=None, port=0, host=host)
        child_sub = subtree * m + port
        child_pos = pos % (m ** (level - 1))
        up_port = pos // (m ** (level - 1))
        return PortRef(
            switch=(level - 1, child_sub, child_pos), port=m + up_port
        )

    def up_neighbor(self, switch: SwitchId, port: int) -> PortRef:
        """Endpoint reached from up port ``port`` (m..2m-1)."""
        level, subtree, pos = self._check(switch)
        m = self.m
        if level == self.levels - 1:
            raise ValueError("top-level switches have no up ports")
        if not m <= port < 2 * m:
            raise ValueError(f"up port {port} out of range {m}..{2 * m - 1}")
        u = port - m
        parent_sub = subtree // m
        parent_pos = pos + u * (m ** level)
        down_port = subtree % m
        return PortRef(
            switch=(level + 1, parent_sub, parent_pos), port=down_port
        )

    def neighbor(self, switch: SwitchId, port: int) -> PortRef:
        """Endpoint reached from any port of ``switch``."""
        if port < self.m:
            return self.down_neighbor(switch, port)
        return self.up_neighbor(switch, port)

    def host_attachment(self, host: int) -> PortRef:
        """The leaf switch port a host connects to."""
        if not 0 <= host < self.num_hosts:
            raise ValueError(
                f"host {host} out of range 0..{self.num_hosts - 1}"
            )
        return PortRef(
            switch=(0, host // self.m, 0), port=host % self.m
        )

    def _check(self, switch: SwitchId) -> SwitchId:
        level, subtree, pos = switch
        m = self.m
        if not 0 <= level < self.levels:
            raise ValueError(f"level {level} out of range")
        if not 0 <= subtree < m ** (self.levels - 1 - level):
            raise ValueError(f"subtree {subtree} out of range at level {level}")
        if not 0 <= pos < m ** level:
            raise ValueError(f"position {pos} out of range at level {level}")
        return switch

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def lca_level(self, src_host: int, dst_host: int) -> int:
        """Lowest level whose subtrees contain both hosts.

        Raises ``ValueError`` naming whichever host is out of range, so
        :meth:`hop_count`, :meth:`route` and :meth:`route_avoiding`
        validate their endpoints here.
        """
        n = self.num_hosts
        if not (0 <= src_host < n and 0 <= dst_host < n):
            name, host = (
                ("src_host", src_host) if not 0 <= src_host < n
                else ("dst_host", dst_host)
            )
            raise ValueError(f"{name} {host} out of range 0..{n - 1}")
        m = self.m
        src, dst = src_host // m, dst_host // m
        level = 0
        while src != dst:
            src //= m
            dst //= m
            level += 1
        return level

    def hop_count(self, src_host: int, dst_host: int) -> int:
        """Routers traversed on a minimal up*/down* path."""
        return 2 * self.lca_level(src_host, dst_host) + 1

    def route(
        self, src_host: int, dst_host: int, rng: Rng
    ) -> List[int]:
        """Oblivious source route: output port at each router on the path.

        Up ports are chosen uniformly at random (random middle-stage
        selection), one draw per level below the LCA; the descent is
        the unique deterministic path, whose port at level ``l`` is
        digit ``l`` of ``dst_host`` in base m.  Both are computed
        directly: ``tests/test_topology.py`` holds the :meth:`neighbor`
        walk this must agree with, and the simulation checks every
        ejected flit against its sink's host.
        """
        lca = self.lca_level(src_host, dst_host)
        m = self.m
        ports: List[int] = []
        for _ in range(lca):
            ports.append(m + rng.randrange(m))
        for level in range(lca, -1, -1):
            ports.append(dst_host // m ** level % m)
        return ports

    def route_avoiding(
        self,
        src_host: int,
        dst_host: int,
        rng: Rng,
        link_ok,
        max_tries: int = 16,
    ) -> Optional[List[int]]:
        """A minimal route using only links ``link_ok`` approves.

        ``link_ok(switch_id, port)`` vets each directed hop.  The
        ascent chooses uniformly among the *approved* up ports (the
        path diversity of the Clos is exactly what graceful degradation
        leans on); because the descent from a given middle switch is
        unique, a dead down-link can only be avoided by re-rolling the
        ascent — hence up to ``max_tries`` whole-path attempts.
        Returns None when no approved path was found (the caller
        decides whether to fall back to a blind route).
        """
        lca = self.lca_level(src_host, dst_host)
        m = self.m
        start = self.host_attachment(src_host).switch
        invariant(start is not None, "host attaches to no switch",
                  check="topology")
        for _ in range(max_tries):
            ports: List[int] = []
            switch = start
            ok = True
            for _ in range(lca):
                allowed = [
                    m + u for u in range(m) if link_ok(switch, m + u)
                ]
                if not allowed:
                    ok = False
                    break
                port = allowed[rng.randrange(len(allowed))]
                ports.append(port)
                switch = self.up_neighbor(switch, port).switch
            if not ok:
                continue
            for level in range(lca, -1, -1):
                port = (dst_host // (m ** level)) % m
                if not link_ok(switch, port):
                    ok = False
                    break
                ports.append(port)
                switch = self.down_neighbor(switch, port).switch
            if ok:
                return ports
        return None

    def average_hop_count(self) -> float:
        """Expected routers traversed under uniform random traffic."""
        m, n = self.m, self.num_hosts
        total = 0.0
        # P(lca == l) for a uniform random destination (including src).
        for level in range(self.levels):
            within = m ** (level + 1)
            below = m ** level
            p = (within - below) / n
            total += p * (2 * level + 1)
        # Destinations equal to the source route through 1 router.
        total += (1 / n) * 1
        return total


class Topology:
    """Protocol for network topologies consumable by the simulator.

    Any topology must expose:

    * ``num_hosts`` — number of terminal hosts;
    * ``switch_ids()`` — hashable identifiers for all switches;
    * ``ports_used(switch)`` — ports wired on a given switch;
    * ``neighbor(switch, port)`` — the :class:`PortRef` a port leads to
      (a switch port, or a host when ``switch is None``);
    * ``host_attachment(host)`` — the switch port a host injects into;
    * ``route(src_host, dst_host, rng)`` — output ports of a path.

    Optionally, ``route_avoiding(src, dst, rng, link_ok)`` returns a
    path using only links the ``link_ok(switch, port)`` predicate
    approves (or None) — the fault injector
    (:mod:`repro.faults`) uses it to reroute around dead links and
    falls back to re-rolling ``route`` when it is absent.  Likewise
    optional, ``shard_blocks(shards)`` returns the switches as one list
    per worker of a sharded run (every switch exactly once); a topology
    without it is split into contiguous blocks of ``switch_ids()``.

    :class:`FoldedClos` and :class:`~repro.network.mesh.Mesh` both
    satisfy this protocol (duck-typed; this class exists for
    documentation and isinstance-free type hints).
    """

    num_hosts: int

    def switch_ids(self):  # pragma: no cover - protocol stub
        raise NotImplementedError

    def ports_used(self, switch):  # pragma: no cover - protocol stub
        raise NotImplementedError

    def neighbor(self, switch, port):  # pragma: no cover - protocol stub
        raise NotImplementedError

    def host_attachment(self, host):  # pragma: no cover - protocol stub
        raise NotImplementedError

    def route(self, src_host, dst_host, rng):  # pragma: no cover
        raise NotImplementedError
