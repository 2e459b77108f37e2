"""Tests for the folded-Clos topology builder."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.topology import FoldedClos


def walk_route(t, src_host, dst_host, rng):
    """Route oracle: the switch-by-switch walk ``FoldedClos.route`` must
    agree with, port for port and draw for draw.

    Climbs from the source's leaf through a random up port per level
    below the lowest common ancestor, then descends through the down
    port toward ``dst_host`` at each level, reading every hop's switch
    off ``up_neighbor``/``down_neighbor``.  Returns the ports and checks
    that the walk ends at ``dst_host``.
    """
    m = t.m
    lca = next(
        level for level in range(t.levels)
        if src_host // m ** (level + 1) == dst_host // m ** (level + 1)
    )
    switch = t.host_attachment(src_host).switch
    ports = []
    for _ in range(lca):
        port = m + rng.randrange(m)
        ports.append(port)
        switch = t.up_neighbor(switch, port).switch
        assert switch is not None
    end = None
    for level in range(lca, -1, -1):
        port = (dst_host // m ** level) % m
        ports.append(port)
        end = t.down_neighbor(switch, port)
        switch = end.switch
    assert end.switch is None and end.host == dst_host
    return ports


class TestConstruction:
    def test_host_and_switch_counts(self):
        t = FoldedClos(radix=16, levels=2)
        assert t.m == 8
        assert t.num_hosts == 64
        assert t.switches_per_level == 8
        assert t.num_switches == 16

    def test_unfolded_stage_count(self):
        """The paper's terminology: 3 stages for two levels, 5 for three."""
        assert FoldedClos(64, 2).stages_unfolded == 3
        assert FoldedClos(16, 3).stages_unfolded == 5

    def test_top_level_uses_half_ports(self):
        t = FoldedClos(8, 2)
        assert t.ports_used((1, 0, 0)) == 4
        assert t.ports_used((0, 0, 0)) == 8

    def test_invalid_radix(self):
        with pytest.raises(ValueError):
            FoldedClos(7, 2)
        with pytest.raises(ValueError):
            FoldedClos(2, 2)

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            FoldedClos(8, 0)

    def test_switch_ids_enumeration(self):
        t = FoldedClos(8, 2)
        ids = t.switch_ids()
        assert len(ids) == t.num_switches
        assert len(set(ids)) == len(ids)


class TestWiring:
    @pytest.mark.parametrize("radix,levels", [(4, 2), (8, 2), (8, 3), (16, 2)])
    def test_up_down_reciprocity(self, radix, levels):
        """Following an up link and then the corresponding down link
        must return to the origin."""
        t = FoldedClos(radix, levels)
        for sid in t.switch_ids():
            if sid[0] == levels - 1:
                continue
            for up in range(t.m, 2 * t.m):
                ref = t.up_neighbor(sid, up)
                assert ref.switch is not None
                back = t.down_neighbor(ref.switch, ref.port)
                assert back.switch == sid
                assert back.port == up

    def test_leaf_down_ports_reach_hosts(self):
        t = FoldedClos(8, 2)
        hosts = set()
        for sub in range(t.switches_per_level):
            for port in range(t.m):
                ref = t.down_neighbor((0, sub, 0), port)
                assert ref.switch is None
                hosts.add(ref.host)
        assert hosts == set(range(t.num_hosts))

    def test_host_attachment_inverse(self):
        t = FoldedClos(8, 3)
        for host in range(t.num_hosts):
            ref = t.host_attachment(host)
            back = t.down_neighbor(ref.switch, ref.port)
            assert back.host == host

    def test_top_has_no_up_ports(self):
        t = FoldedClos(8, 2)
        with pytest.raises(ValueError):
            t.up_neighbor((1, 0, 0), t.m)

    def test_port_range_checks(self):
        t = FoldedClos(8, 2)
        with pytest.raises(ValueError):
            t.down_neighbor((0, 0, 0), t.m)
        with pytest.raises(ValueError):
            t.up_neighbor((0, 0, 0), 0)

    def test_host_range_check(self):
        t = FoldedClos(8, 2)
        with pytest.raises(ValueError):
            t.host_attachment(t.num_hosts)

    @pytest.mark.parametrize("side", ["src_host", "dst_host"])
    def test_routing_names_an_out_of_range_host(self, side):
        t = FoldedClos(8, 2)
        for bad in (-1, t.num_hosts):
            hosts = (bad, 5) if side == "src_host" else (5, bad)
            calls = (
                lambda: t.lca_level(*hosts),
                lambda: t.hop_count(*hosts),
                lambda: t.route(*hosts, random.Random(0)),
                lambda: t.route_avoiding(
                    *hosts, random.Random(0), lambda sw, p: True),
            )
            for call in calls:
                with pytest.raises(ValueError,
                                   match=rf"^{side} {bad} out of range"):
                    call()


class TestRouting:
    @staticmethod
    def _assert_matches_walk(t, pairs, seed):
        ours, oracle = random.Random(seed), random.Random(seed)
        for s, d in pairs:
            assert t.route(s, d, ours) == walk_route(t, s, d, oracle), (s, d)
            # Same draws on the same stream: the two generators agree.
            assert ours.getstate() == oracle.getstate(), (s, d)

    @pytest.mark.parametrize("radix,levels", [(4, 2), (8, 2), (8, 3), (4, 4)])
    def test_route_matches_walk_on_every_pair(self, radix, levels):
        t = FoldedClos(radix, levels)
        n = t.num_hosts
        pairs = [(s, d) for s in range(n) for d in range(n)]
        self._assert_matches_walk(t, pairs, seed=radix * levels)

    @pytest.mark.parametrize("radix,levels", [(16, 2), (16, 3), (64, 2)])
    def test_route_matches_walk_on_sampled_pairs(self, radix, levels):
        t = FoldedClos(radix, levels)
        pick = random.Random(radix + levels)
        pairs = [
            (pick.randrange(t.num_hosts), pick.randrange(t.num_hosts))
            for _ in range(2000)
        ]
        self._assert_matches_walk(t, pairs, seed=radix * levels)

    @pytest.mark.parametrize("radix,levels", [(4, 2), (8, 2), (8, 3), (4, 4)])
    def test_routes_deliver(self, radix, levels):
        t = FoldedClos(radix, levels)
        rng = random.Random(0)
        for _ in range(300):
            s = rng.randrange(t.num_hosts)
            d = rng.randrange(t.num_hosts)
            ports = t.route(s, d, rng)
            switch = t.host_attachment(s).switch
            for i, p in enumerate(ports):
                ref = t.neighbor(switch, p)
                if i == len(ports) - 1:
                    assert ref.switch is None and ref.host == d
                else:
                    switch = ref.switch

    def test_route_length_matches_hop_count(self):
        t = FoldedClos(8, 3)
        rng = random.Random(1)
        for _ in range(200):
            s = rng.randrange(t.num_hosts)
            d = rng.randrange(t.num_hosts)
            assert len(t.route(s, d, rng)) == t.hop_count(s, d)

    def test_same_leaf_single_hop(self):
        t = FoldedClos(8, 2)
        rng = random.Random(0)
        assert t.hop_count(0, 1) == 1
        assert len(t.route(0, 1, rng)) == 1

    def test_cross_network_max_hops(self):
        t = FoldedClos(8, 3)
        assert t.hop_count(0, t.num_hosts - 1) == 2 * (t.levels - 1) + 1

    def test_high_radix_fewer_hops(self):
        """The point of Figure 19: same host count, fewer hops."""
        high = FoldedClos(16, 2)  # 64 hosts, 3 stages
        low = FoldedClos(8, 3)  # 64 hosts, 5 stages
        assert high.num_hosts == low.num_hosts == 64
        assert high.average_hop_count() < low.average_hop_count()

    def test_oblivious_ascent_randomizes_middle(self):
        """Different random draws must use different up ports."""
        t = FoldedClos(8, 2)
        rng = random.Random(2)
        s, d = 0, t.num_hosts - 1
        first_ports = {tuple(t.route(s, d, rng))[0] for _ in range(100)}
        assert len(first_ports) > 1

    def test_average_hop_count_bounds(self):
        t = FoldedClos(8, 2)
        avg = t.average_hop_count()
        assert 1.0 <= avg <= 3.0

    @settings(max_examples=30)
    @given(st.integers(0, 2**31 - 1))
    def test_random_routes_always_deliver(self, seed):
        t = FoldedClos(8, 3)
        rng = random.Random(seed)
        s = rng.randrange(t.num_hosts)
        d = rng.randrange(t.num_hosts)
        ports = t.route(s, d, rng)
        switch = t.host_attachment(s).switch
        for i, p in enumerate(ports):
            ref = t.neighbor(switch, p)
            switch = ref.switch
        assert switch is None
