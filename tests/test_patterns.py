"""Tests for the traffic patterns of Table 1."""

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.traffic.patterns import (
    BitComplement,
    Diagonal,
    Hotspot,
    Permutation,
    Transpose,
    UniformRandom,
    WorstCaseHierarchical,
)


class TestUniformRandom:
    def test_destinations_cover_all_outputs(self):
        pat = UniformRandom(8)
        rng = random.Random(0)
        seen = {pat.dest(0, rng) for _ in range(500)}
        assert seen == set(range(8))

    def test_roughly_uniform(self):
        pat = UniformRandom(4)
        rng = random.Random(1)
        counts = Counter(pat.dest(2, rng) for _ in range(4000))
        for c in counts.values():
            assert 800 < c < 1200

    @given(st.integers(2, 64), st.integers(0, 63), st.integers(0, 2**31))
    def test_dest_in_range(self, k, src, seed):
        pat = UniformRandom(k)
        d = pat.dest(src % k, random.Random(seed))
        assert 0 <= d < k


class TestDiagonal:
    def test_only_two_destinations(self):
        """Table 1: input i sends only to i and (i+1) mod k."""
        pat = Diagonal(16)
        rng = random.Random(0)
        for src in range(16):
            dests = {pat.dest(src, rng) for _ in range(100)}
            assert dests <= {src, (src + 1) % 16}

    def test_wraparound(self):
        pat = Diagonal(8, fraction_same=0.0)
        rng = random.Random(0)
        assert pat.dest(7, rng) == 0

    def test_fraction_extremes(self):
        rng = random.Random(0)
        all_same = Diagonal(8, fraction_same=1.0)
        assert all(all_same.dest(3, rng) == 3 for _ in range(50))
        all_next = Diagonal(8, fraction_same=0.0)
        assert all(all_next.dest(3, rng) == 4 for _ in range(50))

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            Diagonal(8, fraction_same=1.5)


class TestHotspot:
    def test_default_hotspots_are_first_h_outputs(self):
        pat = Hotspot(64, num_hotspots=8)
        assert pat.hotspots == list(range(8))

    def test_hot_fraction_statistics(self):
        """Table 1: 50% of traffic goes to the h hot outputs (plus the
        hot outputs' share of the uniform half)."""
        pat = Hotspot(64, num_hotspots=8, hot_fraction=0.5)
        rng = random.Random(2)
        n = 20000
        hot_hits = sum(1 for _ in range(n) if pat.dest(0, rng) < 8)
        expected = 0.5 + 0.5 * (8 / 64)
        assert abs(hot_hits / n - expected) < 0.02

    def test_explicit_hotspots(self):
        pat = Hotspot(16, hotspots=[3, 9], hot_fraction=1.0)
        rng = random.Random(0)
        assert {pat.dest(0, rng) for _ in range(100)} == {3, 9}

    def test_invalid_hotspot_index(self):
        with pytest.raises(ValueError):
            Hotspot(8, hotspots=[8])

    def test_empty_hotspots(self):
        with pytest.raises(ValueError):
            Hotspot(8, hotspots=[])

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            Hotspot(8, num_hotspots=0)


class TestWorstCaseHierarchical:
    def test_row_targets_own_column(self):
        """All of row r's traffic lands in column r's outputs."""
        pat = WorstCaseHierarchical(32, subswitch_size=8)
        rng = random.Random(0)
        for src in range(32):
            row = src // 8
            for _ in range(20):
                d = pat.dest(src, rng)
                assert d // 8 == row

    def test_concentrates_into_diagonal_subswitches(self):
        """Only k/p of the (k/p)^2 subswitches receive traffic."""
        k, p = 16, 4
        pat = WorstCaseHierarchical(k, p)
        rng = random.Random(1)
        used = set()
        for src in range(k):
            for _ in range(50):
                d = pat.dest(src, rng)
                used.add((src // p, d // p))
        assert used == {(r, r) for r in range(k // p)}

    def test_uniform_within_column(self):
        pat = WorstCaseHierarchical(16, 4)
        rng = random.Random(3)
        counts = Counter(pat.dest(0, rng) for _ in range(4000))
        assert set(counts) == {0, 1, 2, 3}
        for c in counts.values():
            assert 800 < c < 1200

    def test_p_must_divide_k(self):
        with pytest.raises(ValueError):
            WorstCaseHierarchical(10, 4)


class TestExtensions:
    def test_transpose(self):
        pat = Transpose(16)
        rng = random.Random(0)
        assert pat.dest(1, rng) == 4  # (0,1) -> (1,0)
        assert pat.dest(7, rng) == 13  # (1,3) -> (3,1)

    def test_transpose_requires_square(self):
        with pytest.raises(ValueError):
            Transpose(12)

    def test_transpose_is_involution(self):
        pat = Transpose(16)
        rng = random.Random(0)
        for src in range(16):
            assert pat.dest(pat.dest(src, rng), rng) == src

    def test_bit_complement(self):
        pat = BitComplement(8)
        rng = random.Random(0)
        assert pat.dest(0, rng) == 7
        assert pat.dest(5, rng) == 2

    def test_bit_complement_requires_power_of_two(self):
        with pytest.raises(ValueError):
            BitComplement(12)

    def test_permutation(self):
        pat = Permutation([2, 0, 1])
        rng = random.Random(0)
        assert [pat.dest(i, rng) for i in range(3)] == [2, 0, 1]

    def test_permutation_validation(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])

    def test_min_ports(self):
        with pytest.raises(ValueError):
            UniformRandom(1)
