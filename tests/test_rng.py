"""Tests for deterministic RNG stream derivation."""

from repro.core.rng import derive_rng


class TestDeriveRng:
    def test_same_name_same_stream(self):
        a = derive_rng(1, "traffic", 3)
        b = derive_rng(1, "traffic", 3)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_differ(self):
        a = derive_rng(1, "traffic", 3)
        b = derive_rng(1, "traffic", 4)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        a = derive_rng(1, "x")
        b = derive_rng(2, "x")
        assert a.random() != b.random()

    def test_known_value_stable_across_processes(self):
        """The derivation must not depend on Python's salted hash()."""
        a = derive_rng(42, "component")
        b = derive_rng(42, "component")
        assert a.getrandbits(64) == b.getrandbits(64)

    def test_numeric_and_string_names_distinct(self):
        # "1" and 1 stringify identically by design; different
        # positions do not.
        a = derive_rng(0, "a", "b")
        b = derive_rng(0, "ab")
        assert a.random() != b.random()

