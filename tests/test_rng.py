"""Tests for deterministic RNG stream derivation."""

import copy
import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.arbiter import HAVE_NUMPY, require_numpy
from repro.core.rng import StreamRows, derive_rng


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


def _poll(stream, rate, polls):
    """The reference search: one ``random()`` per poll."""
    for offset in range(polls):
        if stream.random() < rate:
            return offset
    return None


@pytest.mark.skipif(not HAVE_NUMPY, reason="StreamRows requires numpy")
class TestStreamRows:
    """``StreamRows.search`` against polling ``random.Random`` streams
    one double at a time: same offsets, same polls consumed, same state
    handed back to Python — wherever a hit falls in a chunk or window."""

    @staticmethod
    def _pair(seed, chunk, count=3):
        streams = [derive_rng(seed, "rows", k) for k in range(count)]
        rows = StreamRows(streams, chunk)
        assert rows.usable
        return rows, [copy.copy(stream) for stream in streams]

    @staticmethod
    def _state(rows, i):
        probe = derive_rng(0, "probe")
        rows.pull(i, probe)
        return probe.getstate()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        rate=st.sampled_from([0.004, 0.03, 0.4]),
        chunk=st.integers(min_value=1, max_value=48),
        windows=st.lists(st.integers(min_value=0, max_value=160),
                         min_size=1, max_size=9),
    )
    def test_search_equals_polling(self, seed, rate, chunk, windows):
        rows, oracles = self._pair(seed, chunk)
        for step, polls in enumerate(windows):
            i = step % len(oracles)
            oracle = oracles[i]
            hit = rows.search(i, rate, polls)
            assert hit == _poll(oracle, rate, polls)
            assert self._state(rows, i) == oracle.getstate()
            if hit is not None:
                # The arrival's hand-over: Python draws, the row resumes.
                stream = derive_rng(0, "scratch")
                rows.pull(i, stream)
                assert stream.randrange(1024) == oracle.randrange(1024)
                rows.push(i, stream)
        for i, oracle in enumerate(oracles):
            rows.skip(i, 2 * chunk + 1)
            _poll(oracle, -1.0, 2 * chunk + 1)
            assert self._state(rows, i) == oracle.getstate()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        rate=st.sampled_from([0.004, 0.03]),
    )
    def test_hits_on_chunk_and_window_edges(self, seed, rate):
        first = _poll(derive_rng(seed, "rows", 0), rate, 10**6)
        assume(first >= 2)
        cases = [
            (first + 1, [10**6]),          # the last poll of a chunk
            (first, [10**6]),              # the first poll of the next
            (first - 1, [10**6]),          # ... and the second
            (8192, [first + 1, 10**6]),    # at limit - 1
            (8192, [first, 1, 10**6]),     # the first poll of the next window
            (first, [first, first, 10**6]),  # chunk edge on window edge
        ]
        for chunk, windows in cases:
            rows, (oracle, *_) = self._pair(seed, chunk, count=1)
            for polls in windows:
                assert rows.search(0, rate, polls) == _poll(oracle, rate, polls)
                assert self._state(rows, 0) == oracle.getstate()

    def test_refuses_to_be_copied_or_pickled(self):
        """A copied view would stop aliasing its generator: snapshots
        must rebuild the rows, and a stray deepcopy must not pass."""
        rows, _ = self._pair(1, 64)
        with pytest.raises(TypeError, match="derived state"):
            copy.deepcopy(rows)
        with pytest.raises(TypeError, match="derived state"):
            pickle.dumps(rows)

    def test_self_check_refuses_a_wrong_layout(self, monkeypatch):
        """``usable`` is the construction-time verdict on numpy's state
        struct: a view that does not read back what the generator
        reports must turn the bulk path off, not corrupt streams."""
        np = require_numpy()
        real = np.ctypeslib.as_array

        def shifted(buffer):
            return real(buffer)[::-1]  # key words where the position is

        monkeypatch.setattr(np.ctypeslib, "as_array", shifted)
        assert not StreamRows([derive_rng(1, "x")], 64).usable
