"""Property tests: the batched arbiter banks against their scalar twins.

The batched hot path (``config.batch_hot_path``) rests on one claim:
:class:`~repro.core.arbiter.BatchArbiterBank` behaves exactly like a
list of independent :class:`~repro.core.arbiter.RoundRobinArbiter`
instances, grant for grant and pointer for pointer, including the
deferred ``commit_rows`` protocol and the all-False-row-is-a-skipped-call
equivalence.  These tests drive both implementations through identical
random request/commit sequences and compare every observable after
every step.  The banks are numpy-only; without numpy they refuse to
construct and every other test here skips.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import arbiter
from repro.core.arbiter import (
    HAVE_NUMPY,
    BatchArbiterBank,
    BatchHierarchicalArbiterBank,
    HierarchicalArbiter,
    RoundRobinArbiter,
)

SRC = Path(__file__).resolve().parents[1] / "src"

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="batched arbiter banks require numpy"
)
np = arbiter.require_numpy() if HAVE_NUMPY else None


def _matrix(rows):
    return np.asarray(rows, dtype=bool)


def test_bank_requires_numpy(monkeypatch):
    monkeypatch.setattr(arbiter, "HAVE_NUMPY", False)
    with pytest.raises(RuntimeError, match="BatchArbiterBank requires numpy"):
        BatchArbiterBank(2, 4)
    with pytest.raises(RuntimeError, match="BatchArbiterBank requires numpy"):
        BatchHierarchicalArbiterBank(2, 8, 4)


def _child(code):
    """Run ``code`` in a fresh interpreter; its last stdout line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


class TestNumpyIsImportedOnFirstUse:
    """0.13 s of every cold start, so only the array paths pay it."""

    SCALAR_RUN = (
        "import sys, repro.cli\n"
        "from repro import (HierarchicalCrossbarRouter, RouterConfig,\n"
        "                   SweepSettings, SwitchSimulation)\n"
        "router = HierarchicalCrossbarRouter(\n"
        "    RouterConfig(radix=8, subswitch_size=4))\n"
        "SwitchSimulation(router, load=0.5).run(\n"
        "    SweepSettings(warmup=20, measure=40, drain=400))\n"
    )

    @needs_numpy
    def test_cli_import_and_a_scalar_run_leave_it_out(self):
        assert _child(
            self.SCALAR_RUN + "print('numpy' in sys.modules)"
        ) == "False"

    @needs_numpy
    def test_a_batched_router_brings_it_in(self):
        assert _child(
            "import sys\n"
            "from repro import BufferedCrossbarRouter, RouterConfig\n"
            "BufferedCrossbarRouter(RouterConfig(radix=8, batch_hot_path=True))\n"
            "print('numpy' in sys.modules)"
        ) == "True"

    def test_masked_numpy_reads_as_absent(self):
        assert _child(
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from repro.core.arbiter import HAVE_NUMPY\n"
            "print(HAVE_NUMPY)"
        ) == "False"


# One scripted episode: bank shape plus a sequence of request matrices
# interleaved with occasional commit overrides.
episodes = st.integers(1, 6).flatmap(
    lambda rows: st.integers(1, 20).flatmap(
        lambda width: st.fixed_dictionaries(
            {
                "rows": st.just(rows),
                "width": st.just(width),
                "steps": st.lists(
                    st.tuples(
                        st.lists(
                            st.lists(
                                st.booleans(),
                                min_size=width, max_size=width,
                            ),
                            min_size=rows, max_size=rows,
                        ),
                        st.booleans(),  # advance?
                        # Optional commit (row, winner) after the step.
                        st.one_of(
                            st.none(),
                            st.tuples(
                                st.integers(0, rows - 1),
                                st.integers(0, width - 1),
                            ),
                        ),
                    ),
                    min_size=1, max_size=8,
                ),
            }
        )
    )
)


@needs_numpy
class TestBatchArbiterBank:
    @settings(max_examples=120, deadline=None)
    @given(episodes)
    def test_matches_scalar_bank(self, episode):
        """Identical grants and pointers through any request/commit
        sequence."""
        rows, width = episode["rows"], episode["width"]
        bank = BatchArbiterBank(rows, width)
        scalars = [RoundRobinArbiter(width) for _ in range(rows)]
        for requests, advance, commit in episode["steps"]:
            got = bank.arbitrate_all(_matrix(requests), advance=advance)
            want = [
                s.arbitrate(row, advance=advance)
                for s, row in zip(scalars, requests)
            ]
            assert [int(w) for w in got] == [
                -1 if w is None else w for w in want
            ]
            assert bank.pointers == [s.pointer for s in scalars]
            if commit is not None:
                row, winner = commit
                bank.commit_rows(np.asarray([row]), np.asarray([winner]))
                scalars[row].commit(winner)
                assert bank.pointers == [s.pointer for s in scalars]

    @settings(max_examples=80, deadline=None)
    @given(episodes, st.data())
    def test_sparse_rows_match_skipped_scalar_calls(self, episode, data):
        """arbitrate_rows over a subset == scalar calls on that subset,
        with untouched rows keeping their pointers (skip equivalence)."""
        rows, width = episode["rows"], episode["width"]
        bank = BatchArbiterBank(rows, width)
        scalars = [RoundRobinArbiter(width) for _ in range(rows)]
        for requests, advance, _ in episode["steps"]:
            subset = sorted(
                data.draw(
                    st.sets(st.integers(0, rows - 1), min_size=0,
                            max_size=rows)
                )
            )
            if not subset:
                continue
            sub_req = [requests[r] for r in subset]
            got = bank.arbitrate_rows(
                np.asarray(subset), _matrix(sub_req),
                advance=advance,
            )
            want = [
                scalars[r].arbitrate(row, advance=advance)
                for r, row in zip(subset, sub_req)
            ]
            assert [int(w) for w in got] == [
                -1 if w is None else w for w in want
            ]
            assert bank.pointers == [s.pointer for s in scalars]

    def test_all_false_row_moves_no_pointer(self):
        bank = BatchArbiterBank(2, 4)
        out = bank.arbitrate_all(_matrix([[False] * 4] * 2))
        assert [int(w) for w in out] == [-1, -1]
        assert bank.pointers == [0, 0]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BatchArbiterBank(0, 4)
        with pytest.raises(ValueError):
            BatchArbiterBank(4, 0)
        with pytest.raises(ValueError):
            BatchArbiterBank(2, 4, sizes=[4])
        with pytest.raises(ValueError):
            BatchArbiterBank(2, 4, sizes=[4, 5])
        # Deferred rotation is commit_rows only; the scalar-style
        # single-row commit was a test-only API.
        assert not hasattr(BatchArbiterBank(2, 4), "commit")


@needs_numpy
class TestBatchHierarchicalArbiterBank:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 4),      # count
        st.integers(1, 12),     # size
        st.integers(1, 6),      # group_size
        st.data(),
    )
    def test_matches_scalar_hierarchical(self, count, size, group_size,
                                         data):
        bank = BatchHierarchicalArbiterBank(count, size, group_size)
        scalars = [
            HierarchicalArbiter(size, group_size) for _ in range(count)
        ]
        steps = data.draw(
            st.lists(
                st.lists(
                    st.lists(st.booleans(), min_size=size, max_size=size),
                    min_size=count, max_size=count,
                ),
                min_size=1, max_size=6,
            )
        )
        for requests in steps:
            got = bank.grant_all(_matrix(requests))
            want = [s.arbitrate(row) for s, row in zip(scalars, requests)]
            assert [int(w) for w in got] == [
                -1 if w is None else w for w in want
            ]
