"""Every oracle lane of ``tests/differential.py`` on every stack.

Each lane draws small runs of one stack (the six switch organizations
and the Clos) and requires the lane to leave every observation
byte-identical: the shortcuts the simulator takes (fast-forward,
sleeping and parked components, occupancy indices, evaluation order,
probe counts, mid-run checkpoints) may change wall time, never a run.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tests.differential import LANES, STACKS, compare, runs

DRAWS = settings(max_examples=3, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("lane", sorted(LANES))
@DRAWS
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_lane(lane, stack, data, seed):
    compare(lane, data.draw(runs(stack)), seed)


@pytest.mark.parametrize("stack", STACKS)
@DRAWS
@given(data=st.data())
def test_checkpoint(tmp_path, stack, data):
    compare("checkpoint", data.draw(runs(stack)), path=tmp_path / "cut.ckpt")
