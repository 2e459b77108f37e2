"""``ArrivalQueue`` on its own: popped every cycle or jumped to, one
process.

The simulation-level tests (``test_event_scheduler``,
``test_checkpoint``, ``test_sanitizer``) pin the queue through both
stacks; these drive it directly, with a stand-in for the consumer's
destination draw (one ``random()`` on the yielded index's stream),
over jump schedules no staged run produces.
"""

import copy
import heapq
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import InvariantViolation
from repro.core.rng import derive_rng
from repro.traffic.arrivals import ArrivalQueue
from repro.traffic.injection import Bernoulli, MarkovOnOff


def _queue(seed, hosts, make):
    return ArrivalQueue(
        [derive_rng(seed, "net", host) for host in range(hosts)],
        [make() for _ in range(hosts)],
    )


def _polled(queue, end):
    """Pop ``queue`` on every cycle below ``end``, as the cycle stepper
    does."""
    generated = []
    for now in range(end):
        for host in queue.due(now):
            queue.streams[host].random()
            generated.append((now, host))
    return generated


def _jumped(queue, before):
    """Pop ``queue`` only on the cycles it reports due, as event mode
    does, up to (not including) ``before``."""
    generated = []
    while queue.next_due() is not None and queue.next_due() < before:
        now = queue.next_due()
        for host in queue.due(now):
            queue.streams[host].random()
            generated.append((now, host))
    return generated


PROCESSES = {
    "bernoulli-0.002": lambda: Bernoulli(0.002),
    "bernoulli-0.3": lambda: Bernoulli(0.3),
    "bernoulli-1": lambda: Bernoulli(1.0),
    "bernoulli-0": lambda: Bernoulli(0.0),
    "onoff": lambda: MarkovOnOff(0.2, peak_rate=0.5, avg_burst=4.0),
}


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    hosts=st.integers(min_value=1, max_value=8),
    process=st.sampled_from(sorted(PROCESSES)),
    steps=st.lists(st.integers(min_value=1, max_value=90), min_size=1,
                   max_size=5),
)
def test_poll_and_predraw_are_one_process(seed, hosts, process, steps):
    """Same (cycle, host) sequence in ascending host order per cycle,
    every stream and process left in the same state, whatever the
    jump schedule — including spans with no arrival at all."""
    make = PROCESSES[process]
    windows = [sum(steps[:i + 1]) for i in range(len(steps))]
    polled = _queue(seed, hosts, make)
    expect = _polled(polled, windows[-1])
    jumped = _queue(seed, hosts, make)
    generated = []
    for end in windows:
        generated += _jumped(jumped, end)
        assert jumped.next_due() is None or jumped.next_due() >= end
        jumped.audit(end)
    assert generated == expect
    assert generated == sorted(generated)
    assert jumped.queued() == polled.queued()
    assert ([s.getstate() for s in jumped.streams]
            == [s.getstate() for s in polled.streams])
    assert ([vars(p) for p in jumped.processes]
            == [vars(p) for p in polled.processes])


@pytest.mark.parametrize("make", [
    PROCESSES["bernoulli-0.002"],
    lambda: MarkovOnOff(0.002, peak_rate=0.5, avg_burst=4.0),
], ids=["bernoulli", "onoff"])
def test_restore_mid_gap(make):
    """A pickle taken between arrivals continues exactly as the
    uninterrupted queue does (for ON/OFF, each process's state goes
    with it)."""
    expect = _polled(_queue(9, 6, make), 3000)
    writer = _queue(9, 6, make)
    generated = _jumped(writer, 1250)
    assert generated and writer.next_due() > 1250
    reader = pickle.loads(pickle.dumps(writer))
    assert reader.queued() == writer.queued()
    generated += _jumped(reader, 3000)
    assert generated == expect


def test_stop_drops_every_arrival():
    queue = _queue(3, 4, PROCESSES["bernoulli-0.3"])
    _jumped(queue, 50)
    queue.stop()
    assert queue.next_due() is None and list(queue.due(10**6)) == []
    queue.audit(10**6)  # a stopped queue is a consistent one


def _unfile(queue, cycle, index):
    """Take ``index``'s arrival at ``cycle`` out of the queue, as a
    lost entry would be (no bucket or heap cycle left behind)."""
    bucket = queue._at[cycle]
    bucket.remove(index)
    if not bucket:
        del queue._at[cycle]
        queue._cycles.remove(cycle)
        heapq.heapify(queue._cycles)


@pytest.mark.parametrize("fault", ["lost", "duplicated", "overdue",
                                   "unexpected"])
def test_audit_reports_a_broken_queue(fault):
    """One queued arrival per index whose process can fire, none for
    the others, and none before the clock: each break is reported at
    the clock it is audited on, with the index it happened to."""
    queue = _queue(3, 4, PROCESSES["bernoulli-0.3"])
    queue.processes[3] = Bernoulli(0.0)
    _unfile(queue, *next(entry for entry in queue.queued() if entry[1] == 3))
    _jumped(queue, 40)
    queue.audit(40)
    broken = copy.deepcopy(queue)
    cycle, index = broken.queued()[0]
    if fault == "lost":
        _unfile(broken, cycle, index)
    elif fault == "duplicated":
        broken._file(cycle + 5, index)
    elif fault == "overdue":
        _unfile(broken, cycle, index)
        broken._file(39, index)
    else:
        broken._file(45, 3)
        index = 3
    with pytest.raises(InvariantViolation) as exc:
        broken.audit(40)
    assert exc.value.check == "arrival-queue"
    assert exc.value.cycle == 40
    assert exc.value.context["index"] == index


def test_audit_reports_a_cycle_heap_out_of_step():
    queue = _queue(3, 4, PROCESSES["bernoulli-0.3"])
    _jumped(queue, 40)
    queue._cycles.append(10**6)
    with pytest.raises(InvariantViolation) as exc:
        queue.audit(40)
    assert exc.value.check == "arrival-queue"
    assert 10**6 in exc.value.context["cycles"]
