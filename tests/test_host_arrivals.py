"""``HostArrivals`` on its own: polling and pre-drawing are one process.

The network-level tests (``test_event_scheduler.TestArrivalPreDraw``,
``test_checkpoint``, ``test_sanitizer``) pin the class through
``NetworkSimulation``; these drive it directly, with a stand-in for the
consumer's destination draw (one ``random()`` on the yielded host's
stream), over window schedules no staged run produces.
"""

import copy
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.network.arrivals as arrivals
from repro.core.errors import InvariantViolation
from repro.core.rng import StreamRows
from repro.network.arrivals import HostArrivals

needs_numpy = pytest.mark.skipif(
    not arrivals.HAVE_NUMPY, reason="numpy unavailable; there are no state rows"
)


def _build(seed, hosts, rate, bulk, chunk=16):
    """A pre-drawing instance on the bulk path or the scalar loop."""
    with mock.patch.multiple(
        arrivals, HAVE_NUMPY=bulk, BULK_MAX_RATE=2.0, DRAW_CHUNK=chunk
    ):
        built = HostArrivals(seed, hosts, rate, predraw=True)
    assert built.bulk == bulk
    return built


def _polled(seed, hosts, rate, end):
    polling = HostArrivals(seed, hosts, rate, predraw=False)
    generated = []
    for now in range(end):
        for host in polling.poll(now):
            polling.streams[host].random()
            generated.append((now, host))
    return generated, [stream.getstate() for stream in polling.streams]


def _drain(predrawn, before):
    """Generate every queued arrival earlier than cycle ``before``."""
    generated = []
    while predrawn.next_due() is not None and predrawn.next_due() < before:
        now = predrawn.next_due()
        for host in predrawn.due(now):
            predrawn.streams[host].random()
            generated.append((now, host))
    return generated


def _states_at_cursor(predrawn):
    """Every stream's state once brought level with its cursor (with
    rows it waits at the host's last sync)."""
    book = predrawn.snapshot()["arrivals"]
    states = []
    for host, stream in enumerate(predrawn.streams):
        stream = copy.copy(stream)
        for _ in range(book["cursor"][host] - book["sync_cursor"][host]):
            stream.random()
        states.append(stream.getstate())
    return book, states


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    hosts=st.integers(min_value=1, max_value=8),
    rate=st.sampled_from([0.002, 0.03, 0.3, 1.0]),
    steps=st.lists(st.integers(min_value=1, max_value=90), min_size=1,
                   max_size=5),
    bulk=st.booleans(),
)
def test_poll_and_predraw_are_one_process(seed, hosts, rate, steps, bulk):
    """Same (cycle, host) sequence, every stream left in the same
    state, whatever the window schedule — including windows a chunk
    does not divide and windows with no arrival at all."""
    if bulk and not arrivals.HAVE_NUMPY:
        bulk = False
    windows = [sum(steps[:i + 1]) for i in range(len(steps))]
    expect, expect_states = _polled(seed, hosts, rate, windows[-1])
    predrawn = _build(seed, hosts, rate, bulk)
    generated = []
    for end in windows:
        predrawn.extend(end)
        assert predrawn.next_due() is None or predrawn.next_due() < end
        generated += _drain(predrawn, end)
    assert generated == expect
    book, states = _states_at_cursor(predrawn)
    assert book["cursor"] == [windows[-1]] * hosts
    assert book["heap"] == [] and book["draw_limit"] == windows[-1]
    assert book["undrawn"] == list(range(hosts))
    assert states == expect_states


@needs_numpy
@pytest.mark.parametrize("written_with_rows", [True, False])
def test_restore_across_rows_mid_window(written_with_rows):
    """A capture taken between arrivals, inside a window, means the
    same with and without state rows: restored onto the other kind it
    continues exactly as the polled process does."""
    seed, hosts, rate = 9, 6, 0.01
    expect, expect_states = _polled(seed, hosts, rate, 900)
    writer = _build(seed, hosts, rate, written_with_rows)
    writer.extend(600)
    generated = _drain(writer, 250)
    captured = writer.snapshot()
    book = captured["arrivals"]
    assert book["heap"] and book["draw_limit"] == 600
    ahead = [c - s for c, s in zip(book["cursor"], book["sync_cursor"])]
    assert (max(ahead) > 0) == written_with_rows

    reader = _build(seed + 1, hosts, rate, not written_with_rows)
    reader.restore(captured)
    assert reader.snapshot()["arrivals"]["heap"] == book["heap"]
    for end in (600, 900):
        reader.extend(end)
        generated += _drain(reader, end)
    assert generated == expect
    assert _states_at_cursor(reader)[1] == expect_states


@needs_numpy
def test_audit_reports_one_flipped_row_word(monkeypatch):
    """The sync invariant — row = Python stream + the polls since —
    audited, at the clock a cycle ends on, for the hosts that
    generated in it."""
    predrawn = _build(3, 4, 0.01, True)
    predrawn.extend(4000)
    for _ in range(5):
        now = predrawn.next_due()
        _drain(predrawn, now + 1)
        predrawn.audit(now + 1)
    real_push = StreamRows.push
    flipped = []

    def push(rows, host, stream):
        real_push(rows, host, stream)
        if not flipped:
            rows.rows[host, 17] ^= 1
            flipped.append(host)

    monkeypatch.setattr(StreamRows, "push", push)
    now = predrawn.next_due()
    _drain(predrawn, now + 1)
    with pytest.raises(InvariantViolation) as exc:
        predrawn.audit(now + 1)
    assert exc.value.check == "arrival-stream"
    assert exc.value.cycle == now + 1
    assert exc.value.context["host"] == flipped[0]
