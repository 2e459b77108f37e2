"""Dependency-driven workloads: DAG semantics, families, equivalence.

The workload layer replaces the open-loop injection process with a
message DAG, and it must obey the same contract as everything else in
the repo: byte-identical results whether the scheduler jumps idle
spans or steps every cycle, for every family (request/reply,
collectives, trace replay), with tracing and fault plans composed in.
The family snapshots below are the workload layer's own jump-vs-
``never_jump`` differentials (``tests/exhaustive.py``); every other
test runs the jumping clock only.
These tests pin the DAG semantics (eligibility, delivery-releases,
think time), the collective shapes (send/receive counts, acyclicity —
property-tested), the replay parsers (CSV and Chrome round-trip), and
a scheduled dead link measurably stretching an all-reduce.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import RouterConfig
from repro.faults import FaultPlan, sample_link_faults
from repro.harness.experiment import SwitchSimulation
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.network.topology import FoldedClos
from repro.routers.baseline import BaselineRouter
from repro.workloads.base import _percentile
from repro.workloads import (
    WorkloadBuilder,
    all_reduce,
    all_to_all,
    broadcast,
    from_chrome_trace,
    from_csv,
    load_trace,
    parse_chrome_rows,
    parse_csv_rows,
    request_reply,
    transformer_decode,
)
from tests.exhaustive import engine_free, never_jump, row

REPLAY_CSV = [
    "cycle,src,dest,size,flow",
    "# two pipelined flows plus unlabeled fillers",
    "0,0,5,2,w.a",
    "0,3,6,1,w.b",
    "2,1,4,3,",
    "7,2,0,2,w.a",
    "9,6,1,1",
    "12,5,3,2,w.b",
]

REPLAY_CSV_SMALL = [
    "cycle,src,dest,size,flow",
    "0,0,2,2,s.a",
    "1,1,3,1,",
    "4,3,0,2,s.a",
    "6,2,1,1,s.b",
]


def _config(seed: int = 7) -> RouterConfig:
    return RouterConfig(radix=8, num_vcs=2, subswitch_size=4,
                        local_group_size=4, seed=seed)


def _snap(result) -> dict:
    return {**row(result), **engine_free(result.extra)}


def _per_rank(wl, end: str) -> list:
    """Messages per rank, counted at each message's ``end`` ("src" or
    "dest")."""
    counts = [0] * wl.num_ranks
    for node in wl._nodes:
        counts[getattr(node, end)] += 1
    return counts


def _with_jump(sim, jump: bool):
    """``sim`` as built (it jumps idle spans), or under ``never_jump``."""
    return sim if jump else never_jump(sim)


def _switch_snapshot(factory, jump: bool = True, seed: int = 7) -> dict:
    sim = _with_jump(SwitchSimulation(
        BaselineRouter(_config(seed)), workload=factory(),
    ), jump)
    return _snap(sim.run_workload(max_cycles=50_000))


def _network_snapshot(factory, jump: bool = True, radix: int = 4,
                      seed: int = 7, faults=None) -> dict:
    cfg = NetworkConfig(radix=radix, levels=2, num_vcs=2, packet_size=2,
                        seed=seed)
    sim = _with_jump(
        NetworkSimulation(cfg, workload=factory(), faults=faults), jump)
    return _snap(sim.run_workload(max_cycles=100_000))


class TestBuilderValidation:
    def test_rejects_tiny_rank_count(self):
        with pytest.raises(ValueError, match="num_ranks"):
            WorkloadBuilder(1)

    def test_rejects_out_of_range_endpoints(self):
        b = WorkloadBuilder(4)
        with pytest.raises(ValueError, match="src"):
            b.add(src=4, dest=0)
        with pytest.raises(ValueError, match="dest"):
            b.add(src=0, dest=-1)

    def test_rejects_self_send(self):
        with pytest.raises(ValueError, match="src == dest"):
            WorkloadBuilder(4).add(src=2, dest=2)

    def test_rejects_forward_dependency(self):
        b = WorkloadBuilder(4)
        b.add(src=0, dest=1)
        with pytest.raises(ValueError, match="earlier node"):
            b.add(src=1, dest=2, deps=(5,))

    def test_rejects_absolute_release_with_deps(self):
        b = WorkloadBuilder(4)
        first = b.add(src=0, dest=1)
        with pytest.raises(ValueError, match="requires no deps"):
            b.add(src=1, dest=2, deps=(first,), at=9)

    def test_rejects_bad_scalars(self):
        b = WorkloadBuilder(4)
        with pytest.raises(ValueError, match="size"):
            b.add(src=0, dest=1, size=0)
        with pytest.raises(ValueError, match="delay"):
            b.add(src=0, dest=1, delay=-1)
        with pytest.raises(ValueError, match="at"):
            b.add(src=0, dest=1, at=-3)

    def test_rejects_empty_build(self):
        with pytest.raises(ValueError, match="no messages"):
            WorkloadBuilder(4).build()


class TestDagSemantics:
    def _triangle(self):
        b = WorkloadBuilder(3)
        a = b.add(src=0, dest=1, size=2)
        c = b.add(src=1, dest=2, deps=(a,), delay=4)
        d = b.add(src=2, dest=0, at=9)
        return b.build(), (a, c, d)

    def test_probes_report_release_cycles(self):
        wl, _ = self._triangle()
        assert wl.eligible(0, 0) == 0
        assert wl.eligible(1, 0) is None  # gated on node a's delivery
        assert wl.eligible(2, 0) == 9  # pinned absolute release
        assert wl.eligible(2, 12) == 12  # never in the past
        assert wl.next_ready(0) == 0
        assert wl.ready_ranks(0) == [0]
        assert wl.ready_ranks(9) == [0, 2]
        assert not wl.done() and wl.remaining == 3 and wl.messages == 3

    def test_probes_are_pure(self):
        wl, _ = self._triangle()
        before = (wl.eligible(0, 0), wl.next_ready(0), wl.ready_ranks(9))
        for _ in range(5):
            wl.eligible(0, 0), wl.next_ready(0), wl.ready_ranks(9)
        assert (wl.eligible(0, 0), wl.next_ready(0),
                wl.ready_ranks(9)) == before

    def test_delivery_releases_successors_after_delay(self):
        wl, (a, c, d) = self._triangle()
        msg = wl.next_message(0, 3)
        assert (msg.node, msg.src, msg.dest, msg.size) == (a, 0, 1, 2)
        assert wl.next_message(0, 3) is None  # heap drained
        wl.sent(a, 42, 3)
        assert wl.deliver(999, 4) is False  # foreign packet id
        assert wl.deliver(42, 7) is True
        assert wl.eligible(1, 7) == 11  # delay=4 after delivery
        assert wl.next_message(1, 10) is None  # still thinking
        follow = wl.next_message(1, 11)
        assert follow.node == c
        assert wl.remaining == 2 and not wl.done()

    def test_latency_and_makespan_accounting(self):
        wl, (a, c, d) = self._triangle()
        wl.next_message(0, 0)
        wl.sent(a, 1, 0)
        wl.deliver(1, 6)
        wl.next_message(1, 10)
        wl.sent(c, 2, 10)
        wl.deliver(2, 13)
        wl.next_message(2, 9)
        wl.sent(d, 3, 9)
        wl.deliver(3, 20)
        assert wl.done() and wl.remaining == 0
        assert sorted(wl.message_latencies()) == [3, 6, 11]
        assert wl.makespan() == 20
        stats = wl.stats()
        assert stats["workload.messages"] == 3
        assert stats["workload.flits"] == 4
        assert stats["workload.delivered"] == 3
        assert stats["workload.makespan"] == 20
        assert stats["workload.msg_max"] == 11


def _flow_latencies(nodes) -> dict:
    """Per-flow first-send to last-delivery span (completed flows)."""
    first, last, complete = {}, {}, {}
    for n in nodes:
        if not n.flow:
            continue
        if n.delivered_at < 0:
            complete[n.flow] = False
            continue
        complete.setdefault(n.flow, True)
        prev = first.get(n.flow)
        first[n.flow] = n.sent_at if prev is None else min(prev, n.sent_at)
        last[n.flow] = max(last.get(n.flow, -1), n.delivered_at)
    return {f: last[f] - first[f] for f in sorted(first) if complete.get(f)}


def _phase_spans(nodes) -> dict:
    """Per-phase (first send, last delivery), completed phases only."""
    spans, complete = {}, {}
    for n in nodes:
        if not n.phase:
            continue
        entry = spans.setdefault(n.phase, [2 ** 62, -1])
        if n.sent_at >= 0:
            entry[0] = min(entry[0], n.sent_at)
        entry[1] = max(entry[1], n.delivered_at)
        if n.delivered_at < 0:
            complete[n.phase] = False
        else:
            complete.setdefault(n.phase, True)
    return {
        phase: (first, last)
        for phase, (first, last) in sorted(spans.items())
        if complete.get(phase) and first < 2 ** 62
    }


def _phase_skews(nodes) -> dict:
    """Per-phase spread of each destination rank's last delivery."""
    last_by_rank, complete = {}, {}
    for n in nodes:
        if not n.phase:
            continue
        if n.delivered_at < 0:
            complete[n.phase] = False
            continue
        complete.setdefault(n.phase, True)
        ranks = last_by_rank.setdefault(n.phase, {})
        ranks[n.dest] = max(ranks.get(n.dest, -1), n.delivered_at)
    return {
        phase: max(ranks.values()) - min(ranks.values())
        for phase, ranks in sorted(last_by_rank.items())
        if complete.get(phase) and ranks
    }


def stats_oracle(wl) -> dict:
    """``Workload.stats`` as five separate walks of the nodes."""
    nodes = wl._nodes
    out = {
        "workload.messages": len(nodes),
        "workload.flits": wl.flits_total,
        "workload.delivered": wl._delivered,
        "workload.makespan": wl.makespan(),
    }
    latencies = sorted(wl.message_latencies())
    if latencies:
        out["workload.msg_p50"] = _percentile(latencies, 50.0)
        out["workload.msg_p99"] = _percentile(latencies, 99.0)
        out["workload.msg_max"] = latencies[-1]
    flows = sorted(_flow_latencies(nodes).values())
    if flows:
        out["workload.flows"] = len(flows)
        out["workload.flow_p50"] = _percentile(flows, 50.0)
        out["workload.flow_p99"] = _percentile(flows, 99.0)
    phases = _phase_spans(nodes)
    if phases:
        steps = sorted(last - first for first, last in phases.values())
        out["workload.phases"] = len(phases)
        out["workload.step_mean"] = round(sum(steps) / len(steps))
        out["workload.step_max"] = steps[-1]
    skews = sorted(_phase_skews(nodes).values())
    if skews:
        out["workload.skew_mean"] = round(sum(skews) / len(skews))
        out["workload.skew_max"] = skews[-1]
    return out


class TestStatsOracle:
    """The one-pass ``Workload.stats`` equals the five-walk oracle."""

    FAMILIES = {
        "decode": lambda: transformer_decode(
            8, layers=2, steps=2, size=2, gap=4),
        "alltoall": lambda: all_to_all(8, size=2),
        "rd-allreduce": lambda: all_reduce(
            8, size=2, algorithm="recursive-doubling"),
        # Flow-labeled, phase-unlabeled.
        "request-reply": lambda: request_reply(
            8, requests=3, window=2, think=5, service=2),
    }

    @staticmethod
    def _run(target: str, wl, max_cycles: int):
        if target == "switch":
            sim = SwitchSimulation(BaselineRouter(_config()), workload=wl)
        else:
            cfg = NetworkConfig(radix=8, levels=2, num_vcs=2, packet_size=2,
                                seed=7)
            sim = NetworkSimulation(cfg, workload=wl)
        sim.run_workload(max_cycles=max_cycles)
        return wl

    @pytest.mark.parametrize("target", ["switch", "network"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_complete_and_cut_short_runs(self, family, target):
        factory = self.FAMILIES[family]
        full = self._run(target, factory(), 100_000)
        assert full.done()
        assert full.stats() == stats_oracle(full)
        cut = self._run(target, factory(), max(1, full.makespan() // 2))
        assert not cut.done()
        assert cut.stats() == stats_oracle(cut)

    def test_phase_with_an_unsent_node(self):
        b = WorkloadBuilder(4)
        a = b.add(src=0, dest=1, size=2, flow="f", phase="p")
        b.add(src=1, dest=2, deps=(a,), flow="f", phase="p")  # never sent
        c = b.add(src=2, dest=3, flow="g", phase="q")
        d = b.add(src=3, dest=0, flow="g", phase="q")
        e = b.add(src=1, dest=3, phase="q")
        b.add(src=0, dest=2, at=5, phase="r")  # sent, never delivered
        wl = b.build()
        for node, rank, sent, delivered in (
            (a, 0, 0, 6), (c, 2, 1, 4), (d, 3, 2, 9), (e, 1, 3, 5),
            (5, 0, 5, None),
        ):
            assert wl.next_message(rank, sent).node == node
            wl.sent(node, node + 100, sent)
            if delivered is not None:
                wl.deliver(node + 100, delivered)
        stats = wl.stats()
        assert stats == stats_oracle(wl)
        assert stats["workload.phases"] == 1  # only "q" completed
        assert stats["workload.step_max"] == 9 - 1
        assert stats["workload.skew_max"] == 9 - 5  # rank 0 vs rank 3
        assert stats["workload.flows"] == 1  # only "g" completed


class TestRequestReply:
    def test_closed_loop_gating(self):
        # window=1: the next request of a chain is eligible only
        # think cycles after the previous reply delivered.
        wl = request_reply(4, requests=2, window=1, think=7)
        req = wl.next_message(0, 0)
        assert (req.src, req.dest, req.flow) == (0, 2, "rr.0.0.0")
        wl.sent(req.node, 1000, 0)
        assert wl.eligible(0, 0) is None  # window exhausted
        own = wl.next_message(2, 0)  # rank 2's own first request
        wl.sent(own.node, 1001, 0)
        assert wl.eligible(2, 0) is None
        wl.deliver(1000, 5)  # request reaches the server
        assert wl.eligible(2, 5) == 5
        rep = wl.next_message(2, 5)
        assert (rep.src, rep.dest, rep.flow) == (2, 0, "rr.0.0.0")
        wl.sent(rep.node, 1002, 5)
        wl.deliver(1002, 9)  # reply back at the client
        assert wl.eligible(0, 9) == 16  # 9 + think

    def test_transaction_counts(self):
        wl = request_reply(6, requests=3, window=2)
        assert wl.messages == 6 * 2 * 3 * 2  # ranks*window*requests*2
        # Every rank is one client and exactly one server.
        assert _per_rank(wl, "src") == [2 * 3 * 2] * 6

    def test_rejects_self_partner(self):
        with pytest.raises(ValueError, match="cannot serve"):
            request_reply(4, partner=lambda rank: rank)


class TestCollectiveShapes:
    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(min_value=2, max_value=16))
    def test_ring_allreduce_counts(self, n):
        wl = all_reduce(n, algorithm="ring")
        assert _per_rank(wl, "src") == [2 * (n - 1)] * n
        assert _per_rank(wl, "dest") == [2 * (n - 1)] * n
        assert all(dep < node for dep, node in wl.edges())

    @settings(max_examples=6, deadline=None)
    @given(n=st.sampled_from([2, 4, 8, 16]))
    def test_recursive_doubling_counts(self, n):
        wl = all_reduce(n, algorithm="recursive-doubling")
        rounds = n.bit_length() - 1
        assert _per_rank(wl, "src") == [rounds] * n
        assert _per_rank(wl, "dest") == [rounds] * n
        assert all(dep < node for dep, node in wl.edges())

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(min_value=2, max_value=12))
    def test_alltoall_counts(self, n):
        wl = all_to_all(n)
        assert _per_rank(wl, "src") == [n - 1] * n
        assert _per_rank(wl, "dest") == [n - 1] * n
        assert all(dep < node for dep, node in wl.edges())

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(min_value=2, max_value=12),
           root=st.integers(min_value=0, max_value=11))
    def test_broadcast_counts(self, n, root):
        root %= n
        wl = broadcast(n, root=root)
        assert wl.messages == n - 1
        assert _per_rank(wl, "dest")[root] == 0
        assert sum(_per_rank(wl, "dest")) == n - 1
        assert all(dep < node for dep, node in wl.edges())

    @settings(max_examples=6, deadline=None)
    @given(n=st.sampled_from([2, 4, 8]),
           layers=st.integers(min_value=1, max_value=3),
           steps=st.integers(min_value=1, max_value=2))
    def test_decode_is_acyclic_and_phased(self, n, layers, steps):
        wl = transformer_decode(n, layers=layers, steps=steps)
        assert all(dep < node for dep, node in wl.edges())
        # Two all-reduces (attention + MLP) per layer per step.
        assert _per_rank(wl, "src") == [
            steps * layers * 2 * 2 * (n - 1)
        ] * n

    def test_recursive_doubling_needs_power_of_two(self):
        with pytest.raises(ValueError, match="power-of-two"):
            all_reduce(6, algorithm="recursive-doubling")

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown all-reduce"):
            all_reduce(8, algorithm="butterflyx")


class TestReplayParsing:
    def test_csv_header_comments_blanks(self):
        rows = parse_csv_rows(REPLAY_CSV + ["", "   "])
        assert len(rows) == 6
        assert rows[0] == (0, 0, 5, 2, "w.a")
        assert rows[4] == (9, 6, 1, 1, "")

    def test_csv_rejects_bad_width(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_csv_rows(["cycle,src,dest,size", "1,2,3"])

    def test_csv_rejects_non_integer(self):
        with pytest.raises(ValueError, match="non-integer"):
            parse_csv_rows(["0,0,x,1"])

    def test_workload_pins_release_cycles(self):
        wl = from_csv(REPLAY_CSV)
        assert wl.messages == 6
        assert wl.num_ranks == 7  # max endpoint id + 1
        assert wl.eligible(0, 0) == 0
        assert wl.eligible(5, 0) == 12
        assert list(wl.edges()) == []  # replay nodes are independent

    def test_rank_bound_checked(self):
        with pytest.raises(ValueError, match="rank 6"):
            from_csv(REPLAY_CSV, num_ranks=4)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="no messages"):
            from_csv(["cycle,src,dest,size", "# nothing"])

    def test_chrome_rows_group_by_packet(self):
        doc = {"traceEvents": [
            {"ph": "X", "ts": 4, "dur": 2,
             "args": {"packet": 1, "flit": 0, "src": 2, "dest": 5,
                      "flow": "f.x"}},
            {"ph": "X", "ts": 2, "dur": 2,
             "args": {"packet": 1, "flit": 1, "src": 2, "dest": 5,
                      "flow": "f.x"}},
            {"ph": "X", "ts": 9, "dur": 1,
             "args": {"packet": 3, "flit": 0, "src": 0, "dest": 1}},
            {"ph": "M", "ts": 0, "args": {}},
            {"ph": "X", "ts": 1, "args": {"noise": True}},
        ]}
        import json

        rows = parse_chrome_rows([json.dumps(doc)])
        assert rows == [(2, 2, 5, 2, "f.x"), (9, 0, 1, 1, "")]

    def test_replay_allows_self_sends(self):
        # A switch trace legitimately records a packet entering and
        # leaving the same port number; replay must accept it.
        wl = from_csv(["0,3,3,1", "2,0,1,1"], num_ranks=4)
        assert wl.messages == 2 and wl.has_self_sends
        sim = SwitchSimulation(BaselineRouter(_config()), workload=wl)
        result = sim.run_workload(max_cycles=10_000)
        assert result.extra["undelivered"] == 0.0

    def test_network_rejects_self_sends(self):
        wl = from_csv(["0,3,3,1"], num_ranks=4)
        cfg = NetworkConfig(radix=4, levels=2, num_vcs=2)
        with pytest.raises(ValueError, match="self-send"):
            NetworkSimulation(cfg, workload=wl)

    def test_load_trace_sniffs_format(self):
        import json

        csv_wl = load_trace(REPLAY_CSV)
        assert csv_wl.messages == 6
        doc = {"traceEvents": [
            {"ph": "X", "ts": 0, "dur": 1,
             "args": {"packet": 0, "flit": 0, "src": 0, "dest": 1}},
        ]}
        chrome_wl = load_trace([json.dumps(doc)])
        assert chrome_wl.messages == 1


class TestJumpingEqualsNeverJumping:
    """Every family: jumping == never jumping, byte for byte."""

    FAMILIES = {
        "ring-allreduce": lambda: all_reduce(8, size=2),
        "rd-allreduce": lambda: all_reduce(
            8, size=2, algorithm="recursive-doubling"),
        "alltoall": lambda: all_to_all(8, size=2),
        "request-reply": lambda: request_reply(
            8, requests=3, window=2, think=5, service=2),
        "decode": lambda: transformer_decode(
            8, layers=2, steps=2, size=2, gap=4),
        "replay": lambda: from_csv(REPLAY_CSV),
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_switch_results_identical(self, family):
        factory = self.FAMILIES[family]
        stepped = _switch_snapshot(factory, jump=False)
        assert _switch_snapshot(factory) == stepped
        assert stepped["saturated"] is False
        assert stepped["undelivered"] == 0.0
        assert stepped["stats.workload.makespan"] > 0

    @pytest.mark.parametrize("family", ["allreduce", "request-reply",
                                        "replay"])
    def test_network_results_identical(self, family):
        factory = {
            "allreduce": lambda: all_reduce(4, size=2),
            "request-reply": lambda: request_reply(
                4, requests=3, window=1, think=3),
            "replay": lambda: from_csv(REPLAY_CSV_SMALL),
        }[family]
        stepped = _network_snapshot(factory, jump=False)
        assert _network_snapshot(factory) == stepped
        assert stepped["undelivered"] == 0.0

    def test_idle_spans_are_fast_forwarded(self):
        # Sparse replay schedule: long idle gaps between releases.
        rows = ["0,0,5,1", "400,3,6,1", "800,1,4,1"]
        sim = SwitchSimulation(
            BaselineRouter(_config()), workload=from_csv(rows, num_ranks=8),
        )
        sim.run_workload(max_cycles=50_000)
        assert sim._sched.cycles_skipped > 0


class TestTraceAndReplayRoundTrip:
    def _traced_run(self, jump: bool = True):
        from repro.trace import TraceCollector, chrome_trace_json

        collector = TraceCollector()
        sim = _with_jump(SwitchSimulation(
            BaselineRouter(_config()), workload=all_reduce(8, size=2),
            tracer=collector,
        ), jump)
        result = sim.run_workload(max_cycles=50_000)
        return result, chrome_trace_json(collector)

    def test_chrome_bytes_identical_across_schedulers(self):
        assert self._traced_run(jump=False)[1] == self._traced_run()[1]

    def test_spans_carry_flow_annotations(self):
        import json

        _, text = self._traced_run()
        spans = [e for e in json.loads(text)["traceEvents"]
                 if e.get("ph") == "X"]
        assert spans
        assert all("src" in s["args"] and "dest" in s["args"]
                   for s in spans)
        assert any(s["args"].get("phase") == "allreduce" for s in spans)
        assert any("flow" in s["args"] for s in spans)

    def test_chrome_export_replays_to_completion(self):
        result, text = self._traced_run()
        replayed = from_chrome_trace([text])
        assert replayed.messages == 2 * 7 * 8  # ring all-reduce on 8
        assert replayed.flits_total == 2 * replayed.messages
        sim = SwitchSimulation(BaselineRouter(_config()), workload=replayed)
        rerun = sim.run_workload(max_cycles=50_000)
        assert rerun.extra["undelivered"] == 0.0
        assert rerun.extra["stats.workload.delivered"] == float(
            replayed.messages
        )


class TestFaultComposition:
    """A scheduled dead link measurably stretches an all-reduce."""

    def _snapshot(self, jump: bool = True, faults=None) -> dict:
        return _network_snapshot(
            lambda: all_reduce(16, size=2), jump, radix=8,
            faults=faults,
        )

    def _plan(self) -> FaultPlan:
        return FaultPlan(links=sample_link_faults(
            FoldedClos(8, 2), seed=5, count=1, cycle=5, until=400,
        ))

    def test_dead_link_stretches_completion(self):
        clean = self._snapshot()
        faulted = self._snapshot(faults=self._plan())
        assert clean["stats.workload.makespan"] == 534.0
        assert faulted["stats.workload.makespan"] == 931.0
        assert (faulted["stats.workload.makespan"]
                > clean["stats.workload.makespan"])
        assert faulted["undelivered"] == 0.0  # degraded, not broken

    def test_faulted_run_identical_across_schedulers(self):
        assert (self._snapshot(jump=False, faults=self._plan())
                == self._snapshot(faults=self._plan()))


class TestSourceQueueObservability:
    def test_switch_workload_reports_peak_queue(self):
        snap = _switch_snapshot(lambda: all_to_all(8, size=2))
        assert snap["stats.traffic.max_source_queue"] >= 1.0

    def test_network_workload_reports_peak_queue(self):
        snap = _network_snapshot(lambda: all_reduce(4, size=2))
        assert "stats.traffic.max_source_queue" in snap

    def test_synthetic_run_reports_peak_queue(self):
        from repro.harness.experiment import SweepSettings

        sim = SwitchSimulation(BaselineRouter(_config()), load=0.3,
                               packet_size=2)
        result = sim.run(SweepSettings(warmup=50, measure=100, drain=1000))
        assert result.extra["stats.traffic.max_source_queue"] >= 0.0
