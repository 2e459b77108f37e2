"""Seed-pinned golden results for every simulation stack.

These snapshots pin the *exact* numeric output of a seeded run for all
switch organizations and the Clos network.  They must stay
byte-identical across refactors of the simulation kernel: any drift
means the refactor changed simulation behavior, not just structure.
They were last re-pinned when arrivals became geometric gaps drawn
once per packet (the same Bernoulli process in distribution, not in
bytes, as the per-cycle poll it replaced).

The snapshot deliberately compares named scalar fields (and the two
harness-owned ``extra`` entries) rather than the whole ``extra`` dict,
so purely *additive* diagnostics — e.g. folding ``RouterStats.extra``
counters into the result — do not invalidate the goldens.

Regenerate (only when an intentional behavior change is made)::

    PYTHONPATH=src python -m tests.test_golden_results
"""

from __future__ import annotations

import pytest

from repro.core.config import RouterConfig
from repro.harness.experiment import SweepSettings, SwitchSimulation
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.routers.baseline import BaselineRouter
from repro.routers.buffered import BufferedCrossbarRouter
from repro.routers.distributed import DistributedRouter
from repro.routers.hierarchical import HierarchicalCrossbarRouter
from repro.routers.shared_buffer import SharedBufferCrossbarRouter
from repro.routers.voq import VoqRouter
from tests.exhaustive import never_jump

SWITCH_CONFIG = RouterConfig(
    radix=8,
    num_vcs=4,
    subswitch_size=4,
    local_group_size=4,
    input_buffer_depth=16,
    seed=11,
)
SWITCH_LOAD = 0.35
SWITCH_PACKET_SIZE = 2
SWITCH_SETTINGS = SweepSettings(warmup=300, measure=400, drain=6000)

NETWORK_CONFIG = NetworkConfig(radix=8, levels=2, packet_size=2, seed=11)
NETWORK_LOAD = 0.3
NETWORK_WINDOWS = dict(warmup=200, measure=300, drain=4000)

ROUTERS = {
    "baseline": BaselineRouter,
    "distributed": DistributedRouter,
    "buffered": BufferedCrossbarRouter,
    "shared-buffer": SharedBufferCrossbarRouter,
    "hierarchical": HierarchicalCrossbarRouter,
    "voq": VoqRouter,
}

#: Scalar fields of RunResult pinned by the snapshot.
FIELDS = (
    "offered_load",
    "avg_latency",
    "p99_latency",
    "max_latency",
    "throughput",
    "packets_measured",
    "cycles",
    "saturated",
)
#: Harness-owned extra entries pinned for switch runs.
SWITCH_EXTRAS = ("undelivered", "source_backlog")


#: The goldens are the one fixed reference that both the simulation as
#: built (``"event"``: it jumps idle spans) and the stepping oracle
#: (``"cycle"``: the same simulation under :func:`never_jump`) must
#: reproduce, so this file keeps both.
RUN_MODES = ("cycle", "event")


def _on_clock(sim, clock: str):
    return never_jump(sim) if clock == "cycle" else sim


def _run_switch(name: str, clock: str = "event",
                batch: bool = False) -> dict:
    config = SWITCH_CONFIG.with_(batch_hot_path=batch)
    sim = _on_clock(SwitchSimulation(
        ROUTERS[name](config),
        load=SWITCH_LOAD,
        packet_size=SWITCH_PACKET_SIZE,
    ), clock)
    result = sim.run(SWITCH_SETTINGS)
    snap = {f: getattr(result, f) for f in FIELDS}
    for key in SWITCH_EXTRAS:
        snap[key] = result.extra[key]
    return snap


def _run_network(clock: str = "event") -> dict:
    sim = _on_clock(NetworkSimulation(NETWORK_CONFIG, NETWORK_LOAD), clock)
    result = sim.run(**NETWORK_WINDOWS)
    return {f: getattr(result, f) for f in FIELDS}


GOLDEN: dict = {
    "baseline": {
        "avg_latency": 16.246575342465754,
        "cycles": 735,
        "max_latency": 63.0,
        "offered_load": 0.35,
        "p99_latency": 42.30000000000007,
        "packets_measured": 146,
        "saturated": False,
        "source_backlog": 0.0,
        "throughput": 0.36375,
        "undelivered": 0.0,
    },
    "buffered": {
        "avg_latency": 17.472602739726028,
        "cycles": 723,
        "max_latency": 35.0,
        "offered_load": 0.35,
        "p99_latency": 34.10000000000002,
        "packets_measured": 146,
        "saturated": False,
        "source_backlog": 5.0,
        "throughput": 0.36375,
        "undelivered": 0.0,
    },
    "clos-network": {
        "avg_latency": 32.87301587301587,
        "cycles": 553,
        "max_latency": 61.0,
        "offered_load": 0.3,
        "p99_latency": 57.24000000000001,
        "packets_measured": 189,
        "saturated": False,
        "throughput": 0.31833333333333336,
    },
    "distributed": {
        "avg_latency": 18.698630136986303,
        "cycles": 744,
        "max_latency": 48.0,
        "offered_load": 0.35,
        "p99_latency": 45.0,
        "packets_measured": 146,
        "saturated": False,
        "source_backlog": 5.0,
        "throughput": 0.365,
        "undelivered": 0.0,
    },
    "hierarchical": {
        "avg_latency": 21.45205479452055,
        "cycles": 727,
        "max_latency": 39.0,
        "offered_load": 0.35,
        "p99_latency": 37.55000000000001,
        "packets_measured": 146,
        "saturated": False,
        "source_backlog": 2.0,
        "throughput": 0.36375,
        "undelivered": 0.0,
    },
    "shared-buffer": {
        "avg_latency": 20.993150684931507,
        "cycles": 734,
        "max_latency": 64.0,
        "offered_load": 0.35,
        "p99_latency": 44.050000000000125,
        "packets_measured": 146,
        "saturated": False,
        "source_backlog": 1.0,
        "throughput": 0.36375,
        "undelivered": 0.0,
    },
    "voq": {
        "avg_latency": 14.76027397260274,
        "cycles": 726,
        "max_latency": 41.0,
        "offered_load": 0.35,
        "p99_latency": 36.9500000000001,
        "packets_measured": 146,
        "saturated": False,
        "source_backlog": 3.0,
        "throughput": 0.36125,
        "undelivered": 0.0,
    },
}


def _assert_matches(snap: dict, golden: dict, label: str) -> None:
    for key, expected in golden.items():
        actual = snap[key]
        assert actual == expected, (
            f"{label}: field {key!r} drifted: expected {expected!r}, "
            f"got {actual!r} — the simulation kernel is no longer "
            f"byte-identical to the seed behavior"
        )


@pytest.mark.parametrize("batch", [False, True], ids=["scalar", "batch"])
@pytest.mark.parametrize("clock", RUN_MODES)
@pytest.mark.parametrize("name", sorted(ROUTERS))
def test_switch_golden(name: str, clock: str, batch: bool) -> None:
    """The batched hot path must reproduce the same goldens bit for bit
    (it is a no-op on routers that have no batched stage: distributed,
    hierarchical, shared-buffer and VOQ), and so must a run that steps
    every cycle instead of jumping idle spans."""
    _assert_matches(
        _run_switch(name, clock, batch), GOLDEN[name],
        f"{name}/{clock}/{'batch' if batch else 'scalar'}",
    )


@pytest.mark.parametrize("clock", RUN_MODES)
def test_network_golden(clock: str) -> None:
    _assert_matches(
        _run_network(clock), GOLDEN["clos-network"],
        f"clos-network/{clock}",
    )


def _generate() -> dict:
    out = {name: _run_switch(name) for name in sorted(ROUTERS)}
    out["clos-network"] = _run_network()
    return out


if __name__ == "__main__":
    import pprint

    print("GOLDEN = ", end="")
    pprint.pprint(_generate(), sort_dicts=True)
