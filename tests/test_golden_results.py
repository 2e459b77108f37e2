"""Seed-pinned golden results for every simulation stack.

These snapshots pin the *exact* numeric output of a seeded run for all
switch organizations and the Clos network.  They were generated on the
pre-`repro.engine` code and must stay byte-identical across refactors
of the simulation kernel: any drift means the refactor changed
simulation behavior, not just structure.

The snapshot deliberately compares named scalar fields (and the two
harness-owned ``extra`` entries) rather than the whole ``extra`` dict,
so purely *additive* diagnostics — e.g. folding ``RouterStats.extra``
counters into the result — do not invalidate the goldens.

Regenerate (only when an intentional behavior change is made)::

    PYTHONPATH=src python tests/test_golden_results.py
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


def _run_switch(name: str, scheduler: str = "cycle",
                batch: bool = False) -> dict:
    config = SWITCH_CONFIG.with_(batch_hot_path=batch)
    sim = SwitchSimulation(
        ROUTERS[name](config),
        load=SWITCH_LOAD,
        packet_size=SWITCH_PACKET_SIZE,
        scheduler=scheduler,
    )
    result = sim.run(SWITCH_SETTINGS)
    snap = {f: getattr(result, f) for f in FIELDS}
    for key in SWITCH_EXTRAS:
        snap[key] = result.extra[key]
    return snap


def _run_network(scheduler: str = "cycle") -> dict:
    sim = NetworkSimulation(NETWORK_CONFIG, NETWORK_LOAD,
                                scheduler=scheduler)
    result = sim.run(**NETWORK_WINDOWS)
    return {f: getattr(result, f) for f in FIELDS}


GOLDEN: dict = {
    "baseline": {
        "avg_latency": 16.582089552238806,
        "cycles": 763,
        "max_latency": 63,
        "offered_load": 0.35,
        "p99_latency": 46.339999999999975,
        "packets_measured": 134,
        "saturated": False,
        "source_backlog": 1.0,
        "throughput": 0.33625,
        "undelivered": 0.0,
    },
    "buffered": {
        "avg_latency": 17.48507462686567,
        "cycles": 736,
        "max_latency": 36,
        "offered_load": 0.35,
        "p99_latency": 35.66999999999999,
        "packets_measured": 134,
        "saturated": False,
        "source_backlog": 2.0,
        "throughput": 0.33625,
        "undelivered": 0.0,
    },
    "clos-network": {
        "avg_latency": 35.0507614213198,
        "cycles": 543,
        "max_latency": 89,
        "offered_load": 0.3,
        "p99_latency": 72.27999999999994,
        "packets_measured": 197,
        "saturated": False,
        "throughput": 0.31916666666666665,
    },
    "distributed": {
        "avg_latency": 18.992537313432837,
        "cycles": 740,
        "max_latency": 51,
        "offered_load": 0.35,
        "p99_latency": 46.339999999999975,
        "packets_measured": 134,
        "saturated": False,
        "source_backlog": 4.0,
        "throughput": 0.3375,
        "undelivered": 0.0,
    },
    "hierarchical": {
        "avg_latency": 21.33582089552239,
        "cycles": 736,
        "max_latency": 40,
        "offered_load": 0.35,
        "p99_latency": 37.339999999999975,
        "packets_measured": 134,
        "saturated": False,
        "source_backlog": 2.0,
        "throughput": 0.3375,
        "undelivered": 0.0,
    },
    "shared-buffer": {
        "avg_latency": 20.559701492537314,
        "cycles": 736,
        "max_latency": 42,
        "offered_load": 0.35,
        "p99_latency": 39.34999999999994,
        "packets_measured": 134,
        "saturated": False,
        "source_backlog": 2.0,
        "throughput": 0.34,
        "undelivered": 0.0,
    },
    "voq": {
        "avg_latency": 14.902985074626866,
        "cycles": 740,
        "max_latency": 47,
        "offered_load": 0.35,
        "p99_latency": 43.00999999999996,
        "packets_measured": 134,
        "saturated": False,
        "source_backlog": 4.0,
        "throughput": 0.33625,
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
@pytest.mark.parametrize("scheduler", ["cycle", "event"])
@pytest.mark.parametrize("name", sorted(ROUTERS))
def test_switch_golden(name: str, scheduler: str, batch: bool) -> None:
    """The batched hot path must reproduce the same goldens bit for bit
    (it is a no-op on routers that have no batched stage: distributed,
    hierarchical, shared-buffer and VOQ)."""
    _assert_matches(
        _run_switch(name, scheduler, batch), GOLDEN[name],
        f"{name}/{scheduler}/{'batch' if batch else 'scalar'}",
    )


@pytest.mark.parametrize("scheduler", ["cycle", "event"])
def test_network_golden(scheduler: str) -> None:
    _assert_matches(
        _run_network(scheduler), GOLDEN["clos-network"],
        f"clos-network/{scheduler}",
    )


def _generate() -> dict:
    out = {name: _run_switch(name) for name in sorted(ROUTERS)}
    out["clos-network"] = _run_network()
    return out


if __name__ == "__main__":
    import pprint

    print("GOLDEN = ", end="")
    pprint.pprint(_generate(), sort_dicts=True)
