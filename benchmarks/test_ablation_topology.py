"""Ablation (Section 9, future work): Clos vs mesh at equal host count.

The paper's conclusion points at topology design as the next frontier
for high-radix routers.  This ablation runs the network simulator over
two topologies with identical host counts — the Figure 19 folded Clos
with oblivious routing, and a 2D mesh with dimension-order routing —
and confirms the structural expectation: the indirect network's lower
hop count translates into lower latency at every load, at the price of
more switch hardware.
"""

from common import save_table

from repro.harness.report import format_table
from repro.network import FoldedClos, Mesh, NetworkConfig, NetworkSimulation

LOADS = (0.1, 0.3, 0.5)


def test_ablation_clos_vs_mesh():
    clos = FoldedClos(radix=8, levels=2)
    mesh = Mesh(dims=(4, 4), concentration=1)
    assert clos.num_hosts == mesh.num_hosts == 16

    curves = {}
    for name, topo, radix in (("clos", clos, 8), ("mesh", mesh, 5)):
        rows = []
        for load in LOADS:
            cfg = NetworkConfig(radix=radix, num_vcs=2)
            sim = NetworkSimulation(cfg, load, topology=topo)
            r = sim.run(warmup=600, measure=800, drain=6000)
            rows.append((load, r.avg_latency, r.throughput))
        curves[name] = rows

    table_rows = []
    for idx, load in enumerate(LOADS):
        table_rows.append((
            load,
            f"{curves['clos'][idx][1]:.1f}",
            f"{curves['mesh'][idx][1]:.1f}",
        ))
    table = format_table(
        ["load", "clos latency", "mesh latency"],
        table_rows,
        title=(
            "Ablation: folded Clos (radix 8, 3-stage, "
            f"{clos.num_switches} switches) vs 4x4 mesh "
            f"({mesh.num_switches} switches), 16 hosts, "
            f"avg hops {clos.average_hop_count():.2f} vs "
            f"{mesh.average_hop_count():.2f}"
        ),
    )
    save_table("ablation_topology", table)

    # Fewer hops -> lower latency at every measured load.
    for idx in range(len(LOADS)):
        assert curves["clos"][idx][1] < curves["mesh"][idx][1]
    # Both topologies carry the offered load below saturation.
    for name in ("clos", "mesh"):
        for load, _lat, thpt in curves[name]:
            assert thpt > load - 0.08
