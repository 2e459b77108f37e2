#!/usr/bin/env python3
"""Regenerate the paper's figures without pytest.

Runs the same experiments as ``benchmarks/`` but as one plain script —
useful when you want the figure tables (and ASCII plots) without the
benchmark harness, or want to pass a different scale on the command
line.  ``benchmarks/test_fig*.py`` (with ``benchmarks/common.py``) is
the definition of each figure: the low-radix reference router, the
load points and the saturation drain below are its values, and
``tests/test_examples.py`` holds them equal.

Run:
    python examples/reproduce_figures.py --figures 9,13
    python examples/reproduce_figures.py --radix 64 --figures 17
    python examples/reproduce_figures.py            # analytic figures only
"""

import argparse

from repro import RouterConfig, SweepSettings
from repro.harness.experiment import run_load_sweep, saturation_throughput
from repro.harness.plot import plot_sweeps
from repro.harness.report import format_table
from repro.models import (
    ALL_TECHNOLOGIES,
    cost_vs_radix,
    latency_vs_radix,
    optimal_radix,
)
from repro.models.technology import TECH_2003, TECH_2010
from repro.routers.baseline import BaselineRouter
from repro.routers.buffered import BufferedCrossbarRouter
from repro.routers.distributed import DistributedRouter
from repro.routers.hierarchical import HierarchicalCrossbarRouter

#: The paper's low-radix reference router, whatever ``--radix`` is.
LOW_RADIX = 16
#: Offered-load points of the latency-load curves.
LOADS = (0.1, 0.3, 0.5, 0.7, 0.9)
#: Drain budget of a saturation-throughput run.
SAT_DRAIN = 100


def low_radix_config(cfg: RouterConfig) -> RouterConfig:
    return cfg.with_(radix=LOW_RADIX, subswitch_size=4, local_group_size=4)


def fig2() -> None:
    print("== Figure 2: optimal radix per technology ==")
    rows = [
        (t.name, f"{t.aspect_ratio:.0f}", optimal_radix(t))
        for t in ALL_TECHNOLOGIES
    ]
    print(format_table(["technology", "aspect ratio", "k*"], rows))


def fig3() -> None:
    print("== Figure 3: latency and cost vs radix ==")
    ks = list(range(8, 257, 24))
    lat03 = dict(latency_vs_radix(TECH_2003, ks))
    lat10 = dict(latency_vs_radix(TECH_2010, ks))
    cost03 = dict(cost_vs_radix(TECH_2003, ks))
    rows = [
        (k, f"{lat03[k] * 1e9:.0f}", f"{lat10[k] * 1e9:.0f}",
         f"{cost03[k]:.2f}")
        for k in ks
    ]
    print(format_table(
        ["radix", "latency 2003 (ns)", "latency 2010 (ns)",
         "cost 2003 (k channels)"], rows,
    ))


def fig9(cfg: RouterConfig, settings: SweepSettings) -> None:
    print("== Figure 9: baseline architectures ==")
    sweeps = [
        run_load_sweep(BaselineRouter, low_radix_config(cfg), LOADS,
                       label="low-radix", settings=settings),
        run_load_sweep(DistributedRouter, cfg, LOADS, label="CVA",
                       settings=settings),
        run_load_sweep(DistributedRouter, cfg.with_(vc_allocator="ova"),
                       LOADS, label="OVA", settings=settings),
    ]
    print(plot_sweeps(sweeps, title="latency vs offered load"))


def fig13(cfg: RouterConfig, settings: SweepSettings) -> None:
    print("== Figure 13: fully buffered crossbar ==")
    sweeps = [
        run_load_sweep(BaselineRouter, low_radix_config(cfg), LOADS,
                       label="low-radix", settings=settings),
        run_load_sweep(DistributedRouter, cfg, LOADS, label="baseline",
                       settings=settings),
        run_load_sweep(BufferedCrossbarRouter, cfg, LOADS,
                       label="fully-buffered", settings=settings),
    ]
    print(plot_sweeps(sweeps, title="latency vs offered load"))


def fig17(cfg: RouterConfig, settings: SweepSettings) -> None:
    print("== Figure 17(a): hierarchical crossbar, uniform traffic ==")
    sat = SweepSettings(settings.warmup, settings.measure, SAT_DRAIN)
    thpt = saturation_throughput(BufferedCrossbarRouter, cfg, settings=sat)
    rows = [("fully-buffered", f"{thpt:.3f}")]
    for p in (4, 8, 16):
        if cfg.radix % p:
            continue
        thpt = saturation_throughput(
            HierarchicalCrossbarRouter, cfg.with_(subswitch_size=p),
            settings=sat,
        )
        rows.append((f"subswitch {p}", f"{thpt:.3f}"))
    print(format_table(["architecture", "saturation throughput"], rows))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--figures", default="2,3",
                        help="comma-separated subset of 2,3,9,13,17")
    parser.add_argument("--radix", type=int, default=32)
    parser.add_argument("--warmup", type=int, default=800)
    parser.add_argument("--measure", type=int, default=1200)
    args = parser.parse_args()

    cfg = RouterConfig(radix=args.radix, subswitch_size=8)
    settings = SweepSettings(warmup=args.warmup, measure=args.measure,
                             drain=20000)
    wanted = {f.strip() for f in args.figures.split(",")}
    dispatch = {
        "2": fig2,
        "3": fig3,
        "9": lambda: fig9(cfg, settings),
        "13": lambda: fig13(cfg, settings),
        "17": lambda: fig17(cfg, settings),
    }
    for key in ("2", "3", "9", "13", "17"):
        if key in wanted:
            dispatch[key]()
            print()


if __name__ == "__main__":
    main()
