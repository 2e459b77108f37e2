"""Smoke tests: every example script runs to completion.

Each example is executed in a subprocess with its smallest practical
arguments, so broken imports or API drift in `examples/` fail the test
suite rather than the first user who tries them.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(script, *args, timeout=240):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_example_files_exist():
    expected = {
        "quickstart.py",
        "compare_architectures.py",
        "design_sweep.py",
        "clos_network.py",
        "traffic_study.py",
        "mesh_vs_clos.py",
        "debug_with_metrics.py",
        "reproduce_figures.py",
        "decode_sweep.py",
    }
    present = {p.name for p in EXAMPLES.glob("*.py")}
    assert expected <= present


@pytest.mark.slow
def test_quickstart_runs():
    out = _run("quickstart.py")
    assert "saturation throughput" in out


@pytest.mark.slow
def test_compare_architectures_runs():
    out = _run("compare_architectures.py", "--radix", "8", "--load", "0.5")
    assert "hierarchical p=8" in out


@pytest.mark.slow
def test_design_sweep_runs():
    out = _run("design_sweep.py", "--bandwidth", "0.4e12", "--delay",
               "25e-9", "--nodes", "1024", "--packet", "128")
    assert "k* = 40" in out


@pytest.mark.slow
def test_clos_network_runs():
    out = _run("clos_network.py")
    assert "high-radix" in out


@pytest.mark.slow
def test_traffic_study_runs():
    out = _run("traffic_study.py", "--radix", "8")
    assert "hotspot" in out


@pytest.mark.slow
def test_mesh_vs_clos_runs():
    out = _run("mesh_vs_clos.py")
    assert "mesh" in out


@pytest.mark.slow
def test_debug_with_metrics_runs():
    out = _run("debug_with_metrics.py", "--cycles", "400", "--load", "0.5")
    assert "invariants held" in out


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_figures_uses_the_benchmarks_definition(monkeypatch):
    """``--radix 64 --figures 9`` compared against a radix-32
    "low-radix" router (``radix // 2``) where the paper and
    ``benchmarks/test_fig09_baseline.py`` use radix 16."""
    from repro import RouterConfig

    monkeypatch.delenv("REPRO_SCALE", raising=False)
    figures = _load(EXAMPLES / "reproduce_figures.py")
    common = _load(EXAMPLES.parent / "benchmarks" / "common.py")
    assert figures.LOW_RADIX == common.LOW_RADIX == 16
    assert figures.LOADS == common.LOADS
    assert figures.SAT_DRAIN == common.SAT_SETTINGS.drain
    for radix in (32, 64):
        low = figures.low_radix_config(
            RouterConfig(radix=radix, subswitch_size=8)
        )
        assert (low.radix, low.subswitch_size, low.local_group_size) == (
            16, 4, 4
        )


@pytest.mark.slow
def test_reproduce_figures_analytic():
    out = _run("reproduce_figures.py", "--figures", "2,3")
    assert "k*" in out


@pytest.mark.slow
def test_decode_sweep_runs(tmp_path):
    out_file = tmp_path / "decode.json"
    out = _run("decode_sweep.py", str(out_file))
    assert "reloaded byte-equivalent" in out
    assert out_file.exists()
