"""``benchmarks/compare.py``: the verdict on synthetic paired samples,
and the export of a revision."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "compare", ROOT / "benchmarks" / "compare.py"
)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
#: The loss tolerated, as a share of the base's median.
BOUND = 0.25


def test_a_clear_gain_is_resolved():
    change = [b * 0.5 for b in BASE]
    got = compare.verdict(BASE, change, "lower", BOUND)
    assert got["verdict"] == "resolved"
    assert got["led"] == 10 and got["trailed"] == 0
    assert got["base_median"] == pytest.approx(1.0)
    assert got["change_median"] == pytest.approx(0.5)
    assert got["ratio"] == pytest.approx(0.5)
    assert got["gain"] == pytest.approx(0.5)


def test_a_clear_loss_is_regressed():
    got = compare.verdict(BASE, [b * 1.5 for b in BASE], "lower", BOUND)
    assert got["verdict"] == "regressed"
    assert got["trailed"] == 10 and got["gain"] < 0
    assert got["bound"] == BOUND


def test_a_loss_past_the_bound_regresses_in_any_number_of_pairs():
    """A median 40% slower is a regression even when the base led
    only eight pairs of ten."""
    change = [b * 1.4 for b in BASE]
    change[0] = change[1] = 0.5
    got = compare.verdict(BASE, change, "lower", BOUND)
    assert got["trailed"] == 8
    assert got["verdict"] == "regressed"


def test_a_loss_inside_a_tight_bound_is_within_bound():
    got = compare.verdict(BASE, [b * 1.1 for b in BASE], "lower", BOUND)
    assert got["trailed"] == 10
    assert got["verdict"] == "within bound"
    assert compare.verdict(BASE, [b * 1.1 for b in BASE], "lower",
                           0.05)["verdict"] == "regressed"


def test_a_spread_wider_than_the_bound_is_unresolved():
    """Medians level, but the change's runs spread over more than the
    bound: nothing can be told."""
    change = [0.5, 1.5] * 5
    got = compare.verdict(BASE, change, "lower", BOUND)
    assert got["gain"] == pytest.approx(0.0)
    assert got["verdict"] == "unresolved"


def test_direction_follows_better():
    """A rate that rises is a gain when higher is better."""
    got = compare.verdict(BASE, [b * 2 for b in BASE], "higher", BOUND)
    assert got["verdict"] == "resolved" and got["led"] == 10


def test_leading_inside_the_base_spread_is_not_resolved():
    """Better in every pair, but by less than the base's quartile
    spread: the medians are not told apart."""
    q1, _, q3 = compare.quartiles(BASE)
    step = (q3 - q1) / 2
    got = compare.verdict(BASE, [b - step for b in BASE], "lower", BOUND)
    assert got["led"] == 10
    assert got["gain"] == pytest.approx(step)
    assert got["verdict"] == "within bound"


def test_eight_pairs_of_ten_is_not_enough():
    change = [b * 0.5 for b in BASE]
    change[0] = change[1] = 5.0
    got = compare.verdict(BASE, change, "lower", BOUND)
    assert got["led"] == 8 and got["gain"] > got["base_iqr"]
    assert got["verdict"] != "resolved"


def test_nine_pairs_of_ten_is():
    change = [b * 0.5 for b in BASE]
    change[3] = 5.0
    got = compare.verdict(BASE, change, "lower", BOUND)
    assert got["verdict"] == "resolved"


def test_ties_lead_nothing():
    got = compare.verdict(BASE, list(BASE), "lower", BOUND)
    assert got["led"] == got["trailed"] == 0
    assert got["verdict"] == "within bound"


def test_quartiles_inclusive():
    assert compare.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == [2.0, 3.0, 4.0]
    assert compare.quartiles([7.0]) == [7.0, 7.0, 7.0]


@pytest.mark.parametrize("base, change, better, bound", [
    ([], [], "lower", BOUND),
    ([1.0], [1.0, 2.0], "lower", BOUND),
    ([1.0], [1.0], "faster", BOUND),
    ([1.0], [1.0], "lower", -0.1),
])
def test_refuses_unpaired_or_unknown(base, change, better, bound):
    with pytest.raises(ValueError):
        compare.verdict(base, change, better, bound)


def test_export_writes_the_committed_tree(tmp_path):
    inside = subprocess.run(
        ["git", "rev-parse", "--is-inside-work-tree"], cwd=ROOT,
        capture_output=True, text=True,
    )
    if inside.returncode != 0 or inside.stdout.strip() != "true":
        pytest.skip("not a git checkout")
    commit = compare.export("HEAD", tmp_path / "tree")
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True).stdout.strip()
    assert commit == head
    assert (tmp_path / "tree" / "benchmarks" / "e2e" / "run.py").is_file()
    assert (tmp_path / "tree" / "BENCHMARK.json").is_file()
    assert not (tmp_path / "tree" / ".git").exists()


def test_a_per_layer_metric_shifts_either_way_or_stays_level():
    assert compare.shift(BASE, [b * 0.5 for b in BASE],
                         "lower")["shift"] == "better"
    assert compare.shift(BASE, [b * 1.5 for b in BASE],
                         "lower")["shift"] == "worse"
    assert compare.shift(BASE, list(BASE), "lower")["shift"] == "level"


def _traced_doc(values, crc=7):
    """A traced ``run.py`` result of one workload, as ``compare`` reads it."""
    return {"workloads": {"w": {
        "crc32": crc, "ops_failed": 0,
        "metrics": {name: {"value": value} for name, value in values.items()},
    }}}


LAYER_BENCH = {
    "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                    "bound": BOUND}],
    "per_layer": [
        {"name": "routers.commit_s", "unit": "s", "better": "lower"},
        {"name": "core.rr_arb_calls", "unit": "count", "better": "lower"},
        {"name": "host.reps", "unit": "count", "better": "higher"},
        {"name": "shard.send_s", "unit": "s", "better": "lower"},
    ],
}


def _sides(calls_b, reps_b=5, crc_b=7):
    def doc(commit_s, calls, reps, crc):
        return _traced_doc({"wall_s": 1.0, "routers.commit_s": commit_s,
                            "core.rr_arb_calls": calls, "host.reps": reps,
                            "shard.send_s": 0.0}, crc)
    return {"a": [doc(1.0, 100, 5, 7) for _ in range(3)],
            "b": [doc(0.8, calls_b, reps_b, crc_b) for _ in range(3)]}


def test_per_layer_records_skip_bypassed_layers_and_flag_moved_counts():
    """A layer reading 0 on both sides is left out; a count that moved
    is named, while host diagnostics (``host.reps``) may differ."""
    sides = _sides(calls_b=100, reps_b=9)
    layers = compare.summarize_layers(LAYER_BENCH, ["w"], sides)
    by_name = {r["metric"]: r for r in layers}
    assert set(by_name) == {"routers.commit_s", "core.rr_arb_calls",
                            "host.reps"}
    assert by_name["routers.commit_s"]["ratio"] == pytest.approx(0.8)
    assert by_name["core.rr_arb_calls"]["differs"] is False
    assert "differs" not in by_name["host.reps"]
    records = compare.summarize(LAYER_BENCH, ["w"], sides)
    assert compare.moved(records, layers) == []
    moved = _sides(calls_b=101)
    assert compare.moved(
        compare.summarize(LAYER_BENCH, ["w"], moved),
        compare.summarize_layers(LAYER_BENCH, ["w"], moved),
    ) == ["w/core.rr_arb_calls"]


def test_a_moved_result_crc_is_named():
    sides = _sides(calls_b=100, crc_b=8)
    records = compare.summarize(LAYER_BENCH, ["w"], sides)
    assert compare.moved(records, []) == ["w/crc32"]
