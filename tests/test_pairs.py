"""benchmarks/pairs.py on fabricated run records: no subprocess, no benchmark run."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("pairs", Path(__file__).resolve().parents[1] / "benchmarks" / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

END_TO_END = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2},
]


def _runs(failed=None, **series):
    """Run records in the shape ``main`` keeps: one per side and pair, metric -> {"value": v}.

    Each run attempts 100 operations; ``failed`` maps a side to its runs'
    failure counts (none by default), and a run with failures is not correct.
    """
    runs = []
    for side in pairs.SIDES:
        for i in range(len(series["ops_per_s"][side])):
            metrics = {name: {"value": values[side][i]} for name, values in series.items()}
            fails = failed[side][i] if failed else 0
            runs.append(
                {
                    "seed": 900 + i,
                    "side": side,
                    "correct": not fails,
                    "attempted": 100,
                    "failed": fails,
                    "metrics": metrics,
                }
            )
    return runs


def test_parse_seeds_ranges_lists_and_mixed():
    assert pairs.parse_seeds("601-604") == [601, 602, 603, 604]
    assert pairs.parse_seeds("601,605,990") == [601, 605, 990]
    assert pairs.parse_seeds("1-3,7,10-11") == [1, 2, 3, 7, 10, 11]
    assert pairs.parse_seeds("5") == [5]
    with pytest.raises(ValueError):
        pairs.parse_seeds("")
    with pytest.raises(ValueError):
        pairs.parse_seeds("a-b")


def test_summarise_medians_quartiles_wins_and_gap():
    runs = _runs(
        # Higher is better; the change is better and the pair at 11 is a tie.
        ops_per_s={"parent": [10, 11, 12, 13, 14], "change": [20, 11, 30, 25, 26]},
        # Lower is better; the change is worse, wins one pair and ties one.
        latency_p50_ms={"parent": [100, 101, 102, 103, 104], "change": [150, 101, 160, 90, 170]},
        # Lower is better; the change is a little worse in every pair.
        peak_rss_mb={"parent": [50, 52, 54, 56, 58], "change": [51, 53, 55, 57, 59]},
    )
    out = pairs.summarise(runs, END_TO_END)

    ops = out["ops_per_s"]
    assert (ops["parent"]["q1"], ops["parent"]["median"], ops["parent"]["q3"]) == (11, 12, 13)
    assert (ops["change"]["q1"], ops["change"]["median"], ops["change"]["q3"]) == (20, 25, 26)
    assert ops["change_wins"] == 4 and ops["pairs"] == 5
    assert ops["median_gap"] == 13 and ops["parent_iqr"] == 2
    assert ops["gap_exceeds_parent_iqr"] is True
    assert (ops["unit"], ops["better"]) == ("1/s", "higher")
    assert ops["bound"] == 0.25
    assert ops["worse_by"] == pytest.approx(-13 / 12) and ops["within_bound"] is True

    p50 = out["latency_p50_ms"]
    assert (p50["change"]["q1"], p50["change"]["median"], p50["change"]["q3"]) == (101, 150, 160)
    assert p50["change_wins"] == 1
    assert p50["median_gap"] == 48 and p50["parent_iqr"] == 2
    assert p50["gap_exceeds_parent_iqr"] is True  # set for a regression too
    assert p50["worse_by"] == pytest.approx(48 / 102) and p50["within_bound"] is False

    rss = out["peak_rss_mb"]
    assert rss["change_wins"] == 0
    assert rss["median_gap"] == 1 and rss["parent_iqr"] == 4
    assert rss["gap_exceeds_parent_iqr"] is False
    assert rss["bound"] == 0.2
    assert rss["worse_by"] == pytest.approx(1 / 54) and rss["within_bound"] is True


def test_summarise_ties_count_for_neither_side():
    same = {"parent": [3.0, 3.0, 3.0], "change": [3.0, 3.0, 3.0]}
    out = pairs.summarise(_runs(ops_per_s=same, latency_p50_ms=same, peak_rss_mb=same), END_TO_END)
    for name in ("ops_per_s", "latency_p50_ms", "peak_rss_mb"):
        assert out[name]["change_wins"] == 0
        assert out[name]["median_gap"] == 0.0
        assert out[name]["gap_exceeds_parent_iqr"] is False
        assert out[name]["worse_by"] == 0.0 and out[name]["within_bound"] is True


def test_operations_when_the_change_fails_more():
    same = {"parent": [3.0, 3.0, 3.0], "change": [3.0, 3.0, 3.0]}
    runs = _runs(failed={"parent": [0, 1, 0], "change": [2, 0, 1]}, ops_per_s=same)
    out = pairs.operations(runs)
    assert out["parent"] == {"attempted": 300, "failed": 1, "failed_share": 1 / 300, "all_correct": False}
    assert out["change"] == {"attempted": 300, "failed": 3, "failed_share": 3 / 300, "all_correct": False}
    assert out["failed_share_not_higher"] is False


def test_operations_when_neither_side_fails():
    same = {"parent": [3.0, 3.0], "change": [3.0, 3.0]}
    out = pairs.operations(_runs(ops_per_s=same))
    for side in pairs.SIDES:
        assert out[side] == {"attempted": 200, "failed": 0, "failed_share": 0.0, "all_correct": True}
    assert out["failed_share_not_higher"] is True
