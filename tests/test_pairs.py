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
    assert ops["claim_rule_met"] is False  # 4 of 5 pairs is below 9 of 10
    assert (ops["unit"], ops["better"]) == ("1/s", "higher")
    assert ops["bound"] == 0.25
    assert ops["worse_by"] == pytest.approx(-13 / 12) and ops["within_bound"] is True

    p50 = out["latency_p50_ms"]
    assert (p50["change"]["q1"], p50["change"]["median"], p50["change"]["q3"]) == (101, 150, 160)
    assert p50["change_wins"] == 1
    assert p50["median_gap"] == 48 and p50["parent_iqr"] == 2
    assert p50["gap_exceeds_parent_iqr"] is True  # set for a regression too
    assert p50["claim_rule_met"] is False
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


_PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]  # median 104.5, IQR 4.5


@pytest.mark.parametrize(
    "change, met",
    [
        # 10 of 10 pairs better, median 10 above: the claim holds.
        ([v + 10 for v in _PARENT], True),
        # 9 wins and a tie: the tie counts for neither side, 9 of 10 is enough.
        ([v + 10 for v in _PARENT[:9]] + [109.0], True),
        # 8 wins and two ties: too few pairs.
        ([v + 10 for v in _PARENT[:8]] + [108.0, 109.0], False),
        # 8 wins and two losses, median far above: too few pairs.
        ([v + 10 for v in _PARENT[:8]] + [90.0, 90.0], False),
        # 10 of 10 pairs better by 1, a gap inside the parent IQR.
        ([v + 1 for v in _PARENT], False),
        # 10 of 10 pairs worse by 10: the gap exceeds the IQR the wrong way.
        ([v - 10 for v in _PARENT], False),
    ],
    ids=["wins_all", "nine_and_a_tie", "eight_and_two_ties", "eight_and_two_losses", "inside_iqr", "worse"],
)
def test_summarise_claim_rule(change, met):
    # The same series as ops_per_s (higher is better) and, mirrored, as
    # latency_p50_ms (lower is better): the rule must agree on both.
    runs = _runs(
        ops_per_s={"parent": _PARENT, "change": change},
        latency_p50_ms={"parent": [300 - v for v in _PARENT], "change": [300 - v for v in change]},
        peak_rss_mb={"parent": _PARENT, "change": _PARENT},
    )
    out = pairs.summarise(runs, END_TO_END)
    assert out["ops_per_s"]["parent_iqr"] == 4.5
    assert out["ops_per_s"]["claim_rule_met"] is met
    assert out["latency_p50_ms"]["claim_rule_met"] is met
    assert out["peak_rss_mb"]["claim_rule_met"] is False


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


def _tree(root, files):
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


def test_src_digest_names_the_source_tree(tmp_path):
    files = {"src/pkg/__init__.py": b"", "src/pkg/mod.py": b"x = 1\n", "README.md": b"outside src"}
    base = pairs.tree_digest(_tree(tmp_path / "a", files), ["src"])
    assert len(base) == 64
    # The same files elsewhere, without .git, and with bytecode and files
    # outside src/ added: the same digest.
    same = _tree(tmp_path / "b", files | {"src/pkg/__pycache__/mod.cpython-311.pyc": b"\0", "tests/t.py": b"1"})
    assert pairs.tree_digest(same, ["src"]) == base
    # One byte changed, a file renamed, or bytes moved between files: each differs.
    others = (
        files | {"src/pkg/mod.py": b"x = 2\n"},
        {"src/pkg/__init__.py": b"", "src/pkg/other.py": b"x = 1\n"},
        {"src/pkg/__init__.py": b"x", "src/pkg/mod.py": b" = 1\n"},
    )
    for i, other in enumerate(others):
        assert pairs.tree_digest(_tree(tmp_path / f"other{i}", other), ["src"]) != base


def test_bench_digest_names_the_benchmark_code(tmp_path, monkeypatch):
    files = {
        "BENCHMARK.json": b'{"command": ["python3", "perfbench/run.py"], "run_seconds": 1, "paths": ["perfbench"]}',
        "perfbench/run.py": b"print(1)\n",
        "src/pkg/mod.py": b"x = 1\n",
    }
    base = pairs.bench_digest(_tree(tmp_path / "a", files))
    assert pairs.bench_digest(_tree(tmp_path / "b", files)) == base
    # A change under src/ is the change being measured: the same digest.
    assert pairs.bench_digest(_tree(tmp_path / "c", files | {"src/pkg/mod.py": b"x = 2\n"})) == base
    # One byte changed under perfbench/ or in BENCHMARK.json: each differs.
    others = (
        files | {"perfbench/run.py": b"print(2)\n"},
        files | {"BENCHMARK.json": files["BENCHMARK.json"].replace(b"1", b"2")},
    )
    for i, other in enumerate(others):
        assert pairs.bench_digest(_tree(tmp_path / f"other{i}", other)) != base
    # main refuses such a pair before any run.
    monkeypatch.setattr(pairs, "run_once", lambda *args: pytest.fail("a run was started"))
    argv = ["--parent", str(tmp_path / "a"), "--change", str(tmp_path / "other0")]
    argv += ["--workload", "exact", "--seeds", "1-2", "--label", "x", "--out-dir", str(tmp_path)]
    with pytest.raises(SystemExit) as exit_info:
        pairs.main(argv)
    assert exit_info.value.code == 2
    assert not (tmp_path / "BENCH_x.json").exists()


_STDOUT = """workload: sampled
metric ops_per_s = 88.9 1/s
metric host_speed_factor = 0.8123 ratio
metric cpu.ops_per_s = 108.5 1/s
metric cpu.latency_p50_ms = 5.25 ms
metric cpu.latency_p90_ms = 31.0 ms
metric wall.ops_per_s = 101.0 1/s
note: metric host_speed_factor = 9.9 ratio
checks: ok=400; failed=0
{"correct": true, "attempted": 400, "failed": 0, "metrics": {"ops_per_s": {"value": 88.9, "unit": "1/s"}}}
"""


def test_parse_run_keeps_the_result_and_the_diagnostics():
    run = pairs.parse_run(_STDOUT)
    assert (run["correct"], run["attempted"], run["failed"]) == (True, 400, 0)
    assert run["metrics"] == {"ops_per_s": {"value": 88.9, "unit": "1/s"}}
    # Only the four diagnostics, and only from lines that are metric lines.
    assert run["diagnostics"] == {
        "host_speed_factor": 0.8123,
        "cpu.ops_per_s": 108.5,
        "cpu.latency_p50_ms": 5.25,
        "cpu.latency_p90_ms": 31.0,
    }
    # A workload without a calibration kernel prints none of them.
    bare = pairs.parse_run("metric ops_per_s = 10.0 1/s\n" + _STDOUT.splitlines()[-1])
    assert bare["diagnostics"] == {}


def test_diagnostics_are_per_side_medians():
    runs = []
    for side, factors in (("parent", [0.68, 0.74, 0.70]), ("change", [0.80, 0.84, 0.82])):
        for i, factor in enumerate(factors):
            diag = {"host_speed_factor": factor}
            if i:  # a diagnostic missing from a run is left out of its median
                diag["cpu.ops_per_s"] = 100.0 + 10 * i
            runs.append({"side": side, "diagnostics": diag})
    out = pairs.diagnostics(runs)
    assert out["parent"] == {"host_speed_factor": 0.70, "cpu.ops_per_s": 115.0}
    assert out["change"] == {"host_speed_factor": 0.82, "cpu.ops_per_s": 115.0}
    assert pairs.diagnostics([]) == {"parent": {}, "change": {}}
