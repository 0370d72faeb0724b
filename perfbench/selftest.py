"""Self-test of the benchmark at tiny sizes.

Run from the root of a kscolour checkout:

    python3 perfbench/selftest.py

It checks that every workload prints each end-to-end metric (untraced)
and each per-layer metric (traced) named in BENCHMARK.json, with its
unit and a well-formed name; that the pinned N = 8 and 16 basis
fractions agree with a fresh row-only sample; that a deliberately
wrong reference is counted as a failure; and that the benchmark
refuses to run, printing no result, in a directory holding only
BENCHMARK.json and perfbench/.
Exits 0 when all checks pass.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import references, run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = {"seed": 7, "seconds": 0.2, "min_requests": 1, "setup_probes": 1}


def _check_metrics(label: str, lines: list[str], result: dict, spec_metrics: list[dict], problems: list[str]) -> None:
    expected = {m["name"]: m["unit"] for m in spec_metrics}
    got = result["metrics"]
    if set(got) != set(expected):
        problems.append(f"{label}: metric names differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}")
    for name, entry in got.items():
        if not NAME.fullmatch(name):
            problems.append(f"{label}: malformed metric name {name!r}")
        if entry["unit"] != expected.get(name):
            problems.append(f"{label}: {name} has unit {entry['unit']!r}, BENCHMARK.json says {expected.get(name)!r}")
        if not any(line.startswith(f"metric {name} = ") and line.endswith(" " + entry["unit"]) for line in lines):
            problems.append(f"{label}: {name} is not printed with its unit")
    if not result["correct"] or result["attempted"] < 1:
        problems.append(f"{label}: run not correct or empty: {json.dumps(result)[:300]}")


def _check_bare_directory(problems: list[str]) -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        lines, result = run.measure(workload, trace=False, **TINY)
        _check_metrics(f"{workload} untraced", lines, result, spec["end_to_end"], problems)
        lines, result = run.measure(workload, trace=True, **TINY)
        _check_metrics(f"{workload} traced", lines, result, spec["per_layer"], problems)
        print(f"selftest: {workload} ran untraced and traced", flush=True)

    for dim in (8, 16):
        rows = 1 << 18
        value, _ = references.row_only_basis_fraction(dim, rows, seed=1)
        if not references.binomial_check(round(value * rows), rows, *references.References().basis_fraction(dim))[1]:
            problems.append(f"pinned N={dim} basis fraction disagrees with a fresh row-only sample")
    print("selftest: pinned N=8 and N=16 basis fractions reproduce", flush=True)

    for workload, wrong in (("exact", {"basis_3d": 0.69}), ("sampled", {"haar_4d": 0.40})):
        refs = dataclasses.replace(references.References(), **wrong)
        lines, result = run.measure(workload, trace=False, refs=refs, **TINY)
        error_rate = next(float(line.split()[3]) for line in lines if line.startswith("metric error_rate = "))
        if result["failed"] < 1 or error_rate <= 0.0 or result["correct"]:
            problems.append(f"{workload}: wrong reference {wrong} not counted as a failure")
    print("selftest: wrong references are counted in error_rate", flush=True)

    _check_bare_directory(problems)
    print("selftest: bare directory refused", flush=True)

    for p in problems:
        print("selftest FAIL:", p)
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
