"""Alternating parent/change runs of the kscolour benchmark.

Usage, with two checkouts of the repository (for example made with
``git archive``):

    python3 benchmarks/pairs.py --parent DIR --change DIR --workload exact \\
        --seeds 601-610 --label NAME [--out-dir .]

For each seed it runs the ``command`` of the change's ``BENCHMARK.json``
with ``--workload W --seed S --seconds T --trace 0``, T being that
file's ``run_seconds``, once in each checkout, one after the other.
Which side goes first alternates from pair to pair, so a slow phase of
the host does not always fall on the same side.  It reads the JSON result line that each
run prints last, and the ``metric NAME = VALUE UNIT`` lines of the
DIAGNOSTICS that it prints before it, and writes ``BENCH_<label>.json``
holding:

- per end-to-end metric of the change's ``BENCHMARK.json``: each side's
  median and quartiles, the number of pairs the change wins, whether
  the gap between the medians exceeds the parent's quartile spread,
  ``claim_rule_met`` (the change wins at least 9 of every 10 pairs,
  ties counting for neither side, and its median is better than the
  parent's by more than that spread), and ``worse_by``, the change's
  median relative to the parent's (positive when worse), with
  ``within_bound`` telling whether it is at most the metric's
  ``bound``;
- per side: the operations ``attempted`` and ``failed`` over all its
  runs, ``failed_share`` (failed over attempted) and ``all_correct``
  (every run's checks passed), and ``failed_share_not_higher``,
  whether the change's failed share is at most the parent's;
- per run: seed, side, order, ``correct``, ``attempted``, ``failed``,
  every metric and its ``diagnostics``;
- ``diagnostics``: per side, the median of each diagnostic over the
  runs that print it.  These explain a metric and gate nothing: a
  change in ``host_speed_factor`` moves the scaled times of the
  workloads that calibrate, and the ``cpu.*`` figures are the same
  times undivided;
- the machine, the Python and numpy versions, the seeds and the
  number of repeats;
- ``src_sha256``, per side a SHA-256 over the sorted paths and bytes
  of the files under its ``src/`` (``__pycache__`` left out), so the
  record names the code it measured, with or without ``.git``.

Only the standard library is used.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
DIAGNOSTICS = ("host_speed_factor", "cpu.ops_per_s", "cpu.latency_p50_ms", "cpu.latency_p90_ms")


def parse_seeds(text: str) -> list[int]:
    """``601-610`` or ``601,605,990`` (ranges and lists may be mixed)."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError("no seeds given")
    return seeds


def parse_run(stdout: str) -> dict:
    """A run's final JSON result line, with the DIAGNOSTICS it prints as ``diagnostics``."""
    *lines, last = stdout.strip().splitlines()
    diagnostics = {}
    for line in lines:
        fields = line.split()
        if len(fields) == 5 and fields[0] == "metric" and fields[1] in DIAGNOSTICS and fields[2] == "=":
            diagnostics[fields[1]] = float(fields[3])
    return {**json.loads(last), "diagnostics": diagnostics}


def run_once(root: Path, command: list[str], workload: str, seed: int) -> dict:
    """One benchmark run of ``command`` in ``root``, parsed by ``parse_run``."""
    cmd = [*command, "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return parse_run(proc.stdout)


def src_digest(root: Path) -> str:
    """SHA-256 over the sorted relative paths and bytes of every file under ``root/src``.

    Each file adds its path, a NUL, its byte length, a NUL and its
    bytes, so no two trees share a stream.  Files under ``__pycache__``,
    which running the benchmark writes, are left out.
    """
    digest = hashlib.sha256()
    files = (p for p in (root / "src").rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    for path in sorted(files):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
    }


def summarise(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Medians, quartiles, win counts and the bound check per end-to-end metric."""
    out = {}
    for spec in end_to_end:
        name = spec["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs if r["side"] == side] for side in SIDES}
        higher = spec["better"] == "higher"
        wins = sum((c > p) if higher else (c < p) for p, c in zip(values["parent"], values["change"]))
        stats = {}
        for side in SIDES:
            q1, median, q3 = statistics.quantiles(values[side], n=4, method="inclusive")
            stats[side] = {"median": median, "q1": q1, "q3": q3}
        gap = stats["change"]["median"] - stats["parent"]["median"]
        gain = gap if higher else -gap
        worse_by = -gain / stats["parent"]["median"]
        parent_iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        pairs = len(values["parent"])
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            **stats,
            "change_wins": wins,
            "pairs": pairs,
            "median_gap": gap,
            "parent_iqr": parent_iqr,
            "gap_exceeds_parent_iqr": abs(gap) > parent_iqr,
            "claim_rule_met": 10 * wins >= 9 * pairs and gain > parent_iqr,
            "bound": spec["bound"],
            "worse_by": worse_by,
            "within_bound": worse_by <= spec["bound"],
        }
    return out


def operations(runs: list[dict]) -> dict:
    """Per side, the operations attempted and failed and whether every run was correct."""
    out = {}
    for side in SIDES:
        mine = [r for r in runs if r["side"] == side]
        attempted = sum(r["attempted"] for r in mine)
        failed = sum(r["failed"] for r in mine)
        out[side] = {
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted if attempted else 0.0,
            "all_correct": all(r["correct"] for r in mine),
        }
    out["failed_share_not_higher"] = out["change"]["failed_share"] <= out["parent"]["failed_share"]
    return out


def diagnostics(runs: list[dict]) -> dict:
    """Per side, the median of each diagnostic over the runs that print it."""
    out = {}
    for side in SIDES:
        values: dict[str, list[float]] = {}
        for r in runs:
            if r["side"] == side:
                for name, value in r["diagnostics"].items():
                    values.setdefault(name, []).append(value)
        out[side] = {name: statistics.median(v) for name, v in values.items()}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="benchmark workload, e.g. exact")
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 601-610; one pair per seed")
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--out-dir", type=Path, default=Path("."), help="where BENCH_<label>.json goes")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two pairs")
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    command = [*spec["command"], "--seconds", str(spec["run_seconds"]), "--trace", "0"]

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    src_sha256 = {side: src_digest(roots[side]) for side in SIDES}
    runs = []
    for index, seed in enumerate(args.seeds):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            result = run_once(roots[side], command, args.workload, seed)
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"seed {seed} {side}: failed {result['failed']}/{result['attempted']} {metrics}", file=sys.stderr)
            runs.append({"seed": seed, "side": side, "first": position == 0, **result})

    record = {
        "label": args.label,
        "workload": args.workload,
        "command": " ".join([*command, "--workload", args.workload, "--seed", "S"]),
        "machine": machine(),
        "seeds": args.seeds,
        "repeats": len(args.seeds),
        "src_sha256": src_sha256,
        "end_to_end": summarise(runs, spec["end_to_end"]),
        "operations": operations(runs),
        "diagnostics": diagnostics(runs),
        "runs": [
            {k: r[k] for k in ("seed", "side", "first", "correct", "attempted", "failed", "diagnostics")}
            | {"metrics": {k: v["value"] for k, v in r["metrics"].items()}}
            for r in runs
        ],
    }
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
