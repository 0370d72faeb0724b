"""kscolour benchmark: one closed-loop client, one workload per run.

Usage, from the root of a kscolour checkout:

    python3 perfbench/run.py --workload {exact,sampled,cli} --seed N --seconds S --trace {0,1}

The benchmark imports kscolour from ``src/`` of the checkout it sits in.
With ``--trace 0`` it measures end-to-end metrics; with ``--trace 1`` it
runs the stream untraced for half the time and traced for the other
half, and reports per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are a readable report with the environment and every metric.
"""

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

ROOT = Path(__file__).resolve().parent.parent
MIN_REQUESTS = 100  # so at least 10 latencies lie beyond p90
SETUP_PROBES = 5


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_package():
    """Import kscolour and the benchmark modules from this checkout only."""
    src = ROOT / "src"
    if not (src / "kscolour" / "__init__.py").is_file():
        _fail(f"no kscolour sources under {src}; run from a kscolour checkout")
    sys.path[:0] = [str(src), str(ROOT)]
    import kscolour

    if Path(kscolour.__file__).resolve().parent != (src / "kscolour").resolve():
        _fail(f"imported kscolour from {kscolour.__file__}, not from {src}")
    from perfbench import references, tracing, workloads

    return references, tracing, workloads


def environment() -> dict:
    """Where and on what the run happened."""
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "not importable (oracle checks skipped)"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
    }


def children_cpu_seconds() -> float:
    """User plus system CPU seconds of all waited-for child processes."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_stream(wl, seed: int, seconds: float, min_requests: int, tracer=None) -> dict:
    """Closed loop: whole blocks until ``seconds`` have passed and ``min_requests`` are done.

    Each request is timed twice: wall clock, and the CPU time kscolour
    spent on it (this process's CPU time in process, the child's on the
    command line).  The CPU time leaves out time the hypervisor stole.
    For a workload with a calibration kernel, the kernel runs between
    blocks, and each block's CPU times are divided by its speed factor:
    the mean CPU time of the kernels before and after the block over the
    kernel's nominal time (above 1 while the host is slow).
    """
    cpu_clock = time.process_time if wl.in_process else children_cpu_seconds
    rng = random.Random(seed)
    cpu: list[float] = []
    scaled: list[float] = []
    wall: dict[str, list[float]] = {}
    factors: list[float] = []
    failed = 0

    def kernel_seconds() -> float:
        k0 = time.process_time()
        wl.calibrate()
        return time.process_time() - k0

    calibrated = wl.calibration_s is not None
    before = kernel_seconds() if calibrated else 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(cpu) < min_requests:
        block_cpu = []
        for req in wl.block(rng):
            if tracer is not None:
                root = tracer.open_request(len(cpu) + len(block_cpu))
            w0 = time.perf_counter()
            c0 = cpu_clock()
            try:
                result = wl.execute(req)
            except Exception as exc:  # a failed request is counted, not fatal
                result = exc
            c1 = cpu_clock()
            w1 = time.perf_counter()
            if tracer is not None:
                tracer.close_request(req.kind, root)
            block_cpu.append(c1 - c0)
            wall.setdefault(req.kind, []).append(w1 - w0)
            if wl.judge(req, result) != "ok":
                failed += 1
        factor = 1.0
        if calibrated:
            after = kernel_seconds()
            factor = 0.5 * (before + after) / wl.calibration_s
            before = after
        factors.append(factor)
        cpu += block_cpu
        scaled += [t / factor for t in block_cpu]
    return {"cpu": cpu, "scaled": scaled, "wall": wall, "failed": failed, "speed": statistics.median(factors)}


def setup_probe_seconds(workload: str, seed: int, probes: int) -> tuple[list[float], list[float]]:
    """CPU and wall seconds of fresh processes that set the workload up and stop before the first request."""
    cpu, wall = [], []
    for _ in range(probes):
        c0 = children_cpu_seconds()
        w0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        wall.append(time.perf_counter() - w0)
        cpu.append(children_cpu_seconds() - c0)
        if proc.returncode != 0:
            _fail(f"set-up probe failed: {proc.stderr.strip()}")
    return cpu, wall


def cli_floor_ms(samples: int = 5) -> tuple[float, float]:
    """Median CPU ms of ``python -c pass`` and of ``python -c "import kscolour"``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = []
    for code in ("pass", "import kscolour"):
        times = []
        for _ in range(samples):
            c0 = children_cpu_seconds()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=60)
            times.append(1e3 * (children_cpu_seconds() - c0))
        out.append(statistics.median(times))
    return out[0], out[1]


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    refs=None,
    min_requests: int = MIN_REQUESTS,
    setup_probes: int = SETUP_PROBES,
) -> tuple[list[str], dict]:
    """Run one workload; return the report lines and the result object."""
    references, tracing, workloads = _import_package()
    wl = workloads.WORKLOADS[name](ROOT, refs or references.References())
    wl.setup()
    env = environment()
    lines = [
        f"perfbench workload={name} seed={seed} seconds={seconds} trace={int(trace)}",
        "environment: " + " ".join(f"{k}={v!r}" for k, v in env.items()),
    ]
    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        run = run_stream(wl, seed, seconds, min_requests)
        wl.probe()
        usage = resource.getrusage(resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN)
        raw = sorted(run["cpu"])
        lat = sorted(run["scaled"])
        walls = sorted(w for ws in run["wall"].values() for w in ws)
        n = len(lat)
        p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
        probe_cpu, probe_wall = setup_probe_seconds(name, seed, setup_probes)
        metrics = {
            "setup_s": (statistics.median(probe_cpu), "s"),
            "ops_per_s": (n / sum(lat), "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "latency_p90_ms": (1e3 * p90, "ms"),
            "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
        }
        info = {
            "error_rate": (run["failed"] / n, "1"),
            "wall.setup_s": (statistics.median(probe_wall), "s"),
            "wall.ops_per_s": (n / sum(walls), "1/s"),
            "wall.latency_p50_ms": (1e3 * statistics.median(walls), "ms"),
            "wall.latency_p90_ms": (1e3 * statistics.quantiles(walls, n=10, method="inclusive")[8], "ms"),
        }
        if wl.stats.draws:
            info["samples_per_s"] = (wl.stats.draws / sum(lat), "1/s")
        if wl.calibration_s is not None:
            info["host_speed_factor"] = (run["speed"], "ratio")
            info["cpu.ops_per_s"] = (n / sum(raw), "1/s")
            info["cpu.latency_p50_ms"] = (1e3 * statistics.median(raw), "ms")
            info["cpu.latency_p90_ms"] = (1e3 * statistics.quantiles(raw, n=10, method="inclusive")[8], "ms")
        lines.append(
            f"requests: {n} in whole blocks; p50 and p90 over {n} latencies, "
            f"{sum(1 for x in lat if x > p90)} of them beyond p90"
        )
        lines.append(
            "times are CPU time spent by kscolour (in process, or by the child on cli); "
            "wall.* repeat them by wall clock, which includes time the hypervisor stole"
        )
        if wl.calibration_s is not None:
            lines.append(
                "request times are divided by their block's speed factor (calibration kernel CPU time "
                "over its nominal time; host_speed_factor is the median); cpu.* are the undivided CPU times"
            )
        lines.append("set-up probes (CPU s): " + " ".join(f"{t:.4f}" for t in probe_cpu))
        attempted, failed = n, run["failed"]
    else:
        half = seconds / 2.0
        plain = run_stream(wl, seed, half, 1)
        tracer = tracing.Tracer()
        if wl.in_process:
            tracer.install()
        try:
            traced = run_stream(wl, seed, half, 1, tracer)
        finally:
            tracer.uninstall()
        wl.probe()
        attempted = len(plain["cpu"]) + len(traced["cpu"])
        failed = plain["failed"] + traced["failed"]
        untraced_rate = len(plain["scaled"]) / sum(plain["scaled"])
        traced_rate = len(traced["scaled"]) / sum(traced["scaled"])
        metrics = tracer.layer_metrics(len(traced["cpu"]))
        metrics["area.oracle.max_rel_err"] = (wl.stats.max_rel_err, "ratio")
        metrics["area.large_n.misses"] = (wl.large_n_misses(), "count")
        metrics["montecarlo.max_abs_z"] = (wl.stats.max_abs_z, "sigma")
        metrics.update(cli_metrics(wl, plain["wall"], traced["wall"]))
        metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
        metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
        metrics["trace.overhead_ratio"] = (untraced_rate / traced_rate, "ratio")
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{name}-seed{seed}.json"
        tracer.write_spans(spans_path)
        lines.append(
            f"traced: {len(traced['cpu'])} requests, untraced: {len(plain['cpu'])}; "
            f"{tracer.span_count} spans, written to {spans_path.relative_to(ROOT)}"
        )
        info = {"error_rate": (failed / attempted, "1")}
    for key, (value, unit) in list(metrics.items()) + list(info.items()):
        lines.append(f"metric {key} = {value!r} {unit}")
    lines.append(
        "checks: " + ", ".join(f"{k}={v}" for k, v in sorted(wl.stats.outcomes.items())) + f"; failed={failed}"
    )
    for reason, count in wl.stats.skipped.items():
        lines.append(f"checks SKIPPED, not passed: {count} x {reason}")
    lines.extend(wl.report())
    lines.extend("failure: " + d for d in wl.stats.details)
    result = {
        "correct": wl.stats.outcomes["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return lines, result


def cli_metrics(wl, *walls_by_kind: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the command line; zero when the workload ran in process."""
    out: dict[str, tuple[float, str]] = {}
    floor, imported = cli_floor_ms() if not wl.in_process else (0.0, 0.0)
    out["cli.interpreter_ms"] = (floor, "ms")
    out["cli.import_ms"] = (imported - floor, "ms")
    for sub in ("area", "scan", "scan_out", "limit", "basis_quadrature", "basis_montecarlo", "verify"):
        walls = [w for by_kind in walls_by_kind if not wl.in_process for w in by_kind.get(sub, [])]
        out[f"cli.{sub}.wall_ms"] = (1e3 * statistics.median(walls) if walls else 0.0, "ms")
    out["cli.exit_code_mismatches"] = (getattr(wl, "exit_code_mismatches", 0), "count")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("exact", "sampled", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.setup_probe:
        references, _, workloads = _import_package()
        workloads.WORKLOADS[args.workload](ROOT, references.References()).setup()
        return 0
    lines, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
