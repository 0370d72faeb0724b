import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from kscolour import __version__, area, cli, montecarlo
from kscolour.area import argmin_total, total_fraction
from kscolour.cli import DIM4_DISCREPANCY_NOTICE, EXIT_VERIFICATION, main
from kscolour.numerics import QuadratureError

from helpers import bounds_stand_in

GOLDEN_SCAN_3_TO_6 = (
    "N,white_fraction,black_fraction,total_fraction\n"
    "3,0.57735026919,0.292893218813,0.870243488003\n"
    "4,0.608997781044,0.181690113816,0.79068789486\n"
    "5,0.6260990337,0.116116523517,0.742215557217\n"
    "6,0.636782532351,0.0755868184216,0.712369350772\n"
)

GOLDEN_BASIS_3 = (
    "dimension: 3\n"
    "method: quadrature\n"
    "raw integral: 1.45719521962\n"
    "normalizer: 6.28318530718\n"
    "combinatorial factor: 3\n"
    "fully coloured basis fraction: 0.695759466758 (69.576%)\n"
)

GOLDEN_BASIS_4 = (
    "dimension: 4\n"
    "method: quadrature\n"
    "raw integral: 0.842901359552\n"
    "normalizer: 9.86960440109\n"
    "combinatorial factor: 4\n"
    "fully coloured basis fraction: 0.341615053774 (34.162%)\n"
)

# The sampling commands' whole stdout, which perfbench reads by regex.
_MC_HEADER = "method: montecarlo\nrng: philox4x64 (chunks of 65536 keyed by seed and chunk index)\n"
GOLDEN_SAMPLING = {
    "verify_dim3": (
        ("verify", "--dim", "3", "--samples", "20000", "--seed", "7"),
        "dimension: 3\n"
        "samples: 20000\n"
        "seed: 7\n"
        "rng: philox4x64\n"
        "orthogonal black pairs: 0\n"
        "all-white bases: 0\n"
        "fully coloured without exactly one black: 0\n"
        "result: PASS\n",
    ),
    "basis_mc_dim3": (
        ("basis", "--dim", "3", "--method", "montecarlo", "--samples", "20000", "--seed", "7"),
        "dimension: 3\n" + _MC_HEADER + "samples: 20000\n"
        "seed: 7\n"
        "fully coloured basis fraction: 0.698300 +/- 0.003246\n"
        "quadrature fraction: 0.695759466758\n"
        "z-score vs quadrature: 0.78\n",
    ),
    "basis_mc_dim4": (
        ("basis", "--dim", "4", "--method", "montecarlo", "--samples", "20000", "--seed", "7"),
        "dimension: 4\n" + _MC_HEADER + "samples: 20000\n"
        "seed: 7\n"
        "fully coloured basis fraction: 0.455400 +/- 0.003521\n"
        "quadrature fraction: 0.341615053774\n"
        "z-score vs quadrature: 32.31\n"
        "notice: in dimension 4 the quadrature prescription and the Monte Carlo\n"
        "estimate disagree by far more than sampling error allows. The quadrature\n"
        "number is reported exactly as prescribed; the sampled number stands as an\n"
        "independent measurement of the fully-coloured-basis fraction.\n",
    ),
    "basis_mc_dim6": (
        ("basis", "--dim", "6", "--method", "montecarlo", "--samples", "20000", "--seed", "4"),
        "dimension: 6\n" + _MC_HEADER + "samples: 20000\n"
        "seed: 4\n"
        "fully coloured basis fraction: 0.161300 +/- 0.002601\n"
        "no quadrature prescription for this dimension; sampled value stands alone\n",
    ),
    # One sample gives a value of 0 or 1, and so a standard error of 0.
    "basis_mc_one_sample": (
        ("basis", "--dim", "3", "--method", "montecarlo", "--samples", "1", "--seed", "0"),
        "dimension: 3\n" + _MC_HEADER + "samples: 1\n"
        "seed: 0\n"
        "fully coloured basis fraction: 0.000000 +/- 0.000000\n"
        "quadrature fraction: 0.695759466758\n"
        "z-score vs quadrature: n/a (degenerate estimate)\n",
    ),
}

# The refusal of a dimension that converts to no float.
BEYOND_FLOAT = "dimension must be at most 1.7976931348623157e+308, the largest float"

# Runs the CLI with every import of numpy failing.
_WITHOUT_NUMPY = "import sys, runpy; sys.modules['numpy'] = None; runpy.run_module('kscolour', run_name='__main__')"


def run_cli(
    *args: str, env_extra: dict | None = None, timeout: float | None = None, without_numpy: bool = False
) -> subprocess.CompletedProcess:
    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    entry = ["-c", _WITHOUT_NUMPY] if without_numpy else ["-m", "kscolour"]
    return subprocess.run(
        [sys.executable, *entry, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def test_help_exits_zero():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "usage" in proc.stdout.lower()


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert __version__ in proc.stdout


def test_console_script_installed():
    # The entry point declared in pyproject.toml (read with a regex: Python
    # 3.10 has no tomllib) runs; the installed script is run too when it
    # is on PATH.
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
    assert scripts is not None
    assert re.findall(r'^kscolour\s*=\s*"([^"]*)"', scripts.group(1), re.M) == ["kscolour.cli:run"]
    commands = [[sys.executable, "-c", "from kscolour.cli import run; run()", "--version"]]
    exe = shutil.which("kscolour")
    if exe is not None:
        commands.append([exe, "--version"])
    for command in commands:
        proc = subprocess.run(command, capture_output=True, text=True)
        assert proc.returncode == 0 and __version__ in proc.stdout


def test_area_dim3():
    proc = run_cli("area", "--dim", "3")
    assert proc.returncode == 0
    assert "0.870243488003" in proc.stdout
    assert "0.57735026919" in proc.stdout


def test_area_rejects_low_dimension():
    proc = run_cli("area", "--dim", "2")
    assert proc.returncode == 1
    assert "at least 3" in proc.stderr


def test_missing_required_flag_is_usage_error():
    proc = run_cli("area")
    assert proc.returncode == 1


def test_unknown_command_is_usage_error():
    proc = run_cli("frobnicate")
    assert proc.returncode == 1


def test_scan_stdout_and_minimum_line():
    proc = run_cli("scan", "--from", "3", "--to", "20")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "N,white_fraction,black_fraction,total_fraction"
    assert "least total coloured fraction: N=13" in proc.stdout


def test_scan_csv_golden_bytes(tmp_path):
    out = tmp_path / "scan.csv"
    proc = run_cli("scan", "--from", "3", "--to", "6", "--out", str(out))
    assert proc.returncode == 0
    raw = out.read_bytes()
    assert raw == GOLDEN_SCAN_3_TO_6.encode("utf-8")
    assert b"\r" not in raw  # LF line endings only


def test_scan_manifest_sidecar(tmp_path):
    out = tmp_path / "rows.csv"
    proc = run_cli("scan", "--from", "3", "--to", "5", "--out", str(out))
    assert proc.returncode == 0
    manifest_path = tmp_path / "rows.csv.manifest.json"
    assert manifest_path.exists()
    manifest = json.loads(manifest_path.read_text())
    assert list(manifest) == ["command_line", "seed", "abs_tol", "rel_tol", "tool_version", "wall_time_s"]
    assert manifest["tool_version"] == __version__
    assert manifest["seed"] is None
    assert manifest["abs_tol"] == 1e-12
    assert manifest["rel_tol"] == 1e-10
    assert manifest["wall_time_s"] >= 0.0
    assert "scan" in manifest["command_line"]


def test_scan_manifest_records_the_argv_main_received(tmp_path, monkeypatch, capsys):
    # An embedding program's own argv must not leak into the manifest.
    monkeypatch.setattr(sys, "argv", ["some-host-program", "--flag"])
    out = tmp_path / "rows.csv"
    assert main(["scan", "--from", "3", "--to", "5", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "rows.csv.manifest.json").read_text())
    assert manifest["command_line"] == f"kscolour scan --from 3 --to 5 --out {out}"


def test_scan_manifest_command_line_is_shell_quoted(tmp_path, capsys):
    # A path with a space splits back into the argv the command ran with.
    (tmp_path / "sp ace").mkdir()
    argv = ["scan", "--from", "3", "--to", "5", "--out", str(tmp_path / "sp ace" / "a b.csv")]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "sp ace" / "a b.csv.manifest.json").read_text())
    assert shlex.split(manifest["command_line"]) == ["kscolour", *argv]


def test_scan_output_is_byte_stable(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    run_cli("scan", "--from", "3", "--to", "12", "--out", str(out1))
    run_cli("scan", "--from", "3", "--to", "12", "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_limit_default():
    proc = run_cli("limit")
    assert proc.returncode == 0
    assert proc.stdout.count("0.682689492137") >= 2  # limit and rescaled sum agree


def test_limit_single_term():
    proc = run_cli("limit", "--series-terms", "1")
    assert proc.returncode == 0
    assert "0.833333333333" in proc.stdout


def test_limit_huge_series_terms_returns_promptly():
    # Terms underflow to zero at k = 156; the sum must not walk on to 1e12.
    proc = run_cli("limit", "--series-terms", "1000000000000", timeout=30)
    assert proc.returncode == 0
    assert "partial sum through k=1000000000000: 0.855624391892" in proc.stdout


def test_basis_quadrature_values():
    proc3 = run_cli("basis", "--dim", "3", "--method", "quadrature")
    assert proc3.returncode == 0
    assert proc3.stdout == GOLDEN_BASIS_3
    proc4 = run_cli("basis", "--dim", "4")
    assert proc4.returncode == 0
    assert proc4.stdout == GOLDEN_BASIS_4


def test_basis_quadrature_high_dimension_is_usage_error():
    proc = run_cli("basis", "--dim", "5", "--method", "quadrature")
    assert proc.returncode == 1
    assert "montecarlo" in proc.stderr


def test_basis_montecarlo_dim3():
    proc = run_cli("basis", "--dim", "3", "--method", "montecarlo", "--samples", "200000", "--seed", "123")
    assert proc.returncode == 0
    assert "seed: 123" in proc.stdout
    assert "z-score vs quadrature:" in proc.stdout
    line = next(l for l in proc.stdout.splitlines() if l.startswith("fully coloured basis fraction:"))
    value = float(line.split(":")[1].split("+/-")[0])
    sigma = float(line.split("+/-")[1])
    assert abs(value - 0.6957594667583252) < 5.0 * sigma


@pytest.mark.parametrize("args, expected", list(GOLDEN_SAMPLING.values()), ids=list(GOLDEN_SAMPLING))
def test_sampling_stdout_golden_bytes(args, expected, capsys):
    assert main(list(args)) == 0
    assert capsys.readouterr().out == expected


def test_basis_montecarlo_dim3_disagreement_prints_generic_notice(monkeypatch, capsys):
    def far_from_quadrature(dim, samples, seed):
        return montecarlo.Estimate(0.5, samples, seed)

    monkeypatch.setattr(montecarlo, "estimate_basis_fraction", far_from_quadrature)
    assert main(["basis", "--dim", "3", "--method", "montecarlo", "--samples", "20000", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("notice: sampled and quadrature values disagree beyond 5 sigma\n")
    assert DIM4_DISCREPANCY_NOTICE not in out


def test_environment_sets_no_seed():
    # Only --seed or fresh entropy seeds a run; this variable, even unparsable, is ignored.
    env = {"KSCOLOUR_SEED": "not-a-number"}
    seeded = run_cli("verify", "--dim", "3", "--samples", "2000", "--seed", "7", env_extra=env)
    assert seeded.returncode == 0, seeded.stderr
    assert "\nseed: 7\n" in seeded.stdout
    drawn = run_cli("verify", "--dim", "3", "--samples", "2000", env_extra=env)
    assert drawn.returncode == 0, drawn.stderr


def test_missing_seed_draws_entropy_and_prints_it():
    a = run_cli("verify", "--dim", "3", "--samples", "2000")
    b = run_cli("verify", "--dim", "3", "--samples", "2000")
    seed_a = next(l for l in a.stdout.splitlines() if l.startswith("seed:"))
    seed_b = next(l for l in b.stdout.splitlines() if l.startswith("seed:"))
    assert seed_a != seed_b


def test_unreachable_tolerance_is_numerical_failure():
    proc = run_cli("area", "--dim", "3", "--abs-tol", "1e-300", "--rel-tol", "1e-300")
    assert proc.returncode == 2
    assert "numerical failure" in proc.stderr


def test_area_black_alone_out_of_reach_is_numerical_failure(capsys):
    # White(200) meets rel 1e-14 and Black(200) does not.
    assert main(["area", "--dim", "200", "--abs-tol", "1e-300", "--rel-tol", "1e-14"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical failure: error bound 2.182e-45 exceeds")
    assert err.endswith("8.868775e-32)\n")


def test_basis_4d_unreachable_tolerance_is_numerical_failure(capsys):
    # The requested tolerances reach the 4D closed form unchanged, so one
    # below what doubles resolve fails there as it does in dimension 3.
    assert main(["basis", "--dim", "4", "--abs-tol", "1e-16", "--rel-tol", "1e-16"]) == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, code",
    [
        (["--dim", "5", "--method", "quadrature"], 1),
        (["--dim", "3", "--method", "montecarlo", "--samples", "0"], 1),
        (["--dim", "3", "--method", "montecarlo", "--samples", "10", "--seed", "-1"], 1),
        (["--dim", "4", "--abs-tol", "1e-16", "--rel-tol", "1e-16"], 2),
        (["--dim", "3", "--abs-tol", "1e-16", "--rel-tol", "1e-16"], 2),
        (
            ["--dim", "3", "--method", "montecarlo", "--samples", "10", "--seed", "1"]
            + ["--abs-tol", "1e-300", "--rel-tol", "1e-300"],
            2,
        ),
    ],
    ids=[
        "quadrature_dim5",
        "zero_samples",
        "negative_seed",
        "unreachable_tolerance",
        "unreachable_tolerance_3d",
        "unreachable_tolerance_montecarlo",
    ],
)
def test_basis_failure_leaves_stdout_empty(args, code, capsys):
    assert main(["basis", *args]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err


def test_basis_montecarlo_checks_the_tolerance_before_sampling(monkeypatch, capsys):
    def no_sampling(*args):
        raise AssertionError("sampled although the reference cannot be certified")

    monkeypatch.setattr(montecarlo, "estimate_basis_fraction", no_sampling)
    args = ["basis", "--dim", "4", "--method", "montecarlo", "--samples", "10", "--seed", "1"]
    assert main([*args, "--abs-tol", "1e-300", "--rel-tol", "1e-300"]) == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (["area", "--dim", "2"], "dimension must be at least 3, got 2"),
        (["scan", "--from", "2", "--to", "5"], "dimension must be at least 3, got 2"),
        (["scan", "--from", "5", "--to", "4"], "empty scan range [5, 4]"),
        (["area", "--dim", str(10**400)], BEYOND_FLOAT),
        (["scan", "--from", str(10**400), "--to", str(10**400)], BEYOND_FLOAT),
        (["limit", "--series-terms", "-1"], "k_max must be non-negative, got -1"),
        (["basis", "--dim", "2"], "dimension must be at least 3, got 2"),
        (["basis", "--dim", "2", "--method", "montecarlo"], "dimension must be at least 3, got 2"),
        (["basis", "--dim", "3", "--method", "montecarlo", "--samples", "0"], "samples must be positive, got 0"),
        (["verify", "--dim", "2"], "dimension must be at least 3, got 2"),
        (["verify", "--dim", "3", "--samples", "0"], "samples must be positive, got 0"),
    ],
    ids=[
        "area_dim2",
        "scan_from2",
        "scan_empty",
        "area_beyond_float",
        "scan_beyond_float",
        "limit_negative",
        "basis_dim2",
        "basis_mc_dim2",
        "basis_zero_samples",
        "verify_dim2",
        "verify_zero_samples",
    ],
)
def test_library_refusals_are_usage_errors(args, message, monkeypatch, capsys):
    # The CLI keeps no copies of these checks: the library's own message
    # reaches stderr, and nothing reaches stdout.  A sampling run without
    # --seed is refused before a seed is drawn from entropy.
    import secrets

    def no_entropy(bits):
        raise AssertionError("drew entropy")

    monkeypatch.setattr(secrets, "randbits", no_entropy)
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("target", ["missing_dir", "directory"])
def test_scan_unwritable_out_is_usage_error(target, tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    if target == "directory":
        out = tmp_path / "x.csv"
        out.mkdir()
    assert main(["scan", "--from", "3", "--to", "5", "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith("error:")
    assert not list(tmp_path.rglob("*.manifest.json"))


def test_scan_unwritable_manifest_leaves_no_csv(tmp_path, capsys):
    # The CSV is written first; when its manifest then cannot be, the
    # CSV goes too, so no output lacks its manifest.
    out = tmp_path / "x.csv"
    (tmp_path / "x.csv.manifest.json").mkdir()
    assert main(["scan", "--from", "3", "--to", "5", "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith("error:")
    assert not out.exists()


# Runs the CLI in a child of a fresh interpreter, then prints that
# child's peak RSS in bytes (Linux reports ru_maxrss in KiB, macOS in
# bytes).  A process keeps through exec the peak of the image it
# replaces, so a CLI started straight from the test process would report
# the test process's own peak whenever that is the higher.
_WITH_PEAK_RSS = (
    "import resource, subprocess, sys; "
    "code = subprocess.call([sys.executable, '-m', 'kscolour', *sys.argv[1:]]); "
    "rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss; "
    "print(rss if sys.platform == 'darwin' else 1024 * rss); sys.exit(code)"
)


def _start_scan_with_peak_rss(to_dim: int, out) -> subprocess.Popen:
    """``scan --from 3 --to to_dim --out out``, run as ``_WITH_PEAK_RSS`` describes."""
    return subprocess.Popen(
        [sys.executable, "-c", _WITH_PEAK_RSS, "scan", "--from", "3", "--to", str(to_dim), "--out", str(out)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _stdout_and_peak_rss(proc: subprocess.Popen) -> tuple[list[str], int]:
    stdout, stderr = proc.communicate()
    assert proc.returncode == 0, stderr
    *lines, peak = stdout.splitlines()
    return lines, int(peak)


def test_scan_memory_stays_bounded_over_a_wide_range(tmp_path):
    # Rows are computed and written a block at a time, so 199998 rows
    # peak within a block's worth of the same run over 198 rows (20.3 MB
    # against 19.8 MB on Linux with Python 3.11).  Holding every row and
    # its CSV line at once peaked at 84 MB.
    out = tmp_path / "wide.csv"
    wide = _start_scan_with_peak_rss(200000, out)
    _, narrow = _stdout_and_peak_rss(_start_scan_with_peak_rss(200, tmp_path / "narrow.csv"))
    # The references are computed while the wide scan runs: every row on
    # either side of a block boundary, a stride between, and the minimum.
    starts = range(3, 200001, area._SCAN_BLOCK)
    near_boundary = {n + k for n in starts for k in (-2, -1, 0, 1)}
    checked = sorted(n for n in near_boundary | set(range(3, 200001, 101)) if 3 <= n <= 200000)
    direct = {n: total_fraction(n) for n in checked}
    best_dim, best_total = argmin_total(3, 200000)

    stdout, peak = _stdout_and_peak_rss(wide)
    assert peak - narrow < 8e6, f"scan peaked at {peak / 1e6:.1f} MB against {narrow / 1e6:.1f} MB over 198 rows"
    assert stdout[0] == f"wrote 199998 rows to {out}"

    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == cli.CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(3, 200001))
    for n_dim, d in direct.items():
        got = [float(x) for x in rows[n_dim - 3][1:]]
        want = (d.white_fraction, d.black_fraction, d.total_fraction)
        # A subnormal Black has fewer than 12 significant bits to compare.
        assert got == pytest.approx(want, rel=1e-11, abs=sys.float_info.min)

    assert stdout[-1] == f"least total coloured fraction: N={best_dim} at {format(best_total, '.12g')}"


def _scan_failing_on_second_call(monkeypatch):
    calls = []
    real_block = area._scan_block

    def scan_block(*args):
        calls.append(args)
        if len(calls) == 2:
            raise QuadratureError("second block out of reach")
        return real_block(*args)

    monkeypatch.setattr(area, "_scan_block", scan_block)
    return calls


def test_scan_failure_partway_leaves_no_csv_or_manifest(tmp_path, monkeypatch, capsys):
    calls = _scan_failing_on_second_call(monkeypatch)
    out = tmp_path / "x.csv"
    assert main(["scan", "--from", "3", "--to", "3000", "--out", str(out)]) == 2
    assert len(calls) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith("numerical failure:")
    assert list(tmp_path.iterdir()) == []


def test_scan_failure_partway_leaves_a_device_out_in_place(monkeypatch, capsys):
    # --out may name a device; only a regular file is removed on failure.
    # os.unlink is a recorder here, so no device is ever unlinked.
    _scan_failing_on_second_call(monkeypatch)
    unlinked = []
    monkeypatch.setattr(os, "unlink", unlinked.append)
    assert main(["scan", "--from", "3", "--to", "3000", "--out", os.devnull]) == 2
    assert capsys.readouterr().err.startswith("numerical failure:")
    assert unlinked == []


def test_scan_failure_partway_exits_2_after_the_printed_rows(monkeypatch, capsys):
    _scan_failing_on_second_call(monkeypatch)
    assert main(["scan", "--from", "3", "--to", "3000"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(3, 3 + area._SCAN_BLOCK))


def test_verify_failure_exits_3(monkeypatch, capsys):
    # Under caps this wide two orthogonal vectors can both be Black.
    monkeypatch.setattr(montecarlo, "ColouringParams", lambda dim: bounds_stand_in(dim, 0.1, 0.2))
    assert main(["verify", "--dim", "3", "--samples", "2000", "--seed", "7"]) == EXIT_VERIFICATION
    out, _ = capsys.readouterr()
    assert "result: FAIL" in out
    assert "orthogonal black pairs: 0" not in out


@pytest.mark.parametrize("command", [["basis", "--method", "montecarlo"], ["verify"]])
def test_montecarlo_dimension_beyond_one_row_per_draw_is_usage_error(command, monkeypatch, capsys):
    # One row of R^(2^20 + 1) alone exceeds the per-draw budget; the run
    # is refused before anything is drawn.
    def no_draw(*args):
        raise AssertionError("drew samples")

    monkeypatch.setattr(montecarlo, "_chunk_rng", no_draw)
    assert main([*command, "--dim", "1048577", "--samples", "1", "--seed", "1"]) == 1
    assert "at most 1048576" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, code, expected",
    [
        (("area", "--dim", "50"), 0, "total coloured: 0.677776600683"),
        (("scan", "--from", "3", "--to", "8"), 0, "least total coloured fraction: N=8 at 0.682528837444"),
        (("limit",), 0, "erf(1/sqrt(2)): 0.682689492137"),
        (("basis", "--dim", "3"), 0, "fully coloured basis fraction: 0.695759466758"),
        (("basis", "--dim", "4"), 0, "fully coloured basis fraction: 0.341615053774"),
        (("area", "--dim", "2"), 1, "error: dimension must be at least 3, got 2"),
        (("area", "--dim", "3", "--abs-tol", "0"), 1, "error: abs_tol must be positive and finite"),
        (("verify", "--dim", "2"), 1, "error: dimension must be at least 3, got 2"),
        (("basis", "--dim", "2", "--method", "montecarlo"), 1, "error: dimension must be at least 3, got 2"),
    ],
    ids=["area", "scan", "limit", "basis3", "basis4", "usage", "bad_tolerance", "verify_usage", "basis_mc_usage"],
)
def test_quadrature_commands_run_without_numpy(args, code, expected):
    # Only the sampling commands may load numpy; the others print the
    # same bytes and exit with the same code when it cannot be imported.
    blocked = run_cli(*args, without_numpy=True)
    assert blocked.returncode == code, blocked.stderr
    assert expected in blocked.stdout + blocked.stderr
    plain = run_cli(*args)
    assert (blocked.stdout, blocked.stderr, blocked.returncode) == (plain.stdout, plain.stderr, plain.returncode)


def test_scan_to_csv_runs_without_numpy(tmp_path):
    out = tmp_path / "scan.csv"
    proc = run_cli("scan", "--from", "3", "--to", "6", "--out", str(out), without_numpy=True)
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == GOLDEN_SCAN_3_TO_6.encode("utf-8")
    assert json.loads((tmp_path / "scan.csv.manifest.json").read_text())["seed"] is None


@pytest.mark.parametrize(
    "args, expected",
    [
        (("verify", "--dim", "3", "--samples", "0"), "error: samples must be positive, got 0\n"),
        (("verify", "--dim", "3", "--seed", "-1"), "error: seed must fit in an unsigned 64-bit integer\n"),
        (
            ("basis", "--dim", "3", "--method", "montecarlo", "--samples", "0"),
            "error: samples must be positive, got 0\n",
        ),
        (
            ("verify", "--dim", "1048577", "--samples", "1", "--seed", "1"),
            "error: dimension must be at most 1048576, where one row fills a draw\n",
        ),
        (
            ("basis", "--dim", "1048577", "--method", "montecarlo", "--samples", "1", "--seed", "1"),
            "error: dimension must be at most 1048576, where one row fills a draw\n",
        ),
    ],
    ids=["verify_samples", "verify_seed", "basis_samples", "verify_dim", "basis_dim"],
)
def test_montecarlo_refusals_run_without_numpy(args, expected):
    # A run the sampling layer would refuse is refused before it loads.
    blocked = run_cli(*args, without_numpy=True)
    assert (blocked.stdout, blocked.stderr, blocked.returncode) == ("", expected, 1)
    plain = run_cli(*args)
    assert (plain.stdout, plain.stderr, plain.returncode) == ("", expected, 1)


def cli_then_report(report: str, *args: str) -> str:
    """Run the CLI by runpy in a child interpreter, then print its exit code and ``report`` there.

    Returns that last line, which sees the state the command left behind.
    """
    script = (
        "import os, runpy, sys\n"
        "try:\n"
        "    runpy.run_module('kscolour', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        f"    print(exc.code, {report})\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task to count threads")
def test_sampling_command_runs_on_one_thread():
    # numpy's OpenBLAS would otherwise start one idle worker per further core.
    threads = "len(os.listdir('/proc/self/task'))"
    assert cli_then_report(threads, "verify", "--dim", "3", "--samples", "1000", "--seed", "1") == "0 1"


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("4", "4")], ids=["unset", "preset"])
def test_run_defaults_openblas_to_one_thread_unless_set(preset, expected, monkeypatch):
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    seen = []
    monkeypatch.setattr(cli, "main", lambda: seen.append(os.environ["OPENBLAS_NUM_THREADS"]) or 0)
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 0
    assert seen == [expected]


def test_main_leaves_the_environment_unchanged(monkeypatch, capsys):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    assert main(["verify", "--dim", "3", "--samples", "1000", "--seed", "1"]) == 0
    assert main(["basis", "--dim", "3", "--method", "montecarlo", "--samples", "1000"]) == 0
    assert dict(os.environ) == before


@pytest.mark.parametrize(
    "args, loaded",
    [
        (("area", "--dim", "3"), []),
        (("scan", "--from", "3", "--to", "6"), []),
        (("limit",), []),
        (("basis", "--dim", "3"), []),
        (("scan", "--from", "3", "--to", "6", "--out", "{out}"), ["json", "shlex"]),
    ],
    ids=["area", "scan", "limit", "basis3", "scan_out"],
)
def test_commands_load_only_what_they_use(args, loaded, tmp_path):
    # secrets is for a seed drawn from entropy, json and shlex for the scan manifest.
    report = "sorted(m for m in ('json', 'numpy', 'secrets', 'shlex') if m in sys.modules)"
    args = [a.format(out=tmp_path / "scan.csv") for a in args]
    assert cli_then_report(report, *args) == f"0 {loaded}"
