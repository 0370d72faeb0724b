import json
import os
import shutil
import subprocess
import sys

import pytest

from kscolour import __version__, montecarlo
from kscolour.cli import main

GOLDEN_SCAN_3_TO_6 = (
    "N,white_fraction,black_fraction,total_fraction\n"
    "3,0.57735026919,0.292893218813,0.870243488003\n"
    "4,0.608997781044,0.181690113816,0.79068789486\n"
    "5,0.6260990337,0.116116523517,0.742215557217\n"
    "6,0.636782532351,0.0755868184216,0.712369350772\n"
)


def run_cli(*args: str, env_extra: dict | None = None) -> subprocess.CompletedProcess:
    env = os.environ.copy()
    env.pop("KSCOLOUR_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "kscolour", *args],
        capture_output=True,
        text=True,
        env=env,
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
    exe = shutil.which("kscolour")
    if exe is None:
        pytest.skip("console script not on PATH in this environment")
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
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


def test_basis_quadrature_values():
    proc3 = run_cli("basis", "--dim", "3", "--method", "quadrature")
    assert proc3.returncode == 0
    assert "0.695759466758" in proc3.stdout
    proc4 = run_cli("basis", "--dim", "4")
    assert proc4.returncode == 0
    assert "0.341615053774" in proc4.stdout


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


def test_basis_montecarlo_dim4_prints_notice():
    proc = run_cli("basis", "--dim", "4", "--method", "montecarlo", "--samples", "50000", "--seed", "9")
    assert proc.returncode == 0
    assert "notice:" in proc.stdout
    assert "quadrature fraction: 0.341615053774" in proc.stdout


def test_basis_montecarlo_high_dimension_stands_alone():
    proc = run_cli("basis", "--dim", "6", "--method", "montecarlo", "--samples", "20000", "--seed", "4")
    assert proc.returncode == 0
    assert "stands alone" in proc.stdout
    assert "z-score" not in proc.stdout


def test_verify_passes_and_reports_zero_counts():
    proc = run_cli("verify", "--dim", "3", "--samples", "60000", "--seed", "8")
    assert proc.returncode == 0
    assert "orthogonal black pairs: 0" in proc.stdout
    assert "all-white bases: 0" in proc.stdout
    assert "fully coloured without exactly one black: 0" in proc.stdout
    assert "result: PASS" in proc.stdout


def test_seed_from_environment():
    proc = run_cli("verify", "--dim", "3", "--samples", "2000", env_extra={"KSCOLOUR_SEED": "99"})
    assert proc.returncode == 0
    assert "seed: 99" in proc.stdout


def test_seed_flag_beats_environment():
    proc = run_cli(
        "verify", "--dim", "3", "--samples", "2000", "--seed", "7",
        env_extra={"KSCOLOUR_SEED": "99"},
    )
    assert "seed: 7" in proc.stdout


def test_bad_environment_seed_is_usage_error():
    proc = run_cli("verify", "--dim", "3", "--samples", "2000", env_extra={"KSCOLOUR_SEED": "not-a-number"})
    assert proc.returncode == 1


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


def test_basis_4d_unreachable_tolerance_is_numerical_failure(capsys):
    # The requested tolerances reach the 4D quadrature unchanged, so one
    # below what doubles resolve fails there as it does in dimension 3.
    assert main(["basis", "--dim", "4", "--abs-tol", "1e-16", "--rel-tol", "1e-16"]) == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["basis", "--method", "montecarlo"], ["verify"]])
def test_montecarlo_dimension_beyond_one_row_per_draw_is_usage_error(command, monkeypatch, capsys):
    # One row of R^(2^20 + 1) alone exceeds the per-draw budget; the run
    # is refused before anything is drawn.
    def no_draw(*args):
        raise AssertionError("drew samples")

    monkeypatch.setattr(montecarlo, "_unit_rows", no_draw)
    assert main([*command, "--dim", "1048577", "--samples", "1", "--seed", "1"]) == 1
    assert "at most 1048576" in capsys.readouterr().err
