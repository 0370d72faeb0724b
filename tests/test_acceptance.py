"""Release gate: every headline numerical claim, one printed line each.

Each test prints "[criterion NN] PASS/FAIL <detail>" before asserting,
so a full run always shows the complete scoreboard.  Monte Carlo
criteria use frozen seeds; the determinism criterion makes the freeze
meaningful.
"""

import math

import numpy as np

from kscolour import montecarlo
from kscolour.area import (
    argmin_total,
    asymptotic_limit,
    limit_series,
    total_fraction,
)
from kscolour.bases import basis_fraction_3d, basis_fraction_4d
from kscolour.cli import DIM4_DISCREPANCY_NOTICE
from kscolour.montecarlo import (
    estimate_basis_fraction,
    estimate_vector_fractions,
    verify_constraints,
)

from helpers import axis_component_samples

SEED_BASIS_3D = 61906
SEED_BASIS_4D = 71917
SEED_VERIFY_BASE = 81900
SEED_VECTOR_BASE = 91900
SEED_DETERMINISM = 101000


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"criterion {num:02d} failed: {detail}"


def test_criterion_01_dim3_closed_form():
    expected = 1.0 - 1.0 / math.sqrt(2.0) + 1.0 / math.sqrt(3.0)
    got = total_fraction(3).total_fraction
    _report(
        1,
        abs(got - expected) <= 1e-9,
        f"total(3)={got:.12f} vs 1-1/sqrt(2)+1/sqrt(3)={expected:.12f} (tol 1e-9)",
    )


def test_criterion_02_moderate_dimension_percentages():
    targets = {4: 79.0, 5: 74.0, 6: 71.0}
    gaps = {}
    for dim, pct in targets.items():
        gaps[dim] = abs(100.0 * total_fraction(dim).total_fraction - pct)
    ok = all(g <= 0.5 for g in gaps.values())
    detail = ", ".join(
        f"N={d}: {100.0 * total_fraction(d).total_fraction:.3f}% vs {targets[d]:.0f}%"
        for d in sorted(targets)
    )
    _report(2, ok, detail + " (tol 0.5 points)")


def test_criterion_03_scan_minimum_location():
    # The stated 66.76% is the N=13 total; half a unit in its last digit
    # (5e-5) separates it from the N=12 total, 0.66807.
    arg, value = argmin_total(3, 200)
    value_ok = abs(value - 0.6676) <= 5e-5
    arg_ok = arg == 13
    t12 = total_fraction(12).total_fraction
    t13 = total_fraction(13).total_fraction
    t14 = total_fraction(14).total_fraction
    neighbours_ok = t12 > value and t14 > value
    detail = (
        f"computed minimum over [3,200] sits at N={arg} with total={value:.10f} "
        f"(stated location N=13; totals N=12 {t12:.10f}, N=13 {t13:.10f}, "
        f"N=14 {t14:.10f}; value within 0.6676+-0.00005: {value_ok}; "
        f"see README, 'Two numbers to read carefully')"
    )
    _report(3, arg_ok and value_ok and neighbours_ok, detail)


def test_criterion_04_series_and_large_dimension_limit():
    series = limit_series(30)
    series_target = math.sqrt(math.pi / 2.0) * math.erf(1.0 / math.sqrt(2.0))
    series_ok = abs(series - series_target) <= 1e-12
    big = total_fraction(10**6).total_fraction
    limit = asymptotic_limit()
    big_ok = abs(big - limit) <= 2e-3
    _report(
        4,
        series_ok and big_ok,
        f"series(30)={series:.15f} vs {series_target:.15f} (tol 1e-12); "
        f"total(1e6)={big:.6f} vs erf(1/sqrt(2))={limit:.6f} (tol 2e-3)",
    )


def test_criterion_05_dim3_basis_quadrature():
    r = basis_fraction_3d()
    raw_ok = abs(r.raw_integral - 1.4572) <= 5e-4
    frac_ok = abs(r.fraction - 0.6957) <= 3e-4
    _report(
        5,
        raw_ok and frac_ok,
        f"raw integral={r.raw_integral:.10f} vs 1.4572+-0.0005; "
        f"fraction={r.fraction:.10f} vs 0.6957+-0.0003",
    )


def test_criterion_06_dim3_basis_montecarlo_agreement():
    reference = basis_fraction_3d()
    est = estimate_basis_fraction(3, 10_000_000, SEED_BASIS_3D)
    sigma = math.sqrt(est.std_error**2 + (1e-10) ** 2)
    z = (est.value - reference.fraction) / sigma
    _report(
        6,
        abs(z) <= 3.0,
        f"montecarlo {est.value:.6f}+-{est.std_error:.6f} (1e7 bases, seed {SEED_BASIS_3D}) "
        f"vs quadrature {reference.fraction:.6f}: z={z:.2f} (|z|<=3)",
    )


def test_criterion_07_dim4_prescription_vs_sampling():
    r = basis_fraction_4d()
    quad_ok = abs(r.fraction - 0.34) <= 0.01
    est = estimate_basis_fraction(4, 10_000_000, SEED_BASIS_4D)
    z = (est.value - r.fraction) / est.std_error
    if abs(z) > 5.0:
        print(DIM4_DISCREPANCY_NOTICE, flush=True)
    suffix = "; documented discrepancy, passes with notice" if abs(z) > 5.0 else ""
    _report(
        7,
        quad_ok,
        f"quadrature fraction={r.fraction:.10f} within 0.34+-0.01: {quad_ok}; "
        f"montecarlo {est.value:.6f}+-{est.std_error:.6f} (1e7 bases, seed {SEED_BASIS_4D}), "
        f"z={z:.1f}{suffix}",
    )


def test_criterion_08_constraint_violations_absent():
    counts = {}
    ok = True
    for dim in range(3, 9):
        report = verify_constraints(dim, 1_000_000, SEED_VERIFY_BASE + dim)
        counts[dim] = (report.black_pair_count, report.all_white_count)
        ok = ok and report.clean
    _report(
        8,
        ok,
        "(black pairs, all-white) over 1e6 bases per dimension: "
        + ", ".join(f"N={d}: {c}" for d, c in counts.items()),
    )


def test_criterion_09_vector_fractions_montecarlo():
    worst = 0.0
    for dim in (3, 4, 5, 6, 12):
        w, b, _ = estimate_vector_fractions(dim, 1_000_000, SEED_VECTOR_BASE + dim)
        row = total_fraction(dim)
        zw = (w.value - row.white_fraction) / w.std_error
        zb = (b.value - row.black_fraction) / b.std_error
        worst = max(worst, abs(zw), abs(zb))
    _report(
        9,
        worst <= 3.0,
        f"white/black fractions for N in (3,4,5,6,12), 1e6 vectors each: max |z|={worst:.2f} (<=3)",
    )


def test_criterion_10_determinism_and_sharding(monkeypatch):
    # Each chunk is drawn in slices of at most montecarlo._SLICE_DOUBLES
    # normals: by default 8192, slices of 2730 rows of R^3 (1638 of R^5).
    # The budgets below draw the chunks whole (2^20) or cut them into
    # slices of 333 and 40 rows of R^3 (199 and 24 of R^5).
    e1 = estimate_basis_fraction(3, 300_000, SEED_DETERMINISM)
    e2 = estimate_basis_fraction(3, 300_000, SEED_DETERMINISM)
    vec_ref = [e.value for e in estimate_vector_fractions(5, 200_000, SEED_DETERMINISM + 1)]
    slice_vals = []
    vec_ok = True
    for budget in (1 << 20, 999, 120):
        monkeypatch.setattr(montecarlo, "_SLICE_DOUBLES", budget)
        slice_vals.append(estimate_basis_fraction(3, 300_000, SEED_DETERMINISM).value)
        vec_ok &= [e.value for e in estimate_vector_fractions(5, 200_000, SEED_DETERMINISM + 1)] == vec_ref
    monkeypatch.undo()
    arr1 = axis_component_samples(4, 150_000, SEED_DETERMINISM + 2)
    arr2 = axis_component_samples(4, 150_000, SEED_DETERMINISM + 2)
    ok = (
        e1.value == e2.value
        and all(v == e1.value for v in slice_vals)
        and vec_ok
        and np.array_equal(arr1, arr2)
    )
    _report(
        10,
        ok,
        "repeat runs at the default budget and at 2^20, 999 and 120 doubles per draw are bit-identical: "
        f"{ok}",
    )
