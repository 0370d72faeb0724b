import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kscolour import montecarlo
from kscolour.area import total_fraction
from kscolour.bases import basis_fraction_3d
from kscolour.colouring import ColouringParams
from kscolour.montecarlo import (
    CHUNK_SAMPLES,
    Estimate,
    ViolationReport,
    estimate_basis_fraction,
    estimate_vector_fractions,
    sample_basis,
    verify_constraints,
)

from helpers import axis_component_samples, bounds_stand_in, is_fully_coloured, sample_unit_vector


def test_estimate_validation():
    # An Estimate is built by an estimator after check_run, so a hand-built
    # one is not checked; test_argument_validation covers the refusals.
    assert Estimate(value=0.5, samples=100, seed=1).std_error == math.sqrt(0.25 / 100)
    assert Estimate(value=1.0, samples=100, seed=1).std_error == 0.0
    with pytest.raises(TypeError):
        Estimate(value=0.5, std_error=0.05, samples=100, seed=1)
    est = Estimate(0.25, 100, 7)
    assert repr(est) == "Estimate(value=0.25, samples=100, seed=7)"
    with pytest.raises(AttributeError):
        est.value = 0.5


def test_violation_report_helpers():
    r = ViolationReport(samples=10, black_pair_count=0, all_white_count=0, full_without_one_black_count=0)
    assert r.clean
    for field in ("black_pair_count", "all_white_count", "full_without_one_black_count"):
        assert not r._replace(**{field: 1}).clean


def test_argument_validation():
    with pytest.raises(ValueError):
        estimate_vector_fractions(2, 100, 1)
    with pytest.raises(ValueError):
        estimate_vector_fractions(3, 0, 1)
    with pytest.raises(ValueError):
        estimate_vector_fractions(3, 100, -1)
    with pytest.raises(ValueError):
        estimate_basis_fraction(3, 100, 2**64)
    with pytest.raises(ValueError):
        sample_unit_vector(0, np.random.default_rng(0))
    for bad in (2, 3.0, True):
        with pytest.raises(ValueError):
            sample_basis(bad, np.random.default_rng(0))  # type: ignore[arg-type]


def test_samplers_produce_valid_objects():
    rng = np.random.default_rng(3)
    v = sample_unit_vector(6, rng)
    assert v.shape == (6,)
    assert float(np.linalg.norm(v)) == pytest.approx(1.0, abs=1e-12)
    b = sample_basis(5, rng)
    m = b.matrix
    assert np.abs(m.T @ m - np.eye(5)).max() < 1e-12


def test_basis_sampler_orthonormality_in_bulk():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(300):
        m = sample_basis(4, rng).matrix
        worst = max(worst, float(np.abs(m.T @ m - np.eye(4)).max()))
    assert worst < 1e-12


def test_sample_basis_is_gram_schmidt_of_the_same_normals():
    # Moving the signs of diag(R) into Q gives the QR factorisation with
    # positive diagonal, which is Gram-Schmidt on the Gaussian columns.
    for dim in (3, 4, 8):
        q = sample_basis(dim, np.random.default_rng(dim)).matrix
        g = np.random.default_rng(dim).standard_normal((dim, dim))
        ref = np.zeros_like(g)
        for j in range(dim):
            v = g[:, j].copy()
            for _ in range(2):
                v -= ref[:, :j] @ (ref[:, :j].T @ v)
            ref[:, j] = v / np.linalg.norm(v)
        assert np.abs(q - ref).max() < 1e-12


def test_sample_basis_matrices_are_pinned():
    # Every entry's float.hex, for np.random.default_rng(dim), so that any
    # change to the basis path that moves a sampled basis fails here.
    # The pins come from numpy's bundled LAPACK; another LAPACK build may
    # round the QR differently.
    pins = json.loads(Path(__file__).with_name("sample_basis_pins.json").read_text())
    for dim in (3, 4, 8, 16):
        m = sample_basis(dim, np.random.default_rng(dim)).matrix
        assert [[x.hex() for x in row] for row in m.tolist()] == pins[str(dim)], dim


def _ks_statistic(samples: np.ndarray, cdf) -> float:
    x = np.sort(samples)
    n = x.size
    f = cdf(x)
    upper = np.abs(np.arange(1, n + 1) / n - f).max()
    lower = np.abs(f - np.arange(0, n) / n).max()
    return max(upper, lower)


def test_axis_component_distribution_dim3():
    # In R^3 the distinguished component of a uniform unit vector is
    # itself uniform on [-1, 1].
    t = axis_component_samples(3, 50_000, seed=404)
    d = _ks_statistic(t, lambda x: (x + 1.0) / 2.0)
    assert d * math.sqrt(t.size) < 1.6276  # 1% critical value


def test_axis_component_distribution_dim5():
    # Density proportional to (1-t^2); CDF (2 + 3t - t^3)/4.
    t = axis_component_samples(5, 50_000, seed=405)
    d = _ks_statistic(t, lambda x: (2.0 + 3.0 * x - x**3) / 4.0)
    assert d * math.sqrt(t.size) < 1.6276


def test_basis_first_vector_is_uniform():
    # Column 0 of a Haar matrix is a uniform unit vector; in R^4 its
    # last component has CDF (arcsin t + t sqrt(1-t^2) + pi/2)/pi.
    rng = np.random.default_rng(11)
    comps = np.array([sample_basis(4, rng).matrix[-1, 0] for _ in range(4_000)])

    def cdf(x):
        return (np.arcsin(x) + x * np.sqrt(1.0 - x * x) + math.pi / 2.0) / math.pi

    d = _ks_statistic(comps, cdf)
    assert d * math.sqrt(comps.size) < 1.6276


def test_vector_fractions_sum_to_one_exactly():
    w, b, u = estimate_vector_fractions(4, 123_457, seed=2)
    assert w.value + b.value + u.value == 1.0
    for e in (w, b, u):
        assert e.samples == 123_457
        assert e.std_error == pytest.approx(
            math.sqrt(e.value * (1.0 - e.value) / e.samples), abs=1e-15
        )


def test_vector_fractions_match_area_integrals():
    for dim, seed in ((3, 909), (6, 910)):
        w, b, _ = estimate_vector_fractions(dim, 400_000, seed=seed)
        row = total_fraction(dim)
        assert abs(w.value - row.white_fraction) < 4.0 * w.std_error
        assert abs(b.value - row.black_fraction) < 4.0 * b.std_error


def test_basis_fraction_matches_quadrature_3d():
    e = estimate_basis_fraction(3, 400_000, seed=911)
    assert abs(e.value - basis_fraction_3d().fraction) < 4.0 * e.std_error


def _draw_sizes(dim: int, samples: int) -> list[tuple[int, list[int]]]:
    """(chunk index, rows of each draw from that chunk's stream) per chunk of a run.

    ``_chunk_rng`` is stood in for by a recorder whose draws are one
    column of zeros, so no draw the run asks for is allocated.
    """
    keys, shapes = [], []

    class Recorder:
        def __init__(self, seed, index):
            keys.append((seed, index))
            self.index = index

        def standard_normal(self, shape):
            shapes.append((self.index, shape))
            return np.zeros((shape[0], 1))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_chunk_rng", Recorder)
        for _ in montecarlo._row_stream(dim, samples, 5):
            pass
    assert all(cols == dim for _, (_, cols) in shapes)
    grouped = itertools.groupby(shapes, lambda draw: draw[0])
    chunks = [(index, [rows for _, (rows, _) in draws]) for index, draws in grouped]
    # One generator per chunk, keyed by (seed, chunk index) in order.
    assert keys == [(5, index) for index, _ in chunks]
    return chunks


def test_slices_respect_the_draw_budget():
    # Shapes only: at dimension 1e6 a whole chunk would be 65536 x 1e6
    # doubles, so nothing here may be allocated.  A slice holds 2^13
    # normals, 512 rows of R^16, or one row where a row is longer.
    assert montecarlo._SLICE_DOUBLES == 1 << 13
    assert _draw_sizes(16, CHUNK_SAMPLES) == [(0, [512] * (CHUNK_SAMPLES // 512))]
    for dim, samples in ((1000, 2 * CHUNK_SAMPLES + 7), (10**6, CHUNK_SAMPLES + 3)):
        chunks = _draw_sizes(dim, samples)
        assert [index for index, _ in chunks] == list(range(len(chunks)))
        assert [sum(sizes) for _, sizes in chunks] == [CHUNK_SAMPLES] * (len(chunks) - 1) + [
            samples % CHUNK_SAMPLES
        ]
        assert max(max(sizes) for _, sizes in chunks) * dim <= max(montecarlo._SLICE_DOUBLES, dim)


def test_dimension_limit_is_one_row_per_draw():
    # At 2^20 one row fills a draw; one dimension more is refused by
    # every run before it draws.
    assert _draw_sizes(2**20, 3) == [(0, [1, 1, 1])]
    assert axis_component_samples(2**20, 1, seed=3).shape == (1,)
    for run in (axis_component_samples, estimate_vector_fractions, estimate_basis_fraction, verify_constraints):
        with pytest.raises(ValueError, match="at most 1048576"):
            run(2**20 + 1, 1, 3)


def test_draw_memory_stays_within_a_few_slices():
    # A slice is at most 64 KiB of normals (16 rows of R^500), and each
    # call peaks at 150-250 KiB of traced memory.  The bound is fixed,
    # not a multiple of _SLICE_DOUBLES: 8 MiB slices, as a 2^20 budget
    # draws, peak at 3-18 MiB and fail, and an unsliced chunk of 20000
    # rows in R^500 takes 80 MB per array.
    for run, dim, samples in (
        (estimate_vector_fractions, 16, 81920),
        (estimate_vector_fractions, 3, 393216),
        (verify_constraints, 3, 65536),
        (estimate_basis_fraction, 4, 32768),
        (estimate_basis_fraction, 500, 20_000),
    ):
        tracemalloc.start()
        try:
            run(dim, samples, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024, (run.__name__, dim, samples, peak)


def _runs():
    return (
        estimate_basis_fraction(3, CHUNK_SAMPLES + 17, seed=42),
        verify_constraints(4, 50_000, seed=1),
        axis_component_samples(6, 70_000, seed=77).tobytes(),
    )


def test_estimates_are_deterministic_and_shard_invariant(monkeypatch):
    # Each chunk's draw is cut into slices of at most _SLICE_DOUBLES
    # normals; how the draw is cut must not move any estimate.
    ref = _runs()
    assert _runs() == ref
    assert estimate_basis_fraction(3, CHUNK_SAMPLES + 17, seed=43).value != ref[0].value
    # 2^20 doubles draw every chunk here whole; 4099 cut it into ragged slices.
    for budget in (1 << 20, 4099):
        monkeypatch.setattr(montecarlo, "_SLICE_DOUBLES", budget)
        assert _runs() == ref


def test_vector_estimates_shard_invariant(monkeypatch):
    ref = estimate_vector_fractions(5, 2 * CHUNK_SAMPLES + 5, seed=13)
    ref_row_by_row = estimate_vector_fractions(7, 300, seed=14)
    for budget in (1 << 20, 4099):
        monkeypatch.setattr(montecarlo, "_SLICE_DOUBLES", budget)
        assert estimate_vector_fractions(5, 2 * CHUNK_SAMPLES + 5, seed=13) == ref
    # 5 doubles is less than one row at dimension 7: one row per draw.
    monkeypatch.setattr(montecarlo, "_SLICE_DOUBLES", 5)
    assert estimate_vector_fractions(7, 300, seed=14) == ref_row_by_row


@pytest.mark.parametrize(
    "dim, samples, slice_doubles",
    [
        (3, 2 * CHUNK_SAMPLES + 123, None),
        (3, 2 * CHUNK_SAMPLES + 123, 1 << 20),
        (3, 2 * CHUNK_SAMPLES + 123, 4099),
        (7, 300, 5),
    ],
    ids=["default_slices", "whole_chunks", "ragged_slices", "one_row_per_draw"],
)
def test_row_stream_is_one_philox_draw_per_chunk(monkeypatch, dim, samples, slice_doubles):
    # The stream every estimator reads: chunk j's rows are one
    # standard_normal call of a Philox keyed by (seed, j), cut into
    # slices in order, and each norm is the einsum one.  Built here
    # without _chunk_rng, so a change to the key format fails too.
    if slice_doubles is not None:
        monkeypatch.setattr(montecarlo, "_SLICE_DOUBLES", slice_doubles)
    seed = 2**64 - 1
    expected = [
        np.random.Generator(np.random.Philox(key=np.array([seed, j], dtype=np.uint64))).standard_normal(
            (min(CHUNK_SAMPLES, samples - start), dim)
        )
        for j, start in enumerate(range(0, samples, CHUNK_SAMPLES))
    ]
    drawn = []
    for rows, norms in montecarlo._row_stream(dim, samples, seed):
        assert np.array_equal(norms, np.sqrt(np.einsum("ij,ij->i", rows, rows)))
        drawn.append(rows)
    assert np.array_equal(np.concatenate(drawn), np.concatenate(expected))


def test_axis_samples_bitwise_reproducible():
    a = axis_component_samples(4, 70_000, seed=77)
    b = axis_component_samples(4, 70_000, seed=77)
    assert np.array_equal(a, b)
    # and consistent with the counting estimators chunk by chunk
    w, _, _ = estimate_vector_fractions(4, 70_000, seed=77)
    assert float((np.abs(a) < 0.5).mean()) == w.value


def test_row_sampling_matches_whole_haar_bases_4d():
    # The estimator colours one uniform row per basis; colouring each
    # column of whole QR bases is an independent route to the same number.
    rng = np.random.default_rng(2024)
    params = ColouringParams(dim=4)
    n = 4000
    whole = sum(is_fully_coloured(sample_basis(4, rng), params) for _ in range(n)) / n
    row = estimate_basis_fraction(4, 200_000, seed=2024)
    se = math.sqrt(whole * (1.0 - whole) / n + row.std_error**2)
    assert abs(whole - row.value) < 4.0 * se


def test_bernoulli_variance_law():
    # 100 independent runs: the spread of the estimates must match the
    # reported standard error (chi-square band, pre-verified seeds).
    runs = np.array(
        [estimate_basis_fraction(3, 10_000, seed=5_000 + k).value for k in range(100)]
    )
    predicted = basis_fraction_3d().fraction
    se = math.sqrt(predicted * (1.0 - predicted) / 10_000)
    ratio = runs.var(ddof=1) / se**2
    assert 0.6 < ratio < 1.45


def test_verify_constraints_all_clean():
    for dim, seed in ((3, 21), (5, 22)):
        report = verify_constraints(dim, 120_000, seed=seed)
        assert report.samples == 120_000
        assert report.clean
        assert report.black_pair_count == 0
        assert report.all_white_count == 0
        assert report.full_without_one_black_count == 0


@pytest.mark.parametrize(
    "dim, white_bound, black_bound",
    [(3, 0.1, 0.2), (3, 0.8, 0.9), (300, 0.8, 0.9)],
    ids=["narrow_caps", "wide_belt", "wide_belt_dim300"],
)
def test_verify_constraints_counts_violations(monkeypatch, dim, white_bound, black_bound):
    # Under bounds of no colouring the constraints fail; the report and
    # the basis fraction must hold what a row-by-row recount of the same
    # draws finds.  At dim 300 nearly every row has 300 Whites, so a
    # count kept in a type that wraps at 255 would be caught.  The count
    # table itself must hold the same rows, cell by cell.
    monkeypatch.setattr(montecarlo, "ColouringParams", lambda dim: bounds_stand_in(dim, white_bound, black_bound))
    pairs = all_white = bad_full = hits = 0
    table = [[0, 0] for _ in range(3)]  # [min(blacks, 2)][any uncoloured]
    for rows, norms in montecarlo._row_stream(dim, 2000, 7):
        for row in (np.abs(rows) / norms[:, None]).tolist():
            blacks = sum(x > black_bound for x in row)
            whites = sum(x < white_bound for x in row)
            pairs += blacks >= 2
            all_white += whites == len(row)
            bad_full += blacks + whites == len(row) and blacks != 1
            hits += blacks + whites == len(row)
            table[min(blacks, 2)][blacks + whites < len(row)] += 1
    counted = montecarlo._count_table(dim, 2000, 7)
    assert counted.shape == (3, 2)
    assert counted.tolist() == table
    assert sum(map(sum, table)) == 2000
    # A fully coloured basis without exactly one Black vector is all White
    # or holds an orthogonal Black pair, both counted already.
    assert bad_full == table[0][0] + table[2][0]
    report = verify_constraints(dim, 2000, 7)
    assert report == ViolationReport(
        samples=2000, black_pair_count=pairs, all_white_count=all_white, full_without_one_black_count=bad_full
    )
    assert estimate_basis_fraction(dim, 2000, 7) == Estimate(hits / 2000, 2000, 7)
    assert pairs + all_white > 0
    assert not report.clean


def test_verify_constraints_deterministic():
    a = verify_constraints(3, 50_000, seed=1)
    b = verify_constraints(3, 50_000, seed=1)
    assert a == b


# Exact counts, taken while the norms still came from np.linalg.norm.
# Every run spans at least two chunks; a change to the stream, the keys
# or the norm and quotient arithmetic shows here as a failure rather
# than as a z-test that still passes.
_PINNED_VECTORS = {  # (dim, samples, seed): (white hits, black hits)
    (3, 2 * CHUNK_SAMPLES + 123, 101): (75636, 38581),
    (8, CHUNK_SAMPLES + 5000, 102): (45886, 2357),
}
_PINNED_BASES = {  # (dim, samples, seed): fully coloured bases
    (3, 2 * CHUNK_SAMPLES + 77, 201): 91142,
    (4, CHUNK_SAMPLES + 999, 202): 30090,
    (16, CHUNK_SAMPLES + 300, 203): 13,
}


@pytest.mark.parametrize(
    "slice_doubles", [None, 1 << 20, 4099], ids=["default_slices", "whole_chunks", "ragged_slices"]
)
def test_pinned_counts(monkeypatch, slice_doubles):
    if slice_doubles is not None:
        monkeypatch.setattr(montecarlo, "_SLICE_DOUBLES", slice_doubles)
    for (dim, samples, seed), (white_hits, black_hits) in _PINNED_VECTORS.items():
        w, b, _ = estimate_vector_fractions(dim, samples, seed)
        assert (w.value, b.value) == (white_hits / samples, black_hits / samples)
    for (dim, samples, seed), hits in _PINNED_BASES.items():
        assert estimate_basis_fraction(dim, samples, seed).value == hits / samples
    assert verify_constraints(4, CHUNK_SAMPLES + 4321, 301) == ViolationReport(
        samples=CHUNK_SAMPLES + 4321, black_pair_count=0, all_white_count=0, full_without_one_black_count=0
    )


def test_counted_rows_have_unit_norm():
    # The rows the basis counts read: |components| over the einsum norm.
    for dim in range(3, 65):
        for rows, norms in montecarlo._row_stream(dim, 2000, seed=dim):
            t = np.abs(rows) / norms[:, None]
            assert np.abs(np.linalg.norm(t, axis=1) - 1.0).max() <= 1e-15
