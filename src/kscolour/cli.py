"""Command line front end.

Subcommands
-----------
area    coloured-area fractions for one dimension
scan    fractions over a dimension range, optionally to CSV
limit   large-dimension limit and its alternating-series check
basis   fully-coloured-basis fraction in closed form or by Monte Carlo
verify  constraint check over Haar-random bases

Exit codes: 0 success, 1 usage error (or an output file that cannot be
written), 2 numerical failure, 3 verification failure.
"""

import argparse
import math
import os
import stat
import sys
import time

from . import __version__
from .area import AreaBreakdown, asymptotic_limit, iter_scan, limit_series, total_fraction
from .bases import basis_fraction_3d, basis_fraction_4d
from .numerics import DEFAULT_QUADRATURE, QuadratureConfig, QuadratureError, check_dimension, check_run

__all__ = ["EXIT_OK", "EXIT_USAGE", "EXIT_NUMERICAL", "EXIT_VERIFICATION", "main", "run"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFICATION = 3

CSV_HEADER = "N,white_fraction,black_fraction,total_fraction"

_Z_NOTICE_THRESHOLD = 5.0
DIM4_DISCREPANCY_NOTICE = (
    "notice: in dimension 4 the quadrature prescription and the Monte Carlo\n"
    "estimate disagree by far more than sampling error allows. The quadrature\n"
    "number is reported exactly as prescribed; the sampled number stands as an\n"
    "independent measurement of the fully-coloured-basis fraction."
)


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit code 2 on bad flags; the contract here
    # reserves 2 for numerical failures, so remap usage errors to 1.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _pct(x: float) -> str:
    return format(100.0 * x, ".3f") + "%"


def _add_tolerance_flags(p: argparse.ArgumentParser) -> None:
    tol = DEFAULT_QUADRATURE
    p.add_argument("--abs-tol", type=float, default=tol.abs_tol, help="absolute tolerance the result must meet")
    p.add_argument("--rel-tol", type=float, default=tol.rel_tol, help="relative tolerance the result must meet")


def _run_seed(args: argparse.Namespace) -> int:
    """Check the sampling run, then return --seed, else 63 bits of fresh entropy.

    The run prints either; a refused run draws no entropy and loads no numpy.
    """
    check_run(args.dim, args.samples, 0 if args.seed is None else args.seed)
    if args.seed is not None:
        return args.seed
    import secrets

    return secrets.randbits(63)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kscolour", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"kscolour {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_area = sub.add_parser("area", help="coloured-area fractions for one dimension")
    p_area.add_argument("--dim", type=int, required=True, help="dimension, at least 3")
    _add_tolerance_flags(p_area)
    p_area.set_defaults(handler=_cmd_area)

    p_scan = sub.add_parser("scan", help="fractions over a dimension range")
    p_scan.add_argument("--from", dest="from_dim", type=int, required=True, help="first dimension")
    p_scan.add_argument("--to", dest="to_dim", type=int, required=True, help="last dimension")
    p_scan.add_argument("--out", type=str, default=None, help="CSV output path")
    _add_tolerance_flags(p_scan)
    p_scan.set_defaults(handler=_cmd_scan)

    p_limit = sub.add_parser("limit", help="large-dimension limit and series check")
    p_limit.add_argument("--series-terms", type=int, default=30, help="highest series index k to sum")
    p_limit.set_defaults(handler=_cmd_limit)

    p_basis = sub.add_parser("basis", help="fully-coloured-basis fraction")
    p_basis.add_argument("--dim", type=int, required=True, help="dimension, at least 3")
    p_basis.add_argument(
        "--method",
        choices=("quadrature", "montecarlo"),
        default="quadrature",
        help="closed form of the prescription (dims 3 and 4) or Monte Carlo sampling",
    )
    p_basis.add_argument("--samples", type=int, default=1_000_000, help="Monte Carlo sample count")
    p_basis.add_argument("--seed", type=int, default=None, help="Monte Carlo seed (64-bit unsigned)")
    _add_tolerance_flags(p_basis)
    p_basis.set_defaults(handler=_cmd_basis)

    p_verify = sub.add_parser("verify", help="constraint check over Haar-random bases")
    p_verify.add_argument("--dim", type=int, required=True, help="dimension, at least 3")
    p_verify.add_argument("--samples", type=int, default=1_000_000, help="bases to sample")
    p_verify.add_argument("--seed", type=int, default=None, help="Monte Carlo seed (64-bit unsigned)")
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def _cmd_area(args: argparse.Namespace) -> int:
    row = total_fraction(args.dim, QuadratureConfig(args.abs_tol, args.rel_tol))
    print(f"dimension: {row.dim}")
    print(f"white fraction: {_fmt(row.white_fraction)} ({_pct(row.white_fraction)})")
    print(f"black fraction: {_fmt(row.black_fraction)} ({_pct(row.black_fraction)})")
    print(f"total coloured: {_fmt(row.total_fraction)} ({_pct(row.total_fraction)})")
    print(f"uncoloured: {_fmt(row.uncoloured_fraction)} ({_pct(row.uncoloured_fraction)})")
    return EXIT_OK


def _write_scan(rows, write) -> tuple[int, AreaBreakdown]:
    """Write the CSV header and ``rows``; the row count and the least total."""
    write(CSV_HEADER)
    best = None
    for count, r in enumerate(rows, 1):
        write(f"{r.dim},{_fmt(r.white_fraction)},{_fmt(r.black_fraction)},{_fmt(r.total_fraction)}")
        if best is None or r.total_fraction < best.total_fraction:
            best = r
    return count, best


def _cmd_scan(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    rows = iter_scan(args.from_dim, args.to_dim, QuadratureConfig(args.abs_tol, args.rel_tol))
    if args.out is None:
        _, best = _write_scan(rows, print)
    else:
        fh = open(args.out, "w", encoding="utf-8", newline="")
        # A CSV is never left behind partial or without its manifest; what
        # --out names is removed only if it is a regular file, not a device.
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
        try:
            with fh:
                count, best = _write_scan(rows, lambda line: fh.write(line + "\n"))
            import json
            import shlex

            manifest = {
                "command_line": shlex.join(["kscolour", *args.argv]),
                "seed": None,
                "abs_tol": args.abs_tol,
                "rel_tol": args.rel_tol,
                "tool_version": __version__,
                "wall_time_s": time.perf_counter() - started,
            }
            manifest_path = args.out + ".manifest.json"
            with open(manifest_path, "w", encoding="utf-8", newline="") as mf:
                mf.write(json.dumps(manifest, indent=2) + "\n")
        except BaseException:
            if regular:
                os.unlink(args.out)
            raise
        print(f"wrote {count} rows to {args.out}")
        print(f"wrote manifest to {manifest_path}")
    print(f"least total coloured fraction: N={best.dim} at {_fmt(best.total_fraction)}")
    return EXIT_OK


def _cmd_limit(args: argparse.Namespace) -> int:
    limit = asymptotic_limit()
    partial = limit_series(args.series_terms)
    rescaled = partial * math.sqrt(2.0 / math.pi)
    print(f"large-dimension coloured fraction limit erf(1/sqrt(2)): {_fmt(limit)}")
    print(f"alternating series partial sum through k={args.series_terms}: {_fmt(partial)}")
    print(f"partial sum rescaled by sqrt(2/pi): {_fmt(rescaled)}")
    print(f"|rescaled - limit|: {abs(rescaled - limit):.3e}")
    return EXIT_OK


_QUADRATURE_FRACTIONS = {3: basis_fraction_3d, 4: basis_fraction_4d}


def _cmd_basis(args: argparse.Namespace) -> int:
    # Nothing is printed until every number is in hand, so a failure
    # leaves stdout empty.  The dimension is checked first so that N < 3
    # is refused as such, not as a dimension without a prescription.
    check_dimension(args.dim)
    cfg = QuadratureConfig(args.abs_tol, args.rel_tol)
    prescription = _QUADRATURE_FRACTIONS.get(args.dim)
    if args.method == "quadrature":
        if prescription is None:
            raise ValueError(
                "the quadrature prescription covers dimensions 3 and 4 only; "
                "use --method montecarlo for higher dimensions"
            )
        result = prescription(cfg)
        print(f"dimension: {args.dim}")
        print("method: quadrature")
        print(f"raw integral: {_fmt(result.raw_integral)}")
        print(f"normalizer: {_fmt(result.normalizer)}")
        print(f"combinatorial factor: {result.combinatorial_factor}")
        print(f"fully coloured basis fraction: {_fmt(result.fraction)} ({_pct(result.fraction)})")
        return EXIT_OK

    seed = _run_seed(args)
    # Before sampling, so that an unreachable tolerance fails at once.
    reference = prescription(cfg) if prescription is not None else None
    # Imported here so that the quadrature commands and a refused run
    # never load numpy.
    from .montecarlo import CHUNK_SAMPLES, RNG_FAMILY, estimate_basis_fraction

    estimate = estimate_basis_fraction(args.dim, args.samples, seed)
    print(f"dimension: {args.dim}")
    print("method: montecarlo")
    print(f"rng: {RNG_FAMILY} (chunks of {CHUNK_SAMPLES} keyed by seed and chunk index)")
    print(f"samples: {estimate.samples}")
    print(f"seed: {estimate.seed}")
    print(f"fully coloured basis fraction: {estimate.value:.6f} +/- {estimate.std_error:.6f}")
    if reference is not None:
        print(f"quadrature fraction: {_fmt(reference.fraction)}")
        if estimate.std_error > 0.0:
            z = (estimate.value - reference.fraction) / estimate.std_error
            print(f"z-score vs quadrature: {z:.2f}")
            if abs(z) > _Z_NOTICE_THRESHOLD:
                if args.dim == 4:
                    print(DIM4_DISCREPANCY_NOTICE)
                else:
                    print("notice: sampled and quadrature values disagree beyond 5 sigma")
        else:
            print("z-score vs quadrature: n/a (degenerate estimate)")
    else:
        print("no quadrature prescription for this dimension; sampled value stands alone")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    seed = _run_seed(args)
    from .montecarlo import RNG_FAMILY, verify_constraints

    report = verify_constraints(args.dim, args.samples, seed)
    print(f"dimension: {args.dim}")
    print(f"samples: {report.samples}")
    print(f"seed: {seed}")
    print(f"rng: {RNG_FAMILY}")
    print(f"orthogonal black pairs: {report.black_pair_count}")
    print(f"all-white bases: {report.all_white_count}")
    print(f"fully coloured without exactly one black: {report.full_without_one_black_count}")
    print(f"result: {'PASS' if report.clean else 'FAIL'}")
    return EXIT_OK if report.clean else EXIT_VERIFICATION


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else int(exc.code)
    args.argv = argv
    try:
        return args.handler(args)
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """Console-script and ``python -m kscolour`` entry: ``main()`` as the exit code.

    The sampling commands' only BLAS calls are small mat-vecs that
    count colours, so numpy's OpenBLAS is held to the calling thread;
    otherwise its idle workers, one per further core, busy-wait on CPU
    the run is charged for.  A value already in the environment wins.
    Set here, before numpy can load, and not in ``main()``, which
    in-process callers use.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    raise SystemExit(main())


if __name__ == "__main__":
    run()
