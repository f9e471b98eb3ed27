"""Command line entry point.

Four commands: complete-matrix, complete-tensor, synth and metrics.  The exit
codes are listed in tubal.harness; a failure prints one "error:" line to stderr.
"""

import argparse
import functools
import sys

from .harness import EXIT_INPUT, EXIT_OK, EXIT_SOLVER, SOLVER_ERRORS, run


def _add_solver_options(p, n2_default=None):
    """Options of every solving command; --n2 only where a matrix is folded (n2_default)."""
    p.add_argument("--output", help="output file or directory")
    p.add_argument("--ratio", type=float, help="observed fraction when sampling a mask")
    p.add_argument("--seed", type=int, help="random seed (mask and init)")
    if n2_default is not None:
        p.add_argument("--n2", type=int, default=n2_default, help="columns per frontal slice")
    p.add_argument(
        "--init-rank",
        dest="init_ranks",
        help='per-slice ranks: "8", list, or "R,r*"; a ceiling, with ranks grown from 1, '
        "when rank drops are on and these ranks could interpolate the observed entries",
    )
    p.add_argument("--t0", type=int, help="last sweep with mid-sweep refreshes")
    p.add_argument("--eps", dest="epsilon", type=float, help="relative-change stop threshold")
    p.add_argument("--max-iter", type=int, help="sweep limit")
    p.add_argument(
        "--rank-decrease-tau", type=float,
        help="eigen-gap threshold for rank drops, checked after every sweep; 0 disables",
    )


def _add_data_options(p):
    """Options of the commands that complete given data: its files, mask and reports."""
    p.add_argument(
        "--input", dest="inputs", action="append", default=[],
        help="input: .pgm/.ppm image, .t3 tensor or directory of frames",
    )
    p.add_argument("--mask", dest="mask_path", help="observation mask (.msk)")
    p.add_argument("--trace", dest="trace_path", help="write per-sweep trace CSV here")
    p.add_argument("--metrics-out", dest="metrics_out", help="write metrics CSV here")


@functools.cache
def build_parser():
    """The tubal argument parser, built once; tubal.harness.run takes its namespace.

    An option left off the command line is None, and the setting it names takes the
    solver config's default.  A solver option's dest is the config field it sets.
    Only --n2, --input (no files) and synth's --ratio and --init-rank have defaults of their own.
    """
    parser = argparse.ArgumentParser(
        prog="tubal", description="Low-rank tensor completion via per-frequency factorization"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("complete-matrix", help="complete a partially observed matrix/image")
    _add_solver_options(pm, n2_default=64)
    _add_data_options(pm)

    pt = sub.add_parser("complete-tensor", help="complete a partially observed tensor")
    _add_solver_options(pt)
    _add_data_options(pt)
    pt.add_argument("--init-rank-xt", dest="init_ranks_xt", help="ranks for the regrouped side "
                    "(default: the slice side's starting tubal rank, capped by (n3, p)); with "
                    "rank detection on, ranks that could interpolate the data start at 1")
    pt.add_argument("--p", type=int, help="rows of the regrouped tensor")
    pt.add_argument("--q", type=int, help="slices of the regrouped tensor")
    pt.add_argument("--gamma0", type=float, help="initial blend weight")
    pt.add_argument(
        "--adaptive-gamma",
        action=argparse.BooleanOptionalAction,
        help="refit the blend weight every sweep",
    )

    ps = sub.add_parser("synth", help="generate a synthetic instance, recover it, report error")
    _add_solver_options(ps, n2_default=10)
    ps.set_defaults(ratio=0.6, init_ranks="8")

    pq = sub.add_parser("metrics", help="PSNR/SSIM/relative error between two files")
    pq.add_argument(
        "--input", dest="inputs", action="append", default=[], help="reference, then test"
    )
    pq.add_argument("--metrics-out", dest="metrics_out", help="write metrics CSV here")

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse printed the help (code 0) or a usage error (code 2)
        return EXIT_OK if e.code == 0 else EXIT_INPUT
    try:
        return run(args)
    except SOLVER_ERRORS as e:  # before ValueError, a base of two of them
        print(f"error: solver failed: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
