"""Command line entry point.

Four commands: complete-matrix, complete-tensor, synth and metrics.  The exit
codes are listed in tubal.harness; a failure prints one "error:" line to stderr.
"""

import argparse
import functools
import sys

from .harness import EXIT_INPUT, EXIT_SOLVER, SOLVER_ERRORS, ExperimentSpec, run


def _add_common(p, n2_default):
    p.add_argument("--input", dest="inputs", action="append", help="input file (image or .t3)")
    p.add_argument("--output", help="output file or directory")
    p.add_argument("--mask", dest="mask_path", help="observation mask (.msk)")
    p.add_argument("--ratio", type=float, help="observed fraction when sampling a mask")
    p.add_argument("--seed", type=int, help="random seed (mask and init)")
    p.add_argument("--n2", type=int, default=n2_default, help="columns per frontal slice")
    p.add_argument(
        "--init-rank",
        dest="init_rank",
        help='per-slice ranks: "8", list, or "R,r*"; a ceiling, with ranks grown from 1, '
        "when rank drops are on and these ranks could interpolate the observed entries",
    )
    p.add_argument("--t0", type=int, help="last sweep with mid-sweep refreshes")
    p.add_argument("--eps", type=float, help="relative-change stop threshold")
    p.add_argument("--max-iter", type=int, help="sweep limit")
    p.add_argument(
        "--rank-decrease-tau", type=float, help="eigen-gap threshold for rank drops; 0 disables"
    )
    p.add_argument("--trace", dest="trace_path", help="write per-sweep trace CSV here")
    p.add_argument("--metrics-out", dest="metrics_out", help="write metrics CSV here")


@functools.cache
def build_parser():
    """The tubal argument parser, built once.  An option left off the command line stays
    out of the namespace, so ExperimentSpec supplies it from the solver configs' defaults;
    only --n2 has a default of its own, per subcommand."""
    parser = argparse.ArgumentParser(
        prog="tubal", description="Low-rank tensor completion via per-frequency factorization"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        return sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)

    pm = command("complete-matrix", "complete a partially observed matrix/image")
    _add_common(pm, n2_default=64)

    pt = command("complete-tensor", "complete a partially observed tensor")
    _add_common(pt, n2_default=64)
    pt.add_argument("--init-rank-xt", dest="init_rank_xt", help="ranks for the regrouped side")
    pt.add_argument("--p", type=int, help="rows of the regrouped tensor")
    pt.add_argument("--q", type=int, help="slices of the regrouped tensor")
    pt.add_argument("--gamma0", type=float, help="initial blend weight")
    pt.add_argument(
        "--adaptive-gamma",
        action=argparse.BooleanOptionalAction,
        help="refit the blend weight every sweep",
    )

    ps = command("synth", "generate a synthetic instance, recover it, report error")
    _add_common(ps, n2_default=10)

    pq = command("metrics", "PSNR/SSIM/relative error between two files")
    pq.add_argument("--input", dest="inputs", action="append", help="reference, then test")
    pq.add_argument("--metrics-out", dest="metrics_out", help="write metrics CSV here")

    return parser


def _to_spec(args):
    return ExperimentSpec(**vars(args))


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return run(_to_spec(args))
    except SOLVER_ERRORS as e:  # before ValueError, a base of two of them
        print(f"error: solver failed: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
