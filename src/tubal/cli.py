"""Command line entry point.

Four commands: complete-matrix, complete-tensor, synth and metrics.  Slice
solves run on the calling thread, batched by slice rank; the TUBAL_THREADS
environment variable is no longer read.
"""

import argparse
import sys

from .harness import EXIT_INPUT, ExperimentSpec, run


def _add_common(p, n2_default):
    p.add_argument("--input", action="append", default=[], help="input file (image or .t3)")
    p.add_argument("--output", help="output file or directory")
    p.add_argument("--mask", dest="mask_path", help="observation mask (.msk)")
    p.add_argument("--ratio", type=float, help="observed fraction when sampling a mask")
    p.add_argument("--seed", type=int, default=0, help="random seed (mask and init)")
    p.add_argument("--n2", type=int, default=n2_default, help="columns per frontal slice")
    p.add_argument(
        "--init-rank",
        dest="init_rank",
        help='per-slice ranks: "8", list, or "R,r*"; a ceiling, with ranks grown from 1, '
        "when rank drops are on and these ranks could interpolate the observed entries",
    )
    p.add_argument("--t0", type=int, default=10, help="last sweep with mid-sweep refreshes")
    p.add_argument("--eps", type=float, default=1e-4, help="relative-change stop threshold")
    p.add_argument("--max-iter", type=int, default=100, help="sweep limit")
    p.add_argument(
        "--rank-decrease-tau",
        type=float,
        default=10.0,
        help="eigen-gap threshold for rank drops; 0 disables",
    )
    p.add_argument("--trace", dest="trace_path", help="write per-sweep trace CSV here")
    p.add_argument("--metrics-out", dest="metrics_out", help="write metrics CSV here")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tubal", description="Low-rank tensor completion via per-frequency factorization"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("complete-matrix", help="complete a partially observed matrix/image")
    _add_common(pm, n2_default=64)

    pt = sub.add_parser("complete-tensor", help="complete a partially observed tensor")
    _add_common(pt, n2_default=64)
    pt.add_argument("--init-rank-xt", dest="init_rank_xt", help="ranks for the regrouped side")
    pt.add_argument("--p", type=int, help="rows of the regrouped tensor")
    pt.add_argument("--q", type=int, help="slices of the regrouped tensor")
    pt.add_argument("--gamma0", type=float, default=1.0, help="initial blend weight")
    pt.add_argument(
        "--adaptive-gamma",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="refit the blend weight every sweep",
    )
    pt.add_argument(
        "--midstep-blend",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="use the blended fill in mid-sweep refreshes",
    )

    ps = sub.add_parser("synth", help="generate a synthetic instance, recover it, report error")
    _add_common(ps, n2_default=10)

    pq = sub.add_parser("metrics", help="PSNR/SSIM/relative error between two files")
    pq.add_argument("--input", action="append", default=[], help="reference, then test")
    pq.add_argument("--metrics-out", dest="metrics_out", help="write metrics CSV here")

    return parser


def _to_spec(args):
    fields = {
        "inputs": args.input,
        "output": getattr(args, "output", None),
        "mask_path": getattr(args, "mask_path", None),
        "ratio": getattr(args, "ratio", None),
        "seed": getattr(args, "seed", 0),
        "n2": getattr(args, "n2", 64),
        "init_rank": getattr(args, "init_rank", None),
        "init_rank_xt": getattr(args, "init_rank_xt", None),
        "p": getattr(args, "p", None),
        "q": getattr(args, "q", None),
        "t0": getattr(args, "t0", 10),
        "eps": getattr(args, "eps", 1e-4),
        "max_iter": getattr(args, "max_iter", 100),
        "gamma0": getattr(args, "gamma0", 1.0),
        "adaptive_gamma": getattr(args, "adaptive_gamma", True),
        "midstep_blend": getattr(args, "midstep_blend", True),
        "rank_decrease_tau": getattr(args, "rank_decrease_tau", 10.0),
        "trace_path": getattr(args, "trace_path", None),
        "metrics_out": getattr(args, "metrics_out", None),
    }
    return ExperimentSpec(command=args.command, **fields)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return run(_to_spec(args))
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
