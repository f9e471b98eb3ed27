"""Print the output digest of every benchmark instance, one line each: workload, seed,
digest, x digest, rel_error, peak.

The digests and rel_errors are the ones perfbench/workloads.py's check() takes,
on the instances of instance_seeds(SEED, n), computed with whichever tubal
comes first on sys.path and one BLAS thread (--threads N for N).  No workload runs the growth path
(a start that could interpolate the data, grown from rank 1), so growth-matrix
and growth-tensor lines follow: the matrix solver and the default tensor solver
on criterion 4's instance at init_ranks=8, seeds 0-4, each digest taken over x
and the trace's objective/rel_change history.  The x digest is taken over the
solver's float output alone: x, or for image-cli the recovered matrix that
tubal.harness.solve_matrix returns inside the CLI call, before it is quantized
to the output image.  So a line whose digest moved with its x digest equal moved
only in its logged trace, such as the rounding of the objective.  The peak is the
call's tracemalloc peak over the bytes of its iterate (x, or the CLI's image as
floats), so a line shows how many iterate-sized arrays the call held at once: for
a solver line the solve's, for image-cli the whole CLI call's, reading, solving,
writing and scoring included; image-cli's matrix is hashed where it is returned,
so no copy of it outlives the call.  Two trees compare by running this once with each
tree's src on PYTHONPATH:

    PYTHONPATH=base/src python tools/digests.py > base.txt
    PYTHONPATH=src python tools/digests.py --against base.txt

and one tree at two thread counts by running it with --threads 1 and --threads 2
(the pin is set before NumPy loads, so it takes a fresh process per count).

With --against, the second run prints how many digests and how many x digests
equal the base file's, then one "- moved:" line per instance whose digest moved:
workload, seed, its rel_error in the base file and here, the relative change
between the two, and "x equal" or "x moved"; then how many peaks rose and how
many fell by more than PEAK_JITTER, and one "- peak rose:" or "- peak fell:" line
per instance whose peak did: workload, seed, its peak in the base file and here.
Each rel_error is printed to 17 significant digits, so a move by rounding shows.
"""

import argparse
import contextlib
import hashlib
import os
import sys
import tempfile
import tracemalloc


def thread_count(text):
    """--threads' value: an integer from 1 to the CPU count."""
    n, most = int(text) if text.isdigit() else 0, os.cpu_count() or 1
    if not 1 <= n <= most:
        raise argparse.ArgumentTypeError(f"expected 1 to {most} threads, got {text!r}")
    return n


parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
parser.add_argument("--against", metavar="BASE_FILE", help="compare with this script's output")
parser.add_argument("--threads", type=thread_count, default=1, metavar="N",
                    help="BLAS threads (default 1)")
args = parser.parse_args()
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(args.threads)  # before NumPy loads its BLAS
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(1, os.path.join(ROOT, "perfbench"))  # after this directory, before PYTHONPATH
import numpy as np  # noqa: E402
import tubal  # noqa: E402
from workloads import WORKLOADS, _digest, instance_seeds  # noqa: E402

SEED = 101
PEAK_JITTER = 0.05  # iterate sizes; one tree's peaks differ by 0.01 from run to run


@contextlib.contextmanager
def hashed_matrices(digests):
    """Wrap tubal.harness.solve_matrix so that the digest of each recovered matrix it returns
    (the bytes _digest hashes) is appended to digests, hashed in place, so no copy of it
    outlives the call."""
    solve = tubal.harness.solve_matrix

    def wrapped(*args, **kwargs):
        result = solve(*args, **kwargs)
        digests.append(hashlib.sha256(np.ascontiguousarray(result[1])).hexdigest())
        return result
    tubal.harness.solve_matrix = wrapped
    try:
        yield
    finally:
        tubal.harness.solve_matrix = solve


def relative(base_err, err):
    """The relative change from base_err to err, two rel_error fields, as text ("" for "-")."""
    if "-" in (base_err, err):
        return ""
    return f" ({float(err) / float(base_err) - 1:+.1e} relative)"


def traced(solve, *args):
    """(solve(*args), the tracemalloc peak of that call in bytes, above what was live before)."""
    tracemalloc.reset_peak()
    live = tracemalloc.get_traced_memory()[0]
    result = solve(*args)
    return result, tracemalloc.get_traced_memory()[1] - live


def results():
    """(workload, seed, digest, x digest, rel_error, peak) of every instance, as strings, one
    at a time."""
    tracemalloc.start()
    with tempfile.TemporaryDirectory() as workdir:
        for wl in WORKLOADS.values():
            wl.setup(workdir)
            entry = wl.entry()
            for seed in instance_seeds(SEED, wl.instances):
                inst, matrices = wl.prepare(seed), []
                with hashed_matrices(matrices):  # only the CLI's call goes through the harness
                    result, peak = traced(wl.call, entry, inst)
                _, err, _, digest = wl.check(inst, result)
                size = wl.pixels.size * 8 if hasattr(inst, "paths") else result[0].nbytes
                x = matrices[0] if matrices else _digest(result[0])
                yield (wl.name, str(seed), str(digest), x,
                       "-" if err is None else f"{err:.17g}", f"{peak / size:.2f}")
    solvers = {"growth-matrix": (tubal.complete_matrix, tubal.SolverConfig),
               "growth-tensor": (tubal.complete_tensor, tubal.DoubleTubalConfig)}
    for seed in range(5):  # criterion 4's instance: a 50 x 100 matrix folded at n2 = 10
        truth = tubal.synth_low_tubal(50, 10, 10, 3, seed)
        mask = tubal.generate_mask((50, 100, 1), 0.6, seed).observed[:, :, 0]
        problem = tubal.CompletionProblem.from_matrix(tubal.tensor_to_matrix(truth, 100), mask, 10)
        for name, (solve, config) in solvers.items():
            (x, *_, trace), peak = traced(solve, problem, config(init_ranks=8, seed=seed))
            history = np.array([(r.objective, r.rel_change) for r in trace.rows])
            yield (name, str(seed), _digest(x, history), _digest(x),
                   f"{tubal.rel_error(x, truth):.17g}", f"{peak / x.nbytes:.2f}")


print(f"tubal from {os.path.dirname(tubal.__file__)}, {args.threads} BLAS thread(s)",
      file=sys.stderr)

if args.against is None:
    for line in results():
        print(*line, flush=True)
else:
    with open(args.against) as f:
        base = {tuple(words[:2]): words[2:] for words in map(str.split, f)}
    head = list(results())
    x_equal = sum(base[w, s][1] == xd for w, s, _, xd, *_ in head)
    moved = [(w, s, base[w, s][2], err, "x equal" if base[w, s][1] == xd else "x moved")
             for w, s, digest, xd, err, _ in head if base[w, s][0] != digest]
    peaks = [(w, s, base[w, s][3], peak) for w, s, *_, peak in head]
    rose = [line for line in peaks if float(line[3]) > float(line[2]) + PEAK_JITTER]
    fell = [line for line in peaks if float(line[3]) < float(line[2]) - PEAK_JITTER]
    print(f"{len(head) - len(moved)} of {len(head)} equal, {x_equal} of {len(head)} with equal x")
    for w, s, base_err, err, x in moved:
        print(f"- moved: {w} {s} {base_err} -> {err}{relative(base_err, err)}, {x}")
    print(f"{len(rose)} of {len(head)} with a higher peak, {len(fell)} with a lower "
          "(in iterate sizes)")
    for way, lines in (("rose", rose), ("fell", fell)):
        for w, s, base_peak, peak in lines:
            print(f"- peak {way}: {w} {s} {base_peak} -> {peak}")
