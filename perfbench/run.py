"""Benchmark of the tubal completion library.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tensor-large --seed 0 --seconds 30 --trace 0

Workloads, metrics and bounds are declared in BENCHMARK.json; perfbench/README.md
says why each was chosen.  With --trace 0 the end-to-end metrics are measured
with tracing off; with --trace 1 a separate run reports the per-layer metrics.
The workload runs in a child process of its own, so its peak resident memory
is its own; set-up time is the median over several fresh interpreters.  BLAS
and the library's slice pool are pinned to one thread, and the allocator
keeps freed memory, so warm calls take no page faults.

Human-readable lines come first; the last line of output is one JSON object
with the keys correct, attempted, failed and metrics.  A run record with the
environment and every sample goes to .perfbench/ in the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 11
DEADLINE_S = 170  # the whole run, set-up probes included
PINNED = {
    "TUBAL_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # glibc keeps freed memory in the process instead of unmapping it, so a
    # warm call takes no page faults: their cost swings with the host's memory
    # pressure, and the reference kernels cannot track it (see README.md).
    "GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=1073741824",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def _worker(args, extra, env, timeout):
    """Run worker.py to completion; returns (last stdout line as JSON, peak RSS in MB)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
    finally:
        killer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError("worker printed nothing")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def measure(args, spec, env, workdir):
    deadline = time.monotonic() + DEADLINE_S

    def remaining():
        left = deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        return left

    extra = ["--workdir", workdir]
    if args.trace:
        result, _ = _worker(args, extra, env, remaining())
        declared = spec["per_layer"]
    else:
        probes = [
            _worker(args, extra + ["--setup-only"], env, remaining())[0]
            for _ in range(SETUP_PROBES)
        ]
        result, peak_mb = _worker(args, extra, env, remaining())
        setups = [p["setup_s"] for p in probes]
        result["metrics"].update(setup_s=statistics.median(setups), peak_rss_mb=peak_mb)
        result["samples"]["setup_s"] = setups
        result["samples"]["raw_setup_s"] = [p["raw_setup_s"] for p in probes]
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(units):
        missing, extra_names = sorted(set(units) - set(got)), sorted(set(got) - set(units))
        raise BenchError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra_names}")
    result["metrics"] = {name: {"value": got[name], "unit": units[name]} for name in units}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")
    for needed in ("BENCHMARK.json", os.path.join("src", "tubal", "__init__.py")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found under {ROOT}", file=sys.stderr)
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")

    env = dict(os.environ, **PINNED)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = measure(args, spec, env, workdir)
    except (BenchError, ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = result["failed"] == 0
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, correct=correct)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(record, f, indent=1)

    print("env " + json.dumps(result["env"]))
    timed = result["samples"].get("wall_s") or result["samples"].get("traced_wall_s")
    print(f"{args.workload} seed {args.seed}: {result['attempted']} calls, "
          f"{len(timed)} timed, failed_frac {result['failed'] / result['attempted']:.3f}")
    if result["samples"].get("raw_wall_s"):
        raw = {k: statistics.median(result["samples"][f"raw_{k}"]) for k in ("wall_s", "cpu_s", "setup_s")}
        print("  unscaled medians: " + ", ".join(f"{k} {v:.6g} s" for k, v in raw.items())
              + f"; page faults per call {statistics.median(result['samples']['page_faults']):g}")
    for key, m in result["metrics"].items():
        print(f"  {key:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
