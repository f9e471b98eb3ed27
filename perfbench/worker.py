"""One workload in a process of its own; started by run.py, not by hand.

With --setup-only it measures set-up from a fresh interpreter (importing
tubal and building one problem) and stops.  Otherwise it times the workload's
call with tracing off (--trace 0), or alternates untraced and traced calls on
one instance and reports per-layer metrics (--trace 1).  The last line of its
output is one JSON object.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_tubal(module):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    started = time.perf_counter()
    __import__(module)
    elapsed = time.perf_counter() - started
    import tubal

    if not os.path.abspath(tubal.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"imported tubal from {tubal.__file__}, not from this checkout")
    return elapsed


def setup_only(name):
    """Set-up seconds in a fresh interpreter: importing tubal and constructing one problem.

    Returns (scaled, raw): raw is the measured time; scaled divides it by the
    workload's reference kernel, timed right after, and multiplies by the
    reference's nominal time, as timed() does for calls.
    """
    if name == "image-cli":
        raw = _import_tubal("tubal.cli")
        from workloads import WORKLOADS
    else:
        raw = _import_tubal("tubal")
        from workloads import WORKLOADS, instance_seeds

        seed = instance_seeds(0, 1)[0]
        truth = WORKLOADS[name].truth(seed)
        started = time.perf_counter()
        WORKLOADS[name].construct(truth, seed)
        raw += time.perf_counter() - started
    wl = WORKLOADS[name]
    wl.reference()  # warm-up: makes its data
    _, ref_wall, _ = _clock(wl.reference)
    return raw / ref_wall * wl.reference_s, raw


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in (
            "TUBAL_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "malloc": os.environ.get("GLIBC_TUNABLES"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def _clock(fn, *args):
    """(result, wall seconds, process CPU seconds) of fn(*args)."""
    t0, c0 = time.perf_counter(), time.process_time()
    result = fn(*args)
    return result, time.perf_counter() - t0, time.process_time() - c0


def timed(wl, seeds, seconds):
    """End-to-end metrics with tracing off: every instance once, then cycle until time is up.

    The workload's reference kernel runs before the first call and after
    every call.  Each call's wall and CPU time is divided by the mean of the
    reference times on either side of it and multiplied by the reference's
    nominal time, so a reported time is the call's time at the speed the
    nominal was measured at: the shared machine's speed drifts by tens of
    percent over seconds, and the reference drifts with it.  Times are
    medians over every call that returned; the raw medians are kept in the
    samples.  Accuracy is the median over the distinct instances, so it
    depends on the seed alone.
    """
    entry = wl.entry()
    walls, cpus, scaled_walls, scaled_cpus, faults = [], [], [], [], []
    errors, gains, digests, failures = {}, {}, {}, []
    wl.reference()  # warm-up: makes its data
    _, ref_wall, ref_cpu = _clock(wl.reference)
    started = time.perf_counter()
    i = 0
    while i < max(wl.min_calls, len(seeds)) or time.perf_counter() - started < seconds:
        inst = wl.prepare(seeds[i % len(seeds)])
        i += 1
        minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        try:
            result, wall, cpu = _clock(wl.call, entry, inst)
        except Exception as e:  # a failed call is counted, never dropped
            failures.append(f"instance {inst.seed}: {type(e).__name__}: {e}")
            continue
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt)
        _, next_wall, next_cpu = _clock(wl.reference)
        walls.append(wall)
        cpus.append(cpu)
        scaled_walls.append(wall / (ref_wall + next_wall) * 2.0 * wl.reference_s)
        scaled_cpus.append(cpu / (ref_cpu + next_cpu) * 2.0 * wl.reference_s)
        ref_wall, ref_cpu = next_wall, next_cpu
        try:
            reason, err, gain, digest = wl.check(inst, result)
        except Exception as e:
            failures.append(f"instance {inst.seed}: {type(e).__name__}: {e}")
            continue
        if reason is None and digests.setdefault(inst.seed, digest) != digest:
            reason = "repeated call on the same input gave different output"
        if reason is not None:
            failures.append(f"instance {inst.seed}: {reason}")
        if err is not None:
            errors[inst.seed], gains[inst.seed] = err, gain
    metrics = {}
    if walls and len(errors) == len(seeds):
        metrics = {
            "wall_s": statistics.median(scaled_walls),
            "cpu_s": statistics.median(scaled_cpus),
            "rel_error": statistics.median(errors.values()),
            "psnr_gain_db": statistics.median(gains.values()),
        }
    samples = {
        "wall_s": scaled_walls, "cpu_s": scaled_cpus,
        "raw_wall_s": walls, "raw_cpu_s": cpus, "rel_error": list(errors.values()),
        "page_faults": faults,
    }
    return i, len(failures), failures, metrics, samples


def traced(wl, seeds, seconds, spans_path):
    """Per-layer metrics: untraced and traced calls alternate on the first instance."""
    from tubal import factors

    from layertrace import SOLVER_HOOKS, LayerTracer, layer_metrics

    tracer = LayerTracer()
    entry = wl.entry()
    wrapped = tracer.wrap(entry, wl.entry_name, SOLVER_HOOKS.get(wl.entry_name))
    inst = wl.prepare(seeds[0])
    untraced_walls, runs, failures = [], [], []
    started = time.perf_counter()
    attempted = failed = 0
    while not runs or time.perf_counter() - started < seconds:
        attempted += 2
        try:
            t0 = time.perf_counter()
            result = wl.call(entry, inst)
            untraced_walls.append(time.perf_counter() - t0)
            plain = wl.check(inst, result)
            solves = factors.slice_solves.count
            with tracer:
                t0 = time.perf_counter()
                result = wl.call(wrapped, inst)
                wall = time.perf_counter() - t0
            solves = factors.slice_solves.count - solves
            checked = wl.check(inst, result)
        except Exception as e:  # a failed call is counted, never dropped
            failures.append(f"{type(e).__name__}: {e}")
            failed += 2
            break
        if plain[0] is not None:
            failures.append(f"untraced call: {plain[0]}")
            failed += 1
        if checked[0] is not None or plain[3] != checked[3]:
            failures.append(f"traced call: {checked[0] or 'output differs from untraced output'}")
            failed += 1
        runs.append({
            "totals": tracer.layer_totals(tracer.run_id),
            "counters": dict(tracer.counters),
            "solver": tracer.solver,
            "slice_solves": solves,
            "wall": wall,
        })
    tracer.write_jsonl(spans_path)
    metrics = layer_metrics(runs, wl.entry_name, statistics.median(untraced_walls)) if runs else {}
    samples = {"untraced_wall_s": untraced_walls, "traced_wall_s": [r["wall"] for r in runs]}
    return attempted, failed, failures, metrics, samples


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if args.setup_only:
        scaled, raw = setup_only(args.workload)
        print(json.dumps({"setup_s": scaled, "raw_setup_s": raw}))
        return
    _import_tubal("tubal")
    from workloads import WORKLOADS, instance_seeds

    wl = WORKLOADS[args.workload]
    wl.setup(args.workdir)
    seeds = instance_seeds(args.seed, wl.instances)
    if args.trace:
        spans = os.path.join(os.path.dirname(args.workdir), f"{wl.name}-seed{args.seed}-spans.jsonl")
        attempted, failed, failures, metrics, samples = traced(wl, seeds, args.seconds, spans)
    else:
        attempted, failed, failures, metrics, samples = timed(wl, seeds, args.seconds)
    for failure in failures:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": samples,
        "env": environment(),
    }))


if __name__ == "__main__":
    main()
