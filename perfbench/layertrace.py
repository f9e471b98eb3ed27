"""Outside-in layer trace of the tubal library.

The library is not instrumented.  Instead, for the length of one traced call,
each layer function is replaced by a timing wrapper in the namespace of the
module that calls it: ``from x import f`` binds ``f`` at import time, so the
wrapper must go where the caller looks the name up (the CLI's solver is
``tubal.harness.solve_matrix``, not ``tubal.matrix_completion.solve``).

Every wrapped call records a span (name, start, end, parent span, run id) in
memory; self time is a span's duration minus the time its child spans cover.
Counts that belong to a layer boundary (bytes through the FFT, rank changes,
file sizes) are taken by hooks at the same boundaries.
"""

import json
import os
import statistics
import time

from tubal import cli, factors, harness, metrics
from tubal import matrix_completion as mc
from tubal import tensor_completion as tc

MC = "matrix_completion"
TC = "tensor_completion"


def _fft_bytes(tracer, args, result):
    # dft_mode3: real input in, half spectrum out.
    tracer.counters["core.fft_bytes"] += args[0].nbytes + result.slices.nbytes


def _ifft_bytes(tracer, args, result):
    # _irfft_checked: half spectrum in, real tensor out.
    tracer.counters["core.fft_bytes"] += args[0].nbytes + result.nbytes


def _rank_changed(tracer, args, result):
    tracer.counters["factors.rank_decrease.changed"] += int(result[2])


def _bytes_read(tracer, args, result):
    tracer.counters["io.bytes_read"] += os.path.getsize(args[0])


def _bytes_written(tracer, args, result):
    tracer.counters["io.bytes_written"] += os.path.getsize(args[0])


def _matrix_solved(tracer, args, result):
    trace = result[2]
    tracer.solver = (MC, trace.iterations, trace.converged, trace.rows[-1].ranks.total, 0)


def _tensor_solved(tracer, args, result):
    trace = result[1]
    last = trace.rows[-1]
    tracer.solver = (TC, trace.iterations, trace.converged, last.ranks.total, last.ranks_xt.total)


SOLVER_HOOKS = {f"{MC}.solve": _matrix_solved, f"{TC}.solve": _tensor_solved}


# (module whose namespace holds the name, attribute, span name, hook)
WRAPS = [
    (mc, "dft_mode3", "core.dft_mode3", _fft_bytes),
    (tc, "dft_mode3", "core.dft_mode3", _fft_bytes),
    (mc, "_irfft_checked", "core.irfft", _ifft_bytes),
    (tc, "_irfft_checked", "core.irfft", _ifft_bytes),
    (factors, "_irfft_checked", "core.irfft", _ifft_bytes),
    (tc, "reshape_mode3", "core.reshape_mode3", None),
    (tc, "fold3_from_reshaped", "core.fold3_from_reshaped", None),
    (mc, "project", "core.project", None),
    (tc, "project", "core.project", None),
    (mc, "fro_norm", "core.fro_norm", None),
    (tc, "fro_norm", "core.fro_norm", None),
    (metrics, "fro_norm", "core.fro_norm", None),
    (mc, "update_left", "factors.update_left", None),
    (tc, "update_left", "factors.update_left", None),
    (mc, "update_right", "factors.update_right", None),
    (tc, "update_right", "factors.update_right", None),
    (mc, "compose_spectral", "factors.compose_spectral", None),
    (tc, "compose_spectral", "factors.compose_spectral", None),
    (factors, "compose_spectral", "factors.compose_spectral", None),
    (mc, "compose", "factors.compose", None),
    (mc, "rank_decrease", "factors.rank_decrease", _rank_changed),
    (tc, "rank_decrease", "factors.rank_decrease", _rank_changed),
    (mc, "init_factors", "factors.init_factors", None),
    (tc, "init_factors", "factors.init_factors", None),
    (mc, "_half_weighted_sq", f"{MC}.half_weighted_sq", None),
    (tc, "_half_weighted_sq", f"{TC}.half_weighted_sq", None),
    (mc, "_rel_change", f"{MC}.rel_change", None),
    (tc, "_rel_change", f"{TC}.rel_change", None),
    (tc, "_blend", f"{TC}.blend", None),
    (cli, "run", "harness.run", None),
    (harness, "solve_matrix", f"{MC}.solve", _matrix_solved),
    (harness, "solve_tensor", f"{TC}.solve", _tensor_solved),
    (harness, "generate_mask", "harness.generate_mask", None),
    (harness, "load_image", "io.load_image", _bytes_read),
    (harness, "save_image", "io.save_image", _bytes_written),
    (harness, "psnr", "metrics.psnr", None),
    (harness, "ssim", "metrics.ssim", None),
    (harness, "rel_error", "metrics.rel_error", None),
]

# Layer functions reported with both a call count and self time; the rest
# report self time only.
COUNTED = [
    "core.dft_mode3", "core.irfft", "core.reshape_mode3", "core.fold3_from_reshaped",
    "core.project", "core.fro_norm",
    "factors.update_left", "factors.update_right", "factors.compose_spectral",
    "factors.compose", "factors.rank_decrease",
    f"{MC}.half_weighted_sq", f"{TC}.half_weighted_sq",
]
TIMED = [
    "factors.init_factors",
    f"{MC}.solve", f"{MC}.rel_change", f"{TC}.solve", f"{TC}.rel_change", f"{TC}.blend",
    "harness.generate_mask", "harness.run", "io.load_image", "io.save_image",
    "metrics.psnr", "metrics.ssim", "metrics.rel_error", "cli.main",
]
COUNTERS = [
    "core.fft_bytes", "factors.rank_decrease.changed", "io.bytes_read", "io.bytes_written",
]


class LayerTracer:
    """Spans and boundary counters for a sequence of traced calls."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, run id]
        self.counters = {}
        self.solver = None  # (solver layer, sweeps, converged, rank totals of X and X^t) of the last solve
        self.run_id = -1
        self._stack = []
        self._saved = []

    def wrap(self, fn, name, hook=None):
        """Return fn recording a span named name (and calling hook) per call."""

        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def __enter__(self):
        """Start a new run: install every wrapper, zero the boundary counters."""
        self.run_id += 1
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.solver = None
        for module, attr, name, hook in WRAPS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, hook))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def layer_totals(self, run_id):
        """{span name: (calls, self seconds, total seconds)} for one run."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if run == run_id and parent >= 0:
                child[parent] += end - start
        totals = {}
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            if run == run_id:
                calls, self_s, total_s = totals.get(name, (0, 0.0, 0.0))
                totals[name] = (calls + 1, self_s + end - start - child[i], total_s + end - start)
        return totals

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for name, start, end, parent, run in self.spans:
                f.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "run": run}
                ) + "\n")


def layer_metrics(runs, entry, untraced_wall):
    """Per-layer metrics from traced runs of one input.

    Each run is a dict with its layer totals ("totals"), boundary counters
    ("counters"), solver summary ("solver"), slice-solve counter delta
    ("slice_solves") and wall seconds ("wall"); entry names the span of the
    timed call.  Times are medians over runs; counts come from the last run,
    since they repeat exactly on the same input.
    """
    last = runs[-1]

    def median_of(name, field):
        return statistics.median(r["totals"].get(name, (0, 0.0, 0.0))[field] for r in runs)

    out = {}
    for name in COUNTED:
        out[f"{name}.calls"] = last["totals"].get(name, (0, 0.0, 0.0))[0]
        out[f"{name}.self_ms"] = median_of(name, 1) * 1e3
    for name in TIMED:
        out[f"{name}.self_ms"] = median_of(name, 1) * 1e3
    out.update(last["counters"])
    calls = out["factors.rank_decrease.calls"]
    out["factors.rank_decrease.useful_ratio"] = (
        out["factors.rank_decrease.changed"] / calls if calls else 0.0
    )
    out["factors.slice_solves"] = last["slice_solves"]
    for layer in (MC, TC):
        layer_name, sweeps, converged, rank_total, _ = last["solver"]
        if layer_name != layer:
            sweeps = converged = rank_total = 0
        out[f"{layer}.sweeps"] = sweeps
        out[f"{layer}.ms_per_sweep"] = median_of(f"{layer}.solve", 2) * 1e3 / sweeps if sweeps else 0.0
        out[f"{layer}.converged"] = int(converged)
        out[f"{layer}.rank_total"] = rank_total
    out[f"{TC}.rank_total_xt"] = last["solver"][4]  # 0 unless the tensor solver ran
    out["trace.coverage"] = statistics.median(
        sum(s for name, (_, s, _) in r["totals"].items() if name != entry) / r["wall"]
        for r in runs
    )
    out["trace.overhead_frac"] = statistics.median(r["wall"] for r in runs) / untraced_wall - 1.0
    return out
