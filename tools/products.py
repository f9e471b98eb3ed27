"""Print, for each benchmark workload's slice products, the median time of the two real
block forms factors._times can hand BLAS, and whether they give the same bytes.

factors._times computes a stack of complex products x @ b as one real matmul of x's
interleaved float view by b's real 2x2-block form.  It builds that form row-major, or
column-major where a result slice holds at least core.BLOCK complex entries, because
OpenBLAS takes a different kernel for each form and the faster one depends on the shape.
This script re-measures the rule on whichever NumPy and BLAS it runs with, one BLAS
thread, and prints a Markdown table: the shape, the form _times takes, both forms'
median milliseconds per stack, and "yes" where their products are byte-identical (the
forms hold the same floats, but BLAS may sum them in another order).  The row-major form's time at
tensor-large's 200x200 slices depends on where glibc places its result: with glibc's
default allocator it can match the column-major form, and with perfbench/run.py's
GLIBC_TUNABLES (which the benchmark runs under) it took about 1.6 times as long.  So run it
with those settings and the library's src on PYTHONPATH:

    GLIBC_TUNABLES=glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=1073741824 \
        PYTHONPATH=src python tools/products.py
"""

import os
import timeit

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before NumPy loads its BLAS
import numpy as np  # noqa: E402
from tubal.core import BLOCK  # noqa: E402

# (workload side, stored slices, rows, padded rank, columns) of each compose_spectral stack
SHAPES = [
    ("tensor-large, slice side", 16, 200, 5, 200),
    ("tensor-large, regrouped side", 33, 30, 5, 625),
    ("tubes-long", 257, 16, 2, 16),
    ("image-cli", 17, 512, 8, 16),
]
REPEATS = 15


def row_major(b):
    """b's block rows [b, 1j * b], read as (2 n, 2 c) floats, C-ordered."""
    n, c = b.shape[-2:]
    return np.concatenate((b, 1j * b), axis=-1).reshape(len(b), 2 * n, c).view(float)


def column_major(b):
    """The same floats, each matrix stored column-major: b^H's block rows, transposed."""
    n, c = b.shape[-2:]
    bh = b.conj().swapaxes(-1, -2)
    blocks = np.concatenate((bh, 1j * bh), axis=-1).reshape(len(b), 2 * c, n)
    return blocks.view(float).swapaxes(1, 2)


def median_ms(x, form, b):
    """Median milliseconds of one stack's product, the block form built inside the timing."""
    times = timeit.repeat(lambda: x @ form(b), number=5, repeat=REPEATS)
    return 1e3 * float(np.median(times)) / 5


rng = np.random.default_rng(0)
print(f"NumPy {np.__version__}, one BLAS thread, core.BLOCK = {BLOCK} entries, "
      f"GLIBC_TUNABLES={os.environ.get('GLIBC_TUNABLES', '(unset)')}")
print()
print("| stack | entries per slice | _times takes | row-major ms | column-major ms | same bytes |")
print("|---|---|---|---|---|---|")
for name, g, m, r, c in SHAPES:
    x = rng.standard_normal((g, m, 2 * r))  # a complex (g, m, r) stack's float view
    b = rng.standard_normal((g, r, c)) + 1j * rng.standard_normal((g, r, c))
    same = np.array_equal(x @ row_major(b), x @ column_major(b))
    taken = "column-major" if m * c >= BLOCK else "row-major"
    print(f"| {name}: {g} x ({m}x{r})({r}x{c}) | {m * c} | {taken} | "
          f"{median_ms(x, row_major, b):.3f} | {median_ms(x, column_major, b):.3f} | "
          f"{'yes' if same else 'no'} |")
