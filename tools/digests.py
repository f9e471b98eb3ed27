"""Print the output digest of every benchmark instance, one line each: workload, seed, digest.

The digests are the ones perfbench/workloads.py's check() takes, on the
instances of instance_seeds(SEED, n), computed with whichever tubal comes
first on sys.path and one BLAS thread.  Two trees compare by running this
once with each tree's src on PYTHONPATH and diffing the output:

    PYTHONPATH=src python tools/digests.py > digests.txt
"""

import os
import sys
import tempfile

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before NumPy loads its BLAS
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(1, os.path.join(ROOT, "perfbench"))  # after this directory, before PYTHONPATH
import tubal  # noqa: E402
from workloads import WORKLOADS, instance_seeds  # noqa: E402

SEED = 101
print(f"tubal from {os.path.dirname(tubal.__file__)}", file=sys.stderr)

with tempfile.TemporaryDirectory() as workdir:
    for wl in WORKLOADS.values():
        wl.setup(workdir)
        entry = wl.entry()
        for seed in instance_seeds(SEED, wl.instances):
            inst = wl.prepare(seed)
            print(wl.name, seed, wl.check(inst, wl.call(entry, inst))[3], flush=True)
