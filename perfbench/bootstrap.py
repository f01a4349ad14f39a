"""Environment for every benchmark process; import it before numpy.

Caps BLAS/OpenMP at one thread, so a process never has more threads than
the two cores the benchmark is sized for, and puts the checkout's `src/`
first on `sys.path`, so the benchmark measures the source tree it sits in
rather than any installed copy.
"""

import os
import sys
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
