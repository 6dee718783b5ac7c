"""Process bootstrap shared by the benchmark's entry points.

Import this module, and call ``pin_and_locate``, before anything imports
numpy: OpenBLAS reads its thread count once, when it is loaded.  One BLAS
thread is pinned because a second one makes the n=6 stability program about
three times slower on small matrices and changes the interior-point
iteration count on identical data, so neither times nor counts would repeat.
"""

import os
import sys
from pathlib import Path

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"


class SourceMissing(RuntimeError):
    """The checkout holds no package source to benchmark."""


def pin_and_locate():
    """Pin the BLAS thread count and put the checkout's package first on the path."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    package = SRC / "gibbslearn" / "__init__.py"
    if not package.is_file():
        raise SourceMissing(f"no gibbslearn source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check_imported_from_source():
    """Refuse a gibbslearn imported from anywhere but the checkout's source."""
    import gibbslearn

    where = Path(gibbslearn.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SourceMissing(f"gibbslearn imported from {where}, not from {SRC}")
