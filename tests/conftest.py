import os

# single-threaded BLAS, as the benchmark runs: set before anything imports numpy, since
# OpenBLAS reads it once at load (on a loaded host a threaded 128 x 128 qr can take 20 ms)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# every property battery: small, derandomized and database-free, so the suite stays reproducible
settings.register_profile("csnc", max_examples=25, deadline=None, derandomize=True, database=None)
settings.load_profile("csnc")
