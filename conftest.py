"""Run the test suite's BLAS single-threaded unless the environment says otherwise.

The matrices in these tests are small, so a second BLAS thread buys little,
and two unpinned numpy processes on a small machine slow each other several
times over; the wall-clock bound of the slow training test is then at risk.
pytest loads this file before any test module imports numpy, which reads
these variables once, at import.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
