"""Pin BLAS to one thread before numpy is imported.

A process beside the suite that also runs BLAS threads would otherwise
oversubscribe the cores, and the acceptance time gates would measure it,
not the code. Results do not depend on the thread count.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
