"""Run the tests with the BLAS threading the ``spinlab`` command uses.

``spinlab/__init__.py`` pins BLAS to one thread, but that has no effect
once numpy has loaded its BLAS, and test modules import numpy before
``spinlab``.  This file loads before any test module, in ``tests/`` and
``perfbench/tests`` alike, so the variables are set in time.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
