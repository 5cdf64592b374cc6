"""spinlab: a simulation and verification laboratory for Langevin dynamics
of asymmetric soft-spin glasses.

The package integrates N coordinates confined to (-s, s) that interact
through a random matrix with i.i.d. entries, alongside a piecewise-frozen
approximation of the same dynamics.  Observables, change-of-measure
statistics, and an exactly-solvable comparison laboratory quantify how
little the path statistics depend on the entry law.

Import each name from the module that defines it; the package itself
holds only ``load_config`` and ``GAUSSIAN``.
"""

import os as _os

# Reproducibility: pin BLAS kernels to one thread unless the user chose
# otherwise.  Threaded BLAS reductions can change summation order between
# runs, so output bytes would drift.  Must happen before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")
del _os, _var

from .config import load_config
from .disorder import GAUSSIAN

__all__ = ["load_config", "GAUSSIAN"]
