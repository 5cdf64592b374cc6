"""spinlab: a simulation and verification laboratory for Langevin dynamics
of asymmetric soft-spin glasses.

The package integrates N coordinates confined to (-s, s) that interact
through a random matrix with i.i.d. entries, alongside a piecewise-frozen
approximation of the same dynamics.  Observables, change-of-measure
statistics, and an exactly-solvable comparison laboratory quantify how
little the path statistics depend on the entry law.
"""

import os as _os

# Reproducibility: pin BLAS kernels to one thread unless the user chose
# otherwise.  Threaded BLAS reductions can change summation order between
# runs, so output bytes would drift.  Must happen before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")
del _os, _var

from .model import (
    ModelParams,
    Potential,
    InitialLaw,
    PathEnsemble,
    DomainError,
    log_barrier,
    double_well,
    custom_potential,
    point_mass,
    uniform_symmetric,
    u1_eval,
    u1_prime,
    u1_double_prime,
    grid_times,
    max_negative_curvature,
)
from .disorder import (
    DisorderLaw,
    DisorderMatrix,
    CustomSampler,
    GAUSSIAN,
    RADEMACHER,
    CENTERED_EXPONENTIAL,
    sample_matrix,
    operator_norm_report,
    PowerIterationError,
    PowerIterationReport,
    validate_law,
    LawReport,
    condition_diagnostics,
    ConditionDiagnostics,
)
from .dynamics import (
    CouplingStats,
    SafeguardError,
    sample_initial,
    simulate_full,
    simulate_frozen,
    simulate_coupled,
    simulate_shared,
    coupling_stats,
    coupling_envelope,
    envelope_violated,
    default_a2,
)
from .observables import (
    GirsanovRecord,
    d2_path,
    coupling_msd,
    autocorrelation,
    w2_empirical,
    marginal_w2_distance,
    girsanov_stats,
)
from .lindeberg import (
    QuadraticForm,
    h_eval,
    lindeberg_bound,
    gaussian_expectation_exact,
    GaussianExpectation,
    expectation_exact_discrete,
    expectation_mc,
    random_instance,
    certificate_suite,
    CertificateRow,
    gaussian_mc_check,
    GaussianCheckRow,
)
from .streams import BrownianStream, CounterStream, derive_seed
from .config import ConfigError, ExperimentConfig, load_config
from .harness import (
    NumericalFailure,
    RunSummary,
    replay,
    run_freeze_sweep,
    run_lindeberg_suite,
    run_simulate,
    run_universality,
    run_validation,
)

__version__ = "0.1.0"
