"""Walk through one interacting simulation at small size.

Builds a disorder matrix, integrates the full dynamics and its
piecewise-frozen companion on shared Brownian increments, and prints the
observables that the larger experiments aggregate: the autocorrelation
curve, the coupling distance, and the boundary-safeguard count.
"""

import numpy as np

from spinlab.disorder import GAUSSIAN, operator_norm_report, sample_matrix
from spinlab.dynamics import simulate_coupled, simulate_full
from spinlab.model import InitialLaw, ModelParams, double_well, grid_times
from spinlab.observables import autocorrelation
from spinlab.streams import derive_seed

N = 40
params = ModelParams(
    n_particles=N, beta=1.0, s_bound=2.0, horizon=2.0,
    kappa=10, substeps=20, master_seed=2026,
)
potential = double_well(params.s_bound)
initial = InitialLaw("uniform", 1.0, params.s_bound)

mat = sample_matrix(GAUSSIAN, N, derive_seed(params.master_seed, "demo", 0))
norm = operator_norm_report(mat, beta=params.beta)
print(f"disorder: gaussian entries, N = {N}")
print(f"scaled interaction norm: {norm.value:.4f} "
      f"(bracket [{norm.lower:.4f}, {norm.upper:.4f}], "
      f"{norm.iterations} power iterations)")

ens = simulate_full(params, potential, mat, initial, replica=0)
times = grid_times(params)
curve = autocorrelation(ens)
print("\nautocorrelation C(t) = (1/N) sum_i x_i(0) x_i(t):")
for k in range(0, params.n_steps + 1, params.n_steps // 5):
    print(f"  t = {times[k]:4.1f}   C = {curve[k]: .4f}")
print(f"boundary safeguard activations: {ens.safeguard_activations}")

# same replica index -> identical Brownian increments, bit for bit
again = simulate_full(params, potential, mat, initial, replica=0)
print(f"re-run with the same replica is bitwise identical: "
      f"{np.array_equal(ens.values, again.values)}")

full, frozen, stats = simulate_coupled(params, potential, mat, initial, replica=0)
print("\ncoupled full/frozen pair on the same increments:")
print(f"  mean-square coupling distance over [0, T]: {stats.msd:.3e}")
print(f"  sup_t ||X - X~||_2 over the grid: {stats.r_t.max():.4f}")
print(f"  frozen path returns to its anchor at every freeze time: "
      f"{bool(np.all(stats.l_t[::params.substeps] == 0.0))}")
