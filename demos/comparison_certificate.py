"""Two-route comparison bound on small instances.

For Rademacher disorder at enumerable size, E exp(-h) has two independent
routes: exact enumeration over all sign vectors, and the Gaussian closed
form via the determinant identity.  The universality argument bounds
their difference by a third-moment functional of the columns; here we
evaluate both routes on one hand-built instance, then run a batch of
random instances and a Monte Carlo cross-check of the Gaussian identity.
"""

import numpy as np

from spinlab.disorder import RADEMACHER
from spinlab.lindeberg import (
    QuadraticForm,
    certificate_suite,
    expectation_exact_discrete,
    gaussian_expectation_exact,
    gaussian_mc_check,
    lindeberg_bound,
)

q = QuadraticForm(
    x_mat=np.array([[0.35, -0.20, 0.10], [0.05, 0.25, -0.15]]),
    b_vec=np.array([0.40, -0.30]),
)
discrete = expectation_exact_discrete(q)
gaussian = gaussian_expectation_exact(q)
bound = lindeberg_bound(q, RADEMACHER)
print("hand-built instance, 3 Rademacher entries, 2 quadratic rows:")
print(f"  exact enumeration:      {discrete:.12f}")
print(f"  Gaussian closed form:   {gaussian.value:.12f}")
print(f"  |difference|:           {abs(discrete - gaussian.value):.3e}")
print(f"  comparison bound:       {bound:.3e}")
print(f"  determinant lower bound {gaussian.lower:.12f} <= value: "
      f"{gaussian.lower <= gaussian.value}")

rows = certificate_suite(n_instances=60, master_seed=3)
worst = max(rows, key=lambda r: r.abs_diff / r.bound if r.bound else 0.0)
print(f"\ncertificate batch: {sum(r.passed for r in rows)}/{len(rows)} "
      f"instances within bound")
print(f"tightest instance: |diff|/bound = {worst.abs_diff / worst.bound:.4f} "
      f"(kappa={worst.kappa}, N={worst.n})")

mc = gaussian_mc_check(n_instances=4, n_samples=200_000, master_seed=3)
print("\nGaussian identity vs Monte Carlo (200k samples each):")
for r in mc:
    print(f"  instance {r.index}: exact={r.exact:.6f} "
          f"mc={r.mc_estimate:.6f} +- {r.mc_stderr:.6f}  |z|={r.z_score:.2f}")
