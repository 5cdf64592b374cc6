"""Entry-law validation and operator-norm diagnostics.

Shows the three layers of disorder checking:

1. validate_law: moment and tail conditions, analytic when every moment
   is declared, sampled otherwise.  A Cauchy law, given by its quantile
   function like any custom law, is run through the same gate to show the divergence probe catching an infinite second
   moment, and each failed check prints its reasons.
2. condition_diagnostics: the growth quantities behind the comparison
   argument (MGF bound, scaled third moment, norm samples).
3. operator_norm_report: power iteration, cross-checked here against a
   dense SVD.
"""

import math

import numpy as np

from spinlab.disorder import (
    CENTERED_EXPONENTIAL,
    GAUSSIAN,
    RADEMACHER,
    CustomLaw,
    condition_diagnostics,
    operator_norm_report,
    sample_matrix,
    validate_law,
)

for law in (GAUSSIAN, RADEMACHER, CENTERED_EXPONENTIAL):
    report = validate_law(law)
    print(f"{law.name:<12} passed={report.passed}  "
          f"mean={report.mean:+.4f}  variance={report.variance:.4f}  "
          f"E|J|^3={report.third_abs_moment:.4f}")

# a heavy-tailed law has no second moment; the batch-variance probe
# sees the median batch variance grow with the batch size and fails it
cauchy = CustomLaw("cauchy", lambda u: np.tan(np.pi * (u - 0.5)))
report = validate_law(cauchy)
print(f"\n{cauchy.name:<12} passed={report.passed}")
for check, reasons in report.failures.items():
    for reason in reasons:
        print(f"  {check} failed: {reason}")

print("\ngrowth diagnostics for rademacher at a few sizes:")
for n in (16, 64, 256):
    diag = condition_diagnostics(RADEMACHER, n, gamma=2.25, eps=0.05,
                                 seeds=(0, 1, 2))
    norms = ", ".join(f"{v:.3f}" for v in diag.norm_samples)
    print(f"  N={n:>4}  mgf_sup={diag.mgf_sup:.4f}  "
          f"n^(2-gamma) E|J|^3 = {diag.third_moment_scaled:.4f}  "
          f"scaled norms [{norms}]")

print("\npower iteration vs dense SVD (beta = 1, so values are "
      "N^(-1/2) ||J||):")
for n in (24, 48):
    mat = sample_matrix(GAUSSIAN, n, seed=5 * n)
    rep = operator_norm_report(mat, beta=1.0)
    dense = float(np.linalg.norm(mat.entries, 2)) / math.sqrt(n)
    print(f"  N={n:>3}  power={rep.value:.10f}  svd={dense:.10f}  "
          f"rel diff={abs(rep.value - dense) / dense:.2e}  "
          f"iterations={rep.iterations}")
