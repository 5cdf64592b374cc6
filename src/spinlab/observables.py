"""Path observables and change-of-measure statistics.

Everything here consumes PathEnsembles, or pools of their particles, on
their native uniform grid; time integrals are trapezoid sums, so identities
between these observables hold to floating-point accuracy rather than up to
quadrature mismatch.  ``marginal_w2_distance`` is the one W2 route: it
scores two sorted particle pools of one shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disorder import DisorderMatrix
from .model import PathEnsemble, Potential

__all__ = [
    "autocorrelation",
    "marginal_w2_distance",
    "GirsanovRecord",
    "girsanov_stats",
]


def autocorrelation(ens: PathEnsemble) -> np.ndarray:
    """C(t_g) = (1/N) sum_i X^(i)_0 X^(i)_{t_g}, one value per grid time."""
    v = ens.values
    return np.mean(v[:, :1] * v, axis=0)


def marginal_w2_distance(pool1: np.ndarray, pool2: np.ndarray, horizon: float) -> float:
    """Path-level surrogate ((1/T) int W2(mu1_t, mu2_t)^2 dt)^(1/2).

    Each pool holds one row per pooled particle and one column per point of
    a uniform grid over [0, horizon]; both have one shape and are already
    sorted along axis 0, so W2 per grid time is exact quantile pairing; the
    time integral is a trapezoid sum.
    """
    if pool1.shape != pool2.shape:
        raise ValueError(f"pools of shapes {pool1.shape} and {pool2.shape} differ")
    w2_sq = np.mean((pool1 - pool2) ** 2, axis=0)
    h = horizon / (pool1.shape[1] - 1)
    return math.sqrt(float(np.trapezoid(w2_sq, dx=h)) / horizon)


@dataclass(frozen=True)
class GirsanovRecord:
    """Change-of-measure statistics of one frozen trajectory.

    b[k, i] is the normalized increment of particle i over sub-interval k
    after removing the single-site drift; under beta = 0 these are
    (discretized) i.i.d. standard Gaussians.  m_big[i] = ||b^(i)||^2 / 2,
    delta[i] is the third-moment penalty c1 N^{-3/2} sum_j E|J_ij|^3, and
    phi averages log(1 + delta_i exp(m_big_i)) over particles.
    """

    b: np.ndarray
    m_big: np.ndarray
    delta: np.ndarray
    phi: float
    c1: float


def girsanov_stats(
    frozen: PathEnsemble,
    mat: DisorderMatrix,
    potential: Potential,
    c1: float = 1.0,
) -> GirsanovRecord:
    """Compute the change-of-measure statistics from a frozen-run ensemble,
    under the ensemble's own params.

    The drift integral inside b uses the trapezoid rule on the sub-interval
    grid points.  Requires the entry law's third absolute moment; raises
    when it is undeclared.
    """
    params = frozen.params
    if mat.n != params.n_particles:
        raise ValueError(f"matrix size {mat.n} != n_particles {params.n_particles}")
    if c1 < 0:
        raise ValueError("c1 must be >= 0")
    third = mat.law.third_abs_moment
    if third is None:
        raise ValueError(
            f"law {mat.law.name!r} has no declared third absolute moment"
        )

    n, kappa, m, v = params.n_particles, params.kappa, params.substeps, frozen.values
    # row i * kappa + k: particle i over sub-interval k (2-D keeps each row's bits)
    cols = np.arange(kappa)[:, None] * m + np.arange(m + 1)
    seg = potential.du1(v)[:, cols].reshape(n * kappa, m + 1)
    drift_int = np.trapezoid(seg, dx=params.grid_step, axis=1).reshape(n, kappa)
    dt = frozen.grid[m::m] - frozen.grid[:-1:m]
    b = np.empty((kappa, n))
    np.divide((v[:, m::m] - v[:, :-1:m] + drift_int).T, np.sqrt(dt)[:, None], out=b)
    m_big = 0.5 * np.sum(b * b, axis=0)
    # a numpy product, so an overflowing delta obeys np.errstate
    delta = np.full(n, c1 * np.float64(third) / math.sqrt(n))
    phi = 0.0 if delta[0] == 0.0 else float(np.mean(np.logaddexp(0.0, np.log(delta) + m_big)))
    return GirsanovRecord(b, m_big, delta, phi, float(c1))
