"""Path observables and change-of-measure statistics.

Everything here consumes PathEnsembles on their native uniform grid; time
integrals are trapezoid sums, so identities between these observables hold
to floating-point accuracy rather than up to quadrature mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .disorder import DisorderMatrix
from .model import ModelParams, PathEnsemble, Potential

__all__ = [
    "autocorrelation",
    "marginal_w2_distance",
    "sorted_pool_w2",
    "w2_empirical",
    "GirsanovRecord",
    "girsanov_stats",
]


def autocorrelation(ens: PathEnsemble) -> np.ndarray:
    """C(t_g) = (1/N) sum_i X^(i)_0 X^(i)_{t_g}, one value per grid time."""
    v = ens.values
    return np.mean(v[:, :1] * v, axis=0)


def w2_empirical(xs, ys) -> float:
    """Exact 2-Wasserstein distance between two one-dimensional samples.

    Sorting gives both empirical quantile functions; for unequal sample
    sizes the squared distance integrates the quantile gap over the merged
    dyadic level sets, which is the resample-to-common-size value computed
    without materializing the common refinement.
    """
    a = np.sort(np.asarray(xs, dtype=float))
    b = np.sort(np.asarray(ys, dtype=float))
    n, m = a.size, b.size
    if n == 0 or m == 0:
        raise ValueError("empty sample")
    if n == m:
        d = a - b
        return math.sqrt(float(np.mean(d * d)))
    edges = np.union1d(np.arange(1, n + 1) / n, np.arange(1, m + 1) / m)
    widths = np.diff(np.concatenate(([0.0], edges)))
    mids = edges - widths / 2.0
    ia = np.minimum((mids * n).astype(int), n - 1)
    ib = np.minimum((mids * m).astype(int), m - 1)
    gap = a[ia] - b[ib]
    return math.sqrt(float(np.sum(widths * gap * gap)))


def marginal_w2_distance(
    e1: Sequence[PathEnsemble] | PathEnsemble,
    e2: Sequence[PathEnsemble] | PathEnsemble,
) -> float:
    """Path-level surrogate ((1/T) int W2(mu1_t, mu2_t)^2 dt)^(1/2).

    Particles from all ensembles in each collection are pooled into one
    empirical marginal per grid time and scored by ``sorted_pool_w2``.
    """
    e1s = [e1] if isinstance(e1, PathEnsemble) else list(e1)
    e2s = [e2] if isinstance(e2, PathEnsemble) else list(e2)
    if not e1s or not e2s:
        raise ValueError("empty ensemble collection")
    grid = e1s[0].grid
    for e in (*e1s, *e2s):
        if not np.array_equal(e.grid, grid):
            raise ValueError("ensembles live on different grids")
    pool1 = np.sort(np.vstack([e.values for e in e1s]), axis=0)
    pool2 = np.sort(np.vstack([e.values for e in e2s]), axis=0)
    return sorted_pool_w2(pool1, pool2, e1s[0].params.horizon)


def sorted_pool_w2(pool1: np.ndarray, pool2: np.ndarray, horizon: float) -> float:
    """``marginal_w2_distance`` between two particle pools.

    Each pool holds one row per pooled particle and one column per point of
    a uniform grid over [0, horizon], and is already sorted along axis 0,
    so W2 per grid time is exact quantile pairing; the time integral is a
    trapezoid sum.
    """
    if pool1.shape[1] != pool2.shape[1]:
        raise ValueError("pools live on different grids")
    if pool1.shape[0] == pool2.shape[0]:
        w2_sq = np.mean((pool1 - pool2) ** 2, axis=0)
    else:
        w2_sq = np.array([w2_empirical(pool1[:, g], pool2[:, g]) ** 2
                          for g in range(pool1.shape[1])])
    h = horizon / (pool1.shape[1] - 1)
    return math.sqrt(float(np.trapezoid(w2_sq, dx=h)) / horizon)


@dataclass(frozen=True)
class GirsanovRecord:
    """Change-of-measure statistics of one frozen trajectory.

    b[k, i] is the normalized increment of particle i over sub-interval k
    after removing the single-site drift; under beta = 0 these are
    (discretized) i.i.d. standard Gaussians.  g[k, i] is the interaction
    tilt sum_j x[k, j] J_{ij} with x[k, j] the scaled frozen state at the
    sub-interval's left endpoint.  m_big[i] = ||b^(i)||^2 / 2, delta[i] is
    the third-moment penalty c1 N^{-3/2} sum_j E|J_ij|^3, and phi averages
    log(1 + delta_i exp(m_big_i)) over particles.
    """

    b: np.ndarray
    g: np.ndarray
    m_big: np.ndarray
    delta: np.ndarray
    phi: float
    c1: float


def girsanov_stats(
    frozen: PathEnsemble,
    mat: DisorderMatrix,
    params: ModelParams,
    potential: Potential,
    c1: float = 1.0,
) -> GirsanovRecord:
    """Compute the change-of-measure statistics from a frozen-run ensemble.

    The drift integral inside b uses the trapezoid rule on the sub-interval
    grid points.  Requires the entry law's third absolute moment; raises
    when it is undeclared.
    """
    if frozen.params != params:
        raise ValueError("ensemble was produced under different parameters")
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
    x_mat = np.ascontiguousarray(v[:, :-1:m].T)
    x_mat *= params.beta * math.sqrt(params.horizon) / math.sqrt(n * kappa)

    g = x_mat @ mat.entries.T
    m_big = 0.5 * np.sum(b * b, axis=0)
    # a numpy product, so an overflowing delta obeys np.errstate
    delta = np.full(n, c1 * np.float64(third) / math.sqrt(n))
    phi = 0.0 if delta[0] == 0.0 else float(np.mean(np.logaddexp(0.0, np.log(delta) + m_big)))
    return GirsanovRecord(b, g, m_big, delta, phi, float(c1))
