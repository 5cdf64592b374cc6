"""Model primitives: confined single-site potentials, grids, path containers.

The state space is the open box (-s, s)^N.  A confining potential U1 blows
up at +-s and its derivative supplies the single-site drift -U1'(x).  Grids
are uniform with G = kappa * substeps steps over [0, horizon]; the freeze
points used by the piecewise-frozen dynamics sit exactly at indices
k * substeps; a PathEnsemble reads its grid from its params.  Every
numerical failure the package raises is a ``NumericalFailure``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "NumericalFailure",
    "ModelParams",
    "Potential",
    "InitialLaw",
    "PathEnsemble",
    "log_barrier",
    "double_well",
    "grid_times",
    "max_negative_curvature",
]


class NumericalFailure(RuntimeError):
    """A numerical guarantee failed; ``member`` is the failing member's
    index in a stacked call, which every failure of an integration or norm
    block carries, or None for a certificate or replay failure."""

    def __init__(self, message: str, member: int | None = None):
        super().__init__(message)
        self.member = member


@dataclass(frozen=True)
class ModelParams:
    """Static description of one simulation.

    Attributes
    ----------
    n_particles : int
        Number of interacting coordinates N.
    beta : float
        Interaction strength, >= 0.
    s_bound : float
        Half-width s of the confining box.
    horizon : float
        Final time T.
    kappa : int
        Number of freeze sub-intervals.
    substeps : int
        Euler steps per sub-interval; the grid step is
        horizon / (kappa * substeps).
    master_seed : int
        Root of the seed-derivation tree, uint64.
    """

    n_particles: int
    beta: float
    s_bound: float
    horizon: float
    kappa: int
    substeps: int
    master_seed: int

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if not self.beta >= 0:
            raise ValueError("beta must be >= 0")
        if not self.s_bound > 0:
            raise ValueError("s_bound must be > 0")
        if not self.horizon > 0:
            raise ValueError("horizon must be > 0")
        if self.kappa < 1 or self.substeps < 1:
            raise ValueError("kappa and substeps must be >= 1")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be a uint64")

    @property
    def n_steps(self) -> int:
        return self.kappa * self.substeps

    @property
    def grid_step(self) -> float:
        return self.horizon / (self.kappa * self.substeps)


def grid_times(params: ModelParams) -> np.ndarray:
    """Uniform grid 0, h, 2h, ..., G*h with h = horizon / (kappa * substeps).

    Times are computed as ``index * h`` so the freeze point at index
    k * substeps is bit-identical to k * substeps * h.
    """
    return np.arange(params.n_steps + 1) * params.grid_step


@dataclass(frozen=True)
class Potential:
    """Single-site potential on (-s, s): unchecked maps ``u1``, ``du1``, ``d2u1``
    for U1, U1', U1''; a user's own go in as ``Potential("custom", s, u1, du1, d2u1)``."""

    kind: str
    s_bound: float
    u1: Callable = field(repr=False)
    du1: Callable = field(repr=False)
    d2u1: Callable = field(repr=False)


def log_barrier(s: float) -> Potential:
    """U1(x) = -log(s^2 - x^2), the minimal confining barrier."""
    s2 = float(s) * float(s)

    def u1(x):
        return -np.log(s2 - x * x)

    def du1(x):
        return 2.0 * x / (s2 - x * x)

    def d2u1(x):
        x2 = x * x
        return (2.0 * s2 + 2.0 * x2) / ((s2 - x2) * (s2 - x2))

    return Potential("logbarrier", float(s), u1, du1, d2u1)


def double_well(s: float) -> Potential:
    """U1(x) = -log(s^2 - x^2) - x^2 + x^4/3.

    For s = 2 this has stationary points at x = 0 and x = +-1.
    """
    s2 = float(s) * float(s)

    def u1(x):
        x2 = x * x
        return -np.log(s2 - x2) - x2 + x2 * x2 / 3.0

    def du1(x):
        x2 = x * x
        return 2.0 * x / (s2 - x2) - 2.0 * x + (4.0 / 3.0) * x2 * x

    def d2u1(x):
        x2 = x * x
        return (2.0 * s2 + 2.0 * x2) / ((s2 - x2) * (s2 - x2)) - 2.0 + 4.0 * x2

    return Potential("doublewell", float(s), u1, du1, d2u1)


# grid of max_negative_curvature: points, and the margin kept from the boundary
_CURVATURE_POINTS = 200001
_CURVATURE_MARGIN = 1e-6


def max_negative_curvature(p: Potential) -> float:
    """sup of -U1'' over a dense grid in |x| <= s * (1 - _CURVATURE_MARGIN).

    For barrier-type potentials -U1'' falls to -inf at the boundary, so the
    interior grid captures the supremum.
    """
    edge = p.s_bound * (1.0 - _CURVATURE_MARGIN)
    xs = np.linspace(-edge, edge, _CURVATURE_POINTS)
    return float(np.max(-p.d2u1(xs)))


@dataclass(frozen=True)
class InitialLaw:
    """Initial coordinate law, i.i.d. across particles, supported in (-s, s).

    kind "point" places all mass at ``value``; kind "uniform" spreads it on
    (-value, value).
    """

    kind: str
    value: float
    s_bound: float

    def __post_init__(self):
        if self.kind == "point":
            if not abs(self.value) < self.s_bound:
                raise ValueError(
                    f"point mass at {self.value} lies outside (-{self.s_bound}, {self.s_bound})"
                )
        elif self.kind == "uniform":
            if not 0 < self.value < self.s_bound:
                raise ValueError(
                    f"uniform half-width must lie in (0, {self.s_bound}), got {self.value}"
                )
        else:
            raise ValueError(f"unknown initial law kind {self.kind!r}")


@dataclass(frozen=True)
class PathEnsemble:
    """Trajectories of one simulation: values[i, g] = X^(i) at grid time g*h.

    The grid is not stored: ``grid`` is ``grid_times(params)``, so it cannot
    disagree with the params.  Values are frozen after construction and lie
    strictly inside (-s, s); the integrator's boundary safeguard enforces
    this and its activation count is carried along.
    """

    values: np.ndarray
    params: ModelParams
    replica: int = 0
    safeguard_activations: int = 0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape != (self.params.n_particles, self.params.n_steps + 1):
            raise ValueError(
                f"values must have shape (n_particles, n_steps + 1) = "
                f"({self.params.n_particles}, {self.params.n_steps + 1}), got {values.shape}"
            )
        if not np.all(np.abs(values) < self.params.s_bound):
            raise ValueError("trajectory values must stay strictly inside (-s, s)")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def grid(self) -> np.ndarray:
        return grid_times(self.params)
