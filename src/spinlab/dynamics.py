"""Interacting Langevin dynamics and its piecewise-frozen approximation.

Both integrators share one Euler-Maruyama core: the full dynamics refreshes
the interaction vector A x every step, the frozen dynamics only at the
kappa sub-interval boundaries, holding it constant in between.  Runs are
reproducible from (master_seed, replica): Brownian increments, initial
draws, and safeguard refinements all come from counter-addressed streams,
so trajectories are identical across thread counts and call orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate as _sciint

from .disorder import DisorderMatrix
from .model import InitialLaw, ModelParams, PathEnsemble, Potential, grid_times
from .streams import BrownianStream, CounterStream

__all__ = [
    "SafeguardError",
    "CouplingStats",
    "sample_initial",
    "simulate_full",
    "simulate_frozen",
    "simulate_coupled",
    "coupling_envelope",
    "envelope_violated",
    "default_a2",
    "GUARD_FRACTION",
    "MAX_HALVINGS",
]

# proposals must stay inside |x| < s * (1 - GUARD_FRACTION)
GUARD_FRACTION = 1e-6
MAX_HALVINGS = 40
_REFINE_BUDGET = 65536

_INIT_PURPOSE = "init"
_BRIDGE_PURPOSE = "bridge"


class SafeguardError(RuntimeError):
    """A coordinate still violated the guard band after the halving cap."""

    def __init__(self, particle: int, step: int, value: float, detail: str):
        super().__init__(
            f"boundary safeguard failed for particle {particle} at grid step "
            f"{step}: proposed value {value!r} ({detail})"
        )
        self.particle = particle
        self.step = step
        self.value = value
        self.detail = detail


def default_a2(beta: float) -> float:
    """Default operator-norm threshold for the coupling envelope."""
    return 2.0 * beta + 0.5


def sample_initial(law: InitialLaw, n: int, stream: CounterStream) -> np.ndarray:
    """Draw n i.i.d. initial coordinates, one stream lane per particle.

    Point masses consume no randomness.  Uniform draws map open-interval
    uniforms, so no coordinate ever sits on the support boundary.
    """
    if law.kind == "point":
        return np.full(n, law.value)
    u = np.array([stream.uniforms(i, 1)[0] for i in range(n)])
    return law.value * (2.0 * u - 1.0)


def _refine(x, delta, db, a_i, du1, guard, bridge, particle, step, node, depth, budget):
    """Advance one coordinate by delta with total increment db, halving on demand.

    When the proposal leaves the guard band the step is split in two: the
    Brownian increment at the midpoint is db/2 plus an independent
    Normal(0, delta/4) bridge draw, addressed by the dyadic node index so
    the refinement is reproducible no matter which branches get explored.
    The single-site drift is re-evaluated at each sub-step; the interaction
    contribution a_i stays at its step value.
    """
    y = x + delta * (a_i - du1(x)) + db
    if abs(y) < guard:
        return y
    if depth >= MAX_HALVINGS:
        raise SafeguardError(particle, step, float(y), f"after {depth} halvings")
    budget[0] -= 1
    if budget[0] <= 0:
        raise SafeguardError(particle, step, float(y), "refinement budget exhausted")
    xi = bridge.normal_at(particle, node, tag=step) * math.sqrt(delta / 4.0)
    db_first = 0.5 * db + xi
    xm = _refine(
        x, delta / 2.0, db_first, a_i, du1, guard, bridge, particle, step,
        2 * node, depth + 1, budget,
    )
    return _refine(
        xm, delta / 2.0, db - db_first, a_i, du1, guard, bridge, particle, step,
        2 * node + 1, depth + 1, budget,
    )


def _integrate(params, potential, entries, x0, increments, bridge, refresh_every):
    """Shared Euler core.

    entries is the raw (unscaled) interaction matrix or None; the
    interaction vector (beta/sqrt(N)) J x is refreshed whenever
    g % refresh_every == 0 and held constant otherwise.  Returns the
    (N, G+1) trajectory array and the number of safeguarded steps.
    """
    n = params.n_particles
    g_total = params.n_steps
    h = params.grid_step
    guard = params.s_bound * (1.0 - GUARD_FRACTION)
    du1 = potential._du1
    use_interaction = entries is not None and params.beta != 0.0
    scale = params.beta / math.sqrt(n)

    x = np.array(x0, dtype=float)
    if np.any(np.abs(x) >= guard):
        raise ValueError("initial condition must lie inside the guard band")
    out = np.empty((n, g_total + 1))
    out[:, 0] = x
    interaction = np.zeros(n)
    activations = 0

    for g in range(g_total):
        if use_interaction and g % refresh_every == 0:
            interaction = scale * (entries @ x)
        prop = x + h * (interaction - du1(x)) + increments[:, g]
        bad = np.flatnonzero(np.abs(prop) >= guard)
        if bad.size:
            budget = [_REFINE_BUDGET]
            for i in bad:
                prop[i] = _refine(
                    x[i], h, increments[i, g], interaction[i], du1, guard,
                    bridge, int(i), g, 1, 0, budget,
                )
            activations += int(bad.size)
        x = prop
        out[:, g + 1] = x
    return out, activations


def _prepare(params, potential, mat, init, replica):
    if potential.s_bound != params.s_bound:
        raise ValueError(
            f"potential s_bound {potential.s_bound} != params s_bound {params.s_bound}"
        )
    if init.s_bound != params.s_bound:
        raise ValueError(
            f"initial law s_bound {init.s_bound} != params s_bound {params.s_bound}"
        )
    entries = None
    if mat is not None:
        if not isinstance(mat, DisorderMatrix):
            raise TypeError("mat must be a DisorderMatrix or None")
        if mat.n != params.n_particles:
            raise ValueError(f"matrix size {mat.n} != n_particles {params.n_particles}")
        entries = mat.entries
    init_stream = CounterStream(params.master_seed, _INIT_PURPOSE, replica)
    x0 = sample_initial(init, params.n_particles, init_stream)
    brownian = BrownianStream(params.master_seed, replica)
    increments = brownian.increments(params.n_particles, params.n_steps, params.grid_step)
    bridge = CounterStream(params.master_seed, _BRIDGE_PURPOSE, replica)
    return entries, x0, increments, bridge


def simulate_full(
    params: ModelParams,
    potential: Potential,
    mat: DisorderMatrix | None,
    init: InitialLaw,
    replica: int = 0,
) -> PathEnsemble:
    """Integrate the fully-coupled dynamics: interaction refreshed every step."""
    entries, x0, increments, bridge = _prepare(params, potential, mat, init, replica)
    values, activations = _integrate(
        params, potential, entries, x0, increments, bridge, refresh_every=1
    )
    return PathEnsemble(values, grid_times(params), params, replica, activations)


def simulate_frozen(
    params: ModelParams,
    potential: Potential,
    mat: DisorderMatrix | None,
    init: InitialLaw,
    replica: int = 0,
) -> PathEnsemble:
    """Integrate the piecewise-frozen dynamics.

    The interaction vector is evaluated at the left endpoint of each of the
    kappa sub-intervals and held constant across its substeps.  With
    substeps = 1 this is the same code path as simulate_full.
    """
    entries, x0, increments, bridge = _prepare(params, potential, mat, init, replica)
    values, activations = _integrate(
        params, potential, entries, x0, increments, bridge,
        refresh_every=params.substeps,
    )
    return PathEnsemble(values, grid_times(params), params, replica, activations)


@dataclass(frozen=True)
class CouplingStats:
    """Distances between a coupled full/frozen pair on the shared grid.

    r_t[g] = ||frozen - full||_2 at grid time g, msd is the time-and-particle
    averaged squared distance (1/(N T)) int ||X - X~||^2 dt by trapezoid,
    and l_t[g] = ||X~ at latest freeze point - X~ at g||_2 measures how far
    the frozen state has moved within its current sub-interval.
    """

    r_t: np.ndarray
    msd: float
    l_t: np.ndarray


def simulate_coupled(
    params: ModelParams,
    potential: Potential,
    mat: DisorderMatrix | None,
    init: InitialLaw,
    replica: int = 0,
):
    """Run full and frozen dynamics on identical noise and initial data.

    Returns (full, frozen, CouplingStats).
    """
    entries, x0, increments, bridge = _prepare(params, potential, mat, init, replica)
    v_full, act_full = _integrate(
        params, potential, entries, x0, increments, bridge, refresh_every=1
    )
    v_frozen, act_frozen = _integrate(
        params, potential, entries, x0, increments, bridge,
        refresh_every=params.substeps,
    )
    grid = grid_times(params)
    full = PathEnsemble(v_full, grid, params, replica, act_full)
    frozen = PathEnsemble(v_frozen, grid, params, replica, act_frozen)

    diff = v_frozen - v_full
    r_t = np.linalg.norm(diff, axis=0)
    msd = float(
        _sciint.trapezoid(np.sum(diff * diff, axis=0), dx=params.grid_step)
        / (params.n_particles * params.horizon)
    )
    anchor = (np.arange(params.n_steps + 1) // params.substeps) * params.substeps
    l_t = np.linalg.norm(v_frozen[:, anchor] - v_frozen, axis=0)
    return full, frozen, CouplingStats(r_t, msd, l_t)


def coupling_envelope(a2: float, c_dd: float, rho: float, n: int, times) -> np.ndarray:
    """Growth envelope for the coupling distance r_t.

    Solves dR/dt <= (a2 + c_dd) R + 3 a2 rho sqrt(N), R_0 = 0, which bounds
    the coupling error while the frozen state stays within 3 rho sqrt(N) of
    its latest freeze point and the interaction norm stays below a2.  The
    a2 + c_dd = 0 case degenerates to the linear-in-t limit.
    """
    t = np.asarray(times, dtype=float)
    rate = a2 + c_dd
    amp = 3.0 * a2 * rho * math.sqrt(n)
    if rate == 0.0:
        return amp * t
    return (amp / rate) * np.expm1(rate * t)


def envelope_violated(
    stats: CouplingStats, times, a2: float, c_dd: float, rho: float, n: int
) -> bool:
    """True when r_t exceeds the envelope at a grid time where it applies.

    The envelope is only claimed while every earlier l_t stays strictly
    below 3 rho sqrt(N); grid points from the first excursion onward are
    not checked.
    """
    env = coupling_envelope(a2, c_dd, rho, n, times)
    threshold = 3.0 * rho * math.sqrt(n)
    crossed = np.flatnonzero(stats.l_t >= threshold)
    stop = crossed[0] if crossed.size else len(stats.l_t)
    return bool(np.any(stats.r_t[:stop] > env[:stop]))
