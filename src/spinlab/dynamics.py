"""Interacting Langevin dynamics and its piecewise-frozen approximation.

Every integration goes through ``simulate_shared``: full and frozen runs on
one grid over a block of replicas, each on its own initial draw and noise
and on each of its matrices, in one stacked Euler-Maruyama core.  The full
dynamics refreshes the interaction vectors A x every step, the frozen one
at the kappa sub-interval boundaries; runs on one refresh interval are
integrated once.  ``simulate_full``, ``simulate_frozen`` and
``simulate_coupled`` integrate a block of one; no command calls them, and
they remain for library callers and the benchmark's tracer.  Runs are
reproducible from (master_seed, replica): noise, initial draws and
safeguard refinements come from counter-addressed streams, so a trajectory
does not depend on what shares its call or on the order replicas run in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disorder import DisorderMatrix, _aligned
from .model import (GUARD_FRACTION, InitialLaw, ModelParams, NumericalFailure, PathEnsemble,
                    Potential)
from .streams import BrownianStream, CounterStream, _unit_open

__all__ = [
    "SafeguardError",
    "CouplingStats",
    "sample_initial",
    "simulate_full",
    "simulate_frozen",
    "simulate_coupled",
    "simulate_shared",
    "coupling_stats",
    "coupling_envelope",
    "envelope_violated",
    "MAX_HALVINGS",
]

MAX_HALVINGS = 40
_REFINE_BUDGET = 65536

_INIT_PURPOSE = "init"
_BRIDGE_PURPOSE = "bridge"


class SafeguardError(NumericalFailure):
    """A coordinate still violated the guard band after the halving cap.

    ``member`` is the failing member's index in a stacked call.
    """

    def __init__(self, particle: int, step: int, value: float, detail: str,
                 member: int = 0):
        super().__init__(
            f"boundary safeguard failed for particle {particle} at grid step "
            f"{step}: proposed value {value!r} ({detail})", member
        )
        self.particle = particle
        self.step = step
        self.value = value
        self.detail = detail


def sample_initial(law: InitialLaw, n: int, stream: CounterStream) -> np.ndarray:
    """Draw n i.i.d. initial coordinates, one stream lane per particle.

    Point masses consume no randomness.  Uniform draws map open-interval
    uniforms, so no coordinate ever sits on the support boundary.
    """
    if law.kind == "point":
        return np.full(n, law.value)
    u = _unit_open(stream.raw_lanes(n, 1)[:, 0])
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


def _integrate(params, potential, entries, x0, increments, bridges, out, refresh_every):
    """Stacked Euler core over a block of R replicas.

    x0 is (R, N), increments (R, N, G) and ``bridges`` holds one bridge
    stream per replica.  entries is an (R * L, N, N) stack of raw
    (unscaled) interaction matrices in replica-major order, member
    m = r * L + l belonging to replica r (at beta = 0 only its length is
    read).  Every member starts at its replica's x0 and is driven by its
    replica's increments and bridge stream; the interaction vectors
    (beta/sqrt(N)) J x are refreshed whenever g % refresh_every == 0 (never
    at beta = 0) and held constant otherwise.  A refinement runs per
    flagged (member, particle), with its own budget for each (member,
    step); a failing one's SafeguardError carries the member index.
    Returns L trajectory arrays of shape (R, N, G+1), one per law (``out``
    itself unless it is None), and the number of safeguarded steps per
    member.  One array per law keeps each below numpy's 4 MiB huge-page
    threshold at the block sizes the harness uses, so resident memory
    does not depend on when the kernel backs an array with huge pages.
    """
    reps, n = x0.shape
    g_total = params.n_steps
    h = params.grid_step
    guard = params.s_bound * (1.0 - GUARD_FRACTION)
    du1 = potential.du1
    laws = len(entries) // reps
    members = reps * laws
    scale = params.beta / math.sqrt(n)

    # state is (replica, law, particle); a member's row is x.reshape(members, n)
    x = np.repeat(x0[:, None, :], laws, axis=1)
    if out is None:
        out = [np.empty((reps, n, g_total + 1)) for _ in range(laws)]
    for law, law_out in enumerate(out):
        law_out[:, :, 0] = x[:, law]
    interaction = np.zeros((reps, laws, n))
    activations = [0] * members

    for g in range(g_total):
        if params.beta != 0.0 and g % refresh_every == 0:
            interaction = scale * np.matmul(
                entries, x.reshape(members, n, 1)).reshape(reps, laws, n)
        prop = x + h * (interaction - du1(x)) + increments[:, None, :, g]
        if np.abs(prop).max() >= guard:
            budgets = [[_REFINE_BUDGET] for _ in range(members)]
            rows, state, drive = (arr.reshape(members, n)
                                  for arr in (prop, x, interaction))
            for k in np.flatnonzero(np.abs(prop) >= guard):
                m, i = divmod(int(k), n)
                r = m // laws
                try:
                    rows[m, i] = _refine(
                        state[m, i], h, increments[r, i, g], drive[m, i], du1,
                        guard, bridges[r], i, g, 1, 0, budgets[m],
                    )
                except SafeguardError as err:
                    err.member = m
                    raise
                activations[m] += 1
        x = prop
        for law, law_out in enumerate(out):
            law_out[:, :, g + 1] = x[:, law]
    return out, activations


def _prepare(params, mats, init, replica):
    """One replica's interaction entries, initial draw, Brownian increments
    and bridge stream."""
    for mat in mats:
        if not isinstance(mat, DisorderMatrix):
            raise TypeError(_BLOCK_FORM)
        if mat.n != params.n_particles:
            raise ValueError(f"matrix size {mat.n} != n_particles {params.n_particles}")
    init_stream = CounterStream(params.master_seed, _INIT_PURPOSE, replica)
    x0 = sample_initial(init, params.n_particles, init_stream)
    brownian = BrownianStream(params.master_seed, replica)
    increments = brownian.increments(params.n_particles, params.n_steps, params.grid_step)
    bridge = CounterStream(params.master_seed, _BRIDGE_PURPOSE, replica)
    return [mat.entries for mat in mats], x0, increments, bridge


# Fields that fix a run's grid, initial draw and noise: the runs of one
# ``simulate_shared`` call may differ only in how their steps split.
_GRID_FIELDS = ("n_particles", "beta", "s_bound", "horizon", "n_steps", "master_seed")

_BLOCK_FORM = ("simulate_shared takes the block form: a sequence of replicas, and mats "
               "holding one sequence of DisorderMatrix per replica")


def simulate_shared(
    runs,
    potential: Potential,
    mats,
    init: InitialLaw,
    replicas,
    out: list[np.ndarray] | None = None,
) -> list:
    """Integrate several runs on each of a block of replicas.

    ``runs`` holds ``(params, frozen)`` pairs whose params share one grid
    (the ``_GRID_FIELDS``) and differ only in kappa.  Every run integrates
    every replica of the call: a run on part of a block is a call of its
    own on that part's replicas and mats.  ``replicas`` is a sequence of R
    stream replica indices, each prepared once, and ``mats`` holds one
    sequence of L DisorderMatrix per replica.  A run without interaction
    has ``beta`` 0, which neither reads nor copies the matrices, so a
    zero-strided ``np.broadcast_to(0.0, (N, N))`` serves as one at any N.
    The runs on one refresh interval (every step for a full run, every
    ``params.substeps`` for a frozen one) share one integration, a stack
    over the block in replica-major order (``member = k * L + l``, block
    position k, matrix l), and its values.

    Returns ``result[k][l]``: one PathEnsemble per run, in order, at block
    position k on its matrix l, each equal to ``simulate_full`` or
    ``simulate_frozen`` on that run, replica and matrix alone.  Refresh
    intervals are integrated in the order they first appear; a stack stops
    at the earliest step where a member fails, lowest member first, and
    its SafeguardError carries that ``member`` (a frozen run's names its
    kappa).  ``out``, a sequence of L writable (R, N, G+1) arrays, one per
    matrix, holds the paths of the runs that refresh every step, as views.
    """
    runs = [(params, frozen) for params, frozen in runs]
    if not runs:
        raise ValueError("runs must hold at least one (params, frozen) pair")
    base = runs[0][0]
    for params, _ in runs[1:]:
        differ = [f for f in _GRID_FIELDS if getattr(params, f) != getattr(base, f)]
        if differ:
            raise ValueError(f"runs must share one grid; {', '.join(differ)} differ")
    for what, bound in (("potential", potential.s_bound), ("initial law", init.s_bound)):
        if bound != base.s_bound:
            raise ValueError(f"{what} s_bound {bound} != params s_bound {base.s_bound}")
    try:
        replicas = list(replicas)
        per_replica = [list(m) for m in mats]
    except TypeError as exc:
        raise TypeError(_BLOCK_FORM) from exc
    if not replicas or len(per_replica) != len(replicas):
        raise ValueError("a block needs one mat entry per replica, and at least one")
    counts = {len(rep_mats) for rep_mats in per_replica}
    if len(counts) > 1 or 0 in counts:
        raise ValueError("every replica of a block needs the same number of matrices, "
                         "and at least one")
    laws = counts.pop()

    n = base.n_particles
    x0 = np.empty((len(replicas), n))
    increments = np.empty((len(replicas), n, base.n_steps))
    bridges, entries = [], []
    for k, (rep_mats, rep) in enumerate(zip(per_replica, replicas)):
        rep_entries, x0[k], increments[k], bridge = _prepare(base, rep_mats, init, rep)
        bridges.append(bridge)
        entries += rep_entries
    if base.beta != 0.0:  # _integrate reads only len(entries) at beta 0
        entries = np.stack(entries, out=_aligned((len(entries), n, n)))

    paths = {}  # refresh interval -> (values per replica and matrix, activations)
    ensembles = [[[] for _ in range(laws)] for _ in replicas]
    for params, frozen in runs:
        every = params.substeps if frozen else 1
        if every not in paths:
            try:
                values, activations = _integrate(
                    params, potential, entries, x0, increments, bridges,
                    out if every == 1 else None, refresh_every=every,
                )
            except SafeguardError as err:
                if not frozen:
                    raise
                detail = f"{err.detail}, kappa={params.kappa}"
                raise SafeguardError(err.particle, err.step, err.value, detail,
                                     member=err.member) from err
            # one values view per member, shared by every run on this interval
            paths[every] = (list(zip(*values)), activations)
        values, activations = paths[every]
        for k, rep_ensembles in enumerate(ensembles):
            for law, member_ensembles in enumerate(rep_ensembles):
                member_ensembles.append(PathEnsemble(
                    values[k][law], params, replicas[k], activations[k * laws + law]))
    return ensembles


def _alone(runs, potential, mat, init, replica):
    """One PathEnsemble per run, on one replica and one matrix."""
    return simulate_shared(runs, potential, [[mat]], init, [replica])[0][0]


def simulate_full(
    params: ModelParams,
    potential: Potential,
    mat: DisorderMatrix,
    init: InitialLaw,
    replica: int = 0,
) -> PathEnsemble:
    """Integrate the fully-coupled dynamics: interaction refreshed every step."""
    return _alone([(params, False)], potential, mat, init, replica)[0]


def simulate_frozen(
    params: ModelParams,
    potential: Potential,
    mat: DisorderMatrix,
    init: InitialLaw,
    replica: int = 0,
) -> PathEnsemble:
    """Integrate the piecewise-frozen dynamics.

    The interaction vector is evaluated at the left endpoint of each of the
    kappa sub-intervals and held constant across its substeps.  With
    substeps = 1 this is the same code path as simulate_full.
    """
    return _alone([(params, True)], potential, mat, init, replica)[0]


@dataclass(frozen=True)
class CouplingStats:
    """Distances between a coupled full/frozen pair on the shared grid.

    r_t[g] = ||frozen - full||_2 at grid time g, msd is (1/(N T)) int
    ||X - X~||^2 dt by trapezoid, and l_t[g] = ||X~ at latest freeze point -
    X~ at g||_2 measures how far the frozen state has moved within its
    current sub-interval.
    """

    r_t: np.ndarray
    msd: float
    l_t: np.ndarray


def coupling_stats(full: PathEnsemble, frozen: PathEnsemble) -> CouplingStats:
    """CouplingStats of a full/frozen pair run on identical noise and
    initial data; the freeze points are those of ``frozen.params``."""
    if full.values.shape != frozen.values.shape or not np.array_equal(full.grid, frozen.grid):
        raise ValueError("ensembles live on different grids")
    params = frozen.params
    sq = np.sum(np.square(frozen.values - full.values), axis=0)
    msd = float(np.trapezoid(sq, dx=params.grid_step) / (params.n_particles * params.horizon))
    anchor = (np.arange(params.n_steps + 1) // params.substeps) * params.substeps
    l_t = np.linalg.norm(frozen.values[:, anchor] - frozen.values, axis=0)
    return CouplingStats(np.sqrt(sq), msd, l_t)


def simulate_coupled(
    params: ModelParams,
    potential: Potential,
    mat: DisorderMatrix,
    init: InitialLaw,
    replica: int = 0,
):
    """Run full and frozen dynamics on identical noise and initial data.

    Returns (full, frozen, CouplingStats).
    """
    full, frozen = _alone([(params, False), (params, True)], potential, mat, init, replica)
    return full, frozen, coupling_stats(full, frozen)


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
    with np.errstate(over="ignore", invalid="ignore"):  # an inf envelope bounds nothing
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
