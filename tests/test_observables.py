"""Observable tests: path distances, autocorrelation, W2, Girsanov statistics."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spinlab.disorder import (
    CENTERED_EXPONENTIAL,
    GAUSSIAN,
    RADEMACHER,
    CustomSampler,
    DisorderMatrix,
    sample_matrix,
)
from spinlab.dynamics import coupling_stats, simulate_coupled, simulate_frozen, simulate_full
from spinlab.model import (
    InitialLaw,
    ModelParams,
    PathEnsemble,
    double_well,
    grid_times,
    log_barrier,
)
from spinlab.observables import (
    autocorrelation,
    girsanov_stats,
    marginal_w2_distance,
    w2_empirical,
)

_TWELVE_OVER_E_MINUS_TWO = 12.0 / math.e - 2.0


def _run_pair(n=12, seed=3, replica=0):
    p = ModelParams(n, 1.0, 2.0, 1.0, 5, 4, seed)
    pot = double_well(2.0)
    init = InitialLaw("uniform", 1.0, 2.0)
    mat = sample_matrix(RADEMACHER, n, seed=seed)
    return simulate_coupled(p, pot, mat, init, replica=replica)


def test_coupling_msd_matches_single_particle_d2():
    # with one particle the coupling msd is exactly the squared normalized
    # L2 path distance (1/T) int (x_t - y_t)^2 dt
    p = ModelParams(1, 1.0, 2.0, 1.0, 5, 4, 21)
    pot = double_well(2.0)
    init = InitialLaw("uniform", 1.0, 2.0)
    mat = sample_matrix(GAUSSIAN, 1, seed=2)
    full, frozen, _ = simulate_coupled(p, pot, mat, init, replica=0)
    msd = coupling_stats(full, frozen).msd
    diff = full.values[0] - frozen.values[0]
    d2_sq = np.trapezoid(diff * diff, dx=p.grid_step) / p.horizon
    assert msd == pytest.approx(d2_sq, rel=1e-12)


def test_coupling_msd_self_is_zero_and_matches_stats():
    full, frozen, stats = _run_pair()
    assert coupling_stats(full, full).msd == 0.0
    diff = frozen.values - full.values
    p = full.params
    assert coupling_stats(full, frozen).msd == stats.msd == float(
        np.trapezoid(np.sum(diff * diff, axis=0), dx=p.grid_step)
        / (p.n_particles * p.horizon))


def test_coupling_msd_rejects_grid_mismatch():
    full, _, _ = _run_pair()
    other = simulate_full(
        ModelParams(12, 1.0, 2.0, 1.0, 5, 8, 3),
        double_well(2.0),
        sample_matrix(GAUSSIAN, 12, seed=3),
        InitialLaw("uniform", 1.0, 2.0),
    )
    with pytest.raises(ValueError):
        coupling_stats(full, other)


def test_autocorrelation_zero_start_is_identically_zero():
    p = ModelParams(30, 0.0, 2.0, 1.0, 5, 4, 9)
    mat = sample_matrix(GAUSSIAN, 30, seed=9)
    ens = simulate_full(p, double_well(2.0), mat, InitialLaw("point", 0.0, 2.0))
    np.testing.assert_array_equal(autocorrelation(ens), np.zeros(p.n_steps + 1))


def test_autocorrelation_at_time_zero_is_mean_square_start():
    p = ModelParams(20_000, 0.0, 2.0, 0.2, 2, 2, 13)
    # beta = 0 reads no matrix: a zero-strided one costs 8 bytes
    zero = DisorderMatrix(np.broadcast_to(0.0, (20_000, 20_000)), GAUSSIAN, seed=0)
    ens = simulate_full(p, double_well(2.0), zero, InitialLaw("uniform", 1.0, 2.0))
    c = autocorrelation(ens)
    assert c[0] == pytest.approx(np.mean(ens.values[:, 0] ** 2), rel=1e-14)
    # Uniform(-1, 1) second moment is 1/3
    assert c[0] == pytest.approx(1.0 / 3.0, abs=0.01)
    assert c[0] >= 0.0


def test_autocorrelation_is_permutation_invariant():
    full, _, _ = _run_pair(n=17, seed=5)
    perm = np.random.default_rng(0).permutation(17)
    shuffled = PathEnsemble(
        full.values[perm], full.grid, full.params, full.replica,
        full.safeguard_activations,
    )
    np.testing.assert_allclose(
        autocorrelation(shuffled), autocorrelation(full), rtol=1e-13
    )


def test_w2_identical_and_shift():
    xs = np.array([0.1, -0.4, 0.9, 0.3])
    assert w2_empirical(xs, xs) == 0.0
    assert w2_empirical(xs, xs + 0.25) == pytest.approx(0.25, rel=1e-12)


def test_w2_unequal_sizes_matches_common_refinement():
    # {0, 1} vs {0, 1/2, 1}: refine both to 6 atoms and compare directly
    a = [0.0, 1.0]
    b = [0.0, 0.5, 1.0]
    a6 = np.repeat(np.sort(a), 3)
    b6 = np.repeat(np.sort(b), 2)
    expected = math.sqrt(np.mean((a6 - b6) ** 2))
    assert w2_empirical(a, b) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(1.0 / math.sqrt(12.0), rel=1e-12)


def test_w2_rejects_empty():
    with pytest.raises(ValueError):
        w2_empirical([], [1.0])


@settings(deadline=None, max_examples=50)
@given(
    a=hnp.arrays(np.float64, 7, elements=st.floats(-5, 5)),
    b=hnp.arrays(np.float64, 7, elements=st.floats(-5, 5)),
    c=hnp.arrays(np.float64, 7, elements=st.floats(-5, 5)),
)
def test_w2_triangle_inequality(a, b, c):
    assert w2_empirical(a, c) <= w2_empirical(a, b) + w2_empirical(b, c) + 1e-12


def test_marginal_w2_identical_zero_and_shift():
    full, frozen, _ = _run_pair(n=25, seed=8)
    assert marginal_w2_distance(full, full) == 0.0
    shifted = PathEnsemble(
        full.values * 0.5 + 0.3, full.grid, full.params, full.replica,
        full.safeguard_activations,
    )
    d = marginal_w2_distance(full, shifted)
    assert d > 0.0
    # pooling two copies of the same ensemble changes nothing
    assert marginal_w2_distance([full, full], shifted) == pytest.approx(d, rel=1e-12)


def test_marginal_w2_rejects_grid_mismatch():
    full, _, _ = _run_pair()
    other = simulate_full(
        ModelParams(12, 1.0, 2.0, 1.0, 5, 8, 3),
        double_well(2.0),
        sample_matrix(GAUSSIAN, 12, seed=3),
        InitialLaw("uniform", 1.0, 2.0),
    )
    with pytest.raises(ValueError):
        marginal_w2_distance(full, other)


def _frozen_run(n=400, kappa=10, substeps=20, beta=0.0, seed=29, law=RADEMACHER):
    p = ModelParams(n, beta, 2.0, 2.0, kappa, substeps, seed)
    pot = double_well(2.0)
    init = InitialLaw("uniform", 1.0, 2.0)
    mat = sample_matrix(law, n, seed=seed + 1)
    ens = simulate_frozen(p, pot, mat, init, replica=0)
    return ens, mat, p, pot


def test_girsanov_b_is_standard_normal_without_interaction():
    """At beta = 0 the normalized increments are i.i.d. standard Gaussians.

    Discretization only perturbs moments at O(h), far below the tolerances
    on 4000 effectively independent entries.
    """
    ens, mat, p, pot = _frozen_run(n=400, beta=0.0)
    rec = girsanov_stats(ens, mat, p, pot)
    b = rec.b.ravel()
    assert b.size == 4000
    assert abs(b.mean()) < 0.05
    assert abs(b.var() - 1.0) < 0.08
    assert abs(np.mean(b**3)) < 0.15


def test_girsanov_phi_zero_when_c1_zero():
    ens, mat, p, pot = _frozen_run(n=50)
    rec = girsanov_stats(ens, mat, p, pot, c1=0.0)
    assert rec.phi == 0.0


def test_girsanov_delta_uses_declared_third_moment():
    ens, mat, p, pot = _frozen_run(n=50, law=RADEMACHER)
    rec = girsanov_stats(ens, mat, p, pot, c1=2.0)
    np.testing.assert_allclose(rec.delta, np.full(50, 2.0 / math.sqrt(50.0)))
    ens_e, mat_e, p_e, pot_e = _frozen_run(n=50, law=CENTERED_EXPONENTIAL)
    rec_e = girsanov_stats(ens_e, mat_e, p_e, pot_e, c1=1.0)
    np.testing.assert_allclose(
        rec_e.delta,
        np.full(50, _TWELVE_OVER_E_MINUS_TWO / math.sqrt(50.0)),
        rtol=1e-12,
    )


def test_girsanov_phi_nondecreasing_in_c1():
    ens, mat, p, pot = _frozen_run(n=50, beta=1.0)
    phis = [girsanov_stats(ens, mat, p, pot, c1=c).phi for c in (0.0, 0.5, 1.0, 2.0)]
    assert all(a < b for a, b in zip(phis, phis[1:]))


def test_girsanov_phi_invariant_under_particle_relabeling():
    ens, mat, p, pot = _frozen_run(n=30, beta=1.0)
    rec = girsanov_stats(ens, mat, p, pot)
    perm = np.random.default_rng(1).permutation(30)
    permuted = PathEnsemble(
        ens.values[perm], ens.grid, ens.params, ens.replica,
        ens.safeguard_activations,
    )
    rec_p = girsanov_stats(permuted, mat, p, pot)
    assert rec_p.phi == pytest.approx(rec.phi, rel=1e-13)
    np.testing.assert_allclose(np.sort(rec_p.m_big), np.sort(rec.m_big), rtol=1e-13)


def test_girsanov_validates_inputs():
    ens, mat, p, pot = _frozen_run(n=20)
    with pytest.raises(ValueError):
        girsanov_stats(ens, sample_matrix(GAUSSIAN, 21, seed=0), p, pot)
    with pytest.raises(ValueError):
        girsanov_stats(ens, mat, p, pot, c1=-1.0)
    bare = CustomSampler("nameless", lambda count, gen: gen.standard_normal(count))
    bare_mat = DisorderMatrix(mat.entries, bare, seed=0)
    with pytest.raises(ValueError):
        girsanov_stats(ens, bare_mat, p, pot)


def _reference_girsanov(frozen, mat, params, potential, c1=1.0):
    # the loop form of girsanov_stats, one call per sub-interval, which the
    # batched form must match bit for bit
    n, kappa, m, h = params.n_particles, params.kappa, params.substeps, params.grid_step
    v, grid = frozen.values, frozen.grid
    b = np.empty((kappa, n))
    for k in range(kappa):
        left, right = k * m, (k + 1) * m
        drift_int = np.trapezoid(potential.du1(v[:, left:right + 1]), dx=h, axis=1)
        b[k] = (v[:, right] - v[:, left] + drift_int) / math.sqrt(grid[right] - grid[left])
    m_big = 0.5 * np.sum(b * b, axis=0)
    delta = np.full(n, c1 * mat.law.third_abs_moment / math.sqrt(n))
    phi = 0.0 if c1 == 0.0 else float(np.mean(np.logaddexp(0.0, np.log(delta) + m_big)))
    return b, m_big, delta, phi, float(c1)


@pytest.mark.parametrize("potential", [double_well(2.0), log_barrier(2.0)],
                         ids=["doublewell", "logbarrier"])
@pytest.mark.parametrize("kappa, substeps", [
    (1, 1), (1, 7), (3, 1), (3, 5), (4, 7), (10, 20), (20, 1), (20, 5)])
def test_girsanov_equals_the_per_interval_loop_bit_for_bit(potential, kappa, substeps):
    n = 17
    params = ModelParams(n, 1.0, 2.0, 2.0, kappa, substeps, 5)
    mat = sample_matrix(GAUSSIAN, n, seed=6)
    ens = simulate_frozen(params, potential, mat, InitialLaw("uniform", 1.0, 2.0), replica=0)
    record = girsanov_stats(ens, mat, params, potential, c1=1.5)
    reference = _reference_girsanov(ens, mat, params, potential, c1=1.5)
    for name, got, want in zip(("b", "m_big", "delta", "phi", "c1"),
                               dataclasses.astuple(record), reference):
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    assert record.b.flags.c_contiguous
