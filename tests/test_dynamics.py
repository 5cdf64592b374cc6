"""Integrator tests: determinism, coupling identities, safeguard, weak order."""

import math

import numpy as np
import pytest

from spinlab import dynamics
from spinlab.disorder import GAUSSIAN, RADEMACHER, DisorderMatrix, sample_matrix
from spinlab.dynamics import (
    CouplingStats,
    SafeguardError,
    coupling_envelope,
    coupling_stats,
    envelope_violated,
    sample_initial,
    simulate_coupled,
    simulate_frozen,
    simulate_full,
    simulate_shared,
)
from spinlab.model import InitialLaw, ModelParams, Potential, double_well
from spinlab.streams import BrownianStream, CounterStream


def _params(n=10, beta=1.0, s=2.0, horizon=1.0, kappa=5, substeps=4, seed=7):
    return ModelParams(n, beta, s, horizon, kappa, substeps, seed)


def test_sample_initial_point_mass_consumes_no_randomness():
    law = InitialLaw("point", 0.3, 2.0)
    x = sample_initial(law, 8, CounterStream(1, "init-test"))
    np.testing.assert_array_equal(x, np.full(8, 0.3))


def test_sample_initial_uniform_bounded_and_centered():
    law = InitialLaw("uniform", 1.5, 2.0)
    x = sample_initial(law, 20_000, CounterStream(1, "init-test"))
    assert np.all(np.abs(x) < 1.5)
    assert abs(x.mean()) < 0.03
    assert abs(x.var() - 1.5**2 / 3.0) < 0.02


def test_sample_initial_uniform_is_per_lane_uniform():
    law = InitialLaw("uniform", 1.5, 2.0)
    stream = CounterStream(9, "init-test")
    x = sample_initial(law, 12, stream)
    lanes = [law.value * (2 * stream.uniforms(i, 1)[0] - 1) for i in range(12)]
    np.testing.assert_array_equal(x, np.array(lanes))


def test_zero_matrix_equals_beta_zero_bitwise():
    p = _params()
    pot = double_well(2.0)
    init = InitialLaw("uniform", 1.0, 2.0)
    zero = DisorderMatrix(np.zeros((p.n_particles, p.n_particles)), GAUSSIAN, seed=0)
    mat = sample_matrix(RADEMACHER, p.n_particles, seed=11)
    a = simulate_full(_params(beta=0.0), pot, mat, init, replica=2)
    b = simulate_full(p, pot, zero, init, replica=2)
    np.testing.assert_array_equal(a.values, b.values)


def test_beta_zero_ignores_disorder_bitwise():
    p0 = _params(beta=0.0)
    pot = double_well(2.0)
    init = InitialLaw("uniform", 1.0, 2.0)
    mat = sample_matrix(RADEMACHER, p0.n_particles, seed=11)
    other = sample_matrix(GAUSSIAN, p0.n_particles, seed=12)
    a = simulate_full(p0, pot, mat, init, replica=0)
    b = simulate_full(p0, pot, other, init, replica=0)
    np.testing.assert_array_equal(a.values, b.values)


def _no_interaction(n):
    """A zero-strided n x n zero matrix: 8 bytes at any n, for beta = 0."""
    return DisorderMatrix(np.broadcast_to(0.0, (n, n)), GAUSSIAN, seed=0)


def test_beta_zero_block_copies_no_matrix(monkeypatch):
    # a stack of these two 20,000 x 20,000 matrices would take 6.4 GB
    def no_stack(shape):
        raise AssertionError(f"a beta = 0 block built a {shape} stack")

    monkeypatch.setattr(dynamics, "_aligned", no_stack)
    p = ModelParams(20_000, 0.0, 2.0, 0.2, 2, 2, 13)
    pot, init = double_well(2.0), InitialLaw("uniform", 1.0, 2.0)
    zero = _no_interaction(p.n_particles)
    block = simulate_shared([(p, False)], pot, [[zero], [zero]], init, [0, 1])
    for rep, [[ens]] in enumerate(block):
        alone = simulate_full(p, pot, zero, init, replica=rep)
        np.testing.assert_array_equal(ens.values, alone.values)


def test_no_matrix_is_no_call_form():
    # no interaction is beta = 0 with a matrix, never a missing one
    p = _params(beta=0.0)
    pot, init = double_well(2.0), InitialLaw("uniform", 1.0, 2.0)
    with pytest.raises(TypeError, match="block form") as err:
        simulate_full(p, pot, None, init)
    assert "None" not in str(err.value)
    assert "None" not in dynamics._BLOCK_FORM


def test_frozen_with_one_substep_is_the_full_dynamics():
    # refresh_every = substeps = 1 must take the identical code path
    p = _params(substeps=1, kappa=20)
    pot = double_well(2.0)
    init = InitialLaw("uniform", 1.0, 2.0)
    mat = sample_matrix(GAUSSIAN, p.n_particles, seed=3)
    full = simulate_full(p, pot, mat, init, replica=1)
    frozen = simulate_frozen(p, pot, mat, init, replica=1)
    np.testing.assert_array_equal(full.values, frozen.values)


def test_coupled_without_interaction_has_zero_distance():
    p = _params(beta=0.0)
    pot = double_well(2.0)
    init = InitialLaw("uniform", 1.0, 2.0)
    mat = sample_matrix(GAUSSIAN, p.n_particles, seed=4)
    full, frozen, stats = simulate_coupled(p, pot, mat, init, replica=0)
    np.testing.assert_array_equal(full.values, frozen.values)
    assert stats.msd == 0.0
    assert np.all(stats.r_t == 0.0)


def test_coupled_msd_matches_definition():
    """msd must equal (1/(N T)) trapezoid of ||X - X~||^2 over the grid."""
    p = _params(n=20, kappa=4, substeps=5)
    pot = double_well(2.0)
    init = InitialLaw("uniform", 1.0, 2.0)
    mat = sample_matrix(RADEMACHER, p.n_particles, seed=5)
    full, frozen, stats = simulate_coupled(p, pot, mat, init, replica=4)
    diff2 = np.sum((frozen.values - full.values) ** 2, axis=0)
    expected = np.trapezoid(diff2, dx=p.grid_step) / (p.n_particles * p.horizon)
    assert stats.msd == pytest.approx(expected, rel=1e-12)
    assert stats.msd > 0.0


def test_coupled_l_t_vanishes_at_freeze_points():
    p = _params(n=6, kappa=5, substeps=4)
    pot = double_well(2.0)
    init = InitialLaw("uniform", 1.0, 2.0)
    mat = sample_matrix(GAUSSIAN, p.n_particles, seed=9)
    _, _, stats = simulate_coupled(p, pot, mat, init, replica=0)
    for k in range(p.kappa + 1):
        assert stats.l_t[k * p.substeps] == 0.0


def _safeguarded_sweep():
    # tight box and coarse grid, so both sides need the boundary safeguard
    sweep = [ModelParams(30, 1.0, 1.0, 1.0, k, 12 // k, 31) for k in (2, 3, 4, 6)]
    mat = sample_matrix(GAUSSIAN, 30, seed=7)
    return sweep, double_well(1.0), mat, InitialLaw("uniform", 0.9, 1.0)


def test_shared_sweep_equals_one_coupled_run_per_kappa():
    sweep, pot, mat, init = _safeguarded_sweep()
    [[(full, *frozen_runs)]] = simulate_shared(
        [(sweep[0], False)] + [(p, True) for p in sweep], pot, [[mat]], init, [3])
    assert len(frozen_runs) == len(sweep)
    assert full.safeguard_activations > 0
    ref_full = simulate_full(sweep[0], pot, mat, init, replica=3)
    np.testing.assert_array_equal(full.values, ref_full.values)
    assert full.safeguard_activations == ref_full.safeguard_activations
    for p, frozen in zip(sweep, frozen_runs):
        ref_full, ref_frozen, ref_stats = simulate_coupled(p, pot, mat, init, replica=3)
        assert frozen.safeguard_activations > 0
        assert frozen.params == p
        np.testing.assert_array_equal(frozen.values, ref_frozen.values)
        assert frozen.safeguard_activations == ref_frozen.safeguard_activations
        np.testing.assert_array_equal(
            frozen.values, simulate_frozen(p, pot, mat, init, replica=3).values)
        stats = coupling_stats(full, frozen)
        assert stats.msd == ref_stats.msd
        assert np.all(stats.r_t == ref_stats.r_t)
        assert np.all(stats.l_t == ref_stats.l_t)
    assert not full.values.flags.writeable


def test_shared_runs_with_one_refresh_interval_integrate_once(monkeypatch):
    # kappa 12 on a 12-step grid refreshes every step, like the full run
    sweep, pot, mat, init = _safeguarded_sweep()
    one_substep = ModelParams(30, 1.0, 1.0, 1.0, 12, 1, 31)
    ref_one = simulate_frozen(one_substep, pot, mat, init)
    ref_frozen = simulate_frozen(sweep[0], pot, mat, init)
    calls = []
    integrate = dynamics._integrate

    def counting(params, *args, refresh_every):
        calls.append(refresh_every)
        return integrate(params, *args, refresh_every=refresh_every)

    monkeypatch.setattr(dynamics, "_integrate", counting)
    runs = [(sweep[0], False), (one_substep, True), (sweep[0], True),
            (sweep[1], False)]
    [[(full, frozen_one, frozen, full_again)]] = simulate_shared(
        runs, pot, [[mat]], init, [0])
    assert calls == [1, sweep[0].substeps]
    assert frozen_one.values is full.values is full_again.values
    assert frozen_one.params == one_substep
    assert full_again.params == sweep[1]
    np.testing.assert_array_equal(frozen_one.values, ref_one.values)
    np.testing.assert_array_equal(frozen.values, ref_frozen.values)


def test_stacked_matrices_equal_one_run_per_matrix():
    # refinement fires on several members; each member must be the run its
    # matrix gives alone, activations included
    sweep, pot, _, init = _safeguarded_sweep()
    mats = [sample_matrix(law, 30, seed=seed)
            for law, seed in ((GAUSSIAN, 7), (RADEMACHER, 8), (GAUSSIAN, 9))]
    runs = [(sweep[0], False), (sweep[0], True), (sweep[2], True)]
    [stacked] = simulate_shared(runs, pot, [mats], init, [3])
    assert len(stacked) == len(mats)
    fired = 0
    for mat, (full, frozen, frozen_4) in zip(mats, stacked):
        for ens, ref in ((full, simulate_full(sweep[0], pot, mat, init, replica=3)),
                         (frozen, simulate_frozen(sweep[0], pot, mat, init, replica=3)),
                         (frozen_4, simulate_frozen(sweep[2], pot, mat, init, replica=3))):
            np.testing.assert_array_equal(ens.values, ref.values)
            assert ens.safeguard_activations == ref.safeguard_activations
            assert ens.params == ref.params
            assert not ens.values.flags.writeable
        fired += full.safeguard_activations > 0 and frozen.safeguard_activations > 0
    assert fired >= 2


def test_stacked_matvec_equals_one_matvec_per_matrix():
    # the stacked integrator's interaction and the stacked power iteration
    # are np.matmul over the stack; they must give the bits of one
    # ``a @ x``, ``a.T @ w`` and ``w @ w`` per matrix
    gen = np.random.default_rng(5)
    for _ in range(120):
        n = int(gen.integers(1, 401))
        stack = gen.standard_normal((int(gen.integers(1, 9)), n, n))
        x = gen.uniform(-2.0, 2.0, (len(stack), n))
        stacked = np.matmul(stack, x[:, :, None])[:, :, 0]
        back = np.matmul(stack.transpose(0, 2, 1), stacked[:, :, None])[:, :, 0]
        dots = np.matmul(stacked[:, None, :], stacked[:, :, None])[:, 0, 0]
        for entries, xm, row, back_row, dot in zip(stack, x, stacked, back, dots):
            assert np.array_equal(row, entries @ xm)
            assert np.array_equal(back_row, entries.T @ row)
            assert dot == row @ row


def test_block_of_replicas_equals_one_call_per_replica():
    # full and frozen runs, refinements on several members, and each
    # replica on its own noise
    sweep, pot, _, init = _safeguarded_sweep()
    mats = [[sample_matrix(law, 30, seed=10 * rep + seed)
             for law, seed in ((GAUSSIAN, 1), (RADEMACHER, 2))] for rep in range(3)]
    runs = [(sweep[0], False), (sweep[1], True)]
    block = simulate_shared(runs, pot, mats, init, [4, 9, 5])
    assert len(block) == 3
    fired = 0
    for rep, rep_mats, rep_paths in zip([4, 9, 5], mats, block):
        [alone] = simulate_shared(runs, pot, [rep_mats], init, [rep])
        assert len(rep_paths) == len(alone) == 2
        for law_paths, ref_paths in zip(rep_paths, alone):
            assert len(law_paths) == len(ref_paths) == 2
            for ens, ref in zip(law_paths, ref_paths):
                np.testing.assert_array_equal(ens.values, ref.values)
                assert ens.safeguard_activations == ref.safeguard_activations
                assert (ens.params, ens.replica) == (ref.params, rep)
                fired += ens.safeguard_activations > 0
    assert fired >= 4
    single = simulate_shared([(sweep[0], False)], pot, [m[:1] for m in mats], init,
                             [4, 9, 5])
    for rep, rep_mats, [(ens,)] in zip([4, 9, 5], mats, single):
        np.testing.assert_array_equal(
            ens.values, simulate_full(sweep[0], pot, rep_mats[0], init, replica=rep).values)
    with pytest.raises(ValueError, match="one mat entry per replica"):
        simulate_shared(runs, pot, mats[:2], init, [4, 9, 5])
    with pytest.raises(ValueError, match="same number of matrices"):
        simulate_shared(runs, pot, [mats[0], mats[1][:1]], init, [4, 9])
    # a run is a (params, frozen) pair over the whole block
    with pytest.raises(ValueError, match="too many values"):
        simulate_shared([(sweep[0], False, 2)], pot, mats, init, [4, 9, 5])


def test_block_failure_names_its_replica_major_member():
    # replica 1's second matrix pushes the dynamics out of the box
    p = ModelParams(30, 1.0, 1.0, 1.0, 2, 6, 31)
    pot, init = double_well(1.0), InitialLaw("uniform", 0.9, 1.0)
    mats = [[sample_matrix(GAUSSIAN, 30, seed=2 * rep + k) for k in range(2)]
            for rep in range(3)]
    mats[1][1] = DisorderMatrix(1e12 * mats[1][1].entries, GAUSSIAN, 0)
    with pytest.raises(SafeguardError) as err:
        simulate_shared([(p, False)], pot, mats, init, [0, 1, 2])
    assert err.value.member == 1 * 2 + 1


def test_stacked_failure_names_its_member():
    # only the third matrix pushes the dynamics out of the box
    p = ModelParams(30, 1.0, 1.0, 1.0, 2, 6, 31)
    pot, init = double_well(1.0), InitialLaw("uniform", 0.9, 1.0)
    mats = [sample_matrix(GAUSSIAN, 30, seed=s) for s in (7, 8)]
    mats.append(DisorderMatrix(1e12 * mats[1].entries, GAUSSIAN, 0))
    with pytest.raises(SafeguardError) as err:
        simulate_shared([(p, False)], pot, [mats], init, [0])
    assert err.value.member == 2
    with pytest.raises(TypeError):
        simulate_shared([(p, False)], pot, [[mats[0], None]], init, [0])


def test_removed_call_forms_fail_naming_the_block_form():
    # an integer replica, a bare matrix, a flat list of matrices, and a
    # missing matrix sequence are no longer accepted
    sweep, pot, mat, init = _safeguarded_sweep()
    runs = [(sweep[0], False)]
    for mats, replicas in ((mat, [3]), ([[mat]], 3), ([[mat]], np.int64(3)),
                           ([mat], [3]), ([mat, mat], [3, 4]), ([[mat], None], [3, 4]),
                           ([[mat, None]], [3])):
        with pytest.raises(TypeError, match="block form"):
            simulate_shared(runs, pot, mats, init, replicas)


def test_shared_rejects_runs_on_different_grids():
    sweep, pot, mat, init = _safeguarded_sweep()
    runs = [(p, True) for p in sweep]
    with pytest.raises(ValueError, match="n_steps"):
        simulate_shared(runs + [(ModelParams(30, 1.0, 1.0, 1.0, 2, 5, 31), False)],
                        pot, [[mat]], init, [0])
    with pytest.raises(ValueError, match="horizon"):
        simulate_shared(runs + [(ModelParams(30, 1.0, 1.0, 2.0, 2, 6, 31), True)],
                        pot, [[mat]], init, [0])
    with pytest.raises(ValueError, match="at least one"):
        simulate_shared([], pot, [[mat]], init, [0])


def test_frozen_safeguard_failure_names_its_kappa():
    sweep, pot, mat, _ = _safeguarded_sweep()
    repel = Potential(
        "custom", 1.0,
        lambda x: -25.0 * x**2, lambda x: -50.0 * x, lambda x: -50.0 + 0.0 * x,
    )
    init = InitialLaw("point", 0.5, 1.0)
    with pytest.raises(SafeguardError, match=r"kappa=3\)$"):
        simulate_shared([(sweep[1], True), (sweep[0], False)], repel, [[mat]], init, [0])
    with pytest.raises(SafeguardError) as err:
        simulate_full(sweep[1], repel, mat, init)
    assert "kappa" not in str(err.value)


def test_shared_streams_same_initials_different_paths():
    # same replica index reuses initial draws and increments across matrices
    p = _params()
    pot = double_well(2.0)
    init = InitialLaw("uniform", 1.0, 2.0)
    a = simulate_full(p, pot, sample_matrix(GAUSSIAN, p.n_particles, seed=1), init, replica=6)
    b = simulate_full(p, pot, sample_matrix(RADEMACHER, p.n_particles, seed=2), init, replica=6)
    np.testing.assert_array_equal(a.values[:, 0], b.values[:, 0])
    assert not np.array_equal(a.values[:, 1:], b.values[:, 1:])


def test_simulation_is_deterministic():
    p = _params()
    pot = double_well(2.0)
    init = InitialLaw("uniform", 1.0, 2.0)
    mat = sample_matrix(GAUSSIAN, p.n_particles, seed=8)
    a = simulate_full(p, pot, mat, init, replica=5)
    b = simulate_full(p, pot, mat, init, replica=5)
    np.testing.assert_array_equal(a.values, b.values)
    c = simulate_full(p, pot, mat, init, replica=6)
    assert not np.array_equal(a.values, c.values)


def test_trajectories_stay_strictly_inside_even_with_coarse_steps():
    # tight box and coarse grid: per-step noise sd 0.32 against walls at 1
    p = ModelParams(50, 0.0, 1.0, 1.0, 5, 2, 31)
    pot = double_well(1.0)
    init = InitialLaw("uniform", 0.9, 1.0)
    mat = sample_matrix(GAUSSIAN, p.n_particles, seed=1)
    ens = simulate_full(p, pot, mat, init, replica=0)
    assert np.all(np.abs(ens.values) < 2.0)
    assert ens.safeguard_activations > 0


def test_safeguard_raises_loudly_when_dynamics_escape():
    # outward drift: the true solution exits the box, refinement cannot save it
    repel = Potential(
        "custom", 1.0,
        lambda x: -25.0 * x**2, lambda x: -50.0 * x, lambda x: -50.0 + 0.0 * x,
    )
    p = ModelParams(1, 0.0, 1.0, 1.0, 10, 1, 17)
    init = InitialLaw("point", 0.5, 1.0)
    with pytest.raises(SafeguardError):
        simulate_full(p, repel, sample_matrix(GAUSSIAN, 1, seed=1), init, replica=0)


def test_coupling_envelope_examples():
    assert coupling_envelope(1.0, 1.0, 0.1, 100, [0.0])[0] == 0.0
    # (3 a2 rho sqrt(N) / (a2 + c)) (e^{(a2+c) t} - 1) at t = 1
    val = coupling_envelope(1.0, 1.0, 0.1, 100, [1.0])[0]
    assert val == pytest.approx(1.5 * math.expm1(2.0), rel=1e-12)
    assert val == pytest.approx(9.5836, abs=5e-4)


def test_coupling_envelope_monotone_and_linear_limit():
    t = np.linspace(0.0, 2.0, 41)
    env = coupling_envelope(0.7, 1.5, 0.2, 64, t)
    assert np.all(np.diff(env) > 0)
    # rate -> 0 degenerates to amp * t
    lin = coupling_envelope(0.5, -0.5, 0.2, 64, t)
    np.testing.assert_allclose(lin, 3.0 * 0.5 * 0.2 * 8.0 * t, rtol=1e-12)


def test_envelope_violation_detection_and_claim_window():
    times = np.linspace(0.0, 1.0, 11)
    env = coupling_envelope(1.0, 1.0, 0.1, 100, times)
    below = CouplingStats(env * 0.5, 0.0, np.zeros(11))
    assert not envelope_violated(below, times, 1.0, 1.0, 0.1, 100)
    above = CouplingStats(env + 0.1, 0.0, np.zeros(11))
    assert envelope_violated(above, times, 1.0, 1.0, 0.1, 100)
    # once l_t leaves the 3 rho sqrt(N) tube the bound is no longer claimed
    l_t = np.zeros(11)
    l_t[4:] = 10.0 * 0.1 * 10.0
    late = CouplingStats(np.where(np.arange(11) >= 5, env + 1.0, 0.0), 0.0, l_t)
    assert not envelope_violated(late, times, 1.0, 1.0, 0.1, 100)


def test_weak_error_halves_with_step():
    """Euler bias against the exact discrete OU recursion shrinks like h.

    Both recursions consume the identical addressed increments, so the
    Monte Carlo noise in the mean difference is O(h/sqrt(N)) and the
    deterministic O(h) bias dominates.
    """
    ou = Potential(
        "custom", 50.0, lambda x: 0.5 * x**2, lambda x: x, lambda x: 1.0 + 0.0 * x
    )
    init = InitialLaw("point", 1.0, 50.0)
    zero = _no_interaction(20_000)

    def mean_bias(substeps):
        p = ModelParams(20_000, 0.0, 50.0, 1.0, 10, substeps, 23)
        h = p.grid_step
        euler = simulate_full(p, ou, zero, init, replica=0).values[:, -1]
        z = BrownianStream(p.master_seed, 0).increments(
            p.n_particles, p.n_steps, h
        ) / math.sqrt(h)
        x = np.full(p.n_particles, 1.0)
        decay = math.exp(-h)
        noise = math.sqrt((1.0 - math.exp(-2.0 * h)) / 2.0)
        for g in range(p.n_steps):
            x = x * decay + noise * z[:, g]
        return float(np.mean(euler - x))

    coarse = mean_bias(1)
    fine = mean_bias(2)
    assert abs(coarse) > 1e-3
    assert 1.7 < abs(coarse / fine) < 2.4
