"""Comparison-bound tests: constants, closed forms, enumeration, certificates."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, linalg

from spinlab import lindeberg
from spinlab.disorder import CENTERED_EXPONENTIAL, GAUSSIAN, RADEMACHER, CustomSampler
from spinlab.lindeberg import (
    C0,
    QuadraticForm,
    certificate_suite,
    expectation_exact_discrete,
    expectation_mc,
    gaussian_expectation_exact,
    gaussian_mc_check,
    h_eval,
    lindeberg_bound,
    random_instance,
)


def test_c0_value_and_variational_characterization():
    # 6 C0 = sup_r e^{-r^2/2} (3 r + r^3); the maximizer is r = sqrt(3)
    r = np.linspace(0.0, 6.0, 2_000_001)
    sup = np.max(np.exp(-0.5 * r * r) * (3.0 * r + r**3))
    assert C0 == pytest.approx(sup / 6.0, rel=1e-10)
    assert C0 == pytest.approx(0.436585, abs=1e-6)


def test_h_eval_vector_and_batch():
    q = QuadraticForm(np.eye(2), np.zeros(2))
    assert h_eval(q, np.array([1.0, 1.0])) == pytest.approx(1.0, rel=1e-15)
    batch = np.array([[1.0, 1.0], [2.0, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(h_eval(q, batch), [1.0, 2.0, 0.0], rtol=1e-15)
    shifted = QuadraticForm(np.eye(2), np.array([1.0, 0.0]))
    assert h_eval(shifted, np.zeros(2)) == pytest.approx(0.5, rel=1e-15)


def test_quadratic_form_validates_shapes():
    with pytest.raises(ValueError):
        QuadraticForm(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        QuadraticForm(np.zeros((2, 3)), np.zeros(3))
    with pytest.raises(ValueError):
        QuadraticForm(np.full((2, 2), np.nan), np.zeros(2))
    with pytest.raises(ValueError):
        h_eval(QuadraticForm(np.eye(2), np.zeros(2)), np.zeros(3))


def test_bound_single_unit_column():
    # one unit column: C0 (E|J|^3 + E|Z|^3) = C0 (1 + sqrt(8/pi))
    q = QuadraticForm(np.array([[1.0]]), np.zeros(1))
    expected = C0 * (1.0 + math.sqrt(8.0 / math.pi))
    assert lindeberg_bound(q, RADEMACHER) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(1.13327, abs=5e-6)


def test_bound_scales_as_three_halves_power():
    q1 = QuadraticForm(np.array([[0.3, -0.2], [0.1, 0.4]]), np.zeros(2))
    q2 = QuadraticForm(2.0 * q1.x_mat, np.zeros(2))
    b1 = lindeberg_bound(q1, GAUSSIAN)
    assert lindeberg_bound(q2, GAUSSIAN) == pytest.approx(8.0 * b1, rel=1e-12)


def test_bound_requires_declared_third_moment():
    bare = CustomSampler("bare", lambda count, gen: gen.standard_normal(count))
    with pytest.raises(ValueError):
        lindeberg_bound(QuadraticForm(np.eye(2), np.zeros(2)), bare)


def test_gaussian_exact_unit_instance():
    # X = [[1]], b = 0: E exp(-Z^2/2) = 1/sqrt(2)
    q = QuadraticForm(np.array([[1.0]]), np.zeros(1))
    g = gaussian_expectation_exact(q)
    assert g.value == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)
    assert g.lower == pytest.approx(g.value, rel=1e-14)


def test_gaussian_exact_shifted_instance():
    # X = [[1]], b = 1: value e^{-1/4}/sqrt(2), lower e^{-1/2}/sqrt(2)
    q = QuadraticForm(np.array([[1.0]]), np.ones(1))
    g = gaussian_expectation_exact(q)
    assert g.value == pytest.approx(math.exp(-0.25) / math.sqrt(2.0), rel=1e-14)
    assert g.lower == pytest.approx(math.exp(-0.5) / math.sqrt(2.0), rel=1e-14)
    assert g.value >= g.lower


def test_gaussian_exact_zero_matrix_meets_lower_bound():
    q = QuadraticForm(np.zeros((1, 3)), np.array([0.7]))
    g = gaussian_expectation_exact(q)
    assert g.value == pytest.approx(math.exp(-0.5 * 0.49), rel=1e-14)
    assert g.value == pytest.approx(g.lower, rel=1e-14)


def _scipy_closed_form(q):
    """(value, lower) through scipy's cho_factor and cho_solve."""
    cho = linalg.cho_factor(np.eye(q.kappa) + q.x_mat @ q.x_mat.T, lower=True)
    half_logdet = float(np.sum(np.log(np.diag(cho[0]))))
    quad = float(q.b_vec @ linalg.cho_solve(cho, q.b_vec))
    return (math.exp(-half_logdet - 0.5 * quad),
            math.exp(-0.5 * float(q.b_vec @ q.b_vec) - half_logdet))


def test_fma_rounds_once():
    # (1 + 2^-30)(1 - 2^-30) = 1 - 2^-60 rounds to 1 as a plain product
    assert lindeberg._fma(1.0 + 2.0**-30, 1.0 - 2.0**-30, -1.0) == -(2.0**-60)
    assert lindeberg._fma(-3.0, 0.5, 1.5) == 0.0


def test_gaussian_exact_matches_scipy_bit_for_bit():
    # kappa <= 3, every shape a command draws: the recorded lindeberg.csv
    # digests came from scipy's Cholesky factor and solve
    qs = [random_instance(seed, i) for seed in (0, 7, 31416) for i in range(1700)]
    assert {q.kappa for q in qs} == {1, 2, 3}
    gen = np.random.default_rng(3)
    qs += [QuadraticForm(gen.uniform(-1.0, 1.0, (k, 4)), np.zeros(k)) for k in (1, 2, 3)]
    qs += [QuadraticForm(np.zeros((k, 4)), gen.standard_normal(k)) for k in (1, 2, 3)]
    qs += [QuadraticForm(np.array([[x]]), np.array([b]))
           for x, b in gen.uniform(-2.0, 2.0, (50, 2))]
    for q in qs:
        g = gaussian_expectation_exact(q)
        value, lower = _scipy_closed_form(q)
        assert (g.value.hex(), g.lower.hex()) == (value.hex(), lower.hex())


@pytest.mark.parametrize("kappa", [4, 5, 6])
def test_gaussian_exact_general_kappa_matches_scipy(kappa):
    gen = np.random.default_rng(kappa)
    for _ in range(200):
        n = int(gen.integers(1, 13))
        q = QuadraticForm(gen.uniform(-1.5, 1.5, (kappa, n)), gen.standard_normal(kappa))
        value, lower = _scipy_closed_form(q)
        g = gaussian_expectation_exact(q)
        assert g.value == pytest.approx(value, rel=1e-12)
        assert g.lower == pytest.approx(lower, rel=1e-12)


@pytest.mark.parametrize("x,b", [(0.8, 0.0), (1.3, -0.6), (0.2, 2.0)])
def test_gaussian_exact_matches_quadrature(x, b):
    q = QuadraticForm(np.array([[x]]), np.array([b]))
    oracle, _ = integrate.quad(
        lambda z: math.exp(-0.5 * (x * z - b) ** 2)
        * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi),
        -np.inf, np.inf,
    )
    assert gaussian_expectation_exact(q).value == pytest.approx(oracle, rel=1e-10)


def test_discrete_exact_small_instances():
    q0 = QuadraticForm(np.array([[1.0]]), np.zeros(1))
    assert expectation_exact_discrete(q0) == pytest.approx(math.exp(-0.5), rel=1e-14)
    q1 = QuadraticForm(np.array([[1.0]]), np.ones(1))
    assert expectation_exact_discrete(q1) == pytest.approx(
        0.5 * (1.0 + math.exp(-2.0)), rel=1e-14
    )
    assert 0.5 * (1.0 + math.exp(-2.0)) == pytest.approx(0.567668, abs=5e-7)
    # two unit columns, b = 0: signs sum to -2, 0, 2 with weights 1/4, 1/2, 1/4
    q2 = QuadraticForm(np.array([[1.0, 1.0]]), np.zeros(1))
    assert expectation_exact_discrete(q2) == pytest.approx(
        0.5 + 0.5 * math.exp(-2.0), rel=1e-14
    )


def test_discrete_exact_guards():
    with pytest.raises(ValueError):
        expectation_exact_discrete(QuadraticForm(np.zeros((1, 21)), np.zeros(1)))


def test_exact_routes_invariant_under_column_symmetries():
    # column permutations and sign flips leave X X^T and both laws invariant
    q = random_instance(5, 3)
    perm = np.random.default_rng(2).permutation(q.n)
    flips = np.where(np.arange(q.n) % 2 == 0, -1.0, 1.0)
    q_sym = QuadraticForm(q.x_mat[:, perm] * flips, q.b_vec)
    assert gaussian_expectation_exact(q_sym).value == pytest.approx(
        gaussian_expectation_exact(q).value, rel=1e-12
    )
    assert expectation_exact_discrete(q_sym) == pytest.approx(
        expectation_exact_discrete(q), rel=1e-12
    )


def test_sylvester_determinant_identity_on_instances():
    for idx in (0, 4, 9):
        q = random_instance(11, idx)
        lhs = np.linalg.det(np.eye(q.kappa) + q.x_mat @ q.x_mat.T)
        rhs = np.linalg.det(np.eye(q.n) + q.x_mat.T @ q.x_mat)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_mc_matches_closed_form_and_enumeration():
    q = random_instance(17, 2)
    est, se = expectation_mc(q, GAUSSIAN, 200_000, seed=1)
    assert abs(est - gaussian_expectation_exact(q).value) < 4.0 * se
    est_r, se_r = expectation_mc(q, RADEMACHER, 200_000, seed=2)
    assert abs(est_r - expectation_exact_discrete(q)) < 4.0 * se_r


def test_mc_zero_matrix_has_zero_stderr():
    q = QuadraticForm(np.zeros((2, 3)), np.array([1.0, -0.5]))
    est, se = expectation_mc(q, GAUSSIAN, 2000, seed=0)
    assert est == pytest.approx(math.exp(-h_eval(q, np.zeros(3))), rel=1e-12)
    # degenerate integrand: stderr is zero up to cancellation noise
    assert se < 1e-9


def test_mc_is_deterministic_and_guards_sample_count():
    q = random_instance(3, 0)
    a = expectation_mc(q, CENTERED_EXPONENTIAL, 50_000, seed=9)
    b = expectation_mc(q, CENTERED_EXPONENTIAL, 50_000, seed=9)
    assert a == b
    with pytest.raises(ValueError):
        expectation_mc(q, GAUSSIAN, 999, seed=0)


def _whole_batch_mc(q, law, n_samples, seed, batch):
    # expectation_mc without sub-batches: one draw, h_eval and exp per batch
    state = law.sampler_state(seed, purpose="lindeberg-mc")
    total = total_sq = 0.0
    done = 0
    while done < n_samples:
        take = min(batch, n_samples - done)
        z = law.draw(state, take * q.n).reshape(take, q.n)
        e = np.exp(-h_eval(q, z))
        total += float(np.sum(e))
        total_sq += float(np.sum(e * e))
        done += take
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    return mean, math.sqrt(var / n_samples)


@pytest.mark.parametrize("normals, batch, n_samples", [
    (1, 1500, 5003), (7, 1500, 5003), (50, 1500, 5003),
    (lindeberg._MC_NORMALS, 1500, 5003), (lindeberg._MC_NORMALS, 65536, 70001),
])
@pytest.mark.parametrize("kappa", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 5, 12])
def test_mc_sub_batches_change_no_bit(monkeypatch, n, kappa, normals, batch, n_samples):
    monkeypatch.setattr(lindeberg, "_MC_NORMALS", normals)
    monkeypatch.setattr(lindeberg, "_MC_BATCH", batch)
    rng = np.random.default_rng(100 * n + kappa)
    q = QuadraticForm(rng.uniform(-1.0, 1.0, (kappa, n)), rng.standard_normal(kappa))
    want = _whole_batch_mc(q, GAUSSIAN, n_samples, 5, batch)
    assert expectation_mc(q, GAUSSIAN, n_samples, 5) == want


@pytest.mark.parametrize("normals", [1, 7, 50, lindeberg._MC_NORMALS])
@pytest.mark.parametrize("kappa", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 5, 8, 12])
def test_mc_sub_batch_values_equal_one_whole_batch_bit_for_bit(monkeypatch, n, kappa, normals):
    # the sums above can round a one-ulp change away; the values cannot
    monkeypatch.setattr(lindeberg, "_MC_NORMALS", normals)
    rng = np.random.default_rng(10 * n + kappa)
    q = QuadraticForm(rng.uniform(-1.0, 1.0, (kappa, n)), rng.standard_normal(kappa))
    mine = GAUSSIAN.sampler_state(3, purpose="lindeberg-mc")
    whole = GAUSSIAN.sampler_state(3, purpose="lindeberg-mc")
    for take in (1, 2, 5, 1003, 4465, 9000):
        got = lindeberg._mc_batch(q, GAUSSIAN, mine, np.empty(take))
        z = GAUSSIAN.draw(whole, take * n).reshape(take, n)
        np.testing.assert_array_equal(got, np.exp(-h_eval(q, z)))


def test_mc_working_set_stays_below_numpy_huge_page_threshold():
    rng = np.random.default_rng(0)
    q = QuadraticForm(rng.uniform(-1.0, 1.0, (3, 12)), rng.standard_normal(3))
    tracemalloc.start()
    try:
        expectation_mc(q, GAUSSIAN, 200_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_random_instance_shapes_scaling_and_determinism():
    for idx in range(20):
        q = random_instance(42, idx, beta=1.5, horizon=2.0, s_bound=2.0)
        assert 1 <= q.kappa <= 3 and 1 <= q.n <= 12
        cap = 1.5 * math.sqrt(2.0 / (q.n * q.kappa)) * 2.0
        assert np.max(np.abs(q.x_mat)) <= cap
    q1 = random_instance(42, 7)
    q2 = random_instance(42, 7)
    np.testing.assert_array_equal(q1.x_mat, q2.x_mat)
    np.testing.assert_array_equal(q1.b_vec, q2.b_vec)
    assert not np.array_equal(q1.x_mat, random_instance(43, 7).x_mat)


def test_certificate_suite_small_run_all_pass():
    rows = certificate_suite(n_instances=40, master_seed=6)
    assert len(rows) == 40
    assert all(r.passed for r in rows)
    assert all(r.slack >= -1e-10 for r in rows)
    assert all(r.lower_ok for r in rows)
    again = certificate_suite(n_instances=40, master_seed=6)
    assert rows == again


def test_gaussian_mc_check_small_run():
    rows = gaussian_mc_check(n_instances=3, n_samples=50_000, master_seed=4)
    assert all(r.passed for r in rows)
    assert all(r.z_score <= 4.0 for r in rows)
