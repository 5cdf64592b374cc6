"""Entry laws, matrix sampling, operator norms, and condition diagnostics."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.integrate as integrate
import scipy.stats as stats

from spinlab.disorder import (
    CENTERED_EXPONENTIAL,
    GAUSSIAN,
    RADEMACHER,
    CustomSampler,
    DisorderMatrix,
    PowerIterationError,
    condition_diagnostics,
    operator_norm_report,
    operator_norm_reports,
    sample_matrix,
    validate_law,
)
from spinlab import disorder, dynamics
from spinlab.dynamics import simulate_shared
from spinlab.model import InitialLaw, ModelParams, double_well
from spinlab.streams import CounterStream

# Quadrature oracle for E|Exp(1) - 1|^3; the closed form it matches is
# 12/e - 2.
_THIRD_CEXP_ORACLE = integrate.quad(
    lambda x: abs(x - 1.0) ** 3 * math.exp(-x), 0, np.inf
)[0]


def test_builtin_moment_declarations():
    assert GAUSSIAN.mean == 0.0 and GAUSSIAN.variance == 1.0
    assert RADEMACHER.mean == 0.0 and RADEMACHER.variance == 1.0
    assert CENTERED_EXPONENTIAL.mean == 0.0 and CENTERED_EXPONENTIAL.variance == 1.0
    assert GAUSSIAN.third_abs_moment == pytest.approx(math.sqrt(8 / math.pi), rel=1e-15)
    assert RADEMACHER.third_abs_moment == 1.0


def test_cexp_third_moment_matches_quadrature_oracle():
    closed = 12.0 / math.e - 2.0
    assert CENTERED_EXPONENTIAL.third_abs_moment == pytest.approx(closed, rel=1e-12)
    assert closed == pytest.approx(_THIRD_CEXP_ORACLE, rel=1e-9)


def test_mgf_analytic_forms():
    for theta in (0.1, 0.5, 0.9, -0.7):
        assert RADEMACHER.mgf(theta) == pytest.approx(math.cosh(theta), rel=1e-14)
        assert GAUSSIAN.mgf(theta) == pytest.approx(
            math.exp(theta**2 / 2), rel=1e-14
        )
        assert CENTERED_EXPONENTIAL.mgf(theta) == pytest.approx(
            math.exp(-theta) / (1 - theta), rel=1e-14
        )
    assert CENTERED_EXPONENTIAL.mgf(1.0) == math.inf
    assert CENTERED_EXPONENTIAL.mgf(1.5) == math.inf


def test_mgf_matches_quadrature_for_cexp():
    theta = 0.4
    oracle = integrate.quad(
        lambda x: math.exp(theta * (x - 1.0) - x), 0, np.inf
    )[0]
    assert CENTERED_EXPONENTIAL.mgf(theta) == pytest.approx(oracle, rel=1e-9)


def test_exp_abs_moment_against_quadrature():
    eps = 0.3
    gauss_oracle = integrate.quad(
        lambda x: math.exp(eps * abs(x)) * math.exp(-x * x / 2)
        / math.sqrt(2 * math.pi),
        -np.inf,
        np.inf,
    )[0]
    assert GAUSSIAN.exp_abs_moment(eps) == pytest.approx(gauss_oracle, rel=1e-9)
    cexp_oracle = integrate.quad(
        lambda x: math.exp(eps * abs(x - 1.0) - x), 0, np.inf
    )[0]
    assert CENTERED_EXPONENTIAL.exp_abs_moment(eps) == pytest.approx(
        cexp_oracle, rel=1e-9
    )
    assert RADEMACHER.exp_abs_moment(eps) == pytest.approx(math.exp(eps), rel=1e-14)
    # the gaussian closed form 2 e^{eps^2/2} Phi(eps), with Phi from erfc,
    # against scipy's normal cdf
    for eps in (0.0, 0.25, 0.5, 1.0, 3.0):
        oracle = 2.0 * math.exp(0.5 * eps * eps) * stats.norm.cdf(eps)
        assert GAUSSIAN.exp_abs_moment(eps) == pytest.approx(oracle, rel=1e-13)


def test_rademacher_matrix_support():
    mat = sample_matrix(RADEMACHER, 2, seed=77)
    assert set(np.unique(mat.entries)) <= {-1.0, 1.0}


def test_gaussian_matrix_sample_moments():
    mat = sample_matrix(GAUSSIAN, 200, seed=2024)
    assert abs(mat.entries.mean()) < 4 / 200 * 4
    assert abs(mat.entries.var() - 1.0) < 0.05


def test_matrix_determinism():
    a = sample_matrix(GAUSSIAN, 31, seed=5)
    b = sample_matrix(GAUSSIAN, 31, seed=5)
    np.testing.assert_array_equal(a.entries, b.entries)
    c = sample_matrix(GAUSSIAN, 31, seed=6)
    assert not np.array_equal(a.entries, c.entries)


def test_matrix_entries_counter_addressed():
    # entry (i, j) depends only on (law, seed, i, j): a larger matrix with
    # the same seed extends the smaller one
    small = sample_matrix(GAUSSIAN, 5, seed=123).entries
    large = sample_matrix(GAUSSIAN, 9, seed=123).entries
    np.testing.assert_array_equal(large[:5, :5], small)


# Each built-in law's value from lane words, written out from the stream
# primitives rather than taken from the law.
_LANE_VALUES = {
    "gaussian": lambda stream, lane, n: stream.normals(lane, n),
    "rademacher": lambda stream, lane, n: np.where(
        stream.raw(lane, 0, n) >> np.uint64(63), 1.0, -1.0),
    "cexp": lambda stream, lane, n: -np.log(stream.uniforms(lane, n)) - 1.0,
}


@pytest.mark.parametrize("law", [GAUSSIAN, RADEMACHER, CENTERED_EXPONENTIAL],
                         ids=lambda law: law.name)
def test_sequential_draws_independent_of_batch_size(law):
    state = law.sampler_state(11, purpose="batch")
    first, second = law.draw(state, 7), law.draw(state, 13)
    whole = law.draw(law.sampler_state(11, purpose="batch"), 20)
    np.testing.assert_array_equal(np.concatenate([first, second]), whole)


@pytest.mark.parametrize("law", [GAUSSIAN, RADEMACHER, CENTERED_EXPONENTIAL],
                         ids=lambda law: law.name)
def test_matrix_row_is_lane_of_disorder_stream(law):
    n, seed = 6, 99
    entries = sample_matrix(law, n, seed).entries
    stream = CounterStream(seed, "disorder")
    for i in range(n):
        np.testing.assert_array_equal(entries[i], _LANE_VALUES[law.name](stream, i, n))


def test_scaled_view():
    # the norm's bytes rest on the scaled interaction matrix having the bits
    # of the plain product, from a DisorderMatrix or a raw array alike
    for law, n, beta in ((RADEMACHER, 16, 0.5), (GAUSSIAN, 25, 1.3), (GAUSSIAN, 7, 0.7)):
        mat = sample_matrix(law, n, seed=1)
        expected = (beta / math.sqrt(n)) * mat.entries
        np.testing.assert_array_equal(disorder._as_interaction([mat], beta)[0], expected)
        raw = np.array(mat.entries)
        np.testing.assert_array_equal(disorder._as_interaction([raw], beta)[0], expected)


def test_disorder_matrix_leaves_the_callers_array_writable():
    held = np.zeros((3, 3))
    mat = DisorderMatrix(held, GAUSSIAN, 0)
    assert held.flags.writeable
    held[0, 0] = 1.0
    assert mat.entries[0, 0] == 0.0 and not mat.entries.flags.writeable
    # a read-only array, as sample_matrix hands over, is kept without a copy
    assert DisorderMatrix(mat.entries, GAUSSIAN, 0).entries is mat.entries
    assert not sample_matrix(GAUSSIAN, 4, seed=2).entries.flags.writeable


def _at_offset(arr, slots):
    """A copy of ``arr`` starting ``slots`` float64s past a 64-byte boundary."""
    raw = np.empty(arr.size + 15)
    skip = -raw.ctypes.data % 64 // 8 + slots
    out = raw[skip:skip + arr.size].reshape(arr.shape)
    out[...] = arr
    assert out.ctypes.data % 64 == 8 * slots
    return out


@pytest.mark.parametrize("n", [1, 2, 7, 25, 100, 200])
def test_gemv_bits_do_not_depend_on_alignment(n):
    # aligning the interaction matrices is a pure speed change only if
    # every offset gives the aligned matrix's bits
    gen = np.random.default_rng(n)
    a, stack = gen.standard_normal((n, n)), gen.standard_normal((3, n, n))
    v, w, x = gen.standard_normal(n), gen.standard_normal(n), gen.standard_normal((3, n, 1))
    first = None
    for slots in range(8):
        ak, sk = _at_offset(a, slots), _at_offset(stack, slots)
        got = [ak @ v, ak.T @ w, ak.dot(v), ak.T.dot(w), np.matmul(sk, x),
               np.matmul(sk.transpose(0, 2, 1), x)]
        got = [g.view(np.uint64) for g in got]
        first = first or got
        for g, f in zip(got, first):
            np.testing.assert_array_equal(g, f)


def test_interaction_matrices_start_on_a_cache_line(monkeypatch):
    starts = []
    run, integrate = disorder._power_run, dynamics._integrate

    def recording_run(a, *args, **kwargs):
        starts.append(("norm stack", a.ctypes.data % 64))
        return run(a, *args, **kwargs)

    def recording_integrate(params, potential, entries, *args, **kwargs):
        starts.append(("entries stack", entries.ctypes.data % 64))
        return integrate(params, potential, entries, *args, **kwargs)

    monkeypatch.setattr(disorder, "_power_run", recording_run)
    monkeypatch.setattr(dynamics, "_integrate", recording_integrate)
    for n in (1, 2, 7, 25, 100, 200):
        mats = [sample_matrix(law, n, seed=n) for law in (GAUSSIAN, RADEMACHER)]
        for beta in (1.0, 0.3):
            starts.append(("one matrix",
                           disorder._as_interaction(mats[:1], beta).ctypes.data % 64))
            raw = np.array(mats[1].entries)
            starts.append(("raw stack",
                           disorder._as_interaction([raw, raw], beta).ctypes.data % 64))
        operator_norm_report(mats[1])
        params = ModelParams(n, 1.0, 2.0, 0.1, 2, 1, 7)
        simulate_shared([(params, False)], double_well(2.0), [mats],
                        InitialLaw("uniform", 1.0, 2.0), [0])
    assert {kind for kind, _ in starts} == {"one matrix", "raw stack", "norm stack",
                                            "entries stack"}
    assert [s for s in starts if s[1]] == []


def _reference_power_run(a, v, tol, budget, it=0, lam_prev=-1.0, stall=0, lam=0.0,
                         resid=0.0):
    # the operator form of disorder._power_run, which the dot form must match
    for it in range(it + 1, budget + 1):
        w = a @ v
        lam = float(w @ w)
        u = a.T @ w
        r = u - lam * v
        resid = math.sqrt(r.dot(r))
        if resid <= tol * lam or (lam == 0.0 and resid == 0.0):
            return lam, resid, it, True
        if abs(lam - lam_prev) <= 1e-15 * max(lam, 1e-300):
            stall += 1
            if stall >= disorder._STALL_STEPS:
                return lam, resid, it, False
        else:
            stall = 0
        lam_prev = lam
        v = u / math.sqrt(u.dot(u))
    return lam, resid, budget, None


def _reference_report(mat, beta, tol=1e-10, max_iter=200000):
    # one matrix: the all-ones start, then one restart from e1 on a stall
    n = mat.n
    a = (beta / math.sqrt(n)) * mat.entries
    ones = np.ones(n)
    lam, resid, used, status = _reference_power_run(
        a, ones / math.sqrt(ones.dot(ones)), tol, max_iter)
    restarted = status is False or lam == 0.0
    if restarted:
        e1 = np.zeros(n)
        e1[0] = 1.0
        lam, resid, it, status = _reference_power_run(
            a, e1, tol, max_iter - used, lam=lam, resid=resid)
        used += it
    assert status is not None  # a stall after the restart is final
    value = math.sqrt(max(lam, 0.0))
    return (value, value, math.sqrt(max(lam + resid, 0.0)), resid, used, restarted)


@pytest.mark.parametrize("n", [1, 5, 25, 100, 200])
def test_norm_reports_equal_the_operator_form_reference(n):
    mats = [DisorderMatrix(m, GAUSSIAN, 0) for m in (
        np.zeros((n, n)), math.sqrt(n) * np.eye(n),
        np.outer(np.arange(1.0, n + 1), np.ones(n)))]
    mats += [sample_matrix(law, n, seed=seed)
             for seed in range(100, 104) for law in (GAUSSIAN, RADEMACHER)]
    reference = [_reference_report(m, 0.7) for m in mats]
    stacked = operator_norm_reports(mats, beta=0.7)
    for mat, ref, stacked_report in zip(mats, reference, stacked):
        assert dataclasses.astuple(operator_norm_report(mat, beta=0.7)) == ref
        assert dataclasses.astuple(stacked_report) == ref
    # the zero matrix restarts on lambda = 0; from N = 25 random draws stall
    # and restart too
    assert reference[0][-1]
    assert n < 25 or any(ref[-1] for ref in reference[3:])


def test_operator_norm_identity_and_zero():
    n = 12
    eye = DisorderMatrix(math.sqrt(n) * np.eye(n), GAUSSIAN, seed=0)
    assert operator_norm_report(eye, beta=1.0, tol=1e-12).value == pytest.approx(
        1.0, abs=1e-9)
    zero = DisorderMatrix(np.zeros((n, n)), GAUSSIAN, seed=0)
    assert operator_norm_report(zero, beta=1.0, tol=1e-12).value == 0.0


def test_operator_norm_against_dense_svd():
    for n in (3, 8, 17, 33, 64):
        for seed in (0, 1):
            mat = sample_matrix(GAUSSIAN, n, seed=seed)
            report = operator_norm_report(mat, beta=1.3, tol=1e-10)
            oracle = np.linalg.svd(1.3 / math.sqrt(n) * mat.entries,
                                   compute_uv=False)[0]
            assert abs(report.value - oracle) <= 1e-10 * (1 + oracle) * 10
            assert report.lower <= oracle * (1 + 1e-12)
            assert report.upper >= oracle * (1 - 1e-12)


def test_operator_norm_report_brackets_value():
    mat = sample_matrix(RADEMACHER, 40, seed=9)
    rep = operator_norm_report(mat, beta=1.0, tol=1e-8)
    assert rep.lower <= rep.value <= rep.upper
    assert rep.iterations > 0


def test_stacked_norm_reports_equal_one_report_per_matrix(monkeypatch):
    # the zero matrix restarts on lambda = 0, the identity and a rank-1
    # matrix converge at once, and random draws stall and restart or run
    # long enough to finish alone in the scalar loop
    tails = []
    run = disorder._power_run

    def recording(a, v, tol, budget, it=0, *args, **kwargs):
        tails.append(it)
        return run(a, v, tol, budget, it, *args, **kwargs)

    monkeypatch.setattr(disorder, "_power_run", recording)
    for n in (1, 2, 5, 25):
        mats = [np.zeros((n, n)), math.sqrt(n) * np.eye(n),
                np.outer(np.arange(1.0, n + 1), np.ones(n))]
        mats += [sample_matrix(law, n, seed=seed)
                 for seed in range(8) for law in (GAUSSIAN, RADEMACHER)]
        for beta in (1.0, 0.7):
            stacked = operator_norm_reports(mats, beta=beta)
            single = [operator_norm_report(m, beta=beta) for m in mats]
            assert stacked == single
            assert stacked[0].restarted and stacked[0].value == 0.0
    assert any(r.restarted for r in stacked[3:])
    assert len({r.iterations for r in stacked}) > 2
    # some member was handed to the scalar loop part way through its run
    assert any(it > 0 for it in tails)


def test_stacked_norm_cap_names_the_lowest_member_still_running(monkeypatch):
    monkeypatch.setattr(disorder, "_MAX_ITER", 3)
    mats = [np.zeros((6, 6))] + [sample_matrix(GAUSSIAN, 6, seed=s) for s in (1, 2)]
    with pytest.raises(PowerIterationError) as err:
        operator_norm_reports(mats)
    assert err.value.member == 1
    with pytest.raises(PowerIterationError) as alone:
        operator_norm_report(mats[1])
    assert alone.value.member == 0
    assert str(err.value) == str(alone.value)
    assert err.value.best == alone.value.best


def test_lockstep_members_leave_and_restart_on_their_own_passes(monkeypatch):
    # a short stall window makes random draws stall and restart on different
    # passes; the zero matrix restarts on lambda = 0 and a rank-1 matrix
    # finishes at once; the error state is the caller's again afterwards
    monkeypatch.setattr(disorder, "_STALL_STEPS", 15)
    n = 12
    mats = [np.zeros((n, n)), np.outer(np.arange(1.0, n + 1), np.ones(n))]
    mats += [sample_matrix(law, n, seed=seed)
             for seed in range(10) for law in (GAUSSIAN, RADEMACHER)]
    with np.errstate(over="raise"):
        before = np.geterr()
        reports = disorder._lockstep(disorder._as_interaction(mats, 0.7), 1e-10)
        assert np.geterr() == before
        single = [operator_norm_report(m, beta=0.7) for m in mats]
        assert [dataclasses.astuple(r) for r in reports] == [
            dataclasses.astuple(r) for r in single]
        assert reports[0].restarted and reports[0].value == 0.0
        assert not reports[1].restarted
        restarted = {r.iterations for r in reports if r.restarted}
        finished = {r.iterations for r in reports if not r.restarted}
        assert len(restarted) > 3 and len(finished) > 3
        monkeypatch.setattr(disorder, "_MAX_ITER", 2)
        with pytest.raises(PowerIterationError):
            disorder._lockstep(disorder._as_interaction(mats, 0.7), 1e-10)
        assert np.geterr() == before


@pytest.mark.parametrize("n", [1, 5, 25])
def test_norm_reports_over_several_stacks_equal_one_report_per_matrix(
        monkeypatch, n):
    # stacks of _LOCKSTEP_MIN matrices: 19 matrices make stacks of 8, 8 and 3
    monkeypatch.setattr(disorder, "_STACK_BYTES", disorder._LOCKSTEP_MIN * n * n * 8)
    mats = [np.zeros((n, n)), math.sqrt(n) * np.eye(n),
            np.outer(np.arange(1.0, n + 1), np.ones(n))]
    mats += [sample_matrix(law, n, seed=seed)
             for seed in range(8) for law in (GAUSSIAN, RADEMACHER)]
    stacks = []
    lockstep = disorder._lockstep

    def recording(a, tol):
        stacks.append(len(a))
        return lockstep(a, tol)

    monkeypatch.setattr(disorder, "_lockstep", recording)
    stacked = operator_norm_reports(mats, beta=0.7)
    assert stacks == [8, 8, 3]
    single = [operator_norm_report(m, beta=0.7) for m in mats]
    assert [dataclasses.astuple(r) for r in stacked] == [
        dataclasses.astuple(r) for r in single]


@pytest.mark.parametrize("stacked", [True, False])
def test_norm_cap_in_a_later_stack_names_its_index_in_the_list(monkeypatch,
                                                               stacked):
    # the identity converges at step 1, so the first stack of 8 finishes
    # under a 3-step cap and the second stack fails at the list's index 9
    n = 5
    limit = disorder._LOCKSTEP_MIN * n * n * 8
    monkeypatch.setattr(disorder, "_STACK_BYTES", limit if stacked else limit - 1)
    monkeypatch.setattr(disorder, "_MAX_ITER", 3)
    mats = [math.sqrt(n) * np.eye(n)] * 9 + [sample_matrix(GAUSSIAN, n, seed=s)
                                             for s in (1, 2)]
    with pytest.raises(PowerIterationError) as err:
        operator_norm_reports(mats)
    assert err.value.member == 9
    with pytest.raises(PowerIterationError) as alone:
        operator_norm_report(mats[9])
    assert str(err.value) == str(alone.value)


def test_validate_builtins_pass_without_sampling():
    for law in (GAUSSIAN, RADEMACHER):
        report = validate_law(law)
        assert report.passed and not report.empirical_only
        assert report.failures == {}
    report = validate_law(CENTERED_EXPONENTIAL)
    assert report.passed
    assert report.third_abs_moment == pytest.approx(12 / math.e - 2, rel=1e-12)


def test_validate_custom_with_good_declared_moments():
    def sampler(count, gen):
        return gen.standard_normal(count)

    law = CustomSampler("mygauss", sampler, mean=0.0, variance=1.0,
                        third_abs_moment=math.sqrt(8 / math.pi))
    report = validate_law(law, n_draws=200_000, seed=4)
    assert report.passed


def test_validate_custom_catches_wrong_declared_variance():
    def sampler(count, gen):
        return 2.0 * gen.standard_normal(count)

    law = CustomSampler("wide", sampler, mean=0.0, variance=1.0)
    report = validate_law(law, n_draws=200_000, seed=4)
    assert not report.passed
    assert any("variance" in f for f in report.failures)


def test_validate_cauchy_fails_by_divergence():
    def sampler(count, gen):
        return stats.cauchy.rvs(size=count, random_state=gen)

    law = CustomSampler("cauchy", sampler)
    report = validate_law(law, n_draws=400_000, seed=11)
    assert not report.passed
    assert report.empirical_only


def test_validate_overflowing_tail_fails_without_warnings():
    # pareto(0.002) draws overflow to inf, in scipy's sampler and in every moment
    law = CustomSampler("pareto", lambda count, gen: stats.pareto.rvs(
        0.002, size=count, random_state=gen))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = validate_law(law, n_draws=200_000, seed=4)
    assert not report.passed
    assert set(report.failures) == {"mean-zero", "unit-variance"}


def test_condition_diagnostics_rademacher():
    diag = condition_diagnostics(RADEMACHER, 100, gamma=2.25, eps=1.0,
                                 seeds=(0, 1))
    # sup log cosh(theta)/theta^2 <= 1/2, approached at theta -> 0
    assert diag.mgf_sup <= 0.5 + 1e-12
    assert diag.third_moment_scaled == pytest.approx(100 ** (-0.25), rel=1e-12)


def test_condition_diagnostics_gaussian_mgf_exact_half():
    diag = condition_diagnostics(GAUSSIAN, 10, eps=1.0, seeds=(0,))
    assert diag.mgf_sup == pytest.approx(0.5, rel=1e-12)


def test_condition_diagnostics_third_moment_decreasing_in_n():
    vals = [
        condition_diagnostics(RADEMACHER, n, gamma=2.25, seeds=(0,)).third_moment_scaled
        for n in (10, 40, 160)
    ]
    assert vals[0] > vals[1] > vals[2]


def test_condition_diagnostics_rejects_bad_gamma():
    with pytest.raises(ValueError):
        condition_diagnostics(RADEMACHER, 10, gamma=2.6)
    with pytest.raises(ValueError):
        condition_diagnostics(RADEMACHER, 10, gamma=1.9)


def test_custom_sampler_missing_mgf_marked_unavailable():
    def sampler(count, gen):
        return gen.uniform(-1.8, 1.8, count)

    law = CustomSampler("u", sampler, mean=0.0, variance=1.08)
    diag = condition_diagnostics(law, 10, seeds=(0,))
    assert diag.mgf_sup is None
