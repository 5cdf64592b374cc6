"""End-to-end acceptance checks at the shipped default configuration.

Each criterion prints exactly one PASS/FAIL line (run with ``pytest -s``
to see them on a green suite; captured output is shown on failure anyway).
Expensive runs are shared: the universality sweep feeds criteria 4 and 7.
Criterion 8 runs the freeze sweep through the CLI, where ``--threads``
lives.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from spinlab.cli import main
from spinlab.config import load_config
from spinlab.disorder import (
    GAUSSIAN,
    RADEMACHER,
    operator_norm_report,
    sample_matrix,
)
from spinlab.dynamics import simulate_full
from spinlab.harness import run_freeze_sweep, run_universality
from spinlab.lindeberg import certificate_suite, gaussian_mc_check
from spinlab.model import InitialLaw, ModelParams, double_well
from spinlab.streams import derive_seed


def _report(num: int, label: str, ok: bool, detail: str) -> bool:
    print(f"criterion {num} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})",
          flush=True)
    return ok


@pytest.fixture(scope="session")
def default_cfg():
    return load_config()


@pytest.fixture(scope="session")
def universality_run(default_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("universality")
    t0 = time.perf_counter()
    summary = run_universality(default_cfg, out_dir=out)
    return summary, time.perf_counter() - t0


@pytest.fixture(scope="session")
def freeze_run(default_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("freeze")
    t0 = time.perf_counter()
    summary = run_freeze_sweep(default_cfg, out_dir=out)
    return summary, time.perf_counter() - t0


@pytest.mark.slow
def test_criterion_1_comparison_certificate(default_cfg):
    t0 = time.perf_counter()
    rows = certificate_suite(
        n_instances=default_cfg.lindeberg_instances,
        master_seed=default_cfg.master_seed,
        beta=default_cfg.beta,
        horizon=default_cfg.horizon,
        s_bound=default_cfg.s_bound,
    )
    dt = time.perf_counter() - t0
    n_pass = sum(r.passed for r in rows)
    worst = max(r.abs_diff - r.bound for r in rows)
    ok = n_pass == len(rows) == 500 and worst <= 1e-10 and dt < 60
    assert _report(
        1, "two-route comparison bound", ok,
        f"{n_pass}/{len(rows)} instances, worst |diff|-bound "
        f"{worst:.2e} <= 1e-10, {dt:.1f}s < 60s",
    )


@pytest.mark.slow
def test_criterion_2_gaussian_identity_mc(default_cfg):
    t0 = time.perf_counter()
    rows = gaussian_mc_check(
        n_instances=default_cfg.gaussian_check_instances,
        n_samples=default_cfg.gaussian_check_samples,
        master_seed=default_cfg.master_seed,
        beta=default_cfg.beta,
        horizon=default_cfg.horizon,
        s_bound=default_cfg.s_bound,
    )
    dt = time.perf_counter() - t0
    worst_z = max(r.z_score for r in rows)
    ok = (
        len(rows) == 50
        and all(r.passed for r in rows)
        and all(r.lower_ok for r in rows)
        and worst_z <= 4.0
        and dt < 120
    )
    assert _report(
        2, "closed form vs Monte Carlo", ok,
        f"{sum(r.passed for r in rows)}/{len(rows)} instances, worst |z| "
        f"{worst_z:.2f} <= 4, determinant lower bound held, {dt:.1f}s < 120s",
    )


def test_criterion_3_stationary_density():
    t0 = time.perf_counter()
    s = 2.0
    potential = double_well(s)
    # 10 time units of burn-in plus 10^5 retained samples at spacing 0.1
    params = ModelParams(1, 0.0, s, 10010.0, 1001, 1000,
                         derive_seed(31416, "stationarity"))
    # beta = 0: the one particle ignores its matrix
    mat = sample_matrix(GAUSSIAN, 1, seed=0)
    ens = simulate_full(params, potential, mat, InitialLaw("point", 1.0, s), replica=0)
    samples = np.sort(ens.values[0, 1010::10])
    assert samples.size == 100_000

    xs = np.linspace(-s + 1e-9, s - 1e-9, 8001)
    cdf = cumulative_trapezoid(np.exp(-2.0 * potential.u1(xs)), xs,
                               initial=0.0)
    cdf /= cdf[-1]
    f = np.interp(samples, xs, cdf)
    i = np.arange(1, samples.size + 1)
    ks = max(float((i / samples.size - f).max()),
             float((f - (i - 1) / samples.size).max()))
    dt = time.perf_counter() - t0
    ok = ks < 0.03 and dt < 60
    assert _report(
        3, "interaction-free stationarity", ok,
        f"KS {ks:.4f} < 0.03 on {samples.size} samples, {dt:.1f}s < 60s",
    )


@pytest.mark.slow
def test_criterion_4_universality_gap_decay(default_cfg, universality_run):
    summary, dt = universality_run
    rad = [g for g in summary.gaps if g["law"] == "rademacher"]
    ctrl = [g for g in summary.gaps if g["law"] == "gaussian@2"]
    assert [g["n"] for g in rad] == list(default_cfg.n_sweep)

    gaps = [g["sup_gap"] for g in rad]
    errs = [g["sup_gap_stderr"] for g in rad]
    decreasing = all(
        gaps[i + 1] < gaps[i] + math.hypot(errs[i], errs[i + 1])
        for i in range(len(gaps) - 1)
    )
    halved = gaps[-1] < gaps[0] / 2
    control_at_floor = all(g["sup_gap"] <= g["noise_floor"] for g in ctrl)
    ok = decreasing and halved and control_at_floor and dt < 3600
    assert _report(
        4, "entry-law universality", ok,
        f"gaps {['%.4f' % g for g in gaps]} decreasing within error, "
        f"gap(200)={gaps[-1]:.4f} < gap(25)/2={gaps[0] / 2:.4f}, "
        f"control <= floor at every N, {dt:.0f}s",
    )


@pytest.mark.slow
def test_criterion_5_freeze_refinement(default_cfg, freeze_run):
    summary, dt = freeze_run
    kappas = [f["kappa"] for f in summary.freeze]
    assert kappas == list(default_cfg.kappa_sweep)
    msd = [f["msd_mean"] for f in summary.freeze]
    err = [f["msd_stderr"] for f in summary.freeze]
    nonincreasing = all(
        msd[i + 1] <= msd[i] + math.hypot(err[i], err[i + 1])
        for i in range(len(msd) - 1)
    )
    halved = msd[-1] <= msd[0] / 2
    violations = sum(f["envelope_violations"] for f in summary.freeze)
    ok = nonincreasing and halved and violations == 0 and dt < 1800
    assert _report(
        5, "frozen-scheme convergence", ok,
        f"msd {['%.2e' % m for m in msd]} nonincreasing, "
        f"msd(40) <= msd(5)/2, envelope violations {violations} == 0, "
        f"{dt:.0f}s < 1800s",
    )


@pytest.mark.slow
def test_criterion_6_operator_norm_band(default_cfg):
    t0 = time.perf_counter()
    values = {}
    for law in (GAUSSIAN, RADEMACHER):
        vals = []
        for k in range(20):
            seed = derive_seed(default_cfg.master_seed, "norm-sample",
                               law.name, 400, k)
            report = operator_norm_report(sample_matrix(law, 400, seed),
                                          beta=1.0)
            vals.append(report.value)
        values[law.name] = (min(vals), max(vals))
    in_band = all(1.8 <= lo and hi <= 2.3 for lo, hi in values.values())

    worst_rel = 0.0
    for law in (GAUSSIAN, RADEMACHER):
        for n in (8, 16, 32, 64):
            for k in range(3):
                seed = derive_seed(default_cfg.master_seed, "norm-oracle",
                                   law.name, n, k)
                mat = sample_matrix(law, n, seed)
                pi = operator_norm_report(mat, beta=1.0, tol=1e-10).value
                dense = float(np.linalg.norm(mat.entries, 2)) / math.sqrt(n)
                worst_rel = max(worst_rel, abs(pi - dense) / dense)
    dt = time.perf_counter() - t0
    ok = in_band and worst_rel <= 1e-6 and dt < 300
    spans = ", ".join(f"{k} [{lo:.3f}, {hi:.3f}]"
                      for k, (lo, hi) in values.items())
    assert _report(
        6, "scaled norm concentration", ok,
        f"N=400 spans {spans} within [1.8, 2.3]; power iteration vs dense "
        f"SVD worst rel {worst_rel:.1e} <= 1e-6; {dt:.1f}s < 300s",
    )


@pytest.mark.slow
def test_criterion_7_tilt_statistic_decay(default_cfg, universality_run):
    summary, _ = universality_run
    med = {p["n"]: p["phi_median"] for p in summary.phi_medians
           if p["law"] == "rademacher"}
    vals = [med[n] for n in default_cfg.n_sweep]
    ok = all(b < a for a, b in zip(vals, vals[1:]))
    assert _report(
        7, "change-of-measure tilt decay", ok,
        f"median tilt {['%.3f' % v for v in vals]} strictly decreasing "
        f"over N={list(default_cfg.n_sweep)}",
    )


@pytest.mark.slow
def test_criterion_8_thread_count_determinism(tmp_path):
    # both runs write to the same --out (the first is moved aside), so
    # config.json records the same output_dir on both sides
    out, ref_dir = tmp_path / "freeze", tmp_path / "freeze-t1"
    assert main(["freeze-sweep", "--threads", "1", "--out", str(out)]) == 0
    out.rename(ref_dir)
    t0 = time.perf_counter()
    assert main(["freeze-sweep", "--threads", "8", "--out", str(out)]) == 0
    dt = time.perf_counter() - t0
    same = {
        name: (ref_dir / name).read_bytes() == (out / name).read_bytes()
        for name in ("freeze.csv", "norms.csv", "config.json")
    }
    ok = all(same.values()) and dt < 300
    assert _report(
        8, "worker-count determinism", ok,
        f"freeze sweep at 1 vs 8 threads byte-identical: {same}, "
        f"{dt:.0f}s < 300s",
    )
