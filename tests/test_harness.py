"""Harness contracts: persistence layout, determinism, replay, CLI exits."""

import hashlib
import json
import math

import numpy as np
import pytest

from spinlab import harness
from spinlab.cli import _COMMANDS, main
from spinlab.config import ConfigError, load_config
from spinlab.dynamics import SafeguardError
from spinlab.harness import (
    NumericalFailure,
    replay,
    run_freeze_sweep,
    run_lindeberg_suite,
    run_simulate,
    run_universality,
    run_validation,
)


def _small(**kw):
    base = dict(
        n_particles=6,
        beta=0.5,
        horizon=0.5,
        kappa=2,
        substeps=2,
        laws=["gaussian", "rademacher"],
        replicas=3,
        n_sweep=[4, 6],
        kappa_sweep=[2, 4],
        thermal_samples=1,
        phi_replicas=2,
        freeze_replicas=2,
        norm_samples=2,
        bootstrap_resamples=16,
        lindeberg_instances=3,
        gaussian_check_instances=1,
        gaussian_check_samples=2000,
        master_seed=7,
    )
    base.update(kw)
    return load_config(overrides=base)


def _lines(path):
    return path.read_text().splitlines()


# ---------------------------------------------------------------------------
# universality outputs


def test_universality_layout_and_row_invariant(tmp_path):
    cfg = _small()
    summary = run_universality(cfg, out_dir=tmp_path)
    for name in ("config.json", "summary.json", "autocorr.csv", "gaps.csv",
                 "norms.csv"):
        assert (tmp_path / name).exists(), name

    lines = _lines(tmp_path / "autocorr.csv")
    assert lines[0] == "law,N,replica_count,t,mean,stderr"
    grid_points = cfg.total_steps() + 1
    assert len(lines) - 1 == len(cfg.laws) * len(cfg.n_sweep) * grid_points

    gap_lines = _lines(tmp_path / "gaps.csv")
    assert gap_lines[0] == "law,N,sup_gap,w2_surrogate,noise_floor"
    assert len(gap_lines) - 1 == (len(cfg.laws) - 1) * len(cfg.n_sweep)

    stored = json.loads((tmp_path / "summary.json").read_text())
    assert stored["config_hash"] == cfg.config_hash()
    assert stored["master_seed"] == cfg.master_seed
    assert "schemes" in stored["seed_provenance"]
    assert summary.gaps and all(g["sup_gap"] >= 0 for g in summary.gaps)
    # one tilt median per (law, N)
    assert len(summary.phi_medians) == len(cfg.laws) * len(cfg.n_sweep)


def test_universality_requires_gaussian_reference(tmp_path):
    cfg = _small(laws=["rademacher", "cexp"])
    with pytest.raises(ConfigError, match="gaussian"):
        run_universality(cfg, out_dir=tmp_path)


def test_universality_rejects_single_law(tmp_path):
    cfg = _small(laws=["gaussian"])
    with pytest.raises(ConfigError, match="two laws"):
        run_universality(cfg, out_dir=tmp_path)


def test_repeated_law_control_has_suffixed_label(tmp_path):
    cfg = _small(laws=["gaussian", "gaussian"])
    summary = run_universality(cfg, out_dir=tmp_path)
    assert {g["law"] for g in summary.gaps} == {"gaussian@2"}


# ---------------------------------------------------------------------------
# determinism


def test_csvs_byte_identical_across_thread_counts(tmp_path):
    cfg = _small()
    run_universality(cfg, threads=1, out_dir=tmp_path / "t1")
    run_universality(cfg, threads=8, out_dir=tmp_path / "t8")
    for name in ("autocorr.csv", "gaps.csv", "norms.csv"):
        assert (tmp_path / "t1" / name).read_bytes() == \
            (tmp_path / "t8" / name).read_bytes(), name


def test_rerun_reproduces_bytes(tmp_path):
    cfg = _small()
    run_simulate(cfg, out_dir=tmp_path / "a")
    run_simulate(cfg, out_dir=tmp_path / "b")
    for name in ("autocorr.csv", "norms.csv", "config.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def test_seed_changes_outputs(tmp_path):
    run_simulate(_small(), out_dir=tmp_path / "a")
    run_simulate(_small(master_seed=8), out_dir=tmp_path / "c")
    assert (tmp_path / "a" / "autocorr.csv").read_bytes() != \
        (tmp_path / "c" / "autocorr.csv").read_bytes()


_GOLDEN = {
    "universality": {
        "autocorr.csv": "cae441abdd42e17546d6986f9ea156c5b459743b0ad98b25f3821891f8055c3f",
        "gaps.csv": "780e08644700514840ea87ab1484d76143d2624c754e3cc508140badb53a1d5a",
        "norms.csv": "ca523ca94a45840027daaaa90c3a83b973f538c54f402ef48e47a7d9ff3317ff",
        "paths/": "c62e7e85788ef5f1a4830cf609376406fc14491144962a2020c2b8ff07e7bd4b",
    },
    "freeze-sweep": {
        "freeze.csv": "f2f867a98b4334547d499794e7b4c70faeec51cb3c360fdc3f91c0df246e1da9",
        "norms.csv": "03ae99a04944fa93d03f4e4387aab9e20668cf24ada8590bab05f8b69ce194ba",
        "paths/": "53efd5fb983d0c6dc8604e36720dea91893d1f10b7ca22fcff97209b4ab2687a",
    },
    "validate": {
        "norms.csv": "20c3d607e3fc86cf40b9016dff0bbd929eacffda4cd214903f2b771e33cfd3bd",
    },
    "lindeberg": {
        "lindeberg.csv": "c795afb725cdfadd3d2e2a17c9c5cac1c961ccf3c37715a374db6f755caf8860",
    },
    "simulate": {
        "autocorr.csv": "311f715d7de6dc0a6b19a477ff689eaf973f5629c0e807521f8e4e6b0248a410",
        "norms.csv": "f89ded9d2b116b4232ba531cb6e3e70abdc0d1b53e2a29f191ae27251389a3d2",
        "paths/": "417ea715cdcde82da33be762fe376647bac85f99364bb96dbbd7c1c8aa29b15c",
    },
}


@pytest.mark.parametrize("command", sorted(_GOLDEN))
def test_outputs_match_golden_digests(tmp_path, command):
    """Every CSV, and the sorted stored-path names, hash to recorded bytes.

    The digests pin the output of ``_small()`` with ``store_paths=True``.
    A change that alters output bytes on purpose re-records them and says
    so in CHANGES.md; any other change must leave them untouched.
    """
    _COMMANDS[command](_small(), store_paths=True, out_dir=tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.glob("*.csv"))}
    names = sorted(p.name for p in tmp_path.glob("paths/*"))
    if names:
        digests["paths/"] = hashlib.sha256("\n".join(names).encode()).hexdigest()
    assert digests == _GOLDEN[command]


# ---------------------------------------------------------------------------
# freeze sweep


def test_freeze_sweep_rows_and_schema(tmp_path):
    cfg = _small()
    summary = run_freeze_sweep(cfg, out_dir=tmp_path)
    lines = _lines(tmp_path / "freeze.csv")
    assert lines[0] == "kappa,N,msd_mean,msd_stderr,envelope_violations"
    assert len(lines) - 1 == len(cfg.kappa_sweep)
    assert [f["kappa"] for f in summary.freeze] == list(cfg.kappa_sweep)
    assert all(f["msd_mean"] >= 0 for f in summary.freeze)


def test_freeze_sweep_rejects_non_dividing_kappa(tmp_path):
    cfg = _small(kappa_sweep=[3])  # total grid is 4
    with pytest.raises(ConfigError, match="does not divide"):
        run_freeze_sweep(cfg, out_dir=tmp_path)


# ---------------------------------------------------------------------------
# validation


def test_validation_builtin_laws_pass_deterministically(tmp_path):
    cfg = _small(n_particles=64)
    summary = run_validation(cfg, out_dir=tmp_path)
    rows = {(r["law"], r["check"]): r["status"] for r in summary.validation}
    for label in ("gaussian", "rademacher"):
        assert rows[(label, "mean-zero")] == "PASS"
        assert rows[(label, "unit-variance")] == "PASS"
        assert rows[(label, "finite-exponential-moment")] == "PASS"
        assert rows[(label, "mgf-bounded")] == "TREND"
    stored = json.loads((tmp_path / "summary.json").read_text())
    assert any(r["check"] == "mean-zero" for r in stored["validation"])
    # norm samples recorded once per (law, k)
    assert len(summary.norms) == len(cfg.laws) * cfg.norm_samples


def test_validation_flags_heavy_tailed_custom_law(tmp_path):
    law_path = tmp_path / "heavy.json"
    law_path.write_text(json.dumps({"name": "heavy", "distribution": "cauchy"}))
    cfg = _small(laws=["gaussian", f"custom:{law_path}"])
    summary = run_validation(cfg, out_dir=tmp_path / "out")
    heavy = [r for r in summary.validation if r["law"] == "heavy"]
    status = {r["check"]: r["status"] for r in heavy}
    assert status["unit-variance"] == "FAIL"
    assert status["mean-zero"] == "FAIL"
    assert status["norm-concentration"].startswith("SKIPPED")


# ---------------------------------------------------------------------------
# comparison suite


def test_lindeberg_suite_writes_certificate_rows(tmp_path):
    cfg = _small()
    summary = run_lindeberg_suite(cfg, out_dir=tmp_path)
    lines = _lines(tmp_path / "lindeberg.csv")
    assert lines[0] == ("kind,instance,seed,kappa,n,value,reference,"
                        "spread,passed")
    assert len(lines) - 1 == (cfg.lindeberg_instances
                              + cfg.gaussian_check_instances)
    lb = summary.lindeberg
    assert lb["certificate_pass"] == cfg.lindeberg_instances
    assert lb["gaussian_mc_pass"] == cfg.gaussian_check_instances
    assert 0 <= lb["worst_slack_ratio"] <= 1


# ---------------------------------------------------------------------------
# replay


def test_replay_matches_stored_trajectory(tmp_path):
    cfg = _small()
    run_simulate(cfg, store_paths=True, out_dir=tmp_path)
    result = replay(tmp_path, "rademacher", replica=1)
    assert result["matches_stored"] is True
    assert len(result["fingerprint"]) == 64
    assert result["values"].shape == (cfg.n_particles, cfg.total_steps() + 1)


def test_replay_without_stored_paths_reports_fingerprint_only(tmp_path):
    cfg = _small()
    run_simulate(cfg, out_dir=tmp_path)
    result = replay(tmp_path, "gaussian", replica=0, particle=2)
    assert result["matches_stored"] is None
    assert result["particle_values"].shape == (cfg.total_steps() + 1,)


def test_replay_is_deterministic(tmp_path):
    cfg = _small()
    run_simulate(cfg, out_dir=tmp_path)
    a = replay(tmp_path, "gaussian", replica=2)
    b = replay(tmp_path, "gaussian", replica=2)
    assert a["fingerprint"] == b["fingerprint"]
    assert np.array_equal(a["values"], b["values"])


def test_replay_detects_config_tamper(tmp_path):
    cfg = _small()
    run_simulate(cfg, out_dir=tmp_path)
    doc = json.loads((tmp_path / "config.json").read_text())
    doc["master_seed"] = doc["master_seed"] + 1
    (tmp_path / "config.json").write_text(json.dumps(doc))
    with pytest.raises(NumericalFailure, match="config hash mismatch"):
        replay(tmp_path, "gaussian", replica=0)


def test_replay_rejects_unknown_law_and_bad_indices(tmp_path):
    cfg = _small()
    run_simulate(cfg, out_dir=tmp_path)
    with pytest.raises(ConfigError, match="not in this run"):
        replay(tmp_path, "cexp", replica=0)
    with pytest.raises(ConfigError, match="out of range"):
        replay(tmp_path, "gaussian", replica=10**6)
    with pytest.raises(ConfigError, match="out of range"):
        replay(tmp_path, "gaussian", replica=0, particle=99)


def test_replay_missing_directory(tmp_path):
    with pytest.raises(ConfigError, match="cannot read run directory"):
        replay(tmp_path / "nope", "gaussian", replica=0)


def test_replay_universality_path_at_swept_size(tmp_path):
    # a repeated law (gaussian@2) at an n_sweep size other than n_particles,
    # with two thermal samples so stored sample 0 sits at replica * 2
    cfg = _small(laws=["gaussian", "rademacher", "gaussian"],
                 thermal_samples=2)
    run_universality(cfg, store_paths=True, out_dir=tmp_path)
    assert cfg.n_sweep[0] != cfg.n_particles
    result = replay(tmp_path, "gaussian@2", replica=2, n=cfg.n_sweep[0])
    assert result["stored_path"].endswith("paths/gaussian@2_N4_rep2.npy")
    assert result["matches_stored"] is True


def test_freeze_sweep_stored_path_names(tmp_path):
    cfg = _small()
    run_freeze_sweep(cfg, store_paths=True, out_dir=tmp_path)
    names = {p.name for p in (tmp_path / "paths").iterdir()}
    assert len(names) == 2 * len(cfg.kappa_sweep) * cfg.freeze_replicas
    assert names == {
        f"gaussian_k{kappa}_rep{rep}_{kind}.npy"
        for kappa in cfg.kappa_sweep
        for rep in range(cfg.freeze_replicas)
        for kind in ("full", "frozen")
    }


def test_replay_replica_bound_follows_the_command(tmp_path):
    cfg = _small(freeze_replicas=5)
    run_universality(cfg, out_dir=tmp_path / "uni")
    replay(tmp_path / "uni", "gaussian", replica=cfg.replicas - 1)
    with pytest.raises(ConfigError, match="out of range"):
        replay(tmp_path / "uni", "gaussian", replica=cfg.replicas)
    run_freeze_sweep(cfg, out_dir=tmp_path / "freeze")
    replay(tmp_path / "freeze", "gaussian", replica=cfg.freeze_replicas - 1)
    with pytest.raises(ConfigError, match="out of range"):
        replay(tmp_path / "freeze", "gaussian", replica=cfg.freeze_replicas)


# ---------------------------------------------------------------------------
# CLI


def _write_cfg(tmp_path, **kw):
    cfg = _small(**kw)
    doc = cfg.as_dict()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_validate_exit_zero(tmp_path, capsys):
    path = _write_cfg(tmp_path, laws=["gaussian"], n_particles=16)
    code = main(["validate", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "check law=gaussian mean-zero: PASS" in out
    assert (tmp_path / "out" / "summary.json").exists()


def test_cli_unknown_config_key_exit_one(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"bogus_key": 1}))
    code = main(["validate", "--config", str(path)])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_cli_bad_env_seed_exit_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPINLAB_SEED", "not-a-number")
    path = _write_cfg(tmp_path, laws=["gaussian"], n_particles=16)
    code = main(["validate", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "SPINLAB_SEED" in capsys.readouterr().err


def test_cli_seed_precedence(tmp_path, monkeypatch):
    path = _write_cfg(tmp_path, laws=["gaussian"], n_particles=16,
                      master_seed=5)

    def run(tag, argv):
        out = tmp_path / tag
        assert main(argv + ["--out", str(out)]) == 0
        return json.loads((out / "summary.json").read_text())["master_seed"]

    base = ["validate", "--config", str(path)]
    assert run("cfgonly", base) == 5
    monkeypatch.setenv("SPINLAB_SEED", "9")
    assert run("env", base) == 9
    assert run("flag", base + ["--seed", "11"]) == 11


def test_cli_rejects_oversized_seed(tmp_path, capsys):
    path = _write_cfg(tmp_path, laws=["gaussian"], n_particles=16)
    code = main(["validate", "--config", str(path),
                 "--seed", str(1 << 64)])
    assert code == 1
    assert "64 bits" in capsys.readouterr().err


def test_cli_bad_threads_exit_one(tmp_path, capsys):
    path = _write_cfg(tmp_path, laws=["gaussian"], n_particles=16)
    code = main(["validate", "--config", str(path), "--threads", "0"])
    assert code == 1


def test_cli_usage_error_exit_one():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 1


def test_cli_replay_mismatch_exit_two(tmp_path, capsys):
    cfg = _small()
    run_simulate(cfg, out_dir=tmp_path / "run")
    doc = json.loads((tmp_path / "run" / "config.json").read_text())
    doc["master_seed"] += 1
    (tmp_path / "run" / "config.json").write_text(json.dumps(doc))
    code = main(["replay", str(tmp_path / "run"),
                 "--law", "gaussian", "--replica", "0"])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_cli_safeguard_failure_exit_two_with_context(tmp_path, capsys,
                                                    monkeypatch):
    def boom(*args, **kwargs):
        raise SafeguardError(1, 2, 3.0, "forced")

    monkeypatch.setattr(harness, "simulate_full", boom)
    path = _write_cfg(tmp_path)
    code = main(["simulate", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "law=gaussian, N=6, replica=0" in err


def test_cli_replay_round_trip(tmp_path, capsys):
    cfg = _small()
    run_simulate(cfg, store_paths=True, out_dir=tmp_path / "run")
    code = main(["replay", str(tmp_path / "run"),
                 "--law", "gaussian", "--replica", "1", "--particle", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "matches stored trajectory: True" in out
    assert "fingerprint:" in out
