"""Harness contracts: persistence layout, determinism, replay, CLI exits."""

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinlab
from spinlab import config, disorder, dynamics, harness, lindeberg
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
from spinlab.model import ModelParams, PathEnsemble, double_well, grid_times
from spinlab.observables import girsanov_stats


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


def test_universality_draws_and_prepares_each_run_once(tmp_path, monkeypatch):
    # 2 laws x 2 sizes x 3 replicas; the tilt runs reuse the first
    # phi_replicas draws and their sample-0 noise, each replica is prepared
    # once, and at each N one block holds every replica: one full and one
    # frozen stack
    draws = _count_calls(monkeypatch, harness, "sample_matrix")
    calls = _count_calls(monkeypatch, dynamics, "_prepare", "_integrate")
    run_universality(_small(), out_dir=tmp_path)
    assert draws == {"sample_matrix": 12}
    assert calls == {"_prepare": 6, "_integrate": 4}


def test_simulate_prepares_each_replica_once(tmp_path, monkeypatch):
    # 2 laws x 3 replicas, one thermal sample, one block
    draws = _count_calls(monkeypatch, harness, "sample_matrix")
    calls = _count_calls(monkeypatch, dynamics, "_prepare", "_integrate")
    run_simulate(_small(), out_dir=tmp_path)
    assert draws == {"sample_matrix": 6}
    assert calls == {"_prepare": 3, "_integrate": 1}


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
    path = _write_cfg(tmp_path)
    for threads in ("1", "8"):
        assert main(["universality", "--config", str(path), "--threads", threads,
                     "--out", str(tmp_path / f"t{threads}")]) == 0
    for name in ("autocorr.csv", "gaps.csv", "norms.csv"):
        assert (tmp_path / "t1" / name).read_bytes() == \
            (tmp_path / "t8" / name).read_bytes(), name


# Runs every command in one fresh interpreter, whose OpenBLAS thread count
# was set before numpy loaded, and prints the count OpenBLAS reports.
_BLAS_PROBE = """
import ctypes, glob, os, sys
import numpy as np
from spinlab.cli import main

cfg, out = sys.argv[1], sys.argv[2]
for command in ("validate", "universality", "simulate", "freeze-sweep", "lindeberg"):
    assert main([command, "--config", cfg, "--out", out + "/" + command, "--store-paths"]) == 0
libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                              "libscipy_openblas*"))
count = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None) if libs else None
print(count() if count else "unknown")
"""


def test_outputs_byte_identical_across_blas_thread_counts(tmp_path):
    """Every digest of every command is the same with OpenBLAS on one
    thread and on two, each set before numpy loads (the count is checked
    where numpy's bundled OpenBLAS reports it)."""
    path = _write_cfg(tmp_path)
    src = str(Path(spinlab.__file__).resolve().parents[1])
    digests = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _BLAS_PROBE, str(path),
                               str(tmp_path / threads)], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        # OpenBLAS runs at most one thread per core
        expected = str(min(int(threads), os.cpu_count() or 1))
        assert proc.stdout.splitlines()[-1] in (expected, "unknown")
        digests[threads] = {command: _digests(tmp_path / threads / command)
                            for command in _COMMANDS}
    assert digests["1"] == digests["2"]


# ways to grow _small()'s run: each keeps every draw of the smaller run
_GROWTHS = {
    "replicas": dict(replicas=5),
    "n_sweep": dict(n_sweep=[4, 6, 8]),
    "third-law": dict(laws=["gaussian", "rademacher", "cexp"]),
    "freeze-replicas": dict(freeze_replicas=4),
    "extra-kappa": dict(kappa_sweep=[2, 4, 1]),
}


def _stored(cfg) -> dict:
    """Stored paths (name -> bytes) and norms.csv rows ((law, N, replica)
    -> row) of universality, freeze-sweep and simulate runs of ``cfg``."""
    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command in ("universality", "freeze-sweep", "simulate"):
            run_dir = Path(tmp) / command
            _COMMANDS[command](cfg, store_paths=True, out_dir=run_dir)
            for path in run_dir.glob("paths/*.npy"):
                found[command, path.name] = path.read_bytes()
            for row in _lines(run_dir / "norms.csv")[1:]:
                found[(command, *row.split(",")[:3])] = row
    return found


@functools.cache
def _small_stored() -> dict:
    return _stored(_small())


@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(growths=st.sets(st.sampled_from(sorted(_GROWTHS)), min_size=1))
def test_stored_paths_and_norm_rows_do_not_depend_on_the_run_size(growths):
    base = _small_stored()
    grown = _stored(_small(**{k: v for g in growths for k, v in _GROWTHS[g].items()}))
    assert len(grown) > len(base)
    assert [key for key, value in base.items() if grown.get(key) != value] == []


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
        "paths/*.npy": "cbe98e35ef41b02bf45225aa734ef9cdfd6ecf0f67acd4200ce0628340ff0dfe",
        "summary.json": "be906f780debb2a99e34a88972b4f1aa7e273df74ec1db2effed8d3d45f6a1bd",
    },
    "universality-tilt-past-replicas": {
        "autocorr.csv": "2c525d70cd5686efe911a9591e1d59a16975e626143bca4cbb3236e307c8a5b0",
        "gaps.csv": "6aa80e32f2e144cfe47d9af38cc395a4b37868d9e31d3576dae9c1676348f4eb",
        "norms.csv": "ca523ca94a45840027daaaa90c3a83b973f538c54f402ef48e47a7d9ff3317ff",
        "paths/": "c62e7e85788ef5f1a4830cf609376406fc14491144962a2020c2b8ff07e7bd4b",
        "paths/*.npy": "84cd0207d7ba14ea1890e7f25d1e3680f85f237d5edff79db92fe20bde6efbd3",
        "summary.json": "c8b5bc9efc59a6b27c059342b43d60b3d40a2a8153e83b8ac90bfdeada4743ad",
    },
    "freeze-sweep": {
        "freeze.csv": "f2f867a98b4334547d499794e7b4c70faeec51cb3c360fdc3f91c0df246e1da9",
        "norms.csv": "03ae99a04944fa93d03f4e4387aab9e20668cf24ada8590bab05f8b69ce194ba",
        "paths/": "53efd5fb983d0c6dc8604e36720dea91893d1f10b7ca22fcff97209b4ab2687a",
        "paths/*.npy": "5c980e5d3d86136a3ccfe1a25ff8deed67447d0fd4809a208649ebc62de7e1ef",
        "summary.json": "a22682f27243e856dcf30a6c91151fb12478a1dddbfa05f103a46f87f3718ee0",
    },
    "freeze-sweep-three-replicas": {
        "freeze.csv": "a33ff176ca7ff4f4a84e18d578f453541be52bc4bb7f1d1c7eed8664acf3f862",
        "norms.csv": "e7b5f770f25a7a9d5a174f6656e45d6fcbaf82d2d1ed1e3aa7a6e268cc2f694a",
        "paths/": "3e1cef6533e296389a82b025799ce15cf539ae104b29073efcb45d259222f100",
        "paths/*.npy": "1f8f076b675c950fafd8c6a270c914da366763c23c61e19c18a73c19b7b31e1e",
        "summary.json": "048ccf285f6227bbe75f6d9801d49e10125d54292b4774e48b66fd76ae5255cf",
    },
    "validate": {
        "norms.csv": "20c3d607e3fc86cf40b9016dff0bbd929eacffda4cd214903f2b771e33cfd3bd",
        "summary.json": "69cfaa1f0632e9a8a92b0541f07c44392c61ac2f23245000c32a362e18778c4e",
    },
    "lindeberg": {
        "lindeberg.csv": "c795afb725cdfadd3d2e2a17c9c5cac1c961ccf3c37715a374db6f755caf8860",
        "summary.json": "7f9f888abdc0e3d7dd35d154bd76c15eb0cc842b1cefbd8ff8b30af72b6f1977",
    },
    "simulate": {
        "autocorr.csv": "311f715d7de6dc0a6b19a477ff689eaf973f5629c0e807521f8e4e6b0248a410",
        "norms.csv": "f89ded9d2b116b4232ba531cb6e3e70abdc0d1b53e2a29f191ae27251389a3d2",
        "paths/": "417ea715cdcde82da33be762fe376647bac85f99364bb96dbbd7c1c8aa29b15c",
        "paths/*.npy": "fa47593973bfd22a4f5a52672d6d6649a8e875e368d16a16efda1b6e313a05a3",
        "summary.json": "d78a94ea58dfddc648aabc18401623a2c9251197810c2dd35df37c33211a2e75",
    },
}


# golden cases other than one per command at _small(): (command, overrides)
_GOLDEN_CASES = {
    "universality-tilt-past-replicas":
        ("universality", dict(phi_replicas=5, thermal_samples=2)),
    "freeze-sweep-three-replicas": ("freeze-sweep", dict(freeze_replicas=3)),
}


def _digests(run_dir: Path) -> dict:
    """sha256 of every CSV, of ``summary.json`` as sorted-key JSON without
    its timestamp and wall clock, and of the sorted stored-path names and
    their contents."""
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(run_dir.glob("*.csv"))}
    summary = json.loads((run_dir / "summary.json").read_text())
    for key in ("timestamp", "wall_clock_seconds"):
        del summary[key]
    digests["summary.json"] = hashlib.sha256(
        json.dumps(summary, sort_keys=True).encode()).hexdigest()
    names = sorted(p.name for p in run_dir.glob("paths/*"))
    if names:
        digests["paths/"] = hashlib.sha256("\n".join(names).encode()).hexdigest()
        contents = hashlib.sha256()
        for path in sorted(run_dir.glob("paths/*.npy")):
            contents.update(path.read_bytes())
        digests["paths/*.npy"] = contents.hexdigest()
    return digests


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_outputs_match_golden_digests(tmp_path, case):
    """Every CSV, the result blocks of summary.json, the sorted stored-path
    names and the stored-path contents hash to recorded bytes.

    The digests pin the output of ``_small()`` (plus the overrides in
    ``_GOLDEN_CASES``) with ``store_paths=True``; ``summary.json`` is hashed
    as sorted-key JSON without its timestamp and wall clock.  A change that
    alters output bytes on purpose re-records them and says so in
    CHANGES.md; any other change must leave them untouched.
    """
    command, overrides = _GOLDEN_CASES.get(case, (case, {}))
    _COMMANDS[command](_small(**overrides), store_paths=True, out_dir=tmp_path)
    assert _digests(tmp_path) == _GOLDEN[case]


# _STACK_BYTES -> replicas per block at N = 4 and N = 6 with _small()'s
# two laws (a law's matrix is 128 and 288 bytes), and at N = 6 with the
# freeze sweep's one law; 1 also stacks one matrix per norm call
_BLOCKINGS = {1: (1, 1, 1), 600: (2, 1, 2), 1200: (4, 2, 4)}


@pytest.mark.parametrize("stack_bytes", sorted(_BLOCKINGS))
@pytest.mark.parametrize(
    "case", ["universality", "universality-tilt-past-replicas", "simulate",
             "freeze-sweep", "freeze-sweep-three-replicas"])
def test_outputs_do_not_depend_on_the_block_size(tmp_path, monkeypatch, case,
                                                 stack_bytes):
    # one replica per block, part of them (a ragged last block with 3
    # replicas), or all of them
    monkeypatch.setattr(disorder, "_STACK_BYTES", stack_bytes)
    blocks = _count_calls(monkeypatch, harness, "simulate_shared")
    command, overrides = _GOLDEN_CASES.get(case, (case, {}))
    cfg = _small(**overrides)
    _COMMANDS[command](cfg, store_paths=True, out_dir=tmp_path)
    assert _digests(tmp_path) == _GOLDEN[case]
    if command == "simulate":
        assert blocks["simulate_shared"] == math.ceil(
            cfg.replicas / _BLOCKINGS[stack_bytes][1])
    if command == "freeze-sweep":
        assert blocks["simulate_shared"] == math.ceil(
            cfg.freeze_replicas / _BLOCKINGS[stack_bytes][2])


def test_summary_output_dir_is_where_the_files_went(tmp_path):
    cfg = _small()
    out = tmp_path / "elsewhere"
    summary = run_validation(cfg, out_dir=out)
    assert (out / "summary.json").exists()
    assert summary.output_dir == str(out) != cfg.output_dir


def _tree(run_dir: Path) -> dict:
    return {str(p.relative_to(run_dir)): p.read_bytes()
            for p in sorted(run_dir.rglob("*")) if p.is_file()}


def test_failed_run_leaves_the_older_run_in_a_reused_out(tmp_path, capsys,
                                                         monkeypatch):
    # a freeze sweep saves each block's pairs as soon as they exist; with
    # one replica per block, a safeguard failure at its second replica
    # must not leave the first's files, or a summary, next to the older
    # simulate run in the same directory
    path = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out),
                 "--store-paths"]) == 0
    before = _tree(out)
    monkeypatch.setattr(disorder, "_STACK_BYTES", 1)
    integrate = dynamics._integrate
    calls = []

    def second_replica_fails(params, *args, refresh_every):
        calls.append(refresh_every)
        if len(calls) > 2:  # replica 0 integrates its full and frozen stacks
            raise SafeguardError(1, 2, 3.0, "forced")
        return integrate(params, *args, refresh_every=refresh_every)

    monkeypatch.setattr(dynamics, "_integrate", second_replica_fails)
    assert main(["freeze-sweep", "--config", str(path), "--out", str(out),
                 "--store-paths", "--seed", "8"]) == 2
    assert "(forced) [law=gaussian, N=6, replica=1]" in capsys.readouterr().err
    monkeypatch.setattr(dynamics, "_integrate", integrate)
    assert _tree(out) == before
    assert replay(out, "rademacher", replica=1)["matches_stored"] is True
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "out"]


def test_run_into_a_reused_out_replaces_the_older_run(tmp_path):
    cfg = _small()
    run_simulate(cfg, store_paths=True, out_dir=tmp_path / "out")
    run_validation(cfg, out_dir=tmp_path / "out")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "config.json", "norms.csv", "summary.json"]
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    (tmp_path / "file").write_text("")
    with pytest.raises(ConfigError, match="not a directory"):
        run_validation(cfg, out_dir=tmp_path / "file")
    # a directory with files but no finished run is never replaced
    (tmp_path / "notes").mkdir()
    (tmp_path / "notes" / "keep.txt").write_text("keep")
    with pytest.raises(ConfigError, match="no summary.json"):
        run_validation(cfg, out_dir=tmp_path / "notes")
    assert [p.name for p in (tmp_path / "notes").iterdir()] == ["keep.txt"]


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


def _count_calls(monkeypatch, module, *names) -> dict:
    """Count calls to ``module.<name>`` for each name, from now on."""
    calls = dict.fromkeys(names, 0)

    def counting(name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counting(name))
    return calls


def test_freeze_sweep_draws_and_norms_each_replica_once(tmp_path, monkeypatch):
    normed = []  # the seeds of each norm call's matrices
    norm = harness.operator_norm_reports

    def recording(mats, **kwargs):
        normed.append([mat.seed for mat in mats])
        return norm(mats, **kwargs)

    monkeypatch.setattr(harness, "operator_norm_reports", recording)
    calls = _count_calls(monkeypatch, harness, "sample_matrix")
    run_freeze_sweep(_small(kappa_sweep=[1, 2, 4], freeze_replicas=3),
                     out_dir=tmp_path)
    # the three replicas fit one block: one call norms each of them once
    assert normed == [[harness.derive_seed(7, "disorder", 0, 6, rep)
                       for rep in range(3)]]
    assert calls == {"sample_matrix": 3}


def test_freeze_sweep_integrates_each_refresh_interval_once(tmp_path,
                                                            monkeypatch):
    # kappa 4 on the 4-step grid has one substep: it is the full path; each
    # replica is prepared once, and each block integrates the full and the
    # kappa-2 interval once (3 replicas: 2 + 1 at 600 bytes, or all in one)
    cfg = _small(freeze_replicas=3)
    for stack_bytes, blocks in ((600, 2), (disorder._STACK_BYTES, 1)):
        monkeypatch.setattr(disorder, "_STACK_BYTES", stack_bytes)
        calls = _count_calls(monkeypatch, dynamics, "_prepare", "_integrate")
        run_freeze_sweep(cfg, out_dir=tmp_path / str(stack_bytes))
        assert calls == {"_prepare": cfg.freeze_replicas, "_integrate": 2 * blocks}
        monkeypatch.undo()


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
    # pareto(0.05) draws reach 1e119: its variance overflows a float square
    for law in ({"distribution": "cauchy"}, {"distribution": "pareto", "args": [0.05]}):
        law_path = tmp_path / "heavy.json"
        law_path.write_text(json.dumps({"name": "heavy", **law}))
        cfg = _small(laws=["gaussian", f"custom:{law_path}"])
        out = tmp_path / law["distribution"]
        summary = run_validation(cfg, out_dir=out)
        heavy = [r for r in summary.validation if r["law"] == "heavy"]
        status = {r["check"]: r["status"] for r in heavy}
        assert status["unit-variance"] == "FAIL"
        assert status["mean-zero"] == "FAIL"
        assert status["norm-concentration"].startswith("SKIPPED")
        json.loads((out / "summary.json").read_text(), parse_constant=pytest.fail)


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


def test_replay_rejects_universality_size_outside_n_sweep(tmp_path):
    cfg = _small()
    run_universality(cfg, out_dir=tmp_path)
    replay(tmp_path, "gaussian", replica=0, n=cfg.n_sweep[0])
    with pytest.raises(ConfigError, match="N=37 not in this run"):
        replay(tmp_path, "gaussian", replica=0, n=37)


def test_replay_rejects_simulate_size_other_than_n_particles(tmp_path):
    cfg = _small()
    run_simulate(cfg, out_dir=tmp_path)
    assert cfg.n_sweep[0] != cfg.n_particles
    with pytest.raises(ConfigError, match="not in this run"):
        replay(tmp_path, "gaussian", replica=0, n=cfg.n_sweep[0])


def test_replay_rejects_freeze_sweep_law_and_size_it_never_ran(tmp_path):
    # the sweep runs only the first law, at n_particles, one sample per draw
    cfg = _small(thermal_samples=2)
    run_freeze_sweep(cfg, out_dir=tmp_path)
    replay(tmp_path, "gaussian", replica=0)
    with pytest.raises(ConfigError, match="'rademacher' not in this run"):
        replay(tmp_path, "rademacher", replica=0)
    with pytest.raises(ConfigError, match="N=4 not in this run"):
        replay(tmp_path, "gaussian", replica=0, n=4)
    with pytest.raises(ConfigError, match="sample 1 out of range"):
        replay(tmp_path, "gaussian", replica=0, sample=1)


def test_replay_rejects_run_without_trajectories(tmp_path):
    run_validation(_small(), out_dir=tmp_path)
    with pytest.raises(ConfigError, match="no trajectories"):
        replay(tmp_path, "gaussian", replica=0)


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


def test_replay_checks_every_stored_freeze_pair_full_side(tmp_path, capsys):
    cfg = _small()
    run_freeze_sweep(cfg, store_paths=True, out_dir=tmp_path)
    result = replay(tmp_path, "gaussian", replica=1)
    assert result["matches_stored"] is True
    assert result["stored_path"].endswith("paths/gaussian_k2_rep1_full.npy")
    # one byte of the last kappa's full side changes
    tampered = tmp_path / "paths" / f"gaussian_k{cfg.kappa_sweep[-1]}_rep1_full.npy"
    data = bytearray(tampered.read_bytes())
    data[-1] ^= 1
    tampered.write_bytes(bytes(data))
    argv = ["replay", str(tmp_path), "--law", "gaussian", "--replica"]
    assert main(argv + ["1"]) == 2
    assert f"does not match stored {tampered}" in capsys.readouterr().err
    assert main(argv + ["0"]) == 0


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


# README's example custom law, uniform on [-sqrt 3, sqrt 3], less its
# declared third absolute moment
_FLAT = {"name": "flat", "distribution": "uniform", "loc": -1.7320508075688772,
         "scale": 3.4641016151377544, "mean": 0.0, "variance": 1.0}
_CHECKS = ("mean-zero", "unit-variance", "finite-exponential-moment", "third-abs-moment",
           "norm-concentration", "mgf-bounded", "third-moment-scaling")
_UNDECLARED = "SKIPPED (undeclared)"
_LAW_FAILED = "SKIPPED (law failed moment checks)"


@pytest.mark.parametrize("law, statuses", [
    (_FLAT, ("PASS", "PASS", _UNDECLARED, "INFO", "PASS", _UNDECLARED, _UNDECLARED)),
    ({"name": "wide", "distribution": "norm", "loc": 0.5, "scale": 2.0,
      "mean": 0.5, "variance": 4.0},
     ("FAIL", "FAIL", _UNDECLARED, "INFO", _LAW_FAILED)),
    ({"name": "third", "distribution": "norm", "third_abs_moment": 5.0},
     ("PASS", "PASS", _UNDECLARED, "FAIL", _LAW_FAILED)),
], ids=["readme-flat", "wrong-mean-and-variance", "wrong-third-moment"])
def test_cli_validate_custom_law_verdicts(tmp_path, capsys, law, statuses):
    """Each row reads the verdict validate_law gave its check, and each
    failure reason appears once as a note row."""
    (tmp_path / "law.json").write_text(json.dumps(law))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"laws": ["custom:law.json"], "n_particles": 64,
                                "norm_samples": 2}))
    assert main(["validate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    rows = json.loads((tmp_path / "out" / "summary.json").read_text())["validation"]
    assert [(r["check"], r["status"]) for r in rows if r["check"] != "note"] == list(
        zip(_CHECKS, statuses))
    notes = [r["value"] for r in rows if r["check"] == "note"]
    for check, status in zip(_CHECKS, statuses):
        assert f"check law={law['name']} {check}: {status}" in out
        reasons = [note for note in notes if note.startswith(f"{check}: ")]
        assert len(reasons) == (status == "FAIL")


# Runs every command and replay in one fresh interpreter and reports the
# scipy modules loaded.
_IMPORT_PROBE = """
import json, sys
from spinlab.cli import main

cfg, out = sys.argv[1], sys.argv[2]
for command in ("validate", "universality", "simulate", "freeze-sweep", "lindeberg"):
    argv = [command, "--config", cfg, "--out", out + "/" + command]
    assert main(argv + ["--store-paths"] * (command == "simulate")) == 0
assert main(["replay", out + "/simulate", "--law", "gaussian", "--replica", "0"]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")))
"""


def test_commands_keep_scipy_off_the_load_path(tmp_path):
    """No command and no replay loads any scipy module."""
    path = _write_cfg(tmp_path)
    src = str(Path(spinlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(path), str(tmp_path / "out")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_cli_unknown_config_key_exit_one(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"bogus_key": 1}))
    code = main(["validate", "--config", str(path)])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_cli_bad_custom_law_exit_one(tmp_path, capsys):
    (tmp_path / "law.json").write_text(json.dumps({"distribution": "norm", "scale": math.nan}))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"laws": ["gaussian", "custom:law.json"]}))
    code = main(["validate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "scale must be finite" in err


def test_cli_custom_law_below_the_lyapunov_bound_exit_one(tmp_path, capsys):
    # E|J|^3 < (E J^2)^(3/2) describes no law, and would understate the tilt
    (tmp_path / "law.json").write_text(json.dumps(
        {"distribution": "norm", "variance": 4.0, "third_abs_moment": 7.9}))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"laws": ["gaussian", "custom:law.json"]}))
    code = main(["validate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "third_abs_moment 7.9 is below variance**1.5" in err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("below", ["sub", "a/b"])
def test_cli_out_below_a_regular_file_exit_one(tmp_path, capsys, below):
    path = _write_cfg(tmp_path, laws=["gaussian"])
    (tmp_path / "file").write_text("")
    code = main(["validate", "--config", str(path),
                 "--out", str(tmp_path / "file" / below)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "cannot create output directory" in err


def _replay_with(tmp_path, name, content):
    """Exit code of replaying a finished run whose ``name`` holds ``content``."""
    run_simulate(_small(), out_dir=tmp_path / "run")
    (tmp_path / "run" / name).write_bytes(content)
    return main(["replay", str(tmp_path / "run"), "--law", "gaussian", "--replica", "0"])


@pytest.mark.parametrize("content", [b"{not json", b"\xff{}"],
                         ids=["garbled", "not-utf8"])
@pytest.mark.parametrize("name", ["config.json", "summary.json"])
def test_cli_replay_of_a_run_file_that_is_not_json_exit_one(tmp_path, capsys, name,
                                                           content):
    assert _replay_with(tmp_path, name, content) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{name} is not valid JSON" in err


@pytest.mark.parametrize("name", ["config.json", "summary.json"])
def test_cli_replay_of_a_run_file_that_is_not_an_object_exit_one(tmp_path, capsys, name):
    assert _replay_with(tmp_path, name, b"[1, 2]") == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{name} must hold a JSON object" in err


def _reject_constant(constant):
    raise ValueError(f"summary.json holds the non-standard constant {constant}")


def test_validate_summary_is_strict_json_with_an_infinite_trend(tmp_path, capsys):
    # cexp's mgf is infinite at theta = 1, so eps = 1 makes its mgf-bounded row inf
    path = _write_cfg(tmp_path, eps=1.0, laws=["cexp", "gaussian"])
    assert main(["validate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert "check law=cexp mgf-bounded: TREND (inf)" in capsys.readouterr().out
    text = (tmp_path / "out" / "summary.json").read_text()
    rows = json.loads(text, parse_constant=_reject_constant)["validation"]
    assert [r["value"] for r in rows
            if r["law"] == "cexp" and r["check"] == "mgf-bounded"] == ["inf"]
    with pytest.raises(ValueError):
        harness._write_json(tmp_path / "nan.json", {"value": math.nan})


@pytest.mark.parametrize("initial", ["point:1.9999999", "point:-1.9999999",
                                     "uniform:1.9999999"])
def test_cli_initial_law_in_the_guard_band_exit_one(tmp_path, capsys, initial):
    # s = 2: the guard band starts at 2 * (1 - GUARD_FRACTION) = 1.999998
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"initial": initial, "s_bound": 2.0}))
    for command in ("simulate", "universality", "freeze-sweep"):
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "guard band" in err
    assert not (tmp_path / "out").exists()
    # just inside the band, the same law loads
    inside = initial.replace("1.9999999", "1.999997")
    assert load_config(overrides={"initial": inside}).initial == inside


def test_cli_replay_has_only_its_own_flags(tmp_path, capsys, monkeypatch):
    run_simulate(_small(), out_dir=tmp_path / "run")
    argv = ["replay", str(tmp_path / "run"), "--law", "gaussian", "--replica", "0"]
    for flag in (["--seed", "5"], ["--config", "missing.json"], ["--threads", "2"],
                 ["--out", "x"], ["--store-paths"]):
        with pytest.raises(SystemExit) as err:
            main(argv + flag)
        assert err.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err
    # replay takes its seed from the run, never from the environment
    monkeypatch.setenv("SPINLAB_SEED", "abc")
    assert main(argv) == 0
    assert "disorder seed: " + str(harness.derive_seed(7, "disorder", 0, 6, 0)) \
        in capsys.readouterr().out


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

    monkeypatch.setattr(dynamics, "_integrate", boom)
    path = _write_cfg(tmp_path)
    code = main(["simulate", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "law=gaussian, N=6, replica=0" in err


def test_cli_safeguard_failure_names_the_failing_law(tmp_path, capsys,
                                                   monkeypatch):
    # laws at one replica integrate as one stack; only the second law's
    # matrix pushes the dynamics out of the box
    draw = harness.sample_matrix

    def rademacher_explodes(law, n, seed):
        mat = draw(law, n, seed)
        if law.name != "rademacher":
            return mat
        return type(mat)(1e15 * mat.entries, mat.law, mat.seed)

    monkeypatch.setattr(harness, "sample_matrix", rademacher_explodes)
    path = _write_cfg(tmp_path)  # laws gaussian, rademacher
    code = main(["simulate", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "[law=rademacher, N=6, replica=0]" in err


def test_cli_failure_inside_a_block_names_its_replica(tmp_path, capsys,
                                                      monkeypatch):
    # only replica 2's rademacher matrix at N = 6 leaves the box; the whole
    # block of three replicas integrates as one stack
    draw = harness.sample_matrix
    bad_seed = harness.derive_seed(7, "disorder", 1, 6, 2)

    def one_draw_explodes(law, n, seed):
        mat = draw(law, n, seed)
        if seed != bad_seed:
            return mat
        return type(mat)(1e15 * mat.entries, mat.law, mat.seed)

    monkeypatch.setattr(harness, "sample_matrix", one_draw_explodes)
    path = _write_cfg(tmp_path)
    code = main(["universality", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "[law=rademacher, N=6, replica=2]" in capsys.readouterr().err


def test_cli_tilt_failure_inside_a_block_names_kappa_and_replica(
        tmp_path, capsys, monkeypatch):
    # the frozen stack at N = 4 covers replicas 0 and 1 (phi_replicas 2);
    # its member 3 is replica 1's rademacher run
    integrate = dynamics._integrate

    def frozen_fails(params, *args, refresh_every):
        if refresh_every > 1:
            raise SafeguardError(1, 2, 3.0, "forced", member=3)
        return integrate(params, *args, refresh_every=refresh_every)

    monkeypatch.setattr(dynamics, "_integrate", frozen_fails)
    path = _write_cfg(tmp_path)
    code = main(["universality", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "(forced, kappa=2) [law=rademacher, N=4, replica=1]" in err


def test_cli_power_iteration_cap_exit_two_names_the_draw(tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.setattr(disorder, "_MAX_ITER", 1)
    path = _write_cfg(tmp_path)
    code = main(["universality", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical failure: power iteration did not converge in 1 steps" in err
    assert err.rstrip().endswith("[law=gaussian, N=4, replica=0]")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("run, n", [(run_universality, 4), (run_freeze_sweep, 6)])
def test_library_caller_catches_a_safeguard_failure_as_numerical_failure(
        tmp_path, monkeypatch, run, n):
    def boom(*args, **kwargs):
        raise SafeguardError(1, 2, 3.0, "forced")

    monkeypatch.setattr(dynamics, "_integrate", boom)
    with pytest.raises(NumericalFailure) as err:
        run(_small(), out_dir=tmp_path / "out")
    assert str(err.value) == ("boundary safeguard failed for particle 1 at grid step 2: "
                              f"proposed value 3.0 (forced) [law=gaussian, N={n}, replica=0]")


def test_library_caller_catches_a_norm_cap_failure_as_numerical_failure(
        tmp_path, monkeypatch):
    monkeypatch.setattr(disorder, "_MAX_ITER", 1)
    with pytest.raises(NumericalFailure) as err:
        run_universality(_small(), out_dir=tmp_path / "out")
    assert str(err.value).startswith("power iteration did not converge in 1 steps (best value ")
    assert str(err.value).endswith(") [law=gaussian, N=4, replica=0]")


def test_cli_frozen_safeguard_failure_names_its_kappa(tmp_path, capsys,
                                                      monkeypatch):
    integrate = dynamics._integrate

    def frozen_fails(params, *args, refresh_every):
        if refresh_every > 1:
            raise SafeguardError(1, 2, 3.0, "forced")
        return integrate(params, *args, refresh_every=refresh_every)

    monkeypatch.setattr(dynamics, "_integrate", frozen_fails)
    path = _write_cfg(tmp_path)  # kappa_sweep [2, 4]: kappa 2 has 2 substeps
    code = main(["freeze-sweep", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "(forced, kappa=2) [law=gaussian, N=6, replica=0]" in err


def test_cli_frozen_failure_inside_a_freeze_block_names_its_replica(
        tmp_path, capsys, monkeypatch):
    # 600 bytes hold both replicas' 6 x 6 matrices: one block, whose
    # kappa-2 frozen stack fails at member 1, replica 1
    monkeypatch.setattr(disorder, "_STACK_BYTES", 600)
    integrate = dynamics._integrate

    def frozen_fails(params, *args, refresh_every):
        if refresh_every > 1:
            raise SafeguardError(1, 2, 3.0, "forced", member=1)
        return integrate(params, *args, refresh_every=refresh_every)

    monkeypatch.setattr(dynamics, "_integrate", frozen_fails)
    path = _write_cfg(tmp_path)
    code = main(["freeze-sweep", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "(forced, kappa=2) [law=gaussian, N=6, replica=1]" in err


def test_cli_norm_failure_inside_a_freeze_block_stops_before_integrating(
        tmp_path, capsys, monkeypatch):
    # a block's norms run before its integration: replica 1's power
    # iteration fails, and the block of replicas 0 and 1 never integrates
    monkeypatch.setattr(disorder, "_STACK_BYTES", 600)
    norm = harness.operator_norm_reports
    bad_seed = harness.derive_seed(7, "disorder", 0, 6, 1)

    def one_norm_fails(mats, **kwargs):
        seeds = [mat.seed for mat in mats]
        if bad_seed in seeds:
            raise disorder.PowerIterationError("forced cap", (0.0, 1.0),
                                               member=seeds.index(bad_seed))
        return norm(mats, **kwargs)

    monkeypatch.setattr(harness, "operator_norm_reports", one_norm_fails)
    calls = _count_calls(monkeypatch, dynamics, "_integrate")
    path = _write_cfg(tmp_path)
    code = main(["freeze-sweep", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert calls == {"_integrate": 0}
    err = capsys.readouterr().err
    assert err.rstrip().endswith("forced cap [law=gaussian, N=6, replica=1]")
    assert not (tmp_path / "out").exists()


def test_cli_norm_failure_inside_a_universality_block_stops_before_integrating(
        tmp_path, capsys, monkeypatch):
    # at N = 4, 600 bytes hold two replicas' pairs of 4 x 4 matrices: the
    # first block's norms fail at replica 1's rademacher draw, before any
    # of its laws and replicas integrate
    monkeypatch.setattr(disorder, "_STACK_BYTES", 600)
    norm = harness.operator_norm_reports
    bad_seed = harness.derive_seed(7, "disorder", 1, 4, 1)

    def one_norm_fails(mats, **kwargs):
        seeds = [mat.seed for mat in mats]
        if bad_seed in seeds:
            raise disorder.PowerIterationError("forced cap", (0.0, 1.0),
                                               member=seeds.index(bad_seed))
        return norm(mats, **kwargs)

    monkeypatch.setattr(harness, "operator_norm_reports", one_norm_fails)
    calls = _count_calls(monkeypatch, dynamics, "_integrate")
    path = _write_cfg(tmp_path)
    code = main(["universality", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert calls == {"_integrate": 0}
    assert _one_line(capsys).endswith("forced cap [law=rademacher, N=4, replica=1]")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, block", [
    ("freeze-sweep", "[N=6, replicas 0-1]"), ("universality", "[N=4, replicas 0-2]")])
def test_cli_float_error_names_its_block(tmp_path, capsys, command, block):
    # beta 1e300 overflows the first block's norms; a float error carries
    # no member, so it names the block's N and replicas
    path = _write_cfg(tmp_path, beta=1e300)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = _one_line(capsys)
    assert err.startswith("numerical failure: overflow")
    assert err.endswith(block)


def test_cli_run_that_does_not_fit_in_memory_is_a_config_error(tmp_path, capsys,
                                                              monkeypatch):
    path = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    before = _tree(out)
    capsys.readouterr()

    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 96.0 TiB")

    monkeypatch.setattr(dynamics, "_integrate", too_large)
    assert main(["freeze-sweep", "--config", str(path), "--out", str(out)]) == 1
    assert _one_line(capsys) == (
        "config error: the run does not fit in memory: Unable to allocate 96.0 TiB")
    assert _tree(out) == before


@pytest.mark.parametrize("third, code", [(None, 1), (3.0 * math.sqrt(3.0) / 4.0, 0)])
def test_cli_universality_needs_each_law_third_moment(tmp_path, capsys, monkeypatch,
                                                      third, code):
    # README's flat law, without and with its declared third absolute moment
    law = dict(_FLAT, **({} if third is None else {"third_abs_moment": third}))
    (tmp_path / "flat.json").write_text(json.dumps(law))
    path = _write_cfg(tmp_path, laws=["gaussian", f"custom:{tmp_path / 'flat.json'}"])
    draws = _count_calls(monkeypatch, harness, "sample_matrix")
    assert main(["universality", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == code
    if code:
        assert _one_line(capsys) == (
            "config error: universality's tilt statistic needs each law's third "
            "absolute moment; undeclared for flat")
        assert draws == {"sample_matrix": 0}


def test_custom_law_file_is_read_once_per_config(tmp_path, monkeypatch):
    # read when the config loads and never during a run, so a file edited
    # mid-run cannot change a law under the run's config hash
    (tmp_path / "flat.json").write_text(json.dumps(
        dict(_FLAT, third_abs_moment=3.0 * math.sqrt(3.0) / 4.0)))
    path = _write_cfg(tmp_path, laws=["gaussian", f"custom:{tmp_path / 'flat.json'}"])
    load = config._load_custom_law
    reads = []
    monkeypatch.setattr(config, "_load_custom_law",
                        lambda law_path: reads.append(law_path) or load(law_path))
    cfg = load_config(path)
    assert len(reads) == 1
    (tmp_path / "flat.json").write_text("{}")
    assert cfg.law_labels() == ["gaussian", "flat"]
    run_universality(cfg, out_dir=tmp_path / "out")
    assert len(reads) == 1


def test_cli_custom_law_file_is_read_once_per_command(tmp_path, monkeypatch):
    # --seed and --out reach load_config as overrides, so one config is built
    (tmp_path / "flat.json").write_text(json.dumps(_FLAT))
    path = _write_cfg(tmp_path, laws=["gaussian", f"custom:{tmp_path / 'flat.json'}"])
    reads = _count_calls(monkeypatch, config, "_load_custom_law")
    assert main(["simulate", "--config", str(path), "--seed", "7",
                 "--out", str(tmp_path / "out")]) == 0
    assert reads == {"_load_custom_law": 1}


def test_cli_replay_after_the_law_file_changes_is_a_hash_mismatch(tmp_path, capsys):
    # the config hash covers the law file's contents, not only its path
    law = tmp_path / "flat.json"
    law.write_text(json.dumps(_FLAT))
    path = _write_cfg(tmp_path, laws=["gaussian", f"custom:{law}"])
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    law.write_text(json.dumps(dict(_FLAT, scale=2.0 * _FLAT["scale"])))
    capsys.readouterr()
    assert main(["replay", str(tmp_path / "out"), "--law", "flat", "--replica", "0"]) == 2
    assert _one_line(capsys).startswith("numerical failure: config hash mismatch in ")


def _write_raw_cfg(tmp_path, **kw):
    """``_write_cfg`` for a config that does not load."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(_small().as_dict(), **kw)))
    return path


def _files_under(root: Path) -> set:
    return {str(p.relative_to(root)) for p in root.rglob("*")}


@pytest.mark.parametrize("name", ["a/b", "../../escaped", "a\\b", "a\0b", "..", ".", ""])
def test_cli_custom_law_name_that_is_no_file_name_exit_one(tmp_path, capsys, name):
    # the name labels the law's stored paths, which must stay inside --out
    (tmp_path / "law.json").write_text(json.dumps(dict(_FLAT, name=name)))
    path = _write_raw_cfg(tmp_path, laws=["gaussian", f"custom:{tmp_path / 'law.json'}"])
    before = _files_under(tmp_path)
    code = main(["simulate", "--config", str(path), "--store-paths",
                 "--out", str(tmp_path / "run" / "out")])
    assert code == 1
    assert _one_line(capsys) == (f"config error: custom law file {tmp_path / 'law.json'}: "
                                 f"name {name!r} is not a file name")
    assert _files_under(tmp_path) == before


def test_cli_laws_that_share_a_label_exit_one(tmp_path, capsys):
    # a custom gaussian@2 beside two gaussians would share its stored paths
    (tmp_path / "law.json").write_text(json.dumps(dict(_FLAT, name="gaussian@2")))
    path = _write_raw_cfg(tmp_path, laws=["gaussian", "gaussian",
                                          f"custom:{tmp_path / 'law.json'}"])
    before = _files_under(tmp_path)
    code = main(["simulate", "--config", str(path), "--store-paths",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert _one_line(capsys) == ("config error: two laws share the label 'gaussian@2'; "
                                 "rename a custom law")
    assert _files_under(tmp_path) == before


def test_cli_failed_certificate_exit_two_names_instance(tmp_path, capsys,
                                                       monkeypatch):
    monkeypatch.setattr(lindeberg, "lindeberg_bound", lambda q, law: 0.0)
    path = _write_cfg(tmp_path)
    code = main(["lindeberg", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    rows = _lines(tmp_path / "out" / "lindeberg.csv")[1:]
    failed = [row.split(",") for row in rows if row.endswith(",0")]
    kind, instance, seed = failed[0][:3]
    assert kind == "certificate"
    err = capsys.readouterr().err
    assert f"certificate violated on instance {instance} (seed {seed})" in err


def _one_line(capsys) -> str:
    """The run's standard error, checked to be exactly one line."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    return err[0]


@pytest.mark.parametrize("field, entries", [("n_sweep", [4, 4]), ("kappa_sweep", [2, 4, 2])])
def test_cli_repeated_sweep_entry_exit_one(tmp_path, capsys, field, entries):
    # a repeat would rerun the same seeds and write duplicate rows
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(_small().as_dict(), **{field: entries})))
    command = "universality" if field == "n_sweep" else "freeze-sweep"
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert _one_line(capsys) == f"config error: {field} repeats the entry {entries[0]}"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("eps", [0, -1, 0.0, 1e-300])
def test_cli_eps_below_its_edge_is_a_config_error(tmp_path, capsys, eps):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"eps": eps}))
    assert main(["validate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert _one_line(capsys).startswith("config error: eps must be >= 1e-150")


def test_cli_huge_eps_reads_an_infinite_mgf_trend(tmp_path, capsys):
    # e^{theta J} leaves the float range long before theta = 1e300
    path = _write_cfg(tmp_path, eps=1e300, laws=["gaussian", "rademacher", "cexp"])
    assert main(["validate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    for law in ("gaussian", "rademacher", "cexp"):
        assert f"check law={law} mgf-bounded: TREND (inf)" in captured.out
    rows = json.loads((tmp_path / "out" / "summary.json").read_text(),
                      parse_constant=_reject_constant)["validation"]
    assert {r["value"] for r in rows if r["check"] == "mgf-bounded"} == {"inf"}


@pytest.mark.parametrize("command", ["simulate", "validate"])
@pytest.mark.parametrize("size", [dict(n_particles=10**30), dict(n_particles=2**31),
                                  dict(n_sweep=[4, 10**30])],
                         ids=["n_particles-huge", "n_particles-past-the-matrix",
                              "n_sweep-huge"])
def test_cli_size_numpy_cannot_build_is_a_config_error(tmp_path, capsys, command, size):
    # an N x N float64 matrix past numpy's index range: N = 2**31 needs 2**65 bytes
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(size))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert _one_line(capsys).startswith("config error:")
    assert not (tmp_path / "out").exists()


def test_cli_infinite_certificate_bound_exit_two_names_the_instance(tmp_path, capsys):
    # horizon 1e300 scales X to about 1e150, so sum_j (X^T X)_jj^{3/2} overflows
    path = _write_cfg(tmp_path, horizon=1e300)
    assert main(["lindeberg", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = _one_line(capsys)
    rows = [row.split(",") for row in _lines(tmp_path / "out" / "lindeberg.csv")[1:]]
    kind, instance, seed = rows[0][:3]
    assert kind == "certificate" and rows[0][6] == "inf" and rows[0][-1] == "0"
    assert err.startswith(f"numerical failure: comparison certificate has no finite "
                          f"bound on instance {instance} (seed {seed})")
    assert err.endswith("vs bound inf")
    summary = json.loads((tmp_path / "out" / "summary.json").read_text(),
                         parse_constant=_reject_constant)
    assert summary["lindeberg"]["certificate_pass"] == 0


# Config values drawn field by field: each field's documented edges and
# extremes (0, negatives, 1e-300, 1e300, huge ints, the float range's ends,
# non-numbers).  Fields that set the amount of work take small values or
# values the config rejects, never a size in between.
_REJECTED_SIZES = [0, -1, 1e-300, 1e300, 10**30, 2**63, True, "2", None]
_EXTREME_FLOATS = [0, -1, 1e-300, -1e300, 1e300, 5e-324, 1.7976931348623157e308,
                   10**30, 10**400, math.inf, math.nan, True, "1", None]
_FIELD_VALUES = {
    "n_particles": [1, 2], "kappa": [1, 4], "substeps": [1, 3], "replicas": [2, 4],
    "thermal_samples": [1, 2], "phi_replicas": [1, 4], "freeze_replicas": [2, 3],
    "norm_samples": [1, 3], "bootstrap_resamples": [2, 3], "lindeberg_instances": [1, 2],
    "gaussian_check_instances": [1, 2], "gaussian_check_samples": [1000, 999],
}
_FIELD_VALUES = {name: small + _REJECTED_SIZES for name, small in _FIELD_VALUES.items()}
_FIELD_VALUES.update({
    name: _EXTREME_FLOATS + edges for name, edges in (
        ("beta", []), ("s_bound", [1.0]), ("horizon", []), ("rho", []),
        ("a2", [None]), ("eps", [1e-150, 1.0]), ("c1", []),
        ("gamma", [2.0, 2.5, 2.4999999999]))
})
_FIELD_VALUES.update(
    master_seed=[0, 2**64 - 1, 2**64, -1, 10**30, 1e300],
    n_sweep=[[1], [1, 2], [0], [10**30], [2**31], [], [1.5], 3, [1, 1], [2, 2]],
    kappa_sweep=[[1], [4], [3], [10**30], [0], [], [1, 1], [2, 2]],
    potential=["logbarrier", "bogus", 1],
    initial=["point:0", "uniform:1e-300", "point:1.999997", "point:1.9999999",
             "uniform:0", "point:nan", "point:-inf", "bogus", "point:"],
    laws=[["gaussian"], ["gaussian", "cexp"], ["rademacher"], [], ["bogus"], "gaussian"],
    output_dir=["", 1],
)


@st.composite
def _overrides(draw):
    """One or two fields of ``_small()``, each set to a value from its pool."""
    names = draw(st.lists(st.sampled_from(sorted(_FIELD_VALUES)), min_size=1, max_size=2,
                          unique=True))
    return {name: draw(st.sampled_from(_FIELD_VALUES[name])) for name in names}


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(command=st.sampled_from(sorted(_COMMANDS)), fields=_overrides())
def test_cli_every_config_ends_in_one_of_three_outcomes(command, fields):
    """Exit 0 quietly, 1 with one config error line, or 2 with one
    numerical failure line; nothing raises, warns or leaves a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(dict(_small().as_dict(), **fields)))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    lines = err.getvalue().splitlines()
    assert (code, len(lines)) in ((0, 0), (1, 1), (2, 1)), (code, lines)
    if lines:
        assert lines[0].startswith(("config error:", "numerical failure:")[code - 1]), lines


def test_traced_benchmark_finds_every_entry_point():
    # the benchmark wraps internal names from outside the package; a
    # refactor that deletes one of them breaks its --trace 1 runs
    from perfbench.instrument import traced
    from perfbench.spans import Tracer

    with traced(Tracer()):
        pass


def test_cli_replay_round_trip(tmp_path, capsys):
    cfg = _small()
    run_simulate(cfg, store_paths=True, out_dir=tmp_path / "run")
    code = main(["replay", str(tmp_path / "run"),
                 "--law", "gaussian", "--replica", "1", "--particle", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "matches stored trajectory: True" in out
    assert "fingerprint:" in out


# ---------------------------------------------------------------------------
# bootstrap and tilt in batched form

def _reference_bootstrap_gap(diff, resamples, seed):
    # the one-resample-per-call loop that the chunked draws must match
    reps = diff.shape[0]
    gen = np.random.Generator(np.random.Philox(key=seed))
    centered = diff - diff.mean(axis=0)
    sups, floors = np.empty(resamples), np.empty(resamples)
    for b in range(resamples):
        idx = gen.integers(0, reps, reps)
        sups[b] = np.abs(diff[idx].mean(axis=0)).max()
        floors[b] = np.abs(centered[idx].mean(axis=0)).max()
    return (float(np.abs(diff.mean(axis=0)).max()), float(sups.std(ddof=1)),
            float(np.quantile(floors, 0.99)))


@pytest.mark.parametrize("reps", [2, 3, 40, 201])
def test_bootstrap_gap_equals_one_draw_per_resample(monkeypatch, reps):
    diff = np.random.default_rng(reps).standard_normal((reps, 9))
    # chunks of 1 and 5 resamples, and the default (one chunk of them all);
    # the resample counts fall below, on and above a chunk of 5
    for stack_bytes in (diff.nbytes - 1, 5 * diff.nbytes, disorder._STACK_BYTES):
        monkeypatch.setattr(disorder, "_STACK_BYTES", stack_bytes)
        for resamples in (2, 5, 12, 400):
            seed = 1000 * reps + resamples
            assert harness._bootstrap_gap(diff, resamples, seed) == (
                _reference_bootstrap_gap(diff, resamples, seed))


def test_bootstrap_and_tilt_allocate_under_4_mib_at_the_default_shape():
    # numpy asks for huge pages on arrays of 4 MiB or more, which makes the
    # process's peak RSS depend on the kernel; the peak of traced memory
    # during a call bounds every allocation it makes
    cfg = load_config()
    assert (cfg.replicas, cfg.total_steps() + 1, cfg.bootstrap_resamples) == (200, 201, 400)
    params = ModelParams(200, 1.0, 2.0, 2.0, 10, 20, 1)
    gen = np.random.default_rng(3)
    ens = PathEnsemble(gen.uniform(-1.0, 1.0, (200, 201)), grid_times(params), params, 0, 0)
    mat = disorder.sample_matrix(disorder.GAUSSIAN, 200, seed=4)
    diff = gen.standard_normal((cfg.replicas, cfg.total_steps() + 1))
    calls = [lambda: harness._bootstrap_gap(diff, cfg.bootstrap_resamples, 5),
             lambda: girsanov_stats(ens, mat, params, double_well(2.0))]
    tracemalloc.start()
    try:
        for call in calls:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            assert tracemalloc.get_traced_memory()[1] - before < 4 * 2**20
    finally:
        tracemalloc.stop()
