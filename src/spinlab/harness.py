"""Experiment orchestration: sweeps, persistence, and replay.

Every command materializes an output directory holding ``config.json``
(the fully resolved configuration), ``summary.json`` (scalars, seed
provenance, and a timestamp), and fixed-schema CSV files.  All randomness
derives from the master seed through named sha256 streams, so re-running a
command with the same config and seed reproduces every CSV byte for byte
regardless of worker count; the timestamp and wall-clock fields live only
in the summary.

Each ``run_*`` command is a body inside one frame, ``_command``, which owns
the clock, the ``RunSummary`` and persistence.  Shared decisions have one
owner each: ``_params``, ``_disorder``, ``_norm_row``, ``_guarded`` (names
the draw behind a safeguard failure), ``_TABLES`` (CSV schemas) and
``_path_file`` (stored-trajectory names, used by store and replay).

Seed derivation schemes (also recorded in each summary):

- disorder entries:    derive_seed(master, "disorder", law_index, N, replica)
- Brownian/init:       stream replica index = replica * thermal_samples + sample
- bootstrap resamples: derive_seed(master, "bootstrap", law_index, N)
- law validation:      derive_seed(master, "law-validate", law_index)
- norm samples:        derive_seed(master, "norm-sample", law_index, k)
- comparison-lab instances: derive_seed(master, "lindeberg-instance", index)
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .disorder import (
    PowerIterationReport,
    StandardGaussian,
    condition_diagnostics,
    operator_norm_report,
    sample_matrix,
    validate_law,
)
from .dynamics import (
    SafeguardError,
    envelope_violated,
    simulate_coupled,
    simulate_frozen,
    simulate_full,
)
from .lindeberg import certificate_suite, gaussian_mc_check
from .model import ModelParams, grid_times, max_negative_curvature
from .observables import autocorrelation, girsanov_stats, marginal_w2_distance
from .streams import derive_seed

__all__ = [
    "NumericalFailure",
    "RunSummary",
    "run_simulate",
    "run_universality",
    "run_freeze_sweep",
    "run_validation",
    "run_lindeberg_suite",
    "replay",
]


class NumericalFailure(RuntimeError):
    """A numerical guarantee failed (safeguard, certificate, or replay)."""


@dataclass
class RunSummary:
    """In-memory record of one command.

    ``autocorr`` holds the full curve arrays; ``summary.json`` keeps only
    scalars (the curves are persisted to ``autocorr.csv``).  Every number
    is reachable from (config_hash, seed_provenance).
    """

    command: str
    config_hash: str
    master_seed: int
    wall_clock_seconds: float
    timestamp: str
    output_dir: str
    seed_provenance: dict
    autocorr: list = field(default_factory=list)
    gaps: list = field(default_factory=list)
    freeze: list = field(default_factory=list)
    phi_medians: list = field(default_factory=list)
    norms: list = field(default_factory=list)
    lindeberg: dict | None = None
    validation: list = field(default_factory=list)
    safeguard_activations: int = 0


_SEED_SCHEMES = {
    "disorder": "sha256(master | 'disorder' | law_index | N | replica)",
    "brownian": "stream replica index = replica * thermal_samples + sample",
    "bootstrap": "sha256(master | 'bootstrap' | law_index | N)",
    "law_validate": "sha256(master | 'law-validate' | law_index)",
    "norm_sample": "sha256(master | 'norm-sample' | law_index | k)",
    "lindeberg": "sha256(master | 'lindeberg-instance' | index)",
}


# ---------------------------------------------------------------------------
# persistence helpers

def _fmt(value) -> str:
    # repr of a float is the shortest round-trip form; ints stay bare.
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: str, rows: list[dict]) -> None:
    keys = header.lower().split(",")
    lines = [header]
    lines.extend(",".join(_fmt(row[k]) for k in keys) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"
    )


def _curve_rows(summary: RunSummary) -> list[dict]:
    # autocorr blocks hold whole curves; the CSV has one row per grid time
    return [
        dict(block, t=t, mean=mean, stderr=err)
        for block in summary.autocorr
        for t, mean, err in zip(block["t"], block["mean"], block["stderr"])
    ]


def _lindeberg_rows(summary: RunSummary) -> list[dict]:
    # summary.json keeps these rows as arrays in CSV column order
    rows = summary.lindeberg["rows"] if summary.lindeberg else []
    return [dict(zip(_LINDEBERG_HEADER.split(","), row)) for row in rows]


_LINDEBERG_HEADER = "kind,instance,seed,kappa,n,value,reference,spread,passed"

# (file, header, rows): each row is a dict keyed by the lower-cased header;
# a table with no rows writes no file.
_TABLES = (
    ("autocorr.csv", "law,N,replica_count,t,mean,stderr", _curve_rows),
    ("gaps.csv", "law,N,sup_gap,w2_surrogate,noise_floor", lambda s: s.gaps),
    ("freeze.csv", "kappa,N,msd_mean,msd_stderr,envelope_violations",
     lambda s: s.freeze),
    ("norms.csv",
     "law,N,replica,seed,norm,lower,upper,iterations,restarted,a2_event",
     lambda s: s.norms),
    ("lindeberg.csv", _LINDEBERG_HEADER, _lindeberg_rows),
)


def _persist(cfg: ExperimentConfig, summary: RunSummary, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "config.json", cfg.as_dict())
    payload = {key: getattr(summary, key) for key in (
        "command", "config_hash", "master_seed", "wall_clock_seconds",
        "timestamp", "seed_provenance", "safeguard_activations")}
    # result blocks appear only when the command produced them
    for key in ("gaps", "freeze", "phi_medians", "lindeberg", "validation"):
        if getattr(summary, key):
            payload[key] = getattr(summary, key)
    _write_json(out_dir / "summary.json", payload)
    for name, header, rows in _TABLES:
        rows = rows(summary)
        if rows:
            _write_csv(out_dir / name, header, rows)


def _command(name: str):
    """Frame ``body(cfg, summary, out, threads, store_paths)`` as a command.

    The body fills ``summary`` and may return a NumericalFailure, raised
    only after persisting, so a failed certificate still leaves its table.
    """
    def frame(body):
        def run(cfg: ExperimentConfig, threads: int = 1, store_paths: bool = False,
                out_dir: str | Path | None = None) -> RunSummary:
            t0 = time.perf_counter()
            out = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
            summary = RunSummary(
                name, cfg.config_hash(), cfg.master_seed, 0.0,
                _dt.datetime.now(_dt.timezone.utc).isoformat(), cfg.output_dir,
                {"master_seed": cfg.master_seed, "schemes": _SEED_SCHEMES},
            )
            failure = body(cfg, summary, out, threads, store_paths)
            summary.wall_clock_seconds = time.perf_counter() - t0
            _persist(cfg, summary, out)
            if failure is not None:
                raise failure
            return summary

        run.__name__ = run.__qualname__ = body.__name__
        run.__doc__ = body.__doc__
        return run

    return frame


def _path_file(run_dir, label: str, size: int, rep: int, kind: str = "") -> Path:
    """Stored trajectory: ``{label}_N{n}_rep{r}.npy`` for a full run at N,
    ``{label}_k{kappa}_rep{r}_{kind}.npy`` for one side of a freeze pair."""
    axis, suffix = ("k", "_" + kind) if kind else ("N", "")
    return Path(run_dir) / "paths" / f"{label}_{axis}{size}_rep{rep}{suffix}.npy"


def _store_ensembles(out_dir: Path, label: str, size: int, ensembles,
                     kind: str = "") -> None:
    (out_dir / "paths").mkdir(parents=True, exist_ok=True)
    for rep, ens in enumerate(ensembles):
        np.save(_path_file(out_dir, label, size, rep, kind), ens.values)


# ---------------------------------------------------------------------------
# shared decisions

def _params(cfg: ExperimentConfig, n: int, kappa: int | None = None) -> ModelParams:
    """Model parameters at size n; the total grid kappa * substeps is fixed."""
    kappa = cfg.kappa if kappa is None else kappa
    if cfg.total_steps() % kappa != 0:
        raise ConfigError(f"kappa_sweep entry {kappa} does not divide the total "
                          f"grid {cfg.total_steps()} = kappa * substeps")
    return ModelParams(n, cfg.beta, cfg.s_bound, cfg.horizon, kappa,
                       cfg.total_steps() // kappa, cfg.master_seed)


def _disorder(cfg: ExperimentConfig, law, law_idx: int, n: int, rep: int):
    """(seed, matrix) of disorder draw ``rep`` for one (law, N)."""
    seed = derive_seed(cfg.master_seed, "disorder", law_idx, n, rep)
    return seed, sample_matrix(law, n, seed)


def _norm_row(cfg: ExperimentConfig, label: str, n: int, rep: int, seed: int,
              report: PowerIterationReport) -> dict:
    return {
        "law": label, "n": n, "replica": rep, "seed": seed, "norm": report.value,
        "lower": report.lower, "upper": report.upper,
        "iterations": report.iterations, "restarted": report.restarted,
        "a2_event": report.upper <= cfg.a2,
    }


def _guarded(simulate, label: str, n: int, rep: int, /, *args, **kwargs):
    """Call a ``simulate_*`` function; a safeguard failure names its draw."""
    try:
        return simulate(*args, **kwargs)
    except SafeguardError as err:
        detail = f"{err.detail} [law={label}, N={n}, replica={rep}]"
        raise SafeguardError(err.particle, err.step, err.value, detail) from err


# ---------------------------------------------------------------------------
# scheduling

def _run_slots(task, count: int, threads: int) -> list:
    """Run task(0), ..., task(count - 1) on a worker pool, results in order."""
    if threads <= 1 or count <= 1:
        return [task(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(task, range(count)))


def _reference_index(laws) -> int:
    for idx, law in enumerate(laws):
        if isinstance(law, StandardGaussian):
            return idx
    raise ConfigError("universality needs a gaussian law as the reference")


# ---------------------------------------------------------------------------
# simulation blocks

def _curve_block(cfg: ExperimentConfig, summary: RunSummary, params: ModelParams,
                 law, law_idx: int, label: str, threads: int, samples: int,
                 store: Path | None):
    """Thermal-averaged autocorrelation per disorder draw for one (law, N).

    Returns (autocorr block, curves[replicas, G+1], ensembles, norm rows)
    and adds the safeguard activations to ``summary``.  Ensembles are the
    sample-0 full runs, used for marginal pooling and saved under
    ``store`` when the run keeps paths.
    """
    potential = cfg.potential_obj()
    initial = cfg.initial_obj()
    n = params.n_particles

    def one(rep: int):
        seed, mat = _disorder(cfg, law, law_idx, n, rep)
        report = operator_norm_report(mat, beta=cfg.beta)
        curve = np.zeros(params.n_steps + 1)
        kept = None
        activations = 0
        for s in range(samples):
            ens = _guarded(simulate_full, label, n, rep, params, potential, mat,
                           initial, replica=rep * samples + s)
            curve += autocorrelation(ens)
            activations += ens.safeguard_activations
            if s == 0:
                kept = ens
        row = _norm_row(cfg, label, n, rep, seed, report)
        return curve / samples, kept, row, activations

    results = _run_slots(one, cfg.replicas, threads)
    curves = np.stack([r[0] for r in results])
    ensembles = [r[1] for r in results]
    summary.safeguard_activations += sum(r[3] for r in results)
    if store is not None:
        _store_ensembles(store, label, n, ensembles)
    block = {
        "law": label, "n": n, "replica_count": cfg.replicas,
        "t": grid_times(params), "mean": curves.mean(axis=0),
        "stderr": curves.std(axis=0, ddof=1) / np.sqrt(cfg.replicas),
    }
    return block, curves, ensembles, [r[2] for r in results]


def _bootstrap_gap(diff: np.ndarray, resamples: int, seed: int):
    """Paired bootstrap of sup_t |mean difference| over disorder draws.

    Returns (sup gap, bootstrap standard error, noise floor).  The floor is
    the 99th percentile of the same statistic after centering each time
    slice, i.e. the distribution of the sup under the no-signal null with
    the observed per-draw covariance.
    """
    reps = diff.shape[0]
    gap = float(np.abs(diff.mean(axis=0)).max())
    gen = np.random.Generator(np.random.Philox(key=seed))
    centered = diff - diff.mean(axis=0)
    sups = np.empty(resamples)
    floors = np.empty(resamples)
    for b in range(resamples):
        idx = gen.integers(0, reps, reps)
        sups[b] = np.abs(diff[idx].mean(axis=0)).max()
        floors[b] = np.abs(centered[idx].mean(axis=0)).max()
    return gap, float(sups.std(ddof=1)), float(np.quantile(floors, 0.99))


def _phi_median(cfg: ExperimentConfig, params: ModelParams, law, law_idx: int,
                label: str, samples: int) -> float:
    """Median interaction-tilt statistic over the first phi_replicas draws."""
    potential = cfg.potential_obj()
    initial = cfg.initial_obj()
    n = params.n_particles
    phis = []
    for rep in range(cfg.phi_replicas):
        _, mat = _disorder(cfg, law, law_idx, n, rep)
        frozen = _guarded(simulate_frozen, label, n, rep,
                          params, potential, mat, initial, replica=rep * samples)
        phis.append(girsanov_stats(frozen, mat, params, potential, c1=cfg.c1).phi)
    return float(np.median(phis))


# ---------------------------------------------------------------------------
# commands

@_command("universality")
def run_universality(cfg, summary, out, threads, store_paths):
    """Disorder-universality sweep over the configured laws and sizes.

    For each law and each N: draws ``replicas`` matrices, integrates the
    full dynamics with Brownian streams shared across laws (same replica
    index, same increments), and averages each draw's autocorrelation over
    ``thermal_samples`` independent driving samples.  Non-reference laws
    get a sup-t gap against the gaussian reference with a paired bootstrap
    standard error and noise floor, plus a pooled marginal transport
    surrogate.
    """
    laws = cfg.law_objs()
    labels = cfg.law_labels()
    if len(laws) < 2:
        raise ConfigError("universality needs at least two laws")
    ref_idx = _reference_index(laws)
    samples = cfg.thermal_samples
    order = [ref_idx] + [i for i in range(len(laws)) if i != ref_idx]
    store = out if store_paths else None
    per_law = [[] for _ in laws]  # (autocorr block, norm rows) in n_sweep order
    gap_rows = []

    for n in cfg.n_sweep:
        params = _params(cfg, n)
        for idx in order:
            block, curves, ensembles, norm_rows = _curve_block(
                cfg, summary, params, laws[idx], idx, labels[idx], threads,
                samples, store)
            if idx == ref_idx:
                ref_curves, ref_ensembles = curves, ensembles
            else:
                gap, stderr, floor = _bootstrap_gap(
                    curves - ref_curves, cfg.bootstrap_resamples,
                    derive_seed(cfg.master_seed, "bootstrap", idx, n),
                )
                w2 = marginal_w2_distance(ensembles, ref_ensembles)
                gap_rows.append({
                    "law": labels[idx], "n": n, "sup_gap": gap,
                    "sup_gap_stderr": stderr, "w2_surrogate": w2,
                    "noise_floor": floor,
                })
            per_law[idx].append((block, norm_rows))
        del ensembles, ref_ensembles

        for idx in range(len(laws)):
            summary.phi_medians.append({
                "law": labels[idx], "n": n,
                "phi_median": _phi_median(cfg, params, laws[idx], idx,
                                          labels[idx], samples),
            })

    for blocks in per_law:
        for block, norm_rows in blocks:
            summary.autocorr.append(block)
            summary.norms.extend(norm_rows)
    summary.gaps = sorted(gap_rows, key=lambda g: (labels.index(g["law"]), g["n"]))


@_command("freeze-sweep")
def run_freeze_sweep(cfg, summary, out, threads, store_paths):
    """Coupling error of the piecewise-frozen scheme across kappa values.

    The total grid is held fixed at kappa * substeps from the base config,
    so every kappa in the sweep must divide it; each draw integrates the
    coupled pair and reports the mean-square coupling distance plus the
    drift-envelope check (counted on draws where the operator-norm event
    held, and only while the frozen path stays near its sub-interval
    anchors).
    """
    law, label = cfg.law_objs()[0], cfg.law_labels()[0]
    potential = cfg.potential_obj()
    initial = cfg.initial_obj()
    n = cfg.n_particles
    c_dd = max_negative_curvature(potential)
    # every kappa is checked against the total grid before any work starts
    sweep = [_params(cfg, n, kappa) for kappa in cfg.kappa_sweep]

    for params in sweep:
        kappa = params.kappa
        times = grid_times(params)

        def one(rep: int, params=params, times=times):
            seed, mat = _disorder(cfg, law, 0, n, rep)
            report = operator_norm_report(mat, beta=cfg.beta)
            full, frozen, stats = _guarded(simulate_coupled, label, n, rep, params,
                                           potential, mat, initial, replica=rep)
            norm_row = _norm_row(cfg, label, n, rep, seed, report)
            violated = norm_row["a2_event"] and envelope_violated(
                stats, times, cfg.a2, c_dd, cfg.rho, n)
            acts = full.safeguard_activations + frozen.safeguard_activations
            # keeping every pair costs memory, so only when they are stored
            kept = (full, frozen) if store_paths else None
            return stats.msd, violated, norm_row, acts, kept

        results = _run_slots(one, cfg.freeze_replicas, threads)
        msds = np.array([r[0] for r in results])
        violations = sum(1 for r in results if r[1])
        summary.freeze.append({
            "kappa": kappa, "n": n,
            "msd_mean": float(msds.mean()),
            "msd_stderr": float(msds.std(ddof=1) / np.sqrt(len(msds))),
            "envelope_violations": violations,
        })
        summary.norms.extend(r[2] for r in results)
        summary.safeguard_activations += sum(r[3] for r in results)
        if store_paths:
            for side, kind in enumerate(("full", "frozen")):
                _store_ensembles(out, label, kappa,
                                 [r[4][side] for r in results], kind)


@_command("validate")
def run_validation(cfg, summary, out, threads, store_paths):
    """Moment checks, growth diagnostics, and norm sampling per law.

    Emits one table row per check: PASS/FAIL for conditions with a sharp
    verdict (moments, finite exponential moment, norm concentration) and
    TREND for quantities the theory only tracks asymptotically.
    """
    for idx, (law, label) in enumerate(zip(cfg.law_objs(), cfg.law_labels())):
        report = validate_law(
            law, seed=derive_seed(cfg.master_seed, "law-validate", idx),
        )
        def _verdict(word):
            return "FAIL" if any(word in f for f in report.failures) else "PASS"

        def check(name, status, value=None):
            summary.validation.append(
                {"law": label, "check": name, "status": status, "value": value})

        check("mean-zero", _verdict("mean"), report.mean)
        check("unit-variance", _verdict("variance"), report.variance)
        check("finite-exponential-moment",
              "PASS" if report.exp_moment_finite else "FAIL")
        check("third-abs-moment", "INFO", report.third_abs_moment)
        if report.passed:
            seeds = tuple(
                derive_seed(cfg.master_seed, "norm-sample", idx, k)
                for k in range(cfg.norm_samples)
            )
            diag = condition_diagnostics(
                law, cfg.n_particles, gamma=cfg.gamma, eps=cfg.eps, seeds=seeds,
            )
            # diagnostics sample at beta = 1, so these are N^{-1/2} ||J||
            raw = np.asarray(diag.norm_samples)
            check("norm-concentration",
                  "PASS" if np.all((raw >= 1.8) & (raw <= 2.3)) else "FAIL",
                  float(raw.max()))
            check("mgf-bounded", "TREND", diag.mgf_sup)
            check("third-moment-scaling", "TREND", diag.third_moment_scaled)
            for k, (seed, value) in enumerate(zip(seeds, diag.norm_samples)):
                scaled = cfg.beta * value
                exact = PowerIterationReport(scaled, scaled, scaled, residual=0.0,
                                             iterations=0, restarted=False)
                summary.norms.append(
                    _norm_row(cfg, label, cfg.n_particles, k, seed, exact))
        else:
            check("norm-concentration", "SKIPPED (law failed moment checks)")
        for note in report.notes:
            check("note", "INFO", note)


@_command("lindeberg")
def run_lindeberg_suite(cfg, summary, out, threads, store_paths):
    """Certificate suite plus Gaussian-identity Monte Carlo cross-checks.

    Any instance whose exact two-route difference exceeds its bound beyond
    tolerance fails the whole suite, naming the instance seed."""
    cert = certificate_suite(
        n_instances=cfg.lindeberg_instances, master_seed=cfg.master_seed,
        beta=cfg.beta, horizon=cfg.horizon, s_bound=cfg.s_bound,
    )
    mc = gaussian_mc_check(
        n_instances=cfg.gaussian_check_instances,
        n_samples=cfg.gaussian_check_samples, master_seed=cfg.master_seed,
        beta=cfg.beta, horizon=cfg.horizon, s_bound=cfg.s_bound,
    )

    rows = [("certificate", r.index, r.seed, r.kappa, r.n,
             r.abs_diff, r.bound, r.slack, r.passed) for r in cert]
    rows += [("gaussian-mc", r.index, r.seed, r.kappa, r.n,
              r.exact, r.mc_estimate, r.mc_stderr, r.passed) for r in mc]
    worst_ratio = max([0.0] + [r.abs_diff / r.bound for r in cert if r.bound > 0])

    summary.lindeberg = {
        "rows": rows,
        "certificate_pass": sum(1 for r in cert if r.passed),
        "certificate_total": len(cert),
        "gaussian_mc_pass": sum(1 for r in mc if r.passed),
        "gaussian_mc_total": len(mc),
        "worst_slack_ratio": worst_ratio,
    }

    bad = next((r for r in cert if not r.passed), None)
    if bad is not None:
        return NumericalFailure(
            f"comparison certificate violated on instance {bad.index} "
            f"(seed {bad.seed}): |diff| {bad.abs_diff!r} vs bound {bad.bound!r}"
        )
    bad = next((r for r in mc if not r.passed), None)
    if bad is not None:
        return NumericalFailure(
            f"gaussian identity cross-check failed on instance {bad.index} "
            f"(seed {bad.seed}): z = {bad.z_score!r}"
        )
    return None


@_command("simulate")
def run_simulate(cfg, summary, out, threads, store_paths):
    """Plain ensemble runs at the configured size, one row block per law.

    Each replica is a single full-dynamics run (no thermal averaging);
    Brownian streams are shared across laws replica-by-replica.
    """
    params = _params(cfg, cfg.n_particles)
    summary.seed_provenance["schemes"] = dict(
        _SEED_SCHEMES, brownian="stream replica index = replica (single sample)",
    )

    for idx, (law, label) in enumerate(zip(cfg.law_objs(), cfg.law_labels())):
        block, _, _, norm_rows = _curve_block(
            cfg, summary, params, law, idx, label, threads, samples=1,
            store=out if store_paths else None,
        )
        summary.autocorr.append(block)
        summary.norms.extend(norm_rows)


def replay(
    run_dir: str | Path,
    law: str,
    replica: int,
    particle: int | None = None,
    n: int | None = None,
    sample: int = 0,
) -> dict:
    """Re-derive one trajectory from a finished run directory.

    Reads config.json, re-checks the config hash recorded in summary.json,
    re-simulates the requested (law, N, replica, sample), and compares
    against the stored path when the run kept trajectories.  Returns a
    dict with the values, the fingerprint, and the match verdict; a stored
    path that fails to match raises NumericalFailure.
    """
    run_dir = Path(run_dir)
    try:
        stored_cfg = json.loads((run_dir / "config.json").read_text())
        stored_summary = json.loads((run_dir / "summary.json").read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read run directory {run_dir}: {exc}") from exc

    cfg = load_config(overrides=stored_cfg)
    if cfg.config_hash() != stored_summary.get("config_hash"):
        raise NumericalFailure(
            f"config hash mismatch in {run_dir}: recomputed "
            f"{cfg.config_hash()} vs stored {stored_summary.get('config_hash')}"
        )

    labels = cfg.law_labels()
    if law not in labels:
        raise ConfigError(f"law {law!r} not in this run (has {labels})")
    idx = labels.index(law)
    n = cfg.n_particles if n is None else n
    command = stored_summary.get("command")
    replicas = cfg.freeze_replicas if command == "freeze-sweep" else cfg.replicas
    if not 0 <= replica < replicas:
        raise ConfigError(
            f"replica {replica} out of range ({command} drew {replicas})")
    samples = 1 if command == "simulate" else cfg.thermal_samples
    if not 0 <= sample < samples:
        raise ConfigError(f"sample {sample} out of range (run kept {samples})")

    seed, mat = _disorder(cfg, cfg.law_objs()[idx], idx, n, replica)
    ens = _guarded(simulate_full, law, n, replica,
                   _params(cfg, n), cfg.potential_obj(), mat, cfg.initial_obj(),
                   replica=replica * samples + sample)

    fingerprint = hashlib.sha256(np.ascontiguousarray(ens.values).tobytes())
    result = {
        "law": law, "n": n, "replica": replica, "sample": sample,
        "disorder_seed": seed, "fingerprint": fingerprint.hexdigest(),
        "stored_path": None, "matches_stored": None,
    }
    if particle is not None:
        if not 0 <= particle < n:
            raise ConfigError(f"particle {particle} out of range for N={n}")
        result["particle_values"] = ens.values[particle]

    stored = _path_file(run_dir, law, n, replica)
    if sample == 0 and stored.exists():
        reference = np.load(stored)
        result["stored_path"] = str(stored)
        result["matches_stored"] = bool(np.array_equal(reference, ens.values))
        if not result["matches_stored"]:
            raise NumericalFailure(
                f"replayed trajectory does not match stored {stored}"
            )
    result["values"] = ens.values
    return result
