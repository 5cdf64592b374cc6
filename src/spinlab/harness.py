"""Experiment orchestration: sweeps, persistence, and replay.

Every command materializes an output directory holding ``config.json``
(the fully resolved configuration), ``summary.json`` (scalars, seed
provenance, and a timestamp), and fixed-schema CSV files.  All randomness
derives from the master seed through named sha256 streams, so re-running a
command with the same config and seed reproduces every CSV byte for byte;
the timestamp and wall-clock fields live only in the summary.  Replicas run
serially in one process; counter-addressed streams make each replica's
result independent of the order they run in and of which replicas share a
stack.

Each ``run_*`` command is a body inside one frame, ``_command``, which owns
the clock, the ``RunSummary`` and persistence: the body writes into a
fresh sibling directory that replaces the output directory only when the
run has persisted, so a failed run leaves an older run there intact.
Shared decisions have one owner each: ``_params``, ``_disorder`` (a
draw, which carries its seed), ``_norm_row``, ``_named`` (names the draw
behind a failure), ``_TABLES`` (CSV schemas), ``_sweep_runs`` (the freeze
sweep's runs, integrated by the sweep and by replay), ``_path_file``
(stored-trajectory names, used by store and replay) and
``_store_ensembles`` (writes every stored trajectory).  Every
command that integrates runs its draws through one loop, ``_each_block``,
which draws each block of a range of replicas, norms it and hands it to
the command's body, which integrates every run on every replica of the
block through ``dynamics.simulate_shared``; replay integrates its one
draw through the same call.  The seed
derivation schemes are listed once, in ``_SEED_SCHEMES``, which each
summary records.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import io
import json
import os
import secrets
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import disorder
from .config import ConfigError, ExperimentConfig, load_config, read_json_object
from .disorder import (
    PowerIterationReport,
    StandardGaussian,
    condition_diagnostics,
    operator_norm_reports,
    sample_matrix,
    validate_law,
)
from .dynamics import coupling_stats, envelope_violated, simulate_shared
from .lindeberg import certificate_suite, gaussian_mc_check
from .model import ModelParams, NumericalFailure, grid_times, max_negative_curvature
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


def _strict(value):
    # a non-finite float as its string ("inf"), so summary.json stays strict JSON
    return str(value) if isinstance(value, float) and not np.isfinite(value) else value


def _write_json(path: Path, payload: dict) -> None:
    # strict JSON: a non-finite float raises instead of writing Infinity
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                               default=_json_default) + "\n")


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


def _replaceable(out: Path) -> Path:
    """``out`` as an absolute path, checked to be absent, empty, or a
    finished run (one with a ``summary.json``) that a new run may replace."""
    target = Path(os.path.abspath(out))
    if not target.name:
        raise ConfigError(f"output directory {out} has no name")
    if target.exists() and not target.is_dir():
        raise ConfigError(f"output path {out} exists and is not a directory")
    if (target.is_dir() and any(target.iterdir())
            and not (target / "summary.json").is_file()):
        raise ConfigError(f"output directory {out} holds files but no run "
                          "(no summary.json); it would be replaced")
    return target


def _publish(work: Path, out: Path) -> None:
    """Rename the finished ``work`` directory onto ``out``, moving an
    older run there aside first and deleting it after."""
    if not out.exists():
        os.replace(work, out)
        return
    aside = work.with_name(work.name + ".old")
    os.replace(out, aside)
    os.replace(work, out)
    shutil.rmtree(aside)


def _command(name: str, stores: bool = True):
    """Frame ``body(cfg, summary, out, store_paths)`` as a command; one
    that integrates nothing (``stores`` False) refuses ``store_paths``.

    The body writes into a fresh sibling of the output directory, which
    replaces the output directory (and any older run in it) only once
    everything is persisted; a run that raises leaves the output directory
    as it was and removes its partial files.  The body fills ``summary``
    and may return a NumericalFailure, raised only after persisting, so a
    failed certificate still leaves its table.
    """
    def frame(body):
        def run(cfg: ExperimentConfig, store_paths: bool = False,
                out_dir: str | Path | None = None) -> RunSummary:
            if store_paths and not stores:
                raise ConfigError(f"{name} integrates no trajectories to store")
            t0 = time.perf_counter()
            out = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
            target = _replaceable(out)
            try:
                target.parent.mkdir(parents=True, exist_ok=True)
            except OSError as exc:  # e.g. a regular file on the way
                raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
            work = target.with_name(f".{target.name}.partial-{secrets.token_hex(6)}")
            work.mkdir()
            try:
                summary = RunSummary(
                    name, cfg.config_hash(), cfg.master_seed, 0.0,
                    _dt.datetime.now(_dt.timezone.utc).isoformat(), str(out),
                    {"master_seed": cfg.master_seed, "schemes": _SEED_SCHEMES},
                )
                # a float operation past its range, or undefined, fails the run
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    failure = body(cfg, summary, work, store_paths)
                summary.wall_clock_seconds = time.perf_counter() - t0
                _persist(cfg, summary, work)
                _publish(work, target)
            except BaseException:
                shutil.rmtree(work, ignore_errors=True)
                raise
            if failure is not None:
                raise failure
            return summary

        run.__name__ = run.__qualname__ = body.__name__
        run.__doc__ = body.__doc__
        return run

    return frame


def _path_file(run_dir, label: str, rep: int, params: ModelParams, frozen=False) -> Path:
    """Stored path of draw ``rep`` on the run ``(params, frozen)``: a full
    run's is ``{label}_N{n}_rep{r}.npy``, a frozen one's ``{label}_N{n}_k{kappa}_rep{r}.npy``."""
    kappa = f"_k{params.kappa}" if frozen else ""
    return Path(run_dir) / "paths" / f"{label}_N{params.n_particles}{kappa}_rep{rep}.npy"


def _store_ensembles(out_dir: Path, stored) -> None:
    """Save each ``(ensemble, label, rep, params[, frozen])`` of ``stored``
    under its ``_path_file`` name."""
    (out_dir / "paths").mkdir(parents=True, exist_ok=True)
    for ens, *name in stored:
        np.save(_path_file(out_dir, *name), ens.values)


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


def _sweep_runs(cfg: ExperimentConfig, n: int) -> list:
    """The freeze sweep's runs at size n: the full run, then one frozen run
    per ``kappa_sweep`` entry, each kappa checked against the total grid."""
    sweep = [_params(cfg, n, kappa) for kappa in cfg.kappa_sweep]
    return [(sweep[0], False)] + [(params, True) for params in sweep]


def _disorder(cfg: ExperimentConfig, law, law_idx: int, n: int, rep: int):
    """Disorder draw ``rep`` for one (law, N); it carries its seed."""
    return sample_matrix(law, n, derive_seed(cfg.master_seed, "disorder", law_idx, n, rep))


def _norm_row(cfg: ExperimentConfig, label: str, n: int, rep: int, seed: int,
              report: PowerIterationReport) -> dict:
    return {
        "law": label, "n": n, "replica": rep, "seed": seed, "norm": report.value,
        "lower": report.lower, "upper": report.upper,
        "iterations": report.iterations, "restarted": report.restarted,
        "a2_event": report.upper <= cfg.a2,
    }


@contextmanager
def _named(draws, n: int):
    """Append the failing draw to a NumericalFailure's message, as
    ``draws[member]`` = (law label, replica) at size ``n``, or to a float
    error's, which has no member, the N and replicas of all of ``draws``.
    The exception keeps its type."""
    try:
        yield
    except NumericalFailure as err:
        label, rep = draws[err.member]
        err.args = (f"{err} [law={label}, N={n}, replica={rep}]",)
        raise
    except ArithmeticError as err:
        err.args = (f"{err} [N={n}, replicas {draws[0][1]}-{draws[-1][1]}]",)
        raise


def _reference_index(laws) -> int:
    for idx, law in enumerate(laws):
        if isinstance(law, StandardGaussian):
            return idx
    raise ConfigError("universality needs a gaussian law as the reference")


# ---------------------------------------------------------------------------
# simulation blocks

def _each_block(cfg: ExperimentConfig, laws, labels, n: int, reps: range,
                normed: bool, body) -> None:
    """Draw the replicas ``reps`` of each law at size ``n`` in blocks of as
    many as fit in ``disorder._STACK_BYTES`` (at least one), norm each
    block in one ``operator_norm_reports`` call when ``normed``, then call
    ``body(reps, mats, rows)`` with ``mats[k]`` replica ``reps[k]``'s
    matrices and ``rows`` the norm rows (none unless ``normed``), each
    replica-major, then law, the member order of a stack over them.  The
    block runs under ``_named``."""
    block = max(1, disorder._STACK_BYTES // (len(laws) * n * n * 8))
    for first in range(reps.start, reps.stop, block):
        block_reps = range(first, min(first + block, reps.stop))
        with _named([(label, rep) for rep in block_reps for label in labels], n):
            mats = [[_disorder(cfg, law, idx, n, rep) for idx, law in enumerate(laws)]
                    for rep in block_reps]
            draws = [(label, rep, mat) for rep, rep_mats in zip(block_reps, mats)
                     for label, mat in zip(labels, rep_mats)]
            reports = operator_norm_reports([mat for *_, mat in draws],
                                            beta=cfg.beta) if normed else []
            body(block_reps, mats, [_norm_row(cfg, label, n, rep, mat.seed, report)
                                    for (label, rep, mat), report in zip(draws, reports)])


def _curve_block(cfg: ExperimentConfig, summary: RunSummary, params: ModelParams,
                 samples: int, store: Path | None, phi_draws: int = 0):
    """Thermal-averaged autocorrelation per disorder draw, for every law at
    one N.

    The draws run through ``_each_block`` in at most two segments, cut
    where their role changes: the first ``replicas`` are normed and
    integrate the full run at every thermal sample, and the first
    ``phi_draws`` integrate the frozen run at sample 0 and report its
    interaction tilt.  Each thermal sample of a block integrates its
    (replica, law) members as one stack in one ``simulate_shared`` call,
    each replica on its own noise.  Adds the autocorr blocks, norm rows
    (both law-major, then in ``n_sweep`` and replica order) and the full
    runs' safeguard activations to ``summary``.  Returns, per law,
    curves[replicas, G+1], the pool of the sample-0 full runs' particles
    (``replicas * N`` rows), saved under ``store`` when the run keeps
    paths, and the phis.
    """
    laws, labels = cfg.law_objs(), cfg.law_labels()
    potential = cfg.potential_obj()
    initial = cfg.initial_obj()
    n = params.n_particles
    width = params.n_steps + 1
    curves = np.zeros((len(laws), cfg.replicas, width))
    # every replica's sample-0 full paths are integrated in place here, one
    # array per law
    paths0 = [np.empty((cfg.replicas, n, width)) for _ in laws]
    phis = [[] for _ in laws]

    def integrate(reps, mats, rows):
        # one block, all of one role; its paths are released on return
        curve, tilt = reps.start < cfg.replicas, reps.start < phi_draws
        summary.norms.extend(rows)
        for s in range(samples if curve else 1):
            runs = [(params, False)] * curve + [(params, True)] * (tilt and s == 0)
            out = None if s or not curve else [law_paths[reps.start:reps.stop]
                                               for law_paths in paths0]
            paths = simulate_shared(runs, potential, mats, initial,
                                    replicas=[rep * samples + s for rep in reps], out=out)
            for rep, rep_mats, rep_paths in zip(reps, mats, paths):
                for idx, law_paths in enumerate(rep_paths):
                    if tilt and s == 0:
                        phis[idx].append(girsanov_stats(
                            law_paths.pop(), rep_mats[idx], potential, c1=cfg.c1).phi)
                    if curve:
                        ens = law_paths[0]
                        curves[idx, rep] += autocorrelation(ens)
                        summary.safeguard_activations += ens.safeguard_activations
                if curve and s == 0 and store is not None:
                    _store_ensembles(store, [(law_paths[0], label, rep, params)
                                             for label, law_paths in zip(labels, rep_paths)])
        curves[:, reps.start:reps.stop] /= samples

    shared = min(cfg.replicas, phi_draws)
    for segment in (range(shared), range(shared, max(cfg.replicas, phi_draws))):
        _each_block(cfg, laws, labels, n, segment, segment.start < cfg.replicas, integrate)
    summary.autocorr.extend({
        "law": label, "n": n, "replica_count": cfg.replicas,
        "t": grid_times(params), "mean": law_curves.mean(axis=0),
        "stderr": law_curves.std(axis=0, ddof=1) / np.sqrt(cfg.replicas),
    } for label, law_curves in zip(labels, curves))
    # stable sorts: within a law, earlier sizes and replicas stay first
    for rows in (summary.autocorr, summary.norms):
        rows.sort(key=lambda row: labels.index(row["law"]))
    pools = [law_paths.reshape(cfg.replicas * n, width) for law_paths in paths0]
    return curves, pools, phis


def _bootstrap_gap(diff: np.ndarray, resamples: int, seed: int):
    """Paired bootstrap of sup_t |mean difference| over disorder draws.

    Returns (sup gap, bootstrap standard error, noise floor).  The floor is
    the 99th percentile of the same statistic after centering each time
    slice, i.e. the distribution of the sup under the no-signal null with
    the observed per-draw covariance.  Resamples are drawn in chunks that
    fit ``diff[idx]`` in ``disorder._STACK_BYTES``; Philox keeps its
    buffered word between calls, so a chunk changes no draw.
    """
    reps = diff.shape[0]
    gap = float(np.abs(diff.mean(axis=0)).max())
    gen = np.random.Generator(np.random.Philox(key=seed))
    centered = diff - diff.mean(axis=0)
    sups, floors = np.empty((2, resamples))
    chunk = max(1, disorder._STACK_BYTES // diff.nbytes)
    for first in range(0, resamples, chunk):
        idx = gen.integers(0, reps, (min(chunk, resamples - first), reps))
        part = slice(first, first + len(idx))
        sups[part] = np.abs(diff[idx].mean(axis=1)).max(axis=1)
        floors[part] = np.abs(centered[idx].mean(axis=1)).max(axis=1)
    return gap, float(sups.std(ddof=1)), float(np.quantile(floors, 0.99))


# ---------------------------------------------------------------------------
# commands

@_command("universality")
def run_universality(cfg, summary, out, store_paths):
    """Disorder-universality sweep over the configured laws and sizes.

    For each N: draws ``replicas`` matrices per law and integrates the full
    dynamics of every law at one replica as one stack on shared Brownian
    streams (same replica index, same increments), averaging each draw's
    autocorrelation over ``thermal_samples`` independent driving samples.
    Non-reference laws get a sup-t gap against the gaussian reference with
    a paired bootstrap standard error and noise floor, its ratio to the
    floor and whether it is ``resolved`` (above a positive floor), plus the
    ``marginal_w2_distance`` of its sorted particle pool to the reference's.
    Each law's tilt median reuses the frozen runs that the first
    ``phi_replicas`` draws integrate alongside their sample-0 full runs,
    and needs each law's third absolute moment.  A
    block's norms run before its laws and replicas integrate as one
    stack, so the first error raised is in block order, norms first,
    then by step, then replica, then law.
    """
    laws = cfg.law_objs()
    labels = cfg.law_labels()
    if len(laws) < 2:
        raise ConfigError("universality needs at least two laws")
    ref_idx = _reference_index(laws)
    undeclared = [label for law, label in zip(laws, labels) if law.third_abs_moment is None]
    if undeclared:
        raise ConfigError("universality's tilt statistic needs each law's third "
                          f"absolute moment; undeclared for {', '.join(undeclared)}")
    store = out if store_paths else None
    gap_rows = []

    for n in cfg.n_sweep:
        curves, pools, phis = _curve_block(cfg, summary, _params(cfg, n),
                                           cfg.thermal_samples, store,
                                           phi_draws=cfg.phi_replicas)
        ref_pool = pools[ref_idx]
        ref_pool.sort(axis=0)
        for idx, (law_curves, pool) in enumerate(zip(curves, pools)):
            if idx == ref_idx:
                continue
            gap, stderr, floor = _bootstrap_gap(
                law_curves - curves[ref_idx], cfg.bootstrap_resamples,
                derive_seed(cfg.master_seed, "bootstrap", idx, n),
            )
            pool.sort(axis=0)
            gap_rows.append({
                "law": labels[idx], "n": n, "sup_gap": gap,
                "sup_gap_stderr": stderr,
                "w2_surrogate": marginal_w2_distance(pool, ref_pool, cfg.horizon),
                "noise_floor": floor,
                # a zero floor (beta = 0) has no ratio and resolves nothing
                "gap_over_floor": gap / floor if floor > 0 else None,
                "resolved": floor > 0 and gap > floor,
            })
        summary.phi_medians.extend(
            {"law": label, "n": n, "phi_median": float(np.median(law_phis))}
            for label, law_phis in zip(labels, phis))
        del pools, ref_pool, pool  # this N's pools go before the next N's fill

    summary.gaps = sorted(gap_rows, key=lambda g: (labels.index(g["law"]), g["n"]))


@_command("freeze-sweep")
def run_freeze_sweep(cfg, summary, out, store_paths):
    """Coupling error of the piecewise-frozen scheme across kappa values.

    The total grid is held fixed at kappa * substeps from the base config,
    so every kappa in the sweep must divide it; each draw integrates the
    coupled pair and reports the mean-square coupling distance plus the
    drift-envelope check (counted on draws where the operator-norm event
    held, and only while the frozen path stays near its sub-interval
    anchors).

    The disorder seed does not depend on kappa, so each draw's matrix,
    norm, noise and full path are computed once and shared by every
    kappa.  Replicas run in blocks through ``_each_block``, which draws
    and norms each block's matrices; then one ``simulate_shared`` call
    integrates each refresh interval once as one stack over the block, and
    a stored run keeps each draw's full path once and its frozen path once
    per kappa.  Outputs are those of one coupled run per (kappa, replica):
    ``norms.csv`` repeats the replica rows once per kappa and the full
    side's safeguard activations count once per kappa.  With several
    failing draws, the first error raised is in block order, norms before
    integration, then by step, then replica.
    """
    law, label = cfg.law_objs()[0], cfg.law_labels()[0]
    potential = cfg.potential_obj()
    initial = cfg.initial_obj()
    n = cfg.n_particles
    c_dd = max_negative_curvature(potential)
    # every kappa is checked against the total grid before any work starts
    runs = _sweep_runs(cfg, n)
    times = grid_times(runs[0][0])  # the same grid at every kappa
    msds = np.empty((len(cfg.kappa_sweep), cfg.freeze_replicas))
    violations = [0] * len(cfg.kappa_sweep)
    norm_rows = []

    def integrate(reps, mats, rows):
        # one block of draws; its paths are released on return
        norm_rows.extend(rows)
        pairs = simulate_shared(runs, potential, mats, initial, replicas=reps)
        for rep, norm_row, ((full, *frozen_runs),) in zip(reps, rows, pairs):
            for k, frozen in enumerate(frozen_runs):
                stats = coupling_stats(full, frozen)
                violations[k] += bool(norm_row["a2_event"] and envelope_violated(
                    stats, times, cfg.a2, c_dd, cfg.rho, n))
                msds[k, rep] = stats.msd
                summary.safeguard_activations += (full.safeguard_activations
                                                  + frozen.safeguard_activations)
            if store_paths:
                _store_ensembles(out, [(ens, label, rep, *run)
                                       for run, ens in zip(runs, [full] + frozen_runs)])

    _each_block(cfg, [law], [label], n, range(cfg.freeze_replicas), True, integrate)

    for kappa, kappa_msds, kappa_violations in zip(cfg.kappa_sweep, msds, violations):
        summary.freeze.append({
            "kappa": kappa, "n": n,
            "msd_mean": float(kappa_msds.mean()),
            "msd_stderr": float(kappa_msds.std(ddof=1) / np.sqrt(len(kappa_msds))),
            "envelope_violations": kappa_violations,
        })
        summary.norms.extend(norm_rows)


_UNDECLARED = "SKIPPED (undeclared)"


@_command("validate", stores=False)
def run_validation(cfg, summary, out, store_paths):
    """Moment checks, growth diagnostics, and norm sampling per law.

    Emits one table row per check.  The four moment rows copy
    ``validate_law``'s verdicts: FAIL for a failed check, else PASS (INFO
    for the third absolute moment, which has no target), or SKIPPED for an
    undeclared exponential moment.  Norm concentration reads PASS/FAIL,
    with the largest sample on PASS and the one farthest outside the band
    on FAIL, and quantities the theory only tracks asymptotically read
    TREND, or SKIPPED when undeclared.  Each failure reason follows once as a ``note`` row.
    """
    for idx, (law, label) in enumerate(zip(cfg.law_objs(), cfg.law_labels())):
        report = validate_law(
            law, seed=derive_seed(cfg.master_seed, "law-validate", idx),
        )

        def check(name, status, value=None):
            summary.validation.append(
                {"law": label, "check": name, "status": status, "value": _strict(value)})

        def verdict(name, passed="PASS"):
            return "FAIL" if name in report.failures else passed

        def trend(value):
            return _UNDECLARED if value is None else "TREND"

        check("mean-zero", verdict("mean-zero"), report.mean)
        check("unit-variance", verdict("unit-variance"), report.variance)
        check("finite-exponential-moment", verdict(
            "finite-exponential-moment",
            _UNDECLARED if report.exp_moment_finite is None else "PASS"))
        check("third-abs-moment", verdict("third-abs-moment", "INFO"),
              report.third_abs_moment)
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
            outside = np.maximum(1.8 - raw, raw - 2.3)  # > 0 outside [1.8, 2.3]
            passed = outside.max() <= 0  # a FAIL shows the sample farthest outside
            check("norm-concentration", "PASS" if passed else "FAIL",
                  float(raw.max() if passed else raw[outside.argmax()]))
            check("mgf-bounded", trend(diag.mgf_sup), diag.mgf_sup)
            check("third-moment-scaling", trend(diag.third_moment_scaled),
                  diag.third_moment_scaled)
            for k, (seed, value) in enumerate(zip(seeds, diag.norm_samples)):
                scaled = cfg.beta * value
                exact = PowerIterationReport(scaled, scaled, scaled, residual=0.0,
                                             iterations=0, restarted=False)
                summary.norms.append(
                    _norm_row(cfg, label, cfg.n_particles, k, seed, exact))
        else:
            check("norm-concentration", "SKIPPED (law failed moment checks)")
        for name, reasons in report.failures.items():
            for reason in reasons:
                check("note", "INFO", f"{name}: {reason}")
        for note in report.notes:
            check("note", "INFO", note)


@_command("lindeberg", stores=False)
def run_lindeberg_suite(cfg, summary, out, store_paths):
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
    rows = [tuple(map(_strict, row)) for row in rows]
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
        what = "violated" if np.isfinite(bad.bound) else "has no finite bound"
        return NumericalFailure(
            f"comparison certificate {what} on instance {bad.index} "
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
def run_simulate(cfg, summary, out, store_paths):
    """Plain ensemble runs at the configured size, one row block per law.

    Each replica is a single full-dynamics run (no thermal averaging);
    Brownian streams are shared across laws replica-by-replica, and the
    laws of a block of replicas are integrated as one stack.
    """
    summary.seed_provenance["schemes"] = dict(
        _SEED_SCHEMES, brownian="stream replica index = replica (single sample)",
    )
    _curve_block(cfg, summary, _params(cfg, cfg.n_particles), samples=1,
                 store=out if store_paths else None)


def replay(
    run_dir: str | Path,
    law: str,
    replica: int,
    particle: int | None = None,
    n: int | None = None,
    sample: int = 0,
) -> dict:
    """Re-derive one trajectory from a finished run directory.

    Re-checks the config hash recorded in summary.json, then integrates
    the requested (law, N, replica, sample) on the command's own runs: the
    full run, and for a freeze sweep each kappa's frozen run too.  If the
    run kept paths (``paths/`` exists) and the sample is 0, each run's file
    must hold the bytes ``np.save`` writes for the replayed path; a file
    missing or differing raises NumericalFailure naming it.  A trajectory
    the command never ran raises ConfigError.  Returns the full path's
    values and fingerprint, ``stored_paths`` (every file compared) and
    ``matches_stored`` (True, or None when no file was compared).
    """
    run_dir = Path(run_dir)
    stored_cfg, stored_summary = (read_json_object(run_dir / name, "run directory file")
                                  for name in ("config.json", "summary.json"))

    cfg = load_config(overrides=stored_cfg)
    if cfg.config_hash() != stored_summary.get("config_hash"):
        raise NumericalFailure(f"config hash mismatch in {run_dir}: recomputed {cfg.config_hash()}"
                               f" vs stored {stored_summary.get('config_hash')}")

    command = stored_summary.get("command")
    if command not in ("simulate", "universality", "freeze-sweep"):
        raise ConfigError(f"a {command} run has no trajectories to replay")
    # freeze-sweep runs only its first law, and universality alone sweeps N
    labels = cfg.law_labels()[:1] if command == "freeze-sweep" else cfg.law_labels()
    if law not in labels:
        raise ConfigError(f"law {law!r} not in this run (has {labels})")
    idx = labels.index(law)
    n = cfg.n_particles if n is None else n
    sizes = list(cfg.n_sweep) if command == "universality" else [cfg.n_particles]
    if n not in sizes:
        raise ConfigError(f"N={n} not in this run ({command} ran N in {sizes})")
    replicas = cfg.freeze_replicas if command == "freeze-sweep" else cfg.replicas
    if not 0 <= replica < replicas:
        raise ConfigError(f"replica {replica} out of range ({command} drew {replicas})")
    samples = cfg.thermal_samples if command == "universality" else 1
    if not 0 <= sample < samples:
        raise ConfigError(f"sample {sample} out of range (run kept {samples})")
    if particle is not None and not 0 <= particle < n:
        raise ConfigError(f"particle {particle} out of range for N={n}")

    runs = _sweep_runs(cfg, n) if command == "freeze-sweep" else [(_params(cfg, n), False)]
    mat = _disorder(cfg, cfg.law_objs()[idx], idx, n, replica)
    with _named([(law, replica)], n):
        ensembles = simulate_shared(runs, cfg.potential_obj(), [[mat]], cfg.initial_obj(),
                                    replicas=[replica * samples + sample])[0][0]

    stored = []
    if sample == 0 and (run_dir / "paths").is_dir():
        for run, ens in zip(runs, ensembles):
            path = _path_file(run_dir, law, replica, *run)
            if not path.is_file():
                raise NumericalFailure(f"stored trajectory {path} is missing")
            replayed = io.BytesIO()
            np.save(replayed, ens.values)
            if path.read_bytes() != replayed.getvalue():
                raise NumericalFailure(f"replayed trajectory does not match stored {path}")
            stored.append(str(path))
    values = ensembles[0].values
    result = {
        "law": law, "n": n, "replica": replica, "sample": sample,
        "disorder_seed": mat.seed, "values": values,
        "fingerprint": hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest(),
        "stored_paths": stored, "matches_stored": True if stored else None,
    }
    if particle is not None:
        result["particle_values"] = values[particle]
    return result
