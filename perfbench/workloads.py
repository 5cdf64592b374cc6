"""The benchmark's workloads, how one operation runs, and the output checks.

An operation is one CLI command, run in-process through ``spinlab.cli.main``
so its exit code counts, or one ``spinlab.harness.replay`` call.  It fails
if it raises, exits non-zero, or its output fails a check below.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Command:
    command: str
    threads: int = 1
    store_paths: bool = False

    @property
    def label(self) -> str:
        return self.command


@dataclass(frozen=True)
class Replay:
    source: str
    law: str
    replica: int
    n: int

    @property
    def label(self) -> str:
        return f"replay:{self.law}:{self.replica}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    ops: tuple
    # Run the commands once at this thread count first; every repetition's
    # CSV bytes must then equal that run's.
    reference_threads: int | None = None


def _replays(source: str, laws, replicas, n: int) -> tuple:
    return tuple(Replay(source, law, r, n) for law in laws for r in replicas)


WORKLOADS = {w.name: w for w in (
    Workload(
        "universality-small-n",
        "many replicas at N in {25, 50}, 1 thread: per-step Python overhead in "
        "dynamics is a large share, where a batched-replica integrator would show",
        {"n_sweep": [25, 50], "replicas": 40},
        (Command("universality"),),
    ),
    Workload(
        "universality-large-n",
        "validate, then N = 200 with stored paths, then replays: dense norm and "
        "matrix work, stream constructions, persistence and replay dominate",
        {"n_sweep": [200], "replicas": 16, "phi_replicas": 8},
        (Command("validate"), Command("universality", store_paths=True))
        + _replays("universality", ("gaussian", "rademacher", "gaussian@2"),
                   (0, 15), 200),
    ),
    Workload(
        "freeze-sweep-2t",
        "the only path through the worker pool and the coupled full/frozen "
        "integrator; bytes must equal a 1-thread run",
        {"freeze_replicas": 30},
        (Command("freeze-sweep", threads=2),),
        reference_threads=1,
    ),
    Workload(
        "lindeberg",
        "500-instance certificate plus 8 Gaussian-MC instances: long sequential "
        "stream reads, no norm and no integrator",
        {"gaussian_check_instances": 8, "gaussian_check_samples": 800_000},
        (Command("lindeberg"),),
    ),
)}


@dataclass
class OpResult:
    label: str
    error: str | None = None
    checks: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    value: object = None

    @property
    def failed(self) -> bool:
        return self.error is not None or not all(self.checks.values())


def fail_frac(results) -> float:
    """Failed operations over attempted operations."""
    results = list(results)
    if not results:
        raise ValueError("no operations were attempted")
    return sum(r.failed for r in results) / len(results)


def run_op(op, cli_main, replay, config_path: Path, rep_dir: Path,
           threads: int | None = None) -> OpResult:
    """Run one operation; ``threads`` overrides a command's thread count."""
    result = OpResult(op.label)
    if isinstance(op, Replay):
        try:
            result.value = replay(rep_dir / op.source, op.law, op.replica, n=op.n)
        except Exception as exc:  # a failed operation is counted, not fatal
            result.error = f"{type(exc).__name__}: {exc}"
        return result
    argv = [op.command, "--config", str(config_path), "--out",
            str(rep_dir / op.label), "--threads", str(threads or op.threads)]
    if op.store_paths:
        argv.append("--store-paths")
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        result.error = f"{type(exc).__name__}: {exc}"
        return result
    if code != 0:
        result.error = f"exit code {code}: {err.getvalue().strip()}"
    return result


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def csv_digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}


def output_bytes(rep_dir: Path) -> int:
    """Bytes of every output file except summary.json, whose timestamp and
    wall-clock fields change length from run to run."""
    return sum(p.stat().st_size for p in rep_dir.rglob("*")
               if p.is_file() and p.name != "summary.json")


def structural_checks(op, cfg, rep_dir: Path, result: OpResult) -> dict:
    """Seed-independent checks of one operation's output."""
    if isinstance(op, Replay):
        matches = result.value is not None and result.value["matches_stored"] is True
        return {"replay matches the stored path": matches}
    out = rep_dir / op.label
    checks = {}
    try:
        if op.command == "universality":
            blocks = len(cfg.laws) * len(cfg.n_sweep)
            checks["autocorr.csv has one row per (law, N, t)"] = (
                len(_rows(out / "autocorr.csv")) == blocks * (cfg.total_steps() + 1))
            checks["gaps.csv has one row per (other law, N)"] = (
                len(_rows(out / "gaps.csv")) == (len(cfg.laws) - 1) * len(cfg.n_sweep))
            checks["norms.csv has one row per (law, N, replica)"] = (
                len(_rows(out / "norms.csv")) == blocks * cfg.replicas)
        elif op.command == "freeze-sweep":
            kappas = [int(r[0]) for r in _rows(out / "freeze.csv")]
            checks["freeze.csv has one row per kappa"] = kappas == list(cfg.kappa_sweep)
        elif op.command == "lindeberg":
            rows = _rows(out / "lindeberg.csv")
            cert = [r for r in rows if r[0] == "certificate"]
            mc = [r for r in rows if r[0] == "gaussian-mc"]
            checks["every certificate row passes"] = (
                len(cert) == cfg.lindeberg_instances and all(r[-1] == "1" for r in cert))
            checks["every gaussian-mc row passes"] = (
                len(mc) == cfg.gaussian_check_instances and all(r[-1] == "1" for r in mc))
        elif op.command == "validate":
            summary = json.loads((out / "summary.json").read_text())
            checks["validation table has no FAIL"] = bool(summary["validation"]) and all(
                row["status"] != "FAIL" for row in summary["validation"])
            checks["norms.csv has one row per (law, norm sample)"] = (
                len(_rows(out / "norms.csv")) == len(cfg.laws) * cfg.norm_samples)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        checks[f"{op.label} output readable ({type(exc).__name__})"] = False
    return checks


def check_rep(workload: Workload, cfg, rep_dir: Path, results, reference,
              recorded) -> None:
    """Attach checks and CSV digests to one repetition's results.

    ``reference`` maps an op label to the digests every repetition must
    reproduce; ``recorded`` does the same for digests recorded from the
    unmodified code at the default seed, or is None at other seeds.
    """
    for op, result in zip(workload.ops, results):
        if result.error is not None:
            continue
        result.checks.update(structural_checks(op, cfg, rep_dir, result))
        if isinstance(op, Replay):
            continue
        result.digests = csv_digests(rep_dir / op.label)
        if reference is not None:
            result.checks["csv bytes equal the reference run"] = (
                result.digests == reference.get(op.label))
        if recorded is not None:
            result.checks["csv bytes equal the recorded digests"] = (
                result.digests == recorded.get(op.label))
