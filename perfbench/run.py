"""Benchmark for spinlab: one named workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a source checkout and imports ``spinlab`` from its
``src/``.  The seed reaches the program only as the config's master_seed.
With ``--trace 0`` the workload repeats untraced until ``--seconds`` are
used and the end-to-end metrics are medians over the repetitions.  With
``--trace 1`` untraced and traced repetitions alternate; the per-layer
metrics come from the traced ones.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 31416  # ExperimentConfig's default master_seed
SETUP_SAMPLES = 3
INPUTS = 5  # distinct master seeds per run, derived from --seed

sys.path.insert(0, str(ROOT))
from perfbench import instrument, spans, workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "disorder.norm.calls": "count",
    "disorder.norm.self_s": "s",
    "disorder.norm.iterations": "count",
    "disorder.norm.restart_frac": "ratio",
    "disorder.norm.p50_ms": "ms",
    "disorder.norm.p90_ms": "ms",
    "disorder.sample_matrix.calls": "count",
    "disorder.sample_matrix.self_s": "s",
    "streams.raw.calls": "count",
    "streams.words": "count",
    "streams.self_s": "s",
    "dynamics.simulate.calls": "count",
    "dynamics.simulate.self_s": "s",
    "dynamics.particle_steps": "count",
    "dynamics.ns_per_particle_step": "ns",
    "dynamics.safeguard_activations": "count",
    "observables.self_s": "s",
    "lindeberg.certificate.self_s": "s",
    "lindeberg.mc.self_s": "s",
    "lindeberg.mc.samples": "count",
    "harness.self_s": "s",
    "harness.cpu_per_wall": "ratio",
    "harness.persist_s": "s",
    "harness.bytes_written": "bytes",
    "harness.replay.calls": "count",
    "harness.replay.self_s": "s",
    "config.load_s": "s",
    "model.self_s": "s",
    "trace_overhead_frac": "ratio",
}

_SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import spinlab
spinlab.load_config(sys.argv[2])
print(time.perf_counter() - t0)
"""


def _import_spinlab():
    # SPINLAB_SEED would beat the config's master_seed in the CLI.
    os.environ.pop("SPINLAB_SEED", None)
    sys.path.insert(0, str(SRC))
    import spinlab
    import spinlab.cli
    import spinlab.harness

    if not Path(spinlab.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"spinlab came from {spinlab.__file__}, not {SRC}")
    return spinlab


def measure_setup(config_path: Path) -> list[float]:
    """Import spinlab and resolve the config in fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), str(config_path)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def _cpu_seconds() -> float:
    """CPU of this process (all threads) and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def input_seed(seed: int, index: int) -> int:
    """master_seed of input ``index`` of a run: the seed itself, then hashes."""
    if index == 0:
        return seed
    digest = hashlib.sha256(f"perfbench|{seed}|{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class Bench:
    """One workload over INPUTS configs derived from one seed."""

    def __init__(self, workload, seed: int, spinlab):
        self.workload = workload
        self.spinlab = spinlab
        self.dir = OUT / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.configs = []
        for index in range(INPUTS):
            path = self.dir / f"config{index}.json"
            path.write_text(json.dumps(
                {**workload.config, "master_seed": input_seed(seed, index)}, indent=2))
            self.configs.append(path)
        # the structural checks depend on the config but not on its seed
        self.cfg = spinlab.load_config(self.configs[0])
        self.recorded = None
        if seed == DEFAULT_SEED and DIGESTS.exists():
            self.recorded = json.loads(DIGESTS.read_text()).get(workload.name, {})
        self.reference: dict[int, dict] = {}
        self.results: list = []

    def _ops(self, index: int, rep_dir: Path, tracer=None, threads=None) -> list:
        run = self.spinlab.cli.main, self.spinlab.harness.replay
        out = []
        for op in self.workload.ops:
            args = (op, *run, self.configs[index], rep_dir, threads)
            if tracer is None:
                out.append(workloads.run_op(*args))
            else:
                out.append(tracer.call("bench.op", workloads.run_op, args, {}))
        return out

    def _check(self, index: int, rep_dir: Path, results) -> None:
        workloads.check_rep(self.workload, self.cfg, rep_dir, results,
                            self.reference.get(index),
                            self.recorded if index == 0 else None)
        self.reference.setdefault(
            index, {r.label: r.digests for r in results if r.digests})
        self.results.extend(results)

    def reference_run(self) -> None:
        rep_dir = self.dir / "reference"
        results = self._ops(0, rep_dir, threads=self.workload.reference_threads)
        self._check(0, rep_dir, results)

    def rep(self, index: int, tracer=None) -> dict:
        """One timed pass over the workload's operations, then its checks."""
        rep_dir = self.dir / ("traced" if tracer else "rep")
        shutil.rmtree(rep_dir, ignore_errors=True)
        rep_dir.mkdir()
        if tracer is None:
            t0, c0 = time.perf_counter(), _cpu_seconds()
            results = self._ops(index, rep_dir)
            wall, cpu = time.perf_counter() - t0, _cpu_seconds() - c0
        else:
            with instrument.traced(tracer):
                t0 = time.perf_counter()
                results = self._ops(index, rep_dir, tracer)
                wall, cpu = time.perf_counter() - t0, None
        self._check(index, rep_dir, results)
        return {"input": index, "wall_s": wall, "cpu_s": cpu,
                "bytes": workloads.output_bytes(rep_dir)}


def median_of_inputs(reps, key: str) -> float:
    """Median over inputs of each input's median over its repetitions."""
    by_input: dict[int, list] = {}
    for r in reps:
        by_input.setdefault(r["input"], []).append(r[key])
    return statistics.median([statistics.median(v) for v in by_input.values()])


def cpu_per_wall(plain) -> float:
    """Median CPU seconds per wall second over untraced repetitions."""
    return statistics.median([r["cpu_s"] / r["wall_s"] for r in plain])


def trace_overhead(plain, traced) -> float:
    """Median traced wall over median untraced wall, minus one."""
    return (statistics.median([r["wall_s"] for r in traced])
            / statistics.median([r["wall_s"] for r in plain]) - 1.0)


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        record: bool) -> dict:
    spinlab = _import_spinlab()
    workload = workloads.WORKLOADS[workload_name]
    bench = Bench(workload, seed, spinlab)
    if record:
        bench.recorded = None
    setup = measure_setup(bench.configs[0])

    start = time.perf_counter()
    deadline = start + seconds
    if workload.reference_threads is not None:
        bench.reference_run()
    plain, traced, layer_runs = [], [], []
    last_spans = []
    if not trace:
        # Every input runs once whatever the time, so two versions of the
        # program are always compared on the same inputs; spare time repeats
        # them in order.
        while len(plain) < INPUTS or (
                time.perf_counter() + statistics.median([r["wall_s"] for r in plain]) <= deadline):
            plain.append(bench.rep(len(plain) % INPUTS))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        # Input 0 only, so the per-layer counts repeat exactly for a seed.
        cycles = []
        while not cycles or time.perf_counter() + statistics.median(cycles) <= deadline:
            c0 = time.perf_counter()
            plain.append(bench.rep(0))
            if len(plain) == 1:
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            tracer = spans.Tracer()
            traced.append(bench.rep(0, tracer))
            layer = spans.layer_metrics(tracer.spans)
            layer["harness.bytes_written"] = traced[-1]["bytes"]
            layer_runs.append(layer)
            last_spans = tracer.spans
            cycles.append(time.perf_counter() - c0)
    measured_s = time.perf_counter() - start

    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": median_of_inputs(plain, "wall_s"),
        "cpu_s": median_of_inputs(plain, "cpu_s"),
        "peak_rss_mb": rss_mb,
    }
    if trace:
        for name in layer_runs[0]:
            metrics[name] = statistics.median([layer[name] for layer in layer_runs])
        metrics["harness.cpu_per_wall"] = cpu_per_wall(plain)
        metrics["trace_overhead_frac"] = trace_overhead(plain, traced)
        spans.write_spans(last_spans, bench.dir / "spans.csv")

    failed = sum(r.failed for r in bench.results)
    checks: dict[str, list] = {}
    for r in bench.results:
        for name, ok in r.checks.items():
            checks.setdefault(name, []).append(ok)
    report = {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "measured_s": measured_s,
        "metrics": metrics,
        "ops": len(bench.results), "failed": failed,
        "fail_frac": workloads.fail_frac(bench.results),
        "checks": {name: [sum(v), len(v)] for name, v in checks.items()},
        "errors": [f"{r.label}: {r.error}" for r in bench.results if r.error],
        "setup_samples_s": setup,
        "input_seeds": [input_seed(seed, i) for i in range(INPUTS)],
        "rep_wall_s": [[r["input"], r["wall_s"]] for r in plain],
        "traced_wall_s": [r["wall_s"] for r in traced],
        "digests": bench.reference.get(0),
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
    }
    if record:
        if seed != DEFAULT_SEED or failed:
            raise SystemExit("digests are recorded only from a clean run at "
                             f"the default seed {DEFAULT_SEED}")
        stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        stored[workload_name] = bench.reference[0]
        DIGESTS.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
    return report


def _print(report: dict) -> None:
    units = {**END_TO_END, **PER_LAYER}
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}  measured {report['measured_s']:.1f} s")
    for name, value in report["metrics"].items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"  {name:34s} {shown} {units[name]}")
    print(f"  {'ops':34s} {report['ops']:14d} count")
    print(f"  {'fail_frac':34s} {report['fail_frac']:14.6g} ratio")
    for name, (ok, total) in report["checks"].items():
        verdict = "PASS" if ok == total else "FAIL"
        print(f"  check {verdict} {ok}/{total}  {name}")
    for line in report["errors"]:
        print(f"  error {line}")
    names = PER_LAYER if report["trace"] else END_TO_END
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["ops"],
        "failed": report["failed"],
        "metrics": {n: {"value": report["metrics"][n], "unit": names[n]}
                    for n in names},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's CSV digests as the recorded "
                             "ones (default seed only)")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must fit in 64 bits")
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.record_digests)
    except (ImportError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: cannot run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=2) + "\n")
    _print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
