"""Reproducibility from the command line: byte-identical reruns and replay.

Drives the installed CLI entry point in-process.  Two runs of the same
config and seed must produce byte-identical CSVs, and any stored
trajectory can be re-derived later from config.json alone.
"""

import json
import tempfile
from pathlib import Path

from spinlab.cli import main

cfg = {
    "n_particles": 12,
    "horizon": 1.0,
    "kappa": 4,
    "substeps": 5,
    "laws": ["gaussian", "rademacher"],
    "replicas": 6,
    "n_sweep": [8, 12],
    "thermal_samples": 1,
    "phi_replicas": 2,
    "bootstrap_resamples": 50,
    "master_seed": 424242,
}

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    cfg_path = tmp / "experiment.json"
    cfg_path.write_text(json.dumps(cfg, indent=2))

    print(">>> spinlab universality, run twice")
    for sub in ("run-a", "run-b"):
        code = main([
            "universality", "--config", str(cfg_path),
            "--out", str(tmp / sub), "--store-paths",
        ])
        assert code == 0

    for name in ("autocorr.csv", "gaps.csv", "norms.csv"):
        a = (tmp / "run-a" / name).read_bytes()
        b = (tmp / "run-b" / name).read_bytes()
        print(f"{name}: {len(a)} bytes, identical across reruns: {a == b}")

    print("\n>>> spinlab replay of a stored trajectory")
    code = main([
        "replay", str(tmp / "run-a"),
        "--law", "rademacher", "--replica", "3", "--n", "12", "--particle", "0",
    ])
    assert code == 0

    print("\n>>> tampering with config.json must be caught")
    doc = json.loads((tmp / "run-a" / "config.json").read_text())
    doc["master_seed"] += 1
    (tmp / "run-a" / "config.json").write_text(json.dumps(doc))
    code = main([
        "replay", str(tmp / "run-a"), "--law", "rademacher", "--replica", "3",
    ])
    print(f"replay exit code after tamper: {code} (2 = numerical failure)")
