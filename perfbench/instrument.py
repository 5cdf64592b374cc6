"""Wrap spinlab's public functions in spans, from outside the package.

Modules import each other's functions by name (``from .disorder import
sample_matrix``), so a function is replaced wherever a loaded ``spinlab``
module holds it, and the CLI's command table is patched the same way.
Methods are replaced on their class.  Everything is put back on exit.
"""

from __future__ import annotations

import contextlib
import sys


def _ensemble_counts(ensembles) -> dict:
    return {
        "particle_steps": sum(e.params.n_particles * e.params.n_steps for e in ensembles),
        "activations": sum(e.safeguard_activations for e in ensembles),
    }


def _simulated(args, kwargs, result):
    return _ensemble_counts([result])


def _coupled(args, kwargs, result):
    full, frozen, _stats = result
    return _ensemble_counts([full, frozen])


def _norm(args, kwargs, report):
    return {"iterations": report.iterations, "restarted": int(report.restarted)}


def _mc_samples(args, kwargs, rows):
    n_samples = kwargs["n_samples"] if "n_samples" in kwargs else args[1]
    return {"samples": len(rows) * n_samples}


def _words(args, kwargs, block):
    return {"words": len(block)}


def _targets():
    """(owner, attribute, span name, counts) for every traced entry point."""
    m = {name: sys.modules[f"spinlab.{name}"] for name in (
        "config", "streams", "disorder", "dynamics", "observables",
        "lindeberg", "harness", "model")}
    cs, bs = m["streams"].CounterStream, m["streams"].BrownianStream
    return [
        (cs, "__init__", "streams.init", None),
        (cs, "raw", "streams.raw", _words),
        (cs, "uniforms", "streams.read", None),
        (cs, "normals", "streams.read", None),
        (cs, "normal_at", "streams.read", None),
        (cs, "normal_block", "streams.read", None),
        (bs, "increments", "streams.read", None),
        (bs, "increment_at", "streams.read", None),
        (m["streams"], "derive_seed", "streams.derive_seed", None),
        (m["disorder"], "sample_matrix", "disorder.sample_matrix", None),
        (m["disorder"], "operator_norm_report", "disorder.norm", _norm),
        (m["disorder"], "validate_law", "disorder.validate", None),
        (m["disorder"], "condition_diagnostics", "disorder.validate", None),
        (m["dynamics"], "simulate_full", "dynamics.simulate", _simulated),
        (m["dynamics"], "simulate_frozen", "dynamics.simulate", _simulated),
        (m["dynamics"], "simulate_coupled", "dynamics.simulate", _coupled),
        (m["dynamics"], "envelope_violated", "dynamics.envelope", None),
        (m["observables"], "autocorrelation", "observables.autocorrelation", None),
        (m["observables"], "marginal_w2_distance", "observables.w2", None),
        (m["observables"], "girsanov_stats", "observables.girsanov", None),
        (m["lindeberg"], "certificate_suite", "lindeberg.certificate", None),
        (m["lindeberg"], "gaussian_mc_check", "lindeberg.mc", _mc_samples),
        (m["harness"], "run_simulate", "harness.run", None),
        (m["harness"], "run_universality", "harness.run", None),
        (m["harness"], "run_freeze_sweep", "harness.run", None),
        (m["harness"], "run_validation", "harness.run", None),
        (m["harness"], "run_lindeberg_suite", "harness.run", None),
        (m["harness"], "replay", "harness.replay", None),
        (m["harness"], "_persist", "harness.persist", None),
        (m["harness"], "_store_ensembles", "harness.persist", None),
        (m["config"], "load_config", "config.load", None),
        (m["model"], "ModelParams", "model.params", None),
        (m["model"], "grid_times", "model.grid_times", None),
        (m["model"], "max_negative_curvature", "model.curvature", None),
    ]


@contextlib.contextmanager
def traced(tracer):
    """Route calls to spinlab's entry points through ``tracer`` while open."""
    modules = [mod for name, mod in list(sys.modules.items())
               if name.startswith("spinlab.") and mod is not None]
    commands = sys.modules["spinlab.cli"]._COMMANDS
    undo = []
    try:
        for owner, attr, name, counts in _targets():
            original = owner.__dict__[attr]
            wrapper = tracer.wrap(name, original, counts)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                undo.append((setattr, owner, attr, original))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((setattr, mod, key, original))
            for key, value in list(commands.items()):
                if value is original:
                    commands[key] = wrapper
                    undo.append((dict.__setitem__, commands, key, original))
        yield tracer
    finally:
        for restore, target, key, original in reversed(undo):
            restore(target, key, original)
