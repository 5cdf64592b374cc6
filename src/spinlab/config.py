"""Experiment configuration: a flat JSON document with strict key checking.

The config file is a single JSON object whose keys map one-to-one onto
:class:`ExperimentConfig` fields.  Unknown keys are errors rather than
warnings so that a typo cannot silently fall back to a default.  Law,
potential, and initial-condition specs are short strings ("rademacher",
"doublewell", "uniform:1.0"); custom entry laws live in their own JSON
file referenced as "custom:<path>".  Every JSON input is read by
:func:`read_json_object`, and every number checked by one rule.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .disorder import (
    CENTERED_EXPONENTIAL,
    GAUSSIAN,
    RADEMACHER,
    CustomLaw,
    DisorderLaw,
)
from .dynamics import GUARD_FRACTION
from .model import InitialLaw, Potential, double_well, log_barrier

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "parse_law",
    "parse_potential",
    "parse_initial",
]


class ConfigError(ValueError):
    """Invalid configuration file or spec string."""


# Keys allowed in a custom-law JSON file.
_CUSTOM_LAW_KEYS = {
    "name",
    "distribution",
    "args",
    "loc",
    "scale",
    "mean",
    "variance",
    "third_abs_moment",
}


def read_json_object(path: Path, what: str) -> dict:
    """The JSON object in ``path``; any failure is a ConfigError naming ``what``."""
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return raw


def _finite(what: str, val):
    """``val`` if it is a finite float or an int within 2**53, else a ConfigError."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{what} must be a number, got {val!r}")
    # an int past 2**53 is not exact as a float, and uses mix the two
    if not (math.isfinite(val) if isinstance(val, float) else abs(val) <= 2**53):
        raise ConfigError(f"{what} must be finite and an int within 2**53, got {val!r}")
    return val


def _load_custom_law(path: Path) -> CustomLaw:
    raw = read_json_object(path, "custom law file")
    unknown = set(raw) - _CUSTOM_LAW_KEYS
    if unknown:
        raise ConfigError(
            f"unknown keys in custom law file {path}: {sorted(unknown)}"
        )
    if "distribution" not in raw:
        raise ConfigError(f"custom law file {path} lacks 'distribution'")

    import scipy.stats as st

    dist_name = raw["distribution"]
    dist_gen = getattr(st, dist_name, None)
    if dist_gen is None or not hasattr(dist_gen, "ppf"):
        raise ConfigError(f"unknown scipy.stats distribution {dist_name!r}")
    # scipy's generic quantile solves for each value (norminvgauss: about 7 ms
    # a value) and can fail in the tail, so a law must bring its own
    if getattr(type(dist_gen), "_ppf", None) in (st.rv_continuous._ppf, st.rv_discrete._ppf):
        raise ConfigError(f"scipy.stats distribution {dist_name!r} has no quantile "
                          "function of its own (scipy would solve for each draw)")
    args = raw.get("args", [])
    if not isinstance(args, list):
        raise ConfigError("custom law 'args' must be a list of shape parameters")

    def number(key, val):
        return float(_finite(f"custom law file {path}: {key}", val))

    def moment(key):
        val = raw.get(key)
        return None if val is None else number(key, val)

    args = [number(f"args[{k}]", a) for k, a in enumerate(args)]
    loc = number("loc", raw.get("loc", 0.0))
    scale = number("scale", raw.get("scale", 1.0))
    mean, variance, third = moment("mean"), moment("variance"), moment("third_abs_moment")
    if scale <= 0:
        raise ConfigError(f"custom law file {path}: scale must be > 0, got {scale!r}")
    if variance is not None and variance <= 0:
        raise ConfigError(f"custom law file {path}: variance must be > 0, got {variance!r}")
    if third is not None and third < 0:
        raise ConfigError(
            f"custom law file {path}: third_abs_moment must be >= 0, got {third!r}"
        )
    floor = 1.0 if variance is None else variance * math.sqrt(variance)
    if third is not None and third < floor:  # E|J|^3 >= (E J^2)^(3/2) >= floor
        raise ConfigError(f"custom law file {path}: third_abs_moment {third!r} is below "
                          f"variance**1.5 = {floor!r} (Lyapunov's inequality)")
    try:
        frozen = dist_gen(*args, loc=loc, scale=scale)
        support = frozen.support()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters for {dist_name!r}: {exc}") from exc
    # scipy reports parameters outside a law's domain as a NaN support
    if any(math.isnan(float(b)) for b in support):
        raise ConfigError(f"parameters {args} outside the domain of {dist_name!r}")

    # the name labels the law's stored paths, so it must stay one file name
    name = str(raw.get("name", path.stem))
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ConfigError(f"custom law file {path}: name {name!r} is not a file name")
    # config_hash covers the file's contents, not only its path
    return CustomLaw(name, frozen.ppf, mean, variance, third, source=raw)


def parse_law(spec: str) -> DisorderLaw:
    """Resolve a law spec string to a DisorderLaw instance."""
    if not isinstance(spec, str):
        raise ConfigError(f"law spec must be a string, got {spec!r}")
    name = spec.strip()
    builtin = {
        "gaussian": GAUSSIAN,
        "rademacher": RADEMACHER,
        "cexp": CENTERED_EXPONENTIAL,
    }
    if name in builtin:
        return builtin[name]
    if name.startswith("custom:"):
        return _load_custom_law(Path(name[len("custom:"):]))
    raise ConfigError(
        f"unknown law spec {spec!r}; expected gaussian, rademacher, cexp, "
        f"or custom:<path>"
    )


def parse_potential(spec: str, s_bound: float) -> Potential:
    if not isinstance(spec, str):
        raise ConfigError(f"potential spec must be a string, got {spec!r}")
    name = spec.strip().lower()
    if name == "doublewell":
        return double_well(s_bound)
    if name == "logbarrier":
        return log_barrier(s_bound)
    raise ConfigError(
        f"unknown potential spec {spec!r}; expected doublewell or logbarrier"
    )


def parse_initial(spec: str, s_bound: float) -> InitialLaw:
    if not isinstance(spec, str):
        raise ConfigError(f"initial spec must be a string, got {spec!r}")
    kind, sep, arg = spec.strip().partition(":")
    if not sep:
        raise ConfigError(
            f"initial spec {spec!r} lacks a parameter; expected point:<x0> "
            f"or uniform:<a>"
        )
    try:
        value = float(arg)
    except ValueError as exc:
        raise ConfigError(f"bad numeric parameter in initial spec {spec!r}") from exc
    if kind not in ("point", "uniform"):
        raise ConfigError(f"unknown initial kind {kind!r}; expected point or uniform")
    try:
        law = InitialLaw(kind, value, float(s_bound))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # the integrator refuses a start on or past its guard band
    guard = s_bound * (1.0 - GUARD_FRACTION)
    if abs(value) >= guard:
        raise ConfigError(f"initial spec {spec!r} reaches the guard band: |{value!r}| "
                          f"must be below s * (1 - {GUARD_FRACTION}) = {guard!r}")
    return law


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment settings.

    ``a2 = None`` in the file resolves to the beta-dependent default
    ``2*beta + 0.5`` at load time, so the stored object always carries a
    concrete number.  ``config_hash`` excludes ``output_dir``: moving the
    output does not change the experiment's identity.  It covers each
    custom law's file contents as well as its path.
    """

    n_particles: int = 100
    beta: float = 1.0
    s_bound: float = 2.0
    horizon: float = 2.0
    kappa: int = 10
    substeps: int = 20
    master_seed: int = 31416
    potential: str = "doublewell"
    initial: str = "uniform:1.0"
    laws: tuple = ("gaussian", "rademacher", "gaussian")
    replicas: int = 200
    n_sweep: tuple = (25, 50, 100, 200)
    kappa_sweep: tuple = (5, 10, 20, 40)
    thermal_samples: int = 1
    phi_replicas: int = 30
    freeze_replicas: int = 50
    norm_samples: int = 20
    bootstrap_resamples: int = 400
    rho: float = 0.1
    a2: float | None = None
    eps: float = 0.05
    c1: float = 1.0
    gamma: float = 2.25
    lindeberg_instances: int = 500
    gaussian_check_instances: int = 50
    gaussian_check_samples: int = 1_000_000
    output_dir: str = "spinlab-out"

    def __post_init__(self):
        ints = {
            "n_particles": 1,
            "kappa": 1,
            "substeps": 1,
            "replicas": 2,
            "thermal_samples": 1,
            "phi_replicas": 1,
            "freeze_replicas": 2,
            "norm_samples": 1,
            "bootstrap_resamples": 2,
            "lindeberg_instances": 1,
            "gaussian_check_instances": 1,
            "gaussian_check_samples": 1000,
            "master_seed": 0,
        }
        for name, lo in ints.items():
            val = getattr(self, name)
            # a seed is a uint64; a count must fit numpy's index type, Py_ssize_t
            hi = (1 << 64) - 1 if name == "master_seed" else sys.maxsize
            if not isinstance(val, int) or isinstance(val, bool) or not lo <= val <= hi:
                raise ConfigError(f"{name} must be an integer in [{lo}, {hi}], got {val!r}")
        for name in ("beta", "s_bound", "horizon", "rho", "eps", "c1", "gamma"):
            _finite(name, getattr(self, name))
        # the default depends on beta, so it resolves once beta is checked
        if self.a2 is None:
            object.__setattr__(self, "a2", 2.0 * self.beta + 0.5)
        _finite("a2", self.a2)
        if self.beta < 0:
            raise ConfigError("beta must be >= 0")
        if self.s_bound <= 0 or self.horizon <= 0 or self.rho <= 0:
            raise ConfigError("s_bound, horizon, and rho must be positive")
        if self.c1 < 0:
            raise ConfigError("c1 must be >= 0")
        # the mgf diagnostic divides by theta^2 >= (eps / 64)^2, a normal float
        if not self.eps >= 1e-150:
            raise ConfigError(f"eps must be >= 1e-150, got {self.eps!r}")
        if not 2.0 <= self.gamma < 2.5:
            raise ConfigError("gamma must lie in [2, 2.5)")
        if self.a2 <= 0:
            raise ConfigError(f"a2 must be positive, got {self.a2!r}")
        for name in ("laws", "n_sweep", "kappa_sweep"):
            seq = getattr(self, name)
            if isinstance(seq, list):
                object.__setattr__(self, name, tuple(seq))
                seq = getattr(self, name)
            if not isinstance(seq, tuple) or not seq:
                raise ConfigError(f"{name} must be a nonempty list")
        for name in ("n_sweep", "kappa_sweep"):
            seq = getattr(self, name)
            if any(not isinstance(v, int) or isinstance(v, bool) or v < 1 for v in seq):
                raise ConfigError(f"{name} entries must be positive integers")
            # a repeat would run the same seeds again and write duplicate rows
            repeated = [v for v in seq if seq.count(v) > 1]
            if repeated:
                raise ConfigError(f"{name} repeats the entry {repeated[0]}")
        # each draw's N x N matrix and N x (steps + 1) path must fit numpy's index range
        for n in (self.n_particles, *self.n_sweep):
            if 8 * n * max(n, self.total_steps() + 1) > sys.maxsize:
                raise ConfigError(f"N = {n} at {self.total_steps()} steps is too large: an N x N "
                                  "or N x (steps + 1) float64 array exceeds numpy's index range")
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ConfigError("output_dir must be a nonempty string")
        # Each spec is parsed once, here: a custom-law file is read when the
        # config loads and never during a run, so the laws match the hash.
        object.__setattr__(self, "_potential", parse_potential(self.potential, self.s_bound))
        object.__setattr__(self, "_initial", parse_initial(self.initial, self.s_bound))
        object.__setattr__(self, "_laws", tuple(parse_law(spec) for spec in self.laws))
        # a label names its law's stored paths, so two laws may not share one
        labels = self.law_labels()
        repeated = [label for label in labels if labels.count(label) > 1]
        if repeated:
            raise ConfigError(f"two laws share the label {repeated[0]!r}; rename a custom law")

    def potential_obj(self) -> Potential:
        return self._potential

    def initial_obj(self) -> InitialLaw:
        return self._initial

    def law_objs(self) -> list[DisorderLaw]:
        return list(self._laws)

    def law_labels(self) -> list[str]:
        """Unique report labels: repeats get an @k suffix (gaussian@2, ...).

        Repeated laws are legitimate (a same-law pair measures the noise
        floor); disorder seeds are derived from the position in the list,
        so repeats receive independent draws.
        """
        labels, seen = [], {}
        for law in self.law_objs():
            k = seen.get(law.name, 0) + 1
            seen[law.name] = k
            labels.append(law.name if k == 1 else f"{law.name}@{k}")
        return labels

    def total_steps(self) -> int:
        return self.kappa * self.substeps

    def as_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {key: list(val) if isinstance(val, tuple) else val for key, val in out.items()}

    def config_hash(self) -> str:
        payload = self.as_dict()
        payload.pop("output_dir")
        # a custom law's file contents, so editing the file changes the hash;
        # a config without one hashes as it always has.  The key names the
        # inverse-CDF route, so a run drawn by the earlier route cannot match
        sources = [law.source for law in self._laws if isinstance(law, CustomLaw)]
        if sources:
            payload["custom_law_files_by_ppf"] = sources
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


_FIELD_NAMES = {f.name for f in fields(ExperimentConfig)}


def _resolved(spec, base_dir: Path):
    """``spec`` with a relative custom-law path made absolute under ``base_dir``,
    so a persisted config replays from anywhere."""
    if isinstance(spec, str) and spec.startswith("custom:"):
        rel = Path(spec[len("custom:"):])
        if not rel.is_absolute():
            return f"custom:{(base_dir / rel).resolve()}"
    return spec


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Build a config from an optional JSON file plus overrides.

    Relative ``custom:`` paths resolve against the file's directory (the
    working directory without a file) and are stored absolute.  Raises
    ConfigError on unreadable files, non-object JSON, unknown keys, or
    invalid values.  With no file and no overrides this returns the
    default experiment.
    """
    base_dir = Path() if path is None else Path(path).parent
    payload = {} if path is None else read_json_object(Path(path), "config file")
    payload.update(overrides or {})
    unknown = set(payload) - _FIELD_NAMES
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if isinstance(payload.get("laws"), (list, tuple)):
        payload["laws"] = [_resolved(spec, base_dir) for spec in payload["laws"]]
    try:
        return ExperimentConfig(**payload)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
