"""Config file parsing: strict keys, value validation, hashing, law specs."""

import dataclasses
import json
import math
import re

import pytest

from spinlab.config import (
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_initial,
    parse_law,
    parse_potential,
)
from spinlab.disorder import CustomLaw, StandardGaussian


def test_defaults_load_without_file():
    cfg = load_config()
    assert cfg.n_particles == 100
    assert cfg.beta == 1.0
    assert cfg.laws == ("gaussian", "rademacher", "gaussian")
    assert cfg.total_steps() == cfg.kappa * cfg.substeps
    # a2 = None resolves to the beta-dependent default at load time
    assert cfg.a2 == pytest.approx(2 * cfg.beta + 0.5)


def test_unknown_file_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_partcles": 10}))
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_config(path)


def test_unknown_override_key_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_config(overrides={"betaa": 1.0})


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_non_utf8_config_and_law_files_rejected(tmp_path):
    (tmp_path / "law.json").write_bytes(b"\xff{}")
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff{}")
    with pytest.raises(ConfigError, match="config file .* is not valid JSON"):
        load_config(path)
    path.write_text(json.dumps({"laws": ["gaussian", "custom:law.json"]}))
    with pytest.raises(ConfigError, match="custom law file .* is not valid JSON"):
        load_config(path)


def test_non_object_json_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.json")


@pytest.mark.parametrize("overrides", [
    {"n_particles": 0},
    {"n_particles": 3.0},
    {"kappa": True},
    {"master_seed": -1},
    {"master_seed": 1 << 64},
    {"replicas": 0},
    {"freeze_replicas": 1},
    {"gaussian_check_samples": 999},
    {"beta": -0.1},
    {"beta": float("nan")},
    {"s_bound": 0.0},
    {"horizon": -1.0},
    {"rho": 0.0},
    {"c1": -0.5},
    {"gamma": 1.99},
    {"gamma": 2.5},
    {"a2": -1.0},
    {"laws": []},
    {"laws": "gaussian"},
    {"n_sweep": [10, 0]},
    {"kappa_sweep": [2.5]},
    {"output_dir": ""},
    {"a2": float("nan")},
    {"a2": float("inf")},
    {"a2": True},
    {"n_sweep": [10, True]},
    {"kappa_sweep": [True]},
    {"replicas": 1},
])
def test_invalid_values_rejected(overrides):
    with pytest.raises(ConfigError):
        load_config(overrides=overrides)


def test_boundary_values_accepted():
    cfg = load_config(overrides={
        "master_seed": (1 << 64) - 1, "gamma": 2.0, "beta": 0.0,
    })
    assert cfg.master_seed == (1 << 64) - 1
    assert cfg.gamma == 2.0


def test_sequences_coerced_to_tuples():
    cfg = load_config(overrides={"n_sweep": [10, 20], "laws": ["gaussian", "cexp"]})
    assert cfg.n_sweep == (10, 20)
    assert cfg.laws == ("gaussian", "cexp")


def test_explicit_a2_kept():
    cfg = load_config(overrides={"a2": 3.25})
    assert cfg.a2 == 3.25


# ---------------------------------------------------------------------------
# spec strings


def test_parse_law_builtins():
    assert isinstance(parse_law("gaussian"), StandardGaussian)
    assert parse_law("rademacher").name == "rademacher"
    assert parse_law("cexp").name == "cexp"


def test_parse_law_unknown_name():
    with pytest.raises(ConfigError, match="unknown law spec"):
        parse_law("uniform")


def test_parse_potential():
    assert parse_potential("doublewell", 2.0).kind == "doublewell"
    assert parse_potential("logbarrier", 2.0).kind == "logbarrier"
    with pytest.raises(ConfigError):
        parse_potential("harmonic", 2.0)


def test_parse_initial():
    assert parse_initial("point:0.5", 2.0).kind == "point"
    assert parse_initial("uniform:1.0", 2.0).kind == "uniform"
    with pytest.raises(ConfigError, match="lacks a parameter"):
        parse_initial("point", 2.0)
    with pytest.raises(ConfigError, match="bad numeric"):
        parse_initial("point:abc", 2.0)
    with pytest.raises(ConfigError, match="unknown initial kind"):
        parse_initial("gauss:1.0", 2.0)
    # support must stay strictly inside the box
    with pytest.raises(ConfigError):
        parse_initial("point:5.0", 2.0)


def test_bad_spec_fails_at_construction():
    with pytest.raises(ConfigError):
        load_config(overrides={"potential": "harmonic"})
    with pytest.raises(ConfigError):
        load_config(overrides={"initial": "point:99"})
    with pytest.raises(ConfigError):
        load_config(overrides={"laws": ["gaussian", "lognormal"]})


# ---------------------------------------------------------------------------
# custom entry laws


def _triangular_free_doc():
    # uniform on [-sqrt(3), sqrt(3)]: mean 0, variance 1, E|X|^3 = 3 sqrt(3)/4
    return {
        "name": "flat",
        "distribution": "uniform",
        "loc": -math.sqrt(3.0),
        "scale": 2.0 * math.sqrt(3.0),
        "mean": 0.0,
        "variance": 1.0,
        "third_abs_moment": 3.0 * math.sqrt(3.0) / 4.0,
    }


def test_custom_law_loads_declared_moments(tmp_path):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(_triangular_free_doc()))
    law = parse_law(f"custom:{path}")
    assert isinstance(law, CustomLaw)
    assert law.name == "flat"
    assert law.variance == 1.0
    assert law.third_abs_moment == pytest.approx(3.0 * math.sqrt(3.0) / 4.0)


def test_custom_law_unknown_key_rejected(tmp_path):
    doc = _triangular_free_doc()
    doc["sigma"] = 2.0
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_law(f"custom:{path}")


def test_custom_law_requires_distribution(tmp_path):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"name": "flat"}))
    with pytest.raises(ConfigError, match="lacks 'distribution'"):
        parse_law(f"custom:{path}")


def test_custom_law_unknown_distribution(tmp_path):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"distribution": "not_a_dist"}))
    with pytest.raises(ConfigError, match="unknown scipy.stats distribution"):
        parse_law(f"custom:{path}")


@pytest.mark.parametrize("change, match", [
    ({"scale": math.nan}, "scale must be finite"),
    ({"scale": 0.0}, r"scale must be > 0"),
    ({"scale": -1.0}, r"scale must be > 0"),
    ({"loc": "abc"}, "loc must be a number"),
    ({"loc": math.inf}, "loc must be finite"),
    ({"mean": True}, "mean must be a number"),
    ({"variance": math.nan}, "variance must be finite"),
    ({"variance": 0.0}, r"variance must be > 0"),
    ({"third_abs_moment": -1.0}, r"third_abs_moment must be >= 0"),
    ({"args": ["x"]}, r"args\[0\] must be a number"),
    ({"args": [True]}, r"args\[0\] must be a number"),
    ({"distribution": "t", "args": [math.nan]}, r"args\[0\] must be finite"),
    ({"distribution": "t", "args": [-1.0]}, "outside the domain"),
    # laws whose quantile scipy finds by root search, one draw at a time
    ({"distribution": "norminvgauss", "args": [1.0, 0.5]}, "no quantile function"),
    ({"distribution": "zipf", "args": [2.0]}, "no quantile function"),
], ids=lambda v: json.dumps(v) if isinstance(v, dict) else None)
def test_custom_law_bad_values_rejected(tmp_path, change, match):
    doc = {**_triangular_free_doc(), **change}
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=match):
        parse_law(f"custom:{path}")


@pytest.mark.parametrize("change, floor", [
    ({"third_abs_moment": 0.999}, 1.0),  # no variance declared: E J^2 = 1
    ({"variance": 4.0, "third_abs_moment": 7.9}, 8.0),
])
def test_custom_law_third_moment_below_the_lyapunov_bound_rejected(tmp_path, change,
                                                                  floor):
    doc = {**_triangular_free_doc(), **change}
    if "variance" not in change:
        del doc["variance"]
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=re.escape(
            f"third_abs_moment {change['third_abs_moment']!r} is below "
            f"variance**1.5 = {floor!r}")):
        parse_law(f"custom:{path}")
    # a two-point law meets the bound with equality
    path.write_text(json.dumps({**doc, "third_abs_moment": floor}))
    assert parse_law(f"custom:{path}").third_abs_moment == floor


def test_custom_law_scipy_value_error_is_config_error(tmp_path, monkeypatch):
    import scipy.stats

    class Refusing:
        ppf = None

        def __call__(self, *args, **kwargs):
            raise ValueError("refused")

    monkeypatch.setattr(scipy.stats, "uniform", Refusing())
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(_triangular_free_doc()))
    with pytest.raises(ConfigError, match="bad parameters for 'uniform': refused"):
        parse_law(f"custom:{path}")


def test_custom_law_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        parse_law("custom:/nonexistent/law.json")


def test_custom_path_resolves_against_config_dir(tmp_path):
    (tmp_path / "flat.json").write_text(json.dumps(_triangular_free_doc()))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"laws": ["gaussian", "custom:flat.json"]}))
    cfg = load_config(cfg_path)
    # the stored spec is absolute so a persisted config replays from anywhere
    assert cfg.laws[1] == f"custom:{(tmp_path / 'flat.json').resolve()}"
    assert cfg.law_objs()[1].name == "flat"


def test_absolute_custom_path_is_stored_as_written(tmp_path):
    (tmp_path / "flat.json").write_text(json.dumps(_triangular_free_doc()))
    (tmp_path / "sub").mkdir()
    spec = f"custom:{tmp_path / 'sub' / '..' / 'flat.json'}"
    assert load_config(overrides={"laws": ["gaussian", spec]}).laws[1] == spec


def test_custom_law_int_past_2_53_rejected(tmp_path):
    # as for a config key: such an int is not exact as a float
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({**_triangular_free_doc(), "scale": 2**60}))
    with pytest.raises(ConfigError, match=r"scale must be finite and an int within 2\*\*53"):
        parse_law(f"custom:{path}")


# ---------------------------------------------------------------------------
# labels and hashing


def test_law_labels_suffix_repeats():
    cfg = load_config()
    assert cfg.law_labels() == ["gaussian", "rademacher", "gaussian@2"]


def test_config_hash_ignores_output_dir():
    a = load_config(overrides={"output_dir": "here"})
    b = load_config(overrides={"output_dir": "there"})
    assert a.config_hash() == b.config_hash()


def test_config_hash_tracks_seed():
    # dataclasses.replace validates the new value as the loader does; the
    # CLI passes --seed and --out to load_config as overrides instead
    a = load_config()
    b = dataclasses.replace(a, master_seed=a.master_seed + 1)
    assert a.config_hash() != b.config_hash()
    assert b.master_seed == a.master_seed + 1
    assert b.n_particles == a.n_particles
    with pytest.raises(ConfigError, match="master_seed"):
        dataclasses.replace(a, master_seed=-1)


def test_replaced_output_dir_keeps_config_hash():
    cfg = dataclasses.replace(load_config(), output_dir="elsewhere")
    assert cfg.output_dir == "elsewhere"
    assert cfg.config_hash() == load_config().config_hash()


def test_custom_law_config_hash_names_the_inverse_cdf_route(tmp_path, monkeypatch):
    # a custom-law run drawn before the inverse-CDF route had this hash;
    # it must not match now, or such a run would replay as if unchanged
    monkeypatch.chdir(tmp_path)
    (tmp_path / "flat.json").write_text(json.dumps(_triangular_free_doc()))
    cfg = ExperimentConfig(laws=["gaussian", "custom:flat.json"])
    before = "0272e458be11f7c80cf17ebd4671f562021b55d8d68230db42f5bde4a4df0208"
    assert cfg.config_hash() == (
        "af663b6ab2dbb1ac6e1dbc425228c5ad8d217fbba73a6ae0c8c60e5b30d9d081")
    assert cfg.config_hash() != before


def test_as_dict_round_trips_through_loader():
    cfg = load_config(overrides={"beta": 0.5, "n_sweep": [10, 20]})
    again = load_config(overrides=cfg.as_dict())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()
