"""Run configuration validation, JSON round-trips, and the seed override."""

import pytest

from apemkit.config import ENV_SEED, RunConfig
from apemkit.errors import ConfigError


def test_defaults_are_valid_and_round_trip():
    cfg = RunConfig()
    clone = RunConfig.from_json(cfg.to_json())
    assert clone == cfg


def test_save_load_round_trip(tmp_path):
    cfg = RunConfig(methods=["gradient", "lrp"], stage=1, cap=500, out="elsewhere")
    path = tmp_path / "config.json"
    cfg.save(path)
    assert RunConfig.load(path) == cfg


def test_unknown_fields_are_rejected():
    with pytest.raises(ConfigError):
        RunConfig.from_json('{"no_such_field": 1}')


def test_malformed_json_is_rejected():
    with pytest.raises(ConfigError):
        RunConfig.from_json("{not json")


def test_missing_config_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig.load(tmp_path / "absent.json")


@pytest.mark.parametrize(
    "kw",
    [
        {"dataset_kind": "hdf5"},
        {"dataset_kind": "idx"},  # missing file paths
        {"stage": 0},
        {"step": 0.0},
        {"cap": 0},
        {"batch_fraction": 1.5},
        {"smooth_n": 0},
        {"sigma": -0.1},
        {"lrp_epsilon": -1.0},
        {"methods": ["gradient", "occlusion"]},
        {"limit": -1},
        {"workers": -1},
        {"workers": 65},
        {"epochs": -1},
        {"lr": 0.0},
        {"lr": -0.05},
        {"noise_std": -0.5},
        {"n_images": 0},
        {"n_classes": 1},
        {"image_size": 6},
        {"step": float("nan")},
        {"step": float("inf")},
        {"sigma": float("nan")},
        {"sigma": float("inf")},
        {"lr": float("nan")},
        {"lr": float("inf")},
        {"lrp_epsilon": float("inf")},
        {"noise_std": float("nan")},
        {"batch_fraction": float("nan")},
        {"step": float("-inf")},
        {"seed": -1},
        {"methods": []},
        {"methods": ["lrp", "lrp"]},
    ],
)
def test_invalid_values_are_rejected(kw):
    with pytest.raises(ConfigError):
        RunConfig(**kw)


@pytest.mark.parametrize(
    "text",
    [
        '{"cap": "10"}',
        '{"cap": 10.0}',
        '{"cap": true}',
        '{"lr": "0.1"}',
        '{"clip": 1}',
        '{"out": 3}',
        '{"methods": "gradient"}',
        '{"methods": ["gradient", 1]}',
        '{"seed": null}',
        "5",  # a config file holds one JSON object
        "null",
        '["seed"]',
        "[{}]",
    ],
)
def test_json_values_of_the_wrong_type_are_rejected(text):
    with pytest.raises(ConfigError):
        RunConfig.from_json(text)


@pytest.mark.parametrize(
    "text",
    ['{"step": NaN}', '{"lr": Infinity}', '{"sigma": -Infinity}', '{"step": 1e400}',
     '{"step": 1' + "0" * 400 + "}"],
)
def test_json_non_finite_floats_are_rejected(text):
    with pytest.raises(ConfigError):
        RunConfig.from_json(text)


def test_json_int_is_accepted_for_a_float_field():
    cfg = RunConfig.from_json('{"lr": 1, "sigma": 0}')
    assert cfg.lr == 1 and cfg.sigma == 0


def test_env_seed_overrides_config(monkeypatch):
    monkeypatch.setenv(ENV_SEED, "1234")
    assert RunConfig(seed=7).seed == 1234
    monkeypatch.setenv(ENV_SEED, "not-a-number")
    with pytest.raises(ConfigError):
        RunConfig()
    monkeypatch.delenv(ENV_SEED)
    assert RunConfig(seed=7).seed == 7
