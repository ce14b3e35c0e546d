"""Run configuration: every field has a default, JSON round-trip is exact,
and the config used for a run is persisted verbatim into the run directory."""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field

from .errors import ConfigError

ENV_SEED = "APEMKIT_SEED"
# upper bound on `workers`: a per-image command starts one process per task,
# up to this many
MAX_WORKERS = 64

# JSON value types accepted per annotated field type; a float field takes an int
_FIELD_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool}


def _has_type(value, type_name: str) -> bool:
    if isinstance(value, bool) and type_name != "bool":
        return False
    if type_name == "list[str]":
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    return isinstance(value, _FIELD_TYPES[type_name])


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


@dataclass
class RunConfig:
    # dataset
    dataset_kind: str = "synthetic"  # "synthetic" or "idx"
    dataset_images: str = ""  # IDX image file (dataset_kind == "idx")
    dataset_labels: str = ""  # IDX label file
    n_images: int = 2000  # synthetic sample count
    n_classes: int = 10
    image_size: int = 28
    noise_std: float = 0.3
    limit: int = 0  # evaluate at most this many images (0 = all)
    # model
    model: str = ""
    epochs: int = 2
    lr: float = 0.05
    # methods
    methods: list[str] = field(
        default_factory=lambda: [
            "gradient",
            "smoothgrad",
            "lrp",
            "guided_backprop",
            "gradcam",
            "guided_gradcam",
        ]
    )
    stage: int = 3
    smooth_n: int = 100
    sigma: float = 0.2
    lrp_epsilon: float = 1.0
    # epsilon search
    step: float = 1.0
    cap: int = 10_000
    clip: bool = False
    # filtering
    batch_fraction: float = 0.05
    # run
    seed: int = 0
    workers: int = 0  # 0 = number of processors; at most MAX_WORKERS
    out: str = "run"

    def __post_init__(self):
        env_seed = os.environ.get(ENV_SEED)
        if env_seed is not None:
            try:
                self.seed = int(env_seed)
            except ValueError as e:
                raise ConfigError(f"{ENV_SEED} must be an integer, got {env_seed!r}") from e
        self.validate()

    def validate(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _has_type(value, f.type):
                raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
            if f.type == "float" and not _is_finite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.dataset_kind not in ("synthetic", "idx"):
            raise ConfigError(f"dataset_kind must be 'synthetic' or 'idx', got {self.dataset_kind!r}")
        if self.dataset_kind == "idx" and not (self.dataset_images and self.dataset_labels):
            raise ConfigError("idx datasets need dataset_images and dataset_labels paths")
        # (field, low, high or None, low exclusive); high is inclusive
        for name, low, high, low_open in (
            ("n_images", 1, None, False),
            ("n_classes", 2, None, False),
            ("image_size", 8, None, False),
            ("noise_std", 0, None, False),
            ("limit", 0, None, False),
            ("epochs", 0, None, False),
            ("lr", 0, None, True),
            ("workers", 0, MAX_WORKERS, False),
            ("step", 0, None, True),
            ("cap", 1, None, False),
            ("batch_fraction", 0, 1, True),
            ("smooth_n", 1, None, False),
            ("sigma", 0, None, False),
            ("lrp_epsilon", 0, None, False),
            ("seed", 0, None, False),
        ):
            value = getattr(self, name)
            above = value > low if low_open else value >= low
            if not (above and (high is None or value <= high)):
                if high is None:
                    bound = f"{'>' if low_open else '>='} {low}"
                else:
                    bound = f"in {'(' if low_open else '['}{low}, {high}]"
                raise ConfigError(f"{name} must be {bound}, got {value}")
        if self.stage not in (1, 2, 3):
            raise ConfigError(f"stage must be 1, 2 or 3, got {self.stage}")
        from .explain import METHOD_NAMES

        unknown = [m for m in self.methods if m not in METHOD_NAMES]
        if unknown:
            raise ConfigError(f"unknown methods {unknown}; known: {list(METHOD_NAMES)}")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"malformed config JSON: {e}") from e
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            with open(path) as f:
                return cls.from_json(f.read())
        except FileNotFoundError as e:
            raise ConfigError(f"config file not found: {path}") from e

    def save(self, path):
        with open(path, "w") as f:
            f.write(self.to_json() + "\n")
