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
    workers: int = 0  # 0 = number of processors
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
        if self.n_images < 1:
            raise ConfigError(f"n_images must be >= 1, got {self.n_images}")
        if self.n_classes < 2:
            raise ConfigError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.image_size < 8:
            raise ConfigError(f"image_size must be >= 8, got {self.image_size}")
        if self.noise_std < 0:
            raise ConfigError(f"noise_std must be >= 0, got {self.noise_std}")
        if self.limit < 0:
            raise ConfigError(f"limit must be >= 0, got {self.limit}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if self.workers < 0:
            raise ConfigError(f"workers must be >= 0, got {self.workers}")
        if self.stage not in (1, 2, 3):
            raise ConfigError(f"stage must be 1, 2 or 3, got {self.stage}")
        if self.step <= 0:
            raise ConfigError(f"step must be > 0, got {self.step}")
        if self.cap < 1:
            raise ConfigError(f"cap must be >= 1, got {self.cap}")
        if not 0 < self.batch_fraction <= 1:
            raise ConfigError(f"batch_fraction must be in (0, 1], got {self.batch_fraction}")
        if self.smooth_n < 1:
            raise ConfigError(f"smooth_n must be >= 1, got {self.smooth_n}")
        if self.sigma < 0:
            raise ConfigError(f"sigma must be >= 0, got {self.sigma}")
        if self.lrp_epsilon < 0:
            raise ConfigError(f"lrp_epsilon must be >= 0, got {self.lrp_epsilon}")
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
