"""Run configuration: JSON files plus dotted key=value overrides."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing
from dataclasses import dataclass

from .errors import ConfigError


@dataclass
class RunConfig:
    # per-step feature attention
    te_mode: str = "embedding"         # "embedding" | "literal" feature encoding
    te_feature_dim: int = 8            # embedding width per feature index
    embed_dim: int = 32                # attention embedding width
    # dynamic local attention
    n_queries: int = 32                # regular anchor count on the time axis
    n_heads: int = 2
    attn_dim: int = 16                 # query/key projection width
    window_mode: str = "soft"          # "soft" | "hard" window gates
    gate_temperature: float = 0.01
    keyvalue_variant: str = "default"  # "default" | "setting1" | "setting2"
    # mixer hierarchy
    patch_channels: int = 32
    patch_size: int = 4
    merge_factor: int = 2
    n_layers: int = 2
    fusion_mode: str = "multiply"      # "multiply" | "add" | "concat"
    # ablations
    no_dla: bool = False
    no_learnable_range: bool = False
    no_mixer: bool = False
    # optimization
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 64
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0

    def validate(self) -> "RunConfig":
        pos_ints = ("te_feature_dim", "embed_dim", "n_queries", "n_heads",
                    "attn_dim", "patch_channels", "patch_size", "merge_factor",
                    "n_layers", "batch_size", "max_epochs")
        for name in pos_ints:
            if getattr(self, name) < 1:
                raise ConfigError(f"config: {name} must be >= 1")
        for name in ("patience", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"config: {name} must be >= 0")
        # "not > 0" refuses NaN too; an infinite lr stays legal, a run that
        # diverges at its first update
        if not self.lr > 0:
            raise ConfigError("config: lr must be > 0")
        for name in ("gate_temperature", "adam_eps"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"config: {name} must be finite and > 0")
        if not math.isfinite(1.0 / self.gate_temperature):    # the soft gates scale by it
            raise ConfigError("config: gate_temperature must exceed 1 / float max "
                              "(5.5627e-309), or its reciprocal overflows")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("config: betas must lie in [0, 1)")
        if self.te_mode not in ("embedding", "literal"):
            raise ConfigError(f"config: te_mode {self.te_mode!r} unknown")
        if self.window_mode not in ("soft", "hard"):
            raise ConfigError(f"config: window_mode {self.window_mode!r} unknown")
        if self.keyvalue_variant not in ("default", "setting1", "setting2"):
            raise ConfigError(f"config: keyvalue_variant {self.keyvalue_variant!r} unknown")
        if self.fusion_mode not in ("multiply", "add", "concat"):
            raise ConfigError(f"config: fusion_mode {self.fusion_mode!r} unknown")
        if self.n_queries % self.patch_size != 0:
            raise ConfigError(
                f"config: n_queries {self.n_queries} not divisible by patch_size {self.patch_size}")
        if self.patch_size % self.merge_factor != 0:
            raise ConfigError(
                f"config: patch_size {self.patch_size} not divisible by merge_factor {self.merge_factor}")
        if not self.no_mixer:
            patches = self.n_queries // self.patch_size
            if patches % (self.merge_factor ** (self.n_layers - 1)) != 0:
                raise ConfigError(
                    f"config: {patches} patches cannot merge by {self.merge_factor} "
                    f"between {self.n_layers} layers")
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


_FIELD_TYPES = typing.get_type_hints(RunConfig)


def _coerce(key: str, raw, from_string: bool):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"config: unknown key {key!r}")
    want = _FIELD_TYPES[key]
    if from_string:
        text = str(raw)
        if want is bool:
            low = text.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ConfigError(f"config: cannot parse {key}={text!r} as bool")
        try:
            return want(text)
        except ValueError:
            raise ConfigError(f"config: cannot parse {key}={text!r} as {want.__name__}") from None
    if want is bool:
        if not isinstance(raw, bool):
            raise ConfigError(f"config: {key} must be a bool, got {raw!r}")
        return raw
    if want is int:
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise ConfigError(f"config: {key} must be an int, got {raw!r}")
        return raw
    if want is float:
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ConfigError(f"config: {key} must be a number, got {raw!r}")
        return float(raw)
    if want is str:
        if not isinstance(raw, str):
            raise ConfigError(f"config: {key} must be a string, got {raw!r}")
        return raw
    raise ConfigError(f"config: unsupported field type for {key}")


def coerce_fields(raw, where: str) -> dict:
    """Type-check a JSON object of RunConfig fields."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: top level must be an object")
    return {key: _coerce(key, val, from_string=False) for key, val in raw.items()}


def parse_overrides(overrides: list[str] | None) -> dict:
    """Parse key=value strings into typed RunConfig fields."""
    values = {}
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        key, text = item.split("=", 1)
        values[key.strip()] = _coerce(key.strip(), text.strip(), from_string=True)
    return values


def load_config(path: str | None, overrides: list[str] | None = None) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus key=value overrides."""
    values: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError, RecursionError) as e:  # also not UTF-8, nested too deep
            raise ConfigError(f"cannot read config {path}: {e}") from None
        values = coerce_fields(raw, f"config {path}")
    values.update(parse_overrides(overrides))
    return RunConfig(**values).validate()
