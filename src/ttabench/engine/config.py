"""Run configuration for the adaptation engine."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from enum import Enum

from ..errors import ConfigError


class AdaptationMethod(str, Enum):
    NONE = "none"
    SUTA = "suta"
    SGEM = "sgem"


class AdaptationMode(str, Enum):
    EPISODIC = "episodic"
    CONTINUAL = "continual"


class OptimizerKind(str, Enum):
    ADAM = "adam"
    SGD = "sgd"


_KNOWN_GROUPS = ("feature_extractor", "layer_norm", "head")


@dataclass(frozen=True)
class AdaptationConfig:
    """Fully resolved knobs for one adaptation run.

    Defaults follow the standard recipe: ten update steps per utterance with
    Adam, entropy weight 0.3, smoothing temperature 2.5, adapting the feature
    extractor and layer-norm parameters while the head stays frozen, and
    restoring the source model between utterances (episodic).

    ``seed`` is provenance only: it is written to ``config.json`` and enters
    the fingerprint, but adaptation draws no random numbers, so runs that
    differ only in ``seed`` produce the same results.
    """

    method: AdaptationMethod = AdaptationMethod.SUTA
    steps_n: int = 10
    alpha: float = 0.3
    lam: float = 0.3
    temperature: float = 2.5
    rho: float = 0.5
    neg_k: int = 5
    mode: AdaptationMode = AdaptationMode.EPISODIC
    learning_rate: float = 2e-4
    optimizer: OptimizerKind = OptimizerKind.ADAM
    adapted_groups: tuple[str, ...] = ("feature_extractor", "layer_norm")
    exclude_blank_frames: bool = False
    seed: int = 0
    max_utterance_s: float = 60.0
    chunk_target_s: float = 30.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "method", AdaptationMethod(self.method))
        object.__setattr__(self, "mode", AdaptationMode(self.mode))
        object.__setattr__(self, "optimizer", OptimizerKind(self.optimizer))
        object.__setattr__(self, "adapted_groups", tuple(self.adapted_groups))
        if self.steps_n < 0:
            raise ConfigError("steps_n must be >= 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must lie in [0, 1]")
        if self.lam < 0:
            raise ConfigError("lam must be >= 0")
        if self.temperature <= 0:
            raise ConfigError("temperature must be > 0")
        if self.rho <= 0 or self.rho == 1.0:
            raise ConfigError("rho must be > 0 and != 1")
        if self.neg_k < 1:
            raise ConfigError("neg_k must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        unknown = [g for g in self.adapted_groups if g not in _KNOWN_GROUPS]
        if unknown:
            raise ConfigError(f"unknown parameter groups: {unknown}; known: {list(_KNOWN_GROUPS)}")
        if not self.adapted_groups and self.method is not AdaptationMethod.NONE:
            raise ConfigError("adapted_groups must not be empty when adapting")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.max_utterance_s <= 0 or self.chunk_target_s <= 0:
            raise ConfigError("durations must be > 0")
        if self.chunk_target_s > self.max_utterance_s:
            raise ConfigError("chunk_target_s must not exceed max_utterance_s")

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        for key in ("method", "mode", "optimizer"):
            out[key] = out[key].value
        out["adapted_groups"] = list(self.adapted_groups)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "AdaptationConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**data)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def fingerprint(self) -> str:
        """Stable hash over the resolved configuration."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def resolve_config(base: dict | None, overrides: dict | None = None) -> AdaptationConfig:
    """Build a config from an optional dict plus overriding key/value pairs."""
    merged = dict(base or {})
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    return AdaptationConfig.from_dict(merged)
