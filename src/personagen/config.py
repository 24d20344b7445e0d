"""Run configuration: a nested dataclass tree with JSON overrides.

Every default matches the published training setup (decoder hidden 512,
batch 64, learning rate 1e-4, 3 retrieval hops, beam 2, 50 topics over a
10k-word topic vocabulary, 100 expansion words, loss weights 0.1/0.1,
bag-of-words extra weight 1, match threshold 0.03), so an empty config file
reproduces those settings.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from functools import reduce

from .corpus import RESERVED_TOKENS


@dataclass
class PathsConfig:
    train: str | None = None
    valid: str | None = None
    test: str | None = None
    embeddings: str | None = None
    topic_corpora: list[str] = field(default_factory=list)


@dataclass
class TopicConfig:
    topics: int = 50
    vocab_size: int = 10000
    hidden: int = 256
    epochs: int = 40
    batch_size: int = 32
    lr: float = 1e-3


@dataclass
class ExpansionConfig:
    neighbors: int = 20
    max_words: int = 100


@dataclass
class ModelConfig:
    hidden: int = 512
    emb_dim: int = 300
    vocab_size: int = 20000
    batch_size: int = 64
    lr: float = 1e-4
    hops: int = 3
    beam: int = 2
    max_len: int = 30
    epochs: int = 10
    grad_clip: float = 5.0


@dataclass
class LossSettings:
    gamma_match: float = 0.1
    gamma_bows: float = 0.1
    bows_extra_weight: float = 1.0
    match_threshold: float = 0.03


@dataclass
class Config:
    paths: PathsConfig = field(default_factory=PathsConfig)
    topic: TopicConfig = field(default_factory=TopicConfig)
    expansion: ExpansionConfig = field(default_factory=ExpansionConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    losses: LossSettings = field(default_factory=LossSettings)
    seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Config":
        """The defaults overridden by ``data``, where each value must have its
        default's type and each count its bound in ``_LEAST``; a ValueError
        names the first ``section.key`` that does not."""
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        config = cls()
        for key, value in data.items():
            if key == "seed":
                config.seed = _checked("seed", config.seed, value)
            elif key in {f.name for f in fields(cls)}:
                _override(getattr(config, key), value, key)
            else:
                raise ValueError(f"unknown config section {key!r}")
        config.check_bounds()
        return config

    def check_bounds(self) -> None:
        """Raise a ValueError naming the first count below its bound in
        ``_LEAST``, an odd ``model.hidden``, a number in ``_NON_NEGATIVE``
        below 0, or one in ``_POSITIVE`` that is not above 0."""
        for where, least in _LEAST.items():
            value = reduce(getattr, where.split("."), self)
            if value < least:
                raise ValueError(f"{where} must be an integer of at least {least}, "
                                 f"got {value!r}")
        if self.model.hidden % 2:
            raise ValueError(f"model.hidden must be even, got {self.model.hidden}")
        for where in _NON_NEGATIVE:
            value = reduce(getattr, where.split("."), self)
            if value < 0:
                raise ValueError(f"{where} must be at least 0, got {value!r}")
        for where in _POSITIVE:
            value = reduce(getattr, where.split("."), self)
            if value <= 0:
                raise ValueError(f"{where} must be above 0, got {value!r}")

    @classmethod
    def from_file(cls, path) -> "Config":
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


# the least value of each integer that counts something
_LEAST = {
    "seed": 0,
    "topic.topics": 1, "topic.vocab_size": len(RESERVED_TOKENS) + 1, "topic.hidden": 1,
    "topic.batch_size": 1, "topic.epochs": 0,
    "expansion.neighbors": 1, "expansion.max_words": 0,
    "model.hidden": 2, "model.emb_dim": 1, "model.vocab_size": len(RESERVED_TOKENS) + 1,
    "model.batch_size": 1, "model.hops": 1, "model.beam": 1, "model.max_len": 1,
    "model.epochs": 0,
}

# numbers that must be at least 0 (a zero grad_clip turns clipping off) and
# numbers that must be above 0
_NON_NEGATIVE = ("losses.gamma_match", "losses.gamma_bows", "losses.match_threshold",
                 "model.grad_clip")
_POSITIVE = ("losses.bows_extra_weight", "model.lr", "topic.lr")


def _override(section, data: dict, name: str) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"config section {name!r} must be a JSON object")
    unknown = set(data) - {f.name for f in fields(section)}
    if unknown:
        raise ValueError(f"unknown keys in config section {name!r}: {sorted(unknown)}")
    for key, value in data.items():
        setattr(section, key, _checked(f"{name}.{key}", getattr(section, key), value))


# for the type of a default, the JSON types a value may have; an int field
# takes no bool and a float field also takes an int
_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
          type(None): ((str, type(None)), "a string or null"), list: ((list,), "a list of strings")}


def _checked(where: str, default, value):
    """``value``, if it has the type of ``default`` and is not JSON's
    ``NaN`` or ``Infinity``; else a ValueError."""
    allowed, wanted = _TYPES[type(default)]
    if type(value) not in allowed or (
            type(value) is list and not all(isinstance(v, str) for v in value)):
        raise ValueError(f"{where} must be {wanted}, got {value!r}")
    if type(value) is float and not math.isfinite(value):
        raise ValueError(f"{where} must be a finite number, got {value!r}")
    return value
