"""Run configuration: a nested dataclass tree with JSON overrides.

Every default matches the published training setup (decoder hidden 512,
batch 64, learning rate 1e-4, 3 retrieval hops, beam 2, 50 topics over a
10k-word topic vocabulary, 100 expansion words, loss weights 0.1/0.1,
bag-of-words extra weight 1, match threshold 0.03), so an empty config file
reproduces those settings.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields


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
class LossesConfig:
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
    losses: LossesConfig = field(default_factory=LossesConfig)
    seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Config":
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        known = {"paths": PathsConfig, "topic": TopicConfig, "expansion": ExpansionConfig,
                 "model": ModelConfig, "losses": LossesConfig}
        kwargs = {}
        for key, value in data.items():
            if key in known:
                kwargs[key] = _section_from_dict(known[key], value, key)
            elif key == "seed":
                kwargs[key] = int(value)
            else:
                raise ValueError(f"unknown config section {key!r}")
        config = cls(**kwargs)
        for section, key, least in (("model", "hops", 1), ("model", "beam", 1),
                                    ("model", "max_len", 1), ("expansion", "neighbors", 1),
                                    ("expansion", "max_words", 0)):
            value = getattr(getattr(config, section), key)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ValueError(f"{section}.{key} must be an integer of at least {least}, "
                                 f"got {value!r}")
        return config

    @classmethod
    def from_file(cls, path) -> "Config":
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def _section_from_dict(section_cls, data: dict, name: str):
    if not isinstance(data, dict):
        raise ValueError(f"config section {name!r} must be a JSON object")
    valid = {f.name for f in fields(section_cls)}
    unknown = set(data) - valid
    if unknown:
        raise ValueError(f"unknown keys in config section {name!r}: {sorted(unknown)}")
    return section_cls(**data)
