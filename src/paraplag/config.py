"""Engine configuration: one flat JSON file drives every run.

The config names the knowledge resources on disk (lexical database
directory, information-content file, embedding file, optional stopword
list), the scoring thresholds, the tiling parameters, and the classifier
choice.  `load_config` parses and validates; `build_stores` turns the
resource paths into loaded stores, failing with `MissingResource` when a
referenced path does not exist.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from typing import Any

from .classify import MODELS, ClassifierSpec, FeatureParams
from .errors import ParaplagError, is_integer, load_json
from .gst import GstParams
from .resources import KnowledgeStores, load_embeddings, load_ic, load_lexdb
from .semsim import SemThresholds
from .textprep import STOPWORDS, load_stopwords


class ConfigError(ParaplagError):
    """The configuration file is unreadable, malformed, or out of range."""


class MissingResource(ParaplagError):
    """A resource path named by the configuration does not exist."""


EMBEDDING_FORMATS = ("text", "binary")
CLASSIFIER_KINDS = tuple(MODELS)

# What a field of each checked annotation must hold, and how a message says it.
_FIELD_TYPES = {
    "int": (is_integer, "an integer"),
    "float": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
}


@dataclass(frozen=True)
class EngineConfig:
    """Validated settings for a scoring or evaluation run.

    Resource paths default to None, meaning the corresponding store is
    absent and the channels that need it simply never match.  All other
    fields carry working defaults, so `{}` is a valid config.
    """

    lexdb_dir: str | None = None
    ic_file: str | None = None
    embedding_file: str | None = None
    embedding_format: str = "text"
    stopword_file: str | None = None

    # Defaults of the keys that feed a parameter type are that type's own.
    embed_min: float = SemThresholds.embed_min
    resnik_min: float = SemThresholds.resnik_min
    discard_semantic: float = FeatureParams.discard_semantic
    discard_syntactic: float = FeatureParams.discard_syntactic
    discard_insdel: float = FeatureParams.discard_insdel

    gst_min_tile: int = GstParams.min_tile
    # tiling-baseline rule: containment >= this
    gst_threshold: float = 0.15
    gst_max_chars: int = GstParams.max_chars

    classifier: str = "knn"
    knn_k: int = ClassifierSpec.knn_k
    folds: int = 10
    seed: int = 0
    # score rule used when no fitted model is given: mean feature >= this
    fallback_threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.embedding_format not in EMBEDDING_FORMATS:
            raise ConfigError(
                f"embedding_format must be one of {EMBEDDING_FORMATS}, "
                f"got {self.embedding_format!r}"
            )
        if self.classifier not in CLASSIFIER_KINDS:
            raise ConfigError(
                f"classifier must be one of {CLASSIFIER_KINDS}, got {self.classifier!r}"
            )
        # every int, float and path field holds its type; the message names the key
        for f in dataclasses.fields(self):
            if f.type in _FIELD_TYPES:
                holds, what = _FIELD_TYPES[f.type]
                value = getattr(self, f.name)
                if not holds(value):
                    raise ConfigError(f"{f.name} must be {what}, got {value!r}")
        if self.folds < 2:
            raise ConfigError(f"folds must be an integer >= 2, got {self.folds!r}")
        for name in ("gst_threshold", "fallback_threshold"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:  # NaN fails the comparison too
                raise ConfigError(f"{name} must be within [0, 1], got {value!r}")
        # Delegate range checks to the parameter types themselves so the
        # config cannot drift from what the scoring code accepts.
        try:
            feature_params(self)
            gst_params(self)
            classifier_spec(self)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "EngineConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**raw)


def load_config(path) -> EngineConfig:
    """Read and validate a flat JSON config file.

    A byte that is not UTF-8 raises ParaplagError naming the file and the
    line; a key given twice raises ConfigError naming the file and the key.
    """
    try:
        with open(path, "rb") as fh:
            raw = load_json(fh.read(), path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # a repeated key
        raise ConfigError(f"config {path} {exc}") from None
    return EngineConfig.from_dict(raw)


def feature_params(config: EngineConfig) -> FeatureParams:
    return FeatureParams(
        sem=SemThresholds(embed_min=config.embed_min, resnik_min=config.resnik_min),
        discard_semantic=config.discard_semantic,
        discard_syntactic=config.discard_syntactic,
        discard_insdel=config.discard_insdel,
    )


def gst_params(config: EngineConfig) -> GstParams:
    return GstParams(min_tile=config.gst_min_tile, max_chars=config.gst_max_chars)


def classifier_spec(config: EngineConfig) -> ClassifierSpec:
    return ClassifierSpec(kind=config.classifier, knn_k=config.knn_k)


def validate_resources(config: EngineConfig) -> None:
    """Check every referenced resource path exists; MissingResource if not."""
    missing = []
    if config.lexdb_dir is not None and not os.path.isdir(config.lexdb_dir):
        missing.append(f"lexdb_dir: {config.lexdb_dir}")
    for label, path in (
        ("ic_file", config.ic_file),
        ("embedding_file", config.embedding_file),
        ("stopword_file", config.stopword_file),
    ):
        if path is not None and not os.path.isfile(path):
            missing.append(f"{label}: {path}")
    if missing:
        raise MissingResource("resource paths do not exist: " + "; ".join(missing))


def build_stores(config: EngineConfig) -> KnowledgeStores:
    """Load every configured resource into memory."""
    validate_resources(config)
    lexdb = load_lexdb(config.lexdb_dir) if config.lexdb_dir is not None else None
    ic = load_ic(config.ic_file) if config.ic_file is not None else None
    emb = (
        load_embeddings(config.embedding_file, format=config.embedding_format)
        if config.embedding_file is not None
        else None
    )
    return KnowledgeStores(lexdb=lexdb, ic=ic, embeddings=emb)


def prep_config(config: EngineConfig) -> frozenset[str]:
    """The stopword set; a custom stopword list replaces the built-in one."""
    if config.stopword_file is None:
        return STOPWORDS
    return load_stopwords(config.stopword_file)
