"""Shared domain types: samples, embeddings, hyperparameters, the strict config loader."""

import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum
from types import UnionType
from typing import Literal, Union, get_args, get_origin, get_type_hints

import numpy as np


class Label(Enum):
    SECURITY = "security"
    NON_SECURITY = "non-security"


class Modality(Enum):
    PATCH = "patch"
    EXPLANATION = "explanation"
    DESCRIPTION = "description"
    INSTRUCTION = "instruction"


class LengthMismatch(ValueError):
    """Two sequences that must have equal length do not."""


@dataclass(frozen=True)
class PatchSample:
    """One commit: unified diff text, optional texts, and a binary security label."""

    id: str
    diff_text: str
    label: Label
    description: str | None = None
    explanation: str | None = None
    source: str = ""

    def __post_init__(self):
        if not self.diff_text:
            raise ValueError(f"sample {self.id!r}: diff_text must be non-empty")
        if not isinstance(self.label, Label):
            raise ValueError(f"sample {self.id!r}: label must be a Label, got {self.label!r}")


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Token-level rows of one modality, shape (seq_len, dim), as the embedders return them
    (read-only, checked where they were made); the pipeline passes on `values` alone."""

    values: np.ndarray
    modality: Modality


@dataclass(frozen=True)
class FusedEmbedding:
    """Fixed-length fused vector for one sample (three pooled components)."""

    values: np.ndarray


@dataclass(frozen=True)
class HyperParams:
    """Training and architecture settings; invalid combinations are rejected."""

    epochs: int
    learning_rate: float
    weight_decay: float
    batch_size_train: int
    batch_size_eval: int
    alpha: float
    temperature: float
    dropout: float
    margin: float
    num_heads: int
    dim: int
    max_tokens: int
    seed: int

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not self.weight_decay >= 0:
            raise ValueError("weight_decay must be >= 0")
        if not 0 <= self.alpha <= 1:
            raise ValueError("alpha must lie in [0, 1]")
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")
        if not 0 <= self.dropout < 1:
            raise ValueError("dropout must lie in [0, 1)")
        if not self.margin >= 0:
            raise ValueError("margin must be >= 0")
        if self.num_heads < 1:
            raise ValueError("num_heads must be >= 1")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.dim % self.num_heads != 0:
            raise ValueError(f"dim {self.dim} not divisible by num_heads {self.num_heads}")
        if self.batch_size_train < 2:  # a batch is ceil(b/2) security samples, floor(b/2) others
            raise ValueError("batch_size_train must be >= 2: a batch of 1 holds only a security "
                             "sample, so the negative class and SBCL never train")
        if self.batch_size_eval < 1:
            raise ValueError("batch_size_eval must be >= 1")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")


def default_hyperparams() -> HyperParams:
    """Published training settings, plus documented defaults for the open ones.

    margin 0.5, num_heads 4, dim 256, max_tokens 512 and seed 0 are artifact
    defaults; everything else follows the published configuration.
    """
    return HyperParams(
        epochs=20,
        learning_rate=1e-5,
        weight_decay=0.01,
        batch_size_train=16,
        batch_size_eval=64,
        alpha=0.5,
        temperature=0.1,
        dropout=0.5,
        margin=0.5,
        num_heads=4,
        dim=256,
        max_tokens=512,
        seed=0,
    )


def config_from_dict(cls, record, section: str = ""):
    """Build the config dataclass `cls` from parsed JSON, strictly; errors name the dotted key.

    Rejects a non-object, unknown keys, missing required keys and any value not
    of its field's annotated type: a bool is not an int, an int passes as a
    float, a float must be finite (JSON's NaN and Infinity, and an int too large
    for a float, are refused), a JSON list becomes a tuple and a dataclass-typed
    field recurses.
    """
    where, prefix = section or "config", f"{section}." if section else ""
    if not isinstance(record, dict):
        raise TypeError(f"{where} must be an object, got {record!r}")
    specs = {f.name: f for f in fields(cls)}
    unknown = [prefix + key for key in record if key not in specs]
    missing = [prefix + name for name, f in specs.items()
               if name not in record and f.default is MISSING]
    for problem, keys in (("unknown", unknown), ("missing", missing)):
        if keys:
            raise ValueError(f"{problem} keys in {where}: {', '.join(keys)}")
    hints = get_type_hints(cls)
    values = {key: _typed(hints[key], value, prefix + key) for key, value in record.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _typed(tp, value, key: str):
    origin, args = get_origin(tp), get_args(tp)
    if is_dataclass(tp):
        return config_from_dict(tp, value, key)
    if origin in (Union, UnionType):  # `X | None`
        return None if value is None else _typed(args[0], value, key)
    if origin is tuple and isinstance(value, list):
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(items) == len(value):
            return tuple(_typed(t, v, f"{key}[{i}]") for i, (t, v) in enumerate(zip(items, value)))
    elif origin is Literal:  # of strings
        if isinstance(value, str) and value in args:
            return value
    elif origin is None and (type(value) is tp or (tp is float and type(value) is int)):
        if tp is not float or abs(value) <= sys.float_info.max:  # NaN compares False
            return value
        raise ValueError(f"{key} must be finite, got {value!r}")
    name = tp.__name__ if origin is None else str(tp).replace("typing.Literal", "one of ")
    raise TypeError(f"{key} must be {name}, got {value!r}")
