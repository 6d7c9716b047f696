"""Dataset loading from JSONL, stratified splitting, and tokenization to the input budget."""

import hashlib
import json
import math
import re
from dataclasses import dataclass

from .arrayio import atomic_open
from .seeding import substream
from .types import Label, PatchSample

_LABEL_VALUES = {label.value: label for label in Label}


class SchemaError(ValueError):
    """A dataset record is missing a field or carries an invalid value."""

    def __init__(self, index: int, field: str, message: str | None = None):
        self.index = index
        self.field = field
        super().__init__(message or f"record {index}: bad or missing field {field!r}")


class EmptyClass(ValueError):
    """Stratified splitting requested but one class has zero samples."""


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[PatchSample, ...]
    validation: tuple[PatchSample, ...]
    test: tuple[PatchSample, ...]
    seed: int

    def __post_init__(self):
        ids = [s.id for part in (self.train, self.validation, self.test) for s in part]
        if len(ids) != len(set(ids)):
            raise ValueError("split parts must be disjoint by sample id")

    @property
    def all_samples(self) -> tuple[PatchSample, ...]:
        return self.train + self.validation + self.test


def load_dataset(path) -> list[PatchSample]:
    """Load patch samples from a line-delimited JSON file.

    Each record needs id, diff and label ("security" / "non-security");
    message, explanation and source are optional; every present text field
    must be a string (or null where optional). Ids are unique. Records are
    returned in file order. Raises SchemaError naming the offending record
    index and field.
    """
    samples: list[PatchSample] = []
    first_index: dict[str, int] = {}
    index = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(index, "record", f"record {index}: invalid JSON ({exc})") from exc
            if not isinstance(record, dict):
                raise SchemaError(index, "record",
                                  f"record {index}: not a JSON object, got {record!r}")
            for field in ("id", "diff", "label"):
                if field not in record or record[field] in (None, ""):
                    raise SchemaError(index, field)
            for field in ("diff", "label", "message", "explanation", "source"):
                if not isinstance(record.get(field, ""), (str, type(None))):
                    raise SchemaError(index, field, f"record {index}: {field} must be a string, "
                                                    f"got {record[field]!r}")
            if record["label"] not in _LABEL_VALUES:
                raise SchemaError(
                    index, "label",
                    f"record {index}: label must be one of {sorted(_LABEL_VALUES)}, "
                    f"got {record['label']!r}",
                )
            sample = PatchSample.from_dict(record)
            if sample.id in first_index:
                raise SchemaError(index, "id", f"record {index}: id {sample.id!r} repeats "
                                               f"record {first_index[sample.id]}")
            first_index[sample.id] = index
            samples.append(sample)
            index += 1
    return samples


def save_dataset(samples, path) -> None:
    """Write samples as one JSON record per line (inverse of load_dataset)."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for sample in samples:
            fh.write(json.dumps(sample.to_dict(), sort_keys=True))
            fh.write("\n")


def class_counts(samples) -> dict[Label, int]:
    counts = {label: 0 for label in Label}
    for sample in samples:
        counts[sample.label] += 1
    return counts


def _largest_remainder(total: int, ratios) -> list[int]:
    exact = [r * total for r in ratios]
    base = [math.floor(x) for x in exact]
    leftover = total - sum(base)
    fractions = sorted(range(len(ratios)), key=lambda s: (-(exact[s] - base[s]), s))
    for s in fractions[:leftover]:
        base[s] += 1
    return base


def check_ratios(ratios) -> None:
    """Raise ValueError unless the split ratios are three positive numbers summing to 1."""
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValueError("ratios must be three positive numbers")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")


def split_dataset(samples, ratios, seed: int, stratify: bool = True) -> DatasetSplit:
    """Deterministic train/validation/test split.

    With stratify=True each split's class proportions stay within one sample
    of the global proportions; stratify=False splits all samples as one group.
    Ratios must be positive and sum to 1.
    """
    check_ratios(ratios)
    samples = list(samples)
    rng = substream(seed, "split")
    targets = _largest_remainder(len(samples), ratios)
    if stratify:
        groups = [[s for s in samples if s.label is label] for label in Label]
        for label, members in zip(Label, groups):
            if samples and not members:
                raise EmptyClass(f"cannot stratify: class {label.value!r} has no samples")
    else:
        groups = [samples]
    allocated = [0, 0, 0]
    shares = []  # per group: (counts per split, leftover, fractional parts)
    for members in groups:
        exact = [r * len(members) for r in ratios]
        base = [math.floor(x) for x in exact]
        shares.append((base, len(members) - sum(base), [x - b for x, b in zip(exact, base)]))
        allocated = [a + b for a, b in zip(allocated, base)]
    # hand out per-group leftovers to whichever split is furthest below target
    for counts, leftover, fracs in shares:
        for _ in range(leftover):
            s = max(range(3), key=lambda s: (targets[s] - allocated[s], fracs[s], -s))
            counts[s] += 1
            allocated[s] += 1
    parts: list[list[PatchSample]] = [[], [], []]
    for members, (counts, _, _) in zip(groups, shares):
        shuffled = [members[i] for i in rng.permutation(len(members))]
        start = 0
        for s in range(3):
            parts[s].extend(shuffled[start:start + counts[s]])
            start += counts[s]
    return DatasetSplit(tuple(parts[0]), tuple(parts[1]), tuple(parts[2]), seed)


_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
VOCAB_SIZE = 1 << 16


class HashTokenizer:
    """Whitespace+punctuation tokenizer with a hashed vocabulary of VOCAB_SIZE ids.

    Token ids are stable across processes and platforms (blake2b based, not
    Python's salted hash), so pipelines built on it are fully reproducible.
    """

    def encode(self, text: str) -> list[int]:
        return [self._token_id(tok) for tok in _TOKEN_RE.findall(text)]

    def _token_id(self, token: str) -> int:
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "little") % VOCAB_SIZE


def tokenize(text: str, vocab, max_tokens: int) -> tuple[int, ...]:
    """Encode text with the given tokenizer; the first max_tokens ids."""
    if max_tokens < 1:
        raise ValueError("max_tokens must be >= 1")
    return tuple(vocab.encode(text)[:max_tokens])
