"""Token-level embedding backends: hashed random projection and precomputed files."""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import arrayio
from .dataset import VOCAB_SIZE
from .types import EmbeddingMatrix, Modality

PRECOMPUTED_KIND = "precomputed_file"
HASHED_KIND = "hashed_projection"


class BackendMissingEntry(KeyError):
    """A precomputed embedding file has no entry for the requested key."""

    def __init__(self, key: str):
        self.key = key
        super().__init__(f"precomputed embedding file has no entry for {key!r}")


@dataclass
class EmbedderBackend:
    kind: str
    dim: int
    seed: int = 0
    source_path: str | None = None
    table: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (HASHED_KIND, PRECOMPUTED_KIND):
            raise ValueError(f"unknown embedder kind: {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.kind == HASHED_KIND and (type(self.seed) is not int or self.seed < 0):
            raise ValueError(f"hashed_projection seed must be an int >= 0, got {self.seed!r}")

    @classmethod
    def hashed_projection(cls, dim: int, seed: int) -> "EmbedderBackend":
        return cls(kind=HASHED_KIND, dim=dim, seed=seed)

    @classmethod
    def precomputed_file(cls, path) -> "EmbedderBackend":
        arrays, meta = arrayio.load_arrays(path)
        dim = meta.get("dim")
        if type(dim) is not int or dim < 1:  # a bool is not an int
            raise ValueError(
                f"{path}: precomputed file needs an int 'dim' >= 1 in meta, got {dim!r}")
        table = {key: _checked_rows(arr, dim, f"{path}: entry {key!r}")
                 for key, arr in arrays.items()}
        return cls(kind=PRECOMPUTED_KIND, dim=dim, source_path=str(path), table=table)


def save_precomputed(path, entries: dict, dim: int) -> None:
    """Persist sample-keyed embedding matrices for the precomputed_file backend.

    Keys follow the convention "<sample_id>/<modality>"; every entry must be a
    finite (rows, dim) matrix, or nothing is written.
    """
    arrays = {key: _checked_rows(arr, dim, f"{path}: entry {key!r}")
              for key, arr in entries.items()}
    arrayio.save_arrays(path, arrays, meta={"dim": dim, "format": "secpatch-embeddings"})


def _checked_rows(arr, dim: int, where: str) -> np.ndarray:
    """A read-only float64 view of `arr` as finite rows of width `dim`; a ValueError
    naming `where` otherwise. embed_* hands the loaded entries out without copying."""
    rows = np.asarray(arr, dtype=np.float64).view()  # the caller's own array stays writable
    if rows.ndim != 2 or rows.shape[1] != dim:
        raise ValueError(f"{where} has shape {rows.shape}, expected (*, {dim})")
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise ValueError(f"{where} row {int(np.argmin(finite))} holds a NaN or an infinity")
    rows.flags.writeable = False
    return rows


_U32 = 0xFFFFFFFF


@lru_cache(maxsize=4)  # the few seeds in use: 2 MiB each
def _seed_words(seed: int) -> np.ndarray:
    """SeedSequence([seed, t]).generate_state(4, np.uint64) for every token id t, as a
    read-only (VOCAB_SIZE, 4) uint64 table.

    numpy's SeedSequence algorithm with its pool of four 32-bit words, run on every id
    at once; all arithmetic is mod 2**32. The entropy is the seed's 32-bit words, least
    significant first (0 gives one word), then the id as one word.
    """
    u = np.uint32
    entropy = [np.full(VOCAB_SIZE, seed >> shift & _U32, u)
               for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy.append(np.arange(VOCAB_SIZE, dtype=u))
    h = 0x43b0d7e5

    def hashmix(v):
        nonlocal h
        v = v ^ u(h)
        h = h * 0x931e8875 & _U32
        v = v * u(h)
        return v ^ (v >> u(16))

    def mix(x, y):
        r = x * u(0xca01f9dd) - y * u(0x4973f715)
        return r ^ (r >> u(16))

    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(VOCAB_SIZE, u))
            for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    h, out = 0x8b51f9dd, []
    for i in range(8):
        v = pool[i % 4] ^ u(h)
        h = h * 0x58f38ded & _U32
        v = v * u(h)
        out.append((v ^ (v >> u(16))).astype(np.uint64))
    # output words 2j and 2j + 1 are the low and high halves of uint64 word j
    words = np.stack([out[j] | (out[j + 1] << np.uint64(32)) for j in range(0, 8, 2)], axis=1)
    words.flags.writeable = False
    return words


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 the four uint64 words a SeedSequence would generate for it; PCG64 asks
    for nothing else."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


@lru_cache(maxsize=1 << 16)
def _token_row(seed: int, dim: int, token_id: int) -> np.ndarray:
    """Reproducible pseudo-random unit vector for one token id: the normalized draw of
    default_rng(SeedSequence([seed, token_id])), from the precomputed seed words."""
    rng = np.random.Generator(np.random.PCG64(_SeedWords(_seed_words(seed)[token_id])))
    row = rng.standard_normal(dim)
    row /= math.sqrt(row.dot(row))  # np.linalg.norm(row) for 1-D float64, without its dispatch
    row.flags.writeable = False
    return row


def _embed(tokens: tuple[int, ...], backend: EmbedderBackend, modality: Modality,
           sample_id: str | None) -> EmbeddingMatrix:
    if not tokens:
        # sentinel zero row keeps downstream shapes valid for missing modalities
        rows = np.zeros((1, backend.dim))
    elif backend.kind == HASHED_KIND:
        if min(tokens) < 0 or max(tokens) >= VOCAB_SIZE:
            bad = next(t for t in tokens if not 0 <= t < VOCAB_SIZE)
            raise ValueError(f"token id {bad} is outside the vocabulary [0, {VOCAB_SIZE})")
        # unit rows: finite float64 by construction
        rows = np.array([_token_row(backend.seed, backend.dim, t) for t in tokens])
    else:
        if sample_id is None:
            raise ValueError("precomputed_file backend requires a sample_id")
        key = f"{sample_id}/{modality.value}"
        if key not in backend.table:
            raise BackendMissingEntry(key)
        return EmbeddingMatrix(backend.table[key], modality)  # checked and frozen at load
    rows.flags.writeable = False
    return EmbeddingMatrix(rows, modality)


def embed_patch(tokens: tuple[int, ...], backend: EmbedderBackend,
                sample_id: str | None = None) -> EmbeddingMatrix:
    """Embed patch token ids to shape (seq_len, dim); empty input yields one zero row."""
    return _embed(tokens, backend, Modality.PATCH, sample_id)


def embed_text(tokens: tuple[int, ...], backend: EmbedderBackend, modality: Modality,
               sample_id: str | None = None) -> EmbeddingMatrix:
    """Embed text token ids under the requested text modality tag."""
    if modality is Modality.PATCH:
        raise ValueError("embed_text expects a text modality, got patch")
    return _embed(tokens, backend, modality, sample_id)
