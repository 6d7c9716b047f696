import re

import numpy as np
import pytest

from secpatch import (BackendMissingEntry, EmbedderBackend, Modality, default_hyperparams,
                      embed_patch, embed_text, save_precomputed, tokenize)
from secpatch.arrayio import save_arrays
from secpatch.dataset import VOCAB_SIZE
from secpatch.embed import _seed_words, _token_row
from secpatch.seeding import derive_seed


@pytest.fixture
def hashed():
    return EmbedderBackend.hashed_projection(dim=8, seed=7)


def test_hashed_deterministic(hashed):
    tokens = (3, 9, 27)
    a = embed_patch(tokens, hashed)
    b = embed_patch(tokens, hashed)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.modality is Modality.PATCH
    assert a.values.shape == (3, 8)
    assert a.values.dtype == np.float64 and not a.values.flags.writeable


def test_hashed_rows_unit_norm(hashed):
    matrix = embed_patch(tuple(range(40)), hashed)
    norms = np.linalg.norm(matrix.values, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_same_token_same_row(hashed):
    matrix = embed_patch((5, 5), hashed)
    np.testing.assert_array_equal(matrix.values[0], matrix.values[1])


def test_empty_sequence_sentinel(hashed):
    matrix = embed_patch((), hashed)
    assert matrix.values.shape == (1, 8)
    assert np.all(matrix.values == 0.0)
    assert matrix.values.dtype == np.float64 and not matrix.values.flags.writeable


def test_different_seeds_differ():
    tokens = (1, 2)
    a = embed_patch(tokens, EmbedderBackend.hashed_projection(8, seed=1))
    b = embed_patch(tokens, EmbedderBackend.hashed_projection(8, seed=2))
    assert not np.allclose(a.values, b.values)


def test_text_modalities_share_values(hashed):
    tokens = (4, 8)
    ex = embed_text(tokens, hashed, Modality.EXPLANATION)
    desc = embed_text(tokens, hashed, Modality.DESCRIPTION)
    np.testing.assert_array_equal(ex.values, desc.values)
    assert ex.modality is Modality.EXPLANATION
    assert desc.modality is Modality.DESCRIPTION


@pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None], ids=str)
def test_hashed_seed_must_be_a_non_negative_int(seed):
    with pytest.raises(ValueError, match=re.escape(
            f"hashed_projection seed must be an int >= 0, got {seed!r}")):
        EmbedderBackend.hashed_projection(8, seed)


@pytest.mark.parametrize("tokens, bad", [((3, 70000, 5), 70000), ((2 ** 40,), 2 ** 40),
                                         ((4, -1, VOCAB_SIZE), -1),
                                         ((0, VOCAB_SIZE - 1, VOCAB_SIZE), VOCAB_SIZE)])
def test_hashed_token_ids_must_be_in_the_vocabulary(hashed, tokens, bad):
    with pytest.raises(ValueError, match=re.escape(
            f"token id {bad} is outside the vocabulary [0, {VOCAB_SIZE})")):
        embed_patch(tokens, hashed)


def _seed_sequence_words(seed: int, token_id: int) -> np.ndarray:
    return np.random.SeedSequence([seed, token_id]).generate_state(4, np.uint64)


def test_seed_words_are_seed_sequence_words_for_every_id_of_the_pipeline_seeds():
    for name in ("embed-patch", "embed-text"):
        seed = derive_seed(default_hyperparams().seed, name)
        table = _seed_words(seed)
        assert table.shape == (VOCAB_SIZE, 4) and table.dtype == np.uint64
        assert not table.flags.writeable
        expected = np.array([_seed_sequence_words(seed, t) for t in range(VOCAB_SIZE)])
        assert np.array_equal(table, expected), name


@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 96 + 5])
def test_seed_words_are_seed_sequence_words_for_any_seed(seed):
    # 2**96 + 5 has four 32-bit words, so with the id the entropy outgrows the pool of four
    table = _seed_words(seed)
    ids = [0, 1, VOCAB_SIZE - 1, *np.random.default_rng(seed % 1000).integers(VOCAB_SIZE, size=200)]
    for t in ids:
        assert np.array_equal(table[t], _seed_sequence_words(seed, int(t))), t


@pytest.mark.parametrize("dim", [8, 256])
def test_token_rows_are_the_seed_sequence_generators_rows(dim):
    seed = derive_seed(3, "embed-text")
    for t in (0, 1, 4242, VOCAB_SIZE - 1):
        row = np.random.default_rng(np.random.SeedSequence([seed, t])).standard_normal(dim)
        row /= np.linalg.norm(row)
        assert _token_row(seed, dim, t).tobytes() == row.tobytes(), t


@pytest.mark.parametrize("dim", [1, 7, 256, 768])
def test_token_rows_normalise_as_numpys_norm_without_calling_it(monkeypatch, dim):
    # a miss divides by math.sqrt(row.dot(row)), which is numpy's 2-norm of a 1-D float64
    # row: sampled ids give the np.linalg.norm-normalised draw bit for bit
    seed = derive_seed(5, "embed-patch")
    expected = {}
    for t in np.random.default_rng(dim).integers(0, VOCAB_SIZE, 200).tolist():
        row = np.random.default_rng(np.random.SeedSequence([seed, t])).standard_normal(dim)
        expected[t] = row / np.linalg.norm(row)
    monkeypatch.setattr(np.linalg, "norm", lambda *args, **kwargs: pytest.fail("norm called"))
    for t, row in expected.items():
        assert _token_row.__wrapped__(seed, dim, t).tobytes() == row.tobytes(), t


def test_embedding_a_fresh_text_moves_the_token_row_cache():
    # the cache perfbench reads is the one _embed uses: a miss per new id, a hit per repeat
    backend = EmbedderBackend.hashed_projection(8, seed=derive_seed(12345, "fresh"))
    tokens = tokenize("fresh words, fresh rows: rows of fresh words", 64)
    distinct = len(set(tokens))
    assert distinct < len(tokens)
    before = _token_row.cache_info()
    embed_text(tokens, backend, Modality.DESCRIPTION)
    after = _token_row.cache_info()
    assert after.misses - before.misses == distinct
    assert after.hits - before.hits == len(tokens) - distinct


def test_embed_text_rejects_patch_modality(hashed):
    with pytest.raises(ValueError, match="text modality"):
        embed_text((1,), hashed, Modality.PATCH)


def test_precomputed_round_trip(tmp_path):
    path = tmp_path / "emb.bin"
    entries = {
        "s1/patch": np.arange(12.0).reshape(3, 4),
        "s1/explanation": np.ones((2, 4)),
    }
    save_precomputed(path, entries, dim=4)
    assert entries["s1/patch"].flags.writeable  # saving leaves the caller's arrays alone
    backend = EmbedderBackend.precomputed_file(path)
    assert backend.dim == 4
    got = embed_patch((1, 2, 3), backend, sample_id="s1")
    np.testing.assert_array_equal(got.values, entries["s1/patch"])
    got_ex = embed_text((9,), backend, Modality.EXPLANATION, sample_id="s1")
    np.testing.assert_array_equal(got_ex.values, entries["s1/explanation"])


def test_precomputed_missing_entry(tmp_path):
    path = tmp_path / "emb.bin"
    save_precomputed(path, {"s1/patch": np.ones((1, 4))}, dim=4)
    backend = EmbedderBackend.precomputed_file(path)
    with pytest.raises(BackendMissingEntry) as err:
        embed_patch((1,), backend, sample_id="absent")
    assert err.value.key == "absent/patch"
    with pytest.raises(ValueError, match="sample_id"):
        embed_patch((1,), backend)


def test_precomputed_empty_tokens_sentinel(tmp_path):
    path = tmp_path / "emb.bin"
    save_precomputed(path, {"s1/patch": np.ones((1, 4))}, dim=4)
    backend = EmbedderBackend.precomputed_file(path)
    matrix = embed_text((), backend, Modality.DESCRIPTION, sample_id="s1")
    assert matrix.values.shape == (1, 4)
    assert np.all(matrix.values == 0.0)


def test_precomputed_shape_validation(tmp_path):
    with pytest.raises(ValueError, match="shape"):
        save_precomputed(tmp_path / "bad.bin", {"s/patch": np.ones((2, 3))}, dim=4)


def test_backend_validation():
    with pytest.raises(ValueError, match="kind"):
        EmbedderBackend(kind="bert", dim=4)
    with pytest.raises(ValueError, match="dim"):
        EmbedderBackend(kind="hashed_projection", dim=0)


@pytest.mark.parametrize("dim, width", [(2.5, 2), ("16", 16), (True, 1), (None, 1), (0, 1)],
                         ids=["float", "string", "bool", "missing", "zero"])
def test_precomputed_dim_must_be_a_positive_int(tmp_path, dim, width):
    # each file's entries have the width int(dim) would give, so only the dim check can fail
    path = tmp_path / "emb.bin"
    meta = {"format": "secpatch-embeddings"} | ({} if dim is None else {"dim": dim})
    save_arrays(path, {"s1/patch": np.ones((1, width))}, meta)
    with pytest.raises(ValueError, match=re.escape(f"{path}: precomputed file needs an int "
                                                   f"'dim' >= 1 in meta, got {dim!r}")):
        EmbedderBackend.precomputed_file(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_precomputed_file_rejects_non_finite_entry(tmp_path, bad):
    path = tmp_path / "emb.bin"
    entry = np.ones((3, 4))
    entry[1, 2] = bad
    save_arrays(path, {"s1/explanation": np.ones((1, 4)), "s1/patch": entry}, {"dim": 4})
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: entry 's1/patch' row 1 holds a NaN or an infinity")):
        EmbedderBackend.precomputed_file(path)


@pytest.mark.parametrize("bad", [np.nan, -np.inf], ids=["nan", "-inf"])
def test_save_precomputed_refuses_non_finite_entry(tmp_path, bad):
    path = tmp_path / "emb.bin"
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: entry 's1/patch' row 0 holds a NaN or an infinity")):
        save_precomputed(path, {"s1/patch": [[bad, 1.0]]}, dim=2)
    assert not path.exists()


@pytest.mark.parametrize("dtype", ["<f4", "<i8"])
def test_precomputed_entries_embed_as_read_only_float64(tmp_path, dtype):
    path = tmp_path / "emb.bin"
    stored = (np.arange(12).reshape(3, 4) * 0.3 - 1.7).astype(dtype)
    save_arrays(path, {"s1/patch": stored}, {"dim": 4})
    rows = embed_patch((1, 2), EmbedderBackend.precomputed_file(path), sample_id="s1").values
    assert rows.dtype == np.float64 and not rows.flags.writeable
    np.testing.assert_array_equal(rows, stored.astype(np.float64))
