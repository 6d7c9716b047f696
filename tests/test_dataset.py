import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, make_sample
from secpatch import (EmptyClass, HashTokenizer, Label, SchemaError, load_dataset,
                      save_dataset, split_dataset, tokenize)


def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def _record(i, label="security", **extra):
    return {"id": f"r{i}", "diff": f"@@ -1,0 +1,1 @@\n+line {i}\n", "label": label, **extra}


def test_load_preserves_order(tmp_path):
    path = tmp_path / "ds.jsonl"
    _write_jsonl(path, [_record(0), _record(1, label="non-security")])
    samples = load_dataset(path)
    assert [s.id for s in samples] == ["r0", "r1"]
    assert samples[0].label is Label.SECURITY
    assert samples[1].label is Label.NON_SECURITY


def test_load_optional_fields(tmp_path):
    path = tmp_path / "ds.jsonl"
    _write_jsonl(path, [_record(0, message="fix", explanation="adds x", source="proj")])
    sample = load_dataset(path)[0]
    assert sample.description == "fix"
    assert sample.explanation == "adds x"
    assert sample.source == "proj"


def test_missing_label_names_record(tmp_path):
    path = tmp_path / "ds.jsonl"
    records = [_record(i) for i in range(4)]
    bad = _record(4)
    del bad["label"]
    _write_jsonl(path, records + [bad])
    with pytest.raises(SchemaError) as err:
        load_dataset(path)
    assert err.value.index == 4
    assert err.value.field == "label"


def test_bad_label_value_rejected(tmp_path):
    path = tmp_path / "ds.jsonl"
    _write_jsonl(path, [_record(0, label="maybe")])
    with pytest.raises(SchemaError) as err:
        load_dataset(path)
    assert err.value.field == "label"


def test_invalid_json_line(tmp_path):
    path = tmp_path / "ds.jsonl"
    path.write_text('{"id": "a"\n', encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        load_dataset(path)
    assert err.value.index == 0


@pytest.mark.parametrize("line, field", [
    ("5", "record"),
    ("null", "record"),
    ('["r1"]', "record"),
    (json.dumps(_record(1) | {"diff": 5}), "diff"),
    (json.dumps(_record(1) | {"label": ["security"]}), "label"),
    (json.dumps(_record(1) | {"message": 5}), "message"),
    (json.dumps(_record(1) | {"explanation": ["why"]}), "explanation"),
    (json.dumps(_record(1) | {"source": {"repo": "x"}}), "source"),
], ids=["int", "null", "list", "diff", "label", "message", "explanation", "source"])
def test_records_of_the_wrong_type_name_index_and_field(tmp_path, line, field):
    path = tmp_path / "ds.jsonl"
    path.write_text(json.dumps(_record(0)) + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="record 1: ") as err:
        load_dataset(path)
    assert (err.value.index, err.value.field) == (1, field)


def test_repeated_id_names_both_records(tmp_path):
    path = tmp_path / "ds.jsonl"
    _write_jsonl(path, [_record(0), _record(1), _record(0, label="non-security")])
    with pytest.raises(SchemaError, match="record 2: id 'r0' repeats record 0") as err:
        load_dataset(path)
    assert (err.value.index, err.value.field) == (2, "id")


def test_class_counts_from_fixture(tmp_path):
    path = tmp_path / "ds.jsonl"
    _write_jsonl(path, [_record(0, label="security"),
                        _record(1, label="non-security"),
                        _record(2, label="non-security")])
    samples = load_dataset(path)
    n_security = sum(1 for s in samples if s.label is Label.SECURITY)
    n_non = sum(1 for s in samples if s.label is Label.NON_SECURITY)
    assert (n_security, n_non) == (1, 2)


def test_save_load_round_trip(tmp_path):
    samples = [make_sample(i, Label.SECURITY if i % 2 else Label.NON_SECURITY)
               for i in range(6)]
    path = tmp_path / "ds.jsonl"
    save_dataset(samples, path)
    assert load_dataset(path) == samples


# ---------------------------------------------------------------------------
# splitting

def test_split_sizes_and_determinism():
    samples = [make_sample(i, Label.SECURITY if i < 5 else Label.NON_SECURITY)
               for i in range(10)]
    split_a = split_dataset(samples, (0.8, 0.1, 0.1), seed=7)
    split_b = split_dataset(samples, (0.8, 0.1, 0.1), seed=7)
    assert (len(split_a.train), len(split_a.validation), len(split_a.test)) == (8, 1, 1)
    assert split_a == split_b


def test_split_rejects_bad_ratios():
    samples = [make_sample(i, Label.SECURITY) for i in range(4)]
    with pytest.raises(ValueError, match="sum"):
        split_dataset(samples, (0.5, 0.5, 0.1), seed=1)
    with pytest.raises(ValueError, match="positive"):
        split_dataset(samples, (1.0, 0.0, 0.0), seed=1)


def test_split_stratification_within_one_sample():
    samples = [make_sample(i, Label.SECURITY if i < 30 else Label.NON_SECURITY)
               for i in range(100)]
    split = split_dataset(samples, (0.8, 0.1, 0.1), seed=3)
    train_security = sum(1 for s in split.train if s.label is Label.SECURITY)
    assert abs(train_security - 24) <= 1
    assert len(split.train) == 80


def test_split_single_class_raises_empty_class():
    samples = [make_sample(i, Label.SECURITY) for i in range(10)]
    with pytest.raises(EmptyClass):
        split_dataset(samples, (0.8, 0.1, 0.1), seed=1)
    unstratified = split_dataset(samples, (0.8, 0.1, 0.1), seed=1, stratify=False)
    assert len(unstratified.train) == 8


@pytest.mark.parametrize("stratify", [False, True])
def test_split_order_is_pinned(stratify):
    # ordered part indices recorded from the split routine for a grid of sizes,
    # ratios and seeds; sample i is security when i % 3 == 0
    with open(os.path.join(DATA_DIR, "split_pins.json"), encoding="utf-8") as fh:
        cases = [case for case in json.load(fh) if case["stratify"] is stratify]
    assert len(cases) == 6 * 3 * 3
    for case in cases:
        samples = [make_sample(i, Label.SECURITY if i % 3 == 0 else Label.NON_SECURITY)
                   for i in range(case["n"])]
        if case["parts"] == "EmptyClass":
            assert stratify and case["n"] == 1
            with pytest.raises(EmptyClass):
                split_dataset(samples, case["ratios"], case["seed"], stratify=stratify)
            continue
        split = split_dataset(samples, case["ratios"], case["seed"], stratify=stratify)
        got = [[int(s.id[1:]) for s in part] for part in (split.train, split.validation,
                                                           split.test)]
        assert got == case["parts"], case


@given(n_security=st.integers(0, 25), n_non=st.integers(0, 25), seed=st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_split_partitions_input(n_security, n_non, seed):
    samples = [make_sample(i, Label.SECURITY) for i in range(n_security)]
    samples += [make_sample(1000 + i, Label.NON_SECURITY) for i in range(n_non)]
    split = split_dataset(samples, (0.6, 0.2, 0.2), seed=seed, stratify=False)
    parts = [set(s.id for s in split.train), set(s.id for s in split.validation),
             set(s.id for s in split.test)]
    assert parts[0] | parts[1] | parts[2] == {s.id for s in samples}
    assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])


# ---------------------------------------------------------------------------
# tokenization

def test_tokenize_truncates_to_prefix():
    vocab = HashTokenizer()
    text = " ".join(f"tok{i}" for i in range(600))
    full = vocab.encode(text)
    ids = tokenize(text, vocab, 512)
    assert ids == tuple(full[:512])  # a tuple of the first 512 ids


def test_tokenize_boundary_and_empty():
    vocab = HashTokenizer()
    text = " ".join(f"tok{i}" for i in range(512))
    assert len(tokenize(text, vocab, 512)) == 512
    assert len(tokenize("", vocab, 512)) == 0
    with pytest.raises(ValueError):
        tokenize("x", vocab, 0)


def test_hash_tokenizer_stable_across_instances():
    a = HashTokenizer().encode("strcpy(buf, input); // fix")
    b = HashTokenizer().encode("strcpy(buf, input); // fix")
    assert a == b
    assert len(a) > 4  # punctuation splits into separate tokens


@given(st.text(max_size=400), st.integers(1, 64))
@settings(max_examples=80, deadline=None)
def test_tokenize_length_bound(text, max_tokens):
    ids = tokenize(text, HashTokenizer(), max_tokens)
    assert len(ids) <= max_tokens
