import dataclasses

import pytest

from secpatch import HyperParams, Label, PatchSample, config_from_dict, default_hyperparams


def test_default_hyperparams_published_values():
    hp = default_hyperparams()
    assert hp.epochs == 20
    assert hp.learning_rate == 1e-5
    assert hp.weight_decay == 0.01
    assert hp.batch_size_train == 16
    assert hp.batch_size_eval == 64
    assert hp.alpha == 0.5
    assert hp.temperature == 0.1
    assert hp.dropout == 0.5
    assert hp.margin == 0.5
    assert hp.num_heads == 4
    assert hp.dim == 256
    assert hp.max_tokens == 512


def test_hyperparams_override_keeps_rest():
    hp = dataclasses.replace(default_hyperparams(), dim=8, num_heads=2)
    assert hp.dim == 8
    assert hp.epochs == 20
    assert hp.learning_rate == 1e-5


def test_hyperparams_head_divisibility_rejected():
    with pytest.raises(ValueError, match="divisible"):
        dataclasses.replace(default_hyperparams(), num_heads=3, dim=256)


@pytest.mark.parametrize("field,value", [
    ("epochs", 0),
    ("learning_rate", 0.0),
    ("learning_rate", -1.0),
    ("dropout", 1.0),
    ("dropout", -0.1),
    ("margin", -0.5),
    ("num_heads", 0),
    ("max_tokens", 0),
    ("dim", 0),
    ("dim", -4),
    ("weight_decay", -0.01),
    ("alpha", -0.1),
    ("alpha", 1.5),
    ("temperature", 0.0),
    ("temperature", -0.1),
    ("learning_rate", float("nan")),
    ("margin", float("nan")),
])
def test_hyperparams_invariants_rejected_not_clamped(field, value):
    with pytest.raises(ValueError):
        dataclasses.replace(default_hyperparams(), **{field: value})


def test_hyperparams_reject_a_training_batch_too_small_to_hold_both_classes():
    # a batch is ceil(b/2) security samples and floor(b/2) others: at 1 the others never train
    with pytest.raises(ValueError, match="batch_size_train must be >= 2: .*SBCL never train"):
        dataclasses.replace(default_hyperparams(), batch_size_train=1)
    assert dataclasses.replace(default_hyperparams(), batch_size_train=2).batch_size_train == 2
    with pytest.raises(ValueError, match="batch_size_eval must be >= 1"):
        dataclasses.replace(default_hyperparams(), batch_size_eval=0)
    assert dataclasses.replace(default_hyperparams(), batch_size_eval=1).batch_size_eval == 1


def test_hyperparams_round_trip():
    hp = default_hyperparams()
    assert config_from_dict(HyperParams, dataclasses.asdict(hp), "hyperparams") == hp


def test_hyperparams_from_dict_rejects_unknown_and_missing():
    good = dataclasses.asdict(default_hyperparams())
    with pytest.raises(ValueError, match="unknown"):
        config_from_dict(HyperParams, {**good, "bogus": 1}, "hyperparams")
    bad = dict(good)
    del bad["margin"]
    with pytest.raises(ValueError, match="missing"):
        config_from_dict(HyperParams, bad, "hyperparams")


def test_patch_sample_validation_and_round_trip():
    # the JSONL round trip is dataset's: test_save_load_round_trip
    with pytest.raises(ValueError, match="non-empty"):
        PatchSample(id="b", diff_text="", label=Label.SECURITY)
    with pytest.raises(ValueError, match="label"):
        PatchSample(id="c", diff_text="+x", label="security")

