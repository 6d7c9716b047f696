import dataclasses

import pytest

from secpatch import (ExplainerConfig, Label, TrainOptions, cross_dataset_eval,
                      default_hyperparams, hashed_backends, make_synthetic_samples,
                      options_for_flags, repeated_runs, run_ablation, split_dataset)


@pytest.fixture
def tiny_hp():
    # margin above the initial class gap so the contrastive term starts active
    return dataclasses.replace(default_hyperparams(), dim=8, num_heads=2, epochs=3,
                               learning_rate=1e-2, dropout=0.0, batch_size_train=8,
                               margin=1.5, seed=5)


@pytest.fixture
def tiny_split(tiny_hp):
    samples = make_synthetic_samples(24, seed=3)
    return split_dataset(samples, (0.7, 0.15, 0.15), seed=tiny_hp.seed)


@pytest.fixture
def tiny_backends(tiny_hp, tmp_path):
    return hashed_backends(tiny_hp, ExplainerConfig(cache_dir=str(tmp_path / "cache")))


def test_options_for_flags_mapping():
    options = options_for_flags(("no_sbcl", "no_ptformer"))
    assert not options.use_sbcl
    assert not options.use_ptformer
    assert options.use_explanation and options.use_instruction
    with pytest.raises(ValueError, match="unknown ablation flag"):
        options_for_flags(("no_dropout",))


def test_run_ablation_baseline_first_and_toggle_semantics(tiny_hp, tiny_split, tiny_backends):
    rows = run_ablation([("no_sbcl",)], tiny_split, tiny_hp, tiny_backends)
    assert rows[0].flags == ()
    assert rows[1].flags == ("no_sbcl",)
    assert all(record["L_SBCL"] == 0.0 for record in rows[1].epochs)
    assert any(record["L_SBCL"] != 0.0 for record in rows[0].epochs)
    # the baseline leads wherever () is given, and a repeated flag set trains once
    again = run_ablation([("no_sbcl",), (), ("no_sbcl",), ("no_sbcl", "no_sbcl")], tiny_split,
                         tiny_hp, tiny_backends)
    assert [row.flags for row in again] == [(), ("no_sbcl",)]
    assert [row.epochs for row in again] == [row.epochs for row in rows]


def test_run_ablation_checks_every_flag_before_training(tiny_hp, tiny_split, tiny_backends,
                                                        tmp_path):
    out_dir = tmp_path / "ablation"
    with pytest.raises(ValueError, match="no_sbc'"):
        run_ablation([("no_sbcl",), ("no_sbc",)], tiny_split, tiny_hp, tiny_backends,
                     out_dir=str(out_dir))
    assert not out_dir.exists()


def test_run_ablation_baseline_equals_plain_run(tiny_hp, tiny_split, tiny_backends):
    from secpatch import predict, train, compute_metrics
    rows = run_ablation([], tiny_split, tiny_hp, tiny_backends)
    assert len(rows) == 1
    state, _ = train(tiny_split, tiny_hp, tiny_backends)
    results = predict(tiny_split.test, state, tiny_backends)
    direct = compute_metrics([p for p, _ in results],
                             [1 if s.label is Label.SECURITY else 0 for s in tiny_split.test],
                             0.5)
    assert rows[0].metrics == direct


def test_cross_dataset_eval_tags_and_degenerate_case(tiny_hp, tiny_backends):
    ds_a = split_dataset(make_synthetic_samples(24, seed=3, source="alpha"),
                         (0.7, 0.15, 0.15), seed=tiny_hp.seed)
    ds_b = split_dataset(make_synthetic_samples(24, seed=9, source="beta"),
                         (0.7, 0.15, 0.15), seed=tiny_hp.seed)
    result = cross_dataset_eval(ds_a, ds_b, tiny_hp, tiny_backends)
    assert result.train_source == "alpha"
    assert result.test_source == "beta"
    assert result.metrics.n == len(ds_b.test)

    same = cross_dataset_eval(ds_a, ds_a, tiny_hp, tiny_backends)
    assert same.train_source == same.test_source == "alpha"


def test_repeated_runs_summary(tiny_hp, tiny_split, tiny_backends):
    summary = repeated_runs(2, tiny_split, tiny_hp, tiny_backends,
                            options=TrainOptions(use_sbcl=False))
    assert set(summary) <= {"AUC", "F1", "+Recall", "-Recall"}
    for stats in summary.values():
        assert stats["runs"] == 2
        assert stats["stdev"] >= 0.0
    with pytest.raises(ValueError):
        repeated_runs(0, tiny_split, tiny_hp, tiny_backends)
