"""Acceptance suite: one test per release criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import dataclasses
import itertools
import math
import time

import numpy as np

from oracles import (brute_force_triplets, central_difference, loop_confusion,
                     pair_count_auc, pca_eigh_reconstruction_error, scalar_euclidean)
from secpatch import (ExplainerConfig, HashTokenizer, Label, TrainOptions, auc_score, bce_loss, compute_metrics, cross_attention,
                      default_hyperparams, hashed_backends,
                      init_train_state, load_dataset, make_synthetic_samples, mine_triplets,
                      options_for_flags, pca_project, parse_unified_diff, predict,
                      run_ablation, sbcl_batch_loss_and_grad, self_attention,
                      split_dataset, tokenize, train)
from secpatch.fusion import fuse_forward
from secpatch.train import (_forward_sample, _trainable_params, batch_loss_and_grads,
                            encode_sample, sigmoid)

S, N = Label.SECURITY, Label.NON_SECURITY


def _passed(name: str) -> None:
    print(f"ACCEPTANCE pass - {name}")


def _overfit_hp(**overrides):
    base = dict(dim=16, num_heads=4, epochs=40, learning_rate=1e-2, dropout=0.0,
                batch_size_train=16, seed=7)
    base.update(overrides)
    return dataclasses.replace(default_hyperparams(), **base)


# ---------------------------------------------------------------------------

def test_gradient_fidelity_full_objective():
    """The trainer's analytic grads of L_BCE + L_SBCL match central differences, rel tol 1e-4.

    Covers both loss blends: the plain sum and an alpha blend with alpha != 0.5.
    """
    started = time.time()
    for loss_blend, coeff_bce, coeff_sbcl in (("sum", 1.0, 1.0), ("alpha", 0.3, 0.7)):
        _check_full_objective_gradients(loss_blend, coeff_bce, coeff_sbcl)
    elapsed = time.time() - started
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
    _passed(f"gradient fidelity (sum and alpha blends, rel tol 1e-4, {elapsed:.1f}s)")


def _check_full_objective_gradients(loss_blend, coeff_bce, coeff_sbcl):
    hp = dataclasses.replace(default_hyperparams(), dim=8, num_heads=2, dropout=0.0,
                             margin=0.5, alpha=0.3, seed=3)
    state = init_train_state(hp, TrainOptions(loss_blend=loss_blend))
    rng = np.random.default_rng(42)
    state.classifier.weight[:] = 0.05 * rng.standard_normal(24)
    state.classifier.bias[:] = 0.01

    labels = [S, S, S, N, N, N]
    y = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    batch = [tuple(rng.standard_normal((int(rng.integers(2, 6)), 8)) for _ in range(4))
             for _ in range(6)]

    def fused_matrix():
        return np.stack([fuse_forward(*mats, state.pt_former)[0] for mats in batch])

    def full_loss():
        fused = fused_matrix()
        probs = sigmoid(fused @ state.classifier.weight + state.classifier.bias[0])
        sbcl, _ = sbcl_batch_loss_and_grad(fused, labels, hp.margin)
        return coeff_bce * bce_loss(probs, y) + coeff_sbcl * sbcl

    # exclusion: stay away from hinge kinks
    fused = fused_matrix()
    for t in mine_triplets(fused, labels):
        gap = (scalar_euclidean(fused[t.anchor], fused[t.positive])
               - scalar_euclidean(fused[t.anchor], fused[t.negative]) + hp.margin)
        assert abs(gap) > 1e-3, "fixture sits on a hinge kink; pick another seed"

    # analytic gradients from the function every training step calls
    loss, analytic = batch_loss_and_grads(batch, labels, state)
    assert abs(loss.total - full_loss()) <= 1e-12 * abs(loss.total)

    arrays = _trainable_params(state)
    assert set(analytic) == set(arrays)
    numeric = central_difference(full_loss, arrays)
    for name in arrays:
        np.testing.assert_allclose(analytic[name], numeric[name], rtol=1e-4, atol=1e-7,
                                   err_msg=f"{loss_blend} blend gradient mismatch: {name}")


def test_mining_matches_exhaustive_search():
    """500 random batches of size <= 12: mined triplets equal brute force exactly."""
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(3, 13))
        mask = rng.random(n) < 0.5
        if mask.sum() < 2:  # mining needs two security and one non-security sample
            mask[rng.permutation(n)[:2]] = True
        if mask.all():
            mask[int(rng.integers(n))] = False
        batch = rng.standard_normal((n, int(rng.integers(2, 7))))
        labels = [S if flag else N for flag in mask]
        mined = [(t.anchor, t.positive, t.negative) for t in mine_triplets(batch, labels)]
        assert mined == brute_force_triplets(batch, mask)
    _passed("mining oracle (500 batches, exact equality)")


def test_loss_identities():
    """1000 random batches: nonnegative, zero iff separated, monotone in margin."""
    rng = np.random.default_rng(13)
    for _ in range(1000):
        n = int(rng.integers(3, 10))
        mask = np.zeros(n, dtype=bool)
        mask[:max(2, int(rng.integers(2, n)))] = True
        rng.shuffle(mask)
        if mask.sum() < 2 or mask.sum() == n:
            mask[:] = False
            mask[:2] = True
        labels = [S if flag else N for flag in mask]
        batch = rng.standard_normal((n, 4)) * float(rng.uniform(0.2, 3.0))
        m1, m2 = sorted(rng.uniform(0.0, 2.0, size=2))
        loss1 = sbcl_batch_loss_and_grad(batch, labels, m1)[0]
        loss2 = sbcl_batch_loss_and_grad(batch, labels, m2)[0]
        assert loss1 >= 0.0 and loss2 >= 0.0
        assert loss2 >= loss1  # margin monotonicity
        separated = all(
            scalar_euclidean(batch[t.anchor], batch[t.negative])
            >= scalar_euclidean(batch[t.anchor], batch[t.positive]) + m1
            for t in mine_triplets(batch, labels))
        assert (loss1 == 0.0) == separated
    _passed("loss identities (1000 batches)")


def test_metric_oracles():
    """Metrics on 200 random pairs match brute-force counting within 1e-12."""
    rng = np.random.default_rng(17)
    probs = np.round(rng.random(200), 2)
    labels = (rng.random(200) < 0.45).astype(int)
    threshold = 0.5
    report = compute_metrics(probs, labels, threshold)
    assert abs(report.auc - pair_count_auc(probs, labels)) <= 1e-12
    tp, fp, tn, fn = loop_confusion(probs, labels, threshold)
    assert (report.tp, report.fp, report.tn, report.fn) == (tp, fp, tn, fn)
    assert abs(report.plus_recall - tp / (tp + fn)) <= 1e-12
    assert abs(report.minus_recall - tn / (tn + fp)) <= 1e-12
    precision = tp / (tp + fp)
    expected_f1 = 2 * precision * report.plus_recall / (precision + report.plus_recall)
    assert abs(report.f1 - expected_f1) <= 1e-12
    assert abs(auc_score(np.exp(2.0 * probs), labels) - report.auc) <= 1e-12
    _passed("metric oracle (AUC/F1/recalls, 1e-12)")


def test_bce_analytic_value():
    assert abs(bce_loss([0.5, 0.5], [1, 0]) - math.log(2.0)) <= 1e-12
    _passed("BCE analytic check (ln 2, 1e-12)")


def test_attention_contracts():
    hp = dataclasses.replace(default_hyperparams(), dim=8, num_heads=2, dropout=0.0)
    state = init_train_state(hp).pt_former
    rng = np.random.default_rng(19)

    e = rng.standard_normal((3, 8))
    base, weights = self_attention(e, state.self_attn)
    assert np.all(np.abs(weights.sum(axis=-1) - 1.0) <= 1e-12)

    for perm in itertools.permutations(range(3)):
        shuffled, _ = self_attention(e[list(perm)], state.self_attn)
        np.testing.assert_allclose(shuffled, base[list(perm)], atol=1e-10)

    single = rng.standard_normal((1, 8))
    out_single, _ = self_attention(single, state.self_attn)
    expected = np.concatenate([single @ state.self_attn.w_v[h] for h in range(2)], axis=1)
    np.testing.assert_allclose(out_single, expected, atol=1e-12)

    pa = rng.standard_normal((4, 8))
    ex1 = rng.standard_normal((1, 8))
    out_ca, weights_ca = cross_attention(pa, ex1, state.cross_attn)
    assert np.all(np.abs(weights_ca.sum(axis=-1) - 1.0) <= 1e-12)
    expected_row = (ex1 @ state.cross_attn.w_v)[0]
    for row in out_ca:
        np.testing.assert_allclose(row, expected_row, atol=1e-12)
    _passed("attention contracts (row sums, equivariance, analytic cases)")


def test_end_to_end_overfit(tmp_path):
    """Synthetic separable 64-sample set reaches train F1 >= 0.95 within 200 epochs."""
    started = time.time()
    hp = _overfit_hp()
    samples = make_synthetic_samples(64, seed=11)
    split = split_dataset(samples, (0.8, 0.1, 0.1), seed=hp.seed)
    backends = hashed_backends(hp, ExplainerConfig(cache_dir=str(tmp_path / "cache")))

    state = None
    f1 = 0.0
    for _ in range(5):  # up to 5 x 40 = 200 epochs, stop as soon as the bar is cleared
        state, _ = train(split, hp, backends, state=state)
        results = predict(split.train, state, backends)
        report = compute_metrics([p for p, _ in results],
                                 [1 if s.label is S else 0 for s in split.train], 0.5)
        f1 = report.f1
        if f1 >= 0.95:
            break
    elapsed = time.time() - started
    assert f1 >= 0.95, f"train F1 {f1:.3f} after {state.epoch} epochs"
    assert state.epoch <= 200
    assert elapsed < 300.0, f"overfit run took {elapsed:.0f}s"
    _passed(f"end-to-end overfit (F1 {f1:.3f} at epoch {state.epoch}, {elapsed:.0f}s)")


def test_determinism_across_runs(tmp_path):
    """Identical config and seed give identical losses and byte-identical checkpoints."""
    hp = _overfit_hp(epochs=4)
    samples = make_synthetic_samples(64, seed=11)
    split = split_dataset(samples, (0.8, 0.1, 0.1), seed=hp.seed)
    outputs = []
    for tag in ("a", "b"):
        backends = hashed_backends(hp, ExplainerConfig(cache_dir=str(tmp_path / f"cache_{tag}")))
        ckpt_dir = tmp_path / f"ckpt_{tag}"
        _, records = train(split, hp, backends, checkpoint_dir=str(ckpt_dir))
        outputs.append((records, ckpt_dir))
    records_a, dir_a = outputs[0]
    records_b, dir_b = outputs[1]
    for ra, rb in zip(records_a, records_b):
        for key in ("L_BCE", "L_SBCL", "L"):
            assert abs(ra[key] - rb[key]) <= 1e-12
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name
    _passed("determinism (losses within 1e-12, byte-identical checkpoints)")


def test_ingestion_criteria(sock_fasync_text):
    parsed = parse_unified_diff(sock_fasync_text)
    assert len(parsed.hunks) == 3
    assert parsed.added_count == 3

    vocab = HashTokenizer()
    text = " ".join(f"token{i}" for i in range(600))
    assert len(vocab.encode(text)) == 600
    assert len(tokenize(text, 512)) == 512
    _passed("ingestion (3 hunks / 3 added; 600 -> 512 tokens)")


def test_pca_criteria():
    rng = np.random.default_rng(23)
    points = rng.standard_normal((50, 8))
    result = pca_project(points, components=2)
    gram = result.components @ result.components.T
    assert np.all(np.abs(gram - np.eye(2)) <= 1e-10)

    line = np.outer(rng.standard_normal(30), np.array([2.0, -1.0, 0.5]))
    rank1 = pca_project(line, components=1)
    assert rank1.explained_variance[0] >= 1.0 - 1e-10

    centered = points - points.mean(axis=0)
    recon = result.coordinates @ result.components
    err = float(np.sum((centered - recon) ** 2))
    assert abs(err - pca_eigh_reconstruction_error(points, 2)) <= 1e-8
    _passed("PCA (orthonormal 1e-10, rank-1 variance, eigh oracle 1e-8)")


def test_ablation_toggles(tmp_path, synthetic_path):
    hp = _overfit_hp(epochs=3)
    samples = load_dataset(synthetic_path)
    split = split_dataset(samples, (0.8, 0.1, 0.1), seed=hp.seed)
    backends = hashed_backends(hp, ExplainerConfig(cache_dir=str(tmp_path / "cache")))

    flag_sets = [("no_explanation",), ("no_instruction",), ("no_ptformer",), ("no_sbcl",)]
    rows = run_ablation(flag_sets, split, hp, backends)
    assert [row.flags for row in rows] == [()] + flag_sets
    by_flags = {row.flags: row for row in rows}

    assert all(r["L_SBCL"] == 0.0 for r in by_flags[("no_sbcl",)].epochs)
    for row in rows:
        assert row.metrics.n == len(split.test)
        record = row.metrics.to_record()
        assert set(record) == {"AUC", "F1", "+Recall", "-Recall", "tp", "fp", "tn", "fn", "n"}

    # no_ptformer keeps the 3*dim fused width via pooled plain concatenation
    options = options_for_flags(("no_ptformer",))
    state = init_train_state(hp, options)
    assert state.pt_former is None
    mats = encode_sample(split.train[0], backends, hp, options)
    vec = _forward_sample(mats, state)
    assert vec.shape == (3 * hp.dim,)
    _passed("ablation toggles (no_sbcl zero column, no_ptformer 3*dim, 4 flags complete)")
