import copy
import dataclasses
import importlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, make_sample
from oracles import loop_class_cycle, scalar_bce, serial_batch_grads, serial_evaluation
from secpatch import (ClassifierParams, DivergenceDetected, EmbedderBackend, ExplainerConfig,
                      FusedEmbedding, Label, LengthMismatch, PipelineBackends, TrainOptions,
                      bce_loss, compute_metrics, default_hyperparams, encode_sample,
                      fused_embeddings, hashed_backends, head_probability, init_train_state,
                      load_checkpoint, make_synthetic_samples, predict, save_checkpoint,
                      split_dataset, train)
from secpatch.arrayio import load_arrays, save_arrays
from secpatch.train import (ADAM_EPS, InvalidCheckpoint, _compose_batches, _fusion_pool,
                            _train_batch, _validation_metrics, adamw_step, batch_loss_and_grads,
                            encode_samples)

train_module = importlib.import_module("secpatch.train")  # the package re-exports train()


def _classifier(weight, bias=0.0):
    return ClassifierParams(weight=np.asarray(weight, dtype=np.float64),
                            bias=np.array([bias], dtype=np.float64))


def test_predict_probability_zero_logit():
    c = _classifier(np.zeros(5))
    for _ in range(3):
        e = FusedEmbedding(np.random.default_rng(1).standard_normal(5))
        assert head_probability(e.values, c) == 0.5


def test_predict_probability_monotone_in_bias():
    e = FusedEmbedding(np.ones(3))
    probs = [float(head_probability(e.values, _classifier(np.zeros(3), bias=b)))
             for b in (-20.0, -1.0, 0.0, 1.0, 20.0)]
    assert probs == sorted(probs)
    assert probs[-1] > 0.999999


def test_predict_probability_direct_arithmetic():
    e = FusedEmbedding(np.array([1.0, 2.0, 0.0]))
    c = _classifier(np.array([1.0, -1.0, 0.0]))
    expected = 1.0 / (1.0 + math.exp(1.0))
    assert head_probability(e.values, c) == pytest.approx(expected, abs=1e-12)
    # a batch of rows gets the same head, row by row
    batch = head_probability(np.stack([e.values, np.zeros(3)]), c)
    np.testing.assert_allclose(batch, [expected, 0.5], rtol=0, atol=1e-12)


def test_predict_probability_length_check():
    with pytest.raises(ValueError, match="length"):
        head_probability(FusedEmbedding(np.ones(4)).values, _classifier(np.ones(3)))


def test_bce_perfect_prediction_near_zero():
    assert bce_loss([1.0], [1]) <= 1e-11


def test_bce_uniform_is_ln2():
    assert bce_loss([0.5, 0.5], [1, 0]) == pytest.approx(math.log(2.0), abs=1e-12)


def test_bce_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    probs = rng.uniform(0.01, 0.99, size=20)
    labels = (rng.random(20) < 0.5).astype(int)
    assert bce_loss(probs, labels) == pytest.approx(scalar_bce(probs, labels), abs=1e-12)


def test_bce_length_mismatch():
    with pytest.raises(LengthMismatch):
        bce_loss([0.5], [1, 0])


def test_bce_nonnegative_and_zero_only_when_correct():
    assert bce_loss([0.0], [1]) > 10.0  # clamped, finite
    assert bce_loss([1.0, 0.0], [1, 0]) <= 1e-11


# ---------------------------------------------------------------------------
# joint objective: batches through the pooled-concatenation path, so each sample's
# fused vector is [point, 0, 0] and the embeddings are set directly

def _pooled_state(dim, margin=0.5, **options):
    hp = dataclasses.replace(default_hyperparams(), dim=dim, num_heads=1, margin=margin,
                             alpha=0.25, seed=5)
    return init_train_state(hp, TrainOptions(use_ptformer=False, **options))


def _pooled_mats(points):
    mats = []
    for point in np.atleast_2d(points):
        row = np.asarray(point, dtype=np.float64)[None, :]
        zeros = np.zeros_like(row)
        mats.append((row, row, zeros, zeros))
    return mats


ACTIVE_POINTS = [[0.0], [3.0], [1.0]]  # both anchors' triplets violate the margin
ACTIVE_LABELS = [Label.SECURITY, Label.SECURITY, Label.NON_SECURITY]


def test_blend_modes():
    state = _pooled_state(1, loss_blend="sum")
    loss, _ = batch_loss_and_grads(_pooled_mats(ACTIVE_POINTS), ACTIVE_LABELS, state)
    assert loss.bce > 0.0 and loss.sbcl > 0.0
    assert loss.total == pytest.approx(loss.bce + loss.sbcl, abs=1e-12)
    with pytest.raises(ValueError):
        TrainOptions(loss_blend="product")


def test_ff_hidden_must_be_positive():
    for width in (0, -3):
        with pytest.raises(ValueError, match="ff_hidden"):
            TrainOptions(ff_hidden=width)


def test_combined_loss_perfect_batch():
    points = [[0.0, 0.0], [0.1, 0.0], [50.0, 0.0], [50.0, 50.0]]
    labels = [Label.SECURITY, Label.SECURITY, Label.NON_SECURITY, Label.NON_SECURITY]
    state = _pooled_state(2)
    state.classifier.weight[0] = -2.0  # saturated logits: 40 for security, -60 otherwise
    state.classifier.bias[0] = 40.0
    result, _ = batch_loss_and_grads(_pooled_mats(points), labels, state)
    assert result.total <= 1e-10
    assert not result.sbcl_skipped


def test_combined_loss_skips_unminable_batch():
    labels = [Label.SECURITY, Label.SECURITY]
    state = _pooled_state(3)
    state.classifier.bias[0] = 1.0
    result, _ = batch_loss_and_grads(_pooled_mats(np.zeros((2, 3))), labels, state)
    assert result.sbcl == 0.0
    assert result.sbcl_skipped
    assert result.total == pytest.approx(result.bce, abs=1e-12)


def test_combined_loss_alpha_blend():
    state = _pooled_state(1, margin=0.0, loss_blend="alpha")
    result, _ = batch_loss_and_grads(_pooled_mats(ACTIVE_POINTS), ACTIVE_LABELS, state)
    assert result.sbcl > 0.0
    assert result.total == pytest.approx(0.25 * result.bce + 0.75 * result.sbcl, abs=1e-12)


def test_train_batch_reports_skipped_sbcl():
    # one security sample cannot anchor a triplet: the step is BCE-only and says so
    labels = [Label.SECURITY, Label.NON_SECURITY, Label.NON_SECURITY]
    batch = [make_sample(i, label) for i, label in enumerate(labels)]
    encoded = dict(zip((s.id for s in batch), _pooled_mats([[1.0], [2.0], [3.0]])))
    state = _pooled_state(1)
    loss = _train_batch(batch, encoded, state)
    assert loss.sbcl_skipped
    assert state.sbcl_skipped == 1
    assert state.adam_t == 1
    minable = [make_sample(3, Label.SECURITY)] + batch
    encoded[minable[0].id] = _pooled_mats([[0.5]])[0]
    assert not _train_batch(minable, encoded, state).sbcl_skipped
    assert state.sbcl_skipped == 1


# ---------------------------------------------------------------------------
# per-sample fusion passes on a thread pool

def _ragged_batch(n: int, dim: int, seed: int):
    """n encoded samples, each modality 1 to 9 rows, labels alternating from security."""
    rng = np.random.default_rng(seed)
    mats = [tuple(rng.standard_normal((int(rng.integers(1, 10)), dim)) for _ in range(4))
            for _ in range(n)]
    return mats, [Label.SECURITY if i % 2 == 0 else Label.NON_SECURITY for i in range(n)]


def _ptformer_state(dropout: float):
    hp = dataclasses.replace(default_hyperparams(), dim=8, num_heads=2, dropout=dropout,
                             margin=0.5, seed=5)
    state = init_train_state(hp)
    state.classifier.weight[:] = 0.1 * np.random.default_rng(6).standard_normal(24)
    return state


def _assert_same_bits(result, expected):
    (loss, grads), (oracle_loss, oracle_grads) = result, expected
    assert loss == oracle_loss
    assert grads.keys() == oracle_grads.keys()
    for name, grad in oracle_grads.items():
        assert np.array_equal(grads[name], grad), name


@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("batch_size", [1, 2, 3, 17])
def test_batch_grads_match_serial_oracle_on_any_pool(monkeypatch, dropout, batch_size):
    # no pool, and pools with fewer, as many and more workers than samples and than cores,
    # with the interpreter switching threads as often as it can: the bits never change
    mats, labels = _ragged_batch(batch_size, 8, seed=batch_size)
    state = _ptformer_state(dropout)
    oracle_state = copy.deepcopy(state)
    expected = serial_batch_grads(mats, labels, oracle_state)
    drawn = {name: gen.bit_generator.state for name, gen in oracle_state.rngs.items()}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (None, 1, 2, 8):
            monkeypatch.setattr(train_module, "_WORKERS", workers or 1)
            run_state = copy.deepcopy(state)
            pool = ThreadPoolExecutor(workers) if workers else None
            try:
                result = batch_loss_and_grads(mats, labels, run_state, pool=pool)
            finally:
                if pool is not None:
                    pool.shutdown()
            _assert_same_bits(result, expected)
            assert {name: gen.bit_generator.state for name, gen in run_state.rngs.items()} == drawn
    finally:
        sys.setswitchinterval(interval)


class _Injected(RuntimeError):
    pass


def test_worker_failure_propagates_and_the_pool_recovers(monkeypatch):
    mats, labels = _ragged_batch(6, 8, seed=9)
    state = _ptformer_state(0.5)
    original, calls, lock = train_module.fuse_backward, itertools.count(1), threading.Lock()

    def third_call_fails(d_vector, cache, pt):
        with lock:
            call = next(calls)
        if call == 3:
            raise _Injected("backward pass of the third sample")
        return original(d_vector, cache, pt)

    monkeypatch.setattr(train_module, "_WORKERS", 2)
    with ThreadPoolExecutor(2) as pool:
        monkeypatch.setattr(train_module, "fuse_backward", third_call_fails)
        with pytest.raises(_Injected):
            batch_loss_and_grads(mats, labels, state, pool=pool)
        monkeypatch.setattr(train_module, "fuse_backward", original)
        expected = serial_batch_grads(mats, labels, copy.deepcopy(state))
        _assert_same_bits(batch_loss_and_grads(mats, labels, state, pool=pool), expected)


def test_train_shuts_its_pool_down_when_a_worker_fails(monkeypatch, small_hp, offline_backends):
    monkeypatch.setattr(train_module, "_WORKERS", 2)
    monkeypatch.setattr(train_module, "_THREADED_MIN_DIM", 1)

    def fails(d_vector, cache, pt):
        raise _Injected("backward pass")

    monkeypatch.setattr(train_module, "fuse_backward", fails)
    with pytest.raises(_Injected):
        train(_tiny_split(small_hp), small_hp, offline_backends)
    assert not [t for t in threading.enumerate() if t.name.startswith("secpatch-fusion")]


def test_train_artifacts_independent_of_worker_count(monkeypatch, small_hp, tmp_path):
    # the width threshold lowered so that this small model trains on threads too
    monkeypatch.setattr(train_module, "_THREADED_MIN_DIM", 1)
    hp = dataclasses.replace(small_hp, dropout=0.5)
    split = _tiny_split(hp)
    outputs = []
    for workers in (1, 3):
        monkeypatch.setattr(train_module, "_WORKERS", workers)
        out = tmp_path / f"workers_{workers}"
        backends = hashed_backends(hp, ExplainerConfig(cache_dir=str(out / "cache")))
        train(split, hp, backends, checkpoint_dir=str(out / "ckpt"),
              run_log_path=str(out / "run_log.jsonl"))
        outputs.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*")
                        if p.is_file() and "cache" not in p.parts})
    assert outputs[0] == outputs[1]
    assert any(p.name == "best.json" for p in outputs[0])


# ---------------------------------------------------------------------------
# evaluation fusion passes on the same pool

def _ragged_samples(n: int):
    """n patches of 1 to 12 changed lines, labels alternating from security; every third
    has no description."""
    samples = []
    for i in range(n):
        lines = 1 + 5 * i % 12
        diff = f"@@ -1,{lines} +1,{lines} @@\n" + "".join(
            f"-old_{i}_{j} = a{j};\n+new_{i}_{j} = b{j} + {i};\n" for j in range(lines))
        sample = make_sample(i, Label.SECURITY if i % 2 == 0 else Label.NON_SECURITY, diff)
        if i % 3:
            sample = dataclasses.replace(sample, description=f"change {i} " * (1 + i))
        samples.append(sample)
    return samples


def _threaded_eval_setup(tmp_path):
    """A PT-Former state wide enough to make a fusion pool, with a non-zero head."""
    hp = dataclasses.replace(default_hyperparams(), dim=128, num_heads=4, seed=5)
    state = init_train_state(hp)
    state.classifier.weight[:] = 0.1 * np.random.default_rng(6).standard_normal(3 * hp.dim)
    return state, hashed_backends(hp, ExplainerConfig(cache_dir=str(tmp_path / "cache")))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_evaluation_matches_the_one_thread_loop_on_any_pool(monkeypatch, tmp_path, workers):
    # 7 samples: no pool, or pools whose last chunk is short, with the interpreter switching
    # threads as often as it can; vectors, scores and validation metrics keep their bits
    state, backends = _threaded_eval_setup(tmp_path)
    samples = _ragged_samples(7)
    vectors, probs = serial_evaluation(samples, state, backends)
    expected = compute_metrics(probs, [1 if s.label is Label.SECURITY else 0 for s in samples],
                               state.options.threshold)
    encoded = encode_samples(samples, backends, state.hp, state.options)

    original, threads = train_module.fuse_forward, []

    def recorded(*args):
        threads.append(threading.current_thread().name)
        return original(*args)

    monkeypatch.setattr(train_module, "fuse_forward", recorded)
    monkeypatch.setattr(train_module, "_WORKERS", workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        fused = fused_embeddings(samples, state, backends)
        results = predict(samples, state, backends)
        with _fusion_pool(state, len(samples)) as pool:  # the pool train() holds for its epochs
            metrics = _validation_metrics(samples, encoded, state, pool)
    finally:
        sys.setswitchinterval(interval)
    assert len(fused) == len(vectors)
    assert all(np.array_equal(f.values, v) for f, v in zip(fused, vectors))
    assert [p for p, _ in results] == probs
    assert metrics == (expected.auc, expected.f1)
    assert len(threads) == 3 * len(samples)
    if workers == 1:
        assert set(threads) == {threading.main_thread().name}
    else:
        assert all(name.startswith("secpatch-fusion") for name in threads)


@pytest.mark.parametrize("run", [predict, fused_embeddings])
def test_evaluation_worker_failure_reaches_the_caller(monkeypatch, tmp_path, run):
    state, backends = _threaded_eval_setup(tmp_path)
    original, calls, lock = train_module.fuse_forward, itertools.count(1), threading.Lock()
    failed_on = []

    def third_call_fails(*args):
        with lock:
            call = next(calls)
        if call == 3:
            failed_on.append(threading.current_thread().name)
            raise _Injected("forward pass of the third sample")
        return original(*args)

    monkeypatch.setattr(train_module, "_WORKERS", 2)
    monkeypatch.setattr(train_module, "fuse_forward", third_call_fails)
    with pytest.raises(_Injected):
        run(_ragged_samples(5), state, backends)
    assert failed_on[0].startswith("secpatch-fusion")
    assert not [t for t in threading.enumerate() if t.name.startswith("secpatch-fusion")]


def test_single_patch_predict_makes_no_pool(monkeypatch, tmp_path):
    state, backends = _threaded_eval_setup(tmp_path)
    real, made = train_module.ThreadPoolExecutor, []

    def counted(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(train_module, "_WORKERS", 2)
    monkeypatch.setattr(train_module, "ThreadPoolExecutor", counted)
    samples = _ragged_samples(2)
    predict(samples[:1], state, backends)
    assert made == []
    predict(samples, state, backends)  # two samples at this width do make one
    assert len(made) == 1


# ---------------------------------------------------------------------------
# optimizer

def test_adamw_zero_gradients_zero_decay_is_noop():
    params = {"w": np.array([1.0, -2.0, 3.0])}
    m = {"w": np.zeros(3)}
    v = {"w": np.zeros(3)}
    before = params["w"].copy()
    adamw_step(params, {"w": np.zeros(3)}, m, v, t=1, learning_rate=0.1, weight_decay=0.0)
    np.testing.assert_array_equal(params["w"], before)


def test_adamw_zero_learning_rate_is_noop():
    params = {"w": np.array([1.0, -2.0])}
    m = {"w": np.zeros(2)}
    v = {"w": np.zeros(2)}
    before = params["w"].copy()
    adamw_step(params, {"w": np.ones(2)}, m, v, t=1, learning_rate=0.0, weight_decay=0.01)
    np.testing.assert_array_equal(params["w"], before)


def test_adamw_decoupled_decay_direction():
    params = {"w": np.array([10.0])}
    m = {"w": np.zeros(1)}
    v = {"w": np.zeros(1)}
    adamw_step(params, {"w": np.zeros(1)}, m, v, t=1, learning_rate=0.1, weight_decay=0.5)
    assert params["w"][0] == pytest.approx(10.0 - 0.1 * 0.5 * 10.0, abs=ADAM_EPS)


# ---------------------------------------------------------------------------
# batch composition

@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 17), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_compose_batches_matches_cursor_oracle(n_security, n_non, batch_size, seed):
    # refills permute the previous pass's order, so batches past a class's first pass pin it
    samples = [make_sample(i, Label.SECURITY if i < n_security else Label.NON_SECURITY)
               for i in range(n_security + n_non)]
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    sec = loop_class_cycle([s for s in samples if s.label is Label.SECURITY], oracle_rng)
    non = loop_class_cycle([s for s in samples if s.label is Label.NON_SECURITY], oracle_rng)
    n_batches = math.ceil(len(samples) / batch_size)
    want = [sec(math.ceil(batch_size / 2)) + non(batch_size // 2) for _ in range(n_batches)]
    assert list(_compose_batches(samples, batch_size, rng)) == want
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_compose_batches_rejects_an_empty_class():
    samples = [make_sample(i, Label.SECURITY) for i in range(3)]
    with pytest.raises(ValueError, match="empty class"):
        next(_compose_batches(samples, 4, np.random.default_rng(0)))


# ---------------------------------------------------------------------------
# training loop

def _tiny_split(hp):
    samples = [make_sample(i, Label.SECURITY if i % 2 == 0 else Label.NON_SECURITY)
               for i in range(12)]
    return split_dataset(samples, (0.7, 0.15, 0.15), seed=hp.seed)


def test_train_deterministic_and_checkpoints_identical(small_hp, tmp_path):
    split = _tiny_split(small_hp)
    runs = []
    for tag in ("a", "b"):
        explainer = ExplainerConfig(cache_dir=str(tmp_path / f"cache_{tag}"))
        backends = hashed_backends(small_hp, explainer)
        ckpt = tmp_path / f"ckpt_{tag}"
        log = tmp_path / f"log_{tag}.jsonl"
        _, records = train(split, small_hp, backends, checkpoint_dir=str(ckpt),
                           run_log_path=str(log))
        runs.append((records, ckpt, log))
    records_a, ckpt_a, log_a = runs[0]
    records_b, ckpt_b, log_b = runs[1]
    for ra, rb in zip(records_a, records_b):
        for key in ("L_BCE", "L_SBCL", "L"):
            assert abs(ra[key] - rb[key]) <= 1e-12
    assert log_a.read_bytes() == log_b.read_bytes()
    for name in sorted(p.name for p in ckpt_a.iterdir()):
        assert (ckpt_a / name).read_bytes() == (ckpt_b / name).read_bytes(), name


_BLAS_RUN = """
import dataclasses, os, sys
if sys.argv[2] == "one-core":  # before secpatch counts the cores it may use
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from secpatch import (ExplainerConfig, default_hyperparams, hashed_backends,
                      make_synthetic_samples, split_dataset, train)
hp = dataclasses.replace(default_hyperparams(), dim=256, num_heads=4, epochs=1,
                         batch_size_train=4, seed=3)
split = split_dataset(make_synthetic_samples(10, seed=11), (0.6, 0.2, 0.2), seed=hp.seed)
backends = hashed_backends(hp, ExplainerConfig(cache_dir=sys.argv[1] + "/cache"))
train(split, hp, backends, checkpoint_dir=sys.argv[1] + "/ckpt",
      run_log_path=sys.argv[1] + "/run_log.jsonl")
"""


def _train_child(out, threads: str, cores: str):
    """Checkpoints and run log, by relative path, of _BLAS_RUN in a fresh interpreter."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _BLAS_RUN, str(out), cores], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return {p.relative_to(out): p.read_bytes() for p in out.rglob("*")
            if p.is_file() and "cache" not in p.parts}


def test_train_checkpoints_independent_of_blas_threads(tmp_path):
    # attention and feed-forward run on BLAS, and the fusion passes on one thread per core;
    # neither thread count may change a single byte of the checkpoints or the run log
    reference = _train_child(tmp_path / "threads_1", "1", "all-cores")
    assert {"ckpt/epoch_0001.ckpt", "ckpt/best.json", "run_log.jsonl"} <= {
        p.as_posix() for p in reference}
    assert _train_child(tmp_path / "threads_2", "2", "all-cores") == reference
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no os.sched_setaffinity: the one-core child cannot be pinned")
    assert _train_child(tmp_path / "one_core", "2", "one-core") == reference


_BLAS_FUSION_RUN = """
import dataclasses, hashlib, sys
import numpy as np
from secpatch import default_hyperparams
from secpatch.fusion import fuse_backward, fuse_forward, init_pt_former
hp = dataclasses.replace(default_hyperparams(), dim=256, num_heads=4)
pt = init_pt_former(hp, 3)
rng = np.random.default_rng(4)
mats = [rng.standard_normal((int(rows), hp.dim)) for rows in (*sys.argv[1:3], 12, 29)]
vector, cache = fuse_forward(*mats, pt)
grads = fuse_backward(rng.standard_normal(vector.shape), cache, pt)
print(hashlib.sha256(vector.tobytes()).hexdigest(),
      hashlib.sha256(b"".join(grads[name].tobytes() for name in sorted(grads))).hexdigest())
"""


def _fusion_digests(shapes):
    """Per (patch rows, explanation rows): the digests of _BLAS_FUSION_RUN's fused vector
    and gradients, in fresh interpreters at OPENBLAS_NUM_THREADS 1 and 2."""
    if len(os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()) < 2:
        pytest.skip("fewer than two usable cores: OpenBLAS runs one thread whatever it is asked")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    digests = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        for rows in shapes:
            done = subprocess.run([sys.executable, "-c", _BLAS_FUSION_RUN, *map(str, rows)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            digests[threads, rows] = done.stdout
    return digests


def test_folded_patch_branch_independent_of_blas_threads():
    # the patch branch's folded matmuls (patch 512 onto explanations of 40 and 90 rows)
    shapes = [(512, 40), (512, 90)]
    digests = _fusion_digests(shapes)
    for rows in shapes:
        assert digests["2", rows] == digests["1", rows], f"{rows} rows"


@pytest.mark.xfail(strict=True, reason=(
    "OpenBLAS's threaded dgemm rounds the batched attention-score matmul "
    "((4, n, 64) @ (4, 64, n)) differently from its one-thread dgemm for an explanation "
    "of 100 to 400 rows at dim 256, so fuse_forward and fuse_backward depend on "
    "OPENBLAS_NUM_THREADS there"))
def test_fusion_passes_independent_of_blas_threads_on_long_explanations():
    shapes = [(64, 100), (64, 300), (64, 400)]
    digests = _fusion_digests(shapes)
    for rows in shapes:
        assert digests["2", rows] == digests["1", rows], f"{rows[1]}-row explanation"


def test_train_resume_advances_epochs(small_hp, offline_backends, tmp_path):
    split = _tiny_split(small_hp)
    state, records = train(split, small_hp, offline_backends)
    assert state.epoch == small_hp.epochs == len(records)
    state, more = train(split, small_hp, offline_backends, state=state)
    assert state.epoch == 2 * small_hp.epochs
    assert more[0]["epoch"] == small_hp.epochs + 1


@pytest.mark.parametrize("dim", [8, 128])  # at 128, more than one core runs the fusion pool
def test_resumed_run_equals_a_straight_run(small_hp, tmp_path, dim):
    # 2 epochs, a checkpoint reload, 2 more: the same parameters, moments, rng states,
    # run log and best.json as 4 epochs in one call; only meta.hp.epochs tells them apart
    hp = dataclasses.replace(small_hp, dim=dim, dropout=0.5)
    split = _tiny_split(hp)
    straight, resumed = tmp_path / "straight", tmp_path / "resumed"
    for out in (straight, resumed):
        out.mkdir()
    backends = hashed_backends(hp, ExplainerConfig(cache_dir=str(tmp_path / "cache")))
    train(split, dataclasses.replace(hp, epochs=4), backends,
          checkpoint_dir=str(straight), run_log_path=str(straight / "run_log.jsonl"))
    two = dataclasses.replace(hp, epochs=2)
    train(split, two, backends, checkpoint_dir=str(resumed),
          run_log_path=str(resumed / "run_log.jsonl"))
    state = load_checkpoint(resumed / "epoch_0002.ckpt")
    train(split, two, backends, state=state, checkpoint_dir=str(resumed),
          run_log_path=str(resumed / "run_log.jsonl"))

    for name in ("run_log.jsonl", "best.json"):
        assert (resumed / name).read_bytes() == (straight / name).read_bytes(), name
    arrays, meta = load_arrays(straight / "epoch_0004.ckpt")
    resumed_arrays, resumed_meta = load_arrays(resumed / "epoch_0004.ckpt")
    assert arrays.keys() == resumed_arrays.keys()
    for name, arr in arrays.items():
        assert np.array_equal(resumed_arrays[name], arr), name
    assert (meta["epoch"], meta["hp"]["epochs"], resumed_meta["hp"]["epochs"]) == (4, 4, 2)
    resumed_meta["hp"]["epochs"] = 4
    assert resumed_meta == meta


def test_resume_repoints_best_only_when_beaten(small_hp, offline_backends, tmp_path):
    # best.json names the first epoch with the best score over the first run and the resume
    split, ckpt = _tiny_split(small_hp), tmp_path / "ckpt"
    pointer = ckpt / "best.json"
    state, records = train(split, small_hp, offline_backends, checkpoint_dir=str(ckpt))
    one_more = dataclasses.replace(small_hp, epochs=1)
    state, more = train(split, one_more, offline_backends, state=state, checkpoint_dir=str(ckpt))
    scores = [r["val_F1"] for r in records + more]
    best = json.loads(pointer.read_text(encoding="utf-8"))
    assert best["epoch"] == 1 + scores.index(max(scores)) and best["score"] == max(scores)
    # a pointer whose score every epoch beats is replaced by the resumed epoch
    pointer.write_text(json.dumps(dict(best, score=-1.0)), encoding="utf-8")
    state, more = train(split, one_more, offline_backends, state=state, checkpoint_dir=str(ckpt))
    assert json.loads(pointer.read_text(encoding="utf-8"))["epoch"] == more[0]["epoch"]


@pytest.mark.parametrize("pointer", ['{"path": "epoch_0001.ckpt"}',
                                     '{"path": "epoch_0001.ckpt", "score": "1"}',
                                     '{"path": "../epoch_0001.ckpt", "score": 1}', "best"])
def test_resume_rejects_a_bad_best_pointer(small_hp, offline_backends, tmp_path, pointer):
    split, ckpt = _tiny_split(small_hp), tmp_path / "ckpt"
    state, _ = train(split, small_hp, offline_backends, checkpoint_dir=str(ckpt))
    (ckpt / "best.json").write_text(pointer, encoding="utf-8")
    before = sorted(p.name for p in ckpt.iterdir())
    with pytest.raises(InvalidCheckpoint, match="best.json: invalid checkpoint: pointer"):
        train(split, small_hp, offline_backends, state=state, checkpoint_dir=str(ckpt))
    assert sorted(p.name for p in ckpt.iterdir()) == before  # rejected before any epoch ran


def test_train_rejects_option_change_on_resume(small_hp, offline_backends):
    split = _tiny_split(small_hp)
    state, _ = train(split, small_hp, offline_backends)
    with pytest.raises(ValueError, match="TrainOptions"):
        train(split, small_hp, offline_backends, state=state,
              options=TrainOptions(use_sbcl=False))


def test_train_rejects_hyperparameter_change_on_resume(small_hp, offline_backends):
    split = _tiny_split(small_hp)
    state, _ = train(split, small_hp, offline_backends)
    changed = dataclasses.replace(small_hp, learning_rate=small_hp.learning_rate * 2, margin=0.9)
    with pytest.raises(ValueError, match="learning_rate, margin"):
        train(split, changed, offline_backends, state=state)
    more_epochs = dataclasses.replace(small_hp, epochs=small_hp.epochs + 1)
    state, records = train(split, more_epochs, offline_backends, state=state)
    assert len(records) == more_epochs.epochs


def test_train_requires_both_classes(small_hp, offline_backends):
    one_class = [make_sample(i, Label.SECURITY) for i in range(8)]
    split = split_dataset(one_class, (0.6, 0.2, 0.2), seed=1, stratify=False)
    with pytest.raises(ValueError, match="both classes"):
        train(split, small_hp, offline_backends)


def test_train_divergence_detected(small_hp, offline_backends, tmp_path):
    split = _tiny_split(small_hp)
    wild = dataclasses.replace(small_hp, learning_rate=1e150, epochs=10)
    ckpt = tmp_path / "ckpt"
    with np.errstate(all="ignore"):  # the blow-up itself is the point
        with pytest.raises(DivergenceDetected) as info:
            train(split, wild, offline_backends, checkpoint_dir=str(ckpt))
    # the last good checkpoint survives the divergence, and best.json names one that loads
    assert load_checkpoint(info.value.last_checkpoint).epoch == info.value.epoch - 1 >= 1
    pointer = json.loads((ckpt / "best.json").read_text(encoding="utf-8"))
    assert load_checkpoint(ckpt / pointer["path"]).epoch == pointer["epoch"]


def test_checkpoint_save_load_save_identical_bytes(small_hp, tmp_path):
    state = init_train_state(small_hp)
    path_a = tmp_path / "a.ckpt"
    path_b = tmp_path / "b.ckpt"
    save_checkpoint(path_a, state)
    loaded = load_checkpoint(path_a)
    save_checkpoint(path_b, loaded)
    assert path_a.read_bytes() == path_b.read_bytes()
    assert loaded.hp == state.hp
    assert loaded.options == state.options
    assert loaded.epoch == state.epoch
    np.testing.assert_array_equal(loaded.classifier.weight, state.classifier.weight)


def test_checkpoint_preserves_rng_streams(small_hp, tmp_path):
    state = init_train_state(small_hp)
    state.rngs["batching"].random(5)  # advance
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, state)
    loaded = load_checkpoint(path)
    np.testing.assert_array_equal(state.rngs["batching"].random(4),
                                  loaded.rngs["batching"].random(4))


def test_checkpoint_written_by_an_earlier_version_loads(tmp_path):
    """A committed checkpoint keeps loading, re-saving and scoring exactly as when it was written.

    checkpoint_dim8.ckpt is epoch 2 of `train` at dim 8, 2 heads, dropout 0.5,
    learning rate 1e-2, batch 8 and seed 7 on the 0.8/0.1/0.1 split (seed 7) of
    make_synthetic_samples(64, seed=11); checkpoint_dim8.json holds the test
    split's probabilities under hashed_backends(hp) as computed then.
    """
    path = os.path.join(DATA_DIR, "checkpoint_dim8.ckpt")
    state = load_checkpoint(path)
    save_checkpoint(tmp_path / "resaved.ckpt", state)
    with open(path, "rb") as fh:
        assert (tmp_path / "resaved.ckpt").read_bytes() == fh.read()
    with open(os.path.join(DATA_DIR, "checkpoint_dim8.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    split = split_dataset(make_synthetic_samples(64, seed=11), (0.8, 0.1, 0.1), seed=7)
    results = predict(split.test, state, hashed_backends(state.hp))
    assert {s.id: p for s, (p, _) in zip(split.test, results)} == recorded


@pytest.mark.parametrize("edit, named", [
    (lambda arrays, meta: arrays.pop("pt.ff_desc.w1"), "missing array 'pt.ff_desc.w1'"),
    (lambda arrays, meta: arrays.update({"pt.ff_desc.b2": np.zeros(3)}),
     "pt.ff_desc.b2 has shape (3,), expected (8,)"),
    (lambda arrays, meta: meta.pop("rng"), "missing meta key 'rng'"),
    (lambda arrays, meta: meta["rng"].pop("mining"), "missing rng stream 'mining'"),
    (lambda arrays, meta: meta["hp"].update(dim=16),
     "pt.self_attn.w_q has shape (2, 8, 4), expected (2, 16, 8)"),
    (lambda arrays, meta: meta["hp"].update(num_heads=4),
     "pt.self_attn.w_q has shape (2, 8, 4), expected (4, 8, 2)"),
    (lambda arrays, meta: arrays.update({"classifier.weight": np.zeros(8)}),
     "classifier.weight has shape (8,), expected (24,)"),
    (lambda arrays, meta: arrays.update({"adam_v.pt.cross_attn.w_k": np.zeros((8, 4))}),
     "adam_v.pt.cross_attn.w_k has shape (8, 4), expected (8, 8)"),
    (lambda arrays, meta: meta.update(adam_t="3"), "meta.adam_t must be int, got '3'"),
    (lambda arrays, meta: meta.update(sbcl_skipped=None),
     "meta.sbcl_skipped must be int, got None"),
    (lambda arrays, meta: meta.update(epoch=1.5), "meta.epoch must be int, got 1.5"),
    (lambda arrays, meta: meta.update(epoch=True), "meta.epoch must be int, got True"),
    (lambda arrays, meta: meta.update(has_ptformer="no"),
     "meta.has_ptformer must be bool, got 'no'"),
    (lambda arrays, meta: arrays.update({"classifier.bias": np.zeros(1, dtype=np.int64)}),
     "classifier.bias has dtype <i8, expected <f8"),
    (lambda arrays, meta: arrays.update(
        {"adam_m.pt.ff_desc.w1": arrays["adam_m.pt.ff_desc.w1"].astype(np.float32)}),
     "adam_m.pt.ff_desc.w1 has dtype <f4, expected <f8"),
    (lambda arrays, meta: arrays["pt.ff_desc.w1"].__setitem__((0, 0), np.nan),
     "pt.ff_desc.w1 holds a non-finite value"),
    (lambda arrays, meta: meta.update(version=2), "unsupported checkpoint version 2"),
    (lambda arrays, meta: meta.update(version="banana"),
     "unsupported checkpoint version 'banana'"),
    (lambda arrays, meta: meta.update(version=True), "unsupported checkpoint version True"),
    (lambda arrays, meta: meta.update(version=1.0), "unsupported checkpoint version 1.0"),
    (lambda arrays, meta: meta.pop("version"), "missing meta key 'version'"),
    (lambda arrays, meta: meta.update(has_ptformer=False),
     "meta.has_ptformer False contradicts options.use_ptformer True"),
], ids=["missing-array", "short-bias", "missing-meta-key", "missing-rng-stream", "hp-dim",
        "hp-num-heads", "classifier-length", "moment-shape", "adam-t-string", "sbcl-skipped-null",
        "epoch-float", "epoch-bool", "has-ptformer-string", "parameter-dtype", "moment-dtype",
        "parameter-nan", "version-2", "version-string", "version-bool", "version-float",
        "missing-version", "has-ptformer-contradicts-options"])
def test_load_checkpoint_names_the_first_bad_entry(small_hp, tmp_path, edit, named):
    path = tmp_path / "edited.ckpt"
    save_checkpoint(path, init_train_state(small_hp))
    arrays, meta = load_arrays(path)
    edit(arrays, meta)
    save_arrays(path, arrays, meta)
    with pytest.raises(InvalidCheckpoint, match=re.escape(f"{path}: invalid checkpoint: {named}")):
        load_checkpoint(path)


def test_predict_threshold_boundary_and_monotonicity(small_hp, offline_backends):
    split = _tiny_split(small_hp)

    def at(state, threshold):  # predict labels at the state's TrainOptions.threshold
        return dataclasses.replace(state, options=TrainOptions(threshold=threshold))

    fresh = init_train_state(small_hp)  # zero classifier: every probability is 0.5
    results = predict(split.train, at(fresh, 0.5), offline_backends)
    assert all(p == 0.5 and label is Label.SECURITY for p, label in results)

    state, _ = train(split, small_hp, offline_backends)
    probs = [p for p, _ in predict(split.train, state, offline_backends)]

    def flagged(threshold):
        results = predict(split.train, at(state, threshold), offline_backends)
        return {s.id for s, (_, label) in zip(split.train, results) if label is Label.SECURITY}

    low, high = flagged(0.3), flagged(0.7)
    assert high <= low
    assert all(0.0 < p < 1.0 for p in probs)


@pytest.mark.parametrize("threshold", [float("nan"), 1.5, -0.1, float("inf")])
def test_predict_threshold_override_is_checked(threshold):
    # predict labels at TrainOptions.threshold, checked there alone: NaN would label every
    # patch non-security
    message = re.escape(f"threshold must lie in [0, 1], got {threshold!r}")
    with pytest.raises(ValueError, match=message):
        TrainOptions(threshold=threshold)


def test_encode_sample_precomputed_rows_are_read_only_float64(small_hp, tmp_path):
    sample = dataclasses.replace(make_sample(1, Label.SECURITY), description="fix a leak")
    path = tmp_path / "emb.bin"
    save_arrays(path, {f"{sample.id}/{m}": np.ones((2, small_hp.dim), dtype="<f4")
                       for m in ("patch", "explanation", "description", "instruction")},
                {"dim": small_hp.dim})
    backend = EmbedderBackend.precomputed_file(path)
    backends = PipelineBackends(patch_embedder=backend, text_embedder=backend)
    mats = encode_sample(sample, backends, small_hp, TrainOptions(use_explanation=False))
    assert all(m.dtype == np.float64 and not m.flags.writeable for m in mats)
    assert [m.shape[0] for m in mats] == [2, 1, 2, 2]  # the ablated explanation is the sentinel


@pytest.mark.parametrize("role", ["patch", "text"])
def test_embedder_width_must_match_the_model(small_hp, offline_backends, role):
    # rows enter train, predict and visualize through encode_sample, which names the embedder
    wide = EmbedderBackend.hashed_projection(2 * small_hp.dim, seed=1)
    backends = dataclasses.replace(offline_backends, **{f"{role}_embedder": wide})
    split, state = _tiny_split(small_hp), init_train_state(small_hp)
    message = f"{role} embedder has dim 16, but the model has dim 8"
    for run in (lambda: predict(split.test, state, backends),
                lambda: fused_embeddings(split.test, state, backends),
                lambda: train(split, small_hp, backends)):
        with pytest.raises(ValueError, match=message):
            run()


def test_encode_sample_shape_contract_with_missing_texts(small_hp, offline_backends):
    # a missing description must not change the four-matrix shape contract
    bare = make_sample(1, Label.SECURITY)
    mats = encode_sample(bare, offline_backends, small_hp)
    assert [m.shape[1] for m in mats] == [small_hp.dim] * 4
    assert all(m.dtype == np.float64 and not m.flags.writeable for m in mats)
    assert mats[2].shape == (1, small_hp.dim)  # description sentinel row
    assert np.all(mats[2] == 0.0)
    assert mats[3].shape[0] > 1  # instruction text is always present

    ablated = encode_sample(bare, offline_backends, small_hp,
                            TrainOptions(use_explanation=False, use_instruction=False))
    assert ablated[1].shape == (1, small_hp.dim)
    assert ablated[3].shape == (1, small_hp.dim)


def test_validation_record_matches_predict(small_hp, offline_backends):
    # the per-epoch validation scores reuse the encoded split; they must equal predict's
    split = _tiny_split(small_hp)
    state, records = train(split, small_hp, offline_backends)
    probs = [p for p, _ in predict(split.validation, state, offline_backends)]
    y = [1 if s.label is Label.SECURITY else 0 for s in split.validation]
    report = compute_metrics(probs, y, state.options.threshold)
    assert (records[-1]["val_AUC"], records[-1]["val_F1"]) == (report.auc, report.f1)


def test_train_logs_schema(small_hp, offline_backends):
    split = _tiny_split(small_hp)
    _, records = train(split, small_hp, offline_backends)
    for record in records:
        assert set(record) == {"epoch", "L_BCE", "L_SBCL", "L", "val_AUC", "val_F1", "seed"}
        assert record["seed"] == small_hp.seed
        assert record["L"] >= 0.0
