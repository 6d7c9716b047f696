import dataclasses
import itertools
import math

import numpy as np
import pytest

from oracles import assert_grads_close, central_difference, loop_attention, rowwise_feed_forward
from secpatch import (cross_attention, default_hyperparams, fuse_forward, init_pt_former,
                      named_parameters, pooled_concat, self_attention)
from secpatch.fusion import (NO_DROPOUT, dropout_keep, from_named_parameters, fuse_backward,
                             parameter_specs)


@pytest.fixture
def hp8():
    return dataclasses.replace(default_hyperparams(), dim=8, num_heads=2, dropout=0.0)


@pytest.fixture
def state8(hp8):
    return init_pt_former(hp8, rng_seed=123)


def _inputs(rng, dim=8, rows=(5, 4, 3, 4)):
    """Patch, explanation, description and instruction rows, drawn in that order."""
    return tuple(rng.standard_normal((n, dim)) for n in rows)


# ---------------------------------------------------------------------------
# initialization

def test_init_deterministic(hp8):
    a = init_pt_former(hp8, rng_seed=9)
    b = init_pt_former(hp8, rng_seed=9)
    for name, arr in named_parameters(a).items():
        np.testing.assert_array_equal(arr, named_parameters(b)[name], err_msg=name)


def test_named_parameters_round_trip(state8):
    named = named_parameters(state8)
    assert list(named) == list(parameter_specs(type(state8)))
    rebuilt = from_named_parameters(type(state8), named, dropout_rate=state8.dropout_rate)
    assert all(arr is named[name] for name, arr in named_parameters(rebuilt).items())
    assert list(named_parameters(state8, "pt.")) == [f"pt.{name}" for name in named]


@pytest.mark.parametrize("block, field, shape, message", [
    ("ff_inst", "w2", (8, 4), r"ff_inst.w2 has shape \(8, 4\), expected \(8, 8\)"),
    ("cross_attn", "w_v", (4, 4), r"cross_attn.w_v has shape \(4, 4\), expected \(8, 8\)"),
    ("ff_desc", "b1", (8, 1), r"ff_desc.b1 has shape \(8, 1\), expected \(8,\)"),
])
def test_ptformer_state_rejects_blocks_that_disagree(state8, block, field, shape, message):
    params = dataclasses.replace(getattr(state8, block), **{field: np.zeros(shape)})
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(state8, **{block: params})


def test_ptformer_state_rejects_heads_that_do_not_make_up_dim(state8):
    narrow = {k: np.zeros((2, 8, 3)) for k in ("w_q", "w_k", "w_v")}
    with pytest.raises(ValueError, match="2 heads of width 3 do not make up dim 8"):
        dataclasses.replace(state8, self_attn=dataclasses.replace(state8.self_attn, **narrow))


def test_init_head_shapes(hp8):
    state = init_pt_former(hp8, rng_seed=0)
    assert state.self_attn.w_q.shape == (2, 8, 4)
    assert state.self_attn.w_q[0].shape == (8, 4)
    assert state.cross_attn.w_q.shape == (8, 8)
    assert state.ff_desc.w1.shape == (8, 8)


def test_init_standard_normal_statistics():
    hp = dataclasses.replace(default_hyperparams(), dim=256, num_heads=4)
    state = init_pt_former(hp, rng_seed=5)
    block = state.self_attn.w_q[0]  # 256 x 64
    n = block.size
    assert abs(block.mean()) <= 3.0 / math.sqrt(n)
    assert abs(block.std() - 1.0) <= 0.05


def test_ff_hidden_override(hp8):
    state = init_pt_former(hp8, rng_seed=0, ff_hidden=5)
    assert state.ff_pa_ex.w1.shape == (8, 5)
    assert state.ff_pa_ex.w2.shape == (5, 8)


# ---------------------------------------------------------------------------
# self-attention contracts

def test_self_attention_shape_and_weight_rows(state8):
    rng = np.random.default_rng(0)
    e = rng.standard_normal((6, 8))
    out, weights = self_attention(e, state8.self_attn)
    assert out.shape == e.shape
    assert weights.shape == (2, 6, 6)
    np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(weights > 0.0) and np.all(weights < 1.0)


def test_self_attention_single_token_is_value_projection(state8):
    rng = np.random.default_rng(1)
    e = rng.standard_normal((1, 8))
    out, _ = self_attention(e, state8.self_attn)
    expected = np.concatenate([e @ state8.self_attn.w_v[h] for h in range(2)], axis=1)
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_self_attention_permutation_equivariant(state8):
    rng = np.random.default_rng(2)
    e = rng.standard_normal((3, 8))
    base, _ = self_attention(e, state8.self_attn)
    for perm in itertools.permutations(range(3)):
        out, _ = self_attention(e[list(perm)], state8.self_attn)
        np.testing.assert_allclose(out, base[list(perm)], atol=1e-10)


@pytest.mark.parametrize("dim,heads,rows", [(8, 2, 6), (12, 3, 9), (16, 4, 5)])
def test_self_attention_matches_per_head_loop_oracle(dim, heads, rows):
    hp = dataclasses.replace(default_hyperparams(), dim=dim, num_heads=heads)
    params = init_pt_former(hp, rng_seed=dim).self_attn
    e = np.random.default_rng(dim + 1).standard_normal((rows, dim))
    out, weights = self_attention(e, params)
    assert weights.shape == (heads, rows, rows)
    expected = loop_attention(e, e, params.w_q, params.w_k, params.w_v)
    np.testing.assert_allclose(out, expected, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# cross-attention contracts

def test_cross_attention_shape_and_rows(state8):
    rng = np.random.default_rng(3)
    pa = rng.standard_normal((5, 8))
    ex = rng.standard_normal((7, 8))
    out, weights = cross_attention(pa, ex, state8.cross_attn)
    assert out.shape == (5, 8)
    np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-12)


def test_cross_attention_singleton_key(state8):
    rng = np.random.default_rng(4)
    pa = rng.standard_normal((4, 8))
    ex = rng.standard_normal((1, 8))
    out, _ = cross_attention(pa, ex, state8.cross_attn)
    expected_row = ex @ state8.cross_attn.w_v
    for row in out:
        np.testing.assert_allclose(row, expected_row[0], atol=1e-12)


def test_cross_attention_key_scaling_keeps_rows_normalized(state8):
    rng = np.random.default_rng(5)
    pa = rng.standard_normal((3, 8))
    ex = rng.standard_normal((4, 8))
    scaled = ex * 3.0
    _, w_base = cross_attention(pa, ex, state8.cross_attn)
    _, w_scaled = cross_attention(pa, scaled, state8.cross_attn)
    assert not np.allclose(w_base, w_scaled)
    np.testing.assert_allclose(w_scaled.sum(axis=-1), 1.0, atol=1e-12)


def test_cross_attention_identity_weights_scalar_oracle():
    from secpatch.fusion import CrossAttentionParams
    params = CrossAttentionParams(w_q=np.eye(2), w_k=np.eye(2), w_v=np.eye(2))
    pa = np.array([[1.0, 0.0], [0.0, 2.0]])
    ex = np.array([[1.0, 1.0], [2.0, 0.0]])
    out, _ = cross_attention(pa, ex, params)

    expected = np.zeros((2, 2))
    for i in range(2):
        scores = [sum(pa[i][d] * ex[j][d] for d in range(2)) / math.sqrt(2)
                  for j in range(2)]
        top = max(scores)
        weights = [math.exp(s - top) for s in scores]
        total = sum(weights)
        weights = [w / total for w in weights]
        for j in range(2):
            for d in range(2):
                expected[i][d] += weights[j] * ex[j][d]
    np.testing.assert_allclose(out, expected, atol=1e-12)


@pytest.mark.parametrize("dim,patch_rows,ex_rows", [(8, 5, 7), (12, 9, 4)])
def test_cross_attention_matches_per_head_loop_oracle(dim, patch_rows, ex_rows):
    hp = dataclasses.replace(default_hyperparams(), dim=dim, num_heads=2)
    params = init_pt_former(hp, rng_seed=dim).cross_attn
    rng = np.random.default_rng(dim + 2)
    pa = rng.standard_normal((patch_rows, dim))
    ex = rng.standard_normal((ex_rows, dim))
    out, weights = cross_attention(pa, ex, params)
    assert weights.shape == (patch_rows, ex_rows)
    expected = loop_attention(pa, ex, params.w_q[None], params.w_k[None], params.w_v[None])
    np.testing.assert_allclose(out, expected, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("dim,heads,rows", [(8, 2, (5, 4, 3, 4)), (256, 4, (9, 4, 3, 5))])
def test_cross_attention_weights_are_the_fusion_pass_weights(dim, heads, rows):
    # the public functions run the pipeline's code: the weights are fuse_forward's A, bit for bit
    hp = dataclasses.replace(default_hyperparams(), dim=dim, num_heads=heads, dropout=0.0)
    state = init_pt_former(hp, rng_seed=dim + 3)
    pa, ex, desc, inst = _inputs(np.random.default_rng(dim + 4), dim, rows)
    _, cache = fuse_forward(pa, ex, desc, inst, state)
    ex_hat, _ = self_attention(ex, state.self_attn)
    _, weights = cross_attention(pa, ex_hat, state.cross_attn)
    assert np.array_equal(weights, cache["ff1"][0])  # A, the patch branch's feed-forward input


def test_cross_attention_dim_mismatch():
    from secpatch.fusion import CrossAttentionParams
    params = CrossAttentionParams(w_q=np.eye(2), w_k=np.eye(2), w_v=np.eye(2))
    with pytest.raises(ValueError, match="mismatch"):
        cross_attention(np.ones((2, 2)), np.ones((2, 3)), params)


# ---------------------------------------------------------------------------
# full fusion

def test_fuse_output_length_and_determinism(state8):
    rng = np.random.default_rng(6)
    mats = _inputs(rng)
    a = fuse_forward(*mats, state8)[0]
    b = fuse_forward(*mats, state8)[0]
    assert a.shape == (3 * 8,)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("rows", [(1, 1, 1, 1), (2, 5, 3, 7)])
def test_fuse_length_invariant_to_seq_lengths(state8, rows):
    rng = np.random.default_rng(7)
    assert fuse_forward(*_inputs(rng, rows=rows), state8)[0].shape == (24,)


def test_fuse_zero_inputs_equal_bias_images(hp8):
    state = init_pt_former(hp8, rng_seed=11)
    rng = np.random.default_rng(8)
    for block in (state.ff_pa_ex, state.ff_desc, state.ff_inst):
        block.b1[:] = rng.standard_normal(block.b1.shape)
        block.b2[:] = rng.standard_normal(block.b2.shape)
    out = fuse_forward(*(np.zeros((3, 8)),) * 4, state)[0]
    expected = np.concatenate([
        np.maximum(block.b1, 0.0) @ block.w2 + block.b2
        for block in (state.ff_pa_ex, state.ff_desc, state.ff_inst)
    ])
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_fuse_invariant_to_desc_inst_row_permutation(state8):
    rng = np.random.default_rng(9)
    pa, ex, desc, inst = _inputs(rng)
    base = fuse_forward(pa, ex, desc, inst, state8)[0]
    out = fuse_forward(pa, ex, desc[[2, 0, 1]], inst[[3, 1, 0, 2]], state8)[0]
    np.testing.assert_allclose(out, base, atol=1e-10)


def test_fuse_finite_for_large_inputs(state8):
    rng = np.random.default_rng(10)
    mats = tuple(rng.uniform(-1e3, 1e3, size=(4, 8)) for _ in range(4))
    assert np.all(np.isfinite(fuse_forward(*mats, state8)[0]))


def test_fuse_training_with_dropout_needs_rng(hp8):
    state = init_pt_former(dataclasses.replace(hp8, dropout=0.5), rng_seed=0)
    raw = _inputs(np.random.default_rng(12))
    with pytest.raises(ValueError, match="rng"):
        dropout_keep(*raw, state, None)
    out, _ = fuse_forward(*raw, state, dropout_keep(*raw, state, np.random.default_rng(3)))
    assert np.all(np.isfinite(out))


def _rowwise_fused(raw, state, rng=None):
    """Fused vector from the loop attention oracle and the row-wise feed-forward oracle.

    With an rng, each branch draws its dropout mask in branch order, one
    uniform per hidden unit of every row, as training does.
    """
    pa, ex, desc, inst = raw
    sa, ca = state.self_attn, state.cross_attn
    ex_hat, desc_hat, inst_hat = (loop_attention(m, m, sa.w_q, sa.w_k, sa.w_v)
                                  for m in (ex, desc, inst))
    pa_ex = loop_attention(pa, ex_hat, ca.w_q[None], ca.w_k[None], ca.w_v[None])
    parts = []
    for x, block in ((pa_ex, state.ff_pa_ex), (desc_hat, state.ff_desc), (inst_hat, state.ff_inst)):
        mask = None
        if rng is not None:
            keep = rng.random((len(x), block.w1.shape[1])) >= state.dropout_rate
            mask = keep / (1.0 - state.dropout_rate)
        parts.append(rowwise_feed_forward(x, block.w1, block.b1, block.w2, block.b2, mask))
    return np.concatenate(parts)


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("dim,heads,rows", [(8, 2, (5, 4, 3, 4)), (16, 4, (9, 1, 6, 2)),
                                           (8, 2, (3, 6, 3, 4)), (256, 4, (9, 4, 3, 5)),
                                           (256, 4, (3, 11, 4, 2))])
def test_fuse_forward_matches_rowwise_oracle(training, dim, heads, rows):
    hp = dataclasses.replace(default_hyperparams(), dim=dim, num_heads=heads, dropout=0.5)
    state = init_pt_former(hp, rng_seed=dim + 20)
    for block in (state.ff_pa_ex, state.ff_desc, state.ff_inst):
        block.b1[:] = np.linspace(-0.5, 0.5, block.b1.shape[0])
        block.b2[:] = np.linspace(1.0, -1.0, block.b2.shape[0])
    raw = _inputs(np.random.default_rng(dim), dim, rows)
    rng, oracle_rng = (np.random.default_rng(5), np.random.default_rng(5)) if training else (None, None)
    keep = dropout_keep(*raw, state, rng) if training else NO_DROPOUT
    vector, _ = fuse_forward(*raw, state, keep)
    np.testing.assert_allclose(vector, _rowwise_fused(raw, state, oracle_rng),
                               rtol=1e-10, atol=1e-12)


def test_pooled_concat_shape_and_values():
    rng = np.random.default_rng(13)
    pa, ex, desc, inst = _inputs(rng)
    vec = pooled_concat(pa, ex, desc, inst)
    assert vec.shape == (24,)
    expected_first = np.vstack([pa, ex]).mean(axis=0)
    np.testing.assert_allclose(vec[:8], expected_first, atol=1e-12)
    np.testing.assert_allclose(vec[8:16], desc.mean(axis=0), atol=1e-12)


# ---------------------------------------------------------------------------
# gradients

@pytest.mark.parametrize("rows,ff_hidden", [((5, 4, 3, 4), None), ((3, 6, 3, 4), None),
                                             ((4, 1, 3, 4), None), ((5, 4, 3, 4), 5)],
                         ids=["patch-longer", "explanation-longer", "one-explanation-row",
                              "hidden-5"])
def test_fuse_backward_matches_finite_differences(hp8, rows, ff_hidden):
    # the folded order's v @ w1 is (explanation rows, hidden): cover p < e, e = 1, hidden != dim
    state = init_pt_former(hp8, rng_seed=123, ff_hidden=ff_hidden)
    rng = np.random.default_rng(14)
    raw = _inputs(rng, rows=rows)
    probe = rng.standard_normal(24)

    def objective():
        vec, _ = fuse_forward(*raw, state)
        return float(vec @ probe)

    vec, cache = fuse_forward(*raw, state)
    analytic = fuse_backward(probe, cache, state)
    numeric = central_difference(objective, named_parameters(state))
    assert_grads_close(analytic, numeric, rtol=1e-4, atol=1e-7)


def test_fuse_backward_matches_finite_differences_with_dropout(hp8):
    state = init_pt_former(dataclasses.replace(hp8, dropout=0.5), rng_seed=123)
    rng = np.random.default_rng(16)
    raw = _inputs(rng)
    probe = rng.standard_normal(24)

    def forward():
        return fuse_forward(*raw, state, dropout_keep(*raw, state, np.random.default_rng(7)))

    vec, cache = forward()
    # the patch branch's mask acts on its (patch rows, hidden) units
    assert cache["ff1"][2].shape == (5, 8) and np.any(cache["ff1"][2] == 0.0)
    analytic = fuse_backward(probe, cache, state)
    numeric = central_difference(lambda: float(forward()[0] @ probe), named_parameters(state))
    assert_grads_close(analytic, numeric, rtol=1e-4, atol=1e-7)


def test_pt_former_gradients_zero_and_linear(state8):
    rng = np.random.default_rng(15)
    for _ in range(2):
        raw = _inputs(rng)
        upstream = rng.standard_normal(24)
        _, cache = fuse_forward(*raw, state8)

        zeros = fuse_backward(np.zeros(24), cache, state8)
        assert all(np.all(g == 0.0) for g in zeros.values())

        single = fuse_backward(upstream, cache, state8)
        doubled = fuse_backward(2.0 * upstream, cache, state8)
        for name in single:
            np.testing.assert_allclose(doubled[name], 2.0 * single[name], rtol=1e-12,
                                       err_msg=name)

