import dataclasses
import itertools
import math

import numpy as np
import pytest

from oracles import (assert_grads_close, central_difference, loop_attention, pt_former_of,
                     rowwise_feed_forward)
from secpatch import (default_hyperparams, fuse_forward, init_pt_former, named_parameters,
                      pooled_concat)
from secpatch.fusion import (NO_DROPOUT, _cross_weights, dropout_keep, finish_backward,
                             from_named_parameters, fuse_backward, parameter_specs)


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
    rebuilt = from_named_parameters(type(state8), named)
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
# attention contracts, read from the fusion pass's cache

def _cache(state, pa=None, ex=None, desc=None):
    """The cache of an evaluation `fuse_forward` on the given rows; every modality not given
    gets 3 rows from one fixed generator, so the given rows are the test's draws."""
    filler = np.random.default_rng(99)
    rows = (m if m is not None else filler.standard_normal((3, state.dim))
            for m in (pa, ex, desc, None))
    return fuse_forward(*rows, state)[1]


def _self_attention(x, state):
    """(output, weights (heads, n, n)) of the self-attention `fuse_forward` runs on the
    description rows x."""
    cache = _cache(state, desc=x)
    return cache["ff2"][0], cache["sa_desc"][4]


def _cross_attention(pa, ex, state):
    """(the patch branch's first-layer rows A @ (ex_hat @ W_vf), the cross weights A, ex_hat)
    as `fuse_forward` forms them on patch rows pa and explanation rows ex."""
    cache = _cache(state, pa=pa, ex=ex)
    attn, (_, ex_hat, v_w1) = cache["ff1"][0], cache["ca"]
    return attn @ v_w1, attn, ex_hat


def test_self_attention_shape_and_weight_rows(state8):
    rng = np.random.default_rng(0)
    e = rng.standard_normal((6, 8))
    out, weights = _self_attention(e, state8)
    assert out.shape == e.shape
    assert weights.shape == (2, 6, 6)
    np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(weights > 0.0) and np.all(weights < 1.0)


def test_self_attention_single_token_is_value_projection(state8):
    rng = np.random.default_rng(1)
    e = rng.standard_normal((1, 8))
    out, _ = _self_attention(e, state8)
    expected = np.concatenate([e @ state8.self_attn.w_v[h] for h in range(2)], axis=1)
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_self_attention_permutation_equivariant(state8):
    rng = np.random.default_rng(2)
    e = rng.standard_normal((3, 8))
    base, _ = _self_attention(e, state8)
    for perm in itertools.permutations(range(3)):
        out, _ = _self_attention(e[list(perm)], state8)
        np.testing.assert_allclose(out, base[list(perm)], atol=1e-10)


@pytest.mark.parametrize("dim,heads,rows", [(8, 2, 6), (12, 3, 9), (16, 4, 5)])
def test_self_attention_matches_per_head_loop_oracle(dim, heads, rows):
    hp = dataclasses.replace(default_hyperparams(), dim=dim, num_heads=heads)
    state = init_pt_former(hp, rng_seed=dim)
    params = state.self_attn
    e = np.random.default_rng(dim + 1).standard_normal((rows, dim))
    out, weights = _self_attention(e, state)
    assert weights.shape == (heads, rows, rows)
    expected = loop_attention(e, e, params.w_q, params.w_k, params.w_v)
    np.testing.assert_allclose(out, expected, rtol=1e-10, atol=1e-12)


def test_cross_attention_shape_and_rows(state8):
    rng = np.random.default_rng(3)
    pa = rng.standard_normal((5, 8))
    ex = rng.standard_normal((7, 8))
    out, weights, _ = _cross_attention(pa, ex, state8)
    assert out.shape == (5, 8)
    assert weights.shape == (5, 7)
    np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-12)


def test_cross_attention_singleton_key(state8):
    rng = np.random.default_rng(4)
    pa = rng.standard_normal((4, 8))
    ex = rng.standard_normal((1, 8))
    out, _, ex_hat = _cross_attention(pa, ex, state8)
    expected_row = (ex_hat @ state8.cross_attn.w_v) @ state8.ff_pa_ex.w1
    for row in out:
        np.testing.assert_allclose(row, expected_row[0], atol=1e-12)


def test_cross_attention_key_scaling_keeps_rows_normalized(state8):
    rng = np.random.default_rng(5)
    pa = rng.standard_normal((3, 8))
    ex = rng.standard_normal((4, 8))
    scaled = ex * 3.0
    _, w_base, _ = _cross_attention(pa, ex, state8)
    _, w_scaled, _ = _cross_attention(pa, scaled, state8)
    assert not np.allclose(w_base, w_scaled)
    np.testing.assert_allclose(w_scaled.sum(axis=-1), 1.0, atol=1e-12)


def test_cross_attention_identity_weights_scalar_oracle():
    from secpatch.fusion import CrossAttentionParams
    params = CrossAttentionParams(w_q=np.eye(2), w_k=np.eye(2), w_v=np.eye(2))
    pa = np.array([[1.0, 0.0], [0.0, 2.0]])
    ex = np.array([[1.0, 1.0], [2.0, 0.0]])
    attn = _cross_weights(pa, ex, params.w_q @ params.w_k.T)  # W_qk as fold_cross forms it
    out = attn @ (ex @ params.w_v)

    expected = np.zeros((2, 2))
    expected_weights = np.zeros((2, 2))
    for i in range(2):
        scores = [sum(pa[i][d] * ex[j][d] for d in range(2)) / math.sqrt(2)
                  for j in range(2)]
        top = max(scores)
        weights = [math.exp(s - top) for s in scores]
        total = sum(weights)
        weights = [w / total for w in weights]
        for j in range(2):
            expected_weights[i][j] = weights[j]
            for d in range(2):
                expected[i][d] += weights[j] * ex[j][d]
    np.testing.assert_allclose(attn, expected_weights, atol=1e-12)
    np.testing.assert_allclose(out, expected, atol=1e-12)


@pytest.mark.parametrize("dim,patch_rows,ex_rows", [(8, 5, 7), (12, 9, 4)])
def test_cross_attention_matches_per_head_loop_oracle(dim, patch_rows, ex_rows):
    hp = dataclasses.replace(default_hyperparams(), dim=dim, num_heads=2)
    state = init_pt_former(hp, rng_seed=dim)
    params = state.cross_attn
    rng = np.random.default_rng(dim + 2)
    pa = rng.standard_normal((patch_rows, dim))
    ex = rng.standard_normal((ex_rows, dim))
    out, weights, ex_hat = _cross_attention(pa, ex, state)
    assert weights.shape == (patch_rows, ex_rows)
    expected = loop_attention(pa, ex_hat, params.w_q[None], params.w_k[None], params.w_v[None])
    np.testing.assert_allclose(out, expected @ state.ff_pa_ex.w1, rtol=1e-10, atol=1e-12)


def test_cross_attention_dim_mismatch(state8):
    rng = np.random.default_rng(14)
    ex, desc, inst = (rng.standard_normal((2, 8)) for _ in range(3))
    with pytest.raises(ValueError, match="mismatch"):
        fuse_forward(np.ones((2, 3)), ex, desc, inst, state8)


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


FF_BLOCKS = ("ff_pa_ex", "ff_desc", "ff_inst")


def _with_biases(state, biases):
    """A copy of `state` whose feed-forward blocks, in branch order, take their (b1, b2)
    from `biases`."""
    return dataclasses.replace(state, **{
        name: dataclasses.replace(getattr(state, name), b1=b1, b2=b2)
        for name, (b1, b2) in zip(FF_BLOCKS, biases, strict=True)})


def test_fuse_zero_inputs_equal_bias_images(hp8):
    state = init_pt_former(hp8, rng_seed=11)
    rng = np.random.default_rng(8)
    state = _with_biases(state, [(rng.standard_normal(block.b1.shape),
                                  rng.standard_normal(block.b2.shape))
                                 for block in (getattr(state, name) for name in FF_BLOCKS)])
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
        dropout_keep(*raw, state, 0.5, None)
    out, _ = fuse_forward(*raw, state, dropout_keep(*raw, state, 0.5, np.random.default_rng(3)))
    assert np.all(np.isfinite(out))


def _rowwise_fused(raw, state, rate=0.0, rng=None):
    """Fused vector from the loop attention oracle and the row-wise feed-forward oracle.

    With an rng, each branch draws its dropout mask at `rate` in branch order,
    one uniform per hidden unit of every row, as training does.
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
            keep = rng.random((len(x), block.w1.shape[1])) >= rate
            mask = keep / (1.0 - rate)
        parts.append(rowwise_feed_forward(x, block.w1, block.b1, block.w2, block.b2, mask))
    return np.concatenate(parts)


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("dim,heads,rows", [(8, 2, (5, 4, 3, 4)), (16, 4, (9, 1, 6, 2)),
                                           (8, 2, (3, 6, 3, 4)), (256, 4, (9, 4, 3, 5)),
                                           (256, 4, (3, 11, 4, 2))])
def test_fuse_forward_matches_rowwise_oracle(training, dim, heads, rows):
    hp = dataclasses.replace(default_hyperparams(), dim=dim, num_heads=heads, dropout=0.5)
    state = init_pt_former(hp, rng_seed=dim + 20)
    state = _with_biases(state, [(np.linspace(-0.5, 0.5, block.b1.shape[0]),
                                  np.linspace(1.0, -1.0, block.b2.shape[0]))
                                 for block in (getattr(state, name) for name in FF_BLOCKS)])
    raw = _inputs(np.random.default_rng(dim), dim, rows)
    rng, oracle_rng = (np.random.default_rng(5), np.random.default_rng(5)) if training else (None, None)
    keep = dropout_keep(*raw, state, hp.dropout, rng) if training else NO_DROPOUT
    vector, _ = fuse_forward(*raw, state, keep)
    np.testing.assert_allclose(vector, _rowwise_fused(raw, state, hp.dropout, oracle_rng),
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
# gradients: one sample's partials through the batch step that finishes them

def _gradients(d_vector, cache, state):
    return finish_backward(fuse_backward(d_vector, cache, state), state)


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
    arrays = {name: arr.copy() for name, arr in named_parameters(state).items()}

    def objective():
        vec, _ = fuse_forward(*raw, pt_former_of(arrays))
        return float(vec @ probe)

    vec, cache = fuse_forward(*raw, state)
    analytic = _gradients(probe, cache, state)
    numeric = central_difference(objective, arrays)
    assert_grads_close(analytic, numeric, rtol=1e-4, atol=1e-7)


def test_fuse_backward_matches_finite_differences_with_dropout(hp8):
    state = init_pt_former(dataclasses.replace(hp8, dropout=0.5), rng_seed=123)
    rng = np.random.default_rng(16)
    raw = _inputs(rng)
    probe = rng.standard_normal(24)

    arrays = {name: arr.copy() for name, arr in named_parameters(state).items()}

    def forward(pt):
        return fuse_forward(*raw, pt, dropout_keep(*raw, pt, 0.5, np.random.default_rng(7)))

    vec, cache = forward(state)
    # the patch branch's mask acts on its (patch rows, hidden) units
    assert cache["ff1"][2].shape == (5, 8) and np.any(cache["ff1"][2] == 0.0)
    analytic = _gradients(probe, cache, state)
    numeric = central_difference(lambda: float(forward(pt_former_of(arrays))[0] @ probe), arrays)
    assert_grads_close(analytic, numeric, rtol=1e-4, atol=1e-7)


def test_pt_former_gradients_zero_and_linear(state8):
    rng = np.random.default_rng(15)
    for _ in range(2):
        raw = _inputs(rng)
        upstream = rng.standard_normal(24)
        _, cache = fuse_forward(*raw, state8)

        zeros = _gradients(np.zeros(24), cache, state8)
        assert list(zeros) == list(named_parameters(state8))
        assert all(np.all(g == 0.0) for g in zeros.values())

        single = _gradients(upstream, cache, state8)
        doubled = _gradients(2.0 * upstream, cache, state8)
        for name in single:
            np.testing.assert_allclose(doubled[name], 2.0 * single[name], rtol=1e-12,
                                       err_msg=name)

