"""Attention fusion of patch, explanation, description and instruction embeddings.

The fusion block runs shared multi-head self-attention over each text
modality, single-head cross-attention from the patch onto the updated
explanation, a feed-forward block per branch, then mean-pools and
concatenates the three branches into one fixed-length vector. The second
dense layer of each block is affine, so it runs on the mean-pooled hidden
row: mean(h) @ w2 + b2 is the same vector as mean(h @ w2 + b2) at the cost
of one row.

The patch branch (cross-attention, then ff_pa_ex's first layer) multiplies
in folded order: scores pa @ (W_q @ kᵀ) and first layer A @ (v @ w1), where
A is the (patch, explanation) attention weights, for the textbook
(pa @ W_q) @ kᵀ and (A @ v) @ w1; in the backward pass W_q's gradient is
Mᵀ @ k and d_k = M @ W_q with M = d_scoresᵀ @ pa. Every patch-row × dim²
product becomes a patch-row × explanation-row × dim one. Dropout and the
rectifier act on the (patch, hidden) rows of A @ (v @ w1) + b1. The public
`cross_attention` returns A @ v, its A from the fusion pass's own code; the
public `self_attention` runs the kernel the fusion pass runs on each text.

Forward functions return caches consumed by exact reverse-mode backward
functions; no autograd framework is involved. A feed-forward cache keeps the
rectifier gate and the dropout keep-mask as bool arrays, an eighth of the
float64 pre-activation and scaled mask they stand for; the backward pass
rebuilds the scale keep / (1 - rate) with the forward pass's arithmetic, so
gradients are the same bits. Dropout masks are drawn by `dropout_keep` apart
from the forward pass, so a caller can draw every sample's masks in order and
then run the forward passes in any order or on any thread.
"""

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from operator import attrgetter

import numpy as np

from .types import HyperParams


def parameter(*shape, init: str = "normal"):
    """A trainable array field: its shape (ints, or size names shared across blocks) and its
    init, "normal" (i.i.d. standard normal), "he" (times sqrt(2 / fan_in)) or "zeros"."""
    return field(metadata={"shape": shape, "init": init})


@dataclass
class AttentionParams:
    """Per-head projection matrices; heads * head_dim = dim."""

    w_q: np.ndarray = parameter("heads", "dim", "head_dim")
    w_k: np.ndarray = parameter("heads", "dim", "head_dim")
    w_v: np.ndarray = parameter("heads", "dim", "head_dim")


@dataclass
class CrossAttentionParams:
    w_q: np.ndarray = parameter("dim", "dim")
    w_k: np.ndarray = parameter("dim", "dim")
    w_v: np.ndarray = parameter("dim", "dim")


@dataclass
class FeedForwardParams:
    w1: np.ndarray = parameter("dim", "hidden", init="he")
    b1: np.ndarray = parameter("hidden", init="zeros")
    w2: np.ndarray = parameter("hidden", "dim", init="he")
    b2: np.ndarray = parameter("dim", init="zeros")


@dataclass
class PTFormerState:
    self_attn: AttentionParams        # shared across the three text modalities
    cross_attn: CrossAttentionParams
    ff_pa_ex: FeedForwardParams
    ff_desc: FeedForwardParams
    ff_inst: FeedForwardParams
    dropout_rate: float

    def __post_init__(self):
        """All blocks agree on dim, head count and hidden width; the heads make up dim."""
        sizes = check_shapes(named_parameters(self), parameter_specs(PTFormerState))
        if sizes["heads"] * sizes["head_dim"] != sizes["dim"]:
            raise ValueError(f"self_attn: {sizes['heads']} heads of width {sizes['head_dim']} "
                             f"do not make up dim {sizes['dim']}")

    @property
    def dim(self) -> int:
        return self.cross_attn.w_q.shape[0]


def model_sizes(hp: HyperParams, ff_hidden: int | None = None) -> dict[str, int]:
    """The value of each size name in the parameter declarations; hidden defaults to dim."""
    return {"dim": hp.dim, "heads": hp.num_heads, "head_dim": hp.dim // hp.num_heads,
            "hidden": ff_hidden if ff_hidden is not None else hp.dim, "fused": 3 * hp.dim}


def init_pt_former(hp: HyperParams, rng_seed: int, ff_hidden: int | None = None) -> PTFormerState:
    """Initialize all trainable parameters, deterministically per seed.

    Attention matrices are drawn i.i.d. standard normal. Feed-forward weights
    use He-style scaling (std sqrt(2 / fan_in)) with zero biases; the hidden
    width defaults to dim.
    """
    return init_parameters(PTFormerState, model_sizes(hp, ff_hidden),
                           np.random.default_rng(rng_seed), dropout_rate=hp.dropout)


def softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# scaled dot-product attention: multi-head self-attention, single-head cross-attention

def _attention_forward(x: np.ndarray, params: AttentionParams):
    """Multi-head self-attention over the rows of x; heads concatenated in order.

    `params` holds (heads, dim, head_dim) projections. Scores are scaled by
    1/sqrt(dim), the model width, not by 1/sqrt(head_dim).
    """
    q = x @ params.w_q                                    # (heads, n, head_dim)
    k = x @ params.w_k
    v = x @ params.w_v
    attn = softmax(q @ k.transpose(0, 2, 1) / math.sqrt(x.shape[1]))  # (heads, n, n)
    heads, n, head_dim = q.shape
    out = (attn @ v).transpose(1, 0, 2).reshape(n, heads * head_dim)
    return out, (x, q, k, v, attn)


def _attention_backward(d_out: np.ndarray, cache) -> dict[str, np.ndarray]:
    """Projection gradients; x is a frozen embedding and gets no gradient."""
    x, q, k, v, attn = cache
    heads, n, head_dim = q.shape
    d_heads = d_out.reshape(n, heads, head_dim).transpose(1, 0, 2)

    d_v = attn.transpose(0, 2, 1) @ d_heads
    d_attn = d_heads @ v.transpose(0, 2, 1)
    d_scores = _scores_backward(attn, d_attn, x.shape[1])
    d_q = d_scores @ k
    d_k = d_scores.transpose(0, 2, 1) @ q
    return {"w_q": x.T @ d_q, "w_k": x.T @ d_k, "w_v": x.T @ d_v}


def _scores_backward(attn: np.ndarray, d_attn: np.ndarray, width: int) -> np.ndarray:
    """Gradient at the unscaled scores from that at the softmax weights (scale 1/sqrt(width))."""
    return attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True)) / math.sqrt(width)


def _cross_weights(pa: np.ndarray, ex: np.ndarray, params: CrossAttentionParams):
    """(A, k, v): k = ex @ W_k, v = ex @ W_v and A = softmax(pa @ (W_q @ kᵀ) / sqrt(dim))."""
    k, v = ex @ params.w_k, ex @ params.w_v
    return softmax(pa @ (params.w_q @ k.T) / math.sqrt(params.w_q.shape[0])), k, v


def self_attention(x: np.ndarray, params: AttentionParams):
    """Multi-head self-attention over x's rows: (output shaped like x, weights (heads, n, n))."""
    out, cache = _attention_forward(x, params)
    return out, cache[-1]


def cross_attention(pa: np.ndarray, ex: np.ndarray, params: CrossAttentionParams):
    """Single-head attention from patch onto explanation rows: (A @ v, A), A as in fuse_forward."""
    if pa.shape[1] != ex.shape[1]:
        raise ValueError(f"dim mismatch: patch {pa.shape[1]} vs explanation {ex.shape[1]}")
    attn, _, v = _cross_weights(pa, ex, params)
    return attn @ v, attn


# ---------------------------------------------------------------------------
# feed-forward: two dense layers with a rectifier, dropout on the hidden units,
# and the mean over rows taken between the two layers

def _ff_forward(x: np.ndarray, params: FeedForwardParams, keep, rate: float):
    """Pooled branch output (dim,) and the cache for `_ff_backward`.

    `keep` is the bool dropout mask of the hidden units, or None for no
    dropout; kept units are scaled by 1 / (1 - rate).
    """
    h = x @ params.w1  # one (n, hidden) array, the pre-activation until the rectifier
    h += params.b1
    active = h > 0.0
    np.maximum(h, 0.0, out=h)
    if keep is not None:
        h *= keep / (1.0 - rate)
    h_mean = h.mean(axis=0)
    y = h_mean @ params.w2 + params.b2
    return y, (x, active, keep, rate, h_mean)


def _ff_backward(d_y: np.ndarray, cache, params: FeedForwardParams):
    """Input gradient (n, dim) and parameter gradients from the pooled gradient d_y (dim,)."""
    x, active, keep, rate, h_mean = cache
    grads = {"w2": np.outer(h_mean, d_y), "b2": d_y.copy()}  # callers accumulate in place
    d_h = (params.w2 @ d_y) / x.shape[0]  # the same for every row; broadcasts below
    if keep is not None:
        d_h = d_h * (keep / (1.0 - rate))
    d_z = d_h * active
    grads["w1"] = x.T @ d_z
    grads["b1"] = d_z.sum(axis=0)
    d_x = d_z @ params.w1.T
    return d_x, grads


# ---------------------------------------------------------------------------
# full fusion pipeline

NO_DROPOUT = (None, None, None)


def dropout_keep(pa: np.ndarray, ex: np.ndarray, desc: np.ndarray, inst: np.ndarray,
                 state: PTFormerState, rng):
    """Bool keep-masks of the three feed-forward branches for one training `fuse_forward`.

    One uniform per hidden unit of every row, drawn from `rng` in branch order
    (patch-explanation, which has the patch's rows, then description, then
    instruction); a unit is kept when its draw is >= the dropout rate.
    NO_DROPOUT, drawing nothing, when the state has no dropout.
    """
    if not state.dropout_rate > 0.0:
        return NO_DROPOUT
    if rng is None:
        raise ValueError("dropout requires an rng during training")
    return tuple(rng.random((len(x), block.w1.shape[1])) >= state.dropout_rate
                 for x, block in ((pa, state.ff_pa_ex), (desc, state.ff_desc),
                                  (inst, state.ff_inst)))


def fuse_forward(pa: np.ndarray, ex: np.ndarray, desc: np.ndarray, inst: np.ndarray,
                 state: PTFormerState, keep=NO_DROPOUT):
    """Raw-array fusion; returns (vector of length 3*dim, cache for the backward pass).

    `keep` holds the branches' dropout masks from `dropout_keep` in training;
    the default applies no dropout (evaluation).
    """
    rate = state.dropout_rate
    ex_hat, c_sa_ex = _attention_forward(ex, state.self_attn)
    desc_hat, c_sa_desc = _attention_forward(desc, state.self_attn)
    inst_hat, c_sa_inst = _attention_forward(inst, state.self_attn)
    # A @ (v @ w1) for (A @ v) @ w1: _ff_forward's input is A, its w1 is v @ w1
    attn, k, v = _cross_weights(pa, ex_hat, state.cross_attn)
    v_w1 = v @ state.ff_pa_ex.w1
    f_pa_ex, c_ff1 = _ff_forward(attn, replace(state.ff_pa_ex, w1=v_w1), keep[0], rate)
    f_desc, c_ff2 = _ff_forward(desc_hat, state.ff_desc, keep[1], rate)
    f_inst, c_ff3 = _ff_forward(inst_hat, state.ff_inst, keep[2], rate)
    vector = np.concatenate([f_pa_ex, f_desc, f_inst])
    cache = {
        "sa_ex": c_sa_ex, "sa_desc": c_sa_desc, "sa_inst": c_sa_inst,
        "ca": (pa, ex_hat, k, v, v_w1), "ff1": c_ff1, "ff2": c_ff2, "ff3": c_ff3,
    }
    return vector, cache


def fuse_backward(d_vector: np.ndarray, cache, state: PTFormerState) -> dict[str, np.ndarray]:
    """Gradients of every fusion parameter given the gradient on the fused vector."""
    dim = state.dim
    d1, d2, d3 = d_vector[:dim], d_vector[dim:2 * dim], d_vector[2 * dim:]
    ca, ff = state.cross_attn, state.ff_pa_ex
    pa, ex_hat, k, v, v_w1 = cache["ca"]
    d_attn, g_ff1 = _ff_backward(d1, cache["ff1"], replace(ff, w1=v_w1))
    d_v_w1 = g_ff1["w1"]  # Aᵀ @ d_z
    g_ff1["w1"] = v.T @ d_v_w1
    d_v = d_v_w1 @ ff.w1.T
    m = _scores_backward(cache["ff1"][0], d_attn, dim).T @ pa  # (e, dim)
    d_k = m @ ca.w_q
    g_ca = {"w_q": m.T @ k, "w_k": ex_hat.T @ d_k, "w_v": ex_hat.T @ d_v}
    d_ex_hat = d_k @ ca.w_k.T + d_v @ ca.w_v.T
    d_desc_hat, g_ff2 = _ff_backward(d2, cache["ff2"], state.ff_desc)
    d_inst_hat, g_ff3 = _ff_backward(d3, cache["ff3"], state.ff_inst)

    g_sa_ex = _attention_backward(d_ex_hat, cache["sa_ex"])
    g_sa_desc = _attention_backward(d_desc_hat, cache["sa_desc"])
    g_sa_inst = _attention_backward(d_inst_hat, cache["sa_inst"])

    grads = {f"self_attn.{k}": g_sa_ex[k] + g_sa_desc[k] + g_sa_inst[k] for k in g_sa_ex}
    grads |= {f"cross_attn.{k}": g for k, g in g_ca.items()}
    for branch, g in (("ff_pa_ex", g_ff1), ("ff_desc", g_ff2), ("ff_inst", g_ff3)):
        grads |= {f"{branch}.{k}": v for k, v in g.items()}
    return grads


def pooled_concat(pa: np.ndarray, ex: np.ndarray, desc: np.ndarray,
                  inst: np.ndarray) -> np.ndarray:
    """Attention-free fallback fusion: plain pooled concatenation, still 3*dim long.

    The first branch pools the stacked patch and explanation rows jointly so
    the output keeps the same three-part layout as the attention pipeline.
    """
    return np.concatenate([np.vstack([pa, ex]).mean(axis=0), desc.mean(axis=0),
                           inst.mean(axis=0)])


# ---------------------------------------------------------------------------
# parameter access: the declared fields of a parameter dataclass are the one list of names

def parameter_specs(cls, prefix: str = "") -> dict:
    """Declared shape and init of every trainable array under dataclass `cls`, in order.

    Keys are `prefix` plus the dotted field path, e.g. "ff_desc.w1"; nested
    parameter dataclasses are walked, other fields (dropout_rate) are skipped.
    """
    specs = {}
    for f in fields(cls):
        if is_dataclass(f.type):
            specs |= parameter_specs(f.type, f"{prefix}{f.name}.")
        elif "shape" in f.metadata:
            specs[prefix + f.name] = f.metadata
    return specs


def named_parameters(params, prefix: str = "") -> dict[str, np.ndarray]:
    """Live references to every trainable array of `params`, keyed like parameter_specs."""
    return {prefix + name: attrgetter(name)(params) for name in parameter_specs(type(params))}


def from_named_parameters(cls, arrays, prefix: str = "", **scalars):
    """Inverse of named_parameters: a `cls` holding `arrays`; `scalars` fill the other fields."""
    values = {f.name: from_named_parameters(f.type, arrays, f"{prefix}{f.name}.")
              if is_dataclass(f.type) else arrays[prefix + f.name]
              for f in fields(cls) if f.name not in scalars}
    return cls(**values, **scalars)


def init_parameters(cls, sizes: dict, rng, **scalars):
    """A `cls` whose arrays follow their declared init, drawn from `rng` in declaration order."""
    arrays = {}
    for name, spec in parameter_specs(cls).items():
        shape = tuple(sizes.get(size, size) for size in spec["shape"])
        arrays[name] = np.zeros(shape) if spec["init"] == "zeros" else rng.standard_normal(shape)
        if spec["init"] == "he":
            arrays[name] *= math.sqrt(2.0 / shape[0])
    return from_named_parameters(cls, arrays, **scalars)


def check_shapes(arrays, specs: dict, sizes: dict | None = None) -> dict:
    """Raise ValueError naming the first array whose shape disagrees with its spec's.

    A size name found in `sizes` must match; any other is bound by the first
    array that uses it. Returns the sizes, extended by the names bound here.
    """
    sizes = dict(sizes or {})
    for name, spec in specs.items():
        actual, declared = np.shape(arrays[name]), spec["shape"]
        if len(actual) == len(declared):
            for size, n in zip(declared, actual):
                if isinstance(size, str):
                    sizes.setdefault(size, n)
        expected = tuple(sizes.get(size, size) for size in declared)
        if actual != expected:
            raise ValueError(f"{name} has shape {actual}, expected {expected}")
    return sizes
