"""Attention fusion of patch, explanation, description and instruction embeddings.

The fusion block runs shared multi-head self-attention over each text
modality, single-head cross-attention from the patch onto the updated
explanation, a feed-forward block per branch, then mean-pools and
concatenates the three branches into one fixed-length vector. The second
dense layer of each block is affine, so it runs on the mean-pooled hidden
row: mean(h) @ w2 + b2 is the same vector as mean(h @ w2 + b2) at the cost
of one row.

The patch branch (cross-attention, then ff_pa_ex's first layer) reads the
cross-attention's weights only as the folded pair W_qk = W_q @ W_kᵀ and
W_vf = W_v @ ff_pa_ex.w1 (`fold_cross`): scores pa @ (W_qk @ ex_hatᵀ) and
first layer A @ (ex_hat @ W_vf), where A is the (patch, explanation)
attention weights, for the textbook (pa @ W_q) @ (ex_hat @ W_k)ᵀ and
(A @ (ex_hat @ W_v)) @ w1. Neither k nor v is formed, and every patch-row ×
dim² product becomes a patch-row × explanation-row × dim one. Dropout and
the rectifier act on the (patch, hidden) rows of A @ (ex_hat @ W_vf) + b1.
A `PTFormerState` is one weight version, read-only from construction; it forms
the pair on first use (`state.folded`) and keeps it for every pass on it.

The instruction branch up to its dropout is `instruction_forward`. A state's
`instruction_branches(insts)` runs it once per distinct instruction matrix and
keeps the last call's branches for the next; a caller passes each branch to
its `fuse_forward`, which otherwise runs it itself.

Forward functions return caches consumed by exact reverse-mode backward
functions; no autograd framework is involved. The backward pass has two
parts. `fuse_backward` runs per sample and returns what depends on that
sample alone (`BackwardPartials`); `finish_backward` turns the batch's summed
partials into parameter gradients once. The per-sample part reads the same
folded pair, so a sample pays 4 explanation-row × dim² products where the
weight pairs would pay 8.
The instruction branch's backward runs once per shared branch on its summed
rows, and each second layer's weight gradient is one product over the batch.

A feed-forward cache keeps the rectifier gate and the dropout keep-mask as
bool arrays, an eighth of the float64 pre-activation and scaled mask they
stand for; the backward pass rebuilds the scale keep / (1 - rate) with the
forward pass's arithmetic. Dropout masks are drawn by `dropout_keep` apart
from the forward pass, so a caller can draw every sample's masks in order and
then run the forward passes in any order or on any thread.
"""

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cached_property
from operator import attrgetter

import numpy as np

from .types import HyperParams


def parameter(*shape, init: str = "normal"):
    """A trainable array field: its shape (ints, or size names shared across blocks) and its
    init, "normal" (i.i.d. standard normal), "he" (times sqrt(2 / fan_in)) or "zeros"."""
    return field(metadata={"shape": shape, "init": init})


@dataclass(frozen=True)
class AttentionParams:
    """Per-head projection matrices; heads * head_dim = dim."""

    w_q: np.ndarray = parameter("heads", "dim", "head_dim")
    w_k: np.ndarray = parameter("heads", "dim", "head_dim")
    w_v: np.ndarray = parameter("heads", "dim", "head_dim")


@dataclass(frozen=True)
class CrossAttentionParams:
    w_q: np.ndarray = parameter("dim", "dim")
    w_k: np.ndarray = parameter("dim", "dim")
    w_v: np.ndarray = parameter("dim", "dim")


@dataclass(frozen=True)
class FeedForwardParams:
    w1: np.ndarray = parameter("dim", "hidden", init="he")
    b1: np.ndarray = parameter("hidden", init="zeros")
    w2: np.ndarray = parameter("hidden", "dim", init="he")
    b2: np.ndarray = parameter("dim", init="zeros")


@dataclass(frozen=True)
class PTFormerState:
    self_attn: AttentionParams        # shared across the three text modalities
    cross_attn: CrossAttentionParams
    ff_pa_ex: FeedForwardParams
    ff_desc: FeedForwardParams
    ff_inst: FeedForwardParams

    def __post_init__(self):
        """All blocks agree on dim, head count and hidden width; the heads make up dim. Every
        array becomes read-only, so an edit raises instead of scoring with a stale `folded`."""
        arrays = named_parameters(self)
        sizes = check_shapes(arrays, parameter_specs(PTFormerState))
        if sizes["heads"] * sizes["head_dim"] != sizes["dim"]:
            raise ValueError(f"self_attn: {sizes['heads']} heads of width {sizes['head_dim']} "
                             f"do not make up dim {sizes['dim']}")
        for arr in arrays.values():
            arr.flags.writeable = False

    def __reduce__(self):
        """copy, deepcopy and pickle go through __init__: a copy is locked and keeps nothing."""
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    @property
    def dim(self) -> int:
        return self.cross_attn.w_q.shape[0]

    @cached_property
    def folded(self):
        """`fold_cross(self)`, formed on first use (`instruction_branches` forms it)."""
        return fold_cross(self)

    def instruction_branches(self, insts) -> list:
        """`instruction_forward(inst, self)` of each matrix of `insts`, in order.

        Matrices are the same when their shape, dtype and bytes are (`np.array_equal`
        would also match -0.0 with 0.0). The calling thread forms `folded` first, then
        runs `instruction_forward` once per distinct matrix the last call did not keep, and
        keeps this call's branches in place of those. Two calls at once can lose each
        other's entries, never read a wrong one or miss their own."""
        self.folded  # formed on this thread, before any pool dispatch reads it
        kept, branches = getattr(self, "_kept_branches", {}), {}
        keys = [(inst.shape, inst.dtype.str, inst.tobytes()) for inst in insts]
        for inst, key in zip(insts, keys):
            if key not in branches:
                branches[key] = kept.get(key) or instruction_forward(inst, self)
        object.__setattr__(self, "_kept_branches", branches)  # a reader sees one whole dict
        return [branches[key] for key in keys]


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
                           np.random.default_rng(rng_seed))


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


def _cross_weights(pa: np.ndarray, ex: np.ndarray, w_qk: np.ndarray) -> np.ndarray:
    """A = softmax(pa @ (W_qk @ exᵀ) / sqrt(dim)), with W_qk = W_q @ W_kᵀ."""
    return softmax(pa @ (w_qk @ ex.T) / math.sqrt(w_qk.shape[0]))


# ---------------------------------------------------------------------------
# feed-forward: two dense layers with a rectifier, dropout on the hidden units,
# and the mean over rows taken between the two layers

def _ff_hidden(x: np.ndarray, params: FeedForwardParams):
    """(rectified hidden rows max(x @ w1 + b1, 0), rectifier gate), both (n, hidden)."""
    h = x @ params.w1  # the pre-activation until the rectifier
    h += params.b1
    active = h > 0.0
    np.maximum(h, 0.0, out=h)
    return h, active


def _ff_forward(x: np.ndarray, params: FeedForwardParams, keep, rate: float, hidden=None):
    """Pooled branch output (dim,) and the cache for `_ff_backward`.

    `keep` is the bool dropout mask of the hidden units, or None for no
    dropout; kept units are scaled by 1 / (1 - rate). `hidden` is
    `_ff_hidden(x, params)` when the caller has it; it is not written to.
    """
    h, active = _ff_hidden(x, params) if hidden is None else hidden
    if keep is not None:
        h = h * (keep / (1.0 - rate))
    h_mean = h.mean(axis=0)
    y = h_mean @ params.w2 + params.b2
    return y, (x, active, keep, rate, h_mean)


def _ff_backward(d_y: np.ndarray, cache, w2: np.ndarray) -> np.ndarray:
    """Gradient (n, hidden) at the first layer's output rows from the pooled gradient d_y."""
    x, active, keep, rate, _ = cache
    d_h = (w2 @ d_y) / x.shape[0]  # the same for every row; broadcasts below
    if keep is not None:
        d_h = d_h * (keep / (1.0 - rate))
    return d_h * active


# ---------------------------------------------------------------------------
# full fusion pipeline

NO_DROPOUT = (0.0, None, None, None)


def dropout_keep(pa: np.ndarray, ex: np.ndarray, desc: np.ndarray, inst: np.ndarray,
                 state: PTFormerState, rate: float, rng):
    """(rate, patch-explanation mask, description mask, instruction mask) for one training
    `fuse_forward`: one uniform per hidden unit of every row, drawn from `rng` in that branch
    order (the patch-explanation branch has the patch's rows); a unit is kept when its
    draw is at least `rate`. NO_DROPOUT, drawing nothing, when rate is 0."""
    if not rate > 0.0:
        return NO_DROPOUT
    if rng is None:
        raise ValueError("dropout requires an rng during training")
    return (rate, *(rng.random((len(x), block.w1.shape[1])) >= rate
                    for x, block in ((pa, state.ff_pa_ex), (desc, state.ff_desc),
                                     (inst, state.ff_inst))))


def instruction_forward(inst: np.ndarray, state: PTFormerState):
    """The instruction branch up to its dropout, as `fuse_forward` takes it: (self-attention
    output, its cache, ff_inst's (rectified hidden rows, rectifier gate)). Every array it
    makes is read-only, so samples whose instruction matrices hold the same bytes can share
    one result in training too: each applies its own dropout mask and backward pass."""
    inst_hat, c_sa_inst = _attention_forward(inst, state.self_attn)
    hidden = _ff_hidden(inst_hat, state.ff_inst)
    for arr in (inst_hat, *c_sa_inst[1:], *hidden):
        arr.flags.writeable = False
    return inst_hat, c_sa_inst, hidden


def fuse_forward(pa: np.ndarray, ex: np.ndarray, desc: np.ndarray, inst: np.ndarray,
                 state: PTFormerState, keep=NO_DROPOUT, inst_branch=None):
    """Raw-array fusion; returns (vector of length 3*dim, cache for the backward pass).

    `keep` holds the dropout rate and the branches' masks from `dropout_keep`
    in training; the default applies no dropout (evaluation). `inst_branch`
    is `instruction_forward(inst, state)` when the caller shares one across
    samples; it is made here when None.
    """
    rate, keep_pa_ex, keep_desc, keep_inst = keep
    if inst_branch is None:
        inst_branch = instruction_forward(inst, state)
    w_qk, w_vf = state.folded
    inst_hat, c_sa_inst, inst_hidden = inst_branch
    ex_hat, c_sa_ex = _attention_forward(ex, state.self_attn)
    desc_hat, c_sa_desc = _attention_forward(desc, state.self_attn)
    # A @ (ex_hat @ W_vf) for (A @ v) @ w1: _ff_forward's input is A, its w1 is ex_hat @ W_vf
    attn = _cross_weights(pa, ex_hat, w_qk)
    v_w1 = ex_hat @ w_vf
    f_pa_ex, c_ff1 = _ff_forward(attn, replace(state.ff_pa_ex, w1=v_w1), keep_pa_ex, rate)
    f_desc, c_ff2 = _ff_forward(desc_hat, state.ff_desc, keep_desc, rate)
    f_inst, c_ff3 = _ff_forward(inst_hat, state.ff_inst, keep_inst, rate, inst_hidden)
    vector = np.concatenate([f_pa_ex, f_desc, f_inst])
    cache = {
        "sa_ex": c_sa_ex, "sa_desc": c_sa_desc, "sa_inst": c_sa_inst,
        "ca": (pa, ex_hat, v_w1), "ff1": c_ff1, "ff2": c_ff2, "ff3": c_ff3,
    }
    return vector, cache


def fold_cross(state: PTFormerState):
    """(W_q @ W_kᵀ, W_v @ ff_pa_ex.w1): the products in which `fuse_forward` and
    `fuse_backward` read the cross-attention's weights, once per state as `state.folded`."""
    ca = state.cross_attn
    return ca.w_q @ ca.w_k.T, ca.w_v @ state.ff_pa_ex.w1


@dataclass
class BackwardPartials:
    """The fusion gradients' parts that depend on one sample, or on a batch's samples once
    `add`ed together in sample order; `finish_backward` makes them parameter gradients.

    `sums` holds the parameter gradients of the sample's own rows (self-attention on the
    explanation and description, ff_pa_ex's b1, ff_desc's first layer) and those of the
    folded products, "cross_attn.w_qk" and "ff_pa_ex.w_vf". `pooled` holds, per second
    layer, each sample's (mean-pooled hidden row, pooled gradient) in sample order.
    `instruction` maps each instruction branch, by the identity of its self-attention
    cache, to ((its output rows, that cache), the summed gradient at ff_inst's first layer
    output rows), in order of first appearance.
    """

    sums: dict[str, np.ndarray]
    pooled: dict[str, list]
    instruction: dict[int, tuple]

    def add(self, other: "BackwardPartials") -> None:
        """Add `other`'s partials into these, in place; its arrays are not written to."""
        for name, grad in other.sums.items():
            self.sums[name] += grad
        for branch, rows in other.pooled.items():
            self.pooled[branch] += rows
        for key, (branch_cache, d_z) in other.instruction.items():
            if key in self.instruction:
                summed = self.instruction[key][1]
                summed += d_z
            else:
                self.instruction[key] = (branch_cache, d_z.copy())


def fuse_backward(d_vector: np.ndarray, cache, state: PTFormerState) -> BackwardPartials:
    """One sample's gradient partials, given the gradient on its fused vector and the cache
    of its forward pass on `state`."""
    dim = state.dim
    w_qk, w_vf = state.folded
    d1, d2, d3 = d_vector[:dim], d_vector[dim:2 * dim], d_vector[2 * dim:]
    pa, ex_hat, v_w1 = cache["ca"]
    attn, desc_hat, inst_hat = cache["ff1"][0], cache["ff2"][0], cache["ff3"][0]
    d_z1 = _ff_backward(d1, cache["ff1"], state.ff_pa_ex.w2)
    d_vf = attn.T @ d_z1  # the gradient at ex_hat @ W_vf
    m = _scores_backward(attn, d_z1 @ v_w1.T, dim).T @ pa  # (e, dim)
    d_ex_hat = m @ w_qk + d_vf @ w_vf.T
    d_z2 = _ff_backward(d2, cache["ff2"], state.ff_desc.w2)
    g_sa_ex = _attention_backward(d_ex_hat, cache["sa_ex"])
    g_sa_desc = _attention_backward(d_z2 @ state.ff_desc.w1.T, cache["sa_desc"])

    sums = {f"self_attn.{k}": g_sa_ex[k] + g_sa_desc[k] for k in g_sa_ex}
    sums |= {"cross_attn.w_qk": m.T @ ex_hat, "ff_pa_ex.w_vf": ex_hat.T @ d_vf,
             "ff_pa_ex.b1": d_z1.sum(axis=0), "ff_desc.w1": desc_hat.T @ d_z2,
             "ff_desc.b1": d_z2.sum(axis=0)}
    pooled = {branch: [(cache[c][4], d_y)] for branch, c, d_y in
              (("ff_pa_ex", "ff1", d1), ("ff_desc", "ff2", d2), ("ff_inst", "ff3", d3))}
    d_z3 = _ff_backward(d3, cache["ff3"], state.ff_inst.w2)
    instruction = {id(cache["sa_inst"]): ((inst_hat, cache["sa_inst"]), d_z3)}
    return BackwardPartials(sums, pooled, instruction)


def finish_backward(partials: BackwardPartials, state: PTFormerState) -> dict[str, np.ndarray]:
    """Gradients of every fusion parameter, keyed like `named_parameters`, from the
    partials of a batch's `fuse_backward` calls added in sample order. Takes the partials'
    arrays over: they must not be used afterwards."""
    ca, ff, inst = state.cross_attn, state.ff_pa_ex, state.ff_inst
    grads = dict(partials.sums)
    g_qk, g_vf = grads.pop("cross_attn.w_qk"), grads.pop("ff_pa_ex.w_vf")
    grads |= {"cross_attn.w_q": g_qk @ ca.w_k, "cross_attn.w_k": g_qk.T @ ca.w_q,
              "cross_attn.w_v": g_vf @ ff.w1.T, "ff_pa_ex.w1": ca.w_v.T @ g_vf,
              "ff_inst.w1": np.zeros_like(inst.w1), "ff_inst.b1": np.zeros_like(inst.b1)}
    for (inst_hat, c_sa_inst), z in partials.instruction.values():
        grads["ff_inst.w1"] += inst_hat.T @ z
        grads["ff_inst.b1"] += z.sum(axis=0)
        for k, g in _attention_backward(z @ inst.w1.T, c_sa_inst).items():
            grads[f"self_attn.{k}"] += g
    for branch, rows in partials.pooled.items():
        h_mean, d_y = (np.stack(column) for column in zip(*rows))
        grads[f"{branch}.w2"], grads[f"{branch}.b2"] = h_mean.T @ d_y, d_y.sum(axis=0)
    return {name: grads[name] for name in parameter_specs(PTFormerState)}


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
    parameter dataclasses are walked.
    """
    specs = {}
    for f in fields(cls):
        if is_dataclass(f.type):
            specs |= parameter_specs(f.type, f"{prefix}{f.name}.")
        else:
            specs[prefix + f.name] = f.metadata
    return specs


def named_parameters(params, prefix: str = "") -> dict[str, np.ndarray]:
    """Live references to every trainable array of `params`, keyed like parameter_specs."""
    return {prefix + name: attrgetter(name)(params) for name in parameter_specs(type(params))}


def from_named_parameters(cls, arrays, prefix: str = ""):
    """Inverse of named_parameters: a `cls` holding `arrays`."""
    return cls(**{f.name: from_named_parameters(f.type, arrays, f"{prefix}{f.name}.")
                  if is_dataclass(f.type) else arrays[prefix + f.name] for f in fields(cls)})


def init_parameters(cls, sizes: dict, rng):
    """A `cls` whose arrays follow their declared init, drawn from `rng` in declaration order."""
    arrays = {}
    for name, spec in parameter_specs(cls).items():
        shape = tuple(sizes.get(size, size) for size in spec["shape"])
        arrays[name] = np.zeros(shape) if spec["init"] == "zeros" else rng.standard_normal(shape)
        if spec["init"] == "he":
            arrays[name] *= math.sqrt(2.0 / shape[0])
    return from_named_parameters(cls, arrays)


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
