"""Classification head, combined objective, AdamW optimization loop, and checkpointing."""

import contextlib
import contextvars
import copy
import ctypes
import json
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from itertools import islice

import numpy as np

from . import arrayio
from .contrastive import InsufficientClassMembers, sbcl_batch_loss_and_grad
from .dataset import class_counts, tokenize
from .embed import EmbedderBackend, embed_patch, embed_text
from .explain import ExplainerConfig, explain, instruction_text
from .fusion import (NO_DROPOUT, PTFormerState, check_shapes, dropout_keep, finish_backward,
                     from_named_parameters, fuse_backward, fuse_forward, init_parameters,
                     init_pt_former, model_sizes, named_parameters, parameter,
                     parameter_specs, pooled_concat)
from .metrics import MetricsReport, compute_metrics
from .seeding import derive_seed, substream
from .types import (FusedEmbedding, HyperParams, Label, LengthMismatch, Modality,
                    PatchSample, config_from_dict)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
PROB_EPS = 1e-12

CHECKPOINT_MAGIC = "secpatch-train"
CHECKPOINT_VERSION = 1
BEST_POINTER = "best.json"
RNG_STREAMS = ("batching", "dropout", "mining")

# training and evaluation run the per-sample fusion passes on one thread per usable core
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_THREADED_MIN_DIM = 128
_M_ARENA_MAX = -8  # glibc's mallopt parameter for the arena limit


class DivergenceDetected(RuntimeError):
    """Training loss became non-finite; the last good checkpoint is preserved."""

    def __init__(self, epoch: int, last_checkpoint: str | None):
        self.epoch = epoch
        self.last_checkpoint = last_checkpoint
        super().__init__(
            f"non-finite loss at epoch {epoch}; "
            f"last good checkpoint: {last_checkpoint or '<none written>'}")


class InvalidCheckpoint(ValueError):
    """A training checkpoint lacks an array or meta key, or holds a value that does not fit."""

    def __init__(self, path, reason: str):
        self.path = str(path)
        super().__init__(f"{path}: invalid checkpoint: {reason}")


class InvalidRunLog(ValueError):
    """A run log line is not a whole record that `train` writes, or the log is a directory."""


class _Entries(dict):
    """A checkpoint's arrays or meta block; a missing key raises InvalidCheckpoint naming it."""

    def __init__(self, entries: dict, path, kind: str):
        super().__init__(entries)
        self.path, self.kind = path, kind

    def __missing__(self, key):
        raise InvalidCheckpoint(self.path, f"missing {self.kind} {key!r}")


@dataclass
class ClassifierParams:
    """Fully connected head: probability = sigmoid(weight . E + bias)."""

    weight: np.ndarray = parameter("fused", init="zeros")  # the fused vector's length, 3 * dim
    bias: np.ndarray = parameter(1, init="zeros")


@dataclass(frozen=True)
class TrainOptions:
    """Behavior switches that are not published hyperparameters."""

    loss_blend: str = "sum"       # "sum": L_BCE + L_SBCL; "alpha": alpha-weighted blend
    anchor_mode: str = "all"      # "all" anchors every security sample; "random_one" draws one
    threshold: float = 0.5
    use_explanation: bool = True
    use_instruction: bool = True
    use_ptformer: bool = True
    use_sbcl: bool = True
    ff_hidden: int | None = None  # fusion feed-forward hidden width; None means dim

    def __post_init__(self):
        if self.loss_blend not in ("sum", "alpha"):
            raise ValueError(f"loss_blend must be 'sum' or 'alpha', got {self.loss_blend!r}")
        if self.anchor_mode not in ("all", "random_one"):
            raise ValueError(f"anchor_mode must be 'all' or 'random_one', got {self.anchor_mode!r}")
        if not 0 <= self.threshold <= 1:
            raise ValueError(f"threshold must lie in [0, 1], got {self.threshold!r}")
        if self.ff_hidden is not None and self.ff_hidden < 1:
            raise ValueError(f"ff_hidden must be >= 1 or None, got {self.ff_hidden!r}")


@dataclass
class PipelineBackends:
    """Injected embedders and optional explanation backend."""

    patch_embedder: EmbedderBackend
    text_embedder: EmbedderBackend
    explainer: ExplainerConfig | None = None


def hashed_backends(hp: HyperParams, explainer: ExplainerConfig | None = None) -> PipelineBackends:
    """Fully offline backends: hashed projection embedders."""
    return PipelineBackends(
        patch_embedder=EmbedderBackend.hashed_projection(hp.dim, derive_seed(hp.seed, "embed-patch")),
        text_embedder=EmbedderBackend.hashed_projection(hp.dim, derive_seed(hp.seed, "embed-text")),
        explainer=explainer,
    )


@dataclass
class TrainState:
    pt_former: PTFormerState | None
    classifier: ClassifierParams
    hp: HyperParams
    options: TrainOptions
    adam_m: dict
    adam_v: dict
    adam_t: int
    epoch: int
    rngs: dict
    sbcl_skipped: int = 0


# ---------------------------------------------------------------------------
# losses

def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def head_probability(fused, classifier: ClassifierParams):
    """sigmoid(fused . weight + bias) for one fused vector or a batch of row vectors."""
    if np.shape(fused)[-1] != classifier.weight.shape[0]:
        raise ValueError(
            f"embedding length {np.shape(fused)[-1]} does not match classifier "
            f"weight length {classifier.weight.shape[0]}")
    return sigmoid(fused @ classifier.weight + classifier.bias[0])


def bce_loss(probs, labels) -> float:
    """Mean binary cross-entropy with probabilities clamped to [1e-12, 1 - 1e-12]."""
    if len(probs) != len(labels):
        raise LengthMismatch(f"{len(probs)} probabilities vs {len(labels)} labels")
    p = np.clip(np.asarray(probs, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    y = np.asarray(labels, dtype=np.float64)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    bce: float
    sbcl: float
    sbcl_skipped: bool


# ---------------------------------------------------------------------------
# encoding samples to modality matrices

def encode_sample(sample: PatchSample, backends: PipelineBackends, hp: HyperParams,
                  options: TrainOptions = TrainOptions()):
    """Tokenize and embed the four modalities of one sample.

    Returns the (patch, explanation, description, instruction) rows as four
    read-only float64 arrays of shape (rows, dim). Missing or ablated texts
    become empty sequences, which embed to the zero sentinel row, so the
    fusion shape contract never changes. Raises ValueError when an embedder's
    dim is not hp.dim.
    """
    for role, backend in (("patch", backends.patch_embedder), ("text", backends.text_embedder)):
        if backend.dim != hp.dim:
            raise ValueError(f"{role} embedder has dim {backend.dim}, but the model has dim "
                             f"{hp.dim}")
    explanation = ""
    if options.use_explanation:
        explanation = sample.explanation
        if explanation is None and backends.explainer is not None:
            explanation = explain(sample, backends.explainer)
        explanation = explanation or ""
    description = sample.description or ""
    instruction = instruction_text() if options.use_instruction else ""

    e_pa = embed_patch(tokenize(sample.diff_text, hp.max_tokens),
                       backends.patch_embedder, sample.id)
    e_ex = embed_text(tokenize(explanation, hp.max_tokens),
                      backends.text_embedder, Modality.EXPLANATION, sample.id)
    e_desc = embed_text(tokenize(description, hp.max_tokens),
                        backends.text_embedder, Modality.DESCRIPTION, sample.id)
    e_inst = embed_text(tokenize(instruction, hp.max_tokens),
                        backends.text_embedder, Modality.INSTRUCTION, sample.id)
    return e_pa.values, e_ex.values, e_desc.values, e_inst.values


def encode_samples(samples, backends, hp, options=TrainOptions()) -> dict:
    return {s.id: encode_sample(s, backends, hp, options) for s in samples}


# ---------------------------------------------------------------------------
# forward pass and joint objective

def _in_order(pool: ThreadPoolExecutor | None, fn, args: list):
    """fn(*a) for each tuple taken from the front of `args`, yielded in order.

    The calls run on `pool`, or one after another on the calling thread when
    it is None. A tuple leaves `args` when it is submitted, so what it
    references is freed once its call is done. At most one finished result per
    worker waits to be taken, so a caller that folds the results as they come
    never holds them all at once. Each call runs in a copy of the caller's
    context, so numpy's errstate applies there too.
    """
    if pool is None:
        while args:
            yield fn(*args.pop(0))
        return
    pending = deque()
    while args:
        pending.append(pool.submit(contextvars.copy_context().run, fn, *args.pop(0)))
        if len(pending) > _WORKERS:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def _fusion_pool(state: TrainState, n_samples: int):
    """Context giving the fusion pool for `n_samples` samples, or None for the calling thread.

    The pool has one thread per usable core and is shut down when the
    context exits. None for fewer than 2 samples, on one core, without
    PT-Former, and for a model narrower than _THREADED_MIN_DIM, whose numpy
    calls are too short to keep the interpreter lock released: there,
    threads contend for the lock and run slower than one thread.
    """
    if (n_samples < 2 or _WORKERS == 1 or state.pt_former is None
            or state.hp.dim < _THREADED_MIN_DIM):
        return contextlib.nullcontext()
    _share_one_malloc_arena()
    return ThreadPoolExecutor(_WORKERS, thread_name_prefix="secpatch-fusion")


def _share_one_malloc_arena() -> None:
    """Make new threads allocate from the main malloc arena (glibc; a no-op elsewhere).

    glibc gives each new thread an arena of its own, and a block freed into
    one arena serves no other. The fusion workers' caches and the calling
    thread's work before and after them would each keep a high-water mark of
    their own, and peak RSS would grow with the worker count. With one arena
    it stays that of one thread. The setting is process-wide.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no C library handle, or no mallopt
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)


def batch_loss_and_grads(mats, labels, state: TrainState,
                         pool: ThreadPoolExecutor | None = None):
    """Joint objective of one batch and its gradient for every trainable parameter.

    `mats` holds one (patch, explanation, description, instruction) tuple of
    arrays per sample, as `encode_sample` returns it. Runs the fusion forward
    pass (with dropout at `state.hp.dropout`), the classifier head, L_BCE and L_SBCL
    blended per `state.options.loss_blend`, and the backward pass. A batch
    that cannot be mined contributes zero contrastive loss and reports
    `sbcl_skipped`. Gradients are keyed like the optimizer's parameters and
    are None when the loss is not finite. Draws from the state's dropout and
    mining streams.

    The per-sample fusion passes run on `pool`, or on the calling thread when
    it is None. Every sample's dropout masks are drawn here first, in sample
    order, and the per-sample gradient partials are added here in sample
    order, then finished once (`fusion.finish_backward`), so the result is the
    same bits whatever runs them. The passes read the PTFormerState's folded pair
    and one instruction branch per distinct matrix
    (`PTFormerState.instruction_branches`), as evaluation does; each sample applies
    its own mask, and a branch's backward runs once on its summed gradient.
    """
    options, hp, pt = state.options, state.hp, state.pt_former
    if pt is None:
        fused = np.stack([pooled_concat(*m) for m in mats])
    else:
        keeps = [dropout_keep(*m, pt, hp.dropout, state.rngs["dropout"]) for m in mats]
        work = list(zip(mats, keeps, pt.instruction_branches([m[3] for m in mats])))
        vectors, caches = zip(*_in_order(
            pool, lambda m, keep, branch: fuse_forward(*m, pt, keep, branch), work))
        fused = np.stack(vectors)
    y = np.array([1.0 if label is Label.SECURITY else 0.0 for label in labels])
    probs = head_probability(fused, state.classifier)
    bce = bce_loss(probs, y)

    sbcl = 0.0
    skipped = False
    d_fused_sbcl = 0.0
    if options.use_sbcl:
        try:
            sbcl, d_fused_sbcl = sbcl_batch_loss_and_grad(
                fused, labels, hp.margin, rng=state.rngs["mining"],
                anchor_mode=options.anchor_mode)
        except InsufficientClassMembers:
            skipped = True

    coeff_bce, coeff_sbcl = (1.0, 1.0) if options.loss_blend == "sum" \
        else (hp.alpha, 1.0 - hp.alpha)
    loss = LossBreakdown(coeff_bce * bce + coeff_sbcl * sbcl, bce, sbcl, skipped)
    if not math.isfinite(loss.total):
        return loss, None

    # clamp is inactive away from saturation, where the gradient is zero anyway
    d_logits = coeff_bce * (probs - y) / len(labels)
    grads = {
        "classifier.weight": fused.T @ d_logits,
        "classifier.bias": np.array([d_logits.sum()]),
    }
    if pt is not None:
        d_fused = np.outer(d_logits, state.classifier.weight) + coeff_sbcl * d_fused_sbcl
        work = list(zip(d_fused, caches))
        del caches  # so each cache is freed once its backward pass is done
        per_sample = _in_order(pool, lambda d_vec, cache: fuse_backward(d_vec, cache, pt), work)
        partials = next(per_sample)
        for sample_partials in per_sample:
            partials.add(sample_partials)
        for name, grad in finish_backward(partials, pt).items():
            grads[f"pt.{name}"] = grad
    return loss, grads


# ---------------------------------------------------------------------------
# optimizer and checkpoints

def _trainable_params(state: TrainState) -> dict:
    """The one map from checkpoint name to live trainable array, in a fixed order."""
    blocks = {"pt.": state.pt_former, "classifier.": state.classifier}
    return {name: arr for prefix, block in blocks.items() if block is not None
            for name, arr in named_parameters(block, prefix).items()}


def adamw_step(params: dict, grads: dict, m: dict, v: dict, t: int,
               learning_rate: float, weight_decay: float) -> None:
    """One decoupled-weight-decay Adam update: `params`, `m` and `v` map each name to a new
    array, and the arrays passed in are not written to."""
    bias1 = 1.0 - ADAM_BETA1 ** t
    bias2 = 1.0 - ADAM_BETA2 ** t
    for name, p in params.items():
        g = grads[name]
        m[name] = ADAM_BETA1 * m[name] + (1.0 - ADAM_BETA1) * g
        v[name] = ADAM_BETA2 * v[name] + (1.0 - ADAM_BETA2) * (g * g)
        update = (m[name] / bias1) / (np.sqrt(v[name] / bias2) + ADAM_EPS)
        params[name] = p - (learning_rate * update + learning_rate * weight_decay * p)


def init_train_state(hp: HyperParams, options: TrainOptions = TrainOptions()) -> TrainState:
    pt = None
    if options.use_ptformer:
        pt = init_pt_former(hp, derive_seed(hp.seed, "init"), options.ff_hidden)
    state = TrainState(
        pt_former=pt, classifier=init_parameters(ClassifierParams, model_sizes(hp), rng=None),
        hp=hp, options=options,
        adam_m={}, adam_v={}, adam_t=0, epoch=0,
        rngs={name: substream(hp.seed, name) for name in RNG_STREAMS},
    )
    for name, arr in _trainable_params(state).items():
        state.adam_m[name] = np.zeros_like(arr)
        state.adam_v[name] = np.zeros_like(arr)
    return state


def save_checkpoint(path, state: TrainState) -> None:
    arrays = {}
    for name, arr in _trainable_params(state).items():
        arrays[name] = arr
        arrays[f"adam_m.{name}"] = state.adam_m[name]
        arrays[f"adam_v.{name}"] = state.adam_v[name]
    meta = {
        "format": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "epoch": state.epoch,
        "adam_t": state.adam_t,
        "hp": asdict(state.hp),
        "options": asdict(state.options),
        "seed": state.hp.seed,
        "sbcl_skipped": state.sbcl_skipped,
        "has_ptformer": state.pt_former is not None,
        "adam": {"beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "eps": ADAM_EPS},
        "rng": {name: gen.bit_generator.state for name, gen in state.rngs.items()},
    }
    arrayio.save_arrays(path, arrays, meta)


@dataclass(frozen=True)
class _Progress:
    """The counters a checkpoint's meta block holds beside its hp and options."""

    epoch: int
    adam_t: int
    sbcl_skipped: int
    has_ptformer: bool

    def __post_init__(self):
        for name in ("epoch", "adam_t", "sbcl_skipped"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative, got {getattr(self, name)}")


def load_checkpoint(path) -> TrainState:
    """Rebuild the TrainState that save_checkpoint wrote to `path`.

    Raises InvalidCheckpoint for a version other than the int
    CHECKPOINT_VERSION, naming the first missing meta key, array or rng
    stream, the first rng stream whose state the generator does not take
    as stored, the first counter that is not an int or is negative
    (`has_ptformer`: a bool, equal to `options.use_ptformer`), the first
    array whose shape disagrees with the stored hyperparameters and options
    (dim, num_heads, ff_hidden, a 3 * dim classifier) or, for an AdamW
    moment, with its parameter, and the first array that is not <f8 or
    holds a NaN or an infinity.
    """
    arrays, meta = arrayio.load_arrays(path)
    if meta.get("format") != CHECKPOINT_MAGIC:
        raise InvalidCheckpoint(path, "not a training checkpoint")
    arrays, meta = _Entries(arrays, path, "array"), _Entries(meta, path, "meta key")
    if type(meta["version"]) is not int or meta["version"] != CHECKPOINT_VERSION:  # True == 1
        raise InvalidCheckpoint(path, f"unsupported checkpoint version {meta['version']!r}")
    try:
        hp = config_from_dict(HyperParams, meta["hp"], "hp")
        options = config_from_dict(TrainOptions, meta["options"], "options")
        progress = config_from_dict(_Progress, {f.name: meta[f.name] for f in fields(_Progress)},
                                    "meta")
        if progress.has_ptformer != options.use_ptformer:
            raise ValueError(f"meta.has_ptformer {progress.has_ptformer} contradicts "
                             f"options.use_ptformer {options.use_ptformer}")
        specs = parameter_specs(ClassifierParams, "classifier.")
        if progress.has_ptformer:
            specs = parameter_specs(PTFormerState, "pt.") | specs
        sizes = model_sizes(hp, options.ff_hidden)
        for kind in ("", "adam_m.", "adam_v."):  # each moment is shaped like its parameter
            named = {kind + name: spec for name, spec in specs.items()}
            check_shapes(arrays, named, sizes)
            for name in named:
                if arrays[name].dtype != np.float64:
                    raise ValueError(f"{name} has dtype {arrays[name].dtype.str}, expected <f8")
                if not np.isfinite(arrays[name]).all():
                    raise ValueError(f"{name} holds a non-finite value")
        saved = _Entries(meta["rng"], path, "rng stream")
        rngs = {name: np.random.default_rng(0) for name in RNG_STREAMS}
        for name, gen in rngs.items():
            stored = saved[name]
            try:  # the setter casts what it can, so a state that casts must read back as stored
                gen.bit_generator.state = stored
                if gen.bit_generator.state != stored:
                    raise ValueError(f"reads back as {gen.bit_generator.state}")
            except (KeyError, OverflowError, TypeError, ValueError) as exc:
                raise InvalidCheckpoint(path, f"rng.{name} is not a generator state: "
                                              f"{exc!r}") from exc
        state = TrainState(
            pt_former=from_named_parameters(PTFormerState, arrays, "pt.")
            if progress.has_ptformer else None,
            classifier=from_named_parameters(ClassifierParams, arrays, "classifier."),
            hp=hp, options=options, adam_m={}, adam_v={}, adam_t=progress.adam_t,
            epoch=progress.epoch, rngs=rngs, sbcl_skipped=progress.sbcl_skipped,
        )
        for name in _trainable_params(state):
            state.adam_m[name] = arrays[f"adam_m.{name}"]
            state.adam_v[name] = arrays[f"adam_v.{name}"]
    except InvalidCheckpoint:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidCheckpoint(path, str(exc)) from exc
    return state


# ---------------------------------------------------------------------------
# batch composition: balanced class mix, reshuffled refills when a class runs out

def _class_cycle(items, rng):
    """Endless draws from `items`; each pass permutes the previous pass's order."""
    if not items:
        raise ValueError("cannot draw batches from an empty class")
    while True:
        items = [items[i] for i in rng.permutation(len(items))]
        yield from items


def _compose_batches(samples, batch_size: int, rng):
    security = [s for s in samples if s.label is Label.SECURITY]
    non_security = [s for s in samples if s.label is Label.NON_SECURITY]
    n_security = math.ceil(batch_size / 2)
    n_non = batch_size - n_security
    sec_cycle = _class_cycle(security, rng)
    non_cycle = _class_cycle(non_security, rng)
    n_batches = max(1, math.ceil(len(samples) / batch_size))
    for _ in range(n_batches):
        yield list(islice(sec_cycle, n_security)) + list(islice(non_cycle, n_non))


# ---------------------------------------------------------------------------
# training and prediction

def train(split, hp: HyperParams, backends: PipelineBackends, state: TrainState | None = None,
          options: TrainOptions | None = None, checkpoint_dir=None, run_log_path=None):
    """Optimize all fusion and classifier parameters with AdamW.

    Runs hp.epochs epochs (on top of any epochs already in `state` when resuming).
    Writes the run log whole before the first epoch (empty, or the records that
    _resume_run_log keeps) and after each epoch's record; then the `best.json`
    pointer to the best-scoring epoch, which a resumed run repoints only for an epoch
    that beats its score; then, last, the epoch's checkpoint. Deterministic for a
    fixed seed, on any number of cores: a model at least _THREADED_MIN_DIM wide runs
    its per-sample fusion passes, training and validation, on one thread per usable core.

    Returns (final TrainState, list of per-epoch records).
    """
    train_samples = list(split.train)
    if not train_samples:
        raise ValueError("train split is empty")
    counts = class_counts(train_samples)
    if any(count == 0 for count in counts.values()):
        raise ValueError("train split must contain both classes")

    resuming = state is not None
    if not resuming:
        state = init_train_state(hp, options or TrainOptions())
    else:
        if options is not None and options != state.options:
            raise ValueError("cannot change TrainOptions when resuming from a state")
        changed = [f.name for f in fields(hp)
                   if f.name != "epochs" and getattr(hp, f.name) != getattr(state.hp, f.name)]
        if changed:
            raise ValueError(f"cannot change {', '.join(changed)} when resuming from a state")
        # the run steps its own moments and generators, so a copy of the state given, such
        # as a dataclasses.replace, keeps those it holds as it keeps its weights
        state.adam_m, state.adam_v = dict(state.adam_m), dict(state.adam_v)
        state.rngs = {name: copy.deepcopy(gen) for name, gen in state.rngs.items()}
    options = state.options
    log = _resume_run_log(run_log_path, state.epoch) if resuming and run_log_path else b""

    best_score = -math.inf
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
        pointer_path = os.path.join(checkpoint_dir, BEST_POINTER)
        if resuming and os.path.exists(pointer_path):
            best_score = read_best_pointer(pointer_path)["score"]  # a resumed epoch must beat it

    encoded = encode_samples([*train_samples, *split.validation], backends, hp, options)

    records = []
    last_checkpoint = None
    if run_log_path:  # a fresh run empties the log, so a rerun reproduces it byte for byte
        with arrayio.atomic_open(run_log_path) as fh:
            fh.write(log)
    with _fusion_pool(state, len(train_samples)) as pool:
        for _ in range(hp.epochs):
            epoch = state.epoch + 1
            sums = {"bce": 0.0, "sbcl": 0.0, "total": 0.0}
            n_batches = 0
            for batch in _compose_batches(train_samples, hp.batch_size_train,
                                          state.rngs["batching"]):
                loss = _train_batch(batch, encoded, state, pool)
                if not math.isfinite(loss.total):
                    raise DivergenceDetected(epoch, last_checkpoint)
                sums["bce"] += loss.bce
                sums["sbcl"] += loss.sbcl
                sums["total"] += loss.total
                n_batches += 1
            state.epoch = epoch

            val_auc, val_f1 = _validation_metrics(split.validation, encoded, state, pool)
            record = {
                "epoch": epoch,
                "L_BCE": sums["bce"] / n_batches,
                "L_SBCL": sums["sbcl"] / n_batches,
                "L": sums["total"] / n_batches,
                "val_AUC": val_auc,
                "val_F1": val_f1,
                "seed": hp.seed,
            }
            records.append(record)
            if run_log_path:
                log += json.dumps(record).encode("utf-8") + b"\n"
                with arrayio.atomic_open(run_log_path) as fh:
                    fh.write(log)
            if checkpoint_dir is not None:
                path = os.path.join(checkpoint_dir, f"epoch_{epoch:04d}.ckpt")
                score = val_f1 if val_f1 is not None else -record["L"]
                if score > best_score:
                    best_score = score
                    arrayio.write_json(pointer_path, {
                        "epoch": epoch, "path": os.path.basename(path),
                        "score": score, "seed": hp.seed})
                save_checkpoint(path, state)
                last_checkpoint = path
    return state, records


def read_best_pointer(pointer_path) -> dict:
    """The record of a `best.json` that `train` wrote.

    Raises InvalidCheckpoint naming `pointer_path` when the file is not JSON,
    its `path` is not a bare file name (the checkpoint sits beside the
    pointer), or its `score` is not a finite number.
    """
    try:
        with open(pointer_path, "rb") as fh:
            pointer = arrayio.json_value(fh.read())
    except IsADirectoryError as exc:
        raise InvalidCheckpoint(pointer_path, "pointer is a directory") from exc
    except ValueError as exc:
        raise InvalidCheckpoint(pointer_path, f"pointer is not JSON: {exc}") from exc
    name = pointer.get("path") if isinstance(pointer, dict) else None
    if not isinstance(name, str) or name in ("", ".", "..") or os.path.basename(name) != name:
        raise InvalidCheckpoint(pointer_path, "pointer 'path' must be a file name in the same "
                                              f"directory, got {pointer!r}")
    score = pointer.get("score")
    if isinstance(score, bool) or not isinstance(score, (int, float)) \
            or not -math.inf < score < math.inf:  # math.isfinite overflows on a huge int
        raise InvalidCheckpoint(pointer_path, f"pointer 'score' must be a finite number, "
                                              f"got {score!r}")
    return pointer


def _resume_run_log(path, epoch: int) -> bytes:
    """The run log at `path` (empty if there is none) cut to its records up to `epoch`. A line
    that is not a whole record, a JSON object with an int epoch ending in a newline, raises
    InvalidRunLog naming the file and the line, and so does a directory at `path`."""
    if not os.path.exists(path):
        return b""
    try:
        with open(path, "rb") as fh:
            lines = fh.readlines()
    except IsADirectoryError as exc:
        raise InvalidRunLog(f"{path}: the run log is a directory") from exc
    kept = []
    for number, line in enumerate(lines, 1):
        record = None
        with contextlib.suppress(ValueError):
            record = arrayio.json_value(line)
        logged = record.get("epoch") if isinstance(record, dict) else None
        if type(logged) is not int or not line.endswith(b"\n"):
            raise InvalidRunLog(f"{path}: line {number} is not a run log record: {line[:80]!r}")
        if logged <= epoch:
            kept.append(line)
    return b"".join(kept)


def _train_batch(batch, encoded, state, pool=None):
    """One AdamW step on the batch's joint objective; returns its LossBreakdown.

    The step makes new arrays, and `state` takes new `pt_former` and `classifier` objects
    holding them. The old objects keep their weights for whatever else holds them; the
    state lets go of them before the step, so each old array nothing else holds is freed
    once its replacement is made."""
    loss, grads = batch_loss_and_grads([encoded[s.id] for s in batch], [s.label for s in batch],
                                       state, pool)
    state.sbcl_skipped += loss.sbcl_skipped
    if grads is not None:
        params, has_pt = _trainable_params(state), state.pt_former is not None
        state.pt_former = state.classifier = None
        state.adam_t += 1
        adamw_step(params, grads, state.adam_m, state.adam_v, state.adam_t,
                   state.hp.learning_rate, state.hp.weight_decay)
        if has_pt:
            state.pt_former = from_named_parameters(PTFormerState, params, "pt.")
        state.classifier = from_named_parameters(ClassifierParams, params, "classifier.")
    return loss


def _validation_metrics(validation, encoded, state, pool=None):
    if not validation:
        return None, None
    vectors = _fuse_chunks((encoded[s.id] for s in validation), state, pool)
    report = labelled_metrics([_score(v, state) for v in vectors], validation, state)
    return report.auc, report.f1


def labelled_metrics(probs, samples, state: TrainState) -> MetricsReport:
    """compute_metrics of one probability per sample against the samples' labels."""
    y = [1 if s.label is Label.SECURITY else 0 for s in samples]
    return compute_metrics(probs, y, state.options.threshold)


def _score(vector, state: TrainState) -> float:
    # one row at a time: a batched matrix-vector head rounds differently, and a
    # sample's score must not depend on the batch it arrives in
    return float(head_probability(vector, state.classifier))


def _fuse_chunks(mats, state: TrainState, pool):
    """Evaluation-mode fused vector of each encoded sample of the iterable `mats`, in order.

    Without PT-Former each is `pooled_concat`. Otherwise `mats` is drawn _WORKERS samples
    at a time, and the chunk is fused on `pool` (the calling thread when None), on the
    branches `PTFormerState.instruction_branches` gives it, before the next one is drawn.
    Evaluation draws no random numbers, so every vector is the same bits whether a pool
    runs it or the calling thread.
    """
    pt, mats = state.pt_former, iter(mats)
    if pt is None:
        yield from (pooled_concat(*m) for m in mats)
        return
    while chunk := list(islice(mats, _WORKERS)):
        work = list(zip(chunk, pt.instruction_branches([m[3] for m in chunk])))
        yield from _in_order(pool, lambda m, branch: fuse_forward(*m, pt, NO_DROPOUT, branch)[0],
                             work)


def _fused_vectors(samples, state: TrainState, backends: PipelineBackends):
    """Fused vector per sample in evaluation mode, yielded in sample order: the calling
    thread encodes one chunk of `_fuse_chunks` while the state's fusion pool (see
    _fusion_pool) is idle."""
    samples = list(samples)
    with _fusion_pool(state, len(samples)) as pool:
        yield from _fuse_chunks((encode_sample(s, backends, state.hp, state.options)
                                 for s in samples), state, pool)


def fused_embeddings(samples, state: TrainState, backends: PipelineBackends):
    """Fused vector per sample under the state's options (evaluation mode)."""
    return [FusedEmbedding(v) for v in _fused_vectors(samples, state, backends)]


def predict(samples, state: TrainState, backends: PipelineBackends):
    """Probability and predicted label per sample; security when p >= state.options.threshold."""
    threshold = state.options.threshold
    probs = [_score(v, state) for v in _fused_vectors(samples, state, backends)]
    return [(p, Label.SECURITY if p >= threshold else Label.NON_SECURITY) for p in probs]
