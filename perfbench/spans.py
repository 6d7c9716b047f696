"""Span tracing by wrapping secpatch's public functions where their callers look them up.

`Tracer.install()` replaces each hooked module attribute with a wrapper that
records a span (name, start, end, parent) and per-call counts; `restore()`
puts every original object back. Work the tracer does for its own counts
(shapes, re-mining triplets, file sizes, cache lookups) runs in paused time,
which is taken out of every open span, so it never shows up as program time.
Observers consume no random numbers, so a traced run computes exactly what an
untraced run computes.
"""

import functools
import importlib
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# (module, attribute, layer bucket). The module is the one whose code calls the
# function, so the wrapper sits where the caller looks the name up.
HOOKS = (
    ("secpatch.train", "fuse_forward", "fusion.forward"),
    ("secpatch.train", "fuse_backward", "fusion.backward"),
    ("secpatch.train", "sbcl_batch_loss_and_grad", "contrastive.sbcl"),
    ("secpatch.train", "adamw_step", "train.adamw"),
    ("secpatch.train", "train", "train"),
    ("secpatch.train", "predict", "train"),
    ("secpatch.train", "fused_embeddings", "train"),
    ("secpatch.train", "encode_samples", "train.encode"),
    ("secpatch.train", "encode_sample", "train.encode"),
    ("secpatch.train", "_validation_metrics", "train.validation"),
    ("secpatch.train", "save_checkpoint", "train"),
    ("secpatch.train", "load_checkpoint", "train"),
    ("secpatch.train", "compute_metrics", "metrics"),
    ("secpatch.train", "explain", "explain"),
    ("secpatch.train", "tokenize", "dataset.tokenize"),
    ("secpatch.train", "embed_patch", "embed"),
    ("secpatch.train", "embed_text", "embed"),
    ("secpatch.arrayio", "save_arrays", "arrayio.save"),
    ("secpatch.arrayio", "load_arrays", "arrayio.load"),
    ("secpatch.cli", "main", "cli"),
    ("secpatch.cli", "train", "train"),
    ("secpatch.cli", "predict", "train"),
    ("secpatch.cli", "load_checkpoint", "train"),
    ("secpatch.cli", "compute_metrics", "metrics"),
    ("secpatch.cli", "load_dataset", "dataset.load"),
    ("secpatch.cli", "explain", "explain"),
)

# Hooks each workload's traced phase must see called; zero calls on one of these is flagged.
EXPECTED = {
    "paper-train": {"fuse_forward", "fuse_backward", "sbcl_batch_loss_and_grad", "adamw_step",
                    "train", "encode_samples", "encode_sample", "_validation_metrics",
                    "save_checkpoint", "compute_metrics", "tokenize", "embed_patch",
                    "embed_text", "save_arrays"},
    "paper-score": {"fuse_forward", "predict", "encode_sample", "explain",
                    "tokenize", "embed_patch", "embed_text"},
    "tested-cli": {"fuse_forward", "fuse_backward", "sbcl_batch_loss_and_grad", "adamw_step",
                   "encode_samples", "encode_sample", "_validation_metrics", "save_checkpoint",
                   "compute_metrics", "explain", "tokenize", "embed_patch",
                   "embed_text", "save_arrays", "load_arrays", "main", "cli.train",
                   "cli.predict", "cli.load_checkpoint", "cli.compute_metrics",
                   "cli.load_dataset"},
}

# Private program state the tracer reads; a missing one is reported, not read as zero.
TOKEN_ROW_CACHE = ("secpatch.embed", "_token_row")

PER_LAYER = {  # metric -> unit, in report order
    "fusion.forward_s": "s", "fusion.forward_calls": "count", "fusion.forward_rows": "rows",
    "fusion.forward_gflop_per_s": "GFLOP/s", "fusion.backward_s": "s",
    "fusion.backward_gflop_per_s": "GFLOP/s", "contrastive.sbcl_s": "s",
    "contrastive.sbcl_calls": "count", "contrastive.active_triplet_ratio": "ratio",
    "contrastive.skipped_batches": "count", "train.self_s": "s", "train.encode_s": "s",
    "train.validation_s": "s", "train.adamw_s": "s", "train.adamw_calls": "count",
    "arrayio.save_s": "s", "arrayio.save_bytes": "bytes", "arrayio.load_s": "s",
    "explain.s": "s", "explain.calls": "count", "explain.cache_hit_ratio": "ratio",
    "dataset.tokenize_s": "s", "dataset.tokenize_calls": "count", "dataset.load_s": "s",
    "embed.s": "s", "embed.rows": "rows", "embed.token_cache_hit_ratio": "ratio",
    "metrics.s": "s", "cli.self_s": "s", "trace_overhead_frac": "ratio",
}


def hook_name(module: str, attr: str) -> str:
    """Short report name: bare for secpatch.train/arrayio, `cli.` prefix for the CLI's imports."""
    return f"cli.{attr}" if module == "secpatch.cli" and attr != "main" else attr


def active_triplet_ratio(fused, labels, margin: float):
    """(active, mined) triplets for anchor_mode='all'; mining is deterministic and draws no RNG."""
    from secpatch.contrastive import InsufficientClassMembers, mine_triplets
    x = np.asarray(fused, dtype=np.float64)
    try:
        triplets = mine_triplets(x, labels, anchor_mode="all")
    except InsufficientClassMembers:
        return 0, 0
    active = sum(
        1 for t in triplets
        if np.linalg.norm(x[t.anchor] - x[t.positive])
        - np.linalg.norm(x[t.anchor] - x[t.negative]) + margin > 0.0)
    return active, len(triplets)


def _sa_flops(n: int, d: int) -> int:
    return 6 * n * d * d + 4 * n * n * d


def _ff_flops(n: int, d: int, hidden: int) -> int:
    return 4 * n * d * hidden


def forward_flops(shapes, hidden: int) -> int:
    """Matmul FLOPs of one fuse_forward from its input row counts (elementwise work ignored)."""
    (p, d), (e, _), (n_desc, _), (n_inst, _) = shapes
    cross = 2 * p * d * d + 4 * e * d * d + 4 * p * e * d
    return (_sa_flops(e, d) + _sa_flops(n_desc, d) + _sa_flops(n_inst, d) + cross
            + _ff_flops(p, d, hidden) + _ff_flops(n_desc, d, hidden) + _ff_flops(n_inst, d, hidden))


def backward_flops(shapes, hidden: int) -> int:
    """Matmul FLOPs of one fuse_backward, including the input gradients it computes."""
    (p, d), (e, _), (n_desc, _), (n_inst, _) = shapes
    sa = sum(8 * n * n * d + 12 * n * d * d for n in (e, n_desc, n_inst))
    cross = 8 * p * e * d + 4 * p * d * d + 8 * e * d * d
    return sa + cross + sum(8 * n * d * hidden for n in (p, n_desc, n_inst))


class Tracer:
    """Installs wrappers, records spans in memory, and reduces them to layer metrics."""

    def __init__(self):
        self.spans = []           # [name, bucket, duration, parent index]
        self.stack = []
        self.calls = Counter()
        self.errors = Counter()
        self.counts = defaultdict(float)
        self.paused = 0.0
        self.installed = []       # (module object, attr, original)
        self.missing = []         # hooks whose attribute was not found
        self._pending_shapes = {}
        self._cache_before = None
        self._cache_after = None

    @contextmanager
    def pause(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.paused += time.perf_counter() - t0

    # -- install / restore ------------------------------------------------

    def install(self):
        for module_name, attr, bucket in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            name = hook_name(module_name, attr)
            setattr(module, attr, self._wrap(name, bucket, original))
            self.installed.append((module, attr, original))
        self._cache_before = self._token_cache_info()

    def restore(self) -> list[str]:
        """Put every original back; returns the hooks that are still not the original."""
        self._cache_after = self._token_cache_info()
        for module, attr, original in reversed(self.installed):
            setattr(module, attr, original)
        return [f"{m.__name__}.{a}" for m, a, o in self.installed if getattr(m, a) is not o]

    @staticmethod
    def _token_cache_info():
        module = importlib.import_module(TOKEN_ROW_CACHE[0])
        cached = getattr(module, TOKEN_ROW_CACHE[1], None)
        return cached.cache_info() if hasattr(cached, "cache_info") else None

    def _wrap(self, name, bucket, fn):
        observe = getattr(self, "_observe_" + fn.__name__, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = None
            if observe is not None:
                with self.pause():
                    pre = observe(args, kwargs, None, before=True)
            index = len(self.spans)
            self.spans.append([name, bucket, 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            paused0 = self.paused
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                self.spans[index][2] = (t1 - t0) - (self.paused - paused0)
                self.calls[name] += 1
            if observe is not None:
                with self.pause():
                    observe(args, kwargs, result, before=False, pre=pre)
            return result
        return wrapper

    # -- observers: counts taken at the boundary, in paused time ------------

    def _observe_fuse_forward(self, args, kwargs, result, before, pre=None):
        if before:
            return None
        mats = args[:4]
        shapes = tuple(np.shape(m) for m in mats)
        hidden = (args[4] if len(args) > 4 else kwargs["state"]).ff_pa_ex.w1.shape[1]
        self.counts["forward_rows"] += sum(s[0] for s in shapes)
        self.counts["forward_flop"] += forward_flops(shapes, hidden)
        self._pending_shapes[id(result[1])] = (shapes, hidden)
        return None

    def _observe_fuse_backward(self, args, kwargs, result, before, pre=None):
        if before:
            return None
        cache = args[1] if len(args) > 1 else kwargs["cache"]
        entry = self._pending_shapes.pop(id(cache), None)
        if entry is None:
            self.counts["backward_unmatched"] += 1
        else:
            self.counts["backward_flop"] += backward_flops(*entry)
        return None

    def _observe_sbcl_batch_loss_and_grad(self, args, kwargs, result, before, pre=None):
        if before:
            margin = args[2] if len(args) > 2 else kwargs["margin"]
            active, mined = active_triplet_ratio(args[0], args[1], margin)
            self.counts["triplets_active"] += active
            self.counts["triplets_mined"] += mined
            if mined == 0:
                self.counts["sbcl_skipped"] += 1
        return None

    def _observe_explain(self, args, kwargs, result, before, pre=None):
        if before:
            from secpatch.explain import is_cached
            return is_cached(args[0], args[1] if len(args) > 1 else kwargs["cfg"])
        self.counts["explain_hits"] += 1 if pre else 0
        return None

    def _observe_embed(self, args, kwargs, result, before, pre=None):
        if not before:
            self.counts["embed_rows"] += result.values.shape[0]
        return None

    _observe_embed_patch = _observe_embed
    _observe_embed_text = _observe_embed

    def _observe_save_arrays(self, args, kwargs, result, before, pre=None):
        if not before:
            self.counts["save_bytes"] += os.path.getsize(args[0])
        return None

    # -- reduction ----------------------------------------------------------

    def _inclusive(self, buckets) -> float:
        """Summed duration of spans in `buckets` that have no ancestor in `buckets`."""
        total = 0.0
        for name, bucket, duration, parent in self.spans:
            if bucket not in buckets:
                continue
            while parent >= 0 and self.spans[parent][1] not in buckets:
                parent = self.spans[parent][3]
            if parent < 0:
                total += duration
        return total

    def _self(self, buckets) -> float:
        child = [0.0] * len(self.spans)
        for name, bucket, duration, parent in self.spans:
            if parent >= 0:
                child[parent] += duration
        return sum(s[2] - child[i] for i, s in enumerate(self.spans) if s[1] in buckets)

    def _calls(self, *names) -> int:
        return sum(self.calls[n] for n in names)

    def layer_metrics(self) -> dict:
        c = self.counts
        fwd_s = self._inclusive({"fusion.forward"})
        bwd_s = self._inclusive({"fusion.backward"})
        explain_calls = self._calls("explain", "cli.explain")
        out = {
            "fusion.forward_s": fwd_s,
            "fusion.forward_calls": self._calls("fuse_forward"),
            "fusion.forward_rows": c["forward_rows"],
            "fusion.forward_gflop_per_s": c["forward_flop"] / fwd_s / 1e9 if fwd_s else 0.0,
            "fusion.backward_s": bwd_s,
            "fusion.backward_gflop_per_s": c["backward_flop"] / bwd_s / 1e9 if bwd_s else 0.0,
            "contrastive.sbcl_s": self._inclusive({"contrastive.sbcl"}),
            "contrastive.sbcl_calls": self._calls("sbcl_batch_loss_and_grad"),
            "contrastive.active_triplet_ratio":
                c["triplets_active"] / c["triplets_mined"] if c["triplets_mined"] else 0.0,
            "contrastive.skipped_batches": c["sbcl_skipped"],
            "train.self_s": self._self({"train", "train.encode", "train.validation"}),
            "train.encode_s": self._inclusive({"train.encode"}),
            "train.validation_s": self._inclusive({"train.validation"}),
            "train.adamw_s": self._inclusive({"train.adamw"}),
            "train.adamw_calls": self._calls("adamw_step"),
            "arrayio.save_s": self._inclusive({"arrayio.save"}),
            "arrayio.save_bytes": c["save_bytes"],
            "arrayio.load_s": self._inclusive({"arrayio.load"}),
            "explain.s": self._inclusive({"explain"}),
            "explain.calls": explain_calls,
            "explain.cache_hit_ratio": c["explain_hits"] / explain_calls if explain_calls else 0.0,
            "dataset.tokenize_s": self._inclusive({"dataset.tokenize"}),
            "dataset.tokenize_calls": self._calls("tokenize"),
            "dataset.load_s": self._inclusive({"dataset.load"}),
            "embed.s": self._inclusive({"embed"}),
            "embed.rows": c["embed_rows"],
            "embed.token_cache_hit_ratio": self._token_cache_hit_ratio(),
            "metrics.s": self._inclusive({"metrics"}),
            "cli.self_s": self._self({"cli"}),
        }
        return {k: float(v) for k, v in out.items()}

    def _token_cache_hit_ratio(self) -> float:
        before, after = self._cache_before, self._cache_after
        if before is None or after is None:
            return 0.0
        hits, misses = after.hits - before.hits, after.misses - before.misses
        return hits / (hits + misses) if hits + misses else 0.0

    def coverage(self, workload: str) -> dict:
        """Calls per hook plus flags for hooks that are missing or silent where calls are expected."""
        expected = EXPECTED[workload]
        calls = {hook_name(m, a): self.calls[hook_name(m, a)] for m, a, _ in HOOKS}
        flags = [f"unattached: {name} not found in the program" for name in self.missing]
        flags += [f"zero calls: {name} expected on {workload}" for name in sorted(expected)
                  if calls.get(name, 0) == 0]
        if self._cache_before is None:
            flags.append("unattached: embed.token_cache_hit_ratio "
                         f"({'.'.join(TOKEN_ROW_CACHE)} has no cache_info)")
        if self.counts["backward_unmatched"]:
            flags.append("fusion.backward_gflop_per_s: "
                         f"{int(self.counts['backward_unmatched'])} backward calls without a forward")
        errors = {name: n for name, n in self.errors.items() if n}
        return {"calls": calls, "errors": errors, "flags": flags}
