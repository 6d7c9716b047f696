"""The three benchmark workloads: set-up, timed phases and correctness checks.

Every workload reports the same end-to-end metrics so that runs compare
metric by metric:

  samples_per_s   throughput of the workload's bulk operation: samples over seconds, summed
  call_ms_p50/p90 latency of its repeated call, closed loop, one client

paper-train: bulk = train() at the paper defaults; call = one train() call (one epoch).
paper-score: bulk = predict() at batch_size_eval 64; call = predict([p]) for one fresh patch.
tested-cli:  bulk = `secpatch train`; call = `secpatch eval --split train`.
"""

import contextlib
import dataclasses
import importlib
import io
import itertools
import json
import math
import os
import shutil
import sys
import time
import traceback

import numpy as np

import gen
from spans import Tracer, active_triplet_ratio

T = importlib.import_module("secpatch.train")
C = importlib.import_module("secpatch.cli")
from secpatch.dataset import DatasetSplit, HashTokenizer, load_dataset, split_dataset  # noqa: E402
from secpatch.explain import ExplainerConfig  # noqa: E402
from secpatch.types import default_hyperparams  # noqa: E402

ROW_CACHE_ENTRIES = 1 << 16
QUICKSTART_DATASET = os.path.join("tests", "data", "synthetic64.jsonl")


class Ledger:
    """Counts attempted operations and checks; anything that fails is kept with a reason."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def call(self, name: str, fn):
        """Run one timed operation; returns (seconds, result), result None when it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failed operation is counted, the run goes on
            seconds = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return seconds, None
        return time.perf_counter() - t0, result


@dataclasses.dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    root: str
    work: str
    ledger: Ledger = dataclasses.field(default_factory=Ledger)


@dataclasses.dataclass
class Phase:
    """Timings from one timed phase; `tracer` is set when the phase ran traced."""

    bulk_s: list = dataclasses.field(default_factory=list)
    bulk_samples: list = dataclasses.field(default_factory=list)
    call_s: list = dataclasses.field(default_factory=list)
    tracer: Tracer | None = None


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def clear_token_row_cache() -> None:
    cached = getattr(importlib.import_module("secpatch.embed"), "_token_row", None)
    if hasattr(cached, "cache_clear"):
        cached.cache_clear()


def empty_dir(path: str) -> None:
    """Delete the files in `path` but keep the directory (and its place on disk)."""
    if os.path.isdir(path):
        for name in os.listdir(path):
            os.unlink(os.path.join(path, name))


def timed_setup(fn, repeats: int = 5, reset=None):
    """Run set-up `repeats` times, each from cold caches; (seconds per run, last result).

    `reset` (untimed) empties what set-up fills on disk, so every repetition
    reuses the same directories instead of allocating new ones.
    """
    times, result = [], None
    for _ in range(repeats):
        clear_token_row_cache()
        if reset is not None:
            reset()
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return times, result


def run_phases(ctx: Context, phase_fn) -> tuple[Phase, Phase | None]:
    """One untraced phase of ctx.seconds; with tracing, half of that untraced, then traced.

    `phase_fn(budget, tracer)` runs until `budget` seconds have passed and its
    minimum work is done. The traced phase gets no time budget, so it does
    exactly the minimum work and its per-layer totals compare across commits.
    """
    if not ctx.trace:
        return phase_fn(ctx.seconds, None), None
    plain = phase_fn(ctx.seconds / 2, None)
    tracer = Tracer()
    tracer.install()
    try:
        traced = phase_fn(0.0, tracer)
    finally:
        left = tracer.restore()
    ctx.ledger.check("trace wrappers restored", not left, f"still wrapped: {left}")
    traced.tracer = tracer
    return plain, traced


def finite_records(ledger: Ledger, records, where: str) -> None:
    for rec in records:
        losses = [rec["L"], rec["L_BCE"], rec["L_SBCL"]]
        losses += [rec[k] for k in ("val_AUC", "val_F1") if rec.get(k) is not None]
        ledger.check(f"{where}: finite losses", all(math.isfinite(v) for v in losses),
                     f"epoch {rec['epoch']}: {losses}")


def probs_ok(ledger: Ledger, results, where: str) -> None:
    probs = [p for p, _ in results]
    ledger.check(f"{where}: probabilities finite and in [0, 1]",
                 all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in probs), f"{probs[:4]}...")


def close_rel(a, b, rtol: float = 1e-12) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * np.maximum(np.abs(b), 1e-300)))


def init_triplet_ratio(samples, state, backends, margin: float) -> float:
    fused = np.stack([f.values for f in T.fused_embeddings(samples, state, backends)])
    active, mined = active_triplet_ratio(fused, [s.label for s in samples], margin)
    return active / mined if mined else 0.0


def fixed_split(seed: int, hp_seed: int, n_train: int = 16, **corpus) -> DatasetSplit:
    """n_train training and 4 validation samples, each part with its own full length ladder."""
    return DatasetSplit(
        train=tuple(gen.make_corpus(seed, n_train, prefix="train", **corpus)),
        validation=tuple(gen.make_corpus(seed + 1, 4, prefix="val", **corpus)),
        test=(), seed=hp_seed)


# ---------------------------------------------------------------------------
# paper-train: library train() at the paper defaults on a ragged generated corpus

TRAIN_VOCAB = 4000  # identifiers shared by both classes
TRAIN_SAMPLES = 32  # two batches of 16 per call, so each call spans the machine's speed swings


def paper_train(ctx: Context) -> dict:
    hp = dataclasses.replace(default_hyperparams(), epochs=1, seed=ctx.seed)
    split = fixed_split(ctx.seed, hp.seed, TRAIN_SAMPLES, vocab_size=TRAIN_VOCAB)
    props = gen.input_properties(split.train + split.validation, HashTokenizer(),
                                 hp.max_tokens, ROW_CACHE_ENTRIES)
    props["identifier_vocabulary"] = TRAIN_VOCAB

    def setup():
        backends = T.hashed_backends(hp)
        state = T.init_train_state(hp)
        T.encode_samples(split.train + split.validation, backends, hp)
        return backends, state

    setup_s, (backends, state) = timed_setup(setup, repeats=15)
    props["active_triplet_ratio_at_init"] = init_triplet_ratio(split.train, state, backends,
                                                               hp.margin)
    ctx.ledger.check("paper-train: SBCL triplets active at initialisation",
                     props["active_triplet_ratio_at_init"] > 0.0)
    ckpt_dir = os.path.join(ctx.work, "checkpoints")
    run_log = os.path.join(ctx.work, "run_log.jsonl")

    def phase(budget: float, tracer) -> Phase:
        nonlocal state
        out = Phase()
        start = time.perf_counter()
        while time.perf_counter() - start < budget or len(out.bulk_s) < 3:
            seconds, result = ctx.ledger.call("train", lambda: T.train(
                split, hp, backends, state=state, checkpoint_dir=ckpt_dir, run_log_path=run_log))
            if result is None:
                break
            state, records = result
            out.call_s.append(seconds)
            out.bulk_s.append(seconds)
            out.bulk_samples.append(len(split.train) * hp.epochs)
            finite_records(ctx.ledger, records, "paper-train")
            shutil.rmtree(ckpt_dir)  # keep disk use flat; each call writes a fresh 18.9 MB file
        return out

    plain, traced = run_phases(ctx, phase)
    return {"setup_s": setup_s, "plain": plain, "traced": traced, "inputs": props,
            "aliases": {"train_samples_per_s": ("samples_per_s", "samples/s", "train() calls"),
                        "train_call_ms_p50": ("call_ms_p50", "ms", "train() calls"),
                        "train_call_ms_p90": ("call_ms_p90", "ms", "train() calls")}}


# ---------------------------------------------------------------------------
# paper-score: load a checkpoint, score fresh unexplained patches in batches and one by one

SCORE_VOCAB = 200_000  # identifiers; more than the token-row cache holds
SCORE_BLOCK = 50       # single-patch calls come in blocks with a fixed length profile


def paper_score(ctx: Context) -> dict:
    hp = dataclasses.replace(default_hyperparams(), epochs=1, seed=ctx.seed)
    split = fixed_split(ctx.seed, hp.seed, vocab_size=SCORE_VOCAB, patch_tokens=(32, 256))
    explainer = ExplainerConfig(cache_dir=os.path.join(ctx.work, "explain_cache"))
    counter = itertools.count()

    def fresh(n: int):
        return gen.make_corpus(ctx.seed * 100_003 + next(counter), n, vocab_size=SCORE_VOCAB,
                               with_explanation=False, prefix=f"score{ctx.seed}")

    ckpt_dir = os.path.join(ctx.work, "fit")

    def setup():
        backends = T.hashed_backends(hp, explainer)
        trained, _ = T.train(split, hp, backends, checkpoint_dir=ckpt_dir)
        loaded = T.load_checkpoint(os.path.join(ckpt_dir, f"epoch_{trained.epoch:04d}.ckpt"))
        return backends, trained, loaded

    setup_s, (backends, trained, state) = timed_setup(
        setup, repeats=3, reset=lambda: empty_dir(ckpt_dir))
    first_block = fresh(SCORE_BLOCK)
    props = gen.input_properties(first_block, HashTokenizer(), hp.max_tokens, ROW_CACHE_ENTRIES)
    props["identifier_vocabulary"] = SCORE_VOCAB
    props["active_triplet_ratio_at_init"] = init_triplet_ratio(
        split.train, T.init_train_state(hp), backends, hp.margin)
    scored = {s.id: None for s in first_block[:12]}  # single-patch results the checks reuse

    def phase(budget: float, tracer) -> Phase:
        # batches and single-patch blocks alternate, so both see the whole phase
        out = Phase()
        start = time.perf_counter()
        block = first_block if tracer is None else fresh(SCORE_BLOCK)
        while (time.perf_counter() - start < budget or len(out.bulk_s) < 2
               or len(out.call_s) < 2 * SCORE_BLOCK):
            batch = fresh(hp.batch_size_eval)
            seconds, results = ctx.ledger.call("predict batch", lambda: T.predict(
                batch, state, backends))
            if results is None:
                break
            out.bulk_s.append(seconds)
            out.bulk_samples.append(len(batch))
            probs_ok(ctx.ledger, results, "paper-score batch")
            for sample in block:
                seconds, results = ctx.ledger.call("predict one", lambda: T.predict(
                    [sample], state, backends))
                if results is None:
                    return out
                out.call_s.append(seconds)
                if scored.get(sample.id, ()) is None:
                    scored[sample.id] = (sample, results[0])
            block = fresh(SCORE_BLOCK)
        return out

    plain, traced = run_phases(ctx, phase)

    checked = [entry for entry in scored.values() if entry is not None]
    ctx.ledger.check("paper-score: single-patch results kept for the checks",
                     len(checked) == len(scored), f"{len(checked)} of {len(scored)}")
    ctx.ledger.call("paper-score checks", lambda: score_checks(ctx.ledger, checked, state,
                                                               trained, backends))
    return {"setup_s": setup_s, "plain": plain, "traced": traced, "inputs": props,
            "aliases": {"predict_samples_per_s": ("samples_per_s", "samples/s", "batches of 64"),
                        "score_ms_p50": ("call_ms_p50", "ms", "single-patch scores"),
                        "score_ms_p90": ("call_ms_p90", "ms", "single-patch scores")}}


def score_checks(ledger: Ledger, checked, state, trained, backends) -> None:
    """Batch paths equal single-patch ones; a reloaded checkpoint scores like the in-memory one."""
    patches = [s for s, _ in checked]
    single = [r for _, r in checked]
    probs_ok(ledger, single, "paper-score single")
    batch = T.predict(patches, state, backends)
    ledger.check("paper-score: batch predict equals single-patch predict (1e-12 rel)",
                 close_rel([p for p, _ in batch], [p for p, _ in single])
                 and [label for _, label in batch] == [label for _, label in single])
    fused_batch = [f.values for f in T.fused_embeddings(patches, state, backends)]
    fused_single = [T.fused_embeddings([p], state, backends)[0].values for p in patches]
    ledger.check("paper-score: batch fused_embeddings equals single-patch (1e-12 rel)",
                 close_rel(fused_batch, fused_single))
    in_memory = T.predict(patches, trained, backends)
    ledger.check("paper-score: reloaded checkpoint scores equal in-memory scores",
                 [p for p, _ in in_memory] == [p for p, _ in batch])


# ---------------------------------------------------------------------------
# tested-cli: the README quickstart through secpatch.cli.main, in process

EVAL_BLOCK = 25  # evals after each `secpatch train`; about a third of the phase


def run_cli(ledger: Ledger, what: str, argv):
    """One in-process CLI call, timed; (seconds, parsed stdout record or None on failure)."""
    out, err = io.StringIO(), io.StringIO()

    def call():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return C.main(argv)

    seconds, code = ledger.call(f"secpatch {what}", call)
    if code is None or not ledger.check(f"tested-cli: {what} exits 0", code == 0,
                                        err.getvalue().strip()):
        return seconds, None
    return seconds, json.loads(out.getvalue())


def tested_cli(ctx: Context) -> dict:
    dataset = os.path.join(ctx.root, QUICKSTART_DATASET)
    out_dir = os.path.join(ctx.work, "quickstart")
    os.makedirs(out_dir)
    config = os.path.join(out_dir, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"dataset": {"path": dataset, "ratios": [0.8, 0.1, 0.1]},
                   "output_dir": out_dir,
                   "hyperparams": {"dim": 16, "num_heads": 4, "epochs": 30,
                                   "learning_rate": 0.01, "dropout": 0.0, "seed": ctx.seed,
                                   "batch_size_train": 64}}, fh)
    cfg = C.load_config(config)

    def setup():
        for command in ("ingest", "explain"):
            run_cli(ctx.ledger, command, ["--config", config, command])

    # one set-up is ~12 ms of file and JSON work, so many repetitions steady its median
    setup_s, _ = timed_setup(setup, repeats=41, reset=lambda: empty_dir(cfg.explainer.cache_dir))
    samples = load_dataset(dataset)
    split = split_dataset(samples, cfg.ratios, cfg.hp.seed)
    props = gen.input_properties(samples, HashTokenizer(), cfg.hp.max_tokens, ROW_CACHE_ENTRIES)
    props["active_triplet_ratio_at_init"] = init_triplet_ratio(
        split.train, T.init_train_state(cfg.hp), T.hashed_backends(cfg.hp, cfg.explainer),
        cfg.hp.margin)
    artifacts = []  # (traced, run_log bytes, final checkpoint bytes) per train

    def phase(budget: float, tracer) -> Phase:
        # each train is followed by a block of evals on its final checkpoint
        out = Phase()
        start = time.perf_counter()
        while (time.perf_counter() - start < budget or len(out.bulk_s) < 2
               or (tracer is None and len(out.call_s) < 100)):
            seconds, record = run_cli(ctx.ledger, "train", ["--config", config, "train"])
            if record is None:
                return out
            out.bulk_s.append(seconds)
            out.bulk_samples.append(len(split.train) * record["epochs"])
            final = record["checkpoint"]
            with open(record["run_log"], "rb") as fh:
                log = fh.read()
            with open(final, "rb") as fh:
                artifacts.append((tracer is not None, log, fh.read()))
            finite_records(ctx.ledger, [json.loads(line) for line in log.splitlines()],
                           "tested-cli")
            for _ in range(EVAL_BLOCK):
                seconds, record = run_cli(ctx.ledger, "eval", [
                    "--config", config, "eval", "--split", "train", "--checkpoint", final])
                if record is None:
                    return out
                out.call_s.append(seconds)
                ctx.ledger.check("tested-cli: train F1 >= 0.95",
                                 record["metrics"]["F1"] >= 95.0, str(record["metrics"]))
        return out

    plain, traced = run_phases(ctx, phase)
    for traced_run, log, ckpt in artifacts[1:]:
        what = "traced" if traced_run else "repeated"
        ctx.ledger.check(f"tested-cli: {what} train run_log byte-identical", log == artifacts[0][1])
        ctx.ledger.check(f"tested-cli: {what} train final checkpoint byte-identical",
                         ckpt == artifacts[0][2])
    return {"setup_s": setup_s, "plain": plain, "traced": traced, "inputs": props,
            "aliases": {"cli_train_s": ("bulk_s", "s", "`secpatch train` runs"),
                        "cli_eval_ms_p50": ("call_ms_p50", "ms", "`secpatch eval` calls"),
                        "cli_eval_ms_p90": ("call_ms_p90", "ms", "`secpatch eval` calls")}}


WORKLOADS = {"paper-train": paper_train, "paper-score": paper_score, "tested-cli": tested_cli}
