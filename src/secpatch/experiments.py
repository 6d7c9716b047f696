"""Ablation grid, cross-dataset evaluation, and repeated-run summaries."""

import dataclasses
import os
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .dataset import DatasetSplit
from .metrics import MetricsReport
from .seeding import derive_seed
from .train import PipelineBackends, TrainOptions, labelled_metrics, predict, train
from .types import HyperParams

AblationFlag = Literal["no_explanation", "no_instruction", "no_ptformer", "no_sbcl"]
ABLATION_FLAGS = get_args(AblationFlag)


@dataclass(frozen=True)
class AblationRow:
    flags: tuple[str, ...]
    metrics: MetricsReport
    epochs: tuple[dict, ...]


@dataclass(frozen=True)
class CrossDatasetResult:
    train_source: str
    test_source: str
    metrics: MetricsReport


def options_for_flags(flags, base: TrainOptions = TrainOptions()) -> TrainOptions:
    """Translate ablation flags into trainer switches: `no_<x>` turns off `use_<x>`."""
    for flag in flags:
        if flag not in ABLATION_FLAGS:
            raise ValueError(f"unknown ablation flag {flag!r}; expected one of {ABLATION_FLAGS}")
    return dataclasses.replace(base, **{f"use_{flag.removeprefix('no_')}": False for flag in flags})


def _train_and_score(split, eval_samples, hp, backends, options, out_dir=None):
    """Train on `split`, with the run log and checkpoints under `out_dir` when given, then score
    `eval_samples`: (per-epoch records, MetricsReport)."""
    run_log = os.path.join(out_dir, "run_log.jsonl") if out_dir is not None else None
    state, records = train(split, hp, backends, options=options, checkpoint_dir=out_dir,
                           run_log_path=run_log)
    probs = [p for p, _ in predict(eval_samples, state, backends)]
    return records, labelled_metrics(probs, eval_samples, state)


def run_ablation(flag_sets, split: DatasetSplit, hp: HyperParams, backends: PipelineBackends,
                 base_options: TrainOptions = TrainOptions(), out_dir=None) -> list[AblationRow]:
    """Train and evaluate once per flag combination, same seed throughout.

    The full model (empty flag set) is always included as the first row so the
    table reads as deltas against it; each further distinct set of flags trains
    once, in the order first given. Evaluation uses the test split, falling
    back to the train split when no test samples exist. Every flag set is
    checked before the first cell trains.
    """
    eval_samples = split.test if split.test else split.train
    requested = dict.fromkeys([()] + [tuple(sorted(set(flags))) for flags in flag_sets])
    cells = [(flags, options_for_flags(flags, base_options)) for flags in requested]

    rows = []
    for flags, options in cells:
        cell_dir = os.path.join(out_dir, "-".join(flags) or "full") if out_dir is not None else None
        records, metrics = _train_and_score(split, eval_samples, hp, backends, options, cell_dir)
        rows.append(AblationRow(flags=flags, metrics=metrics, epochs=tuple(records)))
    return rows


def _sources(samples) -> str:
    names = []
    for sample in samples:
        if sample.source and sample.source not in names:
            names.append(sample.source)
    return "+".join(names) if names else "<unknown>"


def cross_dataset_eval(train_ds: DatasetSplit, test_ds: DatasetSplit, hp: HyperParams,
                       backends: PipelineBackends,
                       options: TrainOptions = TrainOptions()) -> CrossDatasetResult:
    """Train on one dataset's train split, evaluate on the other's test split."""
    eval_samples = test_ds.test if test_ds.test else test_ds.all_samples
    _, metrics = _train_and_score(train_ds, eval_samples, hp, backends, options)
    return CrossDatasetResult(train_source=_sources(train_ds.all_samples),
                              test_source=_sources(eval_samples), metrics=metrics)


def repeated_runs(k: int, split: DatasetSplit, hp: HyperParams, backends: PipelineBackends,
                  options: TrainOptions = TrainOptions()) -> dict:
    """k independent train+eval runs with derived seeds; mean and stdev per metric."""
    if k < 1:
        raise ValueError("k must be >= 1")
    eval_samples = split.test if split.test else split.train
    values = {"AUC": [], "F1": [], "+Recall": [], "-Recall": []}
    for i in range(k):
        run_hp = dataclasses.replace(hp, seed=derive_seed(hp.seed, f"repeat-{i}"))
        report = _train_and_score(split, eval_samples, run_hp, backends, options)[1].to_record()
        for key in values:
            if report[key] is not None:
                values[key].append(report[key])
    summary = {}
    for key, series in values.items():
        if series:
            arr = np.asarray(series)
            summary[key] = {"mean": float(arr.mean()),
                            "stdev": float(arr.std(ddof=1)) if len(series) > 1 else 0.0,
                            "runs": len(series)}
    return summary
