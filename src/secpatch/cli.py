"""Command-line surface: ingest -> explain -> train -> eval -> predict -> visualize -> ablate."""

import argparse
import dataclasses
import json
import os
import sys
from typing import Literal

from .arrayio import json_value, write_json
from .dataset import check_ratios, class_counts, load_dataset, save_dataset, split_dataset
from .embed import EmbedderBackend
from .experiments import ABLATION_FLAGS, AblationFlag, run_ablation
from .explain import ExplainerConfig, ServiceUnavailable, explain, is_cached
from .metrics import compute_metrics, export_pca_csv, pca_project
from .train import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, BEST_POINTER, PipelineBackends,
                    TrainOptions, TrainState, fused_embeddings, hashed_backends, load_checkpoint,
                    predict, read_best_pointer, train)
from .types import HyperParams, Label, PatchSample, config_from_dict, default_hyperparams

Split = Literal["train", "validation", "test"]


class ConfigError(ValueError):
    """The run configuration is invalid; reported before any work starts."""


class MissingArtifact(FileNotFoundError):
    """A required upstream artifact (checkpoint, dataset, diff file) is absent."""

    def __init__(self, path: str, what: str = "artifact"):
        self.path = path
        super().__init__(f"missing {what}: {path}")


@dataclasses.dataclass(frozen=True)
class DatasetConfig:
    path: str
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    stratify: bool = True

    def __post_init__(self):
        check_ratios(self.ratios)
        if not os.path.isfile(self.path):
            raise ValueError(f"path not found: {self.path}")


@dataclasses.dataclass(frozen=True)
class EmbedderConfig:
    kind: Literal["hashed_projection", "precomputed_file"] = "hashed_projection"
    patch_path: str | None = None
    text_path: str | None = None

    def __post_init__(self):
        for key in ("patch_path", "text_path"):
            if self.kind == "precomputed_file" and not os.path.isfile(getattr(self, key) or ""):
                raise ValueError(f"{key} must point to an existing file")


@dataclasses.dataclass(frozen=True)
class PcaConfig:
    components: int = 2
    split: Split = "test"

    def __post_init__(self):
        if self.components < 1:
            raise ValueError(f"components must be >= 1, got {self.components!r}")


@dataclasses.dataclass(frozen=True)
class AblationConfig:
    flag_sets: tuple[tuple[AblationFlag, ...], ...] = tuple((flag,) for flag in ABLATION_FLAGS)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """The JSON run configuration: one field per top-level key, one dataclass per section."""

    dataset: DatasetConfig
    output_dir: str
    hyperparams: HyperParams
    explainer: ExplainerConfig
    embedder: EmbedderConfig = EmbedderConfig()
    training: TrainOptions = TrainOptions()
    ablation: AblationConfig = AblationConfig()
    pca: PcaConfig = PcaConfig()
    eval_split: Split = "test"
    checkpoint: str | None = None

    @property
    def hp(self) -> HyperParams:
        return self.hyperparams

    @property
    def ratios(self) -> tuple[float, float, float]:
        return self.dataset.ratios


def load_config(path: str, overrides: list[str] | None = None, settings=()) -> RunConfig:
    """Parse and validate the JSON run configuration. `overrides` are `--set` texts and
    `settings` (dotted key, value) pairs from flags; both win over file values, flags last."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "rb") as fh:
            raw = json_value(fh.read())
    except ValueError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be an object, got {raw!r}")

    pairs = []
    for setting in overrides or []:
        key, sep, text = setting.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {setting!r}")
        try:
            pairs.append((key, json_value(text)))
        except ValueError:  # a value that is not JSON is a string
            pairs.append((key, text))
    for key, value in [*pairs, *settings]:
        *sections, leaf = key.split(".")
        node = raw
        for name in sections:
            node = node.setdefault(name, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot set {key}: {name} is not an object")
        node[leaf] = value

    if isinstance(raw.setdefault("hyperparams", {}), dict):
        raw["hyperparams"] = {**dataclasses.asdict(default_hyperparams()), **raw["hyperparams"]}
    explainer = raw.setdefault("explainer", {})
    if isinstance(explainer, dict) and isinstance(raw.get("output_dir"), str):
        explainer.setdefault("cache_dir", os.path.join(raw["output_dir"], "explain_cache"))
    try:
        cfg = config_from_dict(RunConfig, raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output_dir {cfg.output_dir}: {exc}") from exc
    if not os.access(cfg.output_dir, os.W_OK):
        raise ConfigError(f"output_dir is not writable: {cfg.output_dir}")
    return cfg


def _backends(cfg: RunConfig, state: TrainState | None = None) -> PipelineBackends:
    """The configured backends; embedders take their seed and dim from the checkpoint's
    hyperparameters when scoring a loaded `state`, so samples embed as in training."""
    hp, owner = (cfg.hp, "hyperparams") if state is None else (state.hp, "the checkpoint")
    if cfg.embedder.kind == "hashed_projection":
        return hashed_backends(hp, cfg.explainer)
    patch = EmbedderBackend.precomputed_file(cfg.embedder.patch_path)
    text = EmbedderBackend.precomputed_file(cfg.embedder.text_path)
    for backend in (patch, text):
        if backend.dim != hp.dim:
            raise ConfigError(f"precomputed embeddings {backend.source_path} have dim "
                              f"{backend.dim}, but {owner} has dim {hp.dim}")
    return PipelineBackends(patch_embedder=patch, text_embedder=text, explainer=cfg.explainer)


def _split(cfg: RunConfig):
    samples = load_dataset(cfg.dataset.path)
    return split_dataset(samples, cfg.ratios, cfg.hp.seed, stratify=cfg.dataset.stratify)


def _split_samples(split, name: str, purpose: str):
    samples = getattr(split, name)
    if not samples:
        raise ConfigError(f"{purpose} split {name!r} is empty")
    return samples


def _training_split(cfg: RunConfig):
    """The configured split; a ConfigError unless its train part holds both classes."""
    split = _split(cfg)
    counts = class_counts(_split_samples(split, "train", "training"))
    missing = [label.value for label, count in counts.items() if count == 0]
    if missing:
        raise ConfigError(f"training split 'train' has no {missing[0]!r} sample; training "
                          f"needs both classes")
    return split


def _load_state(cfg: RunConfig):
    """(path, TrainState) of the configured checkpoint, else of best.json's."""
    path = cfg.checkpoint
    if path is None:
        pointer_path = os.path.join(cfg.output_dir, "checkpoints", BEST_POINTER)
        if not os.path.isfile(pointer_path):
            raise MissingArtifact(pointer_path, "checkpoint pointer")
        path = os.path.join(os.path.dirname(pointer_path), read_best_pointer(pointer_path)["path"])
    if not os.path.isfile(path):
        raise MissingArtifact(path, "checkpoint")
    return path, load_checkpoint(path)


# ---------------------------------------------------------------------------
# commands

def cmd_ingest(cfg: RunConfig, args) -> dict:
    samples = load_dataset(cfg.dataset.path)
    labels = {label.value: count for label, count in class_counts(samples).items()}
    sources: dict[str, int] = {}
    for sample in samples:
        key = sample.source or "<none>"
        sources[key] = sources.get(key, 0) + 1
    summary = {"n": len(samples), "labels": labels, "sources": sources, "seed": cfg.hp.seed}
    write_json(os.path.join(cfg.output_dir, "ingest_summary.json"), summary)
    return summary


def cmd_explain(cfg: RunConfig, args) -> dict:
    samples = load_dataset(cfg.dataset.path)
    provided = hits = generated = 0
    failures, augmented = [], []
    for sample in samples:
        if sample.explanation is not None:
            provided += 1
            augmented.append(sample)
            continue
        cached = is_cached(sample, cfg.explainer)
        try:
            text = explain(sample, cfg.explainer)
        except ServiceUnavailable:
            failures.append(sample.id)
            augmented.append(sample)
            continue
        hits += 1 if cached else 0
        generated += 0 if cached else 1
        augmented.append(dataclasses.replace(sample, explanation=text))
    out_path = os.path.join(cfg.output_dir, "augmented.jsonl")
    save_dataset(augmented, out_path)
    summary = {"n": len(samples), "provided": provided, "cache_hits": hits,
               "generated": generated, "failures": failures, "augmented_path": out_path,
               "seed": cfg.hp.seed}
    write_json(os.path.join(cfg.output_dir, "explain_summary.json"), summary)
    return summary


def cmd_train(cfg: RunConfig, args) -> dict:
    split, backends = _training_split(cfg), _backends(cfg)  # config errors before any artifact
    checkpoint_dir = os.path.join(cfg.output_dir, "checkpoints")
    run_log = os.path.join(cfg.output_dir, "run_log.jsonl")
    run_meta = {
        "seed": cfg.hp.seed,
        "hyperparams": dataclasses.asdict(cfg.hp),
        "options": dataclasses.asdict(cfg.training),
        "optimizer": {"name": "adamw", "beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "eps": ADAM_EPS},
        "notes": {"temperature": "stored hyperparameter; unused by the loss"},
    }
    write_json(os.path.join(cfg.output_dir, "run_meta.json"), run_meta)
    state, records = train(split, cfg.hp, backends, options=cfg.training,
                           checkpoint_dir=checkpoint_dir, run_log_path=run_log)
    final = os.path.join(checkpoint_dir, f"epoch_{state.epoch:04d}.ckpt")
    return {"checkpoint": final, "best_pointer": os.path.join(checkpoint_dir, BEST_POINTER),
            "run_log": run_log, "epochs": len(records), "seed": cfg.hp.seed}


def cmd_eval(cfg: RunConfig, args) -> dict:
    path, state = _load_state(cfg)
    samples = _split_samples(_split(cfg), cfg.eval_split, "evaluation")
    results = predict(samples, state, _backends(cfg, state))
    probs = [p for p, _ in results]
    y = [1 if s.label is Label.SECURITY else 0 for s in samples]
    report = compute_metrics(probs, y, state.options.threshold).to_record()
    record = {"metrics": report, "split": cfg.eval_split, "n": len(samples),
              "checkpoint": path, "seed": cfg.hp.seed}
    write_json(os.path.join(cfg.output_dir, "metrics.json"), record)
    return record


def cmd_predict(cfg: RunConfig, args) -> dict:
    diff_path, sample_id = args.diff, args.id
    if (diff_path is None) == (sample_id is None):
        raise ConfigError("predict needs exactly one of --diff or --id")
    _, state = _load_state(cfg)
    if diff_path is not None:
        if not os.path.isfile(diff_path):
            raise MissingArtifact(diff_path, "diff file")
        try:
            with open(diff_path, encoding="utf-8") as fh:
                diff_text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"diff file {diff_path} is not UTF-8: {exc}") from exc
        if not diff_text:
            raise ConfigError(f"diff file {diff_path} is empty")
        # label is a placeholder; scoring never reads it
        sample = PatchSample(id=os.path.basename(diff_path), diff_text=diff_text,
                             label=Label.NON_SECURITY)
    else:
        samples = load_dataset(cfg.dataset.path)
        matches = [s for s in samples if s.id == sample_id]
        if not matches:
            raise ConfigError(f"sample id not found in dataset: {sample_id!r}")
        sample = matches[0]
    prob, label = predict([sample], state, _backends(cfg, state))[0]
    return {"id": sample.id, "probability": prob, "label": label.value, "seed": cfg.hp.seed}


def cmd_visualize(cfg: RunConfig, args) -> dict:
    components, split_name = cfg.pca.components, cfg.pca.split
    _, state = _load_state(cfg)
    samples = _split_samples(_split(cfg), split_name, "visualization")
    if len(samples) < components:
        raise ConfigError(f"visualization split {split_name!r} has {len(samples)} samples, "
                          f"fewer than the {components} components asked for")
    vectors = fused_embeddings(samples, state, _backends(cfg, state))
    result = pca_project([v.values for v in vectors], components)
    csv_path = os.path.join(cfg.output_dir, "pca.csv")
    export_pca_csv(csv_path, [s.id for s in samples], result.coordinates,
                   [s.label.value for s in samples])
    meta = {"explained_variance": [float(v) for v in result.explained_variance],
            "degenerate": result.degenerate, "n": len(samples),
            "split": split_name, "seed": cfg.hp.seed}
    write_json(os.path.join(cfg.output_dir, "pca_meta.json"), meta)
    return {"pca_csv": csv_path, **meta}


def cmd_ablate(cfg: RunConfig, args) -> dict:
    rows = run_ablation(cfg.ablation.flag_sets, _training_split(cfg), cfg.hp, _backends(cfg),
                        base_options=cfg.training, out_dir=os.path.join(cfg.output_dir, "ablation"))
    table = {
        "seed": cfg.hp.seed,
        "rows": [{
            "flags": list(row.flags),
            "metrics": row.metrics.to_record(),
            "final_epoch": row.epochs[-1],
        } for row in rows],
    }
    out_path = os.path.join(cfg.output_dir, "ablation.json")
    write_json(out_path, table)
    return {"ablation_table": out_path, "runs": len(rows), "seed": cfg.hp.seed}


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    """The command surface. A flag that sets a config key stores its value under that
    dotted key, and only when given; `main` hands those to `load_config` to check."""
    parser = argparse.ArgumentParser(
        prog="secpatch", argument_default=argparse.SUPPRESS,
        description="Security patch detection pipeline: ingest, explain, train, evaluate.")
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--seed", dest="hyperparams.seed", type=int,
                        help="override the configured seed")
    parser.add_argument("--out", dest="output_dir", help="override the configured output directory")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override any config key by dotted path (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run):
        sub_parser = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        sub_parser.set_defaults(run=run)
        return sub_parser

    command("ingest", cmd_ingest)
    command("explain", cmd_explain)
    command("train", cmd_train)
    p_eval = command("eval", cmd_eval)
    p_eval.add_argument("--checkpoint", dest="checkpoint")
    p_eval.add_argument("--split", dest="eval_split")
    p_pred = command("predict", cmd_predict)
    p_pred.add_argument("--diff", default=None, help="path to a unified diff file")
    p_pred.add_argument("--id", default=None, help="sample id present in the dataset")
    p_pred.add_argument("--checkpoint", dest="checkpoint")
    p_vis = command("visualize", cmd_visualize)
    p_vis.add_argument("--checkpoint", dest="checkpoint")
    p_vis.add_argument("--split", dest="pca.split")
    p_vis.add_argument("--components", dest="pca.components", type=int)
    p_abl = command("ablate", cmd_ablate)
    p_abl.add_argument("--flags", dest="ablation.flag_sets", action="append",
                       type=lambda combo: [flag for flag in combo.split(",") if flag],
                       metavar="FLAG[,FLAG...]",
                       help="one ablation combination per use, flags comma-separated")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    keys = {field.name for field in dataclasses.fields(RunConfig)}
    settings = [(key, value) for key, value in vars(args).items() if key.split(".")[0] in keys]
    try:
        cfg = load_config(args.config, args.set, settings)
        result = args.run(cfg, args)
    except ConfigError as exc:
        _fail("ConfigError", exc)
        return 2
    except MissingArtifact as exc:
        _fail("MissingArtifact", exc, path=exc.path)
        return 3
    except Exception as exc:  # surface domain errors as machine-readable records
        _fail(type(exc).__name__, exc)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


def _fail(kind: str, exc: Exception, **extra) -> None:
    record = {"error": kind, "message": str(exc), **extra}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
