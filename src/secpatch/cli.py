"""Command-line surface: ingest -> explain -> train -> eval -> predict -> visualize -> ablate."""

import argparse
import dataclasses
import json
import os
import sys

from .arrayio import write_json
from .dataset import class_counts, load_dataset, save_dataset, split_dataset
from .embed import EmbedderBackend
from .experiments import run_ablation
from .explain import ExplainerConfig, ServiceUnavailable, explain, is_cached
from .metrics import compute_metrics, export_pca_csv, pca_project
from .train import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, HashTokenizer, PipelineBackends,
                    TrainOptions, fused_embeddings, hashed_backends, load_checkpoint, predict,
                    train)
from .types import HyperParams, Label, PatchSample, default_hyperparams


class ConfigError(ValueError):
    """The run configuration is invalid; reported before any work starts."""


class MissingArtifact(FileNotFoundError):
    """A required upstream artifact (checkpoint, dataset, diff file) is absent."""

    def __init__(self, path: str, what: str = "artifact"):
        self.path = path
        super().__init__(f"missing {what}: {path}")


@dataclasses.dataclass
class RunConfig:
    dataset_path: str
    output_dir: str
    hp: HyperParams
    ratios: tuple[float, float, float]
    stratify: bool
    explainer: ExplainerConfig
    embedder_kind: str
    patch_embeddings_path: str | None
    text_embeddings_path: str | None
    options: TrainOptions
    ablation_flag_sets: list
    pca_components: int
    pca_split: str
    eval_split: str
    checkpoint: str | None


def _set_by_path(tree: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = tree
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set {dotted}: {key!r} is not a section")
    node[keys[-1]] = value


def load_config(path: str, seed: int | None = None, out: str | None = None,
                overrides: list[str] | None = None) -> RunConfig:
    """Parse and validate the JSON run configuration; flags win over file values."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc

    for dotted in overrides or []:
        if "=" not in dotted:
            raise ConfigError(f"--set expects key=value, got {dotted!r}")
        key, _, text = dotted.partition("=")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        _set_by_path(raw, key, value)

    dataset_cfg = raw.get("dataset")
    if not isinstance(dataset_cfg, dict) or "path" not in dataset_cfg:
        raise ConfigError("config needs a 'dataset' section with a 'path'")
    output_dir = out or raw.get("output_dir")
    if not output_dir:
        raise ConfigError("config needs 'output_dir' (or pass --out)")

    hp_values = default_hyperparams().to_dict()
    hp_values.update(raw.get("hyperparams", {}))
    if seed is not None:
        hp_values["seed"] = seed
    try:
        hp = HyperParams.from_dict(hp_values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad hyperparams: {exc}") from exc

    if not os.path.exists(dataset_cfg["path"]):
        raise ConfigError(f"dataset file not found: {dataset_cfg['path']}")
    ratios = tuple(dataset_cfg.get("ratios", (0.8, 0.1, 0.1)))
    if len(ratios) != 3:
        raise ConfigError(f"dataset.ratios must have three entries, got {ratios}")

    try:
        os.makedirs(output_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output_dir {output_dir}: {exc}") from exc
    if not os.access(output_dir, os.W_OK):
        raise ConfigError(f"output_dir is not writable: {output_dir}")

    explain_cfg = dict(raw.get("explainer", {}))
    explain_cfg.setdefault("cache_dir", os.path.join(output_dir, "explain_cache"))
    try:
        explainer = ExplainerConfig(**{k: v for k, v in explain_cfg.items() if v is not None})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad explainer config: {exc}") from exc

    embed_cfg = dict(raw.get("embedder", {}))
    embedder_kind = embed_cfg.get("kind", "hashed_projection")
    if embedder_kind not in ("hashed_projection", "precomputed_file"):
        raise ConfigError(f"unknown embedder kind: {embedder_kind!r}")
    if embedder_kind == "precomputed_file":
        for key in ("patch_path", "text_path"):
            if not embed_cfg.get(key) or not os.path.exists(embed_cfg[key]):
                raise ConfigError(f"embedder.{key} must point to an existing file")

    try:
        options = TrainOptions.from_dict(raw.get("training", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad training options: {exc}") from exc

    ablation_cfg = raw.get("ablation", {})
    pca_cfg = raw.get("pca", {})
    return RunConfig(
        dataset_path=dataset_cfg["path"],
        output_dir=output_dir,
        hp=hp,
        ratios=ratios,
        stratify=bool(dataset_cfg.get("stratify", True)),
        explainer=explainer,
        embedder_kind=embedder_kind,
        patch_embeddings_path=embed_cfg.get("patch_path"),
        text_embeddings_path=embed_cfg.get("text_path"),
        options=options,
        ablation_flag_sets=ablation_cfg.get("flag_sets", [["no_explanation"], ["no_instruction"],
                                                          ["no_ptformer"], ["no_sbcl"]]),
        pca_components=int(pca_cfg.get("components", 2)),
        pca_split=pca_cfg.get("split", "test"),
        eval_split=raw.get("eval_split", "test"),
        checkpoint=raw.get("checkpoint"),
    )


def _backends(cfg: RunConfig) -> PipelineBackends:
    if cfg.embedder_kind == "hashed_projection":
        return hashed_backends(cfg.hp, cfg.explainer)
    patch = EmbedderBackend.precomputed_file(cfg.patch_embeddings_path)
    text = EmbedderBackend.precomputed_file(cfg.text_embeddings_path)
    return PipelineBackends(tokenizer=HashTokenizer(), patch_embedder=patch,
                            text_embedder=text, explainer=cfg.explainer)


def _split(cfg: RunConfig):
    samples = load_dataset(cfg.dataset_path)
    return split_dataset(samples, cfg.ratios, cfg.hp.seed, stratify=cfg.stratify)


def _split_part(split, name: str):
    if name not in ("train", "validation", "test"):
        raise ConfigError(f"unknown split name: {name!r}")
    return getattr(split, name)


def _emit(record) -> None:
    print(json.dumps(record, sort_keys=True))


def _load_state(cfg: RunConfig, args):
    """(path, TrainState) of --checkpoint, else the configured one, else best.json's."""
    path = args.checkpoint or cfg.checkpoint
    if path is None:
        pointer_path = os.path.join(cfg.output_dir, "checkpoints", "best.json")
        if not os.path.exists(pointer_path):
            raise MissingArtifact(pointer_path, "checkpoint pointer")
        with open(pointer_path, encoding="utf-8") as fh:
            pointer = json.load(fh)
        path = os.path.join(cfg.output_dir, "checkpoints", pointer["path"])
    if not os.path.exists(path):
        raise MissingArtifact(path, "checkpoint")
    return path, load_checkpoint(path)


# ---------------------------------------------------------------------------
# commands

def cmd_ingest(cfg: RunConfig, args) -> dict:
    samples = load_dataset(cfg.dataset_path)
    labels = {label.value: count for label, count in class_counts(samples).items()}
    sources: dict[str, int] = {}
    for sample in samples:
        key = sample.source or "<none>"
        sources[key] = sources.get(key, 0) + 1
    summary = {"n": len(samples), "labels": labels, "sources": sources, "seed": cfg.hp.seed}
    write_json(os.path.join(cfg.output_dir, "ingest_summary.json"), summary)
    return summary


def cmd_explain(cfg: RunConfig, args) -> dict:
    samples = load_dataset(cfg.dataset_path)
    provided = hits = generated = 0
    failures = []
    augmented = []
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
    split = _split(cfg)
    backends = _backends(cfg)
    checkpoint_dir = os.path.join(cfg.output_dir, "checkpoints")
    run_log = os.path.join(cfg.output_dir, "run_log.jsonl")
    run_meta = {
        "seed": cfg.hp.seed,
        "hyperparams": cfg.hp.to_dict(),
        "options": cfg.options.to_dict(),
        "optimizer": {"name": "adamw", "beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "eps": ADAM_EPS},
        "notes": {"temperature": "stored hyperparameter; unused by the loss"},
    }
    write_json(os.path.join(cfg.output_dir, "run_meta.json"), run_meta)
    state, records = train(split, cfg.hp, backends, options=cfg.options,
                           checkpoint_dir=checkpoint_dir, run_log_path=run_log)
    final = os.path.join(checkpoint_dir, f"epoch_{state.epoch:04d}.ckpt")
    return {"checkpoint": final, "best_pointer": os.path.join(checkpoint_dir, "best.json"),
            "run_log": run_log, "epochs": len(records), "seed": cfg.hp.seed}


def cmd_eval(cfg: RunConfig, args) -> dict:
    path, state = _load_state(cfg, args)
    split_name = args.split or cfg.eval_split
    samples = _split_part(_split(cfg), split_name)
    if not samples:
        raise ConfigError(f"evaluation split {split_name!r} is empty")
    backends = _backends(cfg)
    results = predict(samples, state, backends)
    probs = [p for p, _ in results]
    y = [1 if s.label is Label.SECURITY else 0 for s in samples]
    report = compute_metrics(probs, y, state.options.threshold).to_record(percent=True)
    record = {"metrics": report, "split": split_name, "n": len(samples),
              "checkpoint": path, "seed": cfg.hp.seed}
    write_json(os.path.join(cfg.output_dir, "metrics.json"), record)
    return record


def cmd_predict(cfg: RunConfig, args) -> dict:
    diff_path, sample_id = args.diff, args.id
    if (diff_path is None) == (sample_id is None):
        raise ConfigError("predict needs exactly one of --diff or --id")
    _, state = _load_state(cfg, args)
    if diff_path is not None:
        if not os.path.exists(diff_path):
            raise MissingArtifact(diff_path, "diff file")
        with open(diff_path, encoding="utf-8") as fh:
            diff_text = fh.read()
        # label is a placeholder; scoring never reads it
        sample = PatchSample(id=os.path.basename(diff_path), diff_text=diff_text,
                             label=Label.NON_SECURITY)
    else:
        samples = load_dataset(cfg.dataset_path)
        matches = [s for s in samples if s.id == sample_id]
        if not matches:
            raise ConfigError(f"sample id not found in dataset: {sample_id!r}")
        sample = matches[0]
    backends = _backends(cfg)
    prob, label = predict([sample], state, backends)[0]
    return {"id": sample.id, "probability": prob, "label": label.value, "seed": cfg.hp.seed}


def cmd_visualize(cfg: RunConfig, args) -> dict:
    _, state = _load_state(cfg, args)
    split_name = args.split or cfg.pca_split
    samples = _split_part(_split(cfg), split_name)
    if not samples:
        raise ConfigError(f"visualization split {split_name!r} is empty")
    backends = _backends(cfg)
    vectors = fused_embeddings(samples, state, backends)
    result = pca_project(vectors, args.components or cfg.pca_components)
    csv_path = os.path.join(cfg.output_dir, "pca.csv")
    export_pca_csv(csv_path, [s.id for s in samples], result.coordinates,
                   [s.label.value for s in samples])
    meta = {"explained_variance": [float(v) for v in result.explained_variance],
            "degenerate": result.degenerate, "n": len(samples),
            "split": split_name, "seed": cfg.hp.seed}
    write_json(os.path.join(cfg.output_dir, "pca_meta.json"), meta)
    return {"pca_csv": csv_path, **meta}


def cmd_ablate(cfg: RunConfig, args) -> dict:
    split = _split(cfg)
    backends = _backends(cfg)
    sets = cfg.ablation_flag_sets
    if args.flags is not None:
        sets = [[f for f in combo.split(",") if f] for combo in args.flags]
    rows = run_ablation([tuple(fs) for fs in sets], split, cfg.hp, backends,
                        base_options=cfg.options, out_dir=os.path.join(cfg.output_dir, "ablation"))
    table = {
        "seed": cfg.hp.seed,
        "rows": [{
            "flags": list(row.flags),
            "metrics": row.metrics.to_record(percent=True),
            "final_epoch": row.epochs[-1],
        } for row in rows],
    }
    out_path = os.path.join(cfg.output_dir, "ablation.json")
    write_json(out_path, table)
    return {"ablation_table": out_path, "runs": len(rows), "seed": cfg.hp.seed}


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secpatch",
        description="Security patch detection pipeline: ingest, explain, train, evaluate.")
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the configured seed")
    parser.add_argument("--out", default=None, help="override the configured output directory")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override any config key by dotted path (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run):
        sub_parser = sub.add_parser(name)
        sub_parser.set_defaults(run=run)
        return sub_parser

    command("ingest", cmd_ingest)
    command("explain", cmd_explain)
    command("train", cmd_train)
    p_eval = command("eval", cmd_eval)
    p_eval.add_argument("--checkpoint", default=None)
    p_eval.add_argument("--split", default=None, choices=("train", "validation", "test"))
    p_pred = command("predict", cmd_predict)
    p_pred.add_argument("--diff", default=None, help="path to a unified diff file")
    p_pred.add_argument("--id", default=None, help="sample id present in the dataset")
    p_pred.add_argument("--checkpoint", default=None)
    p_vis = command("visualize", cmd_visualize)
    p_vis.add_argument("--checkpoint", default=None)
    p_vis.add_argument("--split", default=None, choices=("train", "validation", "test"))
    p_vis.add_argument("--components", type=int, default=None)
    p_abl = command("ablate", cmd_ablate)
    p_abl.add_argument("--flags", action="append", default=None, metavar="FLAG[,FLAG...]",
                       help="one ablation combination per use, flags comma-separated")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed, out=args.out, overrides=args.set)
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
    _emit(result)
    return 0


def _fail(kind: str, exc: Exception, **extra) -> None:
    record = {"error": kind, "message": str(exc), **extra}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
