import json
import os
import re
import shutil

import numpy as np
import pytest

from secpatch.cli import load_config, main
from secpatch.embed import save_precomputed

from conftest import DATA_DIR

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def workspace(tmp_path):
    dataset = tmp_path / "synthetic64.jsonl"
    shutil.copy(os.path.join(DATA_DIR, "synthetic64.jsonl"), dataset)
    out = tmp_path / "out"
    config = {
        "dataset": {"path": str(dataset), "ratios": [0.8, 0.1, 0.1]},
        "output_dir": str(out),
        "hyperparams": {"dim": 16, "num_heads": 4, "epochs": 6, "learning_rate": 1e-2,
                        "dropout": 0.0, "seed": 7},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return {"config": str(config_path), "out": out, "tmp": tmp_path}


def _run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_end_to_end_pipeline(workspace, capsys):
    config = workspace["config"]
    out = workspace["out"]

    code, stdout, _ = _run(["--config", config, "ingest"], capsys)
    assert code == 0
    summary = json.loads(stdout)
    assert summary["n"] == 64
    assert summary["labels"]["security"] == 32
    assert (out / "ingest_summary.json").exists()

    code, stdout, _ = _run(["--config", config, "explain"], capsys)
    assert code == 0
    summary = json.loads(stdout)
    assert summary["generated"] == 64 and summary["failures"] == []
    assert (out / "augmented.jsonl").exists()

    code, stdout, _ = _run(["--config", config, "train"], capsys)
    assert code == 0
    train_result = json.loads(stdout)
    assert os.path.exists(train_result["checkpoint"])
    assert os.path.exists(train_result["run_log"])
    assert (out / "checkpoints" / "best.json").exists()

    code, stdout, _ = _run(["--config", config, "eval"], capsys)
    assert code == 0
    metrics = json.loads(stdout)["metrics"]
    assert 0.0 <= metrics["F1"] <= 100.0
    assert (out / "metrics.json").exists()

    # the synthetic fixture is separable: the pipeline must overfit its train split
    code, stdout, _ = _run(["--config", config, "eval", "--split", "train"], capsys)
    assert code == 0
    assert json.loads(stdout)["metrics"]["F1"] >= 95.0

    diff_path = workspace["tmp"] / "probe.diff"
    diff_path.write_text("@@ -1,1 +1,2 @@\n context\n+strncpy(buffer_1, input, 8);\n",
                         encoding="utf-8")
    code, stdout, _ = _run(["--config", config, "predict", "--diff", str(diff_path)], capsys)
    assert code == 0
    prediction = json.loads(stdout)
    assert 0.0 < prediction["probability"] < 1.0
    assert prediction["label"] in ("security", "non-security")

    code, stdout, _ = _run(["--config", config, "predict", "--id", "syn-0000"], capsys)
    assert code == 0
    assert json.loads(stdout)["id"] == "syn-0000"

    # fixed checkpoint -> byte-identical prediction and metrics reports across runs
    repeat = _run(["--config", config, "predict", "--id", "syn-0000"], capsys)[1]
    assert repeat == stdout
    assert _run(["--config", config, "eval"], capsys)[0] == 0
    first_metrics = (out / "metrics.json").read_bytes()
    assert _run(["--config", config, "eval"], capsys)[0] == 0
    assert (out / "metrics.json").read_bytes() == first_metrics

    code, stdout, _ = _run(["--config", config, "visualize", "--split", "train"], capsys)
    assert code == 0
    vis = json.loads(stdout)
    assert os.path.exists(vis["pca_csv"])
    with open(vis["pca_csv"], encoding="utf-8") as fh:
        header = fh.readline().strip()
    assert header == "sample_id,pc1,pc2,label"

    code, stdout, _ = _run(["--config", config, "ablate", "--flags", "no_sbcl"], capsys)
    assert code == 0
    table_path = json.loads(stdout)["ablation_table"]
    with open(table_path, encoding="utf-8") as fh:
        table = json.load(fh)
    assert [row["flags"] for row in table["rows"]] == [[], ["no_sbcl"]]
    assert table["rows"][1]["final_epoch"]["L_SBCL"] == 0.0


def test_train_twice_identical_run_logs(workspace, capsys):
    config = workspace["config"]
    out = workspace["out"]
    assert _run(["--config", config, "train"], capsys)[0] == 0
    first = (out / "run_log.jsonl").read_bytes()
    first_ckpt = (out / "checkpoints" / "epoch_0006.ckpt").read_bytes()
    assert _run(["--config", config, "train"], capsys)[0] == 0
    assert (out / "run_log.jsonl").read_bytes() == first
    assert (out / "checkpoints" / "epoch_0006.ckpt").read_bytes() == first_ckpt


def test_ablate_twice_identical_cell_logs(workspace, capsys):
    config = workspace["config"]
    cells = workspace["out"] / "ablation"
    assert _run(["--config", config, "ablate", "--flags", "no_sbcl"], capsys)[0] == 0
    first = {cell.name: (cell / "run_log.jsonl").read_bytes() for cell in cells.iterdir()}
    assert sorted(first) == ["full", "no_sbcl"]
    assert _run(["--config", config, "ablate", "--flags", "no_sbcl"], capsys)[0] == 0
    for name, log in first.items():
        assert (cells / name / "run_log.jsonl").read_bytes() == log, name


def test_eval_without_checkpoint_is_missing_artifact(workspace, capsys):
    code, _, stderr = _run(["--config", workspace["config"], "eval"], capsys)
    assert code == 3
    record = json.loads(stderr)
    assert record["error"] == "MissingArtifact"
    assert record["path"].endswith("best.json")


@pytest.mark.parametrize("pointer, reason", [
    ("{}", "pointer 'path' must be a file name in the same directory, got {}"),
    ('{"path": 5}', "pointer 'path' must be a file name in the same directory, got {'path': 5}"),
    ('{"path": "../x"}',
     "pointer 'path' must be a file name in the same directory, got {'path': '../x'}"),
    ("[1]", "pointer 'path' must be a file name in the same directory, got [1]"),
    ("epoch 3", "pointer is not JSON: "),
], ids=["empty-object", "path-not-string", "path-outside", "not-an-object", "not-json"])
def test_bad_checkpoint_pointer_names_the_pointer(workspace, capsys, pointer, reason):
    pointer_path = workspace["out"] / "checkpoints" / "best.json"
    pointer_path.parent.mkdir(parents=True)
    pointer_path.write_text(pointer, encoding="utf-8")
    (workspace["out"] / "x").write_bytes(b"")  # "../x" names a file that exists
    code, _, stderr = _run(["--config", workspace["config"], "eval"], capsys)
    record = json.loads(stderr)
    assert (code, record["error"]) == (1, "InvalidCheckpoint")
    assert record["message"].startswith(f"{pointer_path}: invalid checkpoint: {reason}")


@pytest.mark.parametrize("flags", [["--seed", "8"], ["--set", "hyperparams.dim=32"]],
                         ids=["seed", "dim"])
def test_scoring_embeds_with_the_checkpoint_settings(workspace, capsys, flags):
    # a checkpoint scores the same under a config whose seed or dim differ from its own
    config, out = workspace["config"], workspace["out"]
    assert _run(["--config", config, "train"], capsys)[0] == 0
    commands = (["predict", "--id", "syn-0000"], ["predict", "--id", "syn-0001"],
                ["eval", "--split", "train"], ["visualize", "--split", "train"])
    for command in commands:
        code, stdout, _ = _run(["--config", config, *command], capsys)
        assert code == 0, command
        expected = json.loads(stdout)
        expected_pca = (out / "pca.csv").read_bytes() if command[0] == "visualize" else None
        code, stdout, stderr = _run(["--config", config, *flags, *command], capsys)
        assert code == 0, stderr
        record = json.loads(stdout)
        if command[0] == "predict":
            assert record["probability"] == expected["probability"]
        elif command[0] == "eval" and flags[0] == "--set":  # the same split, so the same metrics
            assert record["metrics"] == expected["metrics"]
        elif command[0] == "eval":  # another split, still all fitted on the separable corpus
            assert record["metrics"]["F1"] >= 95.0 and record["metrics"]["AUC"] >= 95.0
        elif flags[0] == "--set":
            assert (out / "pca.csv").read_bytes() == expected_pca


def test_precomputed_embeddings_of_another_dim_are_a_config_error(workspace, capsys):
    config, tmp = workspace["config"], workspace["tmp"]
    assert _run(["--config", config, "train"], capsys)[0] == 0
    path = tmp / "embeddings.arr"
    save_precomputed(path, {"syn-0000/patch": np.ones((2, 4))}, dim=4)
    code, _, stderr = _run(["--config", config, "--set", "embedder.kind=precomputed_file",
                            "--set", f"embedder.patch_path={path}",
                            "--set", f"embedder.text_path={path}", "eval"], capsys)
    assert code == 2
    record = json.loads(stderr)
    assert record["error"] == "ConfigError"
    assert "have dim 4, but the checkpoint has dim 16" in record["message"]

    fresh = tmp / "fresh_out"
    code, _, stderr = _run(["--config", config, "--out", str(fresh),
                            "--set", "embedder.kind=precomputed_file",
                            "--set", f"embedder.patch_path={path}",
                            "--set", f"embedder.text_path={path}", "train"], capsys)
    assert code == 2
    assert "have dim 4, but hyperparams has dim 16" in json.loads(stderr)["message"]
    assert list(fresh.iterdir()) == []  # no artifact before the config error


def test_bad_config_is_config_error(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"output_dir": str(tmp_path / "out")}), encoding="utf-8")
    code, _, stderr = _run(["--config", str(config_path), "ingest"], capsys)
    assert code == 2
    assert json.loads(stderr)["error"] == "ConfigError"

    code, _, stderr = _run(["--config", str(tmp_path / "absent.json"), "ingest"], capsys)
    assert code == 2


def test_predict_requires_exactly_one_input(workspace, capsys):
    code, _, stderr = _run(["--config", workspace["config"], "predict"], capsys)
    assert code == 2
    assert "exactly one" in json.loads(stderr)["message"]


def test_seed_flag_overrides_and_is_recorded(workspace, capsys):
    code, stdout, _ = _run(["--config", workspace["config"], "--seed", "99", "ingest"], capsys)
    assert code == 0
    assert json.loads(stdout)["seed"] == 99
    on_disk = json.loads((workspace["out"] / "ingest_summary.json").read_text())
    assert on_disk["seed"] == 99


def test_set_override_dotted_key(workspace, capsys):
    code, stdout, _ = _run(["--config", workspace["config"],
                            "--set", "hyperparams.seed=123", "ingest"], capsys)
    assert code == 0
    assert json.loads(stdout)["seed"] == 123


def test_invalid_hyperparams_rejected_before_work(workspace, capsys):
    for setting in ("hyperparams.num_heads=5", "hyperparams.dim=0"):
        code, _, stderr = _run(["--config", workspace["config"], "--set", setting, "ingest"],
                               capsys)
        assert code == 2, setting
        assert "hyperparams" in json.loads(stderr)["message"]


@pytest.mark.parametrize("setting, named", [
    ("training.use_sbcll=false", "use_sbcll"),
    ("training=[1]", "must be an object"),
])
def test_unknown_training_options_rejected_before_work(workspace, capsys, setting, named):
    code, _, stderr = _run(["--config", workspace["config"], "--set", setting, "ingest"], capsys)
    assert code == 2
    record = json.loads(stderr)
    assert record["error"] == "ConfigError"
    assert named in record["message"]
    assert not (workspace["out"] / "ingest_summary.json").exists()


# (--set override, what the error message must name); None: the config file is a JSON list
CONFIG_ERRORS = [
    ("dataset=[1]", "dataset must be an object"),
    ("dataset.stratfy=false", "dataset.stratfy"),
    ("dataset.ratios=5", "dataset.ratios"),
    ("dataset.ratios=[0.5,0.5,0.5]", "ratios must sum to 1"),
    ("dataset.ratios=[NaN,0.5,0.5]", "dataset.ratios[0] must be finite"),
    ("hyperparams=[1]", "hyperparams must be an object"),
    ("hyperparams.epoch=3", "hyperparams.epoch"),
    ("hyperparams.epochs=2.5", "hyperparams.epochs"),
    ("hyperparams.dim=true", "hyperparams.dim"),
    ("hyperparams.learning_rate=Infinity", "hyperparams.learning_rate must be finite"),
    ("explainer=[1]", "explainer must be an object"),
    ("explainer.timeuot=5", "explainer.timeuot"),
    ("explainer.max_retries=\"3\"", "explainer.max_retries"),
    ("explainer.cache_dir=null", "explainer.cache_dir"),
    ("explainer.timeout=-1", "timeout"),
    ("embedder=[1]", "embedder must be an object"),
    ("embedder.knd=hashed_projection", "embedder.knd"),
    ("embedder.kind=bert", "embedder.kind"),
    ("training=[1]", "training must be an object"),
    ("training.use_sbcll=false", "training.use_sbcll"),
    ("training.use_sbcl=\"false\"", "training.use_sbcl"),
    ("training.threshold=true", "training.threshold"),
    ("training.threshold=NaN", "training.threshold must be finite"),
    ("training.threshold=1.5", "threshold must lie in [0, 1]"),
    ("training.ff_hidden=0", "ff_hidden"),
    ("ablation=[1]", "ablation must be an object"),
    ("ablation.flagsets=[]", "ablation.flagsets"),
    ("ablation.flag_sets=no_sbcl", "ablation.flag_sets"),
    ("ablation.flag_sets=[[\"no_sbc\"]]", "no_sbc'"),
    ("pca=[1]", "pca must be an object"),
    ("pca.componets=3", "pca.componets"),
    ("pca.components=\"x\"", "pca.components"),
    ("pca.components=0", "components must be >= 1"),
    ("bogus_top=1", "bogus_top"),
    ("output_dir=5", "output_dir"),
    ("eval_split=dev", "eval_split"),
    ("checkpoint=5", "checkpoint"),
    (None, "config must be an object"),
]


@pytest.mark.parametrize("setting, named", CONFIG_ERRORS)
def test_config_errors_name_the_key_before_work(workspace, capsys, setting, named):
    args = ["--config", workspace["config"]]
    if setting is None:
        with open(workspace["config"], encoding="utf-8") as fh:
            config = json.load(fh)
        with open(workspace["config"], "w", encoding="utf-8") as fh:
            json.dump([config], fh)
    else:
        args += ["--set", setting]
    code, _, stderr = _run(args + ["ingest"], capsys)
    assert code == 2
    record = json.loads(stderr)
    assert record["error"] == "ConfigError"
    assert named in record["message"]
    assert not (workspace["out"] / "ingest_summary.json").exists()
    assert not workspace["out"].exists()


def test_visualize_components_flag_is_checked_before_work(workspace, capsys):
    code, _, stderr = _run(["--config", workspace["config"], "visualize", "--components", "0"],
                           capsys)
    assert code == 2
    record = json.loads(stderr)
    assert record["error"] == "ConfigError"
    assert "--components must be >= 1" in record["message"]
    assert not (workspace["out"] / "pca.csv").exists()


def test_ablate_unknown_flag_is_config_error_before_training(workspace, capsys):
    code, _, stderr = _run(["--config", workspace["config"], "ablate",
                            "--flags", "no_sbcl", "--flags", "no_ptformer,no_sbc"], capsys)
    assert code == 2
    record = json.loads(stderr)
    assert record["error"] == "ConfigError"
    assert "'no_sbc'" in record["message"]
    assert not (workspace["out"] / "ablation").exists()


def test_readme_configs_load(tmp_path, monkeypatch):
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"```json\n(.*?)```", fh.read(), re.S)
    assert blocks
    monkeypatch.chdir(REPO_ROOT)  # README paths are relative to the repository root
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme_{i}.json"
        path.write_text(block, encoding="utf-8")
        load_config(str(path), out=str(tmp_path / f"out_{i}"))
