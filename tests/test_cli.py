import argparse
import dataclasses
import importlib
import json
import os
import re
import shutil
import typing

import numpy as np
import pytest

from secpatch.cli import RunConfig, build_parser, load_config, main
from secpatch.dataset import load_dataset
from secpatch.embed import EmbedderBackend, save_precomputed
from secpatch.explain import ExplainerConfig
from secpatch.train import PipelineBackends, load_checkpoint, predict

from conftest import DATA_DIR

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _workspace(tmp_path):
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


@pytest.fixture
def workspace(tmp_path):
    return _workspace(tmp_path)


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
    assert "components must be >= 1" in record["message"]
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
        load_config(str(path), settings=[("output_dir", str(tmp_path / f"out_{i}"))])


def _options(parser, command="every command"):
    """(flag, command, dest) of each option of `parser` and of its commands' parsers."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub_parser in action.choices.items():
                yield from _options(sub_parser, name)
        elif action.option_strings:
            yield max(action.option_strings, key=len), command, action.dest


def test_readme_flag_table_is_the_parser_and_the_config():
    # a flag sets a RunConfig key or is one of the few without one; README has a row for each
    # key flag and no other, and each row's key names a RunConfig field
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    rows = set()
    for line in text[text.index("| Flag | Commands | Config key |"):].splitlines()[2:]:
        if not line.startswith("|"):
            break
        flag, commands, key = (cell.strip() for cell in line.strip("|").split("|"))
        names = re.findall(r"`(\w+)`", commands) or [commands]  # or "every command"
        rows |= {(flag.strip("`"), name, key.strip("`")) for name in names}
    fields = {field.name for field in dataclasses.fields(RunConfig)}
    options = set(_options(build_parser()))
    settings = {option for option in options if option[2].split(".")[0] in fields}
    assert {(flag, dest) for flag, _, dest in options - settings} == {
        ("--help", "help"), ("--config", "config"), ("--set", "set"), ("--diff", "diff"),
        ("--id", "id")}
    assert settings == rows
    for _, _, key in rows:
        section = RunConfig
        for name in key.split("."):
            assert dataclasses.is_dataclass(section), key
            section = typing.get_type_hints(section)[name]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A workspace whose model trained for one epoch, and the checkpoint it wrote."""
    space = _workspace(tmp_path_factory.mktemp("trained"))
    assert main(["--config", space["config"], "--set", "hyperparams.epochs=1", "train"]) == 0
    return space | {"checkpoint": str(space["out"] / "checkpoints" / "epoch_0001.ckpt")}


def _file(path, data: bytes) -> str:
    path.write_bytes(data)
    return str(path)


def _two_samples(tmp) -> str:
    """A dataset of one sample per class: every one of them lands in the train split."""
    with open(os.path.join(DATA_DIR, "synthetic64.jsonl"), "rb") as fh:
        return _file(tmp / "two.jsonl", fh.readline() + fh.readline())


def _security_only(tmp) -> list[str]:
    """--set flags for a dataset of four security samples, split without stratifying: the
    train split holds one class."""
    with open(os.path.join(DATA_DIR, "synthetic64.jsonl"), "rb") as fh:
        lines = [line for line in fh if json.loads(line)["label"] == "security"][:4]
    return ["--set", f"dataset.path={_file(tmp / 'security.jsonl', b''.join(lines))}",
            "--set", "dataset.stratify=false"]


DEEP = b"[" * 100_000 + b"]" * 100_000  # nested past the interpreter's recursion limit


def _pointer(tmp, data: bytes | None) -> list[str]:
    """--out flags for a run dir whose checkpoints/best.json holds `data`, or is a directory."""
    pointer = tmp / "run" / "checkpoints" / "best.json"
    pointer.parent.mkdir(parents=True)
    if data is None:
        pointer.mkdir()
    else:
        pointer.write_bytes(data)
    return ["--out", str(tmp / "run")]


# (id, argv from (test dir, config and --out flags, checkpoint), exit code, error kind, what the
# message must hold, "{tmp}" standing for the test dir)
ERROR_PATHS = [
    ("config-not-json", lambda tmp, base, ckpt: ["--config", _file(tmp / "c.json", b"{"), "ingest"],
     2, "ConfigError", "config file {tmp}/c.json is not UTF-8 JSON: Expecting"),
    ("config-not-utf8",
     lambda tmp, base, ckpt: ["--config", _file(tmp / "c.json", b'{"output_dir": "caf\xe9"}'),
                              "ingest"],
     2, "ConfigError", "config file {tmp}/c.json is not UTF-8 JSON: 'utf-8' codec can't decode"),
    ("config-nested-too-deep",
     lambda tmp, base, ckpt: ["--config", _file(tmp / "c.json", DEEP), "ingest"],
     2, "ConfigError", "config file {tmp}/c.json is not UTF-8 JSON: JSON nested too deeply"),
    ("config-a-directory", lambda tmp, base, ckpt: ["--config", str(tmp), "ingest"],
     2, "ConfigError", "config file not found: {tmp}"),
    ("set-nested-too-deep",
     lambda tmp, base, ckpt: [*base, "--set", "hyperparams.seed=" + DEEP.decode(), "ingest"],
     2, "ConfigError", "hyperparams.seed must be int, got '[[["),
    ("dataset-a-directory", lambda tmp, base, ckpt: [*base, "--set", f"dataset.path={tmp}",
                                                     "ingest"],
     2, "ConfigError", "path not found: {tmp}"),
    ("dataset-nested-too-deep",
     lambda tmp, base, ckpt: [*base, "--set", "dataset.path=" + _file(
         tmp / "d.jsonl", b'{"id": ' + DEEP + b"}\n"), "ingest"],
     1, "SchemaError", "record 0: invalid JSON (JSON nested too deeply"),
    ("dataset-missing",
     lambda tmp, base, ckpt: [*base, "--set", f"dataset.path={tmp}/absent.jsonl", "ingest"],
     2, "ConfigError", "path not found: {tmp}/absent.jsonl"),
    ("dataset-not-utf8",
     lambda tmp, base, ckpt: [*base, "--set", "dataset.path=" + _file(
         tmp / "d.jsonl", b'{"id": "caf\xe9", "diff": "x", "label": "security"}\n'), "ingest"],
     1, "SchemaError", "record 0: byte 0xe9 is not UTF-8"),
    ("precomputed-missing",
     lambda tmp, base, ckpt: [*base, "--set", "embedder.kind=precomputed_file",
                              "--set", f"embedder.patch_path={tmp}/absent.arr", "train"],
     2, "ConfigError", "patch_path must point to an existing file"),
    ("precomputed-a-directory",
     lambda tmp, base, ckpt: [*base, "--set", "embedder.kind=precomputed_file",
                              "--set", f"embedder.patch_path={tmp}",
                              "--set", f"embedder.text_path={tmp}", "train"],
     2, "ConfigError", "patch_path must point to an existing file"),
    ("set-int-past-float-range",
     lambda tmp, base, ckpt: [*base, "--set", "hyperparams.learning_rate=1" + "0" * 400, "ingest"],
     2, "ConfigError", "hyperparams.learning_rate must be finite"),
    ("set-int-past-digit-limit",  # where the interpreter has a digit limit, the text is a string
     lambda tmp, base, ckpt: [*base, "--set", "eval_split=" + "1" * 5000, "ingest"],
     2, "ConfigError", "eval_split must be one of "),
    ("set-without-equals", lambda tmp, base, ckpt: [*base, "--set", "hyperparams.seed", "ingest"],
     2, "ConfigError", "--set expects key=value, got 'hyperparams.seed'"),
    ("set-through-non-object",
     lambda tmp, base, ckpt: [*base, "--set", "hyperparams.seed.x=1", "ingest"],
     2, "ConfigError", "cannot set hyperparams.seed.x: seed is not an object"),
    ("output-dir-under-a-file",
     lambda tmp, base, ckpt: [*base, "--out", _file(tmp / "f", b"") + "/out", "ingest"],
     2, "ConfigError", "cannot create output_dir {tmp}/f/out"),
    ("empty-eval-split",
     lambda tmp, base, ckpt: [*base, "--set", f"dataset.path={_two_samples(tmp)}", "eval",
                              "--checkpoint", ckpt, "--split", "test"],
     2, "ConfigError", "evaluation split 'test' is empty"),
    ("empty-train-split",
     lambda tmp, base, ckpt: [*base, "--set", f"dataset.path={_file(tmp / 'e.jsonl', b'')}",
                              "train"],
     2, "ConfigError", "training split 'train' is empty"),
    ("empty-train-split-ablate",
     lambda tmp, base, ckpt: [*base, "--set", f"dataset.path={_file(tmp / 'e.jsonl', b'')}",
                              "ablate", "--flags", "no_sbcl"],
     2, "ConfigError", "training split 'train' is empty"),
    ("one-class-train-split",
     lambda tmp, base, ckpt: [*base, *_security_only(tmp), "train"],
     2, "ConfigError", "training split 'train' has no 'non-security' sample"),
    ("one-class-train-split-ablate",
     lambda tmp, base, ckpt: [*base, *_security_only(tmp), "ablate"],
     2, "ConfigError", "training split 'train' has no 'non-security' sample"),
    ("eval-split-unknown", lambda tmp, base, ckpt: [*base, "eval", "--split", "bogus"],
     2, "ConfigError", "eval_split must be one of ['train', 'validation', 'test'], got 'bogus'"),
    ("visualize-split-unknown", lambda tmp, base, ckpt: [*base, "visualize", "--split", "bogus"],
     2, "ConfigError", "pca.split must be one of ['train', 'validation', 'test'], got 'bogus'"),
    # --seed and --components read their text as --set does; a numeric --checkpoint stays a path
    ("seed-not-int", lambda tmp, base, ckpt: [*base, "--seed", "1.5", "ingest"],
     2, "ConfigError", "hyperparams.seed must be int, got 1.5"),
    ("components-not-int", lambda tmp, base, ckpt: [*base, "visualize", "--components", "x"],
     2, "ConfigError", "pca.components must be int, got 'x'"),
    ("checkpoint-numeric-path", lambda tmp, base, ckpt: [*base, "eval", "--checkpoint", "7"],
     3, "MissingArtifact", "missing checkpoint: 7"),
    ("checkpoint-missing",
     lambda tmp, base, ckpt: [*base, "eval", "--checkpoint", f"{tmp}/absent.ckpt"],
     3, "MissingArtifact", "missing checkpoint: {tmp}/absent.ckpt"),
    ("checkpoint-a-directory",
     lambda tmp, base, ckpt: [*base, "eval", "--checkpoint", str(tmp)],
     3, "MissingArtifact", "missing checkpoint: {tmp}"),
    ("pointer-a-directory", lambda tmp, base, ckpt: [*base, *_pointer(tmp, None), "eval"],
     3, "MissingArtifact", "missing checkpoint pointer: {tmp}/run/checkpoints/best.json"),
    ("pointer-nested-too-deep", lambda tmp, base, ckpt: [*base, *_pointer(tmp, DEEP), "eval"],
     1, "InvalidCheckpoint", "best.json: invalid checkpoint: pointer is not JSON: JSON nested "
                             "too deeply"),
    ("diff-a-directory",
     lambda tmp, base, ckpt: [*base, "predict", "--checkpoint", ckpt, "--diff", str(tmp)],
     3, "MissingArtifact", "missing diff file: {tmp}"),
    ("diff-missing",
     lambda tmp, base, ckpt: [*base, "predict", "--checkpoint", ckpt, "--diff", f"{tmp}/a.diff"],
     3, "MissingArtifact", "missing diff file: {tmp}/a.diff"),
    ("diff-not-utf8",
     lambda tmp, base, ckpt: [*base, "predict", "--checkpoint", ckpt, "--diff",
                              _file(tmp / "p.diff", b"@@ -1 +1 @@\n-a\n+caf\xe9\n")],
     2, "ConfigError", "diff file {tmp}/p.diff is not UTF-8"),
    ("diff-empty",
     lambda tmp, base, ckpt: [*base, "predict", "--checkpoint", ckpt, "--diff",
                              _file(tmp / "p.diff", b"")],
     2, "ConfigError", "diff file {tmp}/p.diff is empty"),
    ("id-unknown",
     lambda tmp, base, ckpt: [*base, "predict", "--checkpoint", ckpt, "--id", "syn-9999"],
     2, "ConfigError", "sample id not found in dataset: 'syn-9999'"),
]


@pytest.mark.parametrize("argv, code, kind, message", [case[1:] for case in ERROR_PATHS],
                         ids=[case[0] for case in ERROR_PATHS])
def test_error_paths_exit_with_a_named_error(trained, tmp_path, capsys, argv, code, kind, message):
    base = ["--config", trained["config"], "--out", str(tmp_path / "out")]
    result = _run(argv(tmp_path, base, trained["checkpoint"]), capsys)
    record = json.loads(result[2])
    assert (result[0], record["error"]) == (code, kind), record
    assert message.format(tmp=tmp_path) in record["message"]
    assert not (tmp_path / "out").exists() or os.listdir(tmp_path / "out") == []


@pytest.mark.parametrize("command", [["eval"], ["predict", "--id", "syn-0000"], ["visualize"]],
                         ids=["eval", "predict", "visualize"])
def test_empty_checkpoint_flag_is_a_missing_checkpoint(trained, capsys, command):
    # best.json exists, but an empty --checkpoint names no file rather than falling back to it
    assert (trained["out"] / "checkpoints" / "best.json").is_file()
    code, _, stderr = _run(["--config", trained["config"], *command, "--checkpoint", ""], capsys)
    record = json.loads(stderr)
    assert (code, record["error"], record["path"]) == (3, "MissingArtifact", ""), record


# (flag run's argv after the config, the same command without the flag, the key the flag sets,
# its value as --set writes it, another value of that key); "{dir}" stands for the directory
# every run starts from a fresh copy of, "{ckpt}" for a trained checkpoint
KEY_FLAGS = [
    ("seed", ["--seed", "8", "ingest"], ["ingest"], "hyperparams.seed", "8", "9"),
    ("out", ["--out", "{dir}/moved", "ingest"], ["ingest"], "output_dir", "{dir}/moved",
     "{dir}/run"),
    ("eval-checkpoint", ["eval", "--checkpoint", "{ckpt}"], ["eval"], "checkpoint", "{ckpt}",
     "{dir}/absent.ckpt"),
    ("predict-checkpoint", ["predict", "--id", "syn-0000", "--checkpoint", "{ckpt}"],
     ["predict", "--id", "syn-0000"], "checkpoint", "{ckpt}", "{dir}/absent.ckpt"),
    ("visualize-checkpoint", ["visualize", "--checkpoint", "{ckpt}"], ["visualize"],
     "checkpoint", "{ckpt}", "{dir}/absent.ckpt"),
    ("eval-split", ["eval", "--split", "train"], ["eval"], "eval_split", "train", "validation"),
    ("visualize-split", ["visualize", "--split", "train"], ["visualize"], "pca.split", "train",
     "validation"),
    ("visualize-components", ["visualize", "--components", "3"], ["visualize"],
     "pca.components", "3", "2"),
    ("ablate-flags", ["ablate", "--flags", "no_sbcl", "--flags", "no_ptformer,no_sbcl"],
     ["ablate"], "ablation.flag_sets", '[["no_sbcl"], ["no_ptformer", "no_sbcl"]]',
     '[["no_ptformer"]]'),
]


@pytest.mark.parametrize("flagged, command, key, value, other", [case[1:] for case in KEY_FLAGS],
                         ids=[case[0] for case in KEY_FLAGS])
def test_each_key_flag_is_its_set_twin(trained, tmp_path, capsys, flagged, command, key, value,
                                       other):
    # a flag is `--set key=value` by another spelling: the same stdout record and files; given
    # beside a --set of its key, the flag wins
    root = tmp_path / "dirs"
    names = {"dir": str(root), "ckpt": trained["checkpoint"]}
    with open(trained["config"], encoding="utf-8") as fh:
        config = json.load(fh)
    config_path = _file(tmp_path / "config.json",
                        json.dumps({**config, "output_dir": str(root / "run")}).encode())
    base = ["--config", config_path, "--set", "hyperparams.epochs=1"]

    def run(argv):
        shutil.rmtree(root, ignore_errors=True)
        for name in ("run", "moved"):
            shutil.copytree(trained["out"], root / name)
        code, stdout, stderr = _run([*base, *(arg.format(**names) for arg in argv)], capsys)
        assert code == 0, stderr
        return stdout, {path.relative_to(root): path.read_bytes()
                        for path in sorted(root.rglob("*")) if path.is_file()}

    flag_run = run(flagged)
    assert run(["--set", f"{key}={value}", *command]) == flag_run
    assert run(["--set", f"{key}={other}", *flagged]) == flag_run


def test_visualize_more_components_than_samples_is_a_config_error_before_fusing(
        trained, tmp_path, capsys, monkeypatch):
    # a split that cannot serve the command is a config error, raised before any sample fuses
    fused = []
    monkeypatch.setattr(importlib.import_module("secpatch.cli"), "fused_embeddings",
                        lambda *args: fused.append(args))
    code, _, stderr = _run(["--config", trained["config"], "--out", str(tmp_path / "out"),
                            "visualize", "--checkpoint", trained["checkpoint"],
                            "--components", "9"], capsys)
    record = json.loads(stderr)
    assert (code, record["error"]) == (2, "ConfigError"), record
    assert ("visualization split 'test' has 6 samples, fewer than the 9 components"
            in record["message"])
    assert fused == [] and not (tmp_path / "out" / "pca.csv").exists()


def test_explain_keeps_provided_explanations_and_names_failed_samples(workspace, capsys,
                                                                     monkeypatch):
    def refused(url, payload, headers, timeout):  # stands in for the network
        raise ConnectionRefusedError("refused")

    # the package's `explain` attribute is the function, so the module is fetched by name
    monkeypatch.setattr(importlib.import_module("secpatch.explain"), "_default_transport", refused)
    lines = (workspace["tmp"] / "synthetic64.jsonl").read_text(encoding="utf-8").splitlines()[:3]
    records = [json.loads(line) for line in lines]
    records[1]["explanation"] = "a provided summary"
    dataset = workspace["tmp"] / "three.jsonl"
    dataset.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    code, stdout, _ = _run(["--config", workspace["config"], "--set", f"dataset.path={dataset}",
                            "--set", "explainer.backend=external_service",
                            "--set", "explainer.endpoint=http://localhost:9/v1",
                            "--set", "explainer.max_retries=1", "explain"], capsys)
    assert code == 0
    summary = json.loads(stdout)
    assert (summary["provided"], summary["generated"], summary["cache_hits"]) == (1, 0, 0)
    assert summary["failures"] == [records[0]["id"], records[2]["id"]]
    augmented = load_dataset(summary["augmented_path"])
    assert [s.explanation for s in augmented] == [None, "a provided summary", None]


def test_explain_counts_a_reply_nested_too_deep_as_a_failure(workspace, capsys, monkeypatch):
    def deep(url, payload, headers, timeout):  # stands in for the network
        return b'{"choices": ' + DEEP + b"}"

    monkeypatch.setattr(importlib.import_module("secpatch.explain"), "_default_transport", deep)
    lines = (workspace["tmp"] / "synthetic64.jsonl").read_bytes().splitlines(keepends=True)
    dataset = workspace["tmp"] / "two.jsonl"
    dataset.write_bytes(b"".join(lines[:2]))
    code, stdout, stderr = _run(["--config", workspace["config"],
                                 "--set", f"dataset.path={dataset}",
                                 "--set", "explainer.backend=external_service",
                                 "--set", "explainer.endpoint=http://localhost:9/v1", "explain"],
                                capsys)
    assert code == 0, stderr
    assert json.loads(stdout)["failures"] == [json.loads(line)["id"] for line in lines[:2]]


def test_precomputed_embeddings_train_and_evaluate(workspace, capsys):
    # the CLI trains on and scores with rows from precomputed files, as the library does
    samples = load_dataset(workspace["tmp"] / "synthetic64.jsonl")
    rng = np.random.default_rng(3)
    path = workspace["tmp"] / "embeddings.arr"
    save_precomputed(path, {f"{s.id}/{modality}": rng.standard_normal((3, 16)) for s in samples
                            for modality in ("patch", "explanation", "description",
                                             "instruction")}, dim=16)
    flags = ["--config", workspace["config"], "--set", "embedder.kind=precomputed_file",
             "--set", f"embedder.patch_path={path}", "--set", f"embedder.text_path={path}"]
    assert _run([*flags, "train"], capsys)[0] == 0
    code, stdout, stderr = _run([*flags, "eval", "--split", "train"], capsys)
    assert code == 0, stderr
    assert json.loads(stdout)["n"] == 51
    checkpoint = json.loads(stdout)["checkpoint"]  # the one best.json names
    code, stdout, stderr = _run([*flags, "predict", "--id", samples[0].id], capsys)
    assert code == 0, stderr
    backend = EmbedderBackend.precomputed_file(path)
    explainer = ExplainerConfig(cache_dir=str(workspace["out"] / "explain_cache"))
    expected = predict(samples[:1], load_checkpoint(checkpoint),
                       PipelineBackends(backend, backend, explainer))[0][0]
    assert json.loads(stdout)["probability"] == expected
