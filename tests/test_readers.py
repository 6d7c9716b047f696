"""Seeded mutation tests: every reader of input from outside the program either loads a mutated
input or raises its documented error, never a builtin such as RecursionError or KeyError.

Each reader gets a well-formed input, mutated by leaf replacement, key deletion and deep
nesting (JSON inputs), and by byte flips and truncation (all inputs).
"""

import json
import os
import struct

import numpy as np
import pytest

from secpatch.arrayio import CorruptContainer, load_arrays
from secpatch.cli import ConfigError, load_config
from secpatch.dataset import SchemaError, load_dataset
from secpatch.embed import EmbedderBackend, save_precomputed
from secpatch.explain import (CacheCorrupt, ExplainerConfig, ServiceUnavailable, _call_service,
                              explain)
from secpatch.train import (InvalidCheckpoint, InvalidRunLog, _resume_run_log, load_checkpoint,
                            read_best_pointer)
from secpatch.types import Label, PatchSample

from conftest import DATA_DIR

SEED = 20_231_201
PER_READER = 120  # mutants per reader; each kind of mutation gets its share
DEEP = "[" * 100_000 + "]" * 100_000
# replacement leaves: wrong types, out-of-range ints, non-finite floats and an int no float holds
LEAVES = [None, True, False, 0, -1, 1.5, 2 ** 64, -(2 ** 70), 10 ** 400, float("nan"),
          float("inf"), "", "x", [], {}, [1, 2], {"k": 1}]
_HOLE = "\x00deep\x00"  # a string no input holds, swapped for DEEP after serializing


def _nodes(value, path=()):
    """(path, node) for `value` and every value nested in it."""
    yield path, value
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _replaced(value, path, new):
    if not path:
        return new
    copy = json.loads(json.dumps(value))
    node = copy
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = new
    return copy


def _mutants(value, rng, n: int, text_only: bool = False) -> list[bytes]:
    """`n` seeded mutations of the JSON value `value` (or, with text_only, of the bytes
    `value`), as the bytes a reader would get."""
    kinds = ["flip", "truncate"] if text_only else ["leaf", "delete", "deep", "flip", "truncate"]
    data = value if text_only else json.dumps(value).encode("utf-8")
    out = []
    for i in range(n):
        kind = kinds[i % len(kinds)]
        if kind == "flip":
            mutant = bytearray(data)
            for at in rng.integers(0, len(data), size=rng.integers(1, 4)):
                mutant[at] ^= int(rng.integers(1, 256))
            out.append(bytes(mutant))
        elif kind == "truncate":
            out.append(data[:rng.integers(0, len(data))])
        elif kind == "delete":
            keyed = [(path, node) for path, node in _nodes(value)
                     if isinstance(node, dict) and node]
            path, node = keyed[rng.integers(len(keyed))]
            keys = sorted(node)
            trimmed = {k: v for k, v in node.items() if k != keys[rng.integers(len(keys))]}
            out.append(json.dumps(_replaced(value, path, trimmed)).encode("utf-8"))
        else:
            paths = [path for path, _ in _nodes(value)]
            path = paths[rng.integers(len(paths))]
            new = LEAVES[rng.integers(len(LEAVES))] if kind == "leaf" else _HOLE
            text = json.dumps(_replaced(value, path, new))
            out.append(text.replace(json.dumps(_HOLE), DEEP).encode("utf-8"))
    return out


def _checked(read, mutants, errors):
    """Run `read` on each mutant; return how many loaded and how many raised `errors`."""
    loaded = raised = 0
    for i, mutant in enumerate(mutants):
        try:
            read(mutant)
        except errors:
            raised += 1
        except Exception as exc:  # any other error is what this test looks for
            pytest.fail(f"mutant {i} ({mutant[:80]!r}...) raised {type(exc).__name__}: {exc}")
        else:
            loaded += 1
    return loaded, raised


def _container_with_meta(data: bytes, meta: bytes) -> bytes:
    """`data`, an array container, with its meta block swapped for `meta`."""
    (old,) = struct.unpack_from("<I", data, 12)
    return data[:12] + struct.pack("<I", len(meta)) + meta + data[16 + old:]


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def _config(tmp_path) -> dict:
    return {"dataset": {"path": os.path.join(DATA_DIR, "synthetic64.jsonl"),
                        "ratios": [0.8, 0.1, 0.1], "stratify": True},
            "output_dir": str(tmp_path / "out"),
            "hyperparams": {"dim": 16, "num_heads": 4, "epochs": 2, "learning_rate": 0.01,
                            "seed": 7},
            "explainer": {"backend": "deterministic_stub", "timeout": 5.0},
            "embedder": {"kind": "hashed_projection"},
            "training": {"use_sbcl": True, "threshold": 0.5},
            "ablation": {"flag_sets": [["no_sbcl"]]},
            "pca": {"components": 2, "split": "test"},
            "eval_split": "test"}


def test_config_file_mutants(tmp_path, rng):
    path = tmp_path / "config.json"

    def read(data):
        path.write_bytes(data)
        # mutants write under tmp_path only
        load_config(str(path), settings=[("output_dir", str(tmp_path / "out"))])

    loaded, raised = _checked(read, _mutants(_config(tmp_path), rng, PER_READER), ConfigError)
    assert loaded and raised


def test_set_override_mutants(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_config(tmp_path)), encoding="utf-8")
    keys = [".".join(map(str, p)) for p, _ in _nodes(_config(tmp_path))
            if p and all(isinstance(k, str) for k in p)]

    def read(key):
        load_config(str(path), overrides=[f"{key.decode()}={DEEP}"],
                    settings=[("output_dir", str(tmp_path / "out"))])

    loaded, raised = _checked(read, [k.encode() for k in keys], ConfigError)
    assert raised  # `checkpoint` takes any string, so the nested text may load as one


def test_dataset_record_mutants(tmp_path, rng):
    with open(os.path.join(DATA_DIR, "synthetic64.jsonl"), "rb") as fh:
        first, second = fh.readline(), fh.readline()
    path = tmp_path / "d.jsonl"

    def read(record):
        path.write_bytes(first + record + b"\n" + second)
        load_dataset(path)

    loaded, raised = _checked(read, _mutants(json.loads(second), rng, PER_READER), SchemaError)
    assert loaded and raised


def test_best_pointer_mutants(tmp_path, rng):
    pointer = {"epoch": 2, "path": "epoch_0002.ckpt", "score": 0.75, "seed": 7}
    path = tmp_path / "best.json"

    def read(data):
        path.write_bytes(data)
        read_best_pointer(path)

    loaded, raised = _checked(read, _mutants(pointer, rng, PER_READER), InvalidCheckpoint)
    assert loaded and raised


def test_run_log_mutants(tmp_path, rng):
    # a resumed train reads the log it rewrites: what it keeps is whole records only
    records = [{"epoch": e, "L_BCE": 0.69, "L_SBCL": 0.25, "L": 0.94, "val_AUC": 0.5,
                "val_F1": None, "seed": 7} for e in (1, 2, 3)]
    first, middle, last = (json.dumps(r).encode("utf-8") + b"\n" for r in records)
    path = tmp_path / "run_log.jsonl"

    def read(data):
        path.write_bytes(data)
        *lines, tail = _resume_run_log(path, 2).split(b"\n")
        assert tail == b"" and all(type(json.loads(line)["epoch"]) is int for line in lines)

    mutants = [first + m + b"\n" + last for m in _mutants(records[1], rng, PER_READER // 2)]
    mutants += _mutants(first + middle + last, rng, PER_READER // 2, text_only=True)
    loaded, raised = _checked(read, mutants, InvalidRunLog)
    assert loaded and raised


@pytest.mark.parametrize("part", ["meta", "payload"])
def test_checkpoint_mutants(tmp_path, rng, part):
    fixture = os.path.join(DATA_DIR, "checkpoint_dim8.ckpt")
    with open(fixture, "rb") as fh:
        data = fh.read()
    if part == "meta":
        mutants = [_container_with_meta(data, meta)
                   for meta in _mutants(load_arrays(fixture)[1], rng, PER_READER)]
    else:
        mutants = _mutants(data, rng, PER_READER, text_only=True)
    path = tmp_path / "c.ckpt"

    def read(container):
        path.write_bytes(container)
        load_checkpoint(path)

    loaded, raised = _checked(read, mutants, (InvalidCheckpoint, CorruptContainer))
    assert loaded and raised


def test_precomputed_file_mutants(tmp_path, rng):
    path = tmp_path / "e.arr"
    save_precomputed(path, {"a/patch": rng.standard_normal((2, 4)),
                            "a/explanation": rng.standard_normal((1, 4))}, dim=4)
    data = path.read_bytes()
    mutants = [_container_with_meta(data, meta)
               for meta in _mutants(load_arrays(path)[1], rng, PER_READER // 2)]
    mutants += _mutants(data, rng, PER_READER // 2, text_only=True)

    def read(container):
        path.write_bytes(container)
        try:
            EmbedderBackend.precomputed_file(path)
        except ValueError as exc:
            assert str(path) in str(exc)
            raise

    loaded, raised = _checked(read, mutants, ValueError)
    assert loaded and raised


def test_explain_cache_entry_mutants(tmp_path, rng):
    cfg = ExplainerConfig(cache_dir=str(tmp_path / "cache"))
    sample = PatchSample(id="a", diff_text="@@ -1 +1 @@\n-old\n+new\n", label=Label.SECURITY)
    text = explain(sample, cfg)
    (name,) = os.listdir(cfg.cache_dir)
    path = os.path.join(cfg.cache_dir, name)
    with open(path, "rb") as fh:
        entry = fh.read()

    def read(data):
        with open(path, "wb") as fh:
            fh.write(data)
        assert explain(sample, cfg) == text

    loaded, raised = _checked(read, _mutants(entry, rng, PER_READER, text_only=True),
                              CacheCorrupt)
    assert raised


def test_service_reply_mutants(rng):
    reply = {"id": "r1", "choices": [{"index": 0, "message": {"role": "assistant",
                                                               "content": "a summary"}}]}
    cfg = ExplainerConfig(backend="external_service", endpoint="http://svc.test/v1",
                          max_retries=1)

    def read(data):
        text = _call_service("prompt", cfg, lambda url, payload, headers, timeout: data,
                             sleep=lambda s: None)
        assert isinstance(text, str)

    loaded, raised = _checked(read, _mutants(reply, rng, PER_READER), ServiceUnavailable)
    assert loaded and raised
