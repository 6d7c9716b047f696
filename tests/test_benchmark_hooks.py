"""The benchmark reads program names by module and name; each one must exist."""

import ast
import dataclasses
import glob
import importlib
import importlib.util
import os
import sys

from secpatch import (ExplainerConfig, default_hyperparams, hashed_backends, init_train_state,
                      make_synthetic_samples)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spans(monkeypatch):
    # loaded from its file without writing bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_hook_and_cache_resolves(monkeypatch):
    spans = _spans(monkeypatch)
    missing = [f"{module}.{attr}" for module, attr, _ in spans.HOOKS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing, f"the tracer wraps names the program no longer has: {missing}"
    module, attr = spans.TOKEN_ROW_CACHE
    assert hasattr(getattr(importlib.import_module(module), attr, None), "cache_info")


def _names_the_benchmark_reads():
    """(module, name) of every `from secpatch.<m> import <name>` in perfbench/*.py, and of
    every `<alias>.<name>` read off a module bound as `<alias> = importlib.import_module(...)`."""
    names = set()
    for path in sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("secpatch"):
                names.update((node.module, alias.name) for alias in node.names)
            elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                  and ast.unparse(node.value.func) == "importlib.import_module"
                  and isinstance(node.value.args[0], ast.Constant)):
                aliases.update((target.id, node.value.args[0].value) for target in node.targets
                               if isinstance(target, ast.Name))
        names.update((aliases[node.value.id], node.attr) for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id in aliases)
    return names


def test_every_name_the_benchmark_imports_resolves():
    names = _names_the_benchmark_reads()
    # one name found each way, so an empty walk cannot pass
    assert {("secpatch.dataset", "HashTokenizer"), ("secpatch.train", "init_train_state")} <= names
    missing = [f"{module}.{name}" for module, name in sorted(names)
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"the benchmark reads names the program no longer has: {missing}"


def test_the_tracer_sees_each_fusion_pass_with_its_four_matrices(monkeypatch, tmp_path):
    # the observers read fuse_forward's first four arguments and its state, and pair each
    # fuse_backward with its forward pass by the cache; a shared instruction branch, passed
    # after them, must leave one traced pass per sample with every matrix's rows
    spans = _spans(monkeypatch)
    train = importlib.import_module("secpatch.train")
    hp = dataclasses.replace(default_hyperparams(), dim=8, num_heads=2, dropout=0.5, seed=3)
    backends = hashed_backends(hp, ExplainerConfig(cache_dir=str(tmp_path / "cache")))
    samples = make_synthetic_samples(6, seed=2)
    state = init_train_state(hp)
    encoded = train.encode_samples(samples, backends, hp, state.options)
    batch = samples[:4]
    rows = {s.id: sum(m.shape[0] for m in encoded[s.id]) for s in samples}
    tracer = spans.Tracer()
    tracer.install()
    try:
        train.predict(samples, state, backends)
        train._train_batch(batch, encoded, state)
    finally:
        assert tracer.restore() == []
    metrics = tracer.layer_metrics()
    assert metrics["fusion.forward_calls"] == len(samples) + len(batch)
    assert metrics["fusion.forward_rows"] == sum(rows.values()) + sum(rows[s.id] for s in batch)
    assert tracer.calls["fuse_backward"] == len(batch)
    coverage = tracer.coverage("paper-score")
    assert coverage["flags"] == [] and coverage["errors"] == {}
