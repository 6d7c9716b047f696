"""The benchmark's tracer wraps program functions by module and name; each one must exist."""

import importlib
import importlib.util
import os
import sys

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
