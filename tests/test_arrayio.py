import ast
import os
import re
import stat
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

import secpatch
from secpatch import (CorruptContainer, Label, PatchSample, TruncatedContainer, arrayio,
                      export_pca_csv, save_dataset)
from secpatch.arrayio import load_arrays, save_arrays, write_json
from secpatch.explain import _write_cache_entry


def _small_container(path):
    arrays = {"b": np.arange(3, dtype="<i4"), "a": np.array([[1.5, -2.0]]), "c": np.zeros((0, 2))}
    save_arrays(path, arrays, meta={"format": "test", "n": 2})
    return arrays


def test_round_trip_bit_exact(tmp_path):
    path = tmp_path / "full.bin"
    arrays = _small_container(path)
    loaded, meta = load_arrays(path)
    assert meta == {"format": "test", "n": 2}
    assert sorted(loaded) == sorted(arrays)
    for name, arr in arrays.items():
        assert loaded[name].dtype == arr.dtype and loaded[name].shape == arr.shape
        np.testing.assert_array_equal(loaded[name], arr)


def test_a_0d_array_keeps_its_shape(tmp_path):
    # an array, a numpy scalar and a big-endian scalar: each loads back 0-d, not 1-d
    path = tmp_path / "scalars.bin"
    arrays = {"a": np.array(2.0), "b": np.float64(3.0), "c": np.array(7, dtype=">i4")}
    save_arrays(path, arrays)
    loaded = load_arrays(path)[0]
    for name, value in arrays.items():
        assert loaded[name].shape == () and loaded[name] == value, name


@pytest.mark.parametrize("values", [np.array([1 + 2j]), np.array([2 ** 53 + 1], dtype=np.uint64),
                                    np.array([True, False]), np.array([0.5], dtype=np.float16)],
                         ids=["complex128", "uint64", "bool", "float16"])
def test_save_arrays_refuses_a_dtype_it_does_not_store(tmp_path, values):
    # a cast to <f8 would drop the imaginary part, round 2**53 + 1 and turn bools into floats
    path = tmp_path / "full.bin"
    _small_container(path)
    before = path.read_bytes()
    with pytest.raises(ValueError, match=f"array 'z' has dtype {re.escape(values.dtype.str)}"):
        save_arrays(path, {"a": np.ones(2), "z": values})
    assert path.read_bytes() == before and os.listdir(tmp_path) == ["full.bin"]


def test_save_arrays_stores_an_allowed_kind_little_endian(tmp_path):
    path = tmp_path / "big.bin"
    values = np.array([1.5, -2.25, 1e300], dtype=">f8")
    save_arrays(path, {"w": values})
    loaded = load_arrays(path)[0]["w"]
    assert loaded.dtype.str == "<f8"
    np.testing.assert_array_equal(loaded, values)


def test_truncation_at_every_offset_is_named(tmp_path):
    full = tmp_path / "full.bin"
    _small_container(full)
    data = full.read_bytes()
    cut = tmp_path / "cut.bin"
    for length in range(len(data)):
        cut.write_bytes(data[:length])
        with pytest.raises(TruncatedContainer) as info:
            load_arrays(cut)
        err = info.value
        assert err.path == str(cut) and str(cut) in str(err)
        assert 0 <= err.offset <= length, (length, err.offset)
        assert f"byte offset {err.offset}" in str(err)


@pytest.mark.parametrize("field, replacement, reason", [
    (b"SPARRAY1", b"SPARRAY2", "bad magic"),
    (b"<i4", b"<zz", "dtype '<zz'"),
    (b"<i4", b"|O8", "dtype '|O8'"),
    (b'{"k":1}', b'{"k":!}', "Expecting value"),
    (b'{"k":1}', b'[1,2,3]', "not an object"),
    (b'{"k":1}', b'{"k":\xff', "utf-8"),
    (b"alpha", b"\xffalph", "utf-8"),
    (b"\x02\x00\x00\x00", b"\x02\x00\x00\x00junk", "4 bytes after the last array"),
])
def test_corrupt_header_is_named(tmp_path, field, replacement, reason):
    path = tmp_path / "bad.bin"
    save_arrays(path, {"alpha": np.arange(3, dtype="<i4")}, meta={"k": 1})
    data = path.read_bytes()
    assert data.count(field) == 1
    offset = data.index(field)
    if replacement.startswith(field):  # bytes added after a field are named at the first of them
        offset += len(field)
    path.write_bytes(data.replace(field, replacement))
    with pytest.raises(CorruptContainer) as info:
        load_arrays(path)
    err = info.value
    assert not isinstance(err, TruncatedContainer)
    assert err.path == str(path) and err.offset == offset
    assert str(path) in str(err) and f"byte offset {offset}" in str(err) and reason in str(err)


def test_deeply_nested_meta_is_named(tmp_path):
    path = tmp_path / "deep.bin"
    meta = b"[" * 100_000 + b"]" * 100_000
    path.write_bytes(arrayio.MAGIC + struct.pack("<II", arrayio.VERSION, len(meta)) + meta
                     + struct.pack("<I", 0))
    with pytest.raises(CorruptContainer) as info:
        load_arrays(path)
    assert info.value.offset == len(arrayio.MAGIC) + 8


def test_unsupported_version_is_named(tmp_path):
    path = tmp_path / "v2.bin"
    save_arrays(path, {"alpha": np.arange(3, dtype="<i4")})
    data = path.read_bytes()
    path.write_bytes(arrayio.MAGIC + struct.pack("<I", 2) + data[len(arrayio.MAGIC) + 4:])
    with pytest.raises(CorruptContainer, match=re.escape(
            f"{path}: corrupt array container at byte offset 8: unsupported version 2")):
        load_arrays(path)


def test_repeated_array_name_is_named_at_its_second_occurrence(tmp_path):
    def entry(name: bytes, value: float) -> bytes:  # one (1,) <f8 array, laid out as save_arrays
        return (struct.pack("<H", len(name)) + name + struct.pack("<B", 3) + b"<f8"
                + struct.pack("<BQd", 1, 1, value))

    head = arrayio.MAGIC + struct.pack("<II", arrayio.VERSION, 2) + b"{}" + struct.pack("<I", 2)
    path = tmp_path / "hand.bin"
    path.write_bytes(head + entry(b"w", 1.0) + entry(b"x", 2.0))
    assert {name: arr.tolist() for name, arr in load_arrays(path)[0].items()} == {
        "w": [1.0], "x": [2.0]}  # the hand layout is a well-formed container
    path.write_bytes(head + entry(b"w", 1.0) + entry(b"w", 2.0))
    with pytest.raises(CorruptContainer, match="array name 'w' repeats") as info:
        load_arrays(path)
    assert not isinstance(info.value, TruncatedContainer)
    assert info.value.offset == len(head + entry(b"w", 1.0)) + 2


# ---------------------------------------------------------------------------
# crash-safe writes

def _sample(text: str) -> PatchSample:
    return PatchSample(id="s0", diff_text=f"@@ -1,1 +1,1 @@\n-a\n+{text}\n", label=Label.SECURITY)


WRITERS = {
    "save_arrays": lambda path, v: save_arrays(path, {"w": np.full((4, 3), float(v))}, {"v": v}),
    "write_json": lambda path, v: write_json(path, {"version": v, "rows": list(range(50))}),
    "save_dataset": lambda path, v: save_dataset([_sample(f"line {v}")] * 3, path),
    "export_pca_csv": lambda path, v: export_pca_csv(path, ["a", "b"], np.full((2, 2), v + 0.5),
                                                     ["security", "non-security"]),
    "explain_cache": lambda path, v: _write_cache_entry(str(path), f"explanation {v}"),
}


class _Crash(Exception):
    pass


class _HalfWriteThenCrash:
    """File handle proxy: the first write lands half its data on disk, then raises."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[:len(data) // 2])
        self._fh.flush()
        raise _Crash()

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_crash_mid_write_keeps_previous_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "artifact"
    WRITERS[writer](path, 1)
    before = path.read_bytes()
    monkeypatch.setattr(arrayio, "open", lambda *a, **k: _HalfWriteThenCrash(open(*a, **k)),
                        raising=False)
    with pytest.raises(_Crash):
        WRITERS[writer](path, 2)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["artifact"]
    WRITERS[writer](path, 2)
    assert path.read_bytes() != before and os.listdir(tmp_path) == ["artifact"]


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_products_fsync_file_then_directory_and_cache_entries_fsync_nothing(tmp_path,
                                                                            monkeypatch, writer):
    synced, real_fsync = [], os.fsync

    def recorded(fd):
        synced.append(os.fstat(fd).st_ino)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recorded)
    path = tmp_path / "artifact"
    WRITERS[writer](path, 1)
    expected = [] if writer == "explain_cache" else [path.stat().st_ino, tmp_path.stat().st_ino]
    assert synced == expected


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_new_file_mode_follows_umask(tmp_path, writer):
    old = os.umask(0o027)
    try:
        WRITERS[writer](tmp_path / "artifact", 1)
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "artifact").st_mode) == 0o640


# ---------------------------------------------------------------------------
# single-writer rule: only arrayio.atomic_open opens files for writing

SRC = Path(secpatch.__file__).resolve().parent  # the package these tests import


def _sources() -> list[Path]:
    """The package's modules; the AST tests below would pass unchecked on an empty list."""
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules under {SRC}"
    return paths


def _write_mode(call: ast.Call):
    """The mode of a call that may open a file for writing, else None."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
        return func.attr
    if (isinstance(func, ast.Name) and func.id == "open") or (
            isinstance(func, ast.Attribute) and func.attr in ("open", "fdopen")
            and isinstance(func.value, ast.Name) and func.value.id in ("os", "io")):
        index = 1
    elif isinstance(func, ast.Attribute) and func.attr == "open":  # pathlib's Path.open(mode)
        index = 0
    else:
        return None
    mode = call.args[index] if len(call.args) > index else next(
        (kw.value for kw in call.keywords if kw.arg in ("mode", "flags")), ast.Constant("r"))
    if not isinstance(mode, ast.Constant):
        return "<computed>"
    return mode.value if set(mode.value) & set("wax+") else None


def _write_calls(node, func=None):
    """(enclosing function, line, mode) for each call in `node` that may write a file."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and _write_mode(child) is not None:
            yield func, child.lineno, _write_mode(child)
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
        yield from _write_calls(child, inner)


def test_only_arrayio_opens_files_for_writing():
    # the run log too: every file the package writes is renamed into place whole
    found = []
    for path in _sources():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func, line, mode in _write_calls(tree):
            if (path.name, func) != ("arrayio.py", "atomic_open"):
                found.append(f"{path.name}:{line} {func}() opens with mode {mode!r}")
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and "tempfile" in (
                    [a.name for a in node.names] + [getattr(node, "module", None)]):
                found.append(f"{path.name}:{node.lineno} imports tempfile")
    assert found == []


def _calls_naming(node, keyword: str, func=None):
    """(enclosing function, the keyword's value) for each call in `node` passing `keyword`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield from ((func, ast.unparse(kw.value)) for kw in child.keywords
                        if kw.arg == keyword)
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
        yield from _calls_naming(child, keyword, inner)


def test_only_explain_cache_entries_skip_the_fsync():
    # every product keeps atomic_open's durable default
    found = [(path.name, func, value) for path in _sources()
             for func, value in _calls_naming(ast.parse(path.read_text(encoding="utf-8")),
                                              "durable")]
    assert found == [("explain.py", "_write_cache_entry", "False")]


_JSON_PARSERS = {"load", "loads", "JSONDecoder", "JSONDecodeError"}


def _json_parse_sites(node, func=None):
    """(enclosing function, line, name) for each use in `node` of json's parsers, of
    JSONDecodeError or of RecursionError."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name)
                and child.value.id == "json" and child.attr in _JSON_PARSERS):
            yield func, child.lineno, f"json.{child.attr}"
        elif isinstance(child, ast.Name) and child.id in ("JSONDecodeError", "RecursionError"):
            yield func, child.lineno, child.id
        elif isinstance(child, ast.ImportFrom) and child.module == "json":
            yield from ((func, child.lineno, f"json.{alias.name}") for alias in child.names
                        if alias.name in _JSON_PARSERS)
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
        yield from _json_parse_sites(child, inner)


def test_only_json_value_parses_json():
    # one owner for "bytes or text -> a JSON value, or a ValueError"; json.dumps is free
    found = []
    for path in _sources():
        for func, line, name in _json_parse_sites(ast.parse(path.read_text(encoding="utf-8"))):
            if (path.name, func) != ("arrayio.py", "json_value"):
                found.append(f"{path.name}:{line} {func}() uses {name}")
    assert found == []


def _unlocking_sites(tree, filename):
    """`global` statements, `setflags` calls, and `.writeable` set to anything but False,
    in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            yield f"{filename}:{node.lineno} global {', '.join(node.names)}"
        elif isinstance(node, ast.Attribute) and node.attr == "setflags":
            yield f"{filename}:{node.lineno} calls setflags"
        elif isinstance(node, ast.Assign) and not (isinstance(node.value, ast.Constant)
                                                   and node.value.value is False):
            yield from (f"{filename}:{node.lineno} sets {ast.unparse(target)}"
                        for target in node.targets
                        if isinstance(target, ast.Attribute) and target.attr == "writeable")


def test_no_module_state_is_rebound_and_no_array_is_made_writable():
    # an optimizer step makes new weight arrays, so nothing unlocks a read-only array, and
    # what a weight version keeps lives on its PTFormerState, not a module-level token
    found = []
    for path in _sources():
        found += _unlocking_sites(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert found == []


def test_only_fusion_and_embed_lock_arrays():
    # fusion locks the weights and the instruction branch, embed the token rows; a module
    # that set a lock on arrays it did not make would be a second owner of their rule
    found = [f"{path.name}:{node.lineno} sets {ast.unparse(target)}" for path in _sources()
             if path.name not in ("fusion.py", "embed.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assign)
             for target in node.targets
             if isinstance(target, ast.Attribute) and target.attr == "writeable"]
    assert found == []


def _kept_product_reads(tree, filename):
    """Reads of a PTFormerState's folded pair or kept instruction branches in `tree`: `.folded`,
    `._kept_branches`, and `.instruction_branches` other than as the method it calls."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (
                node.attr in ("folded", "_kept_branches")
                or node.attr == "instruction_branches" and id(node) not in called):
            yield f"{filename}:{node.lineno} reads {ast.unparse(node)}"


def test_only_fusion_reads_the_folded_pair_and_the_kept_branches():
    # a PTFormerState keys, keeps and evicts its instruction branches and forms its folded
    # pair; a caller asks it for branches, so no second module holds that rule
    found = []
    for path in _sources():
        if path.name != "fusion.py":
            found += _kept_product_reads(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert found == []


def test_only_a_pt_former_being_built_calls_fold_cross():
    # a PTFormerState forms its folded pair in __post_init__, so no pass, caller or copy
    # forms a second one
    calls = [(path.name, scope, node.lineno) for path in _sources()
             for scope, node in _scoped_calls(ast.parse(path.read_text(encoding="utf-8")))
             if getattr(node.func, "id", getattr(node.func, "attr", None)) == "fold_cross"]
    assert [(name, scope) for name, scope, _ in calls] == [
        ("fusion.py", "PTFormerState.__post_init__")], calls


def _scoped_calls(tree, scope=""):
    """(dotted name of the innermost enclosing class or function, call) for every call."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            yield scope, node
        yield from _scoped_calls(node, inner)


def _text_opens_without_utf8(tree, filename):
    """`open()`/`atomic_open()` calls in text mode that do not pass encoding="utf-8"."""
    for call in ast.walk(tree):
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id in ("open", "atomic_open")):
            continue
        keywords = {kw.arg: kw.value for kw in call.keywords}
        if filename == "arrayio.py" and None in keywords:  # atomic_open's **open_kwargs
            continue
        default = "r" if call.func.id == "open" else "wb"
        mode = call.args[1] if len(call.args) > 1 else keywords.get("mode", ast.Constant(default))
        encoding = keywords.get("encoding")
        if not isinstance(mode, ast.Constant):
            yield f"{filename}:{call.lineno} opens with a computed mode"
        elif "b" not in mode.value and not (isinstance(encoding, ast.Constant)
                                            and encoding.value == "utf-8"):
            yield f"{filename}:{call.lineno} opens mode {mode.value!r} without encoding='utf-8'"


def test_every_text_open_names_utf8():
    # the default encoding follows the locale, so a file could read differently per machine
    found = []
    for path in _sources():
        found += _text_opens_without_utf8(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert found == []


# ---------------------------------------------------------------------------
# runtime dependencies: the package imports the stdlib, numpy and itself, nothing else

def test_package_imports_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "secpatch"}
    found = []
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # level > 0: secpatch
                modules = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} imports {module}" for module in modules
                      if module.partition(".")[0] not in allowed]
    assert found == []
