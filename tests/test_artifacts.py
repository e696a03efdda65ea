"""The four binary artifact formats, all written and read by one codec.

`.jef` features, `.jeh` heads, `.jec` models and the `.jet` resume bundle go
through `linalg.write_arrays`/`read_arrays`. Every corrupt or cut-off file
must end in a DataError, never another exception. Every artifact, text files
included, reaches disk through `linalg.write_file`, and nothing else in the
package opens a file for writing or makes a directory.
"""

import ast
import json
import os
import pathlib
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jezsl.alignment import LossConfig
from jezsl.compat import load_model, save_model
from jezsl.data import read_features, write_features
from jezsl.errors import DataError, NumericalError
from jezsl.heads import init_head, load_head, save_head
import jezsl
from jezsl.linalg import make_rng, read_arrays, write_arrays, write_file
from jezsl.trainer import TrainConfig, TrainState, load_train_state, save_train_state


def small_state():
    rng = make_rng(4)
    state = TrainState.fresh(init_head(3, 2, 2, rng), init_head(4, 2, 2, rng), LossConfig(),
                             TrainConfig(), 20)
    state.velocity[:] = rng.standard_normal(state.velocity.shape)
    state.next_epoch = 5
    return state


# name -> (write(path), read(path))
FORMATS = {
    "jef": (lambda p: write_features(make_rng(1).standard_normal((3, 2)), p), read_features),
    "jeh": (lambda p: save_head(init_head(3, 2, 2, make_rng(2)), p), load_head),
    "jec": (lambda p: save_model(make_rng(3).standard_normal((2, 3)), p), load_model),
    "jet": (lambda p: save_train_state(small_state(), p), load_train_state),
}


@pytest.fixture(scope="module")
def blobs(tmp_path_factory):
    d = tmp_path_factory.mktemp("artifacts")
    out = {}
    for name, (write, _) in FORMATS.items():
        path = str(d / f"a.{name}")
        write(path)
        out[name] = open(path, "rb").read()
    return out


def load_blob(name, blob, path):
    with open(path, "wb") as fh:
        fh.write(blob)
    return FORMATS[name][1](path)


class TestLayout:
    def test_matrix_header_is_pinned(self, tmp_path):
        m = np.arange(6.0).reshape(3, 2)
        for magic, write in ((b"JEF1", write_features),
                             (b"JEC1", save_model)):
            path = str(tmp_path / "m")
            write(m, path)
            blob = open(path, "rb").read()
            assert blob[:13] == magic + b"\x01\x03\x00\x00\x00\x02\x00\x00\x00"
            assert blob[13:] == struct.pack("<6d", *range(6))

    def test_files_from_before_the_shared_codec_still_load(self, tmp_path):
        # JEF1/JEC1 version 1 as written by the per-format writers
        m = make_rng(5).standard_normal((4, 3))
        body = struct.pack("<BII", 1, 4, 3) + m.astype("<f8").tobytes()
        (tmp_path / "m.jef").write_bytes(b"JEF1" + body)
        (tmp_path / "m.jec").write_bytes(b"JEC1" + body)
        np.testing.assert_array_equal(read_features(str(tmp_path / "m.jef")), m)
        np.testing.assert_array_equal(load_model(str(tmp_path / "m.jec")), m)

    @pytest.mark.parametrize("name", ["jeh", "jet"])
    def test_version_1_head_and_bundle_are_refused(self, name, blobs, tmp_path):
        old = blobs[name][:4] + b"\x01" + blobs[name][5:]
        with pytest.raises(DataError, match="version 1, expected 2"):
            load_blob(name, old, str(tmp_path / f"old.{name}"))

    def test_scalars_keep_rank_zero(self, tmp_path):
        path = str(tmp_path / "a.bin")
        arrays = [np.float64(0.5), np.zeros((0, 3)), np.arange(4.0), np.eye(2)]
        write_arrays(path, b"TEST", 7, arrays)
        blob = open(path, "rb").read()
        # dims: none for the scalar, 0,3 then 4 then 2,2
        assert blob[:5 + 4 * 5] == b"TEST\x07" + struct.pack("<5I", 0, 3, 4, 2, 2)
        got = read_arrays(path, b"TEST", 7, (0, 2, 1, 2))
        assert [a.shape for a in got] == [a.shape for a in arrays]
        for a, b in zip(got, arrays):
            np.testing.assert_array_equal(a, b)
        got[2][0] = 9.0  # loaded arrays are writable

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "m.jec")
        save_model(np.ones((2, 2)), path)

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            save_model(np.zeros((5, 5)), path)
        monkeypatch.undo()
        assert os.listdir(tmp_path) == ["m.jec"]
        np.testing.assert_array_equal(load_model(path), np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_write_is_refused_and_keeps_previous_file(self, tmp_path, bad):
        path = str(tmp_path / "m.jec")
        save_model(np.ones((2, 2)), path)
        with pytest.raises(NumericalError, match="non-finite"):
            write_arrays(path, b"JEC1", 1, [np.ones((3, 2)), np.array([1.0, bad])])
        assert os.listdir(tmp_path) == ["m.jec"]
        np.testing.assert_array_equal(load_model(path), np.ones((2, 2)))


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_every_truncation_is_a_data_error(name, blobs, tmp_path):
    path = str(tmp_path / f"t.{name}")
    load_blob(name, blobs[name], path)
    for n in range(len(blobs[name])):
        with pytest.raises(DataError):
            load_blob(name, blobs[name][:n], path)


@pytest.mark.parametrize("name", sorted(FORMATS))
@pytest.mark.parametrize("extra", [b"\x00", b"\x00" * 8, b"\x00" * 4096])
def test_trailing_bytes_are_a_data_error(name, extra, blobs, tmp_path):
    size = len(blobs[name])
    with pytest.raises(DataError, match=rf"expected {size} bytes.*got {size + len(extra)}$"):
        load_blob(name, blobs[name] + extra, str(tmp_path / f"x.{name}"))


def test_strided_arrays_are_written_in_row_major_order(tmp_path):
    a = np.arange(12.0).reshape(3, 4)
    path = str(tmp_path / "s.jec")
    for view in (a.T, a[:, ::2], a[::-1]):
        write_arrays(path, b"JEC1", 1, [view])
        with open(path, "rb") as fh:
            assert fh.read()[13:] == np.ascontiguousarray(view).tobytes()
        np.testing.assert_array_equal(read_arrays(path, b"JEC1", 1, (2,))[0], view)


def test_loaded_arrays_are_writeable(tmp_path):
    # Resume updates the loaded heads and velocities in place.
    path = str(tmp_path / "a.jet")
    write_arrays(path, b"JET1", 2, [np.ones((2, 3)), np.float64(4.0), np.arange(3.0)])
    arrays = read_arrays(path, b"JET1", 2, (2, 0, 1))
    for a in arrays:
        assert a.dtype == np.float64 and a.flags.writeable
        a += 1.0
    np.testing.assert_array_equal(arrays[0], np.full((2, 3), 2.0))
    assert arrays[1] == 5.0 and arrays[1].shape == ()
    np.testing.assert_array_equal(arrays[2], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("name", ["jeh", "jet"])
def test_inconsistent_head_dims_are_a_data_error(name, blobs, tmp_path):
    # swap the dims of w1 so the payload size still matches
    blob = bytearray(blobs[name])
    blob[5:9], blob[9:13] = blob[9:13], blob[5:9]
    with pytest.raises(DataError, match="inconsistent"):
        load_blob(name, bytes(blob), str(tmp_path / f"s.{name}"))


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_bit_flips_load_cleanly_or_raise_data_error(name, blobs, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("flip") / f"f.{name}")

    @settings(max_examples=150, deadline=None, database=None)
    @given(st.integers(0, 8 * len(blobs[name]) - 1))
    def flip(bit):
        blob = bytearray(blobs[name])
        blob[bit // 8] ^= 1 << (bit % 8)
        try:
            load_blob(name, bytes(blob), path)
        except DataError:
            pass

    flip()


def test_write_that_raises_partway_keeps_previous_file(tmp_path):
    path = tmp_path / "labels.txt"
    write_file(str(path), "1\n2\n")
    with pytest.raises(TypeError):
        write_file(str(path), "3\n", None)  # the first part is written, then None fails
    assert path.read_text() == "1\n2\n"
    assert os.listdir(tmp_path) == ["labels.txt"]


def test_write_file_creates_the_directory_and_joins_parts(tmp_path):
    path = tmp_path / "a" / "b" / "f.bin"
    write_file(str(path), "t\u00e9xt\n", b"\x00\x01", memoryview(np.array([1.0])))
    assert path.read_bytes() == "t\u00e9xt\n".encode() + b"\x00\x01" + np.array([1.0]).tobytes()


def _mode(call: ast.Call) -> ast.expr:
    """The mode (or os.open flags) node of an open call; "r" if not given."""
    return call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))


def _writes(call: ast.Call) -> bool:
    """Whether a call makes a directory, or opens a file with a mode (or
    os.open flags) that is not a literal read-only mode."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("makedirs", "mkdir"):
        return True
    if name != "open":
        return False
    mode = _mode(call)
    return not isinstance(mode, ast.Constant) or bool(set(mode.value) & set("wax+"))


def _package_trees():
    """(path, parsed module) of every source file of the package."""
    for path in sorted(pathlib.Path(jezsl.__file__).parent.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _inside(tree, path, module: str, function: str) -> set[int]:
    """ids of the nodes of `function` in `tree` when `path` is `module`."""
    if path.name != module:
        return set()
    return {id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == function
            for node in ast.walk(fn)}


def test_write_file_is_the_only_write_path():
    found = []
    for path, tree in _package_trees():
        allowed = _inside(tree, path, "linalg.py", "write_file")
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in allowed and _writes(node)]
    assert found == []


def test_l2_normalize_rows_is_the_only_row_normaliser():
    # One function scales rows to unit norm and refuses a row whose norm is
    # too small or not finite, so the norm floor is read nowhere else: not
    # imported, not compared against, outside that function and its definition.
    found = []
    for path, tree in _package_trees():
        allowed = _inside(tree, path, "linalg.py", "l2_normalize_rows")
        if path.name == "linalg.py":  # the definition
            allowed |= {id(node) for node in ast.walk(tree)
                        if isinstance(getattr(node, "ctx", None), ast.Store)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if id(node) not in allowed
                  and "EPS_NORM" in (getattr(node, "id", None), getattr(node, "attr", None),
                                     getattr(node, "name", None))]
    assert found == []


def test_read_arrays_is_the_only_binary_read_path():
    # Every binary file is read by the one codec reader, which checks its
    # magic, version, size and values, so no format is read a second way.
    found = []
    for path, tree in _package_trees():
        allowed = _inside(tree, path, "linalg.py", "read_arrays")
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in allowed
                  and getattr(node.func, "id", None) == "open" and not _writes(node)
                  and "b" in _mode(node).value]
    assert found == []


def test_read_lines_is_the_only_text_read_path():
    # Every text file, config files and manifests included, is read by the
    # one text reader, which decodes it as UTF-8 and names a file that is
    # not, so no text file is read or decoded a second way.
    found = []
    for path, tree in _package_trees():
        allowed = _inside(tree, path, "data.py", "_read_lines")
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in allowed
                  and getattr(node.func, "id", None) == "open" and not _writes(node)
                  and "b" not in _mode(node).value]
    assert found == []


def test_only_cli_main_reaches_stderr_and_nothing_logs():
    # One output path per stream: commands report on stdout and in their
    # files, and cli.main prints a failed command's one error line to stderr.
    # No logging layer adds another.
    found = []
    for path, tree in _package_trees():
        allowed = _inside(tree, path, "cli.py", "main")
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(f"{node.module}.{a.name}" for a in node.names)]
            else:
                names = []
            if any(n.partition(".")[0] == "logging" or n == "sys.stderr" for n in names):
                found.append(f"{path.name}:{node.lineno}: imports {', '.join(names)}")
            if (isinstance(node, ast.Attribute) and node.attr in ("stderr", "__stderr__")
                    and id(node) not in allowed):
                found.append(f"{path.name}:{node.lineno}: {node.attr}")
    assert found == []


def test_every_text_open_is_utf8():
    # Every writer writes UTF-8, so the locale's encoding must not decide how
    # a text file reads back.
    found = []
    for path, tree in _package_trees():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                continue
            mode = _mode(node)
            if isinstance(mode, ast.Constant) and "b" in mode.value:
                continue
            encoding = next((k.value for k in node.keywords if k.arg == "encoding"), None)
            if not (isinstance(encoding, ast.Constant) and encoding.value == "utf-8"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_readme_names_only_what_exists():
    # A renamed or deleted function must not live on in the README. Every
    # backticked identifier with an underscore, and every part of a dotted
    # jezsl name, is a word of the package source or a workload or metric
    # name of the benchmark. Spans with a "/" are paths and are skipped.
    ident = re.compile(r"[A-Za-z_]\w*")
    repo = pathlib.Path(__file__).parent.parent
    known = {word for path in pathlib.Path(jezsl.__file__).parent.rglob("*.py")
             for word in ident.findall(path.read_text(encoding="utf-8"))}
    bench = json.loads((repo / "BENCHMARK.json").read_text(encoding="utf-8"))
    known |= {word for key in ("workloads", "end_to_end", "per_layer")
              for entry in bench[key] for word in ident.findall(entry["name"])}
    readme = (repo / "README.md").read_text(encoding="utf-8")
    spans = [s for s in re.findall(r"`([^`\n]+)`", readme) if "/" not in s]
    named = {word for s in spans for word in ident.findall(s) if "_" in word}
    named |= {word for s in spans for dotted in re.findall(r"\bjezsl((?:\.\w+)+)", s)
              for word in dotted.split(".")[1:]}
    assert sorted(named - known) == []
