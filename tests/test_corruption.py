"""A corruption sweep over the files the pipeline writes and reads back.

A small seeded run (gen-synth, train-embed, embed, train-zsl) is made once.
Each file that a later command reads gets every mutation of a fixed list
that applies to it, and every command that reads the file then runs on the
mutated tree, in process. A failed command must exit 2 or 3 with one
stderr line, a data error must name the mutated file, and a command may
succeed only where the file still holds valid data.
"""

import os
import warnings

import numpy as np
import pytest

from jezsl import cli
from jezsl.data import FILES
from jezsl.heads import HEAD_RANKS


def _flip(blob: bytes, at: int, bit: int) -> bytes:
    return blob[:at] + bytes([blob[at] ^ bit]) + blob[at + 1:]


def _lines(edit):
    """A mutation of a text file's lines; a binary file is left out."""
    def mutate(blob, header):
        if header is not None:
            return None
        return b"".join(edit(blob.splitlines(keepends=True)))
    return mutate


# name -> mutate(blob, header) -> bytes, or None where the mutation does not
# apply. `header` is a binary file's header size, None for a text file.
MUTATIONS = {
    "half": lambda b, h: b[:len(b) // 2],
    "magic_only": lambda b, h: b[:4],
    # Binary: the low byte of the first dim. Text: the first byte, which then
    # is no UTF-8 start byte.
    "flip_header": lambda b, h: _flip(b, 5 if h else 0, 0x80),
    # Binary: the top exponent bit of the first value, which makes it huge or
    # non-finite. Text: the middle byte, which stays ASCII.
    "flip_payload": lambda b, h: _flip(b, h + 7 if h else len(b) // 2, 0x40),
    "nan": lambda b, h: None if h is None else b[:h] + np.float64(np.nan).tobytes() + b[h + 8:],
    # The last line over the first: it parses, but need not fit.
    "bad_line": _lines(lambda ls: ls[-1:] + ls[1:]),
    "drop_line": _lines(lambda ls: ls[1:]),
    "dup_line": _lines(lambda ls: ls[:1] + ls),
}

MATRIX_HEADER = 5 + 4 * 2
ANNOTATION_READERS = ("train-embed", "train-zsl", "eval")
# file of the run -> (header size or None, the commands that read it)
SWEPT = {
    "data/" + FILES["visual"]: (MATRIX_HEADER, ("train-embed", "embed")),
    "data/" + FILES["sentences"]: (MATRIX_HEADER, ("train-embed",)),
    "data/" + FILES["groups"]: (None, ("train-embed",)),
    "data/" + FILES["labels"]: (None, ANNOTATION_READERS),
    "data/" + FILES["attributes"]: (MATRIX_HEADER, ANNOTATION_READERS),
    "data/" + FILES["attribute_classes"]: (None, ANNOTATION_READERS),
    "data/" + FILES["splits"]: (None, ANNOTATION_READERS),
    "data/" + FILES["assignments"]: (None, ANNOTATION_READERS),
    "embed/head_v.jeh": (5 + 4 * sum(HEAD_RANKS), ("embed",)),
    "zsl/model.jec": (MATRIX_HEADER, ("eval",)),
}


def _commands(root, out):
    """Each command's argument list, reading the run under `root` and writing
    under `out`."""
    p = lambda *parts: os.path.join(root, *parts)
    q = lambda *parts: os.path.join(out, *parts)
    return {
        "train-embed": ["train-embed", "--data", p("data"), "--out", q("embed"),
                        "--epochs", "1", "--dim", "4", "--batch-size", "8"],
        "embed": ["embed", "--checkpoint", p("embed", "head_v.jeh"),
                  "--features", p("data", FILES["visual"]), "--out", q("emb.jef")],
        "train-zsl": ["train-zsl", "--data", p("data"), "--features", p("emb.jef"),
                      "--out", q("zsl"), "--epochs", "2"],
        "eval": ["eval", "--data", p("data"), "--features", p("emb.jef"),
                 "--model", p("zsl", "model.jec"), "--out", q("eval")],
    }


@pytest.fixture(scope="module")
def run_tree(tmp_path_factory):
    """The run's root, and the commands that read it and write elsewhere."""
    root = str(tmp_path_factory.mktemp("sweep"))
    assert cli.main(["gen-synth", "--out", os.path.join(root, "data"), "--classes", "6",
                     "--seen", "4", "--per-class", "5", "--d-visual", "4",
                     "--d-sentence", "4", "--d-attr", "3", "--seed", "7"]) == 0
    making = _commands(root, root)
    for command in ("train-embed", "embed", "train-zsl"):
        assert cli.main(making[command]) == 0, command
    return root, _commands(root, os.path.join(root, "out"))


# (file, mutation) pairs after which every command that reads the file
# exits 0, because the file still holds valid data.
STILL_VALID = {
    # The last group id over the first: any integer is a valid group.
    ("data/groups.txt", "bad_line"),
    # The first value grows huge but stays finite, which the attributes and
    # W may hold.
    ("data/attributes.jef", "flip_payload"),
    ("zsl/model.jec", "flip_payload"),
}


def test_corruption_sweep(run_tree, capsys):
    root, commands = run_tree
    passed, runs = set(), 0
    for name, (header, readers) in SWEPT.items():
        path = os.path.join(root, name)
        with open(path, "rb") as fh:
            original = fh.read()
        try:
            for mutation, mutate in MUTATIONS.items():
                blob = mutate(original, header)
                if blob is None:
                    continue
                with open(path, "wb") as fh:
                    fh.write(blob)
                for command in readers:
                    capsys.readouterr()
                    # Outside a test, a warning would be one more stderr line.
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        code = cli.main(commands[command])  # raises nothing
                    err = capsys.readouterr().err
                    case = (name, mutation, command, err, [str(w.message) for w in caught])
                    assert not caught, case
                    runs += 1
                    assert code in (0, 2, 3), case
                    if code == 0:
                        passed.add((name, mutation))
                        assert err == "", case
                    else:
                        assert err.count("\n") == 1 and err.endswith("\n"), case
                    if code == 2:
                        assert path in err, case
        finally:
            with open(path, "wb") as fh:
                fh.write(original)
    assert runs == 131
    assert passed == STILL_VALID
