"""Dense float64 linear algebra, RNG helpers, the artifact codec, and configs.

Everything is backed by numpy with float64 storage. Reductions rely on
numpy's fixed-order kernels, so repeated runs on the same build are
bit-identical. Seeded generators are PCG64 (counter-based), which produces
the same stream on every platform.

Every binary artifact (`.jef`, `.jeh`, `.jec`, `.jet`) is a list of float64
arrays written by `write_arrays` and read back by `read_arrays`: a 4-byte
magic, a version byte, the uint32 LE dims of every array in order, then
the arrays' row-major float64 LE payloads in the same order. The reader is
told each array's rank, so the header carries no per-array bookkeeping.
`write_file` writes every artifact, text files included, atomically.

A config dataclass (`Config`) declares each field once, with `option`: its
default, help, bound and CLI name. The CLI builds its options from them.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import field, fields
from itertools import accumulate

import numpy as np

from .errors import DataError, NumericalError

# Below this norm, normalization is refused instead of risking a silent
# blow-up that would corrupt training invisibly.
EPS_NORM = 1e-12


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; identical seed gives identical draws."""
    return np.random.default_rng(seed)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array, raising on bad input."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name}: expected 2-D array, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise NumericalError(f"{name}: contains non-finite entries")
    return m


def l2_normalize_rows(m: np.ndarray, name: str = "l2_normalize_rows") -> tuple:
    """(unit rows, row norms) of a 2-D float64 array. The first row whose norm
    is below EPS_NORM or not finite (NaN, inf or overflowing squares) raises."""
    norms = np.sqrt(np.add.reduce(m * m, 1))
    ok = (EPS_NORM <= norms) & (norms < math.inf)
    if not ok.all():
        bad = int(np.argmin(ok))
        why = f"below {EPS_NORM:g}" if norms[bad] < EPS_NORM else "non-finite"
        raise NumericalError(f"{name} row {bad} has norm {norms[bad]:g} {why}")
    return m / norms[:, None], norms


# --- binary artifact codec ---------------------------------------------------


def write_file(path: str, *parts) -> None:
    """Write the str (UTF-8) and bytes-like parts to `path` atomically.

    The parent directory is created if need be. The parts go to a temp file
    beside `path`, which os.replace then moves over it, so a crash or an
    error mid-write leaves the previous file at `path` intact, and the temp
    file is removed.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for part in parts:
                fh.write(part.encode() if isinstance(part, str) else part)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write or the replace failed
            os.unlink(tmp)


def write_arrays(path: str, magic: bytes, version: int, arrays) -> None:
    """Write float64 arrays with `write_file`.

    The rank of each array is not stored; the reader supplies it. Non-finite
    values, which `read_arrays` refuses, are refused here before anything is
    written. Each payload is written from the array's own C-ordered buffer,
    not a copy.
    """
    arrays = [np.asarray(a, "<f8", order="C") for a in arrays]
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise NumericalError(f"{path}: refusing to write non-finite values")
    dims = [d for a in arrays for d in a.shape]
    if any(d >= 2**32 for d in dims):
        raise DataError(f"{path}: array dims {dims} exceed uint32")
    header = magic + struct.pack(f"<B{len(dims)}I", version, *dims)
    write_file(path, header, *(a.data for a in arrays))


def read_arrays(path: str, magic: bytes, version: int, ranks) -> list[np.ndarray]:
    """Read what `write_arrays` wrote; every malformed file is a DataError.

    The payload is read straight into one float64 array, allocated only once
    the file's size matches the header; the returned arrays are writeable
    views of it.
    """
    header = 5 + 4 * sum(ranks)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(header)
        if head[:4] != magic:
            raise DataError(f"{path}: bad magic {head[:4]!r}, expected {magic!r}")
        if len(head) > 4 and head[4] != version:
            raise DataError(
                f"{path}: unsupported {magic.decode()} version {head[4]}, expected {version}"
            )
        if len(head) < header:
            raise DataError(f"{path}: header truncated at {len(head)} bytes (need {header})")
        shapes = consecutive(struct.unpack_from(f"<{sum(ranks)}I", head, 5), ranks)
        sizes = [math.prod(s) for s in shapes]
        expected = header + 8 * sum(sizes)
        if size == expected:
            flat = np.empty((expected - header) // 8, dtype="<f8")
            # What is really there, should the file have changed since fstat.
            size = header + fh.readinto(flat) + len(fh.read(1))
    if size != expected:
        raise DataError(
            f"{path}: payload size mismatch, expected {expected} bytes "
            f"(arrays {', '.join('x'.join(map(str, s)) or 'scalar' for s in shapes)} "
            f"after a {header}-byte header), got {size}"
        )
    if not np.all(np.isfinite(flat)):
        raise DataError(f"{path}: payload contains non-finite values")
    return [v.reshape(s) for v, s in zip(consecutive(flat, sizes), shapes)]


def consecutive(seq, sizes) -> list:
    """The consecutive slices of `seq` with these lengths, in order; views
    when `seq` is an array."""
    return [seq[start : start + n] for start, n in zip(accumulate(sizes, initial=0), sizes)]


# --- config fields -----------------------------------------------------------

# A bound is (text, test): the value must be <text>. Each test is written so
# that NaN, for which every comparison is false, fails it.
POSITIVE = ("finite and > 0", lambda x: 0 < x < math.inf)
NON_NEGATIVE = ("finite and >= 0", lambda x: 0 <= x < math.inf)
UNIT = ("in [0, 1]", lambda x: 0 <= x <= 1)
# The resume bundle stores the seed as float64, which holds every integer
# only up to 2**53; past it two seeds can look the same.
SEED = ("in [0, 2**53]", lambda x: 0 <= x <= 2**53)


def at_least(n):
    return (f">= {n}", lambda x: x >= n)


def one_of(*choices):
    return ("one of " + "|".join(choices), lambda x: x in choices)


def option(default, help: str = "", bound=None, cli: str | None = None):
    """A dataclass field that holds its help text, bound and CLI name.

    `cli` names the field's option when it differs from the field name
    ("lr" for learning_rate); "" marks a field that no option sets.
    """
    return field(default=default, metadata={"help": help, "bound": bound, "cli": cli})


class Config:
    """Base of the config dataclasses, whose fields are made by `option`."""

    @classmethod
    def cli_name(cls, name: str) -> str:
        """The CLI option of field `name`; a name that is no field keeps its own."""
        cli = next((f.metadata["cli"] for f in fields(cls) if f.name == name), None)
        return "--" + (cli or name).replace("_", "-")

    def validate(self, name=str) -> None:
        """ValueError for the first field outside its bound, then for a
        broken rule. `name` turns a field name into the one messages use."""
        for f in fields(self):
            bound, value = f.metadata["bound"], getattr(self, f.name)
            if bound is not None and not bound[1](value):
                raise ValueError(f"{name(f.name)} must be {bound[0]}, got {value!r}")
        self.rules(name)

    def rules(self, name) -> None:
        """The rules that span fields; none unless a config adds them."""
