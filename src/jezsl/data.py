"""File formats and the seeded synthetic multimodal dataset generator.

Feature files are one matrix in the shared binary codec
(`linalg.write_arrays`): magic "JEF1", version byte 1, uint32 LE rows/cols,
then the row-major float64 LE payload. Labels and group ids live in
companion text files, one integer per line, read as UTF-8 by `_read_lines`.
Every file, text included, is written atomically by `linalg.write_file`.

The generator produces class-clustered visual features, caption features
carrying a class-unique semantic direction, and per-class attributes that
can be forced identical across "collision" groups of classes, making those
classes unresolvable from attributes alone while captions stay informative.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .compat import AttributeTable, id_array
from .errors import DataError
from .linalg import (POSITIVE, SEED, UNIT, Config, as_matrix, at_least, l2_normalize_rows,
                     make_rng, option, read_arrays, write_arrays, write_file)

FEATURE_MAGIC = b"JEF1"
FEATURE_VERSION = 1

ASSIGNMENTS = ("train", "test_seen", "test_unseen")
# Share of each seen class's samples that `generate` assigns to train.
TRAIN_FRACTION = 0.8
# Noise values per draw of `generate` (1 MiB of float64), rounded down to
# whole classes but at least one class.
_DRAW_VALUES = 2**17


# --- feature matrices --------------------------------------------------------


def write_features(m: np.ndarray, path: str) -> None:
    write_arrays(path, FEATURE_MAGIC, FEATURE_VERSION, [as_matrix(m, path)])


def read_features(path: str) -> np.ndarray:
    return read_arrays(path, FEATURE_MAGIC, FEATURE_VERSION, (2,))[0]


# --- labels, groups, splits --------------------------------------------------


def write_ids(ids, path: str) -> None:
    write_file(path, "".join(f"{v}\n" for v in np.asarray(ids, dtype=np.int64).tolist()))


def _read_lines(path: str) -> list[str]:
    """The file's lines without line ends (text mode reads \r\n and \r as \n)
    or a leading byte-order mark; a file that is not UTF-8 is a DataError
    naming it and the offset of the first bad byte in the file."""
    try:
        # Not "utf-8-sig", which counts that offset from after the mark.
        with open(path, encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff").split("\n")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _first_bad_line(lines: list[str], ok) -> tuple[int, str]:
    """1-based number and stripped text of the first non-blank line failing ok."""
    return next((n, ln.strip()) for n, ln in enumerate(lines, 1)
                if ln.strip() and not ok(ln.strip()))


def _is_int64(s: str) -> bool:
    try:
        np.int64(s)
    except (ValueError, OverflowError):
        return False
    return True


def read_ids(path: str) -> np.ndarray:
    """One integer per line; blank lines are skipped."""
    lines = _read_lines(path)
    try:
        # Casting str to int64 parses with int(), which ignores surrounding
        # whitespace as strip() does.
        return np.array(list(filter(str.strip, lines)), dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        n, ln = _first_bad_line(lines, _is_int64)
        raise DataError(f"{path}:{n}: non-integer id line {ln!r}") from exc


def write_split(path: str, seen, unseen) -> None:
    write_file(path, "seen: " + " ".join(str(int(c)) for c in sorted(seen)) + "\n",
               "unseen: " + " ".join(str(int(c)) for c in sorted(unseen)) + "\n")


def read_split(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The seen and unseen class ids, each as id_array gives them."""
    split: dict[str, np.ndarray] = {}
    for n, ln in enumerate(_read_lines(path), 1):
        ln = ln.strip()
        if not ln:
            continue
        key, _, rest = ln.partition(":")
        try:
            ids = id_array(rest.split())
        except ValueError as exc:
            raise DataError(f"{path}:{n}: non-integer class id in {ln!r}") from exc
        key = key.strip()
        if key not in ("seen", "unseen"):
            raise DataError(f"{path}:{n}: unknown split line {ln!r}")
        if key in split:
            raise DataError(f"{path}:{n}: repeated '{key}:' line")
        split[key] = ids
    if len(split) < 2:
        raise DataError(f"{path}: missing 'seen:' or 'unseen:' line")
    seen, unseen = split["seen"], split["unseen"]
    overlap = seen[np.isin(seen, unseen)]
    if overlap.size:
        raise DataError(f"{path}: seen/unseen classes overlap: {overlap.tolist()}")
    return seen, unseen


def write_assignments(assignments, path: str) -> None:
    unknown = [a for a in assignments if a not in ASSIGNMENTS]
    if unknown:
        raise DataError(f"unknown assignment {unknown[0]!r}")
    write_file(path, "".join(a + "\n" for a in assignments))


def read_assignments(path: str) -> np.ndarray:
    """One assignment name per line, as an array of str; blank lines are skipped."""
    lines = _read_lines(path)
    out = list(filter(None, map(str.strip, lines)))
    if not set(out) <= set(ASSIGNMENTS):
        n, a = _first_bad_line(lines, ASSIGNMENTS.__contains__)
        raise DataError(f"{path}:{n}: unknown assignment {a!r}")
    return np.array(out, dtype=object)


def validate_split(
    labels: np.ndarray,
    table: AttributeTable,
    assignments: np.ndarray | list[str],
) -> None:
    """Load-time split discipline against the table's (disjoint) class split;
    violations are errors, never warnings."""
    if len(labels) != len(assignments):
        raise DataError(f"{len(labels)} labels vs {len(assignments)} assignments")
    labels = np.asarray(labels)
    assignments = np.asarray(assignments)
    to_unseen = assignments == "test_unseen"
    allowed = np.where(to_unseen, np.isin(labels, table.unseen), np.isin(labels, table.seen))
    bad = np.flatnonzero(~allowed)
    if bad.size:
        i = int(bad[0])
        label = int(labels[i])
        if label in table.class_ids:
            kind = f"{'seen' if to_unseen[i] else 'unseen'}-class label {label}"
        else:
            kind = f"label {label}, outside the class split"
        raise DataError(f"sample {i}: {assignments[i]} sample has {kind}")


# --- synthetic generator -----------------------------------------------------


@dataclass
class SynthConfig(Config):
    n_classes: int = option(10, "total number of classes", at_least(2), cli="classes")
    n_seen: int = option(7, "number of seen classes (ids 0..seen-1)", at_least(1), cli="seen")
    samples_per_class: int = option(50, "samples per class", at_least(2), cli="per_class")
    d_visual: int = option(16, "visual feature dimensionality", at_least(2))
    d_sentence: int = option(16, "sentence feature dimensionality", at_least(2))
    d_attr: int = option(16, "attribute dimensionality", at_least(2))
    cluster_spread: float = option(0.3, "cluster noise scale", POSITIVE, cli="spread")
    caption_signal: float = option(0.8, "class-unique share of caption direction", UNIT)
    captions_per_image: int = option(1, "caption variants per image", at_least(1))
    collide: str = option("", "attribute collision groups, e.g. '3,4' or '3,4;5,6'")
    seed: int = option(0, bound=SEED, cli="")

    def collision_groups(self, name=str) -> list[list[int]]:
        """The ';'- or space-separated groups of ','-separated class ids that
        `collide` lists; ValueError, under name("collide"), for a non-integer
        id or a group that names one class (`3` or `3,3`)."""
        groups = []
        for part in self.collide.replace(";", " ").split():
            try:
                ids = [int(v) for v in part.split(",") if v != ""]
            except ValueError:
                raise ValueError(f"{name('collide')} class ids must be integers, "
                                 f"got {part!r}") from None
            if len(set(ids)) == 1:
                raise ValueError(f"{name('collide')} group needs >= 2 classes, got {part!r}")
            if ids:
                groups.append(ids)
        return groups

    def rules(self, name) -> None:
        groups = self.collision_groups(name)
        seen, classes = name("n_seen"), name("n_classes")
        if self.n_seen >= self.n_classes:
            raise ValueError(f"{seen} must be < {classes}, got {seen} {self.n_seen} "
                             f"{classes} {self.n_classes}")
        outside = sorted({c for group in groups for c in group if not 0 <= c < self.n_classes})
        if outside:
            raise ValueError(f"{name('collide')} class ids must be in "
                             f"[0, {classes}) = [0, {self.n_classes}), got {outside}")


def generate(cfg: SynthConfig) -> Dataset:
    """Deterministic synthetic dataset; a pure function of the config.

    Per class: a random unit visual prototype, a unit semantic direction that
    doubles as the attribute row, and captions mixing that direction with a
    direction shared across all classes. Collision groups overwrite their
    attribute rows with the first member's row, bit-identically.

    Sample noise is drawn as a (C, n, d_visual + k * d_sentence) array for n
    samples per class and k captions per image: row (c, s) holds sample s of
    class c's visual noise, then its k caption noises of d_sentence each.
    That is the order in which a per-sample loop drawing d_visual then
    (k, d_sentence) normals consumes the stream, and `standard_normal` fills
    in C order with no state carried between calls, so the values, and the
    float operations applied to them, are those of that loop.

    It is drawn in blocks of whole classes, about _DRAW_VALUES values each,
    into one reused buffer that is scaled in place and added straight into
    the preallocated `visual` (each sample's row repeated k times) and
    `sentences`, so generation holds those two arrays plus one block. The
    block size changes no value; a test checks it.
    """
    cfg.validate()
    rng = make_rng(cfg.seed)
    C, k = cfg.n_classes, cfg.captions_per_image

    semantic = l2_normalize_rows(rng.standard_normal((C, cfg.d_attr)))[0]
    prototypes = l2_normalize_rows(rng.standard_normal((C, cfg.d_visual)))[0]
    shared = l2_normalize_rows(rng.standard_normal((1, cfg.d_sentence)))[0][0]
    if cfg.d_sentence == cfg.d_attr:
        caption_dirs = semantic
    else:
        lift = rng.standard_normal((cfg.d_attr, cfg.d_sentence)) / np.sqrt(cfg.d_attr)
        caption_dirs = l2_normalize_rows(semantic @ lift)[0]

    attributes = semantic.copy()
    for group in cfg.collision_groups():
        for cid in group[1:]:
            attributes[cid] = attributes[group[0]]

    n, d_v, d_s = cfg.samples_per_class, cfg.d_visual, cfg.d_sentence
    base = cfg.caption_signal * caption_dirs + (1.0 - cfg.caption_signal) * shared
    visual = np.empty((C, n, k, d_v))
    sentences = np.empty((C, n, k, d_s))
    per_draw = max(1, _DRAW_VALUES // (n * (d_v + k * d_s)))
    noise = np.empty((min(per_draw, C), n, d_v + k * d_s))
    for c0 in range(0, C, per_draw):
        block = noise[:C - c0]  # the last draw may hold fewer classes
        c1 = c0 + len(block)
        rng.standard_normal(out=block)
        block *= cfg.cluster_spread
        np.add(prototypes[c0:c1, None, None], block[:, :, None, :d_v], out=visual[c0:c1])
        np.add(base[c0:c1, None, None], block[:, :, d_v:].reshape(-1, n, k, d_s),
               out=sentences[c0:c1])

    n_train = min(max(1, int(round(TRAIN_FRACTION * n))), n - 1)
    seen_class = ["train"] * (n_train * k) + ["test_seen"] * ((n - n_train) * k)
    assignments = seen_class * cfg.n_seen + ["test_unseen"] * ((C - cfg.n_seen) * n * k)
    labels = np.repeat(np.arange(C, dtype=np.int64), n * k)

    table = AttributeTable(
        class_ids=list(range(C)),
        attributes=attributes,
        seen=range(cfg.n_seen),
        unseen=range(cfg.n_seen, C),
    )
    return Dataset(
        visual=visual.reshape(C * n * k, d_v),
        sentences=sentences.reshape(C * n * k, d_s),
        labels=labels,
        groups=labels.copy(),
        attributes=table,
        assignments=np.array(assignments, dtype=object),
    )


# --- dataset directory convention -------------------------------------------

FILES = {
    "visual": "visual.jef",
    "sentences": "sentences.jef",
    "labels": "labels.txt",
    "groups": "groups.txt",
    "attributes": "attributes.jef",
    "attribute_classes": "attribute_classes.txt",
    "splits": "splits.txt",
    "assignments": "assignments.txt",
}


def save_dataset(data: Dataset, out_dir: str) -> None:
    join = lambda key: os.path.join(out_dir, FILES[key])
    write_features(data.visual, join("visual"))
    write_features(data.sentences, join("sentences"))
    write_ids(data.labels, join("labels"))
    write_ids(data.groups, join("groups"))
    write_features(data.attributes.attributes, join("attributes"))
    write_ids(data.attributes.class_ids, join("attribute_classes"))
    write_split(join("splits"), data.attributes.seen, data.attributes.unseen)
    write_assignments(data.assignments, join("assignments"))


@dataclass
class Annotations:
    """What zero-shot training and evaluation read of a dataset directory:
    per-row labels and assignments, and the class attribute table."""

    labels: np.ndarray
    attributes: AttributeTable
    assignments: np.ndarray  # (N,) str objects, each one of ASSIGNMENTS

    def rows(self, *assignments: str) -> np.ndarray:
        """Indices of the rows with any of these assignments, in row order."""
        return np.flatnonzero(np.isin(self.assignments, assignments))


@dataclass
class Dataset(Annotations):
    """Annotations plus the paired features and group ids that train-embed reads."""

    visual: np.ndarray
    sentences: np.ndarray
    groups: np.ndarray


def load_annotations(data_dir: str) -> Annotations:
    """Labels, attribute table, class split and assignments, split-checked."""
    join = lambda key: os.path.join(data_dir, FILES[key])
    labels = read_ids(join("labels"))
    attrs = read_features(join("attributes"))
    attr_classes = read_ids(join("attribute_classes"))
    seen, unseen = read_split(join("splits"))
    assignments = read_assignments(join("assignments"))
    try:
        table = AttributeTable(class_ids=[int(c) for c in attr_classes], attributes=attrs,
                               seen=seen, unseen=unseen)
    except (ValueError, DataError) as exc:
        raise DataError(f"{join('attribute_classes')}: {exc}") from exc
    try:
        validate_split(labels, table, assignments)
    except DataError as exc:
        raise DataError(f"{join('labels')}, {join('assignments')}: {exc}") from exc
    return Annotations(labels=labels, attributes=table, assignments=assignments)


def load_dataset(data_dir: str) -> Dataset:
    """load_annotations, then the visual and sentence features and group ids."""
    join = lambda key: os.path.join(data_dir, FILES[key])
    annotations = load_annotations(data_dir)
    visual = read_features(join("visual"))
    sentences = read_features(join("sentences"))
    groups = read_ids(join("groups"))
    counts = {"visual": len(visual), "sentences": len(sentences),
              "labels": len(annotations.labels), "groups": len(groups)}
    if len(set(counts.values())) > 1:
        raise DataError("row counts disagree: "
                        + ", ".join(f"{join(key)} {n}" for key, n in counts.items()))
    return Dataset(**vars(annotations), visual=visual, sentences=sentences, groups=groups)
