"""Zero-shot compatibility backbone.

A bilinear score s(x, a) = x.T W a is trained on seen-class embeddings with
a multiclass hinge ranking loss, by seeded SGD on 32-row minibatches through
the same gradient kernel that gradcheck verifies. Inference scores each
embedding against every class once, in bounded blocks of rows, then takes
the argmax over unseen classes (ZSL) and over all classes (GZSL), ties
broken toward the lowest class id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericalError
from .linalg import (NON_NEGATIVE, POSITIVE, SEED, Config, as_matrix, at_least, make_rng,
                     option, read_arrays, write_arrays)

MODEL_MAGIC = b"JEC1"
MODEL_VERSION = 1
# Rows per SGD step of train_compatibility (train-embed's default --batch-size).
BATCH_ROWS = 32
# Score cells (rows x classes) per block of infer_batch: 256 KiB of float64.
_SCORE_CELLS = 2**15


def id_array(ids) -> np.ndarray:
    """The distinct class ids of any iterable of ints, as a sorted int64 array."""
    return np.array(sorted({int(c) for c in ids}), dtype=np.int64)


# np.unique and np.setdiff1d import numpy.ma on first use, which costs more
# than these checks; np.isin does not.
def ids_outside(labels: np.ndarray, allowed) -> list[int]:
    """Sorted distinct ids of the int array `labels` that are not in `allowed`."""
    return sorted(set(labels[~np.isin(labels, allowed)].tolist()))


@dataclass
class AttributeTable:
    """Per-class semantic vectors plus the seen/unseen class split, given in
    any order as any iterables. seen and unseen are stored as id_array gives
    them, class_ids as the split's ids sorted, attributes as their rows in
    that order (rows of classes outside the split are dropped)."""

    class_ids: np.ndarray
    attributes: np.ndarray  # (C, d_attr), row i for class_ids[i]
    seen: np.ndarray
    unseen: np.ndarray
    is_unseen: np.ndarray = field(init=False)

    def __post_init__(self):
        self.attributes = as_matrix(self.attributes, "attributes")
        if len(self.class_ids) != len(self.attributes):
            raise ValueError(
                f"{len(self.class_ids)} class ids vs {len(self.attributes)} attribute rows"
            )
        row = {int(c): i for i, c in enumerate(self.class_ids)}
        if len(row) != len(self.class_ids):
            raise ValueError("duplicate class ids in attribute table")
        self.seen, self.unseen = id_array(self.seen), id_array(self.unseen)
        overlap = self.seen[np.isin(self.seen, self.unseen)]
        if overlap.size:
            raise DataError(f"seen/unseen classes overlap: {overlap.tolist()}")
        self.class_ids = np.sort(np.concatenate((self.seen, self.unseen)))
        missing = ids_outside(self.class_ids, list(row))
        if missing:
            raise DataError(f"classes without attribute rows: {missing}")
        self.attributes = self.attributes[[row[c] for c in self.class_ids.tolist()]]
        self.is_unseen = np.isin(self.class_ids, self.unseen)

    @property
    def d_attr(self) -> int:
        return self.attributes.shape[1]


@dataclass
class ZslConfig(Config):
    margin: float = option(0.1, "ranking margin", POSITIVE)
    learning_rate: float = option(0.01, "learning rate", NON_NEGATIVE, cli="lr")
    epochs: int = option(100, "training epochs", at_least(0))
    seed: int = option(0, bound=SEED, cli="")


@dataclass
class LabeledEmbeddings:
    embeddings: np.ndarray  # (N, d)
    labels: np.ndarray  # (N,) class ids

    def __post_init__(self):
        self.embeddings = as_matrix(self.embeddings, "embeddings")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.embeddings) != len(self.labels):
            raise ValueError(
                f"{len(self.embeddings)} embedding rows vs {len(self.labels)} labels"
            )


def _targets(data: LabeledEmbeddings, table: AttributeTable) -> tuple[np.ndarray, ...]:
    """Seen attribute rows in class-id order, a contiguous copy of their
    transpose, and each row's true column among them."""
    outside = ids_outside(data.labels, table.seen)
    if outside:
        raise ValueError(f"labels outside seen classes: {outside}")
    attrs = table.attributes[~table.is_unseen]
    return attrs, np.ascontiguousarray(attrs.T), np.searchsorted(table.seen, data.labels)


def _hinge_args(
    x: np.ndarray, w: np.ndarray, attrs_t: np.ndarray, true_cells: np.ndarray, margin: float
) -> np.ndarray:
    """margin + s_wrong - s_true per (row, seen class), with the true-class
    cells, given by flat index, set to -inf.

    The arguments overwrite the score matrix in place; (margin + s) - s_true
    is the same float operation, in the same order, as on a fresh array.
    """
    args = (x @ w) @ attrs_t
    flat = args.ravel()
    s_true = flat[true_cells]
    args += margin
    args -= s_true[:, None]
    flat[true_cells] = -np.inf
    return args


def _ranking_grad(
    x: np.ndarray, w: np.ndarray, attrs: np.ndarray, attrs_t: np.ndarray,
    true_cells: np.ndarray, margin: float,
) -> np.ndarray:
    """Gradient of the summed hinges over the rows of x w.r.t. w.

    Each active hinge adds x (a_wrong - a_true)^T; the true-class cell of the
    coefficient matrix holds minus the row's active count, so both parts come
    out of one product. Hinges at exactly 0 are inactive, and so are the
    true-class cells (-inf), which hold 0 until the counts are written.
    """
    coeff = _hinge_args(x, w, attrs_t, true_cells, margin)
    np.greater(coeff, 0.0, out=coeff)
    coeff.ravel()[true_cells] = -np.add.reduce(coeff, axis=1)
    return x.T @ (coeff @ attrs)


def hinge_arguments(
    w: np.ndarray, data: LabeledEmbeddings, table: AttributeTable, margin: float
) -> np.ndarray:
    """(N, C_seen) hinge arguments margin + s_wrong - s_true; true-class cells -inf."""
    attrs, attrs_t, true_col = _targets(data, table)
    true_cells = np.arange(len(true_col)) * len(attrs) + true_col
    return _hinge_args(data.embeddings, w, attrs_t, true_cells, margin)


def ranking_loss(
    w: np.ndarray, data: LabeledEmbeddings, table: AttributeTable, margin: float
) -> float:
    """Sum over samples and wrong seen classes of max(0, margin + s_wrong - s_true)."""
    return float(np.sum(np.maximum(hinge_arguments(w, data, table, margin), 0.0)))


def ranking_loss_grad(
    w: np.ndarray, data: LabeledEmbeddings, table: AttributeTable, margin: float
) -> np.ndarray:
    """Exact subgradient of ranking_loss w.r.t. w (boundary terms inactive)."""
    attrs, attrs_t, true_col = _targets(data, table)
    true_cells = np.arange(len(true_col)) * len(attrs) + true_col
    return _ranking_grad(data.embeddings, w, attrs, attrs_t, true_cells, margin)


# A diverging step overflows; the check after its epoch raises NumericalError,
# so numpy's warnings are off.
@np.errstate(over="ignore", invalid="ignore")
def train_compatibility(
    data: LabeledEmbeddings, table: AttributeTable, cfg: ZslConfig = ZslConfig()
) -> np.ndarray:
    """Seeded minibatch SGD on the ranking loss, starting from W = 0; returns W.

    Each epoch draws a permutation of the rows and steps once per slice of
    BATCH_ROWS of it (the last slice may be shorter) with the gradient summed
    over the slice, so the learning rate is per row. A step gathers only its
    own rows, so training holds no shuffled copy of the data. Every step goes
    through _ranking_grad, the kernel of ranking_loss_grad that gradcheck
    verifies. The contiguous transpose of the seen attributes is made once;
    each row's true-class cell, as a flat index into its slice's scores, once
    per epoch. W is checked once per epoch: w -= step leaves an inf or NaN
    entry inf or NaN, so that check finds every failure a check per step would.
    """
    cfg.validate()
    if len(data.embeddings) == 0:
        raise ValueError("train_compatibility: empty training data")
    attrs, attrs_t, true_col = _targets(data, table)
    x = data.embeddings
    w = np.zeros((x.shape[1], table.d_attr))
    rng = make_rng(cfg.seed)
    margin, learning_rate = cfg.margin, cfg.learning_rate

    for epoch in range(cfg.epochs):
        order = rng.permutation(len(x))
        true_cells = np.arange(len(x)) % BATCH_ROWS * len(attrs) + true_col[order]
        for start in range(0, len(x), BATCH_ROWS):
            part = slice(start, start + BATCH_ROWS)
            step = _ranking_grad(x[order[part]], w, attrs, attrs_t, true_cells[part], margin)
            step *= learning_rate
            w -= step
        if not np.isfinite(w).all():
            raise NumericalError(f"non-finite compatibility weights after epoch {epoch + 1}")

    return w


def infer_batch(
    w: np.ndarray, x: np.ndarray, table: AttributeTable
) -> tuple[np.ndarray, np.ndarray]:
    """(zsl, gzsl) class ids for the rows of x: the best-scoring unseen class,
    and the best-scoring class of all.

    Rows are scored against the table's rows, which are in class-id order,
    in equal blocks of at most _SCORE_CELLS cells (at least one row), with
    both argmaxes taken per block, so inference holds one block of scores.
    argmax returns the first maximum, so ties go to the lowest class id.

    BLAS picks its kernel by shape, so a row's scores can differ in the last
    bits with its block's row count: on OpenBLAS 0.3.31 at 64 x 32 features
    and 200 classes, blocks of under 7 rows differ from the one-matrix
    product by about 1e-13, and blocks of 7 to 399 rows match it bit for
    bit. Equal blocks keep the last block from being short, so only a tie
    within that roundoff could move a prediction; a test that scores one
    row per block checks the predictions.
    """
    x = as_matrix(x, "inference input")
    if x.shape[1] != w.shape[0]:
        raise ValueError(
            f"inference input width {x.shape[1]} != model embedding dim {w.shape[0]}"
        )
    if w.shape[1] != table.d_attr:
        raise ValueError(
            f"model attribute width {w.shape[1]} != class attribute width {table.d_attr}"
        )
    if not table.unseen.size:
        raise ValueError("no unseen classes to predict")
    zsl = np.empty(len(x), dtype=np.int64)
    gzsl = np.empty(len(x), dtype=np.int64)
    per_block = max(1, _SCORE_CELLS // len(table.class_ids))
    blocks = max(1, -(-len(x) // per_block))  # one empty block for no rows
    edges = [len(x) * b // blocks for b in range(blocks + 1)]
    for block in map(slice, edges, edges[1:]):
        scores = (x[block] @ w) @ table.attributes.T
        zsl[block] = table.unseen[np.argmax(scores[:, table.is_unseen], axis=1)]
        gzsl[block] = table.class_ids[np.argmax(scores, axis=1)]
    return zsl, gzsl


def save_model(w: np.ndarray, path: str) -> None:
    write_arrays(path, MODEL_MAGIC, MODEL_VERSION, [w])


def load_model(path: str) -> np.ndarray:
    return read_arrays(path, MODEL_MAGIC, MODEL_VERSION, (2,))[0]
