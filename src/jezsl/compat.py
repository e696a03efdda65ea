"""Zero-shot compatibility backbone.

A bilinear score s(x, a) = x.T W a is trained on seen-class embeddings with
a multiclass hinge ranking loss and used for 1-nearest-neighbor style
inference: argmax over unseen classes (ZSL) or all classes (GZSL), ties
broken toward the lowest class id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .linalg import as_matrix, make_rng, read_arrays, write_arrays

MODEL_MAGIC = b"JEC1"
MODEL_VERSION = 1


@dataclass
class AttributeTable:
    """Per-class semantic vectors plus the seen/unseen class split."""

    class_ids: list[int]
    attributes: np.ndarray  # (C, d_attr)
    seen_ids: set[int]
    unseen_ids: set[int]

    def __post_init__(self):
        self.attributes = as_matrix(self.attributes, "attributes")
        if len(self.class_ids) != len(self.attributes):
            raise ValueError(
                f"{len(self.class_ids)} class ids vs {len(self.attributes)} attribute rows"
            )
        if len(set(self.class_ids)) != len(self.class_ids):
            raise ValueError("duplicate class ids in attribute table")
        if self.seen_ids & self.unseen_ids:
            raise DataError(
                f"seen/unseen classes overlap: {sorted(self.seen_ids & self.unseen_ids)}"
            )
        known = set(self.class_ids)
        missing = (self.seen_ids | self.unseen_ids) - known
        if missing:
            raise DataError(f"classes without attribute rows: {sorted(missing)}")
        self._row = {cid: i for i, cid in enumerate(self.class_ids)}

    @property
    def d_attr(self) -> int:
        return self.attributes.shape[1]

    def attribute(self, class_id: int) -> np.ndarray:
        return self.attributes[self._row[class_id]]

    def rows_for(self, class_ids: list[int]) -> np.ndarray:
        return self.attributes[[self._row[c] for c in class_ids]]


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


@dataclass
class CompatibilityModel:
    w: np.ndarray  # (d_embed, d_attr)
    margin: float = 0.1
    learning_rate: float = 0.01
    epochs: int = 100
    seed: int = 0

    def scores(self, x: np.ndarray, attrs: np.ndarray) -> np.ndarray:
        return (x @ self.w) @ attrs.T


def ranking_loss(
    w: np.ndarray, data: LabeledEmbeddings, table: AttributeTable, margin: float
) -> float:
    """Sum over samples and wrong seen classes of max(0, margin + s_wrong - s_true)."""
    seen = sorted(table.seen_ids)
    attrs = table.rows_for(seen)
    col = {c: i for i, c in enumerate(seen)}
    scores = (data.embeddings @ w) @ attrs.T  # (N, C_seen)
    true_col = np.array([col[int(c)] for c in data.labels])
    true_scores = scores[np.arange(len(scores)), true_col]
    hinge = margin + scores - true_scores[:, None]
    hinge[np.arange(len(scores)), true_col] = 0.0
    return float(np.sum(np.maximum(hinge, 0.0)))


def ranking_loss_grad(
    w: np.ndarray, data: LabeledEmbeddings, table: AttributeTable, margin: float
) -> np.ndarray:
    """Exact subgradient of ranking_loss w.r.t. w (boundary terms inactive)."""
    seen = sorted(table.seen_ids)
    attrs = table.rows_for(seen)
    col = {c: i for i, c in enumerate(seen)}
    scores = (data.embeddings @ w) @ attrs.T
    true_col = np.array([col[int(c)] for c in data.labels])
    true_scores = scores[np.arange(len(scores)), true_col]
    active = margin + scores - true_scores[:, None] > 0.0
    active[np.arange(len(scores)), true_col] = False
    # d/dw of (s_wrong - s_true) = x (a_wrong - a_true)^T per active pair
    coeff = active.astype(np.float64)
    grad = data.embeddings.T @ (coeff @ attrs)
    counts = coeff.sum(axis=1)
    grad -= (data.embeddings * counts[:, None]).T @ attrs[true_col]
    return grad


def train_compatibility(
    data: LabeledEmbeddings,
    table: AttributeTable,
    margin: float = 0.1,
    learning_rate: float = 0.01,
    epochs: int = 100,
    seed: int = 0,
) -> CompatibilityModel:
    """Seeded per-sample SGD on the ranking loss, starting from W = 0."""
    if len(data.embeddings) == 0:
        raise ValueError("train_compatibility: empty training data")
    outside = set(int(c) for c in data.labels) - table.seen_ids
    if outside:
        raise ValueError(f"training labels outside seen classes: {sorted(outside)}")

    seen = sorted(table.seen_ids)
    attrs = table.rows_for(seen)
    col = {c: i for i, c in enumerate(seen)}
    d_embed = data.embeddings.shape[1]
    w = np.zeros((d_embed, table.d_attr))
    rng = make_rng(seed)

    for _ in range(epochs):
        for i in rng.permutation(len(data.embeddings)):
            x = data.embeddings[i]
            ci = col[int(data.labels[i])]
            scores = (x @ w) @ attrs.T
            violating = margin + scores - scores[ci] > 0.0
            violating[ci] = False
            if not np.any(violating):
                continue
            a_sum = attrs[violating].sum(axis=0) - np.count_nonzero(violating) * attrs[ci]
            w -= learning_rate * np.outer(x, a_sum)
            if not np.all(np.isfinite(w)):
                raise NumericalError("non-finite compatibility weights during training")

    return CompatibilityModel(
        w=w, margin=margin, learning_rate=learning_rate, epochs=epochs, seed=seed
    )


def infer(
    model: CompatibilityModel,
    x: np.ndarray,
    table: AttributeTable,
    regime: str,
) -> int:
    """Classify one embedding; regime is "zsl" (unseen only) or "gzsl" (all)."""
    preds = infer_batch(model, np.asarray(x, dtype=np.float64)[None, :], table, regime)
    return int(preds[0])


def infer_batch(
    model: CompatibilityModel,
    x: np.ndarray,
    table: AttributeTable,
    regime: str,
) -> np.ndarray:
    x = as_matrix(x, "inference input")
    if x.shape[1] != model.w.shape[0]:
        raise ValueError(
            f"inference input width {x.shape[1]} != model embedding dim {model.w.shape[0]}"
        )
    if regime == "zsl":
        candidates = sorted(table.unseen_ids)
    elif regime == "gzsl":
        candidates = sorted(table.seen_ids | table.unseen_ids)
    else:
        raise ValueError(f"unknown regime {regime!r}, expected 'zsl' or 'gzsl'")
    if not candidates:
        raise ValueError(f"empty candidate class set for regime {regime!r}")
    attrs = table.rows_for(candidates)
    scores = model.scores(x, attrs)
    # argmax returns the first maximum; candidates are sorted, so ties go to
    # the lowest class id
    best = np.argmax(scores, axis=1)
    ids = np.asarray(candidates, dtype=np.int64)
    return ids[best]


def save_model(model: CompatibilityModel, path: str) -> None:
    write_arrays(path, MODEL_MAGIC, MODEL_VERSION, [model.w])


def load_model(path: str) -> CompatibilityModel:
    return CompatibilityModel(w=read_arrays(path, MODEL_MAGIC, MODEL_VERSION, (2,))[0])
