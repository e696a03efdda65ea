"""Standard and generalized zero-shot evaluation metrics.

T1 is the mean per-class top-1 accuracy over unseen test classes in the
ZSL regime. u and s are GZSL mean per-class accuracies over unseen and seen
test data, H their harmonic mean. All values are kept in [0, 1] internally
and scaled to percentages only for display.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compat import AttributeTable, LabeledEmbeddings, ids_outside, infer_batch


@dataclass
class GzslReport:
    t1: float
    u: float
    s: float
    h: float
    per_class: dict[int, tuple[float, int]] = field(default_factory=dict)


def per_class_accuracy(
    predictions, labels, classes
) -> tuple[dict[int, tuple[float, int]], float]:
    """Accuracy per class and the class-balanced mean.

    `classes` is an array-like of class ids in any order. Classes without
    test samples are excluded from the mean (0/0 undefined).
    Returns ({class_id: (accuracy, sample_count)}, mean).
    """
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(predictions) != len(labels):
        raise ValueError(
            f"{len(predictions)} predictions vs {len(labels)} labels"
        )
    classes = np.sort(np.asarray(classes, dtype=np.int64))
    outside = ids_outside(labels, classes)
    if outside:
        raise ValueError(f"labels outside the class set: {outside}")

    col = np.searchsorted(classes, labels)
    counts = np.bincount(col, minlength=len(classes))
    hits = np.bincount(col[predictions == labels], minlength=len(classes))
    present = np.flatnonzero(counts)
    accs = hits[present] / counts[present]
    per_class = dict(zip(classes[present].tolist(),
                         zip(accs.tolist(), counts[present].tolist())))
    mean = float(np.mean(accs)) if len(accs) else 0.0
    return per_class, mean


def harmonic_mean(u: float, s: float) -> float:
    """2us/(u+s); 0 when both are 0. Consistent on either [0,1] or percent scale."""
    if u < 0 or s < 0:
        raise ValueError(f"harmonic_mean: negative input ({u}, {s})")
    if u + s == 0:
        return 0.0
    return 2.0 * u * s / (u + s)


def evaluate(w: np.ndarray, test: LabeledEmbeddings, table: AttributeTable) -> GzslReport:
    """Full protocol for W on one test set, scored by one infer_batch call:
    T1 in the ZSL regime over its unseen-class rows, u and s in the GZSL
    regime over its unseen-class and seen-class rows, and H."""
    bad = ids_outside(test.labels, table.class_ids)
    if bad:
        raise ValueError(f"test labels outside the split's classes: {bad}")
    unseen = np.isin(test.labels, table.unseen)
    for name, part in (("unseen", unseen), ("seen", ~unseen)):
        if not part.any():
            raise ValueError(f"evaluate: empty {name} test split")

    zsl, gzsl = infer_batch(w, test.embeddings, table)
    labels_u, labels_s = test.labels[unseen], test.labels[~unseen]
    _, t1 = per_class_accuracy(zsl[unseen], labels_u, table.unseen)
    per_u, u = per_class_accuracy(gzsl[unseen], labels_u, table.class_ids)
    per_s, s = per_class_accuracy(gzsl[~unseen], labels_s, table.class_ids)
    return GzslReport(t1=t1, u=u, s=s, h=harmonic_mean(u, s), per_class={**per_u, **per_s})


def format_report(report: GzslReport) -> str:
    """Aligned plain-text table, percentages with one decimal."""
    lines = [
        "metric      value",
        "------      -----",
        f"T1          {100.0 * report.t1:5.1f}",
        f"u           {100.0 * report.u:5.1f}",
        f"s           {100.0 * report.s:5.1f}",
        f"H           {100.0 * report.h:5.1f}",
        "",
        "class   accuracy   samples",
    ]
    for cid in sorted(report.per_class):
        acc, count = report.per_class[cid]
        lines.append(f"{cid:<7d} {100.0 * acc:8.1f}   {count:d}")
    return "\n".join(lines) + "\n"


def format_kv(report: GzslReport) -> str:
    """Machine-readable key-value lines with full precision, [0,1] scale."""
    lines = [
        f"t1={report.t1:.17g}",
        f"u={report.u:.17g}",
        f"s={report.s:.17g}",
        f"h={report.h:.17g}",
    ]
    for cid in sorted(report.per_class):
        acc, count = report.per_class[cid]
        lines.append(f"class_{cid}_accuracy={acc:.17g}")
        lines.append(f"class_{cid}_samples={count}")
    return "\n".join(lines) + "\n"
