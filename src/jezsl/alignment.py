"""Structure-preserving alignment loss, evaluated by one fused kernel.

Four hinge-loss families over Euclidean distances between unit-norm
embedding rows:

  term1: image anchor, positive sentence vs negative sentence (weight 1)
  term2: sentence anchor, positive image vs negative image (weight lambda1)
  term3: image anchor, within-modal neighborhood (weight lambda2)
  term4: sentence anchor, within-modal neighborhood (weight lambda3)

Rows sharing a group id are mutual positives. Triplets never cross minibatch
boundaries. Every valid triplet of the minibatch contributes ("batch-all"),
but none is listed: `alignment_loss` sorts each anchor row's positive
thresholds together with its negative distances, which counts for every
distance how many active hinges it enters, in O(b^2 log b). The loss and its
exact (sub)gradient are checked against an enumerating oracle, a brute-force
loop and finite differences in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix

# Anchor rows per chunk of the distance and merge passes. Temporaries stay
# O(b^2 + ANCHOR_CHUNK * b * d) however large the minibatch.
ANCHOR_CHUNK = 64


@dataclass
class LossConfig:
    margin: float = 0.1
    lambda1: float = 2.0
    lambda2: float = 0.1
    lambda3: float = 0.2

    def validate(self) -> None:
        if self.margin <= 0:
            raise ValueError(f"margin must be > 0, got {self.margin}")
        for name in ("lambda1", "lambda2", "lambda3"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class MiniBatch:
    visual: np.ndarray  # (b, d_out), unit-norm rows
    sentence: np.ndarray  # (b, d_out), unit-norm rows
    group_ids: np.ndarray  # (b,)

    def __post_init__(self):
        self.visual = as_matrix(self.visual, "visual embeddings")
        self.sentence = as_matrix(self.sentence, "sentence embeddings")
        self.group_ids = np.asarray(self.group_ids)
        if not (len(self.visual) == len(self.sentence) == len(self.group_ids)):
            raise ValueError(
                "minibatch row counts disagree: "
                f"{len(self.visual)} visual, {len(self.sentence)} sentence, "
                f"{len(self.group_ids)} group ids"
            )
        if self.visual.shape[1] != self.sentence.shape[1]:
            raise ValueError("visual and sentence embeddings must share width")


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Broadcast differences rather than the Gram-matrix identity, which
    # loses precision near d = 0 and would move hinges across zero.
    out = np.empty((len(a), len(b)))
    for r in range(0, len(a), ANCHOR_CHUNK):
        diff = a[r : r + ANCHOR_CHUNK, None, :] - b[None, :, :]
        np.multiply(diff, diff, out=diff)
        np.sqrt(np.sum(diff, axis=2), out=out[r : r + ANCHOR_CHUNK])
    return out


def term_inputs(batch: MiniBatch) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(distances, positive mask, negative mask) for each of the four terms.

    Row i of each triple describes anchor i: term t's hinges are
    m + D[i, j] - D[i, k] over positives j and negatives k. Cross-modal
    terms pair a row with its own counterpart (j == i); within-modal terms
    exclude it.
    """
    x, y = batch.visual, batch.sentence
    dxy = _pairwise_distances(x, y)
    g = batch.group_ids
    same = g[:, None] == g[None, :]
    other = ~same
    within = same.copy()
    np.fill_diagonal(within, False)
    # term2 anchors are sentences: d(x_j, y_i) indexes dxy transposed.
    return [
        (dxy, same, other),
        (dxy.T, same, other),
        (_pairwise_distances(x, x), within, other),
        (_pairwise_distances(y, y), within, other),
    ]


def _hinge_term(dist, pos, neg, margin):
    """Hinge sum, active and total triplet counts, and dL/dD coefficients
    of one term.

    Per anchor row, the thresholds T = m + D[i, pos] and the negative
    distances D[i, neg] are sorted together, T first so that ties put the
    threshold before the distance. A positive's active count is then the
    number of negatives sorted before it, and a negative's the number of
    thresholds sorted after it: exactly the triples with fl(m + d_pos) >
    d_neg, so hinges at exactly zero are inactive.
    """
    b = dist.shape[1]
    coef = np.empty(dist.shape)
    hinge_sum = 0.0
    active = 0
    for r in range(0, len(dist), ANCHOR_CHUNK):
        d = dist[r : r + ANCHOR_CHUNK]
        thresh = margin + d
        keys = np.concatenate(
            [np.where(pos[r : r + ANCHOR_CHUNK], thresh, -np.inf),
             np.where(neg[r : r + ANCHOR_CHUNK], d, np.inf)],
            axis=1,
        )
        order = np.argsort(keys, axis=1, kind="stable")
        is_neg = order >= b
        # Padding sorts outside the real entries, so its counts are zero.
        sorted_counts = np.where(
            is_neg, b - np.cumsum(~is_neg, axis=1), np.cumsum(is_neg, axis=1)
        )
        counts = np.empty_like(sorted_counts)
        np.put_along_axis(counts, order, sorted_counts, axis=1)
        c_pos, c_neg = counts[:, :b], counts[:, b:]
        hinge_sum += float(np.sum(c_pos * thresh) - np.sum(c_neg * d))
        active += int(np.sum(c_pos))
        coef[r : r + ANCHOR_CHUNK] = c_pos - c_neg
    total = int(np.sum(np.sum(pos, axis=1) * np.sum(neg, axis=1)))
    return hinge_sum, active, total, coef


def _over_distance(coef: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """coef / dist, with the zero subgradient of ||u - v|| where dist == 0."""
    return np.divide(coef, dist, out=np.zeros_like(coef), where=dist > 0.0)


def alignment_loss(
    batch: MiniBatch, cfg: LossConfig
) -> tuple[float, np.ndarray, int, int, np.ndarray, np.ndarray]:
    """Loss, unweighted per-term hinge sums, active and total triplet
    counts, and the exact subgradient w.r.t. both embedding matrices.

    Returns (loss, term_sums[4], active, total, dx, dy). Active hinges enter
    the gradient through d||u - v||/du = (u - v)/||u - v||, taken as zero
    where u == v (a valid subgradient of the norm).
    """
    cfg.validate()
    x, y = batch.visual, batch.sentence
    terms = term_inputs(batch)
    sums = np.zeros(4)
    active = total = 0
    coefs = []
    for t, (dist, pos, neg) in enumerate(terms):
        sums[t], n_active, n_total, c = _hinge_term(dist, pos, neg, cfg.margin)
        active += n_active
        total += n_total
        coefs.append(c)
    loss = float(sums[0] + cfg.lambda1 * sums[1] + cfg.lambda2 * sums[2] + cfg.lambda3 * sums[3])

    # Fold each family's coefficients into one b x b matrix G with
    # dL/du_a = sum_j G[a, j] (u_a - v_j): two matmuls per family.
    (dxy, _, _), _, (dxx, _, _), (dyy, _, _) = terms
    g_xy = _over_distance(coefs[0] + cfg.lambda1 * coefs[1].T, dxy)
    g_xx = _over_distance(cfg.lambda2 * (coefs[2] + coefs[2].T), dxx)
    g_yy = _over_distance(cfg.lambda3 * (coefs[3] + coefs[3].T), dyy)
    dx = (np.sum(g_xy, axis=1) + np.sum(g_xx, axis=1))[:, None] * x - g_xy @ y - g_xx @ x
    dy = (np.sum(g_xy, axis=0) + np.sum(g_yy, axis=1))[:, None] * y - g_xy.T @ x - g_yy @ y
    return loss, sums, active, total, dx, dy
