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
distance how many active hinges it enters, in O(b^2 log b).

All four terms share one pass. With z = [x; y], one (2b, 2b) distance
matrix viewed as (4b, b) holds every term's anchor rows (`term_inputs`).
Each cell of a row gets one packed uint64 sort key: a positive its
threshold, a negative its distance, and a within-modal row's own column
an all-ones key that sorts last and counts nothing. One default-kind
argsort of (rows, b) keys per chunk counts the active hinges, and the
gradient of all four terms is one matmul with (C + C^T) / D. The loss and
its exact (sub)gradient are checked against an enumerating oracle, a
brute-force loop and finite differences in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import NON_NEGATIVE, POSITIVE, Config, as_matrix, option

# Rows per distance tile and per chunk of the sort and gradient passes.
# Temporaries stay O(b^2 + ANCHOR_CHUNK * (b + ANCHOR_CHUNK * d)).
ANCHOR_CHUNK = 64


@dataclass
class LossConfig(Config):
    margin: float = option(0.1, "hinge margin", POSITIVE)
    lambda1: float = option(2.0, "weight of the sentence-anchored ranking term", NON_NEGATIVE)
    lambda2: float = option(0.1, "weight of the visual neighborhood term", NON_NEGATIVE)
    lambda3: float = option(0.2, "weight of the sentence neighborhood term", NON_NEGATIVE)


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


def _pairwise_distances(z: np.ndarray) -> np.ndarray:
    # Broadcast differences rather than the Gram-matrix identity, which
    # loses precision near d = 0 and would move hinges across zero. Tiles
    # are coordinate-major so every ufunc loop runs over a tile row, and
    # only tiles on or above the diagonal are computed (D is symmetric).
    # A diagonal tile needs no mirror: a - b == -(b - a) in IEEE
    # arithmetic, so it is already exactly symmetric.
    n = len(z)
    zt = np.ascontiguousarray(z.T)
    out = np.empty((n, n))
    for r in range(0, n, ANCHOR_CHUNK):
        for c in range(r, n, ANCHOR_CHUNK):
            diff = zt[:, r : r + ANCHOR_CHUNK, None] - zt[:, None, c : c + ANCHOR_CHUNK]
            np.multiply(diff, diff, out=diff)
            tile = out[r : r + ANCHOR_CHUNK, c : c + ANCHOR_CHUNK]
            np.sqrt(np.add.reduce(diff, axis=0), out=tile)
            if c != r:
                out[c : c + ANCHOR_CHUNK, r : r + ANCHOR_CHUNK] = tile.T
    return out


def term_inputs(batch: MiniBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked (distances, positive mask, negative mask) of all four terms.

    Each is (4b, b): the (2b, 2b) matrix over z = [x; y] with every row
    split in two, so row 2a + h holds anchor z_a against block h of z
    (0: images, 1: sentences). Image anchor i owns rows 2i (term3) and
    2i + 1 (term1); sentence anchor i owns rows 2(b + i) (term2) and
    2(b + i) + 1 (term4). A row's hinges are m + D[r, j] - D[r, k] over its
    positives j and negatives k. Cross-modal rows pair a row with its own
    counterpart (j == i); within-modal rows exclude it.
    """
    g = batch.group_ids
    b = len(g)
    pos = np.tile(g[:, None] == g[None, :], (2, 2))
    neg = ~pos
    np.fill_diagonal(pos, False)  # the within-modal blocks' j == i
    dist = _pairwise_distances(np.concatenate([batch.visual, batch.sentence]))
    return dist.reshape(4 * b, b), pos.reshape(4 * b, b), neg.reshape(4 * b, b)


# Sort key of a within-modal row's own column, above every other key.
_SELF = np.uint64(2**64 - 1)


def alignment_loss(
    batch: MiniBatch, cfg: LossConfig
) -> tuple[float, np.ndarray, int, int, np.ndarray, np.ndarray]:
    """Loss, unweighted per-term hinge sums, active and total triplet
    counts, and the exact subgradient w.r.t. both embedding matrices.

    Returns (loss, term_sums[4], active, total, dx, dy). Active hinges enter
    the gradient through d||u - v||/du = (u - v)/||u - v||, taken as zero
    where u == v (a valid subgradient of the norm). `cfg` is not checked
    here, once per batch; `train_joint` validates it once per run.
    """
    dist, pos, neg = term_inputs(batch)
    b = dist.shape[1]
    # Anchor i, with n_i rows in its group, has n_i positives in its
    # cross-modal row and n_i - 1 in its within-modal row, each against
    # b - n_i negatives, once per modality.
    ids = np.sort(batch.group_ids)
    n = ids.searchsorted(batch.group_ids, "right") - ids.searchsorted(batch.group_ids, "left")
    total = 2 * int(np.dot(b - n, 2 * n - 1))
    # Weight and positive count of each stacked row: term3, term1 for
    # images, term2, term4 for sentences.
    row_weight = np.repeat([[cfg.lambda2, 1.0], [cfg.lambda1, cfg.lambda3]], b, axis=0).ravel()
    row_pos = np.tile(np.repeat(n, 2), 2) - np.repeat([[1, 0], [0, 1]], b, axis=0).ravel()
    upto = np.arange(1, b + 1)
    coef = np.empty(dist.shape)
    row_sums = np.empty(len(dist))
    active = 0
    for r in range(0, len(dist), 2 * ANCHOR_CHUNK):
        rows = slice(r, r + 2 * ANCHOR_CHUNK)
        d = dist[rows]
        thresh = cfg.margin + d
        # One key per cell. Non-negative float64s sort like their bit
        # patterns; the low bit puts a threshold before a distance equal
        # to it. Equal keys are of one kind, so the counts do not depend on
        # the sort algorithm.
        keys = np.where(neg[rows], d.view(np.uint64) << 1 | 1,
                        np.where(pos[rows], thresh.view(np.uint64) << 1, _SELF))
        order = np.argsort(keys, axis=1)
        flat = order + b * np.arange(len(order))[:, None]
        is_neg = neg[rows].reshape(-1)[flat]
        # A threshold's count is the negatives sorted before it, a
        # distance's the thresholds sorted after it: at slot k, the row's
        # positives less the k + 1 slots up to k, plus the negatives there.
        # These are exactly the triples with fl(m + d_pos) > d_neg, so
        # hinges at exactly zero are inactive. The self key sorts last, so
        # it is never among the slots before a distance, and the masks
        # drop its own count.
        sorted_counts = np.cumsum(is_neg, axis=1, dtype=np.float64)
        sorted_counts += is_neg * (row_pos[rows, None] - upto)
        counts = np.empty(keys.shape)
        counts.reshape(-1)[flat] = sorted_counts
        c_pos, c_neg = counts * pos[rows], counts * neg[rows]
        row_sums[rows] = np.add.reduce(c_pos * thresh, 1) - np.add.reduce(c_neg * d, 1)
        active += int(np.add.reduce(c_pos, None))
        coef[rows] = (c_pos - c_neg) * row_weight[rows, None]
    (t3, t1), (t2, t4) = row_sums.reshape(2, b, 2).sum(axis=1)
    sums = np.array([t1, t2, t3, t4])
    loss = float(sums[0] + cfg.lambda1 * sums[1] + cfg.lambda2 * sums[2] + cfg.lambda3 * sums[3])

    # With C the weighted coefficients as (2b, 2b), dL/dz_a =
    # sum_c G[a, c] (z_a - z_c) for G = (C + C^T) / D, zero where D == 0.
    # G overwrites D, so the pass holds two (2b, 2b) arrays.
    c = coef.reshape(2 * b, 2 * b)
    g = dist.reshape(2 * b, 2 * b)
    for r in range(0, 2 * b, ANCHOR_CHUNK):
        rows = slice(r, r + ANCHOR_CHUNK)
        np.divide(c[rows] + c[:, rows].T, g[rows], out=g[rows], where=g[rows] > 0.0)
    z = np.concatenate([batch.visual, batch.sentence])
    dz = np.add.reduce(g, 1)[:, None] * z - g @ z
    return loss, sums, active, total, dz[:b], dz[b:]
