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

Besides D, the coefficients C and the two masks, all (2b, 2b), the kernel
holds one (d, 32, 32) distance tile, or a few chunks of rows that fit in a
budget of 2^12 cells, at a time. Every cell is computed the same way in
whatever tile or chunk it falls, so the chunking moves no bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import NON_NEGATIVE, POSITIVE, Config, as_matrix, option

# Cells per chunk of the sort and gradient passes, which take as many rows
# as fit (at least one): b <= 32 runs each pass as one chunk. Temporaries
# beyond the four (2b, 2b) arrays stay O(d * _TILE^2 + max(_CELLS, 2b)).
_CELLS = 2**12
# Rows of a (d, _TILE, _TILE) distance tile. Even, so that with n = 2b no
# tile is 1 x 1: numpy would sum such a tile's d coordinates pairwise, not
# in order, and at d >= 8 some distances would change in the last bit.
_TILE = 32


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
    for r in range(0, n, _TILE):
        for c in range(r, n, _TILE):
            diff = zt[:, r : r + _TILE, None] - zt[:, None, c : c + _TILE]
            np.multiply(diff, diff, out=diff)
            tile = out[r : r + _TILE, c : c + _TILE]
            np.sqrt(np.add.reduce(diff, axis=0), out=tile)
            if c != r:
                out[c : c + _TILE, r : r + _TILE] = tile.T
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
    # As (2, b, 2, b): anchor block, anchor, column block, column.
    pos = np.equal(g[:, None, None], g, out=np.empty((2, b, 2, b), bool)).reshape(2 * b, 2 * b)
    neg = ~pos
    np.fill_diagonal(pos, False)  # the within-modal blocks' j == i
    dist = _pairwise_distances(np.concatenate([batch.visual, batch.sentence]))
    return dist.reshape(4 * b, b), pos.reshape(4 * b, b), neg.reshape(4 * b, b)


# Sort key of a within-modal row's own column, above every other key.
_SELF = np.uint64(2**64 - 1)


def _count_hinges(
    dist: np.ndarray, pos: np.ndarray, neg: np.ndarray, margin: float
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Active-hinge counts of the stacked rows from `term_inputs`.

    Returns (coef, row_sums, active, total): per cell, the active hinges it
    enters, negated for a negative, as (4b, b); each row's unweighted hinge
    sum; and the active and total triplet counts. The chunks' temporaries
    are freed on return, before the gradient pass allocates its own.
    """
    b = dist.shape[1]
    row_pos = pos.sum(axis=1)
    # Each row pairs every one of its positives with every one of its
    # negatives.
    total = int(np.dot(row_pos, neg.sum(axis=1)))
    upto = np.arange(1, b + 1)
    coef = np.empty(dist.shape)
    row_sums = np.empty(len(dist))
    active = 0
    step = max(1, _CELLS // b)
    for r in range(0, len(dist), step):
        rows = slice(r, r + step)
        d = dist[rows]
        thresh = margin + d
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
        np.subtract(c_pos, c_neg, out=coef[rows])
    return coef, row_sums, active, total


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
    coef, row_sums, active, total = _count_hinges(dist, pos, neg, cfg.margin)
    # Term weights by anchor block and column block: term3, term1 for
    # images, term2, term4 for sentences.
    weights = np.array([[cfg.lambda2, 1.0], [cfg.lambda1, cfg.lambda3]])
    by_block = coef.reshape(2, b, 2, b)
    by_block *= weights[:, None, :, None]
    (t3, t1), (t2, t4) = row_sums.reshape(2, b, 2).sum(axis=1)
    sums = np.array([t1, t2, t3, t4])
    loss = float(sums[0] + cfg.lambda1 * sums[1] + cfg.lambda2 * sums[2] + cfg.lambda3 * sums[3])

    # With C the weighted coefficients as (2b, 2b), dL/dz_a =
    # sum_c G[a, c] (z_a - z_c) for G = (C + C^T) / D, zero where D == 0.
    # G overwrites D, so the pass holds two (2b, 2b) arrays.
    c = coef.reshape(2 * b, 2 * b)
    g = dist.reshape(2 * b, 2 * b)
    step = max(1, _CELLS // (2 * b))
    for r in range(0, 2 * b, step):
        rows = slice(r, r + step)
        np.divide(c[rows] + c[:, rows].T, g[rows], out=g[rows], where=g[rows] > 0.0)
    z = np.concatenate([batch.visual, batch.sentence])
    dz = np.add.reduce(g, 1)[:, None] * z - g @ z
    return loss, sums, active, total, dz[:b], dz[b:]
