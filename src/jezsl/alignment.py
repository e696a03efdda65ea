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

Distances come from one Gram product, D^2 = |z_i|^2 + |z_j|^2 - 2 z_i.z_j,
exactly symmetric. Cells whose D^2 falls below 2% of the largest |z|^2 are
recomputed from their differences with the coordinates summed in order, so
identical rows are exactly 0 apart and near-duplicates keep their exact
distance. Besides D, the coefficients C and the two masks, all (2b, 2b),
the kernel holds the (2b, 2b) Gram matrix, then a (2b, 2b) mask of the
cells below the cut, while distances are formed, and otherwise a few chunks
that fit in a budget of 2^12 cells at a time, whatever the rows. Every
cell is computed the same way in whatever chunk it falls, so the chunking
moves no bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import NON_NEGATIVE, POSITIVE, Config, as_matrix, option

# Cells per chunk of the sort and gradient passes, which take as many rows
# as fit (at least one), so b <= 32 runs each pass as one chunk; the exact
# distance pass takes such blocks of rows, _CELLS // d of their near cells
# at a time. Beyond the four (2b, 2b) arrays, the Gram matrix and the mask
# of near cells, temporaries stay O(_CELLS + 2b + d).
_CELLS = 2**12
# Distances whose Gram D^2 falls below this share of the largest squared
# row norm are recomputed from differences. Above it the Gram form's error
# is a few ulps of the distance itself.
_NEAR = 0.02


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
    # D^2 = |z_i|^2 + |z_j|^2 - 2 G_ij from one Gram product. numpy sends
    # z @ z.T to syrk, which mirrors one triangle, so G is exactly
    # symmetric; (|z_i|^2 - G_ij) + (|z_j|^2 - G_ij) then is too, because
    # addition commutes. Its error, a few ulps of the largest |z|^2, would
    # swamp a small distance, so every cell below _NEAR of that is
    # recomputed from its differences: identical rows stay exactly 0.
    gram = z @ z.T
    sq = gram.diagonal().copy()
    out = sq[:, None] - gram
    out += np.subtract(sq, gram, out=gram)
    del gram
    near = out < _NEAR * sq.max()
    np.fill_diagonal(near, False)  # exactly 0 already
    np.sqrt(np.maximum(out, 0.0, out=out), out=out)
    # Coordinate-major, summed in order by cumsum: np.add.reduce would sum
    # a single cell's coordinates pairwise. Blocks of rows of at most
    # _CELLS cells (at least one row) bound the near cells' indices, and
    # _CELLS // d cells at a time their differences, even where every row
    # coincides and every cell is near.
    n, d = z.shape
    zt = np.ascontiguousarray(z.T)
    block, step = max(1, _CELLS // n), max(1, _CELLS // max(1, d))
    for r in range(0, n, block):
        # flatnonzero: np.nonzero of a 2-D mask is ten times slower.
        cells = np.flatnonzero(near[r : r + block])
        for c in range(0, len(cells), step):
            i, j = np.divmod(cells[c : c + step], n)
            i += r
            diff = zt[:, i] - zt[:, j]
            np.multiply(diff, diff, out=diff)
            out[i, j] = np.sqrt(np.cumsum(diff, axis=0, out=diff)[-1])
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
