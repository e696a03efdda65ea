import tracemalloc

import numpy as np
import pytest

import jezsl.alignment
from jezsl.alignment import LossConfig, MiniBatch, alignment_loss, term_inputs
from jezsl.gradcheck import check_alignment
from jezsl.linalg import l2_normalize_rows, make_rng


def brute_force_loss(batch, cfg):
    """Triple-nested-loop oracle over all valid triples, from the definitions."""
    x, y, g = batch.visual, batch.sentence, batch.group_ids
    b = len(g)

    def d(u, v):
        return float(np.linalg.norm(u - v))

    total = 0.0
    for i in range(b):  # term1: image anchor vs sentences
        for j in range(b):
            for k in range(b):
                if g[j] == g[i] and g[k] != g[i]:
                    total += max(0.0, cfg.margin + d(x[i], y[j]) - d(x[i], y[k]))
    for i in range(b):  # term2: sentence anchor vs images
        for j in range(b):
            for k in range(b):
                if g[j] == g[i] and g[k] != g[i]:
                    total += cfg.lambda1 * max(
                        0.0, cfg.margin + d(x[j], y[i]) - d(x[k], y[i])
                    )
    for i in range(b):  # term3: within visual neighborhood
        for j in range(b):
            for k in range(b):
                if j != i and g[j] == g[i] and g[k] != g[i]:
                    total += cfg.lambda2 * max(
                        0.0, cfg.margin + d(x[i], x[j]) - d(x[i], x[k])
                    )
    for i in range(b):  # term4: within sentence neighborhood
        for j in range(b):
            for k in range(b):
                if j != i and g[j] == g[i] and g[k] != g[i]:
                    total += cfg.lambda3 * max(
                        0.0, cfg.margin + d(y[i], y[j]) - d(y[i], y[k])
                    )
    return total


def mine_triplets(groups):
    """Every valid (anchor, positive, negative) triple, lexicographically.

    Cross-modal triples allow j == i (a row paired with its own counterpart
    in the other stream); within-modal triples require j != i.
    """
    same = groups[:, None] == groups[None, :]
    cross = np.argwhere(same[:, :, None] & ~same[:, None, :])
    within = cross[cross[:, 0] != cross[:, 1]]
    return cross, within


def enumerated_oracle(batch, cfg):
    """The fused kernel's contract, computed by listing every triple.

    Gathers each triple's hinge, then scatters the gradient of every active
    one with np.add.at, taking the zero subgradient of ||u - v|| at u == v.
    Returns (loss, term_sums, per-term active counts, per-term totals, dx, dy).
    """
    x, y = batch.visual, batch.sentence
    cross, within = mine_triplets(batch.group_ids)
    dx, dy = np.zeros_like(x), np.zeros_like(y)
    sums = np.zeros(4)
    active = np.zeros(4, dtype=np.int64)
    total = np.zeros(4, dtype=np.int64)
    families = (
        (x, y, dx, dy, cross, 1.0),
        (y, x, dy, dx, cross, cfg.lambda1),
        (x, x, dx, dx, within, cfg.lambda2),
        (y, y, dy, dy, within, cfg.lambda3),
    )

    def unit(diff, dist):
        return np.divide(diff, dist[:, None], out=np.zeros_like(diff),
                         where=dist[:, None] > 0.0)

    for t, (anchors, others, d_anchors, d_others, triples, weight) in enumerate(families):
        total[t] = len(triples)
        if len(triples) == 0:
            continue
        i, j, k = triples[:, 0], triples[:, 1], triples[:, 2]
        diff_pos = anchors[i] - others[j]
        diff_neg = anchors[i] - others[k]
        dist_pos = np.sqrt(np.sum(diff_pos * diff_pos, axis=1))
        dist_neg = np.sqrt(np.sum(diff_neg * diff_neg, axis=1))
        hinge = cfg.margin + dist_pos - dist_neg
        on = hinge > 0.0
        sums[t] = np.sum(np.maximum(hinge, 0.0))
        active[t] = np.count_nonzero(on)
        gp = weight * unit(diff_pos[on], dist_pos[on])
        gn = weight * unit(diff_neg[on], dist_neg[on])
        np.add.at(d_anchors, i[on], gp - gn)
        np.add.at(d_others, j[on], -gp)
        np.add.at(d_others, k[on], gn)
    loss = float(sums[0] + cfg.lambda1 * sums[1] + cfg.lambda2 * sums[2] + cfg.lambda3 * sums[3])
    return loss, sums, active, total, dx, dy


def assert_matches_oracle(batch, cfg):
    loss, sums, active, total, dx, dy = alignment_loss(batch, cfg)
    o_loss, o_sums, o_active, o_total, o_dx, o_dy = enumerated_oracle(batch, cfg)
    assert np.all(np.abs(sums - o_sums) <= 1e-9)
    assert abs(loss - o_loss) <= 1e-9
    assert active == int(o_active.sum())
    assert total == int(o_total.sum())
    scale = max(np.linalg.norm(o_dx), np.linalg.norm(o_dy))
    assert np.linalg.norm(dx - o_dx) <= 1e-12 * scale
    assert np.linalg.norm(dy - o_dy) <= 1e-12 * scale
    return o_active, o_total


def random_batch(rng, b=None, d=None, n_groups=None):
    b = b or int(rng.integers(3, 13))
    d = d or int(rng.integers(2, 7))
    n_groups = n_groups or int(rng.integers(2, 5))
    groups = rng.integers(0, n_groups, size=b)
    # Two groups at least, unless the batch size or group count rules it out.
    while len(np.unique(groups)) < min(2, b, n_groups):
        groups = rng.integers(0, n_groups, size=b)
    x = l2_normalize_rows(rng.standard_normal((b, d)))[0]
    y = l2_normalize_rows(rng.standard_normal((b, d)))[0]
    return MiniBatch(x, y, groups)


def random_cfg(rng, max_margin=0.5):
    return LossConfig(
        margin=float(rng.uniform(0.05, max_margin)),
        lambda1=float(rng.uniform(0, 3)),
        lambda2=float(rng.uniform(0, 1)),
        lambda3=float(rng.uniform(0, 1)),
    )


def unit_rows(rng, b, d):
    return l2_normalize_rows(rng.standard_normal((b, d)))[0]


# Unit rows are at most 2 apart, so this margin makes every hinge active.
ALL_ACTIVE = LossConfig(margin=3.0)


class TestMining:
    def test_two_groups_example(self):
        rng = make_rng(0)
        batch = MiniBatch(unit_rows(rng, 3, 4), unit_rows(rng, 3, 4), np.array([0, 0, 1]))
        # Anchors 0 and 1 have two cross-modal positives and one negative,
        # anchor 2 one positive and two negatives; within-modal terms drop
        # the anchor's own row.
        o_active, o_total = assert_matches_oracle(batch, ALL_ACTIVE)
        assert o_total.tolist() == [6, 6, 2, 2]
        assert o_active.tolist() == [6, 6, 2, 2]
        _, _, active, total, _, _ = alignment_loss(batch, ALL_ACTIVE)
        assert (active, total) == (16, 16)

    def test_single_group_yields_nothing(self):
        rng = make_rng(1)
        batch = MiniBatch(unit_rows(rng, 4, 3), unit_rows(rng, 4, 3), np.zeros(4, int))
        loss, sums, active, total, dx, dy = alignment_loss(batch, ALL_ACTIVE)
        assert (loss, active, total) == (0.0, 0, 0)
        assert np.all(sums == 0.0) and np.all(dx == 0.0) and np.all(dy == 0.0)
        assert_matches_oracle(batch, ALL_ACTIVE)

    def test_single_element_batch(self):
        rng = make_rng(2)
        batch = MiniBatch(unit_rows(rng, 1, 3), unit_rows(rng, 1, 3), np.array([7]))
        loss, _, active, total, dx, dy = alignment_loss(batch, ALL_ACTIVE)
        assert (loss, active, total) == (0.0, 0, 0)
        assert dx.shape == dy.shape == (1, 3)
        assert np.all(dx == 0.0) and np.all(dy == 0.0)
        assert_matches_oracle(batch, ALL_ACTIVE)

    def test_counts_match_group_sizes_and_deterministic(self):
        rng = make_rng(3)
        batch = random_batch(rng, b=12)
        _, inverse, counts = np.unique(batch.group_ids, return_inverse=True, return_counts=True)
        p = counts[inverse]
        n = len(batch.group_ids) - p
        expected = [np.sum(p * n), np.sum(p * n), np.sum((p - 1) * n), np.sum((p - 1) * n)]
        _, o_total = assert_matches_oracle(batch, LossConfig())
        assert o_total.tolist() == expected
        first = alignment_loss(batch, LossConfig())
        second = alignment_loss(batch, LossConfig())
        assert first[2:4] == second[2:4] and first[3] == sum(expected)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)


class TestKernelMatchesEnumeration:
    def test_random_batches(self):
        rng = make_rng(40)
        for _ in range(150):
            batch = random_batch(rng, b=int(rng.integers(1, 30)),
                                 n_groups=int(rng.integers(1, 6)))
            assert_matches_oracle(batch, random_cfg(rng, max_margin=2.5))

    def test_duplicate_rows_take_zero_subgradient(self):
        rng = make_rng(41)
        for _ in range(30):
            batch = random_batch(rng, b=int(rng.integers(3, 12)))
            batch.visual[1] = batch.visual[0]
            batch.group_ids[1] = batch.group_ids[0]
            batch.sentence[2] = batch.visual[2]
            cfg = random_cfg(rng, max_margin=2.5)
            loss, _, _, _, dx, dy = alignment_loss(batch, cfg)
            assert np.isfinite(loss) and np.all(np.isfinite(dx)) and np.all(np.isfinite(dy))
            assert_matches_oracle(batch, cfg)

    def test_hinge_exactly_at_zero_is_inactive(self):
        # term1 hinges: 0.25 + 0.25 - 0.5 and 0.25 + 9.5 - 9.75, both
        # exactly 0 in floating point. Only term2's (y1: 0.25 + 9.5 - 0.5)
        # is active.
        batch = MiniBatch(
            np.array([[0.0, 0.0], [10.0, 0.0]]),
            np.array([[0.25, 0.0], [0.5, 0.0]]),
            np.array([0, 1]),
        )
        cfg = LossConfig(margin=0.25)
        loss, sums, active, total, _, _ = alignment_loss(batch, cfg)
        assert sums.tolist() == [0.0, 9.25, 0.0, 0.0]
        assert (active, total) == (1, 4)
        assert loss == 2.0 * 9.25
        assert_matches_oracle(batch, cfg)
        # A hair more margin tips both term1 hinges over.
        nudged = LossConfig(margin=0.25 + 1e-12)
        assert alignment_loss(batch, nudged)[2] == 3
        assert_matches_oracle(batch, nudged)

    def test_spans_several_anchor_chunks(self):
        rng = make_rng(42)
        b = 300
        # More than eight sort chunks and gradient chunks.
        cells = jezsl.alignment._CELLS
        assert 4 * b > 8 * (cells // b) and 2 * b > 8 * (cells // (2 * b))
        batches = [random_batch(rng, b=b, d=8, n_groups=60)]
        batches[0].group_ids[1] = batches[0].group_ids[0]
        # Every row its own group, so within-modal rows have no positive;
        # and one group holding every row but one.
        for groups in (np.arange(b), (np.arange(b) == b - 1).astype(int)):
            batches.append(MiniBatch(unit_rows(rng, b, 8), unit_rows(rng, b, 8), groups))
        for batch in batches:
            # A repeated row: d = 0 between positives, or between negatives
            # when every row is its own group.
            batch.visual[1] = batch.visual[0]
            assert_matches_oracle(batch, LossConfig(margin=0.8, lambda1=1.5, lambda2=0.3,
                                                    lambda3=0.4))

    def test_memory_bounded_at_large_batch(self):
        rng = make_rng(43)
        batch = random_batch(rng, b=1024, d=16, n_groups=100)
        tracemalloc.start()
        try:
            alignment_loss(batch, LossConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 128 * 2**20

    def test_memory_is_the_batch_matrices_plus_a_few_chunks(self):
        rng = make_rng(47)
        b = 128
        batch = random_batch(rng, b=b, d=16, n_groups=50)
        alignment_loss(batch, LossConfig())  # numpy's first-call allocations
        tracemalloc.start()
        try:
            alignment_loss(batch, LossConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Distances and coefficients (float64), the two masks (bool), and
        # sixteen chunks of _CELLS float64s.
        assert peak <= (2 * 8 + 2) * (2 * b) ** 2 + 16 * 8 * jezsl.alignment._CELLS

    def test_memory_bound_holds_when_every_row_coincides(self):
        # Every distance is then near zero and recomputed from differences.
        rng = make_rng(49)
        b = 128
        batch = random_batch(rng, b=b, d=16, n_groups=50)
        batch.visual[:] = batch.visual[0]
        batch.sentence[:] = batch.visual[0]
        alignment_loss(batch, LossConfig())
        tracemalloc.start()
        try:
            alignment_loss(batch, LossConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (2 * 8 + 2) * (2 * b) ** 2 + 16 * 8 * jezsl.alignment._CELLS

    @pytest.mark.parametrize("b", [2, 5, 32, 130])
    def test_chunk_and_tile_sizes_change_no_bit(self, monkeypatch, b):
        rng = make_rng(48)
        batch = random_batch(rng, b=b, d=16, n_groups=max(2, b // 4))
        # d = 0 in active hinges: a row equal to its counterpart, and a
        # repeated image row.
        batch.sentence[0] = batch.visual[0]
        batch.visual[1] = batch.visual[0]
        cfg = LossConfig(margin=0.8, lambda1=1.5, lambda2=0.3, lambda3=0.4)
        ref = alignment_loss(batch, cfg)
        # One row per chunk and one exact distance at a time, then the whole
        # batch in one chunk.
        for cells in (1, 4 * b * b * 16 + 1):
            monkeypatch.setattr(jezsl.alignment, "_CELLS", cells)
            got = alignment_loss(batch, cfg)
            assert got[0] == ref[0] and got[2:4] == ref[2:4]
            for a, r in zip(got[1:2] + got[4:], ref[1:2] + ref[4:]):
                assert a.tobytes() == r.tobytes()

    def test_batch_of_32_runs_one_chunk_per_pass(self, monkeypatch):
        batch = random_batch(make_rng(49), b=32, d=16, n_groups=10)
        calls = []

        def counted(name):
            real = getattr(np, name)
            return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

        for name in ("argsort", "divide"):  # one call per sort and gradient chunk
            monkeypatch.setattr(np, name, counted(name))
        alignment_loss(batch, LossConfig())
        assert calls == ["argsort", "divide"]


def grid_batch(rng):
    """Coordinates on a 0.25 grid and a repeated row: equal distances, and
    thresholds equal to distances, are common."""
    b = int(rng.integers(2, 14))
    d = int(rng.integers(1, 4))
    groups = rng.integers(0, int(rng.integers(1, 4)), size=b)
    x = rng.integers(-4, 5, size=(b, d)) * 0.25
    y = rng.integers(-4, 5, size=(b, d)) * 0.25
    x[1] = x[0]
    groups[1] = groups[0]
    return MiniBatch(x, y, groups)


class TestStackedPass:
    def test_term_inputs_follow_the_definition(self):
        rng = make_rng(44)
        for _ in range(40):
            batch = random_batch(rng, b=int(rng.integers(1, 20)),
                                 n_groups=int(rng.integers(1, 5)))
            x, y, g = batch.visual, batch.sentence, batch.group_ids
            b = len(g)
            dist, pos, neg = term_inputs(batch)
            assert dist.shape == pos.shape == neg.shape == (4 * b, b)

            def norms(u, v):
                return np.linalg.norm(u[:, None, :] - v[None, :, :], axis=2)

            same = g[:, None] == g[None, :]
            within = same & ~np.eye(b, dtype=bool)
            # Rows 2i, 2i + 1: image anchor i's term3 and term1 rows; rows
            # 2(b + i), 2(b + i) + 1: sentence anchor i's term2 and term4 rows.
            rows = [(dist[0:2 * b:2], pos[0:2 * b:2], norms(x, x), within),
                    (dist[1:2 * b:2], pos[1:2 * b:2], norms(x, y), same),
                    (dist[2 * b::2], pos[2 * b::2], norms(y, x), same),
                    (dist[2 * b + 1::2], pos[2 * b + 1::2], norms(y, y), within)]
            for d, p, expected_d, expected_p in rows:
                np.testing.assert_allclose(d, expected_d, rtol=0, atol=1e-14)
                np.testing.assert_array_equal(p, expected_p)
            np.testing.assert_array_equal(neg, np.tile(np.repeat(~same, 2, axis=0), (2, 1)))
            assert np.all(dist == dist.reshape(2 * b, 2 * b).T.reshape(4 * b, b))
            _, o_total = assert_matches_oracle(batch, random_cfg(rng))
            assert int(np.sum(pos.sum(axis=1) * neg.sum(axis=1))) == int(o_total.sum())

    def test_counts_do_not_depend_on_the_sort_algorithm(self, monkeypatch):
        rng = make_rng(45)
        batches = [grid_batch(rng) for _ in range(300)]
        cfgs = [LossConfig(margin=0.25 * int(rng.integers(1, 4)),
                           lambda1=1.5, lambda2=0.5, lambda3=0.25) for _ in batches]
        default = [alignment_loss(batch, cfg) for batch, cfg in zip(batches, cfgs)]

        def has_zero_hinge(batch, cfg):
            d, p, n = term_inputs(batch)
            return np.any((cfg.margin + d[:, :, None] - d[:, None, :])[p[:, :, None] & n[:, None, :]] == 0)

        assert any(has_zero_hinge(batch, cfg) for batch, cfg in zip(batches, cfgs))

        real_argsort = np.argsort
        calls = []

        def stable_argsort(a, axis=-1, kind=None):
            calls.append((kind, a.shape))
            return real_argsort(a, axis=axis, kind="stable")

        monkeypatch.setattr(np, "argsort", stable_argsort)
        stable = []
        for batch, cfg in zip(batches, cfgs):
            calls.clear()
            stable.append(alignment_loss(batch, cfg))
            # One key per cell: every sorted row holds exactly b keys.
            assert calls and all(kind is None and shape[1:] == (len(batch.group_ids),)
                                 for kind, shape in calls)
        for got, want in zip(stable, default):
            assert got[0] == want[0] and got[2:4] == want[2:4]
            for a, b in zip(got[1:2] + got[4:], want[1:2] + want[4:]):
                np.testing.assert_array_equal(a, b)


def stacked_distances(batch):
    b = len(batch.group_ids)
    return term_inputs(batch)[0].reshape(2 * b, 2 * b)


def broadcast_distances(z):
    """Every cell from its differences, coordinates summed in order."""
    zt = np.ascontiguousarray(z.T)
    diff = zt[:, :, None] - zt[:, None, :]
    return np.sqrt(np.add.reduce(diff * diff, axis=0))


class TestDistances:
    SEPARATIONS = (1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)

    def test_near_duplicates_take_the_exact_value(self):
        rng = make_rng(50)
        for d in (3, 16, 64):
            b = len(self.SEPARATIONS)
            x, y = unit_rows(rng, b, d), unit_rows(rng, b, d)
            for i, sep in enumerate(self.SEPARATIONS):
                y[i] = x[i] + sep * unit_rows(rng, 1, d)[0]
            batch = MiniBatch(x, y, np.arange(b))
            dist = stacked_distances(batch)
            exact = broadcast_distances(np.concatenate([x, y]))
            for i, sep in enumerate(self.SEPARATIONS):
                assert 0.5 * sep < exact[i, b + i] < 2 * sep
                assert dist[i, b + i] == exact[i, b + i] == dist[b + i, i]

    def test_repeated_row_is_exactly_zero(self):
        rng = make_rng(51)
        for d in (2, 16, 512):
            batch = random_batch(rng, b=8, d=d)
            batch.visual[3] = batch.visual[0]
            batch.sentence[5] = batch.visual[0]
            dist = stacked_distances(batch)
            for i, j in ((0, 3), (0, 13), (3, 13)):
                assert dist[i, j] == dist[j, i] == 0.0
            assert np.all(np.diagonal(dist) == 0.0)

    @pytest.mark.parametrize("b", [1, 2, 32, 130])
    def test_exactly_symmetric(self, b):
        rng = make_rng(52)
        for d in (1, 16, 100):
            dist = stacked_distances(random_batch(rng, b=b, d=d, n_groups=2))
            assert np.array_equal(dist, dist.T)

    def test_large_rows_follow_the_definition(self):
        rng = make_rng(53)
        for d in (2, 16, 256):
            batch = random_batch(rng, b=32, d=d)
            batch.visual *= 10.0
            batch.sentence *= 10.0
            batch.sentence[1] = batch.visual[1] + 1e-6
            z = np.concatenate([batch.visual, batch.sentence])
            expected = np.linalg.norm(z[:, None, :] - z[None, :, :], axis=2)
            np.testing.assert_allclose(stacked_distances(batch), expected,
                                       rtol=0, atol=10 * 1e-14)

    def test_duplicated_rows_match_the_oracles(self):
        # Criterion 2's comparison (1e-9, exact active counts) on batches
        # whose rows repeat or nearly repeat, within and across streams.
        # The gradient is not compared: the pass forms it as
        # sum_c G[a, c] z_a - (G z)_a, which loses about eps / D of its
        # size where D is tiny.
        rng = make_rng(54)
        for _ in range(100):
            batch = random_batch(rng, b=int(rng.integers(3, 13)), d=int(rng.integers(2, 20)))
            b, d = batch.visual.shape
            sep = self.SEPARATIONS[int(rng.integers(len(self.SEPARATIONS)))]
            batch.visual[1] = batch.visual[0]
            batch.sentence[2] = batch.visual[2]
            batch.sentence[0] = l2_normalize_rows(
                batch.sentence[1:2] + sep * unit_rows(rng, 1, d))[0][0]
            batch.visual[b - 1] = l2_normalize_rows(
                batch.sentence[b - 1:b] + sep * unit_rows(rng, 1, d))[0][0]
            cfg = random_cfg(rng, max_margin=2.5)
            loss, sums, active, total, _, _ = alignment_loss(batch, cfg)
            o_loss, o_sums, o_active, o_total, _, _ = enumerated_oracle(batch, cfg)
            assert np.all(np.abs(sums - o_sums) <= 1e-9) and abs(loss - o_loss) <= 1e-9
            assert (active, total) == (o_active.sum(), o_total.sum())
            assert abs(loss - brute_force_loss(batch, cfg)) <= 1e-9


class TestLossForward:
    def test_satisfied_constraint_contributes_zero(self):
        # Each row's counterpart is 0.2 away and the other group's rows
        # about 14 away: with m = 0.1 every hinge is slack.
        batch = MiniBatch(
            np.array([[0.0, 0.0], [10.0, 10.0]]),
            np.array([[0.2, 0.0], [10.2, 10.0]]),
            np.array([0, 1]),
        )
        loss, sums, active, total, _, _ = alignment_loss(batch, LossConfig(margin=0.1))
        assert loss == 0.0 and np.all(sums == 0.0)
        assert (active, total) == (0, 4)

    def test_violated_constraint_value(self):
        # term1: x0 (0.1 + 0.5 - 0.4) and x1 (0.1 + 9.6 - 9.5) are violated;
        # term2: y1 (0.1 + 9.6 - 0.4) is, y0 (0.1 + 0.5 - 9.5) is not.
        batch = MiniBatch(
            np.array([[0.0, 0.0], [10.0, 0.0]]),
            np.array([[0.5, 0.0], [0.4, 0.0]]),
            np.array([0, 1]),
        )
        loss, sums, active, _, _, _ = alignment_loss(batch, LossConfig(margin=0.1))
        np.testing.assert_allclose(sums, [0.4, 9.3, 0.0, 0.0], atol=1e-12)
        assert active == 3
        assert loss == pytest.approx(0.4 + 2.0 * 9.3, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = make_rng(20)
        for _ in range(25):
            batch = random_batch(rng)
            cfg = random_cfg(rng)
            got = alignment_loss(batch, cfg)[0]
            assert abs(got - brute_force_loss(batch, cfg)) <= 1e-9

    def test_non_negative(self):
        rng = make_rng(21)
        for _ in range(20):
            batch = random_batch(rng)
            loss, sums, _, _, _, _ = alignment_loss(batch, LossConfig())
            assert loss >= 0.0 and np.all(sums >= 0.0)

    def test_modality_exchange_symmetry(self):
        # With lambda1=1 and lambda2/lambda3 swapped, exchanging the streams
        # leaves the loss unchanged.
        rng = make_rng(23)
        batch = random_batch(rng)
        cfg = LossConfig(margin=0.2, lambda1=1.0, lambda2=0.3, lambda3=0.7)
        swapped = MiniBatch(batch.sentence, batch.visual, batch.group_ids)
        cfg_swapped = LossConfig(margin=0.2, lambda1=1.0, lambda2=0.7, lambda3=0.3)
        a = alignment_loss(batch, cfg)[0]
        b = alignment_loss(swapped, cfg_swapped)[0]
        assert a == pytest.approx(b, abs=1e-12)

    def test_permutation_invariance(self):
        rng = make_rng(24)
        batch = random_batch(rng, b=8)
        cfg = LossConfig()
        perm = rng.permutation(8)
        permuted = MiniBatch(
            batch.visual[perm], batch.sentence[perm], batch.group_ids[perm]
        )
        a = alignment_loss(batch, cfg)
        b = alignment_loss(permuted, cfg)
        assert a[0] == pytest.approx(b[0], abs=1e-9)
        assert a[2:4] == b[2:4]


class TestLossBackward:
    def test_all_slack_gives_zero_gradient(self):
        # widely separated groups, margin tiny: every constraint satisfied
        batch = MiniBatch(
            np.array([[1.0, 0.0], [0.99, 0.01], [-1.0, 0.0]]),
            np.array([[1.0, 0.01], [0.98, 0.0], [-1.0, 0.02]]),
            np.array([0, 0, 1]),
        )
        loss, _, active, _, dx, dy = alignment_loss(batch, LossConfig(margin=0.01))
        assert loss == 0.0 and active == 0
        assert np.all(dx == 0.0) and np.all(dy == 0.0)

    def test_lambda_scaling_is_linear(self):
        rng = make_rng(30)
        batch = random_batch(rng)
        doubled = LossConfig(margin=0.3, lambda1=2.0, lambda2=0.0, lambda3=0.0)
        only_t2 = LossConfig(margin=0.3, lambda1=1.0, lambda2=0.0, lambda3=0.0)
        zero_t2 = LossConfig(margin=0.3, lambda1=0.0, lambda2=0.0, lambda3=0.0)
        dx1, dy1 = alignment_loss(batch, only_t2)[4:]
        dx0, dy0 = alignment_loss(batch, zero_t2)[4:]
        dx2, dy2 = alignment_loss(batch, doubled)[4:]
        # doubling lambda1 exactly doubles the term2 contribution
        np.testing.assert_allclose(dx2 - dx0, 2.0 * (dx1 - dx0), atol=1e-12)
        np.testing.assert_allclose(dy2 - dy0, 2.0 * (dy1 - dy0), atol=1e-12)

    def test_zero_distance_takes_zero_subgradient(self):
        # Each image equals its own sentence: d(x_i, y_i) = 0 sits inside
        # both active term1 hinges (5 + 0 - sqrt(2)). The norm's zero
        # subgradient leaves only the negatives' pull.
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        batch = MiniBatch(x, x.copy(), np.array([0, 1]))
        cfg = LossConfig(margin=5.0, lambda1=0.0, lambda2=0.0, lambda3=0.0)
        loss, _, active, _, dx, dy = alignment_loss(batch, cfg)
        assert active == 4 and loss == pytest.approx(2 * (5.0 - np.sqrt(2.0)))
        pull = (x[0] - x[1]) / np.sqrt(2.0)
        np.testing.assert_allclose(dx, [-pull, pull], atol=1e-15)
        np.testing.assert_allclose(dy, [-pull, pull], atol=1e-15)
        assert_matches_oracle(batch, cfg)

    def test_permutation_equivariance(self):
        rng = make_rng(31)
        batch = random_batch(rng, b=7)
        cfg = LossConfig()
        perm = rng.permutation(7)
        permuted = MiniBatch(
            batch.visual[perm], batch.sentence[perm], batch.group_ids[perm]
        )
        dx, dy = alignment_loss(batch, cfg)[4:]
        pdx, pdy = alignment_loss(permuted, cfg)[4:]
        np.testing.assert_allclose(pdx, dx[perm], atol=1e-9)
        np.testing.assert_allclose(pdy, dy[perm], atol=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_finite_difference_check(self, seed):
        # Two instances per seed: the second repeats rows, so d = 0 sits in active hinges.
        assert check_alignment(trials=2, seed=200 + seed).passed
