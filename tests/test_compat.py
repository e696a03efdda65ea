import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

import jezsl.compat
from jezsl.compat import (
    BATCH_ROWS,
    AttributeTable,
    LabeledEmbeddings,
    hinge_arguments,
    infer_batch,
    load_model,
    ranking_loss,
    ranking_loss_grad,
    save_model,
    ZslConfig,
    train_compatibility,
)
from jezsl.errors import DataError, NumericalError
from jezsl.gradcheck import check_compatibility
from jezsl.linalg import make_rng


def simple_table(n_seen=3, n_unseen=2, d_attr=4, seed=0):
    rng = make_rng(seed)
    C = n_seen + n_unseen
    return AttributeTable(
        class_ids=list(range(C)),
        attributes=rng.standard_normal((C, d_attr)),
        seen=range(n_seen),
        unseen=range(n_seen, C),
    )


def assert_steps_are_checked_gradients(n, epochs):
    """Training equals a loop of ranking_loss_grad steps over the same
    slices of the same permutations, bit for bit."""
    lr, margin, seed = 0.05, 0.3, 2
    rng = make_rng(12)
    table = simple_table(n_seen=4, seed=12)
    data = LabeledEmbeddings(rng.standard_normal((n, 5)), rng.integers(0, 4, size=n))
    order_rng = make_rng(seed)
    w = np.zeros((5, table.d_attr))
    for _ in range(epochs):
        order = order_rng.permutation(n)
        for start in range(0, n, BATCH_ROWS):
            rows = order[start:start + BATCH_ROWS]
            part = LabeledEmbeddings(data.embeddings[rows], data.labels[rows])
            w -= lr * ranking_loss_grad(w, part, table, margin)
    trained = train_compatibility(
        data, table, ZslConfig(margin=margin, learning_rate=lr, epochs=epochs, seed=seed)
    )
    assert np.any(w != 0.0)
    np.testing.assert_array_equal(trained, w)


def traced_peak(fn, *args):
    """Peak bytes that numpy and Python allocate while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def brute_force_ranking_loss(w, data, table, margin):
    """Scalar loop oracle over samples and wrong seen classes."""
    row = dict(zip(table.class_ids.tolist(), table.attributes))
    total = 0.0
    for x, y in zip(data.embeddings, data.labels):
        s_true = float(x @ w @ row[int(y)])
        for c in table.seen.tolist():
            if c == int(y):
                continue
            s = float(x @ w @ row[c])
            total += max(0.0, margin + s - s_true)
    return total


class TestAttributeTable:
    def test_overlapping_split_rejected(self):
        rng = make_rng(0)
        with pytest.raises(DataError):
            AttributeTable([0, 1], rng.standard_normal((2, 3)), {0, 1}, {1})

    def test_missing_attribute_row_rejected(self):
        rng = make_rng(0)
        with pytest.raises(DataError):
            AttributeTable([0, 1], rng.standard_normal((2, 3)), {0}, {1, 2})

    def test_duplicate_ids_rejected(self):
        rng = make_rng(0)
        with pytest.raises(ValueError):
            AttributeTable([0, 0], rng.standard_normal((2, 3)), {0}, set())

    def test_rows_follow_the_sorted_split_ids(self):
        # Class 9 has a row but is outside the split.
        ids = [4, 0, 6, 1, 3, 5, 2, 9]
        attrs = make_rng(0).standard_normal((8, 3))
        table = AttributeTable(ids, attrs, seen={0, 1, 3, 4}, unseen={2, 5, 6})
        assert table.class_ids.tolist() == list(range(7))
        for i, c in enumerate(table.class_ids.tolist()):
            np.testing.assert_array_equal(table.attributes[i], attrs[ids.index(c)])
        assert table.is_unseen.tolist() == [c in {2, 5, 6} for c in range(7)]
        assert len(table.attributes) == 7

    @pytest.mark.parametrize("seen, unseen", [
        ({3, 0, 1}, {4, 2}),
        ([3, 0, 1, 0], [4, 2]),
        (range(2), range(2, 5)),
        (np.array([1, 3, 0]), np.array([4, 2], dtype=np.int32)),
    ])
    def test_any_id_iterable_gives_sorted_int64_arrays(self, seen, unseen):
        table = AttributeTable([4, 0, 2, 1, 3], make_rng(0).standard_normal((5, 3)),
                               seen, unseen)
        want = {"seen": sorted({int(c) for c in seen}),
                "unseen": sorted({int(c) for c in unseen})}
        for name, ids in want.items():
            got = getattr(table, name)
            assert isinstance(got, np.ndarray) and got.dtype == np.int64
            assert got.tolist() == ids
        assert table.class_ids.tolist() == sorted(want["seen"] + want["unseen"])

    @pytest.mark.parametrize("kind", [set, list, np.array])
    def test_split_errors_name_the_classes(self, kind):
        attrs = make_rng(0).standard_normal((3, 2))
        with pytest.raises(DataError, match=r"^seen/unseen classes overlap: \[1, 2\]$"):
            AttributeTable([0, 1, 2], attrs, kind([2, 0, 1]), kind([2, 1]))
        with pytest.raises(DataError, match=r"^classes without attribute rows: \[3, 5\]$"):
            AttributeTable([0, 1, 2], attrs, kind([0, 5]), kind([3, 1]))


class TestRankingLoss:
    def test_matches_brute_force(self):
        rng = make_rng(3)
        for _ in range(20):
            table = simple_table(
                n_seen=int(rng.integers(2, 5)), d_attr=3, seed=int(rng.integers(1000))
            )
            n = int(rng.integers(2, 8))
            data = LabeledEmbeddings(
                rng.standard_normal((n, 5)),
                rng.integers(0, len(table.seen), size=n),
            )
            w = rng.standard_normal((5, 3))
            margin = float(rng.uniform(0.05, 0.5))
            got = ranking_loss(w, data, table, margin)
            ref = brute_force_ranking_loss(w, data, table, margin)
            assert abs(got - ref) <= 1e-9

    def test_zero_weights_loss_value(self):
        # With W = 0 every score is 0, so each wrong class contributes margin.
        table = simple_table(n_seen=3)
        data = LabeledEmbeddings(np.ones((4, 5)), np.array([0, 1, 2, 0]))
        w = np.zeros((5, table.d_attr))
        assert ranking_loss(w, data, table, 0.2) == pytest.approx(4 * 2 * 0.2)

    def test_hinge_arguments_mark_true_class_cells(self):
        rng = make_rng(15)
        table = simple_table(n_seen=4, d_attr=3, seed=15)
        labels = rng.integers(0, 4, size=9)
        data = LabeledEmbeddings(rng.standard_normal((9, 5)), labels)
        w = rng.standard_normal((5, 3))
        args = hinge_arguments(w, data, table, 0.2)
        true = np.zeros(args.shape, bool)
        true[np.arange(9), labels] = True
        assert np.all(args[true] == -np.inf)
        scores = data.embeddings @ w @ table.attributes[:4].T
        expected = 0.2 + scores - scores[np.arange(9), labels][:, None]
        np.testing.assert_allclose(args[~true], expected[~true], rtol=1e-12, atol=1e-12)

    def test_gradient_finite_difference(self):
        assert check_compatibility(trials=5, seed=9).passed


class TestTraining:
    def test_separable_data_fits_seen_classes(self):
        # one orthogonal direction per class in both spaces
        rng = make_rng(4)
        n_seen, d = 4, 8
        table = AttributeTable(
            class_ids=list(range(5)),
            attributes=np.eye(5, 4),
            seen=range(4),
            unseen=[4],
        )
        labels = np.repeat(np.arange(n_seen), 10)
        emb = np.eye(n_seen, d)[labels] + 0.05 * rng.standard_normal((40, d))
        data = LabeledEmbeddings(emb, labels)
        w = train_compatibility(data, table, ZslConfig(epochs=50, seed=0))
        _, preds = infer_batch(w, emb, table)
        assert np.mean(preds == labels) == 1.0

    def test_single_seen_class_leaves_w_zero(self):
        table = AttributeTable(
            class_ids=[0, 1],
            attributes=np.eye(2),
            seen=[0],
            unseen=[1],
        )
        data = LabeledEmbeddings(np.ones((3, 4)), np.zeros(3, int))
        w = train_compatibility(data, table, ZslConfig(epochs=10))
        assert np.all(w == 0.0)

    def test_deterministic(self):
        rng = make_rng(6)
        table = simple_table(seed=6)
        data = LabeledEmbeddings(
            rng.standard_normal((12, 5)), rng.integers(0, 3, size=12)
        )
        m1 = train_compatibility(data, table, ZslConfig(epochs=20, seed=3))
        m2 = train_compatibility(data, table, ZslConfig(epochs=20, seed=3))
        np.testing.assert_array_equal(m1, m2)

    @pytest.mark.parametrize("n", [1, 12, BATCH_ROWS])
    def test_one_slice_epochs_are_checked_gradient_steps(self, n):
        assert_steps_are_checked_gradients(n, 2)

    def test_short_final_slice_is_its_own_step(self):
        assert_steps_are_checked_gradients(BATCH_ROWS + 1, 2)

    def test_several_full_slices_then_a_short_one(self):
        # Each step's true-class cells are cut from the middle of its epoch's array.
        assert_steps_are_checked_gradients(2 * BATCH_ROWS + 5, 3)

    @pytest.mark.parametrize("n, epochs", [(1, 3), (BATCH_ROWS, 2), (2 * BATCH_ROWS + 5, 3)])
    def test_every_step_calls_the_checked_kernel_once(self, monkeypatch, n, epochs):
        calls = []
        kernel = jezsl.compat._ranking_grad
        monkeypatch.setattr(jezsl.compat, "_ranking_grad",
                            lambda *args: calls.append(len(args[0])) or kernel(*args))
        rng = make_rng(15)
        table = simple_table(n_seen=4, seed=15)
        data = LabeledEmbeddings(rng.standard_normal((n, 5)), rng.integers(0, 4, size=n))
        train_compatibility(data, table, ZslConfig(epochs=epochs))
        assert len(calls) == epochs * -(-n // BATCH_ROWS)
        assert sum(calls) == epochs * n

    # sha256 of the trained W's bytes: a short final slice (n = 33), the
    # raw_zsl benchmark's 140 seen classes, and one seen class (W stays 0).
    # The step reads the scores only through hinge > 0, so roundoff in them
    # reaches W only through a hinge that flips; any change to the gradient's
    # own float operations or their order moves the digests.
    @pytest.mark.parametrize("n, n_seen, n_unseen, d, d_attr, digest", [
        (BATCH_ROWS + 1, 4, 2, 5, 4,
         "f9097f4b4a299e479213855ba2cdc1e80ed4f569542eeeb0d0e8cb0f4f3c95f7"),
        (280, 140, 60, 16, 12,
         "d2ec3c649d0ec25efb106edfa93ec2061323bbdc6f794d210c0b0395960be112"),
        (7, 1, 1, 5, 3,
         "6edd9f6f9cc92cded36e6c4a580933f9c9f1b90562b46903b806f21902a1a54f"),
    ])
    def test_trained_weights_are_pinned(self, n, n_seen, n_unseen, d, d_attr, digest):
        rng = make_rng(14)
        table = simple_table(n_seen=n_seen, n_unseen=n_unseen, d_attr=d_attr, seed=14)
        data = LabeledEmbeddings(rng.standard_normal((n, d)), rng.integers(0, n_seen, size=n))
        w = train_compatibility(data, table, ZslConfig(margin=0.3, learning_rate=0.05,
                                                            epochs=3, seed=5))
        assert hashlib.sha256(w.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("epochs", [1, 4])
    def test_peak_memory_holds_no_copy_of_the_rows(self, epochs):
        # The raw-feature benchmark's training rows: 3,360 x 64, 140 seen classes.
        rng = make_rng(11)
        table = simple_table(n_seen=140, n_unseen=60, d_attr=32, seed=11)
        data = LabeledEmbeddings(rng.standard_normal((3360, 64)), rng.integers(0, 140, 3360))
        peak = traced_peak(train_compatibility, data, table, ZslConfig(epochs=epochs))
        assert peak < data.embeddings.nbytes / 4

    def test_divergence_raises_numerical_error(self):
        rng = make_rng(13)
        table = simple_table(seed=13)
        data = LabeledEmbeddings(rng.standard_normal((40, 5)), rng.integers(0, 3, size=40))
        # An overflow warning would surface as an error ahead of the check.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError,
                               match="^non-finite compatibility weights after epoch 1$"):
                train_compatibility(data, table, ZslConfig(learning_rate=1e308, epochs=5))

    @pytest.mark.parametrize("bad", [{"margin": -1.0}, {"margin": float("nan")},
                                     {"epochs": -1}, {"learning_rate": -0.1}])
    def test_invalid_config_rejected(self, bad):
        table = simple_table()
        data = LabeledEmbeddings(np.ones((2, 5)), [0, 1])
        with pytest.raises(ValueError, match=f"^{next(iter(bad))} must be "):
            train_compatibility(data, table, ZslConfig(**bad))

    def test_labels_outside_seen_rejected(self):
        table = simple_table()
        data = LabeledEmbeddings(np.ones((2, 5)), np.array([0, 4]))
        with pytest.raises(ValueError):
            train_compatibility(data, table)

    def test_empty_data_rejected(self):
        table = simple_table()
        with pytest.raises(ValueError):
            train_compatibility(
                LabeledEmbeddings(np.zeros((0, 5)), np.zeros(0, int)), table
            )


class TestInference:
    def test_zsl_never_returns_seen_class(self):
        rng = make_rng(7)
        table = simple_table(n_seen=3, n_unseen=2, seed=7)
        w = rng.standard_normal((5, table.d_attr))
        zsl, _ = infer_batch(w, rng.standard_normal((30, 5)), table)
        assert set(zsl.tolist()) <= set(table.unseen.tolist())

    def test_gzsl_covers_all_classes(self):
        table = simple_table()
        w = np.zeros((5, table.d_attr))
        _, gzsl = infer_batch(w, np.ones((1, 5)), table)
        assert gzsl.tolist()[0] in table.seen.tolist() + table.unseen.tolist()

    def test_tie_breaks_to_lowest_class_id(self):
        # W = 0 scores every class identically
        table = simple_table(n_seen=3, n_unseen=2)
        w = np.zeros((5, table.d_attr))
        zsl, gzsl = infer_batch(w, np.ones((2, 5)), table)
        assert gzsl.tolist() == [0, 0]
        assert zsl.tolist() == [3, 3]

    def test_matches_argmax_over_each_candidate_set(self):
        # Class ids out of order in the table, and coarse values so that
        # about a third of the rows tie.
        rng = make_rng(9)
        ids = [4, 0, 6, 1, 3, 5, 2]
        attrs = rng.integers(-1, 2, (7, 3))
        table = AttributeTable(class_ids=ids, attributes=attrs,
                               seen={0, 1, 3, 4}, unseen={2, 5, 6})
        w = rng.integers(-1, 2, (4, 3)).astype(float)
        x = rng.integers(-1, 2, (50, 4)).astype(float)
        zsl, gzsl = infer_batch(w, x, table)
        for got, candidates in ((zsl, np.array([2, 5, 6])), (gzsl, np.arange(7))):
            scores = x @ w @ attrs[[ids.index(c) for c in candidates]].T
            np.testing.assert_array_equal(got, candidates[scores.argmax(axis=1)])

    def test_score_scale_invariant_prediction(self):
        rng = make_rng(8)
        table = simple_table(seed=8)
        w = rng.standard_normal((5, table.d_attr))
        x = rng.standard_normal((10, 5))
        p1 = infer_batch(w, x, table)
        p2 = infer_batch(3.0 * w, x, table)
        np.testing.assert_array_equal(p1, p2)

    @pytest.mark.parametrize("values", ["normal", "ties"])
    def test_one_row_per_block_changes_no_prediction(self, monkeypatch, values):
        rng = make_rng(13)
        table = simple_table(n_seen=140, n_unseen=60, d_attr=32, seed=13)
        if values == "ties":  # coarse integers: many rows tie exactly
            table.attributes = rng.integers(-1, 2, (200, 32)).astype(float)
            w, x = (rng.integers(-1, 2, shape).astype(float) for shape in ((8, 32), (500, 8)))
        else:
            w, x = rng.standard_normal((64, 32)), rng.standard_normal((500, 64))
        ref = infer_batch(w, x, table)  # four blocks of 125 rows
        monkeypatch.setattr(jezsl.compat, "_SCORE_CELLS", 1)
        got = infer_batch(w, x, table)
        np.testing.assert_array_equal(got, ref)

    def test_peak_memory_is_one_block_of_scores(self):
        rng = make_rng(12)
        table = simple_table(n_seen=140, n_unseen=60, d_attr=32, seed=12)
        w, x = rng.standard_normal((16, 32)), rng.standard_normal((20000, 16))
        # One 20,000 x 200 score matrix would take 32 MB.
        assert traced_peak(infer_batch, w, x, table) < 2 * 2**20

    def test_width_mismatch(self):
        table = simple_table()
        w = np.zeros((5, table.d_attr))
        with pytest.raises(ValueError):
            infer_batch(w, np.ones((1, 6)), table)

    def test_attribute_width_mismatch_names_both_widths(self):
        table = simple_table(d_attr=4)
        with pytest.raises(ValueError, match="model attribute width 6 != class attribute "
                                             "width 4"):
            infer_batch(np.zeros((5, 6)), np.ones((1, 5)), table)

    def test_no_unseen_classes(self):
        table = AttributeTable(class_ids=[0, 1], attributes=np.eye(2),
                               seen={0, 1}, unseen=set())
        with pytest.raises(ValueError, match="no unseen classes"):
            infer_batch(np.zeros((3, 2)), np.ones((1, 3)), table)


class TestModelIo:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = make_rng(10)
        w = rng.standard_normal((6, 4))
        path = str(tmp_path / "m.jec")
        save_model(w, path)
        np.testing.assert_array_equal(load_model(path), w)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.jec"
        path.write_bytes(b"ZZZZ" + b"\x00" * 20)
        with pytest.raises(DataError):
            load_model(str(path))

    def test_truncation_reports_byte_counts(self, tmp_path):
        path = tmp_path / "m.jec"
        save_model(np.ones((3, 3)), str(path))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(DataError, match="bytes"):
            load_model(str(path))
