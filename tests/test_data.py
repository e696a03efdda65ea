import codecs
import hashlib
import os
import re
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import jezsl.data
from jezsl.compat import AttributeTable
from jezsl.data import (
    FILES,
    TRAIN_FRACTION,
    Dataset,
    SynthConfig,
    generate,
    load_annotations,
    load_dataset,
    read_assignments,
    read_features,
    read_ids,
    read_split,
    save_dataset,
    validate_split,
    write_assignments,
    write_features,
    write_ids,
    write_split,
)
from jezsl.errors import DataError
from jezsl.linalg import make_rng


class TestFeatureIo:
    def test_binary_round_trip_bit_identical(self, tmp_path):
        rng = make_rng(0)
        m = rng.standard_normal((7, 5))
        path = str(tmp_path / "m.jef")
        write_features(m, path)
        np.testing.assert_array_equal(read_features(path), m)

    def test_truncated_payload_names_byte_counts(self, tmp_path):
        m = np.ones((3, 2))
        path = tmp_path / "m.jef"
        write_features(m, str(path))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match=r"expected 61 bytes.*got 53"):
            read_features(str(path))

    def test_payload_longer_than_its_dims(self, tmp_path):
        path = tmp_path / "m.jef"
        write_features(np.ones((3, 2)), str(path))
        path.write_bytes(path.read_bytes() + np.ones(1).tobytes())
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: payload size mismatch, "
                                            r"expected 61 bytes .* got 69$"):
            read_features(str(path))

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "m.jef"
        write_features(np.ones((3, 2)), str(path))
        blob = path.read_bytes()
        for value in (np.nan, np.inf, -np.inf):
            # The last payload value; write_features refuses to write it.
            path.write_bytes(blob[:-8] + np.float64(value).tobytes())
            with pytest.raises(DataError, match=f"^{re.escape(str(path))}: payload contains "
                                                "non-finite values$"):
                read_features(str(path))

    def test_bad_magic_names_the_file(self, tmp_path):
        # A text matrix, such as a CSV file, is no feature file.
        path = tmp_path / "m.csv"
        path.write_text("dim=2\n1.0,2.0\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: bad magic b'dim=', "
                                            "expected b'JEF1'$"):
            read_features(str(path))


class TestIdAndSplitIo:
    def test_ids_round_trip(self, tmp_path):
        path = str(tmp_path / "ids.txt")
        write_ids([3, 1, 4, 1, 5], path)
        np.testing.assert_array_equal(read_ids(path), [3, 1, 4, 1, 5])

    def test_blank_lines_and_surrounding_space_are_skipped(self, tmp_path):
        path = tmp_path / "ids.txt"
        path.write_text("\n 3\n\t\n-4  \r\n\n+5\n")
        np.testing.assert_array_equal(read_ids(str(path)), [3, -4, 5])

    def test_non_integer_id(self, tmp_path):
        path = tmp_path / "ids.txt"
        path.write_text("1\ntwo\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: non-integer id line 'two'$"):
            read_ids(str(path))

    @pytest.mark.parametrize("text, line, value", [
        ("1\n\n  \n2.5\n", 4, "2.5"),  # blank lines count
        ("7\n99999999999999999999\n", 2, "99999999999999999999"),  # outside int64
    ])
    def test_non_integer_id_names_its_line(self, tmp_path, text, line, value):
        path = tmp_path / "ids.txt"
        path.write_text(text)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:{line}: non-integer id line '{value}'$"):
            read_ids(str(path))

    def test_split_round_trip(self, tmp_path):
        path = str(tmp_path / "splits.txt")
        write_split(path, {0, 2, 1}, {3, 4})
        seen, unseen = read_split(path)
        assert seen.dtype == unseen.dtype == np.int64
        assert seen.tolist() == [0, 1, 2] and unseen.tolist() == [3, 4]

    def test_failed_split_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "splits.txt"
        write_split(str(path), [0, 1], [2])
        with pytest.raises(TypeError):
            write_split(str(path), [0, 1], [2, "x"])  # the unseen line cannot be sorted
        assert path.read_text() == "seen: 0 1\nunseen: 2\n"
        assert os.listdir(tmp_path) == ["splits.txt"]

    def test_overlapping_split_rejected(self, tmp_path):
        path = tmp_path / "splits.txt"
        path.write_text("seen: 0 1\nunseen: 1 2\n")
        with pytest.raises(DataError):
            read_split(str(path))

    @pytest.mark.parametrize("text, line, message", [
        ("seen: 0 x\nunseen: 2\n", 1, "non-integer class id in 'seen: 0 x'"),
        ("\nseen: 0\nunseen: 2 3.5\n", 3, "non-integer class id in 'unseen: 2 3.5'"),
        ("seen: 0\nunsen: 2\n", 2, "unknown split line 'unsen: 2'"),
        ("seen: 0 1 2 3 4 5 6\nunseen: 7 8\nunseen: 9\n", 3, "repeated 'unseen:' line"),
    ])
    def test_malformed_split_line_names_its_line(self, tmp_path, text, line, message):
        path = tmp_path / "splits.txt"
        path.write_text(text)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:{line}: {message}$"):
            read_split(str(path))

    def test_missing_line_rejected(self, tmp_path):
        path = tmp_path / "splits.txt"
        path.write_text("seen: 0 1\n")
        with pytest.raises(DataError):
            read_split(str(path))

    def test_assignments_round_trip(self, tmp_path):
        path = str(tmp_path / "a.txt")
        names = ["train", "test_seen", "test_unseen", "train"]
        write_assignments(names, path)
        assert read_assignments(path).tolist() == names

    def test_unknown_assignment_is_refused_before_writing(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("test_unseen\n")
        with pytest.raises(DataError, match="'validation'"):
            write_assignments(["train", "validation", "test_seen"], str(path))
        assert path.read_text() == "test_unseen\n"

    def test_unknown_assignment_rejected(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("train\n\n test_seen \nvalidation\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:4: unknown assignment 'validation'$"):
            read_assignments(str(path))

    def test_assignment_blank_lines_and_surrounding_space_are_skipped(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("\ntrain\n  test_unseen\t\r\n\n")
        assert read_assignments(str(path)).tolist() == ["train", "test_unseen"]


# Class 0 is seen, class 5 unseen.
SPLIT = AttributeTable([0, 5], np.eye(2), seen=[0], unseen=[5])


class TestValidateSplit:
    def test_clean_split_passes(self):
        validate_split(
            np.array([0, 0, 5]), SPLIT, ["train", "test_seen", "test_unseen"]
        )

    def test_unseen_class_in_train_rejected(self):
        with pytest.raises(DataError, match="sample 0"):
            validate_split(np.array([5]), SPLIT, ["train"])

    def test_seen_class_in_test_unseen_rejected(self):
        with pytest.raises(DataError):
            validate_split(np.array([0]), SPLIT, ["test_unseen"])

    def test_unseen_class_in_test_seen_rejected(self):
        with pytest.raises(DataError, match="sample 1: test_seen sample has unseen-class label 5"):
            validate_split(np.array([0, 5]), SPLIT, ["train", "test_seen"])

    def test_first_offending_sample_is_named(self):
        labels = np.array([0, 0, 5, 0, 5])
        assignments = ["train", "test_seen", "train", "test_unseen", "test_seen"]
        with pytest.raises(DataError, match=r"^sample 2: train sample has unseen-class label 5$"):
            validate_split(labels, SPLIT, assignments)
        assignments[2] = "test_unseen"
        with pytest.raises(DataError, match=r"^sample 3: test_unseen .* seen-class label 0$"):
            validate_split(labels, SPLIT, assignments)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            validate_split(np.array([0, 0]), SPLIT, ["train"])

    @pytest.mark.parametrize("label, assignment", [
        (99, "train"), (99, "test_unseen"), (7, "test_seen"),
    ])
    def test_label_in_neither_class_set_is_named_outside_the_split(self, label, assignment):
        # Seen {0, 1}, unseen {2}: neither label has an attribute row. Row 2,
        # an unseen class in train, offends later and is not named.
        table = AttributeTable([0, 1, 2], np.eye(3), seen=[0, 1], unseen=[2])
        labels = np.array([0, label, 2])
        with pytest.raises(DataError, match=rf"^sample 1: {assignment} sample has "
                                            rf"label {label}, outside the class split$"):
            validate_split(labels, table, ["train", assignment, "train"])


class TestGenerate:
    def small_cfg(self, **kw):
        base = dict(
            n_classes=5,
            n_seen=3,
            samples_per_class=8,
            d_visual=6,
            d_sentence=6,
            d_attr=6,
            cluster_spread=0.2,
            caption_signal=0.8,
            seed=0,
        )
        base.update(kw)
        return SynthConfig(**base)

    def test_deterministic(self):
        a = generate(self.small_cfg())
        b = generate(self.small_cfg())
        np.testing.assert_array_equal(a.visual, b.visual)
        np.testing.assert_array_equal(a.sentences, b.sentences)
        np.testing.assert_array_equal(a.attributes.attributes, b.attributes.attributes)
        np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_seed_changes_data(self):
        a = generate(self.small_cfg(seed=0))
        b = generate(self.small_cfg(seed=1))
        assert not np.array_equal(a.visual, b.visual)

    def test_shapes_and_counts(self):
        cfg = self.small_cfg(captions_per_image=2)
        data = generate(cfg)
        n = cfg.n_classes * cfg.samples_per_class * cfg.captions_per_image
        assert data.visual.shape == (n, cfg.d_visual)
        assert data.sentences.shape == (n, cfg.d_sentence)
        assert len(data.labels) == len(data.groups) == len(data.assignments) == n

    def test_split_discipline(self):
        data = generate(self.small_cfg())
        validate_split(data.labels, data.attributes, data.assignments)
        # unseen classes are exactly test_unseen
        for label, a in zip(data.labels, data.assignments):
            if int(label) >= 3:
                assert a == "test_unseen"

    def test_train_fraction(self):
        assert TRAIN_FRACTION == 0.8
        cfg = self.small_cfg(samples_per_class=10)
        data = generate(cfg)
        for c in range(cfg.n_seen):
            mask = data.labels == c
            assigned = [a for a, m in zip(data.assignments, mask) if m]
            assert assigned.count("train") == 8
            assert assigned.count("test_seen") == 2

    def test_collision_rows_bit_identical(self):
        cfg = self.small_cfg(collide="1,4")
        data = generate(cfg)
        attrs = data.attributes.attributes  # class ids are 0..C-1 in row order
        np.testing.assert_array_equal(attrs[1], attrs[4])
        assert not np.array_equal(attrs[0], attrs[1])

    def test_attributes_are_unit_semantic_directions(self):
        data = generate(self.small_cfg())
        norms = np.linalg.norm(data.attributes.attributes, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_tiny_spread_gives_perfect_nearest_prototype(self):
        cfg = self.small_cfg(cluster_spread=1e-6)
        data = generate(cfg)
        # Each class's mean visual row stands in for its prototype.
        means = np.stack([data.visual[data.labels == c].mean(axis=0)
                          for c in range(cfg.n_classes)])
        d = np.linalg.norm(
            data.visual[:, None, :] - means[None, :, :], axis=2
        )
        np.testing.assert_array_equal(np.argmin(d, axis=1), data.labels)

    def test_caption_class_means_align_with_semantic_direction(self):
        cfg = self.small_cfg(samples_per_class=60, cluster_spread=0.1, caption_signal=1.0)
        data = generate(cfg)
        for c in range(cfg.n_classes):
            mean = data.sentences[data.labels == c].mean(axis=0)
            direction = data.attributes.attributes[c]
            cos = mean @ direction / (np.linalg.norm(mean) * np.linalg.norm(direction))
            assert cos >= 0.95

    @pytest.mark.parametrize("classes_per_draw", [1, 3])
    def test_draw_block_size_changes_no_value(self, monkeypatch, classes_per_draw):
        cfg = SynthConfig(n_classes=20, n_seen=14, samples_per_class=6, captions_per_image=2,
                          collide="0,1;5,9", seed=3)
        ref = generate(cfg)  # one draw
        per_class = cfg.samples_per_class * (cfg.d_visual + 2 * cfg.d_sentence)
        monkeypatch.setattr(jezsl.data, "_DRAW_VALUES", classes_per_draw * per_class)
        got = generate(cfg)
        assert got.visual.tobytes() == ref.visual.tobytes()
        assert got.sentences.tobytes() == ref.sentences.tobytes()
        assert got.attributes.attributes.tobytes() == ref.attributes.attributes.tobytes()

    def test_peak_memory_is_the_features_plus_one_block(self):
        # The raw-feature benchmark's dataset: 6000 rows of 64 + 16 features.
        cfg = SynthConfig(n_classes=200, n_seen=140, samples_per_class=30, d_visual=64,
                          d_attr=32, seed=1)
        tracemalloc.start()
        try:
            data = generate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= data.visual.nbytes + data.sentences.nbytes + 3 * 2**20

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            self.small_cfg(n_seen=5).validate()
        with pytest.raises(ValueError):
            self.small_cfg(cluster_spread=0.0).validate()
        with pytest.raises(ValueError):
            self.small_cfg(collide="0,9").validate()


class TestDatasetDirectory:
    # sha256 over every file `save_dataset` writes, in sorted(FILES) key
    # order, first 16 hex digits. Computed with the per-sample generator
    # loop that preceded the vectorized draw, so any change to the draw
    # order, the float arithmetic or the file encodings shows here.
    @pytest.mark.parametrize("cfg, digest", [
        (SynthConfig(seed=1), "b65cd62c0afc6006"),
        (SynthConfig(n_classes=200, n_seen=140, samples_per_class=30, d_visual=64,
                     d_attr=32, seed=1), "adc0fabf6173e690"),
        (SynthConfig(captions_per_image=3, d_sentence=8,
                     collide="3,4;5,6", seed=9),
         "ea2b4924c88a97e0"),
    ])
    def test_written_bytes_are_pinned(self, tmp_path, cfg, digest):
        save_dataset(generate(cfg), str(tmp_path))
        h = hashlib.sha256()
        for key in sorted(FILES):
            with open(os.path.join(tmp_path, FILES[key]), "rb") as fh:
                h.update(fh.read())
        assert h.hexdigest()[:16] == digest

    def test_save_load_round_trip(self, tmp_path):
        data = generate(SynthConfig(n_classes=4, n_seen=2, samples_per_class=5, seed=3))
        save_dataset(data, str(tmp_path))
        loaded = load_dataset(str(tmp_path))
        assert type(data) is type(loaded) is Dataset

        def assert_same(a, b, name):
            assert type(a) is type(b), name
            np.testing.assert_array_equal(a, b, err_msg=name)
            assert getattr(a, "dtype", None) == getattr(b, "dtype", None), name

        for f in fields(Dataset):
            if f.name != "attributes":
                assert_same(getattr(loaded, f.name), getattr(data, f.name), f.name)
        for f in fields(AttributeTable):
            assert_same(getattr(loaded.attributes, f.name), getattr(data.attributes, f.name),
                        f.name)

    def test_rows_selector(self, tmp_path):
        data = generate(SynthConfig(n_classes=4, n_seen=2, samples_per_class=5, seed=3))
        save_dataset(data, str(tmp_path))
        loaded = load_dataset(str(tmp_path))
        train = loaded.rows("train")
        assert all(loaded.assignments[i] == "train" for i in train)
        total = sum(len(loaded.rows(a)) for a in ("train", "test_seen", "test_unseen"))
        assert total == len(loaded.labels)

    def test_malformed_splits_file_named_at_load(self, tmp_path):
        data = generate(SynthConfig(n_classes=4, n_seen=2, samples_per_class=5, seed=3))
        save_dataset(data, str(tmp_path))
        path = tmp_path / FILES["splits"]
        path.write_text(path.read_text().replace("seen: 0", "seen: x"))
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:1: non-integer class id"):
            load_annotations(str(tmp_path))

    def test_corrupt_assignment_rejected_at_load(self, tmp_path):
        data = generate(SynthConfig(n_classes=4, n_seen=2, samples_per_class=5, seed=3))
        save_dataset(data, str(tmp_path))
        # flip one test_unseen row to train: split discipline violation
        lines = (tmp_path / "assignments.txt").read_text().splitlines()
        idx = lines.index("test_unseen")
        lines[idx] = "train"
        (tmp_path / "assignments.txt").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("key", ["labels", "groups", "attribute_classes", "splits",
                                     "assignments"])
    def test_text_file_not_utf8_is_named(self, tmp_path, key):
        save_dataset(generate(SynthConfig(n_classes=4, n_seen=2, samples_per_class=5, seed=3)),
                     str(tmp_path))
        path = tmp_path / FILES[key]
        path.write_bytes(b"\xff" + path.read_bytes())
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: not UTF-8 text "
                                            r"\(invalid start byte at byte 0\)$"):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("key", ["labels", "groups", "attribute_classes", "splits",
                                     "assignments"])
    def test_text_file_with_byte_order_mark_loads(self, tmp_path, key):
        data = generate(SynthConfig(n_classes=4, n_seen=2, samples_per_class=5, seed=3))
        save_dataset(data, str(tmp_path))
        path = tmp_path / FILES[key]
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        loaded = load_dataset(str(tmp_path))
        for f in fields(Dataset):
            if f.name != "attributes":
                np.testing.assert_array_equal(getattr(loaded, f.name), getattr(data, f.name))
        for f in fields(AttributeTable):
            np.testing.assert_array_equal(getattr(loaded.attributes, f.name),
                                          getattr(data.attributes, f.name))

    def test_not_utf8_after_a_byte_order_mark_names_the_file_offset(self, tmp_path):
        path = tmp_path / "ids.txt"
        path.write_bytes(codecs.BOM_UTF8 + b"0\n\xff\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: not UTF-8 text "
                                            r"\(invalid start byte at byte 5\)$"):
            read_ids(str(path))

    def test_row_count_mismatch_names_each_file(self, tmp_path):
        save_dataset(generate(SynthConfig(n_classes=4, n_seen=2, samples_per_class=5, seed=3)),
                     str(tmp_path))
        path = tmp_path / FILES["groups"]
        path.write_text(path.read_text() + "0\n")
        counts = ", ".join(f"{tmp_path / FILES[key]} {n}" for key, n in
                           [("visual", 20), ("sentences", 20), ("labels", 20), ("groups", 21)])
        with pytest.raises(DataError, match=f"^{re.escape('row counts disagree: ' + counts)}$"):
            load_dataset(str(tmp_path))
