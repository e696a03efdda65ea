import numpy as np
import pytest

from jezsl import metrics
from jezsl.compat import AttributeTable, LabeledEmbeddings
from jezsl.linalg import make_rng
from jezsl.metrics import (
    GzslReport,
    evaluate,
    format_kv,
    format_report,
    harmonic_mean,
    per_class_accuracy,
)


class TestPerClassAccuracy:
    def test_all_correct(self):
        _, mean = per_class_accuracy([0, 1, 2], [0, 1, 2], [0, 1, 2])
        assert mean == 1.0

    def test_all_wrong(self):
        _, mean = per_class_accuracy([1, 2, 0], [0, 1, 2], [0, 1, 2])
        assert mean == 0.0

    def test_class_balanced_mean_skewed_counts(self):
        # class 0: 4 samples all correct; class 1: 1 sample wrong.
        # Sample accuracy would be 0.8, class-balanced mean is 0.5.
        preds = [0, 0, 0, 0, 0]
        labels = [0, 0, 0, 0, 1]
        per, mean = per_class_accuracy(preds, labels, [0, 1])
        assert per[0] == (1.0, 4)
        assert per[1] == (0.0, 1)
        assert mean == 0.5

    def test_empty_classes_excluded(self):
        per, mean = per_class_accuracy([0, 0], [0, 0], [0, 1, 2])
        assert set(per) == {0}
        assert mean == 1.0

    def test_labels_outside_class_set_rejected(self):
        with pytest.raises(ValueError):
            per_class_accuracy([0], [5], [0, 1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            per_class_accuracy([0, 1], [0], [0, 1])

    def test_permutation_invariance(self):
        rng = make_rng(1)
        preds = rng.integers(0, 4, size=30)
        labels = rng.integers(0, 4, size=30)
        perm = rng.permutation(30)
        per1, m1 = per_class_accuracy(preds, labels, range(4))
        per2, m2 = per_class_accuracy(preds[perm], labels[perm], range(4))
        assert per1 == per2 and m1 == m2


class TestHarmonicMean:
    def test_equal_arguments(self):
        assert harmonic_mean(0.4, 0.4) == pytest.approx(0.4)

    def test_known_value(self):
        # 2*0.2*0.6/0.8 = 0.3
        assert harmonic_mean(0.2, 0.6) == pytest.approx(0.3)

    def test_zero_cases(self):
        assert harmonic_mean(0.0, 0.0) == 0.0
        assert harmonic_mean(0.0, 0.7) == 0.0

    def test_bounded_between_min_and_arithmetic_mean(self):
        rng = make_rng(2)
        for _ in range(100):
            u, s = rng.random(2)
            h = harmonic_mean(u, s)
            assert min(u, s) - 1e-12 <= h <= (u + s) / 2 + 1e-12

    def test_symmetric(self):
        assert harmonic_mean(0.3, 0.9) == harmonic_mean(0.9, 0.3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            harmonic_mean(-0.1, 0.5)

    def test_percent_scale_consistent(self):
        assert harmonic_mean(20.0, 60.0) == pytest.approx(
            100.0 * harmonic_mean(0.2, 0.6)
        )


def make_setting(seed=0):
    rng = make_rng(seed)
    table = AttributeTable(
        class_ids=list(range(5)),
        attributes=rng.standard_normal((5, 4)),
        seen={0, 1, 2},
        unseen={3, 4},
    )
    w = rng.standard_normal((6, 4))
    test_seen = LabeledEmbeddings(
        rng.standard_normal((15, 6)), rng.integers(0, 3, size=15)
    )
    test_unseen = LabeledEmbeddings(
        rng.standard_normal((10, 6)), rng.integers(3, 5, size=10)
    )
    return w, test_seen, test_unseen, table


def joined(*parts: LabeledEmbeddings) -> LabeledEmbeddings:
    """One labelled row set of the parts' rows, in order."""
    return LabeledEmbeddings(np.concatenate([p.embeddings for p in parts]),
                             np.concatenate([p.labels for p in parts]))


class TestEvaluate:
    def test_matches_independent_recomputation(self):
        w, test_seen, test_unseen, table = make_setting(3)
        report = evaluate(w, joined(test_seen, test_unseen), table)

        # recompute every figure from plain argmaxes and loops
        def balanced(preds, labels):
            accs = []
            for c in sorted(set(int(x) for x in labels)):
                mask = np.asarray(labels) == c
                accs.append(np.mean(np.asarray(preds)[mask] == c))
            return float(np.mean(accs))

        def predict(x, candidates):
            scores = x @ w @ table.attributes[candidates].T  # class i is row i
            return candidates[np.argmax(scores, axis=1)]

        all_ids = np.arange(5)
        zsl = predict(test_unseen.embeddings, np.array([3, 4]))
        gz_u = predict(test_unseen.embeddings, all_ids)
        gz_s = predict(test_seen.embeddings, all_ids)
        t1 = balanced(zsl, test_unseen.labels)
        u = balanced(gz_u, test_unseen.labels)
        s = balanced(gz_s, test_seen.labels)
        assert report.t1 == pytest.approx(t1, abs=1e-12)
        assert report.u == pytest.approx(u, abs=1e-12)
        assert report.s == pytest.approx(s, abs=1e-12)
        assert report.h == pytest.approx(harmonic_mean(u, s), abs=1e-12)

    def test_values_in_unit_interval(self):
        for seed in range(5):
            w, test_seen, test_unseen, table = make_setting(seed)
            r = evaluate(w, joined(test_seen, test_unseen), table)
            for v in (r.t1, r.u, r.s, r.h):
                assert 0.0 <= v <= 1.0

    def test_shuffled_rows_give_the_same_report(self):
        w, test_seen, test_unseen, table = make_setting(4)
        both = joined(test_seen, test_unseen)
        report = evaluate(w, both, table)
        for seed in range(3):
            # Seen and unseen rows interleave in any order.
            perm = make_rng(seed).permutation(len(both.labels))
            shuffled = LabeledEmbeddings(both.embeddings[perm], both.labels[perm])
            assert evaluate(w, shuffled, table) == report

    def test_empty_split_rejected(self):
        w, test_seen, test_unseen, table = make_setting(0)
        empty = LabeledEmbeddings(np.zeros((0, 6)), np.zeros(0, int))
        for test, name in ((test_unseen, "seen"), (test_seen, "unseen"), (empty, "unseen")):
            with pytest.raises(ValueError, match=f"empty {name} test split"):
                evaluate(w, test, table)

    def test_labels_outside_the_split_rejected(self):
        w, test_seen, test_unseen, table = make_setting(0)
        # Class 5 has an attribute row but is neither seen nor unseen.
        table = AttributeTable(list(range(6)), np.vstack([table.attributes, np.ones(4)]),
                               table.seen, table.unseen)
        stray = LabeledEmbeddings(np.ones((2, 6)), [5, 7])
        with pytest.raises(ValueError, match=r"outside the split's classes: \[5, 7\]"):
            evaluate(w, joined(test_seen, test_unseen, stray), table)

    def test_one_inference_call(self, monkeypatch):
        w, test_seen, test_unseen, table = make_setting(1)
        calls, infer_batch = [], metrics.infer_batch

        def counted(w, x, table):
            calls.append(len(x))
            return infer_batch(w, x, table)

        monkeypatch.setattr(metrics, "infer_batch", counted)
        evaluate(w, joined(test_seen, test_unseen), table)
        assert calls == [25]


class TestFormatting:
    def report(self):
        return GzslReport(
            t1=0.406, u=0.281, s=0.735, h=0.4066,
            per_class={0: (0.5, 4), 3: (0.25, 8)},
        )

    def test_report_contains_percentages(self):
        text = format_report(self.report())
        assert "28.1" in text and "73.5" in text and "40.7" in text

    def test_report_lists_classes(self):
        text = format_report(self.report())
        assert "0" in text.splitlines()[8]
        assert text.endswith("\n")

    def test_kv_round_trips_full_precision(self):
        r = GzslReport(t1=1 / 3, u=2 / 7, s=0.9, h=harmonic_mean(2 / 7, 0.9))
        kv = dict(
            line.split("=", 1) for line in format_kv(r).strip().splitlines()
        )
        assert float(kv["t1"]) == r.t1
        assert float(kv["u"]) == r.u
        assert float(kv["h"]) == r.h


def loop_per_class_accuracy(predictions, labels, classes):
    """The per-class loop that per_class_accuracy replaced, as an oracle."""
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    per_class, accs = {}, []
    for c in sorted(set(int(c) for c in classes)):
        mask = labels == c
        count = int(np.count_nonzero(mask))
        if count == 0:
            continue
        acc = float(np.count_nonzero(predictions[mask] == c)) / count
        per_class[c] = (acc, count)
        accs.append(acc)
    return per_class, float(np.mean(accs)) if accs else 0.0


@pytest.mark.parametrize("seed", range(5))
def test_per_class_accuracy_matches_the_loop(seed):
    rng = make_rng(seed)
    classes = rng.choice(400, size=int(rng.integers(1, 60)), replace=False) - 100
    n = int(rng.integers(0, 300))
    # Labels from a random subset of the classes, so that some have no rows;
    # predictions also hit ids outside the class set.
    present = rng.choice(classes, size=max(1, len(classes) // 2), replace=False)
    labels = rng.choice(present, size=n)
    predictions = np.where(rng.random(n) < 0.5, labels, rng.integers(-120, 320, size=n))
    got = per_class_accuracy(predictions, labels, classes)
    assert got == loop_per_class_accuracy(predictions, labels, classes)
