"""End-to-end acceptance checks for the whole package.

Each criterion prints a single PASS/FAIL line (visible with -s or on
failure). Tolerances are pinned; nothing here is tuned to pass.
"""

import os
import time

import numpy as np
import pytest

from jezsl.alignment import LossConfig, MiniBatch, alignment_loss
from jezsl.cli import main as cli_main
from jezsl.compat import LabeledEmbeddings, ZslConfig, infer_batch, train_compatibility
from jezsl.data import SynthConfig, generate
from jezsl.gradcheck import TOLERANCE, run_all
from jezsl.heads import forward, init_head
from jezsl.linalg import l2_normalize_rows, make_rng
from jezsl.metrics import evaluate, harmonic_mean, per_class_accuracy
from jezsl.trainer import TrainConfig, TrainState, train_joint


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f" ({detail})" if detail else ""))


class TestCriterion1GradientExactness:
    def test_all_components_within_tolerance_under_30s(self):
        start = time.perf_counter()
        results = run_all(trials=20, seed=0)
        elapsed = time.perf_counter() - start
        worst = max(r.worst_rel_err for r in results)
        ok = all(r.passed for r in results) and elapsed < 30.0
        report(
            "criterion 1: gradient exactness",
            ok,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s",
        )
        for r in results:
            assert r.worst_rel_err <= TOLERANCE, r.name
        assert elapsed < 30.0


class TestCriterion2LossOracle:
    @staticmethod
    def oracle(batch, cfg):
        x, y, g = batch.visual, batch.sentence, batch.group_ids
        b = len(g)

        def d(u, v):
            return float(np.linalg.norm(u - v))

        total = 0.0
        for i in range(b):
            for j in range(b):
                for k in range(b):
                    same = g[j] == g[i]
                    diff = g[k] != g[i]
                    if same and diff:
                        total += max(0.0, cfg.margin + d(x[i], y[j]) - d(x[i], y[k]))
                        total += cfg.lambda1 * max(
                            0.0, cfg.margin + d(x[j], y[i]) - d(x[k], y[i])
                        )
                        if j != i:
                            total += cfg.lambda2 * max(
                                0.0, cfg.margin + d(x[i], x[j]) - d(x[i], x[k])
                            )
                            total += cfg.lambda3 * max(
                                0.0, cfg.margin + d(y[i], y[j]) - d(y[i], y[k])
                            )
        return total

    def test_100_random_batches_within_1e9(self):
        rng = make_rng(7)
        worst = 0.0
        for _ in range(100):
            b = int(rng.integers(3, 13))
            d = int(rng.integers(2, 8))
            groups = rng.integers(0, int(rng.integers(2, 5)), size=b)
            while len(np.unique(groups)) < 2:
                groups = rng.integers(0, 4, size=b)
            x = l2_normalize_rows(rng.standard_normal((b, d)))[0]
            y = l2_normalize_rows(rng.standard_normal((b, d)))[0]
            batch = MiniBatch(x, y, groups)
            cfg = LossConfig(
                margin=float(rng.uniform(0.05, 0.5)),
                lambda1=float(rng.uniform(0, 3)),
                lambda2=float(rng.uniform(0, 1)),
                lambda3=float(rng.uniform(0, 1)),
            )
            got = alignment_loss(batch, cfg)[0]
            worst = max(worst, abs(got - self.oracle(batch, cfg)))
        ok = worst <= 1e-9
        report("criterion 2: loss oracle equivalence", ok, f"worst |delta| {worst:.2e}")
        assert worst <= 1e-9


class TestCriterion3HarmonicMeanFidelity:
    # (28.1, 73.5) computes to H = 40.65649..., which rounds to 40.7; the
    # published 40.6 differs by 0.1, outside the 0.05 tolerance. Left red
    # deliberately rather than widening the tolerance.
    @pytest.mark.parametrize(
        "u,s,expected",
        [(28.1, 73.5, 40.6), (57.9, 61.4, 59.6), (59.8, 75.1, 66.6)],
    )
    def test_published_triples(self, u, s, expected):
        h = round(harmonic_mean(u, s), 1)
        ok = abs(h - expected) <= 0.05
        report(
            f"criterion 3: harmonic mean ({u}, {s})",
            ok,
            f"computed {h}, published {expected}",
        )
        assert abs(h - expected) <= 0.05


class TestCriterion4GroundedEmbeddingBenefit:
    @staticmethod
    def t1_with_features(features, data, table, seed):
        train_idx = np.array(
            [i for i, a in enumerate(data.assignments) if a == "train"]
        )
        unseen_idx = np.array(
            [i for i, a in enumerate(data.assignments) if a == "test_unseen"]
        )
        w = train_compatibility(
            LabeledEmbeddings(features[train_idx], data.labels[train_idx]),
            table,
            ZslConfig(epochs=60, seed=seed),
        )
        preds, _ = infer_batch(w, features[unseen_idx], table)
        _, t1 = per_class_accuracy(preds, data.labels[unseen_idx], table.unseen)
        return t1

    def test_grounded_t1_exceeds_raw_by_10_points(self):
        start = time.perf_counter()
        gaps = []
        for seed in range(5):
            cfg = SynthConfig(
                n_classes=12,
                n_seen=8,
                samples_per_class=30,
                d_visual=16,
                d_sentence=10,
                d_attr=10,
                cluster_spread=0.08,
                caption_signal=0.9,
                collide="0,9",  # one seen, one unseen
                seed=seed,
            )
            data = generate(cfg)
            table = data.attributes

            raw_t1 = self.t1_with_features(data.visual, data, table, seed)

            hv = init_head(cfg.d_visual, 24, 10, make_rng(seed + 1))
            hs = init_head(cfg.d_sentence, 24, 10, make_rng(seed + 2))
            train_cfg = TrainConfig(epochs=30, batch_size=32, learning_rate=0.01, seed=seed)
            train_joint(
                data.visual, data.sentences, data.groups,
                TrainState.fresh(hv, hs, LossConfig(), train_cfg, len(data.groups)),
                LossConfig(), train_cfg,
            )
            grounded, _ = forward(hv, data.visual, train=False)
            grounded_t1 = self.t1_with_features(grounded, data, table, seed)
            gaps.append(grounded_t1 - raw_t1)
        elapsed = time.perf_counter() - start
        mean_gap = float(np.mean(gaps))
        ok = mean_gap >= 0.10 and elapsed < 300.0
        report(
            "criterion 4: grounded-embedding benefit",
            ok,
            f"mean T1 gap {100 * mean_gap:+.1f} points over 5 seeds, {elapsed:.0f}s",
        )
        assert mean_gap >= 0.10
        assert elapsed < 300.0


class TestCriterion5TrainingSanity:
    def test_loss_decay_and_unit_norm(self):
        cfg = SynthConfig(seed=0)  # default separable config
        data = generate(cfg)
        hv = init_head(cfg.d_visual, 64, 16, make_rng(1))
        hs = init_head(cfg.d_sentence, 64, 16, make_rng(2))
        train_cfg = TrainConfig(epochs=50, batch_size=32, seed=0)
        log = train_joint(
            data.visual, data.sentences, data.groups,
            TrainState.fresh(hv, hs, LossConfig(), train_cfg, len(data.groups)),
            LossConfig(), train_cfg,
        )
        ratio = log.epoch_loss[-1] / log.epoch_loss[0]

        worst_dev = 0.0
        for head, feats in ((hv, data.visual), (hs, data.sentences)):
            emb, _ = forward(head, feats, train=False)
            worst_dev = max(
                worst_dev, float(np.max(np.abs(np.linalg.norm(emb, axis=1) - 1.0)))
            )
        ok = ratio <= 0.10 and worst_dev <= 1e-9
        report(
            "criterion 5: training sanity",
            ok,
            f"loss ratio {ratio:.3f}, worst norm dev {worst_dev:.1e}",
        )
        assert ratio <= 0.10
        assert worst_dev <= 1e-9


class TestCriterion6MetricProtocol:
    @staticmethod
    def setting(seed):
        rng = make_rng(seed)
        from jezsl.compat import AttributeTable

        table = AttributeTable(
            class_ids=list(range(6)),
            attributes=rng.standard_normal((6, 5)),
            seen={0, 1, 2, 3},
            unseen={4, 5},
        )
        w = rng.standard_normal((7, 5))
        test_seen = LabeledEmbeddings(
            rng.standard_normal((20, 7)), rng.integers(0, 4, size=20)
        )
        test_unseen = LabeledEmbeddings(
            rng.standard_normal((16, 7)), rng.integers(4, 6, size=16)
        )
        return w, test_seen, test_unseen, table

    def test_protocol_properties(self):
        ok = True
        for seed in range(10):
            w, test_seen, test_unseen, table = self.setting(seed)
            test = LabeledEmbeddings(
                np.concatenate([test_seen.embeddings, test_unseen.embeddings]),
                np.concatenate([test_seen.labels, test_unseen.labels]),
            )
            r = evaluate(w, test, table)
            # restricting candidates to unseen classes can only help
            ok = ok and r.t1 >= r.u - 1e-12
            ok = ok and min(r.u, r.s) - 1e-12 <= r.h <= max(r.u, r.s) + 1e-12

            perm = make_rng(seed).permutation(len(test.labels))
            r2 = evaluate(
                w, LabeledEmbeddings(test.embeddings[perm], test.labels[perm]), table
            )
            ok = ok and (r.t1, r.u, r.s, r.h) == (r2.t1, r2.u, r2.s, r2.h)

        # skewed example: 4-sample class perfect, 1-sample class wrong
        _, mean = per_class_accuracy([0, 0, 0, 0, 0], [0, 0, 0, 0, 1], [0, 1])
        ok = ok and mean == 0.5
        report("criterion 6: metric protocol properties", ok)
        assert ok


class TestCriterion7Reproducibility:
    @staticmethod
    def run(*argv):
        assert cli_main(list(argv)) == 0

    def test_manifest_rerun_and_resume_bit_identical(self, tmp_path):
        data = str(tmp_path / "data")
        self.run(
            "gen-synth", "--out", data, "--classes", "5", "--seen", "3",
            "--per-class", "10", "--d-visual", "6", "--d-sentence", "6",
            "--d-attr", "6", "--spread", "0.2", "--seed", "0",
        )
        # re-running gen-synth from its own manifest reproduces every file
        data2 = str(tmp_path / "data2")
        self.run(
            "gen-synth", "--config", os.path.join(data, "manifest.txt"),
            "--out", data2,
        )
        ok = True
        for name in os.listdir(data):
            if name == "manifest.txt":
                continue  # records the differing --out path
            a = open(os.path.join(data, name), "rb").read()
            b = open(os.path.join(data2, name), "rb").read()
            ok = ok and a == b
            assert a == b, name

        # interrupted + resumed training matches a straight run bit-exactly
        common = ["--data", data, "--dim", "4", "--hidden", "16",
                  "--batch-size", "8", "--lr", "0.005", "--seed", "1"]
        full = str(tmp_path / "full")
        self.run("train-embed", "--out", full, "--epochs", "4", *common)
        part = str(tmp_path / "part")
        self.run("train-embed", "--out", part, "--epochs", "2", *common)
        self.run("train-embed", "--out", part, "--epochs", "4", "--resume", *common)
        for name in ("head_v.jeh", "head_s.jeh", "trainer_state.jet"):
            a = open(os.path.join(full, name), "rb").read()
            b = open(os.path.join(part, name), "rb").read()
            ok = ok and a == b
            assert a == b, name
        report("criterion 7: reproducibility", ok)
