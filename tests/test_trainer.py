import hashlib
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from jezsl import trainer
from jezsl.alignment import LossConfig
from jezsl.data import SynthConfig, generate
from jezsl.errors import DataError, NumericalError
from jezsl.heads import PARAM_NAMES, head_arrays, init_head
from jezsl.linalg import make_rng, write_arrays
from jezsl.trainer import (
    STATE_FILE,
    STATE_MAGIC,
    STATE_VERSION,
    TrainConfig,
    TrainState,
    _batch_indices,
    epoch_order,
    load_train_state,
    save_train_state,
    sgd_step,
    train_joint,
    trajectory,
)


def make_problem(seed=0, n=40, d_in=6, d_out=4, n_groups=4):
    rng = make_rng(seed)
    groups = np.repeat(np.arange(n_groups), n // n_groups)
    centers_v = rng.standard_normal((n_groups, d_in))
    centers_s = rng.standard_normal((n_groups, d_in))
    visual = centers_v[groups] + 0.3 * rng.standard_normal((n, d_in))
    sentences = centers_s[groups] + 0.3 * rng.standard_normal((n, d_in))
    visual /= np.linalg.norm(visual, axis=1, keepdims=True)
    sentences /= np.linalg.norm(sentences, axis=1, keepdims=True)
    return visual, sentences, groups


def fresh_heads(seed=0, d_in=6, d_out=4):
    return (
        init_head(d_in, 5, d_out, make_rng(seed + 1)),
        init_head(d_in, 5, d_out, make_rng(seed + 2)),
    )


def snapshot(head):
    return {k: v.copy() for k, v in vars(head).items() if isinstance(v, np.ndarray)}


def untrained_state(seed=0):
    return TrainState.fresh(*fresh_heads(seed=seed), LossConfig(), TrainConfig(), 40)


class TestSgdStep:
    def test_zero_momentum_plain_step(self):
        p = np.array([1.0, 2.0])
        sgd_step(p, np.array([0.5, -0.5]), np.zeros(2), learning_rate=0.1, momentum=0.0)
        np.testing.assert_allclose(p, [0.95, 2.05], atol=1e-15)

    def test_two_step_momentum_recurrence(self):
        # v1 = -lr*g1; v2 = mu*v1 - lr*g2; p = p0 + v1 + v2, hand-computed
        p = np.array([0.0])
        v = np.zeros(1)
        lr, mu = 0.1, 0.9
        g1, g2 = np.array([1.0]), np.array([2.0])
        sgd_step(p, g1, v, lr, mu)
        sgd_step(p, g2, v, lr, mu)
        v1 = -lr * g1
        v2 = mu * v1 - lr * g2
        np.testing.assert_allclose(p, v1 + v2, atol=1e-12)
        np.testing.assert_allclose(v, v2, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sgd_step(np.zeros(2), np.zeros(3), np.zeros(2), 0.1, 0.9)


class TestEpochOrder:
    def test_permutation_and_determinism(self):
        a = epoch_order(5, 3, 20)
        b = epoch_order(5, 3, 20)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(np.sort(a), np.arange(20))

    def test_depends_on_epoch(self):
        assert not np.array_equal(
            epoch_order(5, 0, 50), epoch_order(5, 1, 50)
        )


class TestBatchIndices:
    def test_trailing_singleton_dropped(self):
        order = np.arange(7)
        groups = np.array([0, 0, 0, 1, 1, 1, 1])
        cfg = TrainConfig(batch_size=3)
        batches = _batch_indices(order, groups, cfg)
        assert [len(b) for b in batches] == [3, 3]

    def test_balanced_batches_fix_single_group(self):
        order = np.arange(8)
        groups = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        cfg = TrainConfig(batch_size=4, balanced_batches=True)
        batches = _batch_indices(order, groups, cfg)
        for idx in batches:
            assert len(np.unique(groups[idx])) >= 2

    def test_balancing_swap_keeps_the_donor_batch_mixed(self):
        # The first batch's only group-1 row must not be the donor: taking
        # it would leave that batch with no negatives.
        groups = np.array([0, 0, 1, 0, 0, 0, 1, 1, 2])
        cfg = TrainConfig(batch_size=3, balanced_batches=True)
        batches = _batch_indices(np.arange(9), groups, cfg)
        assert [groups[idx].tolist() for idx in batches] == [[0, 0, 1], [0, 0, 1], [0, 1, 2]]


class TestTrainJoint:
    def test_zero_epochs_leaves_heads_bit_identical(self):
        visual, sentences, groups = make_problem()
        hv, hs = fresh_heads()
        before_v, before_s = snapshot(hv), snapshot(hs)
        cfg = TrainConfig(epochs=0, batch_size=8, seed=0)
        train_joint(visual, sentences, groups, TrainState.fresh(hv, hs, LossConfig(), cfg, 40),
                    LossConfig(), cfg)
        for k, v in before_v.items():
            np.testing.assert_array_equal(getattr(hv, k), v)
        for k, v in before_s.items():
            np.testing.assert_array_equal(getattr(hs, k), v)

    def test_zero_lr_changes_only_running_stats(self):
        visual, sentences, groups = make_problem()
        hv, hs = fresh_heads()
        before = snapshot(hv)
        cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=0.0, seed=0)
        train_joint(visual, sentences, groups, TrainState.fresh(hv, hs, LossConfig(), cfg, 40),
                    LossConfig(), cfg)
        for k, v in before.items():
            if k in ("bn_running_mean", "bn_running_var"):
                assert not np.array_equal(getattr(hv, k), v)
            else:
                np.testing.assert_array_equal(getattr(hv, k), v)

    def test_deterministic_given_seed(self):
        visual, sentences, groups = make_problem()
        cfg = TrainConfig(epochs=3, batch_size=8, seed=4)
        hv1, hs1 = fresh_heads()
        hv2, hs2 = fresh_heads()
        log1 = train_joint(visual, sentences, groups,
                           TrainState.fresh(hv1, hs1, LossConfig(), cfg, 40), LossConfig(), cfg)
        log2 = train_joint(visual, sentences, groups,
                           TrainState.fresh(hv2, hs2, LossConfig(), cfg, 40), LossConfig(), cfg)
        assert log1.epoch_loss == log2.epoch_loss
        for k, v in snapshot(hv1).items():
            np.testing.assert_array_equal(getattr(hv2, k), v)

    def test_loss_decreases_on_separable_problem(self):
        visual, sentences, groups = make_problem(seed=1)
        cfg = TrainConfig(epochs=15, batch_size=10, seed=1)
        log = train_joint(visual, sentences, groups,
                          TrainState.fresh(*fresh_heads(seed=1), LossConfig(), cfg, 40),
                          LossConfig(), cfg)
        assert log.epoch_loss[-1] < log.epoch_loss[0]

    def test_resume_is_bit_identical(self, tmp_path):
        visual, sentences, groups = make_problem(seed=2)
        loss_cfg = LossConfig()
        cfg = TrainConfig(epochs=6, batch_size=8, seed=2)

        hv_full, hs_full = fresh_heads(seed=2)
        train_joint(visual, sentences, groups,
                    TrainState.fresh(hv_full, hs_full, loss_cfg, cfg, 40), loss_cfg, cfg)

        state = TrainState.fresh(*fresh_heads(seed=2), loss_cfg, cfg, 40)
        train_joint(visual, sentences, groups, state, loss_cfg, replace(cfg, epochs=3))
        path = str(tmp_path / "state.jet")
        save_train_state(state, path)
        resumed = load_train_state(path)
        assert resumed.next_epoch == 3
        train_joint(visual, sentences, groups, resumed, loss_cfg, cfg)
        for k, v in snapshot(hv_full).items():
            np.testing.assert_array_equal(getattr(resumed.head_v, k), v)
        for k, v in snapshot(hs_full).items():
            np.testing.assert_array_equal(getattr(resumed.head_s, k), v)

    def test_resume_refuses_changed_hyperparameters(self):
        visual, sentences, groups = make_problem()
        cfg = TrainConfig(epochs=1, batch_size=8)
        state = TrainState.fresh(*fresh_heads(), LossConfig(), cfg, 40)
        train_joint(visual, sentences, groups, state, LossConfig(), cfg)
        with pytest.raises(ValueError, match="batch_size=8"):
            train_joint(visual, sentences, groups, state, LossConfig(),
                        TrainConfig(epochs=2, batch_size=10))
        with pytest.raises(ValueError, match="rows=40"):
            train_joint(visual[:30], sentences[:30], groups[:30], state, LossConfig(),
                        TrainConfig(epochs=2, batch_size=8))
        # epochs and checkpoint_every do not shape the trajectory
        train_joint(visual, sentences, groups, state, LossConfig(),
                    TrainConfig(epochs=2, batch_size=8, checkpoint_every=5))
        assert state.next_epoch == 2

    def test_fresh_state_refuses_another_config(self):
        # A fresh state holds its run's trajectory, so the first call is
        # checked as a resume is.
        visual, sentences, groups = make_problem()
        hv, hs = fresh_heads()
        before = snapshot(hv)
        state = TrainState.fresh(hv, hs, LossConfig(), TrainConfig(epochs=2, batch_size=8), 40)
        with pytest.raises(ValueError, match=r"^train_joint: state belongs to a run with "
                                             r"batch_size=8\.0, not 10\.0$"):
            train_joint(visual, sentences, groups, state, LossConfig(),
                        TrainConfig(epochs=2, batch_size=10))
        with pytest.raises(ValueError, match=r"margin=0\.1, not 0\.3$"):
            train_joint(visual, sentences, groups, state, LossConfig(margin=0.3),
                        TrainConfig(epochs=2, batch_size=8))
        with pytest.raises(ValueError, match=r"rows=40\.0, not 30\.0$"):
            train_joint(visual[:30], sentences[:30], groups[:30], state, LossConfig(),
                        TrainConfig(epochs=2, batch_size=8))
        assert state.next_epoch == 0
        for k, v in before.items():
            np.testing.assert_array_equal(getattr(hv, k), v)

    def test_resume_refuses_fewer_epochs_than_trained(self, tmp_path):
        # Fewer epochs than the state has trained would train nothing and
        # write the checkpoint again; the call is refused and writes nothing.
        visual, sentences, groups = make_problem()
        cfg = TrainConfig(epochs=4, batch_size=8)
        train_joint(visual, sentences, groups,
                    TrainState.fresh(*fresh_heads(), LossConfig(), cfg, 40), LossConfig(), cfg,
                    checkpoint_dir=str(tmp_path))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        state = load_train_state(str(tmp_path / STATE_FILE))
        params = state.head_v.learnable()
        with pytest.raises(ValueError, match=r"^train_joint: state has trained 4 epochs, "
                                             r"more than epochs=2$"):
            train_joint(visual, sentences, groups, state, LossConfig(),
                        TrainConfig(epochs=2, batch_size=8), checkpoint_dir=str(tmp_path))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert all(a is b for a, b in zip(state.head_v.learnable(), params))

    def test_crash_during_checkpoint_keeps_previous_bundle(self, tmp_path, monkeypatch):
        visual, sentences, groups = make_problem(seed=3)
        cfg = TrainConfig(epochs=6, batch_size=8, seed=3, checkpoint_every=1)
        hv_full, hs_full = fresh_heads(seed=3)
        train_joint(visual, sentences, groups,
                    TrainState.fresh(hv_full, hs_full, LossConfig(), cfg, 40), LossConfig(), cfg)

        real_replace = os.replace
        bundle_writes = []

        def replace(src, dst):
            if dst.endswith(STATE_FILE):
                bundle_writes.append(dst)
                if len(bundle_writes) == 4:
                    raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="disk full"):
            train_joint(visual, sentences, groups,
                        TrainState.fresh(*fresh_heads(seed=3), LossConfig(), cfg, 40),
                        LossConfig(), cfg, checkpoint_dir=str(tmp_path))
        monkeypatch.undo()
        assert sorted(os.listdir(tmp_path)) == ["head_s.jeh", "head_v.jeh", STATE_FILE]

        state = load_train_state(str(tmp_path / STATE_FILE))
        assert state.next_epoch == 3
        train_joint(visual, sentences, groups, state, LossConfig(), cfg)
        for full, resumed in ((hv_full, state.head_v), (hs_full, state.head_s)):
            for k, v in snapshot(full).items():
                np.testing.assert_array_equal(getattr(resumed, k), v)

    def test_non_finite_gradient_names_head_and_parameter(self, monkeypatch):
        visual, sentences, groups = make_problem()
        hv, hs = fresh_heads()
        real_backward = trainer.backward

        def backward(head, trace, d_embeddings):
            grads = real_backward(head, trace, d_embeddings)
            if head is hs:
                grads[3][1] = np.inf  # b2
            return grads

        monkeypatch.setattr(trainer, "backward", backward)
        cfg = TrainConfig(epochs=2, batch_size=8)
        with pytest.raises(NumericalError, match="^non-finite gradient in sentence head "
                                                 "parameter b2 at epoch 1, batch 1$"):
            train_joint(visual, sentences, groups, TrainState.fresh(hv, hs, LossConfig(), cfg, 40),
                        LossConfig(), cfg)

    def test_non_finite_parameter_names_head_and_parameter(self):
        # One batch per epoch, so the overflowing update is checked only at
        # the epoch's end.
        visual, sentences, groups = make_problem()
        cfg = TrainConfig(epochs=1, batch_size=40, learning_rate=1e308)
        with pytest.raises(NumericalError, match="^non-finite visual head parameter w1 "
                                                 "after epoch 1$"):
            train_joint(visual, sentences, groups,
                        TrainState.fresh(*fresh_heads(), LossConfig(), cfg, 40), LossConfig(), cfg)

    @pytest.mark.parametrize("label, gamma, message", [
        ("visual", 0.0, "visual head forward: embedding row 0 has norm 0 below 1e-12"),
        ("sentence", 0.0, "sentence head forward: embedding row 0 has norm 0 below 1e-12"),
        # Rows whose squares overflow have an infinite norm, which forward's
        # norm guard refuses, whether their entries are finite (1e200) or
        # overflow too (1e308).
        ("visual", 1e200, "visual head forward: embedding row 0 has norm inf non-finite"),
        ("visual", 1e308, "visual head forward: embedding row 0 has norm inf non-finite"),
    ], ids=["visual-zero", "sentence-zero", "visual-squares-overflow", "visual-overflow"])
    def test_embedding_failure_names_head_epoch_and_batch(self, label, gamma, message):
        visual, sentences, groups = make_problem()
        hv, hs = fresh_heads()
        # bn_beta starts at 0, so a gamma of 0 makes every embedding row 0.
        {"visual": hv, "sentence": hs}[label].bn_gamma[:] = gamma
        cfg = TrainConfig(epochs=2, batch_size=8)
        with pytest.raises(NumericalError, match=f"^{re.escape(message)} at epoch 1, batch 1$"):
            train_joint(visual, sentences, groups, TrainState.fresh(hv, hs, LossConfig(), cfg, 40),
                        LossConfig(), cfg)

    def test_row_count_mismatch(self):
        visual, sentences, groups = make_problem()
        with pytest.raises(ValueError):
            train_joint(
                visual[:-1], sentences, groups,
                TrainState.fresh(*fresh_heads(), LossConfig(), TrainConfig(), 39),
                LossConfig(), TrainConfig()
            )

    def test_checkpoint_files_written(self, tmp_path):
        visual, sentences, groups = make_problem()
        cfg = TrainConfig(epochs=2, batch_size=8, checkpoint_every=1, seed=0)
        train_joint(
            visual, sentences, groups, TrainState.fresh(*fresh_heads(), LossConfig(), cfg, 40),
            LossConfig(), cfg, checkpoint_dir=str(tmp_path),
        )
        for name in ("head_v.jeh", "head_s.jeh", "trainer_state.jet"):
            assert (tmp_path / name).exists()


class TestTrainStateIo:
    def test_round_trip(self, tmp_path):
        state = untrained_state(seed=7)
        rng = make_rng(7)
        state.velocity[:] = rng.standard_normal(state.velocity.shape)
        state.head_v.bn_running_var[:] = rng.random(4) + 0.5
        state.next_epoch = 12
        path = str(tmp_path / "s.jet")
        save_train_state(state, path)
        loaded = load_train_state(path)
        assert loaded.next_epoch == 12
        np.testing.assert_array_equal(loaded.hyperparams, state.hyperparams)
        np.testing.assert_array_equal(loaded.velocity, state.velocity)
        for a, b in ((state.head_v, loaded.head_v), (state.head_s, loaded.head_s)):
            for k, v in vars(a).items():
                np.testing.assert_array_equal(getattr(b, k), v)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "s.jet"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(DataError):
            load_train_state(str(path))

    def test_truncation(self, tmp_path):
        path = tmp_path / "s.jet"
        save_train_state(untrained_state(), str(path))
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(DataError):
            load_train_state(str(path))

    def test_head_batch_norm_state_is_checked(self, tmp_path):
        state = untrained_state()
        state.head_s.bn_epsilon = 0.0
        path = str(tmp_path / "s.jet")
        save_train_state(state, path)
        with pytest.raises(DataError, match=f"^{re.escape(path)}: batch-norm state needs .* "
                                            "epsilon 0, momentum 0.1$"):
            load_train_state(path)

    def test_velocity_shapes_must_match_the_heads(self, tmp_path):
        # The visual w1 velocity is stored transposed: the bundle's total
        # size is right, but its shape is not the head's.
        hv, hs = fresh_heads()
        velocity = [np.zeros_like(getattr(h, name)) for h in (hv, hs) for name in PARAM_NAMES]
        velocity[0] = velocity[0].T
        path = str(tmp_path / "s.jet")
        write_arrays(path, STATE_MAGIC, STATE_VERSION,
                     [*head_arrays(hv), *head_arrays(hs), *velocity, np.float64(0),
                      trajectory(LossConfig(), TrainConfig(), 40)])
        with pytest.raises(DataError, match="velocity shapes do not match"):
            load_train_state(path)


class TestConfigValidation:
    def test_rejects_batch_size_one(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1).validate()

    def test_rejects_negative_lr(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1).validate()

    def test_allows_zero_lr(self):
        TrainConfig(learning_rate=0.0).validate()


class TestTrainedStateIsPinned:
    # sha256 of trainer_state.jet (both heads, both velocities, next epoch and
    # hyperparameters), first 16 hex digits, after train_joint on generated
    # data. Any change to the float operations of a training step, or to
    # their order, moves a digest; so does a change of numpy or BLAS build.
    @staticmethod
    def train(tmp_path, synth, hidden, dim, train_cfg, resume_from=None, regroup=None):
        data = generate(synth)
        groups = data.groups if regroup is None else regroup(data.groups)
        d_v, d_s = data.visual.shape[1], data.sentences.shape[1]
        state = TrainState.fresh(init_head(d_v, hidden, dim, make_rng(synth.seed + 1)),
                                 init_head(d_s, hidden, dim, make_rng(synth.seed + 2)),
                                 LossConfig(), train_cfg, len(groups))
        out = str(tmp_path)
        args = (data.visual, data.sentences, groups)
        if resume_from is not None:
            train_joint(*args, state, LossConfig(), replace(train_cfg, epochs=resume_from),
                        checkpoint_dir=out)
            state = load_train_state(os.path.join(out, STATE_FILE))
        train_joint(*args, state, LossConfig(), train_cfg, checkpoint_dir=out)
        with open(os.path.join(out, STATE_FILE), "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()[:16]

    def test_default_like(self, tmp_path):
        digest = self.train(tmp_path, SynthConfig(samples_per_class=16, seed=3), 16, 16,
                            TrainConfig(epochs=3, batch_size=32, seed=3))
        assert digest == "8f936096ef83081f"

    def test_hidden_wider_than_dim_balanced(self, tmp_path, monkeypatch):
        # Class 0 is one group and the other nine classes are another, so
        # shuffled 8-row batches often hold the large group alone and the
        # balancing swap runs. The spy counts the batches it changed.
        changed = []
        real = trainer._batch_indices

        def spy(order, groups, cfg):
            plain = real(order.copy(), groups, replace(cfg, balanced_batches=False))
            batches = real(order, groups, cfg)
            changed.append(sum(not np.array_equal(a, b) for a, b in zip(plain, batches)))
            return batches

        monkeypatch.setattr(trainer, "_batch_indices", spy)
        digest = self.train(tmp_path, SynthConfig(samples_per_class=12, d_sentence=12, seed=5),
                            24, 8, TrainConfig(epochs=3, batch_size=8, balanced_batches=True,
                                               seed=5),
                            regroup=lambda labels: (labels == 0).astype(np.int64))
        assert len(changed) == 3 and min(changed) > 0
        assert digest == "ce034914e59ad27b"

    def test_repeated_rows_resumed(self, tmp_path):
        # Two captions per image repeat each visual row, so the batch holds
        # zero distances between image embeddings (the d = 0 subgradient).
        digest = self.train(tmp_path, SynthConfig(samples_per_class=6, captions_per_image=2,
                                                  seed=7),
                            16, 16, TrainConfig(epochs=4, batch_size=16, seed=7),
                            resume_from=2)
        assert digest == "c46a682ac0b4ec3e"
