import argparse
import codecs
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jezsl
from jezsl.alignment import LossConfig
from jezsl.cli import COMMANDS, build_parser, main
from jezsl.compat import ZslConfig, load_model
from jezsl.data import SynthConfig, load_dataset, read_features, write_features
from jezsl.heads import load_head, save_head
from jezsl.linalg import make_rng
from jezsl.trainer import TRAJECTORY_FIELDS, TrainConfig, load_train_state


def run(*argv):
    return main(list(argv))


def run_without_warnings(capsys, *argv):
    """(exit code, stderr) of one CLI call that must raise no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(*argv)
    err = capsys.readouterr().err
    assert not caught, [str(w.message) for w in caught]
    assert "Warning" not in err
    return code, err


def gen(tmp_path, name="data", **overrides):
    out = str(tmp_path / name)
    args = {
        "--classes": "5",
        "--seen": "3",
        "--per-class": "10",
        "--d-visual": "6",
        "--d-sentence": "6",
        "--d-attr": "6",
        "--spread": "0.2",
        "--seed": "0",
    }
    args.update(overrides)
    argv = ["gen-synth", "--out", out]
    for k, v in args.items():
        argv += [k, v]
    assert run(*argv) == 0
    return out


class TestParseCollide:
    # --collide's text is the config field SynthConfig.collide, which
    # collision_groups parses.
    def test_single_group(self):
        assert SynthConfig(collide="3,4").collision_groups() == [[3, 4]]

    def test_multiple_groups(self):
        assert SynthConfig(collide="3,4;5,6,7").collision_groups() == [[3, 4], [5, 6, 7]]
        assert SynthConfig(collide=" 3,4  5,,6; ").collision_groups() == [[3, 4], [5, 6]]

    def test_empty(self):
        assert SynthConfig().collision_groups() == []

    @staticmethod
    def refused(text, message):
        # Under the option's name for the CLI, under the field's in the library.
        cfg = SynthConfig(collide=text)
        with pytest.raises(ValueError, match=f"^--{message}$"):
            cfg.collision_groups(SynthConfig.cli_name)
        with pytest.raises(ValueError, match=f"^{message}$"):
            cfg.validate()

    def test_singleton_group_rejected(self):
        self.refused("3", "collide group needs >= 2 classes, got '3'")
        self.refused("3,4;5,", "collide group needs >= 2 classes, got '5,'")
        self.refused("1,1", "collide group needs >= 2 classes, got '1,1'")

    def test_non_integer_id_rejected(self):
        self.refused("3,x", "collide class ids must be integers, got '3,x'")


class TestGenSynth:
    def test_writes_dataset_and_manifest(self, tmp_path):
        out = gen(tmp_path)
        for name in ("visual.jef", "sentences.jef", "labels.txt", "splits.txt",
                     "assignments.txt", "manifest.txt"):
            assert os.path.exists(os.path.join(out, name))

    def test_same_seed_byte_identical(self, tmp_path):
        a = gen(tmp_path, "a")
        b = gen(tmp_path, "b")
        blob_a = open(os.path.join(a, "visual.jef"), "rb").read()
        blob_b = open(os.path.join(b, "visual.jef"), "rb").read()
        assert blob_a == blob_b

    def test_seen_equal_classes_is_usage_error(self, tmp_path):
        code = run("gen-synth", "--out", str(tmp_path / "x"),
                   "--classes", "5", "--seen", "5")
        assert code == 1

    def test_collide_rows_identical(self, tmp_path):
        out = gen(tmp_path, "c", **{"--collide": "1,4"})
        attrs = read_features(os.path.join(out, "attributes.jef"))
        np.testing.assert_array_equal(attrs[1], attrs[4])

    def test_missing_out_is_usage_error(self):
        assert run("gen-synth") == 1


class TestTrainEmbed:
    def test_zero_epochs_saves_initial_heads(self, tmp_path):
        data = gen(tmp_path)
        out = str(tmp_path / "run")
        assert run("train-embed", "--data", data, "--out", out,
                   "--dim", "4", "--hidden", "16", "--epochs", "0", "--seed", "3") == 0
        head = load_head(os.path.join(out, "head_v.jeh"))
        from jezsl.heads import init_head

        visual = read_features(os.path.join(data, "visual.jef"))
        ref = init_head(visual.shape[1], 16, 4, make_rng(3 + 1))
        np.testing.assert_array_equal(head.w1, ref.w1)
        np.testing.assert_array_equal(head.b1, ref.b1)

    def test_training_writes_log_and_state(self, tmp_path):
        data = gen(tmp_path)
        out = str(tmp_path / "run")
        assert run("train-embed", "--data", data, "--out", out,
                   "--dim", "4", "--hidden", "16", "--epochs", "2", "--batch-size", "8",
                   "--lr", "0.005") == 0
        log = open(os.path.join(out, "train_log.txt")).read().splitlines()
        assert len(log) == 2
        assert os.path.exists(os.path.join(out, "trainer_state.jet"))

    def test_resume_matches_straight_run(self, tmp_path, capsys):
        data = gen(tmp_path)
        common = ["--data", data, "--dim", "4", "--hidden", "16", "--batch-size", "8",
                  "--lr", "0.005", "--seed", "1"]
        full = str(tmp_path / "full")
        assert run("train-embed", "--out", full, "--epochs", "4", *common) == 0
        part = str(tmp_path / "part")
        assert run("train-embed", "--out", part, "--epochs", "2", *common) == 0
        capsys.readouterr()
        assert run("train-embed", "--out", part, "--epochs", "4", "--resume",
                   *common) == 0
        a = open(os.path.join(full, "head_v.jeh"), "rb").read()
        b = open(os.path.join(part, "head_v.jeh"), "rb").read()
        assert a == b
        # The resumed log goes on with epochs 3 and 4, as the full run wrote them.
        full_log = pathlib.Path(full, "train_log.txt").read_bytes().splitlines(keepends=True)
        assert len(full_log) == 4
        assert pathlib.Path(part, "train_log.txt").read_bytes() == b"".join(full_log[2:])
        assert capsys.readouterr().out.encode() == b"".join(full_log[2:])

    def test_final_checkpoint_is_written_once(self, tmp_path, monkeypatch):
        data = gen(tmp_path)
        common = ["--data", data, "--dim", "4", "--hidden", "16", "--batch-size", "8",
                  "--lr", "0.005", "--seed", "1"]
        real_replace = os.replace
        written = []

        def replace(src, dst):
            written.append(os.path.basename(dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        every = str(tmp_path / "every")
        assert run("train-embed", "--out", every, "--epochs", "4",
                   "--checkpoint-every", "2", *common) == 0
        # epochs 2 and 4 each write both heads and the bundle; no third copy.
        # Then the log and the manifest, through the same atomic writer.
        checkpoint = ["head_v.jeh", "head_s.jeh", "trainer_state.jet"]
        assert written == checkpoint * 2 + ["train_log.txt", "manifest.txt"]
        del written[:]
        straight = str(tmp_path / "straight")
        assert run("train-embed", "--out", straight, "--epochs", "4", *common) == 0
        assert written == checkpoint + ["train_log.txt", "manifest.txt"]
        part = str(tmp_path / "part")
        assert run("train-embed", "--out", part, "--epochs", "2", *common) == 0
        assert run("train-embed", "--out", part, "--epochs", "4", "--checkpoint-every", "2",
                   "--resume", *common) == 0
        for name in ("head_v.jeh", "head_s.jeh", "trainer_state.jet"):
            blobs = {open(os.path.join(d, name), "rb").read() for d in (every, straight, part)}
            assert len(blobs) == 1, name

    @pytest.mark.parametrize("legs", [[["--epochs", "0"]],
                                      [["--epochs", "2"], ["--epochs", "2", "--resume"]]])
    def test_no_epochs_to_run_still_writes_heads_and_bundle(self, tmp_path, legs):
        data = gen(tmp_path)
        out = str(tmp_path / "run")
        for leg in legs:
            assert run("train-embed", "--data", data, "--out", out, "--dim", "4",
                       "--batch-size", "8", "--checkpoint-every", "2", *leg) == 0
        state = load_train_state(os.path.join(out, "trainer_state.jet"))
        assert state.next_epoch == int(legs[-1][1])
        head = load_head(os.path.join(out, "head_v.jeh"))
        np.testing.assert_array_equal(head.w1, state.head_v.w1)
        load_head(os.path.join(out, "head_s.jeh"))

    def test_resume_refuses_changed_options(self, tmp_path, capsys):
        data = gen(tmp_path)
        out = str(tmp_path / "run")
        common = ["--data", data, "--out", out, "--batch-size", "8", "--seed", "1000000"]
        assert run("train-embed", "--epochs", "1", "--dim", "16", *common) == 0
        heads = [open(os.path.join(out, n), "rb").read()
                 for n in ("head_v.jeh", "head_s.jeh", "trainer_state.jet", "manifest.txt")]
        capsys.readouterr()
        # The last flag wins, so a later --seed replaces the one in common.
        for changed, text in ((["--dim", "8", "--lr", "0.5", "--batch-size", "64"], "--dim"),
                              (["--dim", "16", "--lr", "0.5"], "--lr"),
                              (["--dim", "16", "--rows", "train"], "--rows"),
                              (["--dim", "16", "--seed", "1000001"],
                               "seed=1000000, not 1000001; set --seed"),
                              (["--dim", "16", "--lr", "0.0100000001"],
                               "learning_rate=0.01, not 0.0100000001; set --lr")):
            assert run("train-embed", "--epochs", "2", "--resume", *common, *changed) == 1
            assert text in capsys.readouterr().err
        assert heads == [open(os.path.join(out, n), "rb").read()
                         for n in ("head_v.jeh", "head_s.jeh", "trainer_state.jet",
                                   "manifest.txt")]
        assert run("train-embed", "--epochs", "2", "--resume", "--dim", "16", *common) == 0
        assert load_head(os.path.join(out, "head_v.jeh")).d_out == 16

    def test_resume_refuses_fewer_epochs(self, tmp_path, capsys):
        # A shorter run would leave the later epochs' heads under a manifest
        # and log of fewer epochs; an equal count stays allowed (see
        # test_no_epochs_to_run_still_writes_heads_and_bundle).
        data = gen(tmp_path, **{"--classes": "4", "--per-class": "8"})
        out = str(tmp_path / "run")
        common = ["--data", data, "--out", out, "--batch-size", "8"]
        assert run("train-embed", "--epochs", "4", *common) == 0
        before = {n: pathlib.Path(out, n).read_bytes() for n in os.listdir(out)}
        capsys.readouterr()
        assert run("train-embed", "--epochs", "2", "--resume", *common) == 1
        err = capsys.readouterr().err
        assert "has trained 4 epochs, more than --epochs 2" in err
        assert {n: pathlib.Path(out, n).read_bytes() for n in os.listdir(out)} == before

    def test_resume_without_bundle_is_refused(self, tmp_path, capsys):
        data = gen(tmp_path)
        out = str(tmp_path / "nowhere")
        code, err = run_without_warnings(capsys, "train-embed", "--data", data, "--out", out,
                                         "--resume", "--epochs", "1")
        assert code == 2
        assert err.startswith("data error: ")
        assert repr(os.path.join(out, "trainer_state.jet")) in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("key", ["visual", "sentences"])
    def test_resume_on_other_feature_width_names_both_files(self, tmp_path, capsys, key):
        data = gen(tmp_path)
        wider = gen(tmp_path, "wider", **{f"--d-{key.removesuffix('s')}": "9"})
        out = str(tmp_path / "run")
        common = ["--out", out, "--epochs", "2", "--batch-size", "8"]
        assert run("train-embed", "--data", data, *common) == 0
        before = {n: pathlib.Path(out, n).read_bytes() for n in os.listdir(out)}
        capsys.readouterr()
        code, err = run_without_warnings(capsys, "train-embed", "--data", wider, "--resume",
                                         *common)
        assert code == 2
        assert err == (f"data error: {os.path.join(wider, key + '.jef')}: 9 columns but "
                       f"{os.path.join(out, 'trainer_state.jet')} expects 6\n")
        assert {n: pathlib.Path(out, n).read_bytes() for n in os.listdir(out)} == before

    def test_non_finite_running_variance_stops_after_its_epoch(self, tmp_path, capsys):
        # A huge but finite first feature keeps every parameter finite while
        # the visual head's running variance overflows in epoch 1.
        data = str(tmp_path / "data")
        assert run("gen-synth", "--out", data) == 0
        path = os.path.join(data, "visual.jef")
        visual = read_features(path)
        visual[0, 0] = 1e300
        write_features(visual, path)
        capsys.readouterr()
        out = str(tmp_path / "run")
        code, err = run_without_warnings(capsys, "train-embed", "--data", data, "--out", out,
                                         "--epochs", "3")
        assert code == 3
        assert err == "numerical failure: non-finite visual head bn_running_var after epoch 1\n"
        assert not os.path.exists(out)

    def test_zero_norm_embedding_names_head_epoch_and_batch(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        assert run("gen-synth", "--out", data, "--classes", "5", "--seen", "3",
                   "--per-class", "10", "--d-visual", "6") == 0
        path = os.path.join(data, "visual.jef")
        visual = read_features(path)
        visual[0, 0] = 1e300
        write_features(visual, path)
        capsys.readouterr()
        out = str(tmp_path / "run")
        code, err = run_without_warnings(capsys, "train-embed", "--data", data, "--out", out,
                                         "--epochs", "3")
        assert code == 3
        assert err == ("numerical failure: visual head forward: embedding row 0 has norm 0 "
                       "below 1e-12 at epoch 1, batch 1\n")
        assert not os.path.exists(out)

    def test_repeated_captions_train(self, tmp_path):
        # Two captions per image repeat every image row, so coincident rows
        # (d = 0) sit inside active hinges from the first minibatch on.
        data = str(tmp_path / "data")
        assert run("gen-synth", "--out", data, "--captions-per-image", "2",
                   "--seed", "0") == 0
        visual = read_features(os.path.join(data, "visual.jef"))
        assert len(np.unique(visual, axis=0)) < len(visual)
        out = str(tmp_path / "run")
        assert run("train-embed", "--data", data, "--out", out, "--epochs", "2",
                   "--seed", "0") == 0
        log = open(os.path.join(out, "train_log.txt")).read().splitlines()
        assert len(log) == 2
        assert all(np.isfinite(float(f)) for line in log for f in line.split()[1:])

    @pytest.mark.parametrize("width, option", [(["--dim", "0"], "--dim"),
                                               (["--dim", "-2"], "--dim"),
                                               (["--hidden", "-3"], "--hidden")])
    def test_bad_width_is_usage_error(self, tmp_path, capsys, width, option):
        data = gen(tmp_path)
        capsys.readouterr()
        assert run("train-embed", "--data", data, "--out", str(tmp_path / "x"),
                   "--epochs", "1", *width) == 1
        assert option in capsys.readouterr().err

    @pytest.mark.parametrize("synth, epochs", [({}, "2"), ({"--classes": "3", "--seen": "2"}, "1")])
    def test_divergence_is_numerical_error(self, tmp_path, capsys, synth, epochs):
        # With 3 classes the 30 rows make one batch: the diverging step is the last.
        data = gen(tmp_path, **synth)
        capsys.readouterr()
        out = str(tmp_path / "x")
        code, err = run_without_warnings(capsys, "train-embed", "--data", data, "--out", out,
                                         "--lr", "1e308", "--epochs", epochs)
        assert code == 3 and "non-finite" in err
        assert not os.path.exists(os.path.join(out, "head_v.jeh"))

    def test_bad_rows_value(self, tmp_path):
        data = gen(tmp_path)
        assert run("train-embed", "--data", data, "--out", str(tmp_path / "x"),
                   "--rows", "validation") == 1

    def test_rows_of_one_group_are_data_error(self, tmp_path, capsys):
        # One seen class puts every train row in one group, so no triplet
        # has a negative and training would leave the heads as initialised.
        data = gen(tmp_path, **{"--classes": "3", "--seen": "1", "--per-class": "10"})
        capsys.readouterr()
        out = str(tmp_path / "run")
        code, err = run_without_warnings(capsys, "train-embed", "--data", data, "--out", out,
                                         "--rows", "train", "--epochs", "2",
                                         "--batch-size", "4")
        files = ", ".join(os.path.join(data, f) for f in ("groups.txt", "assignments.txt"))
        assert (code, err) == (2, f"data error: {files}: 8 training rows hold fewer than two "
                                  f"groups, so no triplet has a negative\n")
        assert not os.path.exists(out)

    def test_dataset_of_one_group_is_data_error(self, tmp_path, capsys):
        # --rows all reads no assignment, so only groups.txt is at fault.
        data = gen(tmp_path)
        groups = pathlib.Path(data, "groups.txt")
        groups.write_text("0\n" * 50)
        capsys.readouterr()
        out = str(tmp_path / "run")
        code, err = run_without_warnings(capsys, "train-embed", "--data", data, "--out", out,
                                         "--epochs", "2")
        assert (code, err) == (2, f"data error: {groups}: 50 training rows hold fewer than "
                                  f"two groups, so no triplet has a negative\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("dataset, options, code", [
        ({"--classes": "3", "--seen": "1"}, ["--rows", "train"], 2),  # one group
        ({}, ["--lr", "1e308", "--batch-size", "64"], 3),  # diverges in epoch 1
    ])
    def test_refused_run_leaves_no_out_directory(self, tmp_path, dataset, options, code):
        data = gen(tmp_path, **dataset)
        out = str(tmp_path / "run")
        assert run("train-embed", "--data", data, "--out", out, "--epochs", "2",
                   *options) == code
        assert not os.path.exists(out)

    def test_missing_dataset_is_data_error(self, tmp_path):
        assert run("train-embed", "--data", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "x")) == 2


class TestEmbedCommand:
    def setup_run(self, tmp_path):
        data = gen(tmp_path)
        out = str(tmp_path / "run")
        assert run("train-embed", "--data", data, "--out", out,
                   "--dim", "4", "--hidden", "16", "--epochs", "1", "--batch-size", "8",
                   "--lr", "0.005") == 0
        return data, out

    def test_embeddings_unit_norm(self, tmp_path):
        data, out = self.setup_run(tmp_path)
        emb_path = str(tmp_path / "emb.jef")
        assert run("embed", "--checkpoint", os.path.join(out, "head_v.jeh"),
                   "--features", os.path.join(data, "visual.jef"),
                   "--out", emb_path) == 0
        emb = read_features(emb_path)
        np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-9)
        assert os.path.exists(emb_path + ".manifest.txt")

    def test_raw_passthrough_bit_identical(self, tmp_path):
        data, out = self.setup_run(tmp_path)
        emb_path = str(tmp_path / "raw.jef")
        assert run("embed", "--checkpoint", os.path.join(out, "head_v.jeh"),
                   "--features", os.path.join(data, "visual.jef"),
                   "--out", emb_path, "--raw-passthrough") == 0
        np.testing.assert_array_equal(
            read_features(emb_path),
            read_features(os.path.join(data, "visual.jef")),
        )

    def test_raw_passthrough_needs_no_checkpoint(self, tmp_path, capsys):
        data = gen(tmp_path)
        features, emb = os.path.join(data, "visual.jef"), str(tmp_path / "raw.jef")
        assert run("embed", "--raw-passthrough", "--features", features, "--out", emb) == 0
        manifest = pathlib.Path(emb + ".manifest.txt")
        first = (pathlib.Path(emb).read_bytes(), manifest.read_bytes())
        assert "checkpoint=" in manifest.read_text().splitlines()
        assert run("embed", "--config", str(manifest)) == 0
        assert (pathlib.Path(emb).read_bytes(), manifest.read_bytes()) == first
        capsys.readouterr()
        out = str(tmp_path / "embedded.jef")
        # Refused before any file is read: an absent --features is not reached.
        assert run("embed", "--features", str(tmp_path / "absent.jef"), "--out", out) == 1
        assert capsys.readouterr().err == (
            "error: embed: missing required option(s): --checkpoint\n")
        assert not os.path.exists(out)

    def test_out_into_missing_directory_is_created(self, tmp_path):
        data, out = self.setup_run(tmp_path)
        emb_path = str(tmp_path / "new" / "deeper" / "emb.jef")
        assert run("embed", "--checkpoint", os.path.join(out, "head_v.jeh"),
                   "--features", os.path.join(data, "visual.jef"), "--out", emb_path) == 0
        assert read_features(emb_path).shape == (50, 4)
        manifest = open(emb_path + ".manifest.txt").read().splitlines()
        assert manifest[0] == "command=embed" and f"out={emb_path}" in manifest

    def test_width_mismatch_is_data_error(self, tmp_path):
        data, out = self.setup_run(tmp_path)
        bad = str(tmp_path / "bad.jef")
        from jezsl.data import write_features

        write_features(np.ones((3, 9)), bad)
        assert run("embed", "--checkpoint", os.path.join(out, "head_v.jeh"),
                   "--features", bad, "--out", str(tmp_path / "y.jef")) == 2


    def test_overflow_is_one_numerical_error_line(self, tmp_path, capsys):
        data, out = self.setup_run(tmp_path)
        visual = read_features(os.path.join(data, "visual.jef"))
        visual[0, 0] = 1e308
        huge, emb = str(tmp_path / "huge.jef"), str(tmp_path / "emb.jef")
        checkpoint = os.path.join(out, "head_v.jeh")
        write_features(visual, huge)
        capsys.readouterr()
        code, err = run_without_warnings(capsys, "embed", "--checkpoint", checkpoint,
                                         "--features", huge, "--out", emb)
        assert (code, err) == (3, f"numerical failure: {huge} with checkpoint {checkpoint}: "
                                  "forward: embedding row 0 has norm inf non-finite\n")
        assert not os.path.exists(emb)

    def test_head_whose_rows_overflow_is_one_numerical_error_line(self, tmp_path, capsys):
        # Finite embedding rows whose squares overflow: the norm is inf, and
        # dividing by it would write zero rows instead of unit ones.
        data, out = self.setup_run(tmp_path)
        head = load_head(os.path.join(out, "head_v.jeh"))
        head.bn_gamma[:] = 1e200
        checkpoint, emb = str(tmp_path / "big.jeh"), str(tmp_path / "emb.jef")
        features = os.path.join(data, "visual.jef")
        save_head(head, checkpoint)
        capsys.readouterr()
        code, err = run_without_warnings(capsys, "embed", "--checkpoint", checkpoint,
                                         "--features", features, "--out", emb)
        assert (code, err) == (3, f"numerical failure: {features} with checkpoint {checkpoint}: "
                                  "forward: embedding row 0 has norm inf non-finite\n")
        assert not os.path.exists(emb)

    def test_head_batch_norm_state_is_one_data_error_line(self, tmp_path, capsys):
        # forward would divide by zero with this variance, and numpy's warning
        # would come before the error line.
        data, out = self.setup_run(tmp_path)
        head = load_head(os.path.join(out, "head_v.jeh"))
        head.bn_running_var[0] = -1e-5
        checkpoint, emb = str(tmp_path / "bad.jeh"), str(tmp_path / "emb.jef")
        save_head(head, checkpoint)
        capsys.readouterr()
        code, err = run_without_warnings(capsys, "embed", "--checkpoint", checkpoint,
                                         "--features", os.path.join(data, "visual.jef"),
                                         "--out", emb)
        assert (code, err) == (2, f"data error: {checkpoint}: batch-norm state needs "
                                  "running_var >= 0, epsilon > 0 and momentum in [0, 1], "
                                  "got min running_var -1e-05, epsilon 1e-05, momentum 0.1\n")
        assert not os.path.exists(emb)

    def test_features_not_jef_is_data_error(self, tmp_path, capsys):
        features, emb = tmp_path / "x.csv", str(tmp_path / "emb.jef")
        features.write_text("dim=2\n1.0,2.0\n")
        code, err = run_without_warnings(capsys, "embed", "--raw-passthrough",
                                         "--features", str(features), "--out", emb)
        assert (code, err) == (2, f"data error: {features}: bad magic b'dim=', "
                                  "expected b'JEF1'\n")
        assert not os.path.exists(emb)


class TestCorruptArtifacts:
    """A cut-off artifact of each binary format is a data error (exit 2)."""

    @pytest.fixture(scope="class")
    def pipeline(self, tmp_path_factory):
        return TestPipelineAndEval().pipeline(tmp_path_factory.mktemp("corrupt"))

    @staticmethod
    def cut(src, dst, n):
        with open(src, "rb") as fh:
            blob = fh.read(n)
        with open(dst, "wb") as fh:
            fh.write(blob)
        return dst

    def test_truncated_features(self, pipeline, tmp_path, capsys):
        data, emb, zsl, _ = pipeline
        short = self.cut(emb, str(tmp_path / "emb.jef"), 20)
        assert run("eval", "--data", data, "--features", short,
                   "--model", os.path.join(zsl, "model.jec"),
                   "--out", str(tmp_path / "rep")) == 2
        assert "expected" in capsys.readouterr().err

    def test_truncated_head(self, pipeline, tmp_path, capsys):
        data, _, _, _ = pipeline
        head = self.cut(os.path.join(os.path.dirname(data), "run", "head_v.jeh"),
                        str(tmp_path / "t.jeh"), 8)
        assert run("embed", "--checkpoint", head,
                   "--features", os.path.join(data, "visual.jef"),
                   "--out", str(tmp_path / "emb.jef")) == 2
        assert "header truncated" in capsys.readouterr().err

    def test_truncated_model(self, pipeline, tmp_path, capsys):
        data, emb, zsl, _ = pipeline
        model = self.cut(os.path.join(zsl, "model.jec"), str(tmp_path / "m.jec"), 4)
        assert run("eval", "--data", data, "--features", emb, "--model", model,
                   "--out", str(tmp_path / "rep")) == 2
        assert "header truncated" in capsys.readouterr().err

    def test_truncated_resume_bundle(self, pipeline, tmp_path, capsys):
        data, _, _, _ = pipeline
        out = str(tmp_path / "run")
        os.makedirs(out)
        self.cut(os.path.join(os.path.dirname(data), "run", "trainer_state.jet"),
                 os.path.join(out, "trainer_state.jet"), 6)
        assert run("train-embed", "--data", data, "--out", out, "--resume",
                   "--dim", "4", "--hidden", "16") == 2
        assert "header truncated" in capsys.readouterr().err


def _env_without_jezsl_log() -> dict[str, str]:
    """This environment, minus any JEZSL_LOG, with the package on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(jezsl.__file__))
    env = {k: v for k, v in os.environ.items() if k != "JEZSL_LOG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return env


def _pipeline_argv(t) -> list[list[str]]:
    """A small gen-synth, train-embed, embed, train-zsl, eval run under `t`."""
    j = lambda *p: os.path.join(t, *p)
    return [
        ["gen-synth", "--out", j("d"), "--classes", "4", "--seen", "2", "--per-class", "6"],
        ["train-embed", "--data", j("d"), "--out", j("r"), "--epochs", "2",
         "--batch-size", "8"],
        ["embed", "--checkpoint", j("r", "head_v.jeh"), "--features", j("d", "visual.jef"),
         "--out", j("e.jef")],
        ["train-zsl", "--data", j("d"), "--features", j("e.jef"), "--out", j("z"),
         "--epochs", "2"],
        ["eval", "--data", j("d"), "--features", j("e.jef"), "--model", j("z", "model.jec"),
         "--out", j("v")],
    ]


class TestOutputStreams:
    """stdout carries a command's report, the files hold the rest, and stderr
    holds only the one error line of a failed command."""

    def test_each_command_reports_on_stdout_alone(self, tmp_path):
        stdout = {}
        for argv in _pipeline_argv(str(tmp_path)):
            done = subprocess.run([sys.executable, "-m", "jezsl.cli", *argv],
                                  env=_env_without_jezsl_log(), capture_output=True)
            assert (done.returncode, done.stderr) == (0, b""), argv
            stdout[argv[0]] = done.stdout
        assert stdout == {"gen-synth": b"", "embed": b"", "train-zsl": b"",
                          "train-embed": (tmp_path / "r" / "train_log.txt").read_bytes(),
                          "eval": (tmp_path / "v" / "report.txt").read_bytes()}
        failed = subprocess.run([sys.executable, "-m", "jezsl.cli", "eval", "--data",
                                 str(tmp_path / "d"), "--features", str(tmp_path / "e.jef"),
                                 "--model", str(tmp_path / "absent.jec"), "--out",
                                 str(tmp_path / "w")],
                                env=_env_without_jezsl_log(), capture_output=True, text=True)
        assert failed.returncode == 2 and failed.stdout == ""
        assert failed.stderr.startswith("data error: ") and failed.stderr.count("\n") == 1

    def test_each_in_process_call_writes_to_its_own_streams(self, tmp_path):
        # Two calls in one fresh interpreter, each under its own redirected
        # streams, the first call's closed before the second runs.
        code = """if True:
            import contextlib, io, json, sys
            from jezsl.cli import main
            calls = []
            for argv in json.loads(sys.argv[1])[:2]:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                calls.append((code, out.getvalue(), err.getvalue()))
                out.close()
                err.close()
            print(repr(calls))
        """
        argv = json.dumps(_pipeline_argv(str(tmp_path)))
        done = subprocess.run([sys.executable, "-c", code, argv], env=_env_without_jezsl_log(),
                              check=True, capture_output=True, text=True)
        log = (tmp_path / "r" / "train_log.txt").read_text()
        assert done.stdout == repr([(0, "", ""), (0, log, "")]) + "\n"
        assert done.stderr == ""

    def test_cli_import_leaves_logging_unloaded(self):
        code = "import sys, jezsl.cli; print('logging' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=_env_without_jezsl_log(),
                             check=True, capture_output=True, text=True).stdout
        assert out.strip() == "False"


class TestAttributeClassErrors:
    """A bad attribute_classes.txt is a data error (exit 2) that names it."""

    @pytest.mark.parametrize("ids, message", [
        ("0 1 1 3 4", "duplicate class ids in attribute table"),
        ("0 1 2 4", "4 class ids vs 5 attribute rows"),
        ("0 1 2 5 4", "classes without attribute rows: [3]"),
    ])
    def test_names_the_file(self, tmp_path, capsys, ids, message):
        data = gen(tmp_path)
        path = os.path.join(data, "attribute_classes.txt")
        pathlib.Path(path).write_text("".join(f"{c}\n" for c in ids.split()))
        code, err = run_without_warnings(capsys, "train-zsl", "--data", data, "--features",
                                         os.path.join(data, "visual.jef"),
                                         "--out", str(tmp_path / "x"))
        assert (code, err) == (2, f"data error: {path}: {message}\n")
        assert not os.path.exists(tmp_path / "x")


class TestDatasetFileErrors:
    """A dataset text file that will not load is a data error (exit 2) whose
    one stderr line names the file or files at fault."""

    @pytest.mark.parametrize("edit, names, message", [
        (lambda blob: b"\xff" + blob, ["labels"],
         "not UTF-8 text (invalid start byte at byte 0)"),
        (lambda blob: blob.replace(b"test_unseen\n", b"", 1), ["labels", "assignments"],
         "50 labels vs 49 assignments"),
        (lambda blob: b"test_unseen\n" + blob.split(b"\n", 1)[1], ["labels", "assignments"],
         "sample 0: test_unseen sample has seen-class label 0"),
    ])
    def test_names_the_files(self, tmp_path, capsys, edit, names, message):
        data = gen(tmp_path)
        path = pathlib.Path(data, names[-1] + ".txt")
        path.write_bytes(edit(path.read_bytes()))
        code, err = run_without_warnings(capsys, "train-zsl", "--data", data, "--features",
                                         os.path.join(data, "visual.jef"),
                                         "--out", str(tmp_path / "x"))
        files = ", ".join(os.path.join(data, f"{name}.txt") for name in names)
        assert (code, err) == (2, f"data error: {files}: {message}\n")
        assert not os.path.exists(tmp_path / "x")


class TestPipelineAndEval:
    def pipeline(self, tmp_path):
        data = gen(tmp_path)
        run_dir = str(tmp_path / "run")
        assert run("train-embed", "--data", data, "--out", run_dir,
                   "--dim", "4", "--hidden", "16", "--epochs", "2", "--batch-size", "8",
                   "--lr", "0.005") == 0
        emb = str(tmp_path / "emb.jef")
        assert run("embed", "--checkpoint", os.path.join(run_dir, "head_v.jeh"),
                   "--features", os.path.join(data, "visual.jef"),
                   "--out", emb) == 0
        zsl = str(tmp_path / "zsl")
        assert run("train-zsl", "--data", data, "--features", emb,
                   "--out", zsl, "--epochs", "20") == 0
        rep = str(tmp_path / "rep")
        assert run("eval", "--data", data, "--features", emb,
                   "--model", os.path.join(zsl, "model.jec"),
                   "--out", rep) == 0
        return data, emb, zsl, rep

    def test_full_pipeline_writes_reports(self, tmp_path):
        _, _, zsl, rep = self.pipeline(tmp_path)
        assert os.path.exists(os.path.join(zsl, "model.jec"))
        text = open(os.path.join(rep, "report.txt")).read()
        assert "T1" in text and "H" in text
        kv = dict(
            ln.split("=", 1)
            for ln in open(os.path.join(rep, "report.kv")).read().splitlines()
        )
        for key in ("t1", "u", "s", "h"):
            assert 0.0 <= float(kv[key]) <= 1.0

    def test_eval_rerun_identical(self, tmp_path):
        data, emb, zsl, rep = self.pipeline(tmp_path)
        first = open(os.path.join(rep, "report.kv")).read()
        rep2 = str(tmp_path / "rep2")
        assert run("eval", "--data", data, "--features", emb,
                   "--model", os.path.join(zsl, "model.jec"),
                   "--out", rep2) == 0
        assert open(os.path.join(rep2, "report.kv")).read() == first

    def test_manifest_reproduces_run(self, tmp_path):
        data, emb, zsl, rep = self.pipeline(tmp_path)
        # re-run train-zsl purely from its manifest
        zsl2 = str(tmp_path / "zsl2")
        assert run("train-zsl", "--config", os.path.join(zsl, "manifest.txt"),
                   "--out", zsl2) == 0
        a = open(os.path.join(zsl, "model.jec"), "rb").read()
        b = open(os.path.join(zsl2, "model.jec"), "rb").read()
        assert a == b

    def test_zsl_stages_read_no_dataset_features(self, tmp_path):
        data, emb, zsl, rep = self.pipeline(tmp_path)
        for name in ("visual.jef", "sentences.jef", "groups.txt"):
            os.remove(os.path.join(data, name))
        zsl2, rep2 = str(tmp_path / "zsl2"), str(tmp_path / "rep2")
        assert run("train-zsl", "--data", data, "--features", emb,
                   "--out", zsl2, "--epochs", "20") == 0
        assert run("eval", "--data", data, "--features", emb,
                   "--model", os.path.join(zsl2, "model.jec"), "--out", rep2) == 0
        for a, b, name in ((zsl, zsl2, "model.jec"), (rep, rep2, "report.kv")):
            assert (pathlib.Path(a, name).read_bytes()
                    == pathlib.Path(b, name).read_bytes()), name
        assert run("train-embed", "--data", data, "--out", str(tmp_path / "run2"),
                   "--epochs", "1") == 2

    def test_feature_row_mismatch_is_data_error(self, tmp_path):
        data, emb, zsl, _ = self.pipeline(tmp_path)
        from jezsl.data import write_features

        short = str(tmp_path / "short.jef")
        write_features(read_features(emb)[:-3], short)
        assert run("eval", "--data", data, "--features", short,
                   "--model", os.path.join(zsl, "model.jec"),
                   "--out", str(tmp_path / "x")) == 2


class TestModelWidthErrors:
    """eval refuses features or an attribute table whose width is not the
    model's, naming both files and both widths."""

    def train(self, tmp_path, data, features):
        zsl = str(tmp_path / "zsl")
        assert run("train-zsl", "--data", data, "--features", features, "--out", zsl,
                   "--epochs", "2") == 0
        return os.path.join(zsl, "model.jec")

    def test_features_wider_than_the_model(self, tmp_path, capsys):
        data = gen(tmp_path)
        narrow = str(tmp_path / "narrow.jef")
        write_features(read_features(os.path.join(data, "visual.jef"))[:, :4], narrow)
        model = self.train(tmp_path, data, narrow)
        wide = os.path.join(data, "visual.jef")
        capsys.readouterr()
        code, err = run_without_warnings(capsys, "eval", "--data", data, "--features", wide,
                                         "--model", model, "--out", str(tmp_path / "rep"))
        assert code == 2
        assert err == f"data error: {wide}: 6 columns but model {model} expects 4\n"
        assert not os.path.exists(tmp_path / "rep")

    def test_attribute_width_other_than_the_model(self, tmp_path, capsys):
        data = gen(tmp_path)
        other = gen(tmp_path, "other", **{"--d-attr": "5"})
        model = self.train(tmp_path, data, os.path.join(data, "visual.jef"))
        capsys.readouterr()
        code, err = run_without_warnings(capsys, "eval", "--data", other, "--features",
                                         os.path.join(other, "visual.jef"), "--model", model,
                                         "--out", str(tmp_path / "rep"))
        assert code == 2
        assert err == (f"data error: {os.path.join(other, 'attributes.jef')}: 5 columns but "
                       f"model {model} expects 6\n")
        assert not os.path.exists(tmp_path / "rep")


class TestAtomicWrites:
    def test_failed_replace_keeps_text_artifacts(self, tmp_path, monkeypatch, capsys):
        """A rerun whose text writes fail leaves each previous text file whole
        and no temp file, where an in-place write would have cut it."""
        data = gen(tmp_path)
        join = os.path.join
        run_dir, zsl, rep = (str(tmp_path / name) for name in ("run", "zsl", "rep"))
        train = ("train-embed", "--data", data, "--out", run_dir, "--dim", "4",
                 "--hidden", "16", "--batch-size", "8", "--lr", "0.005")
        assert run(*train, "--epochs", "1") == 0
        emb = str(tmp_path / "emb.jef")
        assert run("embed", "--checkpoint", join(run_dir, "head_v.jeh"),
                   "--features", join(data, "visual.jef"), "--out", emb) == 0
        for epochs in ("2", "40"):
            assert run("train-zsl", "--data", data, "--features", emb,
                       "--out", zsl + epochs, "--epochs", epochs) == 0
        evaluate = ("eval", "--data", data, "--features", emb, "--out", rep, "--model")
        assert run(*evaluate, join(zsl + "2", "model.jec")) == 0
        kept = [join(data, "manifest.txt"), join(data, "labels.txt"),
                join(run_dir, "train_log.txt"), join(run_dir, "manifest.txt"),
                join(rep, "report.kv"), join(rep, "manifest.txt")]
        before = {path: open(path, "rb").read() for path in kept}
        # Each rerun would change every kept file it writes; gen-synth goes
        # last, as its half-written dataset no longer loads.
        reruns = [(*train, "--epochs", "2"),
                  (*evaluate, join(zsl + "40", "model.jec")),
                  ("gen-synth", "--out", data, "--classes", "5", "--seen", "3",
                   "--per-class", "8", "--d-visual", "6", "--d-sentence", "6",
                   "--d-attr", "6")]
        real_replace = os.replace

        def replace(src, dst):
            if not dst.endswith((".txt", ".kv")):
                return real_replace(src, dst)
            raise OSError(f"cannot move {os.path.basename(src)} over {dst}")

        monkeypatch.setattr(os, "replace", replace)
        for argv in reruns:
            assert run(*argv) == 2
            assert "data error: cannot move " in capsys.readouterr().err
        monkeypatch.undo()
        assert {path: open(path, "rb").read() for path in kept} == before
        assert not list(tmp_path.rglob("*.tmp"))
        gen(tmp_path)  # the failed gen-synth rerun left new features beside old labels
        for argv in reruns:
            assert run(*argv) == 0
        assert all(open(path, "rb").read() != before[path] for path in kept)


class TestReportIsPinned:
    # sha256 of report.kv, first 16 hex digits, after gen-synth, train-embed,
    # embed, train-zsl and eval, in small versions of the benchmark's
    # default, wide_batch and raw_zsl pipelines. A change to which class
    # eval predicts for any test row, ties included, moves a digest; so does
    # a change of numpy or BLAS build.
    @pytest.mark.parametrize("synth, embed_argv, zsl_epochs, digest", [
        ({}, ["--dim", "4", "--hidden", "16", "--epochs", "2", "--batch-size", "8",
              "--lr", "0.005"], "20", "6a6633f6dcba2e23"),
        ({"--classes": "20", "--seen": "14", "--per-class": "8"},
         ["--batch-size", "64", "--hidden", "32", "--epochs", "2"], "5",
         "32c49a54ba479394"),
        ({"--classes": "80", "--seen": "56", "--per-class": "6", "--d-visual": "32",
          "--d-attr": "16"}, None, "5", "ea4e380fa35116a8"),
    ])
    def test_report_kv(self, tmp_path, synth, embed_argv, zsl_epochs, digest):
        data = gen(tmp_path, **synth)
        emb, run_dir = str(tmp_path / "emb.jef"), str(tmp_path / "run")
        if embed_argv is None:  # the raw-feature arm
            embed = ["--raw-passthrough"]
        else:
            assert run("train-embed", "--data", data, "--out", run_dir, *embed_argv) == 0
            embed = []
        assert run("embed", "--checkpoint", os.path.join(run_dir, "head_v.jeh"),
                   "--features", os.path.join(data, "visual.jef"), "--out", emb,
                   *embed) == 0
        zsl, rep = str(tmp_path / "zsl"), str(tmp_path / "rep")
        assert run("train-zsl", "--data", data, "--features", emb, "--out", zsl,
                   "--epochs", zsl_epochs) == 0
        assert run("eval", "--data", data, "--features", emb,
                   "--model", os.path.join(zsl, "model.jec"), "--out", rep) == 0
        kv = pathlib.Path(rep, "report.kv").read_bytes()
        assert hashlib.sha256(kv).hexdigest()[:16] == digest


class TestTrainZsl:
    def test_divergence_is_numerical_error(self, tmp_path, capsys):
        data = gen(tmp_path)
        capsys.readouterr()
        out = tmp_path / "zsl"
        code, err = run_without_warnings(capsys, "train-zsl", "--data", data,
                                         "--features", os.path.join(data, "visual.jef"),
                                         "--out", str(out), "--lr", "1e308")
        assert code == 3
        assert err == "numerical failure: non-finite compatibility weights after epoch 1\n"
        assert not (out / "model.jec").exists() and not (out / "manifest.txt").exists()

    def test_no_train_rows_is_data_error(self, tmp_path, capsys):
        data = gen(tmp_path)
        path = pathlib.Path(data, "assignments.txt")
        path.write_text(path.read_text().replace("train\n", "test_seen\n"))
        code, err = run_without_warnings(capsys, "train-zsl", "--data", data,
                                         "--features", os.path.join(data, "visual.jef"),
                                         "--out", str(tmp_path / "zsl"))
        assert code == 2
        assert "empty training data" in err
        assert not os.path.exists(tmp_path / "zsl")

    def test_no_train_rows_names_the_assignments_file(self, tmp_path, capsys):
        data = gen(tmp_path)
        path = pathlib.Path(data, "assignments.txt")
        path.write_text(path.read_text().replace("train\n", "test_seen\n"))
        code, err = run_without_warnings(capsys, "train-zsl", "--data", data,
                                         "--features", os.path.join(data, "visual.jef"),
                                         "--out", str(tmp_path / "zsl"))
        assert code == 2
        assert err == f"data error: {path}: no train row, so empty training data\n"


class TestEvalSplitErrors:
    """eval refuses a dataset without test_seen or test_unseen rows, naming
    assignments.txt and the assignment that has none."""

    @staticmethod
    def no_test_seen(data):
        path = pathlib.Path(data, "assignments.txt")
        path.write_text(path.read_text().replace("test_seen\n", "train\n"))

    @staticmethod
    def no_test_unseen(data):
        # Every class seen, so the test_unseen rows are test_seen ones.
        pathlib.Path(data, "splits.txt").write_text("seen: 0 1 2 3 4\nunseen:\n")
        path = pathlib.Path(data, "assignments.txt")
        path.write_text(path.read_text().replace("test_unseen\n", "test_seen\n"))

    @pytest.mark.parametrize("edit, message", [
        (no_test_seen, "no test_seen row, so empty seen test split"),
        (no_test_unseen, "no test_unseen row, so empty unseen test split"),
    ], ids=["test_seen", "test_unseen"])
    def test_names_the_assignments_file(self, tmp_path, capsys, edit, message):
        data = gen(tmp_path)
        features = os.path.join(data, "visual.jef")
        zsl = str(tmp_path / "zsl")
        assert run("train-zsl", "--data", data, "--features", features, "--out", zsl,
                   "--epochs", "2") == 0
        edit(data)
        capsys.readouterr()
        code, err = run_without_warnings(capsys, "eval", "--data", data, "--features",
                                         features, "--model", os.path.join(zsl, "model.jec"),
                                         "--out", str(tmp_path / "rep"))
        path = os.path.join(data, "assignments.txt")
        assert (code, err) == (2, f"data error: {path}: {message}\n")
        assert not os.path.exists(tmp_path / "rep")


# Every comparison with NaN is false, so a bound written as `x < 0` lets NaN
# through to a later numerical failure (exit 3) instead of a usage error.
# train-zsl takes train-embed's bounds on the options they share.
@pytest.mark.parametrize("command, option, value", [
    ("train-zsl", "--lr", "-1"),
    ("train-zsl", "--margin", "-1"),
    ("train-zsl", "--epochs", "-3"),
    ("gen-synth", "--spread", "nan"),
    ("gen-synth", "--spread", "inf"),
    ("train-embed", "--margin", "nan"),
    ("train-embed", "--margin", "inf"),
    ("train-embed", "--lr", "nan"),
    ("train-embed", "--lambda1", "nan"),
    ("train-zsl", "--lr", "nan"),
    ("train-zsl", "--lr", "inf"),
    # numpy refuses a negative seed with a message naming no option.
    ("gen-synth", "--seed", "-1"),
    ("train-embed", "--seed", "-1"),
    ("train-zsl", "--seed", "-1"),
    # Past 2**53 the resume bundle's float64 cannot tell two seeds apart.
    ("train-embed", "--seed", "9007199254740993"),
    ("train-embed", "--seed", "18446744073709551617"),
    ("gradcheck", "--trials", "0"),
    ("gradcheck", "--trials", "-1"),
    ("train-embed", "--checkpoint-every", "-1"),
    # Rules that span options name the options, not the library's fields
    # (--classes and --seen default to 10 and 7).
    ("gen-synth", "--seen", "10"),
    ("gen-synth", "--classes", "7"),
    ("gen-synth", "--collide", "3,99"),
    ("gen-synth", "--collide", "3,-1"),
    ("gen-synth", "--collide", "3,x"),
])
def test_bad_option_is_usage_error(tmp_path, capsys, command, option, value):
    data = gen(tmp_path)
    capsys.readouterr()
    out = str(tmp_path / "out")
    inputs = {"gen-synth": ["--out", out],
              "train-embed": ["--data", data, "--epochs", "1", "--out", out],
              "train-zsl": ["--data", data, "--features", os.path.join(data, "visual.jef"),
                            "--out", out],
              "gradcheck": []}
    code, err = run_without_warnings(capsys, command, *inputs[command], option, value)
    assert code == 1
    assert option in err and "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, missing", [
    ("gen-synth", "--out"),
    ("train-embed", "--data, --out"),
    ("embed", "--features, --out"),
    ("train-zsl", "--data, --features, --out"),
    ("eval", "--data, --features, --model, --out"),
])
def test_missing_required_options_are_named(capsys, command, missing):
    assert run(command) == 1
    assert capsys.readouterr().err == (
        f"error: {command}: missing required option(s): {missing}\n")


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command, name", [
    (command, o.name) for command, (_, opts) in COMMANDS.items() for o in opts
    if o.default is None and o.name != "config"])
def test_empty_required_option_is_missing(tmp_path, monkeypatch, capsys, command, name, via):
    # An empty path names the working directory: gen-synth would write its
    # dataset there, and a later --out "" would replace that manifest.
    monkeypatch.chdir(tmp_path)
    argv = [command]
    for o in COMMANDS[command][1]:
        if o.default is None and o.name not in ("config", name):
            argv += [o.cli, str(tmp_path / "absent" / o.name)]
    if via == "flag":
        argv += ["--" + name, ""]
    else:
        (tmp_path / "c.txt").write_text(f"{name}=\n")
        argv += ["--config", "c.txt"]
    code, err = run_without_warnings(capsys, *argv)
    assert code == 1
    assert err == f"error: {command}: missing required option(s): --{name}\n"
    assert os.listdir(tmp_path) == (["c.txt"] if via == "config" else [])


@pytest.mark.parametrize("command", COMMANDS)
def test_empty_config_is_a_usage_error(tmp_path, monkeypatch, capsys, command):
    # An empty path names no config file, as it names no --out.
    monkeypatch.chdir(tmp_path)
    argv = [command, "--config", ""]
    for o in COMMANDS[command][1]:
        if o.default is None and o.name != "config":
            argv += [o.cli, str(tmp_path / "absent" / o.name)]
    code, err = run_without_warnings(capsys, *argv)
    assert code == 1
    assert err == "error: --config must name a file, got ''\n"
    assert os.listdir(tmp_path) == []


def test_every_trajectory_field_names_a_train_embed_option():
    # A refused --resume advises the option of the field that changed.
    sub = next(a for a in build_parser("train-embed")._actions
               if isinstance(a, argparse._SubParsersAction)).choices["train-embed"]
    options = [TrainConfig.cli_name(name) for name in TRAJECTORY_FIELDS]
    assert [o for o in options if o not in sub._option_string_actions] == []


class TestGradcheckCommand:
    def test_passes(self, capsys):
        assert run("gradcheck", "--trials", "3") == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 3

    def test_corrupt_gradient_fails_with_exit_3(self, capsys, monkeypatch):
        import jezsl.gradcheck as gc

        exact = gc.ranking_loss_grad
        monkeypatch.setattr(gc, "ranking_loss_grad", lambda *args: exact(*args) + 1e-3)
        assert run("gradcheck", "--trials", "2") == 3
        lines = capsys.readouterr().out.splitlines()
        assert [ln.split()[0] for ln in lines[:3]] == [
            "embedding-heads:", "alignment-loss:", "compatibility-ranking:"]
        assert [ln.split()[-1] for ln in lines[:3]] == ["[PASS]", "[PASS]", "[FAIL]"]

    def test_cli_import_leaves_gradcheck_unloaded(self):
        # Only the gradcheck command needs the module; every other command's
        # process start-up should not pay for importing it.
        src = os.path.dirname(os.path.dirname(jezsl.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import sys, jezsl.cli; print('jezsl.gradcheck' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"

    def test_pipeline_leaves_numpy_ma_unloaded(self, tmp_path):
        # np.unique, setdiff1d, intersect1d and union1d import numpy.ma, which
        # costs every command's process more than its own work on small data.
        src = os.path.dirname(os.path.dirname(jezsl.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = """if True:
            import os, sys
            from jezsl.cli import main
            t = sys.argv[1]
            j = lambda *p: os.path.join(t, *p)
            for argv in (
                ["gen-synth", "--out", j("d"), "--classes", "4", "--seen", "2",
                 "--per-class", "6"],
                ["train-embed", "--data", j("d"), "--out", j("r"), "--epochs", "2",
                 "--batch-size", "8", "--checkpoint-every", "1", "--balanced-batches"],
                ["train-embed", "--data", j("d"), "--out", j("r"), "--epochs", "3",
                 "--batch-size", "8", "--resume", "--balanced-batches"],
                ["embed", "--checkpoint", j("r", "head_v.jeh"),
                 "--features", j("d", "visual.jef"), "--out", j("e.jef")],
                ["train-zsl", "--data", j("d"), "--features", j("e.jef"),
                 "--out", j("z"), "--epochs", "2"],
                ["eval", "--data", j("d"), "--features", j("e.jef"),
                 "--model", j("z", "model.jec"), "--out", j("v")],
            ):
                assert main(argv) == 0, argv
            print("numpy.ma" in sys.modules)
        """
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                             check=True, capture_output=True, text=True).stdout
        assert out.splitlines()[-1] == "False"
        assert (tmp_path / "v" / "report.kv").exists()


class TestTopLevel:
    def test_no_command_is_usage_error(self, capsys):
        assert run() == 1
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run("gradcheck", "--frobnicate") == 1
        capsys.readouterr()

    def test_flag_overrides_config(self, tmp_path):
        cfgfile = tmp_path / "c.txt"
        cfgfile.write_text("classes=5\nseen=4\n")
        out = str(tmp_path / "d")
        assert run("gen-synth", "--config", str(cfgfile), "--out", out,
                   "--seen", "2", "--per-class", "4") == 0
        manifest = dict(
            ln.split("=", 1)
            for ln in open(os.path.join(out, "manifest.txt")).read().splitlines()
        )
        assert manifest["seen"] == "2"
        assert manifest["classes"] == "5"

    def test_cut_manifest_is_refused(self, tmp_path, capsys):
        data = str(tmp_path / "d")
        assert run("gen-synth", "--classes", "5", "--seen", "3", "--per-class", "4",
                   "--out", data) == 0
        lines = open(os.path.join(data, "manifest.txt")).read().splitlines(keepends=True)
        cut = tmp_path / "cut.txt"
        cut.write_text("".join(lines[:4]))  # command, version and two options
        out = str(tmp_path / "rerun")
        code, err = run_without_warnings(capsys, "gen-synth", "--config", str(cut),
                                         "--out", out)
        assert code == 1
        assert err == (f"error: {cut}: manifest lacks key(s) seed, classes, seen, "
                       "per_class, d_visual, d_sentence, d_attr, spread, collide, out\n")
        assert not os.path.exists(out)

    def test_manifest_of_another_command_is_refused(self, tmp_path, capsys):
        # Every key is one of gradcheck's, so only the command line tells.
        cfgfile = tmp_path / "m.txt"
        cfgfile.write_text("command=embed\nversion=0.1.0\nseed=0\ntrials=1\n")
        code, err = run_without_warnings(capsys, "gradcheck", "--config", str(cfgfile))
        assert code == 1
        assert err == f"error: {cfgfile}: manifest of embed, not gradcheck\n"

    @pytest.mark.parametrize("text, line, message", [
        ("classes=4\nclases=4\n", 2, "unknown config key 'clases'"),
        ("seed=1\n# the seed\nseed=2\n", 3, "repeated config key 'seed'"),
        ("command=gen-synth\nversion=0.1.0\ncommand=eval\n", 3,
         "repeated config key 'command'"),
        ("checkpoint=h.jeh\n", 1, "unknown config key 'checkpoint'"),
        # Config files do not nest: --config is no key of one.
        ("config=/nonexistent\nclasses=9\n", 1, "unknown config key 'config'"),
    ])
    def test_config_key_errors_name_file_line_and_key(self, tmp_path, capsys, text, line,
                                                      message):
        cfgfile = tmp_path / "c.txt"
        cfgfile.write_text(text)
        out = str(tmp_path / "d")
        code, err = run_without_warnings(capsys, "gen-synth", "--config", str(cfgfile),
                                         "--out", out)
        assert code == 1
        assert err == f"error: {cfgfile}:{line}: {message}\n"
        assert not os.path.exists(out)

    def test_config_with_byte_order_mark_runs_as_without(self, tmp_path):
        # Editors that save "UTF-8 with BOM" put U+FEFF before the first key.
        text = "seed=3\nclasses=4\nseen=2\nper_class=4\n"
        out = tmp_path / "d"
        outputs = []
        for raw in (text.encode(), codecs.BOM_UTF8 + text.encode()):
            cfgfile = tmp_path / "c.txt"
            cfgfile.write_bytes(raw)
            assert run("gen-synth", "--config", str(cfgfile), "--out", str(out)) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            for p in out.iterdir():
                p.unlink()
        assert "manifest.txt" in outputs[0]
        assert outputs[1] == outputs[0]

    def test_config_is_read_as_utf8_in_any_locale(self, tmp_path):
        # Every manifest is written as UTF-8; a C locale must not change how
        # a config reads, and a config that is not UTF-8 is a data error
        # naming the file.
        src = os.path.dirname(os.path.dirname(jezsl.__file__))
        env = {**os.environ, "PYTHONUTF8": "0", "LC_ALL": "C",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        good, bad = tmp_path / "c.txt", tmp_path / "bad.txt"
        good.write_bytes("# run for Z\u00fcrich\nclasses=4\n".encode())
        bad.write_bytes(b"# caf\xe9\nclasses=4\n")
        for cfgfile, code in ((good, 0), (bad, 2)):
            out = tmp_path / f"d{code}"
            done = subprocess.run([sys.executable, "-m", "jezsl.cli", "gen-synth", "--config",
                                   str(cfgfile), "--seen", "2", "--per-class", "4",
                                   "--out", str(out)], env=env, capture_output=True, text=True)
            assert done.returncode == code, done.stderr
            assert out.exists() == (code == 0)
        assert done.stderr.startswith(f"data error: {bad}: not UTF-8 text (")


# --- CLI contract fuzz ----------------------------------------------------------

# Per command and option: (values inside its bound, values outside it), written
# apart from the CLI's own table. Inside values keep each run to milliseconds;
# the outside ones include NaN, +-inf, 0, negatives and integers past 2**53.
SEEDS = (["0", "3", str(2**53)], ["-1", str(2**53 + 1), str(2**64 + 1), "nan", "1.5"])
POSITIVE = (["0.1", "1e-9", "1e16"], ["0", "-1", "nan", "inf", "-inf"])
NON_NEGATIVE = (["0", "0.5", "1e16"], ["-1", "-1e-9", "nan", "inf", "-inf"])
FUZZ = {
    "gen-synth": {
        "--seed": SEEDS,
        "--classes": (["3", "4"], ["1", "0", "-2", "nan"]),
        "--seen": (["1", "2", "3"], ["0", "-1"]),  # seen >= classes is a cross-option error
        "--per-class": (["2", "5"], ["1", "0", "-1"]),
        "--d-visual": (["2", "3"], ["1", "0", "-1"]),
        "--d-sentence": (["2", "3"], ["1", "0"]),
        "--d-attr": (["2", "3"], ["1", "-3"]),
        "--spread": (["0.2", "1e-9", "1e16"], POSITIVE[1]),
        "--caption-signal": (["0", "0.5", "1"], ["-0.1", "1.5", "nan", "inf"]),
        "--captions-per-image": (["1", "2"], ["0", "-1"]),
    },
    "train-embed": {
        "--seed": SEEDS,
        "--dim": (["2", "3"], ["0", "-1"]),
        "--hidden": (["0", "4"], ["-1"]),
        "--margin": POSITIVE,
        "--lambda1": NON_NEGATIVE,
        "--lambda2": NON_NEGATIVE,
        "--lambda3": NON_NEGATIVE,
        "--epochs": (["0", "1", "2"], ["-1", "nan"]),
        "--batch-size": (["2", "5", "64"], ["1", "0", "-2"]),
        "--lr": (["0", "0.01", "1e308"], NON_NEGATIVE[1]),
        "--momentum": (["0", "0.5", "0.99"], ["1", "-0.1", "nan", "inf"]),
        "--rows": (["all", "train"], ["test", "ALL", ""]),
        "--checkpoint-every": (["0", "1", str(2**60)], ["-1"]),
    },
    "embed": {"--seed": SEEDS},
    "train-zsl": {
        "--seed": SEEDS,
        "--margin": POSITIVE,
        "--lr": (["0", "0.01", "1e308"], NON_NEGATIVE[1]),
        "--epochs": (["0", "1", "3"], ["-1", "inf"]),
    },
    "eval": {"--seed": SEEDS},
    "gradcheck": {"--seed": SEEDS, "--trials": (["1"], ["0", "-1", "nan"])},
}
FLAGS = {"train-embed": ["--balanced-batches", "--resume"], "embed": ["--raw-passthrough"]}
# Options every run sets (unless drawn) so that it stays small.
SMALL = {"gen-synth": {"--classes": "4", "--seen": "2", "--per-class": "3",
                       "--d-visual": "3", "--d-sentence": "3", "--d-attr": "3"},
         "train-embed": {"--epochs": "1", "--dim": "3"},
         "train-zsl": {"--epochs": "2"}}


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    data = gen(base, **{"--classes": "4", "--seen": "2", "--per-class": "6"})
    run_dir, emb, zsl = str(base / "run"), str(base / "emb.jef"), str(base / "zsl")
    assert run("train-embed", "--data", data, "--out", run_dir, "--dim", "3",
               "--epochs", "1", "--batch-size", "6") == 0
    assert run("embed", "--checkpoint", os.path.join(run_dir, "head_v.jeh"),
               "--features", os.path.join(data, "visual.jef"), "--out", emb) == 0
    assert run("train-zsl", "--data", data, "--features", emb, "--out", zsl,
               "--epochs", "2") == 0
    return {"gen-synth": [],
            "train-embed": ["--data", data],
            "embed": ["--checkpoint", os.path.join(run_dir, "head_v.jeh"),
                      "--features", os.path.join(data, "visual.jef")],
            "train-zsl": ["--data", data, "--features", emb],
            "eval": ["--data", data, "--features", emb,
                     "--model", os.path.join(zsl, "model.jec")],
            "gradcheck": []}


@st.composite
def cli_calls(draw):
    """(command, option values, flags, the one out-of-bound option or None, via config)."""
    command = draw(st.sampled_from(sorted(FUZZ)))
    table = FUZZ[command]
    names = draw(st.lists(st.sampled_from(sorted(table)), unique=True, max_size=4))
    values = {**SMALL.get(command, {}),
              **{n: draw(st.sampled_from(table[n][0])) for n in names}}
    bad = draw(st.none() | st.sampled_from(sorted(table)))
    if bad is not None:
        values[bad] = draw(st.sampled_from(table[bad][1]))
    flags = draw(st.lists(st.sampled_from(FLAGS[command]), unique=True)
                 if command in FLAGS else st.just([]))
    return command, values, flags, bad, draw(st.booleans())


def call(*argv):
    """(exit code, stdout, stderr) of one in-process CLI call; warnings fail it."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(list(argv))
    assert not caught, [str(w.message) for w in caught]
    return code, out.getvalue(), err.getvalue()


def outputs(command, out):
    """Bytes of every file a run wrote, manifests aside, by name."""
    if command == "embed":
        return {"features": pathlib.Path(out).read_bytes()}
    return {name: pathlib.Path(out, name).read_bytes()
            for name in sorted(os.listdir(out)) if not name.endswith("manifest.txt")}


def check_outputs(command, out, stdout, values, flags):
    if command == "gen-synth":
        load_dataset(out)
    elif command == "train-embed":
        for name in ("head_v.jeh", "head_s.jeh"):
            load_head(os.path.join(out, name))
        log = pathlib.Path(out, "train_log.txt").read_text().splitlines()
        assert len(log) == int(values["--epochs"])
    elif command == "embed":
        emb = read_features(out)
        assert np.all(np.isfinite(emb))
        if "--raw-passthrough" not in flags:
            np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-9)
    elif command == "train-zsl":
        load_model(os.path.join(out, "model.jec"))
    elif command == "eval":
        kv = dict(ln.split("=", 1) for ln in pathlib.Path(out, "report.kv").read_text().split())
        assert all(0.0 <= float(kv[key]) <= 1.0 for key in ("t1", "u", "s", "h"))
    else:
        assert "gradcheck passed" in stdout


@settings(max_examples=80, deadline=None, database=None)
@given(cli_calls())
def test_cli_contract(fuzz_inputs, drawn):
    command, values, flags, bad, via_config = drawn
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.jef" if command == "embed" else "out")
        argv = [command, *fuzz_inputs[command]]
        if command != "gradcheck":
            argv += ["--out", out]
        if via_config:
            with open(os.path.join(tmp, "c.txt"), "w") as fh:
                fh.writelines(f"{k[2:].replace('-', '_')}={v}\n" for k, v in values.items())
                fh.writelines(f"{f[2:].replace('-', '_')}=true\n" for f in flags)
            argv += ["--config", os.path.join(tmp, "c.txt")]
        else:
            argv += [x for kv in values.items() for x in kv] + flags
        code, stdout, err = call(*argv)

        assert code in (0, 1, 2, 3), err
        assert "Traceback" not in err and "Warning" not in err
        if bad is not None:
            assert code == 1 and bad in err, err
        if code == 1:
            assert not os.path.exists(out)
        if code != 0:
            return
        check_outputs(command, out, stdout, values, flags)
        if command == "gradcheck":
            return
        manifest = (out + ".manifest.txt" if command == "embed"
                    else os.path.join(out, "manifest.txt"))
        again = os.path.join(tmp, "again.jef" if command == "embed" else "again")
        assert call(command, "--config", manifest, "--out", again)[0] == 0
        assert outputs(command, again) == outputs(command, out)


# Each config with the command whose options set its fields.
CONFIG_COMMANDS = ((SynthConfig, "gen-synth"), (LossConfig, "train-embed"),
                   (TrainConfig, "train-embed"), (ZslConfig, "train-zsl"))


def refused_by_cli():
    """(config, field, value) for every value outside its bound in FUZZ that
    the option of a config field parses."""
    for config, command in CONFIG_COMMANDS:
        opts = {o.cli: o for o in COMMANDS[command][1]}
        for f in dataclasses.fields(config):
            option = config.cli_name(f.name)
            for raw in FUZZ[command].get(option, ((), ()))[1]:
                try:
                    value = opts[option].typ(raw)
                except ValueError:
                    continue
                yield pytest.param(config, f.name, value,
                                   id=f"{config.__name__}.{f.name}={raw}")


@pytest.mark.parametrize("command", list(COMMANDS))
def test_each_option_is_typed_by_its_default(command):
    # An option parses to its default's type, or to str when it is required
    # (no default); exactly the False-default options are flags; --help shows
    # each default other than "" and each bound.
    sub = next(a for a in build_parser(command)._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    actions = {a.dest: a for a in sub._actions if a.dest != "help"}
    opts = COMMANDS[command][1]
    assert list(actions) == [o.name for o in opts]
    for o in opts:
        action = actions[o.name]
        assert isinstance(action, argparse._StoreTrueAction) == (o.default is False), o.name
        if o.default is False:
            continue
        assert action.type is (str if o.default is None else type(o.default)), o.name
        assert (f"(default {o.default}" in action.help) == (o.default not in (None, "")), o.name
        assert o.bound is None or action.help.endswith(f"{o.bound[0]})"), o.name


@pytest.mark.parametrize("config, name, value", refused_by_cli())
def test_library_refuses_what_the_cli_refuses(config, name, value):
    with pytest.raises(ValueError):
        config(**{name: value}).validate()


@pytest.mark.parametrize("config", [config for config, _ in CONFIG_COMMANDS])
def test_every_config_field_is_a_scalar(config):
    # Option text goes to a field of its default's type and no further
    # parse, so a field that is not an int, float, bool or str (a list,
    # say) would need a path of its own through the CLI.
    found = [f"{f.name}: {type(f.default).__name__}" for f in dataclasses.fields(config)
             if type(f.default) not in (int, float, bool, str)]
    assert found == []
