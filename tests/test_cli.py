import os
import warnings

import numpy as np
import pytest

from jezsl.cli import _parse_collide, main
from jezsl.data import read_features
from jezsl.heads import load_head
from jezsl.linalg import make_rng


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
    def test_single_group(self):
        assert _parse_collide("3,4") == [[3, 4]]

    def test_multiple_groups(self):
        assert _parse_collide("3,4;5,6,7") == [[3, 4], [5, 6, 7]]

    def test_empty(self):
        assert _parse_collide("") == []

    def test_singleton_group_rejected(self):
        from jezsl.cli import UsageError

        with pytest.raises(UsageError):
            _parse_collide("3")


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

    def test_resume_matches_straight_run(self, tmp_path):
        data = gen(tmp_path)
        common = ["--data", data, "--dim", "4", "--hidden", "16", "--batch-size", "8",
                  "--lr", "0.005", "--seed", "1"]
        full = str(tmp_path / "full")
        assert run("train-embed", "--out", full, "--epochs", "4", *common) == 0
        part = str(tmp_path / "part")
        assert run("train-embed", "--out", part, "--epochs", "2", *common) == 0
        assert run("train-embed", "--out", part, "--epochs", "4", "--resume",
                   *common) == 0
        a = open(os.path.join(full, "head_v.jeh"), "rb").read()
        b = open(os.path.join(part, "head_v.jeh"), "rb").read()
        assert a == b

    def test_resume_refuses_changed_options(self, tmp_path, capsys):
        data = gen(tmp_path)
        out = str(tmp_path / "run")
        common = ["--data", data, "--out", out, "--batch-size", "8", "--seed", "1"]
        assert run("train-embed", "--epochs", "1", "--dim", "16", *common) == 0
        heads = [open(os.path.join(out, n), "rb").read()
                 for n in ("head_v.jeh", "head_s.jeh", "trainer_state.jet", "manifest.txt")]
        capsys.readouterr()
        for changed, option in ((["--dim", "8", "--lr", "0.5", "--batch-size", "64"], "--dim"),
                                (["--dim", "16", "--lr", "0.5"], "--lr"),
                                (["--dim", "16", "--rows", "train"], "--rows")):
            assert run("train-embed", "--epochs", "2", "--resume", *common, *changed) == 1
            assert option in capsys.readouterr().err
        assert heads == [open(os.path.join(out, n), "rb").read()
                         for n in ("head_v.jeh", "head_s.jeh", "trainer_state.jet",
                                   "manifest.txt")]
        assert run("train-embed", "--epochs", "2", "--resume", "--dim", "16", *common) == 0
        assert load_head(os.path.join(out, "head_v.jeh")).d_out == 16

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

    def test_width_mismatch_is_data_error(self, tmp_path):
        data, out = self.setup_run(tmp_path)
        bad = str(tmp_path / "bad.jef")
        from jezsl.data import write_features

        write_features(np.ones((3, 9)), bad)
        assert run("embed", "--checkpoint", os.path.join(out, "head_v.jeh"),
                   "--features", bad, "--out", str(tmp_path / "y.jef")) == 2


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

    def test_feature_row_mismatch_is_data_error(self, tmp_path):
        data, emb, zsl, _ = self.pipeline(tmp_path)
        from jezsl.data import write_features

        short = str(tmp_path / "short.jef")
        write_features(read_features(emb)[:-3], short)
        assert run("eval", "--data", data, "--features", short,
                   "--model", os.path.join(zsl, "model.jec"),
                   "--out", str(tmp_path / "x")) == 2


class TestTrainZsl:
    def test_divergence_is_numerical_error(self, tmp_path, capsys):
        data = gen(tmp_path)
        capsys.readouterr()
        code, _ = run_without_warnings(capsys, "train-zsl", "--data", data,
                                       "--features", os.path.join(data, "visual.jef"),
                                       "--out", str(tmp_path / "zsl"), "--lr", "1e308")
        assert code == 3


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
])
def test_bad_option_is_usage_error(tmp_path, capsys, command, option, value):
    data = gen(tmp_path)
    capsys.readouterr()
    out = str(tmp_path / "out")
    inputs = {"gen-synth": [],
              "train-embed": ["--data", data, "--epochs", "1"],
              "train-zsl": ["--data", data, "--features", os.path.join(data, "visual.jef")]}
    code, err = run_without_warnings(capsys, command, *inputs[command], "--out", out,
                                     option, value)
    assert code == 1
    assert option in err and "Traceback" not in err
    assert not os.path.exists(out)


class TestGradcheckCommand:
    def test_passes(self, capsys):
        assert run("gradcheck", "--trials", "3") == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 3

    def test_corrupt_gradient_fails_with_exit_3(self, capsys):
        assert run("gradcheck", "--trials", "2", "--corrupt-gradient") == 3
        assert "[FAIL]" in capsys.readouterr().out


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
