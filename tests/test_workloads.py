"""The benchmark's default, wide_batch and raw_zsl pipelines at seed 1, pinned.

Each test runs one workload's stages through `jezsl.cli.main` in a temporary
directory, with the argv of `bench/workloads.py` restated here, and checks
the sha256 (first 16 hex digits) of every file the pipeline leaves, except
the manifests, which hold paths. A change that moves any output byte of a
benchmark configuration, or a change of numpy or BLAS build, moves a digest.
A further test loads `bench/workloads.py` by path and checks that the
restated argv are its stages, so the pins follow the benchmark.
"""

import hashlib
import os
import pathlib
import runpy

import pytest

from jezsl.cli import main

# name -> (gen-synth flags, one flag list per train-embed leg, embed flags,
# train-zsl flags), as in bench/workloads.py.
WORKLOADS = {
    "default": ([], [["--epochs", "5", "--checkpoint-every", "2"],
                     ["--epochs", "10", "--checkpoint-every", "2", "--resume"]],
                [], ["--epochs", "20"]),
    "wide_batch": (["--classes", "50", "--seen", "35", "--per-class", "12"],
                   [["--batch-size", "128", "--hidden", "64", "--epochs", "2"]],
                   [], ["--epochs", "10"]),
    "raw_zsl": (["--classes", "200", "--seen", "140", "--per-class", "30",
                 "--d-visual", "64", "--d-attr", "32"],
                [], ["--raw-passthrough"], ["--epochs", "20"]),
}

DIGESTS = {
    "default": {
        "data/assignments.txt": "2665091c5e24c7b3",
        "data/attribute_classes.txt": "7427877c40fb0361",
        "data/attributes.jef": "538bf3194b1805a0",
        "data/groups.txt": "b28fa86924b7bb29",
        "data/labels.txt": "b28fa86924b7bb29",
        "data/sentences.jef": "b774a2b3e2b62b15",
        "data/splits.txt": "e42e1a52abc464e7",
        "data/visual.jef": "7cc982eb5165ba7e",
        "emb.jef": "3c3a718f91bdeb2f",
        "report/report.kv": "625079df9f94c9db",
        "report/report.txt": "ed3831db489629b0",
        "run/head_s.jeh": "8ba705bb2cb8eadb",
        "run/head_v.jeh": "ad0a725868fc1e71",
        "run/train_log.txt": "554a261534850279",
        "run/trainer_state.jet": "97ff320a6b15e4cf",
        "zsl/model.jec": "48b9c86fa43dfc51",
    },
    "wide_batch": {
        "data/assignments.txt": "0d4345c40226c68d",
        "data/attribute_classes.txt": "5f01dd57fd3b4044",
        "data/attributes.jef": "5b4de32a249bfbf9",
        "data/groups.txt": "d585069bfe751094",
        "data/labels.txt": "d585069bfe751094",
        "data/sentences.jef": "b5fe574a2c62f389",
        "data/splits.txt": "c71cc8733a22676e",
        "data/visual.jef": "44712c5cead52df1",
        "emb.jef": "c34bcd7f24116274",
        "report/report.kv": "e73a534efa07e47e",
        "report/report.txt": "03f3dc412988c3e2",
        "run/head_s.jeh": "302cfda3b54ebdf2",
        "run/head_v.jeh": "ed9f5a7bf8024171",
        "run/train_log.txt": "9a85cdc0e85d075d",
        "run/trainer_state.jet": "e268139100621d52",
        "zsl/model.jec": "31ce7ec0a41ac921",
    },
    "raw_zsl": {
        "data/assignments.txt": "f96cd46b7a601857",
        "data/attribute_classes.txt": "ea01ba3592e27c87",
        "data/attributes.jef": "e7f03f46f81b1472",
        "data/groups.txt": "fa3bcd2a805c5a7b",
        "data/labels.txt": "fa3bcd2a805c5a7b",
        "data/sentences.jef": "ed5314e118c802fc",
        "data/splits.txt": "0739579a95101732",
        "data/visual.jef": "4c78f7e72cadfaa4",
        "emb.jef": "4c78f7e72cadfaa4",
        "report/report.kv": "6db4d5ad82b65eaf",
        "report/report.txt": "70cab51fc2683c5e",
        "zsl/model.jec": "8c1c973c943c307b",
    },
}


def stages(work: str, gen_synth, legs, embed, train_zsl, seed: int = 1):
    data, run = os.path.join(work, "data"), os.path.join(work, "run")
    emb, zsl = os.path.join(work, "emb.jef"), os.path.join(work, "zsl")
    s = ["--seed", str(seed)]
    yield ["gen-synth", "--out", data, *s, *gen_synth]
    for leg in legs:
        yield ["train-embed", "--data", data, "--out", run, *s, *leg]
    yield ["embed", "--checkpoint", os.path.join(run, "head_v.jeh"),
           "--features", os.path.join(data, "visual.jef"), "--out", emb, *s, *embed]
    yield ["train-zsl", "--data", data, "--features", emb, "--out", zsl, *s, *train_zsl]
    yield ["eval", "--data", data, "--features", emb,
           "--model", os.path.join(zsl, "model.jec"), "--out", os.path.join(work, "report"), *s]


@pytest.mark.parametrize("name", WORKLOADS)
def test_outputs_are_pinned(tmp_path, capsys, name):
    for argv in stages(str(tmp_path), *WORKLOADS[name]):
        assert main(argv) == 0, (argv, capsys.readouterr().err)
    digests = {path.relative_to(tmp_path).as_posix():
               hashlib.sha256(path.read_bytes()).hexdigest()[:16]
               for path in sorted(pathlib.Path(tmp_path).rglob("*"))
               if path.is_file() and not path.name.endswith("manifest.txt")}
    assert digests == DIGESTS[name]


def bench_workloads():
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    return runpy.run_path(str(path), run_name="bench_workloads")["WORKLOADS"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_argv_are_the_benchmark_stages(name):
    for seed in (1, 7):
        bench = [stage.argv for stage in bench_workloads()[name].stages(seed, "work")]
        assert list(stages("work", *WORKLOADS[name], seed=seed)) == bench
