"""The benchmark's default, wide_batch and raw_zsl pipelines at seed 1, pinned.

Each test runs one workload's stages through `jezsl.cli.main` in a temporary
directory, with the argv of `bench/workloads.py` restated here, and checks
the sha256 (first 16 hex digits) of every file the pipeline leaves, except
the manifests, which hold paths. A change that moves any output byte of a
benchmark configuration, or a change of numpy or BLAS build, moves a digest.
"""

import hashlib
import os
import pathlib

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
        "emb.jef": "92b738ae8abfb8ae",
        "report/report.kv": "625079df9f94c9db",
        "report/report.txt": "ed3831db489629b0",
        "run/head_s.jeh": "94c9d28f8d985b62",
        "run/head_v.jeh": "f5f3ee0c73d6c4ea",
        "run/train_log.txt": "8a04140079b13c3d",
        "run/trainer_state.jet": "fe0c4044849d45f6",
        "zsl/model.jec": "6173f342004dfbeb",
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
        "emb.jef": "79728ffc1b24f74c",
        "report/report.kv": "e73a534efa07e47e",
        "report/report.txt": "03f3dc412988c3e2",
        "run/head_s.jeh": "c707277ecb49fcf8",
        "run/head_v.jeh": "e5f93f464d0dad77",
        "run/train_log.txt": "f3f01b89746ef383",
        "run/trainer_state.jet": "28ad9136a5fa149e",
        "zsl/model.jec": "3a14a602400d7b0c",
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
