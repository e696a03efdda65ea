"""The benchmark's workloads: each is one CLI pipeline, as argv lists.

A workload maps a seed and a work directory to the ordered stages of one
pipeline run. The first stage (`gen-synth`) is set-up; the rest are the
timed pipeline. Why each workload exists is documented in bench/README.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Stage:
    command: str
    argv: list[str]


@dataclass(frozen=True)
class Workload:
    name: str
    gen_synth: list[str]  # extra gen-synth flags
    train_embed_legs: list[list[str]]  # one flag list per train-embed call
    embed: list[str]  # extra embed flags
    train_zsl: list[str]  # extra train-zsl flags

    def stages(self, seed: int, work: str) -> list[Stage]:
        data = os.path.join(work, "data")
        run = os.path.join(work, "run")
        emb = os.path.join(work, "emb.jef")
        s = ["--seed", str(seed)]
        stages = [Stage("gen-synth", ["gen-synth", "--out", data, *s, *self.gen_synth])]
        for leg in self.train_embed_legs:
            stages.append(Stage("train-embed",
                                ["train-embed", "--data", data, "--out", run, *s, *leg]))
        stages += [
            Stage("embed", ["embed", "--checkpoint", os.path.join(run, "head_v.jeh"),
                            "--features", os.path.join(data, "visual.jef"),
                            "--out", emb, *s, *self.embed]),
            Stage("train-zsl", ["train-zsl", "--data", data, "--features", emb,
                                "--out", os.path.join(work, "zsl"), *s, *self.train_zsl]),
            Stage("eval", ["eval", "--data", data, "--features", emb,
                           "--model", os.path.join(work, "zsl", "model.jec"),
                           "--out", os.path.join(work, "report"), *s]),
        ]
        return stages

    @property
    def raw(self) -> bool:
        return "--raw-passthrough" in self.embed


WORKLOADS = {
    w.name: w
    for w in [
        # CLI defaults, training split into two legs so that checkpoints are
        # written and read back on resume.
        Workload(
            name="default",
            gen_synth=[],
            train_embed_legs=[
                ["--epochs", "5", "--checkpoint-every", "2"],
                ["--epochs", "10", "--checkpoint-every", "2", "--resume"],
            ],
            embed=[],
            train_zsl=["--epochs", "20"],
        ),
        # Large batches: alignment work grows with b^2 per anchor row.
        Workload(
            name="wide_batch",
            gen_synth=["--classes", "50", "--seen", "35", "--per-class", "12"],
            train_embed_legs=[["--batch-size", "128", "--hidden", "64", "--epochs", "2"]],
            embed=[],
            train_zsl=["--epochs", "10"],
        ),
        # The paper's raw-feature baseline arm: no embedding training at all.
        # The checkpoint path is required by the CLI but never read.
        Workload(
            name="raw_zsl",
            gen_synth=["--classes", "200", "--seen", "140", "--per-class", "30",
                       "--d-visual", "64", "--d-attr", "32"],
            train_embed_legs=[],
            embed=["--raw-passthrough"],
            train_zsl=["--epochs", "20"],
        ),
        # Tiny sizes for the smoke test; not part of BENCHMARK.json.
        Workload(
            name="smoke",
            gen_synth=["--classes", "4", "--seen", "3", "--per-class", "8"],
            train_embed_legs=[
                ["--epochs", "2", "--checkpoint-every", "1", "--batch-size", "8"],
                ["--epochs", "3", "--checkpoint-every", "1", "--batch-size", "8",
                 "--resume"],
            ],
            embed=[],
            train_zsl=["--epochs", "3"],
        ),
    ]
}
