"""Smoke test of the benchmark on the tiny `smoke` workload.

    python3 -m pytest bench/test_smoke.py -q

Run from the repository root. Checks that every metric BENCHMARK.json
names is emitted with its unit, that traced self times add up to the
traced pipeline time, and that the benchmark refuses to run without the
jezsl sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans  # noqa: E402


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def work_dir() -> str:
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    return tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section):
    proc = bench("--workload", "smoke", "--seed", "3", "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in spec()[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == wanted
    for name, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), name
        if section == "end_to_end":
            assert v["value"] > 0, name


def test_every_workload_in_the_spec_is_defined():
    assert {w["name"] for w in spec()["workloads"]} <= set(run.WORKLOADS)


def test_layer_self_times_add_up_to_traced_pipeline():
    work = work_dir()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "pipeline.py"), "--workload", "smoke",
             "--seed", "5", "--work", os.path.join(work, "w"), "--trace"],
            env=run.child_env(ROOT), cwd=ROOT, capture_output=True, text=True,
            timeout=120)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(proc.stdout.strip().splitlines()[-1])["layers"]
    own = [layers[f"{layer}.self_s"] for layer in spans.LAYERS if layer != "alignment"]
    own.append(layers["alignment.busy_s"])
    assert all(v >= 0.0 for v in own)
    assert sum(own) == pytest.approx(layers["trace.pipeline_s"], rel=1e-9)
    assert layers["alignment.calls"] > 0 and layers["alignment.triplets"] > 0
    assert layers["trainer.checkpoint_s"] > 0 and layers["trainer.resume_load_s"] > 0
    assert layers["data.bytes_read"] > 0 and layers["data.bytes_written"] > 0


def test_triplet_count_matches_enumeration():
    import numpy as np

    groups = np.array([0, 1, 0, 2, 1, 0, 3])
    same = groups[:, None] == groups[None, :]
    cross = within = 0
    for i in range(len(groups)):
        neg = int(np.sum(~same[i]))
        pos = np.nonzero(same[i])[0]
        cross += len(pos) * neg
        within += (len(pos) - 1) * neg
    assert spans.triplet_count(groups) == 2 * cross + 2 * within


def test_refuses_to_run_without_sources():
    bare = work_dir()
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "default", "--seed", "1", "--seconds", "10",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
