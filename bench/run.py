"""The jezsl benchmark: one workload's CLI pipeline, repeated in fresh processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/jezsl).
Each repetition starts bench/pipeline.py in a new process, which runs
gen-synth (set-up) and then the workload's pipeline through
`jezsl.cli.main`. Repetitions continue while the next one would finish
within --seconds even if it were as slow as the slowest so far (at least
MIN_REPS of them), and the figures are medians over repetitions.

With --trace 0 the result holds the end-to-end metrics. With --trace 1,
repetitions alternate between untraced and traced, and the result holds
the per-layer metrics from the traced ones (see bench/spans.py); the
difference between the two kinds is `trace.overhead_s`.

Before the result, one `env:` line records the environment. The last line
of stdout is the result: {"correct", "attempted", "failed", "metrics"}.
`attempted` and `failed` count stage invocations; a stage fails when it
exits non-zero or its output fails a check. The exit code is 0 when every
stage passed and every repetition produced identical results, else 1; it
is 2, with no result, when the checkout holds no jezsl sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
MIN_REPS = 3
REP_TIMEOUT_S = 120.0
RUN_LIMIT_S = 150.0  # never start a repetition that could end after this
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

PER_LAYER = {
    "trace.pipeline_s": "s",
    "trace.overhead_s": "s",
    "train_embed_rows_per_s": "1/s",
    "train_zsl_steps_per_s": "1/s",
    "cli.self_s": "s",
    "alignment.busy_s": "s",
    "alignment.share": "ratio",
    "alignment.calls": "count",
    "alignment.triplets": "count",
    "alignment.triplets_per_s": "1/s",
    "alignment.active_fraction": "ratio",
    "alignment.call_p50_ms": "ms",
    "alignment.call_tail_ms": "ms",
    "alignment.call_tail_pct": "%",
    "heads.self_s": "s",
    "heads.forward_s": "s",
    "heads.backward_s": "s",
    "trainer.self_s": "s",
    "trainer.sgd_step_s": "s",
    "trainer.checkpoint_s": "s",
    "trainer.resume_load_s": "s",
    "trainer.loss_ratio": "ratio",
    "compat.self_s": "s",
    "compat.share": "ratio",
    "compat.train_s": "s",
    "compat.steps_per_s": "1/s",
    "compat.infer_rows_per_s": "1/s",
    "metrics.self_s": "s",
    "metrics.evaluate_s": "s",
    "metrics.t1": "ratio",
    "metrics.h": "ratio",
    "data.self_s": "s",
    "data.read_s": "s",
    "data.write_s": "s",
    "data.generate_s": "s",
    "data.bytes_read": "B",
    "data.bytes_written": "B",
    "linalg.self_s": "s",
}

# Results that depend only on the workload and seed; any difference between
# repetitions or runs is a determinism failure, not noise.
DETERMINISTIC = ("t1", "h", "loss_ratio", "alignment.triplets",
                 "data.bytes_read", "data.bytes_written")


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["JEZSL_LOG"] = "quiet"
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_rep(root: str, workload: str, seed: int, trace: bool, tag: str) -> dict:
    """One pipeline repetition in a fresh process; returns its figures."""
    work = os.path.join(root, ".bench_work", tag)
    shutil.rmtree(work, ignore_errors=True)
    cmd = [sys.executable, os.path.join(BENCH, "pipeline.py"), "--workload", workload,
           "--seed", str(seed), "--work", work] + (["--trace"] if trace else [])
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(root), cwd=root, capture_output=True,
                              text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1,
                "errors": [f"repetition exceeded {REP_TIMEOUT_S:g} s"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"attempted": 1, "failed": 1,
                "errors": [f"pipeline process exit {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}"]}
    rep = json.loads(lines[-1])
    if "ready" in rep:
        rep["setup_s"] = rep["ready"] - start
    rep["traced"] = trace
    return rep


def deterministic_values(rep: dict) -> dict:
    values = {k: rep[k] for k in DETERMINISTIC if k in rep}
    values.update({k: v for k, v in rep.get("layers", {}).items() if k in DETERMINISTIC})
    return values


def check_determinism(reps: list[dict], record_path: str, key: str) -> list[str]:
    """Compare deterministic results across repetitions and earlier runs.

    Earlier runs of the same workload and seed in this checkout are kept in
    `record_path`; a value seen before must be seen again, bit for bit.
    """
    try:
        with open(record_path) as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        record = {}
    seen = dict(record.get(key, {}))
    errors = []
    for rep in reps:
        for name, value in deterministic_values(rep).items():
            if name in seen and seen[name] != value:
                errors.append(f"determinism: {name} differs between runs of {key}")
            seen.setdefault(name, value)
    if not errors:
        record[key] = seen
        tmp = record_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(record, fh, sort_keys=True)
        os.replace(tmp, record_path)
    return sorted(set(errors))


def git_commit(root: str) -> str:
    if not os.path.exists(os.path.join(root, ".git")):
        return "unavailable"  # not a clone; do not report an enclosing repository
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def environment(root: str, args, reps: list[dict]) -> dict:
    versions = next((r["versions"] for r in reps if "versions" in r), {})
    return {
        "python": platform.python_version(),
        "numpy": versions.get("numpy", "unknown"),
        "blas": versions.get("blas", "unknown"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {v: "1" for v in THREAD_VARS},
        "git_commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reps": len(reps),
        "traced_reps": sum(1 for r in reps if r.get("traced")),
    }


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(reps: list[dict]) -> dict:
    return {
        "setup_s": median(r["setup_s"] for r in reps),
        "pipeline_s": median(r["pipeline_s"] for r in reps),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(reps: list[dict]) -> dict:
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    m = {k: median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    m["trace.overhead_s"] = (median(r["pipeline_s"] for r in traced)
                             - median(r["pipeline_s"] for r in plain))
    m["train_embed_rows_per_s"] = median(
        r["train_embed_rows"] / r["stage_s"]["train-embed"] if r["train_embed_rows"] else 0.0
        for r in plain)
    m["train_zsl_steps_per_s"] = median(r["train_zsl_steps"] / r["stage_s"]["train-zsl"]
                                        for r in plain)
    m["metrics.t1"] = traced[0]["t1"]
    m["metrics.h"] = traced[0]["h"]
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "jezsl", "cli.py")):
        print(f"error: no jezsl sources under {os.path.join(root, 'src')}; "
              "run from the root of a jezsl checkout", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)

    min_reps = 2 * MIN_REPS if args.trace else MIN_REPS
    reps: list[dict] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        tag = f"{args.workload}-{args.seed}-{os.getpid()}-{len(reps)}"
        rep_start = time.perf_counter()
        reps.append(run_rep(root, args.workload, args.seed, traced, tag))
        if reps[-1]["failed"]:
            break
        now = time.perf_counter()
        longest = max(longest, now - rep_start)
        next_end = now - start + longest  # even if the next repetition is the slowest
        if next_end > RUN_LIMIT_S or (len(reps) >= min_reps and next_end > args.seconds):
            break

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    errors = [e for r in reps for e in r["errors"]]
    if not failed:
        errors += check_determinism(
            reps, os.path.join(root, ".bench_work", "determinism.json"),
            f"{args.workload}/{args.seed}")
    for e in errors:
        print(f"error: {e}", file=sys.stderr)

    print("env: " + json.dumps(environment(root, args, reps), sort_keys=True))
    if failed:  # the loop stopped at the first failed repetition
        metrics = {}
    elif args.trace:
        metrics = per_layer(reps)
    else:
        metrics = end_to_end(reps)
    metrics["success_rate"] = 1.0 - failed / attempted
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
