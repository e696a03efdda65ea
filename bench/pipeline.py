"""Run one workload's CLI pipeline once in this process; print its figures.

    python3 bench/pipeline.py --workload NAME --seed N --work DIR [--trace]

bench/run.py starts this in a fresh process per repetition, with
PYTHONPATH pointing at the checkout's src/, BLAS pinned to one thread and
JEZSL_LOG=quiet. Each stage goes through `jezsl.cli.main(argv)`, the entry
point of the `jezsl` script, with its stdout and stderr captured. The last
line of stdout is one JSON object; `ready` is the time.perf_counter()
reading (CLOCK_MONOTONIC, shared by all processes) at which the dataset
was on disk, which the parent turns into set-up time.
"""

import argparse
import io
import json
import math
import os
import resource
import struct
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout

from workloads import WORKLOADS

UNIT_NORM_TOL = 1e-9


def read_jef(path: str) -> list[tuple[float, ...]]:
    """Parse a JEF1 feature file independently of jezsl."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"JEF1" or len(blob) < 13:
        raise ValueError(f"{path}: not a JEF1 file")
    rows, cols = struct.unpack_from("<II", blob, 5)
    if len(blob) != 13 + 8 * rows * cols:
        raise ValueError(f"{path}: payload size does not match {rows}x{cols}")
    values = struct.unpack_from(f"<{rows * cols}d", blob, 13)
    return [values[r * cols:(r + 1) * cols] for r in range(rows)]


def read_kv(path: str) -> dict[str, str]:
    with open(path) as fh:
        return dict(ln.strip().split("=", 1) for ln in fh if "=" in ln)


def read_train_log(path: str) -> list[tuple[float, float]]:
    """(mean loss, active fraction) per epoch of one train-embed call."""
    with open(path) as fh:
        return [tuple(float(v) for v in ln.split("\t")[1:3]) for ln in fh if ln.strip()]


def check_embed(stage_argv: list[str], raw: bool) -> str | None:
    """The embed stage's output check; returns an error or None."""
    opts = dict(zip(stage_argv[1::2], stage_argv[2::2]))
    out, features = opts["--out"], opts["--features"]
    if raw:
        with open(out, "rb") as a, open(features, "rb") as b:
            return None if a.read() == b.read() else "raw passthrough changed the features"
    for r, row in enumerate(read_jef(out)):
        norm = math.sqrt(math.fsum(v * v for v in row))
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            return f"embedding row {r} has norm {norm!r}, not 1 within {UNIT_NORM_TOL}"
    return None


def check_report(report: dict[str, str]) -> str | None:
    t1, u, s, h = (float(report[k]) for k in ("t1", "u", "s", "h"))
    for name, v in (("t1", t1), ("u", u), ("s", s)):
        if not 0.0 <= v <= 1.0:
            return f"{name}={v!r} outside [0, 1]"
    want = 2.0 * u * s / (u + s) if u + s else 0.0
    if not math.isclose(h, want, rel_tol=1e-12, abs_tol=1e-15):
        return f"h={h!r} but 2us/(u+s)={want!r}"
    return None


def versions() -> dict[str, str]:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"numpy": numpy.__version__, "blas": blas}


def run(workload: str, seed: int, work: str, trace: bool) -> dict:
    from jezsl import cli

    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    wl = WORKLOADS[workload]
    out: dict = {"attempted": 0, "failed": 0, "errors": [], "stage_s": {}}
    legs: list[list[tuple[float, float]]] = []
    pipeline_s = 0.0
    for n, stage in enumerate(wl.stages(seed, work)):
        captured = io.StringIO()
        scope = tracer.span(f"cli.{stage.command}") if tracer else nullcontext()
        out["attempted"] += 1
        with redirect_stdout(captured), redirect_stderr(captured):
            start = time.perf_counter()
            try:
                with scope:
                    rc = cli.main(stage.argv)
            except Exception as exc:  # a traceback out of the CLI is a failed stage
                rc = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
        if n == 0:
            out["ready"] = end
        else:
            pipeline_s += end - start
            out["stage_s"][stage.command] = out["stage_s"].get(stage.command, 0.0) + end - start
        error = None if rc == 0 else f"exit {rc}: {captured.getvalue().strip()[-500:]}"
        if error is None and stage.command == "train-embed":
            legs.append(read_train_log(os.path.join(work, "run", "train_log.txt")))
        if error is None and stage.command == "embed":
            error = check_embed(stage.argv, wl.raw)
        if error is None and stage.command == "eval":
            report = read_kv(os.path.join(work, "report", "report.kv"))
            error = check_report(report)
            out.update({k: float(report[k]) for k in ("t1", "u", "s", "h")})
        if error is not None:
            out["failed"] += 1
            out["errors"].append(f"{stage.command}: {error}")
            break

    out["pipeline_s"] = pipeline_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["versions"] = versions()
    if out["failed"]:
        return out

    data = os.path.join(work, "data")
    with open(os.path.join(data, "labels.txt")) as fh:
        n_rows = sum(1 for ln in fh if ln.strip())
    with open(os.path.join(data, "assignments.txt")) as fh:
        n_train = sum(1 for ln in fh if ln.strip() == "train")
    zsl = read_kv(os.path.join(work, "zsl", "manifest.txt"))
    out["train_zsl_steps"] = n_train * int(zsl["epochs"])
    epochs = [e for leg in legs for e in leg]
    out["train_embed_rows"] = n_rows * len(epochs)
    if epochs:
        out["loss_ratio"] = epochs[-1][0] / epochs[0][0]
        out["active_fraction"] = math.fsum(e[1] for e in epochs) / len(epochs)
    if tracer:
        layers = spans.layer_metrics(tracer.spans, setup_stages={"gen-synth"})
        layers["alignment.active_fraction"] = out.get("active_fraction", 0.0)
        layers["trainer.loss_ratio"] = out.get("loss_ratio", 0.0)
        layers["compat.steps_per_s"] = out["train_zsl_steps"] / layers["compat.train_s"]
        out["layers"] = layers
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    result = run(args.workload, args.seed, args.work, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
