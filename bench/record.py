"""Run the benchmark over several seeds and write a BENCH record.

    python3 bench/record.py --seeds 1-10 --out bench/records/BENCH_<name>.json

Run from the repository root. For each seed, every workload in
BENCHMARK.json runs once untraced, workloads interleaved so that a slow
spell of the host is shared between them; then each workload runs once
traced (first seed). The record holds, per workload and metric, the values
in seed order, their median and quartiles, and the spread: the distance
between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-2][len("env: "):]), json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]

    env = None
    runs: dict[str, list[dict]] = {w: [] for w in names}
    started = time.time()
    for seed in args.seeds:
        for w in names:
            env, result = one_run(w, seed, spec["run_seconds"], 0)
            runs[w].append(result)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    traced = {}
    for w in names:
        _, result = one_run(w, args.seeds[0], spec["run_seconds"], 1)
        traced[w] = {k: v["value"] for k, v in result["metrics"].items()}

    record = {
        "environment": {k: v for k, v in env.items()
                        if k not in ("workload", "seed", "reps", "traced_reps", "trace")},
        "seeds": args.seeds,
        "run_seconds": spec["run_seconds"],
        "wall_s": time.time() - started,
        "workloads": {},
    }
    for w in names:
        end_to_end = {}
        for m in spec["end_to_end"]:
            s = summary([r["metrics"][m["name"]]["value"] for r in runs[w]])
            s.update(unit=m["unit"], bound=m["bound"])
            end_to_end[m["name"]] = s
            print(f"{w:<11} {m['name']:<22} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.3f} (bound {m['bound']})")
        record["workloads"][w] = {
            "attempted": sum(r["attempted"] for r in runs[w]),
            "failed": sum(r["failed"] for r in runs[w]),
            "correct": all(r["correct"] for r in runs[w]),
            "end_to_end": end_to_end,
            "per_layer": traced[w],
        }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
