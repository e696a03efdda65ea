"""Span tracing of jezsl's layers, installed from outside the package.

`install` replaces, in the namespace of each consumer module, every function
imported from another jezsl module, and (except in `cli`) the module's own
public functions, which catches same-module calls such as
`trainer.sgd_step` or `data.read_features` under `data.load_dataset`. Each
replacement records a span: name, start, end, parent. A layer is the jezsl
module a function is defined in, so a new function in an existing module
is traced without editing this file.

Spans stay in memory; `layer_metrics` turns them into per-layer figures
once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from contextlib import contextmanager

CONSUMERS = ("cli", "trainer", "compat", "metrics", "data")
LAYERS = ("cli", "data", "heads", "alignment", "trainer", "compat", "metrics", "linalg")


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.info = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def func(self) -> str:
        return self.name.split(".", 1)[1]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        rec = Span(name, 0.0, parent)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        info = _INFO.get(name.split(".", 1)[0])
        params = list(inspect.signature(fn).parameters)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if info is not None:
                rec.info = info(rec.func, dict(zip(params, args), **kwargs))
            return result

        return traced


def _group_ids(func, bound):
    """The group ids an alignment call receives (a MiniBatch or an int array)."""
    for a in bound.values():
        ids = getattr(a, "group_ids", None)
        if ids is not None:
            return ids
    for a in bound.values():
        if getattr(a, "ndim", None) == 1 and a.dtype.kind in "iu":
            return a
    return None


def _file_bytes(func, bound):
    """Size of the file a data-layer read_*/write_* call took as `path`."""
    path = bound.get("path")
    if func.startswith(("read_", "write_")) and isinstance(path, str) \
            and os.path.exists(path):
        return os.path.getsize(path)
    return None


def _rows(func, bound):
    """Rows a compat.infer_batch call classifies."""
    return len(bound["x"]) if func == "infer_batch" else None


_INFO = {"alignment": _group_ids, "data": _file_bytes, "compat": _rows}


def install(tracer: Tracer) -> None:
    """Replace the traced functions in the consumer modules' namespaces."""
    for short in CONSUMERS:
        mod = importlib.import_module(f"jezsl.{short}")
        for attr, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj) or not obj.__module__.startswith("jezsl."):
                continue
            home = obj.__module__.split(".", 1)[1]
            if home == short and (short == "cli" or attr.startswith("_")):
                continue
            setattr(mod, attr, tracer.wrap(f"{home}.{obj.__name__}", obj))


def _self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.seconds
    return own


def triplet_count(group_ids) -> int:
    """Triplets the four-term loss enumerates for one batch of group ids.

    Per anchor with p rows in its group (itself included) and n = b - p
    others: p*n cross-modal and (p-1)*n within-modal triplets, each family
    counted twice (image and sentence anchors).
    """
    import numpy as np

    g = np.asarray(group_ids)
    _, inverse, counts = np.unique(g, return_inverse=True, return_counts=True)
    p = counts[inverse]
    n = len(g) - p
    return int(2 * np.sum(p * n) + 2 * np.sum((p - 1) * n))


def _alignment_calls(spans: list[Span], in_pipeline: list[bool]) -> list[list]:
    """[seconds, group ids] per alignment call: a run of consecutive
    alignment spans under one parent, which is one minibatch today."""
    calls: list[list] = []
    run_parent = None
    for i, s in enumerate(spans):
        if not in_pipeline[i] or s.parent < 0:
            continue
        if s.layer != "alignment":
            if s.parent == run_parent:
                run_parent = None
        elif s.parent == run_parent:
            calls[-1][0] += s.seconds
            if calls[-1][1] is None:
                calls[-1][1] = s.info
        else:
            calls.append([s.seconds, s.info])
            run_parent = s.parent
    return calls


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it (50 if none)."""
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return 50.0


def percentile(values: list[float], p: float) -> float:
    if not values:
        return 0.0
    values = sorted(values)
    k = (len(values) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (k - lo)


def layer_metrics(spans: list[Span], setup_stages: set[str]) -> dict[str, float]:
    """Per-layer figures from one traced pipeline run.

    Stage spans are the root spans (`cli.<command>`); those whose command is
    in `setup_stages` are set-up, the rest the pipeline. Self times and
    shares cover the pipeline only, so that the self times of all layers add
    up to the traced pipeline time. File traffic covers set-up too.
    """
    root = []
    for s in spans:
        root.append(root[s.parent] if s.parent >= 0 else s.func)
    in_pipeline = [r not in setup_stages for r in root]
    own = _self_seconds(spans)

    pipeline_s = sum(s.seconds for i, s in enumerate(spans)
                     if s.parent < 0 and in_pipeline[i])
    m: dict[str, float] = {"trace.pipeline_s": pipeline_s}
    self_s = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        if in_pipeline[i]:
            self_s[s.layer] = self_s.get(s.layer, 0.0) + own[i]

    def total(pred) -> float:
        return sum(s.seconds for i, s in enumerate(spans) if pred(i, s))

    def named(layer, *funcs):
        return lambda i, s: s.layer == layer and s.func in funcs

    for layer, v in self_s.items():
        m[f"{layer}.self_s"] = v
    m["alignment.busy_s"] = m.pop("alignment.self_s")
    m["alignment.share"] = self_s["alignment"] / pipeline_s
    m["compat.share"] = self_s["compat"] / pipeline_s

    calls = _alignment_calls(spans, in_pipeline)
    secs = [c[0] for c in calls]
    triplets = sum(triplet_count(c[1]) for c in calls if c[1] is not None)
    m["alignment.calls"] = len(calls)
    m["alignment.triplets"] = triplets
    m["alignment.triplets_per_s"] = triplets / sum(secs) if secs else 0.0
    m["alignment.call_p50_ms"] = 1e3 * percentile(secs, 50.0)
    tail = tail_percentile(len(secs))
    m["alignment.call_tail_pct"] = tail
    m["alignment.call_tail_ms"] = 1e3 * percentile(secs, tail)

    m["heads.forward_s"] = total(named("heads", "forward"))
    m["heads.backward_s"] = total(named("heads", "backward"))
    m["trainer.sgd_step_s"] = total(named("trainer", "sgd_step"))
    m["trainer.checkpoint_s"] = total(
        lambda i, s: root[i] == "train-embed"
        and (s.name == "heads.save_head" or s.name == "trainer.save_train_state"))
    m["trainer.resume_load_s"] = total(
        lambda i, s: root[i] == "train-embed"
        and (s.name == "heads.load_head" or s.name == "trainer.load_train_state"))

    m["compat.train_s"] = total(named("compat", "train_compatibility"))
    infer = [(s.seconds, s.info) for s in spans if s.name == "compat.infer_batch"]
    infer_s = sum(t for t, _ in infer)
    m["compat.infer_rows_per_s"] = sum(n for _, n in infer) / infer_s if infer_s else 0.0
    m["metrics.evaluate_s"] = total(named("metrics", "evaluate"))

    # Data traffic: only outermost data spans count time, so that
    # load_dataset's own read_features calls are not counted twice.
    outer = [i for i, s in enumerate(spans)
             if s.layer == "data" and (s.parent < 0 or spans[s.parent].layer != "data")]
    m["data.read_s"] = sum(spans[i].seconds for i in outer
                           if spans[i].func.startswith(("read_", "load_")))
    m["data.write_s"] = sum(spans[i].seconds for i in outer
                            if spans[i].func.startswith(("write_", "save_")))
    m["data.generate_s"] = total(named("data", "generate"))
    m["data.bytes_read"] = sum(s.info for s in spans if s.layer == "data"
                               and s.func.startswith("read_") and s.info)
    m["data.bytes_written"] = sum(s.info for s in spans if s.layer == "data"
                                  and s.func.startswith("write_") and s.info)
    return m
