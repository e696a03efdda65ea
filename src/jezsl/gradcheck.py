"""Finite-difference verification of every analytic gradient in the package.

This is the package's only finite-difference code. One runner (`_run`) does
the work: for each trial a suite draws a random small instance and returns
its loss closure and the (array, analytic gradient) pairs to check; the
runner compares each against central differences (h = 1e-5) using a
per-tensor relative error ||a - f|| / max(||a||, ||f||) and keeps the worst.
Hinge-based losses adjust the margin away from any active/inactive boundary
so the finite-difference stencil cannot flip a term's activity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alignment import LossConfig, MiniBatch, alignment_loss, term_inputs
from .compat import (AttributeTable, LabeledEmbeddings, hinge_arguments, ranking_loss,
                     ranking_loss_grad)
from .errors import NumericalError
from .heads import backward, forward, init_head
from .linalg import l2_normalize_rows, make_rng

FD_STEP = 1e-5
TOLERANCE = 1e-4
# Keep hinge arguments at least this far from zero when margin-tuning.
BOUNDARY_GAP = 1e-3


@dataclass
class CheckResult:
    name: str
    worst_rel_err: float
    trials: int

    @property
    def passed(self) -> bool:
        return self.worst_rel_err <= TOLERANCE


def _rel_err(analytic: np.ndarray, numeric: np.ndarray, loss_scale: float) -> float:
    # b2 is exactly inert under BatchNorm, and so is b1 whenever each hidden
    # unit is active for every row of the batch or for none: their analytic
    # gradients are ~1e-16 while central differences return cancellation
    # noise, seen up to 1e-9 in norm. Both norms under 1e-8 count as agreeing
    # zeros. Otherwise the floor keeps a roundoff-sized gradient from reading
    # as 100% error, and sits well below any real gradient in these instances.
    na = float(np.linalg.norm(analytic))
    nf = float(np.linalg.norm(numeric))
    if na < 1e-8 and nf < 1e-8:  # False for a NaN, unlike max()
        return 0.0
    floor = 1e-6 * (1.0 + abs(loss_scale))
    err = float(np.linalg.norm(analytic - numeric)) / max(na, nf, floor)
    # A NaN would vanish under max() in the callers and pass the check.
    return err if np.isfinite(err) else np.inf


def _central_diff(fn, arr: np.ndarray) -> np.ndarray:
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        hi = fn()
        flat[i] = orig - FD_STEP
        lo = fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * FD_STEP)
    return grad


def _run(name: str, instance, trials: int, seed: int) -> CheckResult:
    """The worst relative error over `trials` instances; `instance(rng, t)`
    draws trial t and returns (loss closure, (array, analytic) pairs). Only
    the alignment suite reads t, to repeat rows on odd trials."""
    rng = make_rng(seed)
    worst = 0.0
    for t in range(trials):
        loss, pairs = instance(rng, t)
        base = loss()
        for arr, analytic in pairs:
            worst = max(worst, _rel_err(analytic, _central_diff(loss, arr), base))
    return CheckResult(name, worst, trials)


def _head_instance(rng: np.random.Generator, t: int):
    d_in = int(rng.integers(2, 9))
    d_hidden = int(rng.integers(2, 9))
    d_out = int(rng.integers(2, 9))
    b = int(rng.integers(2, 5))
    head = init_head(d_in, d_hidden, d_out, rng)
    upstream = rng.standard_normal((b, d_out))
    # Redraw inputs that leave a ReLU pre-activation inside the FD stencil,
    # where central differences would straddle the kink, or whose hidden
    # rows are all dead, which gives a zero embedding row that forward refuses.
    for _ in range(100):
        batch = rng.standard_normal((b, d_in))
        if np.min(np.abs(batch @ head.w1.T + head.b1)) > 10.0 * FD_STEP:
            try:
                _, trace = forward(head, batch, train=True)
                break
            except NumericalError:
                pass
    else:
        raise NumericalError("gradcheck: no usable head instance in 100 draws")

    def loss() -> float:
        return float(np.sum(forward(head, batch, train=True)[0] * upstream))

    return loss, zip(head.learnable(), backward(head, trace, upstream))


def check_heads(trials: int = 20, seed: int = 0) -> CheckResult:
    """Head forward/backward, including BN batch statistics and L2 Jacobian."""
    return _run("embedding-heads", _head_instance, trials, seed)


def _alignment_instance(rng: np.random.Generator, t: int):
    b = int(rng.integers(4, 9))
    d = int(rng.integers(2, 7))
    n_groups = int(rng.integers(2, 4))
    groups = rng.integers(0, n_groups, size=b)
    while len(np.unique(groups)) < 2:
        groups = rng.integers(0, n_groups, size=b)
    x = l2_normalize_rows(rng.standard_normal((b, d)))[0]
    y = l2_normalize_rows(rng.standard_normal((b, d)))[0]
    cfg = LossConfig(
        margin=float(rng.uniform(0.05, 0.4)),
        lambda1=float(rng.uniform(0.5, 2.5)),
        lambda2=float(rng.uniform(0.0, 0.5)),
        lambda3=float(rng.uniform(0.0, 0.5)),
    )
    if t % 2 == 1:
        x[1] = x[0]
        groups[1] = groups[0]
        y[0] = x[0]
        cfg.margin += 2.0

    # Shift the margin so no hinge argument is within the stencil of 0.
    batch = MiniBatch(x, y, groups)  # holds x and y themselves, not copies
    dist, pos, neg = term_inputs(batch)

    def hinge_args(margin: float) -> np.ndarray:
        return (margin + dist[:, :, None] - dist[:, None, :])[pos[:, :, None] & neg[:, None, :]]

    for _ in range(50):
        if not np.any(np.abs(hinge_args(cfg.margin)) < BOUNDARY_GAP):
            break
        cfg.margin += 2.1 * BOUNDARY_GAP

    dx, dy = alignment_loss(batch, cfg)[4:]
    return (lambda: alignment_loss(batch, cfg)[0]), ((x, dx), (y, dy))


def check_alignment(trials: int = 20, seed: int = 1) -> CheckResult:
    """Four-term alignment loss gradient w.r.t. both embedding matrices.

    Every other trial duplicates rows (an image repeated within its group,
    and one sentence equal to its own image) and sets the margin above the
    largest distance between unit rows, so that hinges containing d = 0 are
    active. Central differences of ||u - v|| at u == v are zero, which is
    the subgradient the loss takes there.
    """
    return _run("alignment-loss", _alignment_instance, trials, seed)


def _compatibility_instance(rng: np.random.Generator, t: int):
    d_embed = int(rng.integers(2, 9))
    d_attr = int(rng.integers(2, 9))
    n_seen = int(rng.integers(2, 6))
    n_unseen = int(rng.integers(1, 4))
    n = int(rng.integers(2, 9))
    C = n_seen + n_unseen
    table = AttributeTable(
        class_ids=list(range(C)),
        attributes=rng.standard_normal((C, d_attr)),
        seen=range(n_seen),
        unseen=range(n_seen, C),
    )
    data = LabeledEmbeddings(
        embeddings=rng.standard_normal((n, d_embed)),
        labels=rng.integers(0, n_seen, size=n),
    )
    w = rng.standard_normal((d_embed, d_attr))

    margin = float(rng.uniform(0.05, 0.5))
    for _ in range(50):
        args = hinge_arguments(w, data, table, margin)
        if not np.any(np.abs(args[np.isfinite(args)]) < BOUNDARY_GAP):
            break
        margin += 2.1 * BOUNDARY_GAP

    analytic = ranking_loss_grad(w, data, table, margin)
    return (lambda: ranking_loss(w, data, table, margin)), ((w, analytic),)


def check_compatibility(trials: int = 20, seed: int = 2) -> CheckResult:
    """Bilinear ranking loss gradient w.r.t. the weight matrix."""
    return _run("compatibility-ranking", _compatibility_instance, trials, seed)


def run_all(trials: int = 20, seed: int = 0) -> list[CheckResult]:
    return [
        check_heads(trials, seed),
        check_alignment(trials, seed + 1),
        check_compatibility(trials, seed + 2),
    ]
