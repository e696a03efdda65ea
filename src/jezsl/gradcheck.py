"""Finite-difference verification of every analytic gradient in the package.

Each suite draws random small instances, computes analytic gradients, and
compares them against central differences (h = 1e-5) using a per-tensor
relative error ||a - f|| / max(||a||, ||f||). Hinge-based losses adjust the
margin away from any active/inactive boundary so the finite-difference
stencil cannot flip a term's activity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alignment import LossConfig, MiniBatch, alignment_loss, term_inputs
from .compat import (
    AttributeTable,
    LabeledEmbeddings,
    hinge_arguments,
    ranking_loss,
    ranking_loss_grad,
)
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


def _rel_err(analytic: np.ndarray, numeric: np.ndarray, loss_scale: float = 1.0) -> float:
    # The floor keeps roundoff-sized gradients from reading as 100% error:
    # b2 is exactly inert under BatchNorm, so its analytic gradient is
    # ~1e-16 while central differences return cancellation noise of order
    # eps * |loss| / h. The floor sits well above that noise and well below
    # any real gradient in these instances.
    na = float(np.linalg.norm(analytic))
    nf = float(np.linalg.norm(numeric))
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


def check_heads(trials: int = 20, seed: int = 0, corrupt: bool = False) -> CheckResult:
    """Head forward/backward, including BN batch statistics and L2 Jacobian."""
    rng = make_rng(seed)
    worst = 0.0
    for _ in range(trials):
        d_in = int(rng.integers(2, 9))
        d_hidden = int(rng.integers(2, 9))
        d_out = int(rng.integers(2, 9))
        b = int(rng.integers(2, 5))
        head = init_head(d_in, d_hidden, d_out, rng)
        upstream = rng.standard_normal((b, d_out))
        # Redraw inputs that leave a ReLU pre-activation inside the FD
        # stencil; central differences would straddle the kink there.
        for _ in range(100):
            batch = rng.standard_normal((b, d_in))
            pre = batch @ head.w1.T + head.b1
            if np.min(np.abs(pre)) > 10.0 * FD_STEP:
                break

        emb, trace = forward(head, batch, train=True)
        grads = backward(head, trace, upstream)
        if corrupt:
            grads = (grads[0] + 1e-3, *grads[1:])

        def loss() -> float:
            out, _ = forward(head, batch, train=True)
            return float(np.sum(out * upstream))

        base = loss()
        for arr, analytic in zip(head.learnable(), grads):
            worst = max(worst, _rel_err(analytic, _central_diff(loss, arr), base))
    return CheckResult("embedding-heads", worst, trials)


def check_alignment(trials: int = 20, seed: int = 1, corrupt: bool = False) -> CheckResult:
    """Four-term alignment loss gradient w.r.t. both embedding matrices.

    Every other trial duplicates rows (an image repeated within its group,
    and one sentence equal to its own image) and sets the margin above the
    largest distance between unit rows, so that hinges containing d = 0 are
    active. Central differences of ||u - v|| at u == v are zero, which is
    the subgradient the loss takes there.
    """
    rng = make_rng(seed)
    worst = 0.0
    for t in range(trials):
        b = int(rng.integers(4, 9))
        d = int(rng.integers(2, 7))
        n_groups = int(rng.integers(2, 4))
        groups = rng.integers(0, n_groups, size=b)
        while len(np.unique(groups)) < 2:
            groups = rng.integers(0, n_groups, size=b)
        x = l2_normalize_rows(rng.standard_normal((b, d)))
        y = l2_normalize_rows(rng.standard_normal((b, d)))
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
        batch = MiniBatch(x, y, groups)
        dist, pos, neg = term_inputs(batch)

        def hinge_args(margin: float) -> np.ndarray:
            return (margin + dist[:, :, None] - dist[:, None, :])[pos[:, :, None] & neg[:, None, :]]

        for _ in range(50):
            if not np.any(np.abs(hinge_args(cfg.margin)) < BOUNDARY_GAP):
                break
            cfg.margin += 2.1 * BOUNDARY_GAP

        dx, dy = alignment_loss(batch, cfg)[4:]
        if corrupt:
            dx = dx + 1e-3

        def loss() -> float:
            return alignment_loss(MiniBatch(x, y, groups), cfg)[0]

        base = loss()
        worst = max(worst, _rel_err(dx, _central_diff(loss, x), base))
        worst = max(worst, _rel_err(dy, _central_diff(loss, y), base))
    return CheckResult("alignment-loss", worst, trials)


def check_compatibility(trials: int = 20, seed: int = 2, corrupt: bool = False) -> CheckResult:
    """Bilinear ranking loss gradient w.r.t. the weight matrix."""
    rng = make_rng(seed)
    worst = 0.0
    for _ in range(trials):
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
        if corrupt:
            analytic = analytic + 1e-3

        def loss() -> float:
            return ranking_loss(w, data, table, margin)

        worst = max(worst, _rel_err(analytic, _central_diff(loss, w), loss()))
    return CheckResult("compatibility-ranking", worst, trials)


def run_all(trials: int = 20, seed: int = 0, corrupt: bool = False) -> list[CheckResult]:
    return [
        check_heads(trials, seed, corrupt),
        check_alignment(trials, seed + 1, corrupt),
        check_compatibility(trials, seed + 2, corrupt),
    ]
