"""Minibatch training loop for the two embedding heads.

SGD with momentum, seeded shuffling, and deterministic results given the
same inputs and seed. Both heads are updated in one step per batch from a
single combined loss evaluation.

The shuffle order of epoch e depends only on (seed, e), and the resume
bundle (`trainer_state.jet`) holds everything else a run depends on: both
heads, their optimizer velocities, the next epoch, and the hyperparameters
that shape the trajectory. Training resumed from it is bit-identical to an
uninterrupted run, and a resume under changed hyperparameters is refused.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, fields
from itertools import count, product

import numpy as np

from .alignment import LossConfig, MiniBatch, alignment_loss
from .errors import DataError, NumericalError
from .heads import (
    HEAD_RANKS,
    PARAM_NAMES,
    EmbeddingHead,
    backward,
    forward,
    head_arrays,
    head_from_arrays,
    save_head,
)
from .linalg import (NON_NEGATIVE, SEED, Config, as_matrix, at_least, consecutive, make_rng,
                     option, read_arrays, write_arrays)


@dataclass
class TrainConfig(Config):
    epochs: int = option(50, "training epochs", at_least(0))
    # Batch statistics need variance, so a batch holds at least two rows.
    batch_size: int = option(32, "minibatch size", at_least(2))
    # learning_rate 0 is allowed: it exercises the no-op update path.
    learning_rate: float = option(0.01, "learning rate", NON_NEGATIVE, cli="lr")
    momentum: float = option(0.9, "SGD momentum", ("in [0, 1)", lambda x: 0 <= x < 1))
    seed: int = option(0, bound=SEED, cli="")
    balanced_batches: bool = option(False, "force >= 2 groups per batch")
    checkpoint_every: int = option(0, "save state every N epochs (0: only at end)",
                                   at_least(0))


@dataclass
class TrainLog:
    """Per-epoch figures of one train_joint call, from its first epoch (1-based)."""

    first_epoch: int = 1
    epoch_loss: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    active_fraction: list[float] = field(default_factory=list)

    def lines(self):
        for e, loss, frac in zip(count(self.first_epoch), self.epoch_loss, self.active_fraction):
            yield f"{e}\t{loss:.17g}\t{frac:.17g}"


def sgd_step(
    params: np.ndarray,
    grad: np.ndarray,
    velocity: np.ndarray,
    learning_rate: float,
    momentum: float,
) -> None:
    """In-place momentum update: v <- mu*v - lr*g; p <- p + v."""
    if grad.shape != params.shape:
        raise ValueError(f"sgd_step: gradient shape {grad.shape} != parameter shape "
                         f"{params.shape}")
    velocity *= momentum
    velocity -= learning_rate * grad
    params += velocity


def _batch_indices(order: np.ndarray, groups: np.ndarray, cfg: TrainConfig):
    """Split a permutation into batches, dropping a trailing batch of < 2.

    With balanced_batches, a single-group batch trades its last row for the
    first other-group row of another batch that holds two such rows, so both
    batches have two groups and every anchor has at least one negative.
    """
    batches = [
        order[start : start + cfg.batch_size]
        for start in range(0, len(order), cfg.batch_size)
    ]
    if batches and len(batches[-1]) < 2:
        batches.pop()
    if cfg.balanced_batches:
        for bi, idx in enumerate(batches):
            if (groups[idx] != groups[idx[0]]).any():
                continue
            g = groups[idx[0]]
            for bj, other in enumerate(batches):
                if bj == bi:
                    continue
                cand = np.nonzero(groups[other] != g)[0]
                if len(cand) >= 2:
                    idx[-1], other[cand[0]] = other[cand[0]], idx[-1]
                    break
    return batches


STATE_FILE = "trainer_state.jet"
STATE_MAGIC = b"JET1"
STATE_VERSION = 2

# The hyperparameters that shape the training trajectory: every LossConfig
# field, every TrainConfig field except the two a resume may change, and the
# number of training rows. The resume bundle stores them as one array.
TRAJECTORY_FIELDS = (
    tuple(f.name for f in fields(LossConfig))
    + tuple(f.name for f in fields(TrainConfig)
            if f.name not in ("epochs", "checkpoint_every"))
    + ("rows",)
)

# Bundle layout (linalg's array codec, version 2): head_v and head_s as in a
# .jeh file, the velocities of head_v and head_s in PARAM_NAMES order,
# next_epoch, then the TRAJECTORY_FIELDS values.
_N_HEAD, _N_PARAM = len(HEAD_RANKS), len(PARAM_NAMES)
STATE_RANKS = HEAD_RANKS * 2 + HEAD_RANKS[:_N_PARAM] * 2 + (0, 1)
# (head, parameter) of each of the twelve arrays in the flat parameter and
# velocity vectors, in order.
_LABELS = tuple(product(("visual", "sentence"), PARAM_NAMES))


def trajectory(loss_cfg: LossConfig, train_cfg: TrainConfig, rows: int) -> np.ndarray:
    """TRAJECTORY_FIELDS values of a run, as float64."""
    values = {**vars(loss_cfg), **vars(train_cfg), "rows": rows}
    return np.array([float(values[name]) for name in TRAJECTORY_FIELDS])


@dataclass
class TrainState:
    """Everything a resume needs; saved as one bundle by save_train_state.

    `velocity` is the momentum of both heads' learnable arrays, head_v's then
    head_s's, each in PARAM_NAMES order, flattened into one float64 vector.
    `hyperparams` holds the TRAJECTORY_FIELDS values of the run the state
    belongs to, from `fresh` or from the bundle.
    """

    head_v: EmbeddingHead
    head_s: EmbeddingHead
    velocity: np.ndarray
    next_epoch: int
    hyperparams: np.ndarray

    @classmethod
    def fresh(cls, head_v: EmbeddingHead, head_s: EmbeddingHead, loss_cfg: LossConfig,
              train_cfg: TrainConfig, rows: int) -> "TrainState":
        """Epoch 0 of a run of these configs on `rows` training rows."""
        return cls(head_v, head_s, np.zeros(sum(a.size for a in _learnable(head_v, head_s))),
                   0, trajectory(loss_cfg, train_cfg, rows))

    def changed_hyperparam(self, loss_cfg, train_cfg, rows) -> tuple[str, float, float] | None:
        """(name, saved, given) of the first trajectory hyperparameter that
        differs from this state's run; None if all match."""
        given = trajectory(loss_cfg, train_cfg, rows)
        for name, saved, now in zip(TRAJECTORY_FIELDS, self.hyperparams, given):
            if saved != now:
                return name, float(saved), float(now)
        return None


def save_train_state(state: TrainState, path: str) -> None:
    write_arrays(path, STATE_MAGIC, STATE_VERSION, [
        *head_arrays(state.head_v),
        *head_arrays(state.head_s),
        *_views(state.velocity, _learnable(state.head_v, state.head_s)),
        np.float64(state.next_epoch),
        state.hyperparams,
    ])


def load_train_state(path: str) -> TrainState:
    arrays = read_arrays(path, STATE_MAGIC, STATE_VERSION, STATE_RANKS)
    heads = [head_from_arrays(arrays[i : i + _N_HEAD], path) for i in (0, _N_HEAD)]
    velocities = arrays[2 * _N_HEAD : -2]
    if [v.shape for v in velocities] != [p.shape for p in _learnable(*heads)]:
        raise DataError(f"{path}: velocity shapes do not match the head")
    next_epoch, hyperparams = arrays[-2:]
    if next_epoch < 0 or next_epoch != int(next_epoch):
        raise DataError(f"{path}: next epoch {float(next_epoch)!r} is not a count")
    if len(hyperparams) != len(TRAJECTORY_FIELDS):
        raise DataError(f"{path}: {len(hyperparams)} hyperparameters, "
                        f"expected {len(TRAJECTORY_FIELDS)}")
    return TrainState(*heads, np.concatenate(velocities, axis=None),
                      int(next_epoch), hyperparams)


def save_checkpoint(state: TrainState, out_dir: str) -> None:
    """Write both heads (for `embed`) and then the resume bundle into
    out_dir, which is created if need be."""
    save_head(state.head_v, os.path.join(out_dir, "head_v.jeh"))
    save_head(state.head_s, os.path.join(out_dir, "head_s.jeh"))
    save_train_state(state, os.path.join(out_dir, STATE_FILE))


def epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    """Sample order for one epoch; a pure function of (seed, epoch)."""
    return make_rng([seed, epoch]).permutation(n)


def _learnable(head_v: EmbeddingHead, head_s: EmbeddingHead) -> list[np.ndarray]:
    """Both heads' learnable arrays, in _LABELS order."""
    return head_v.learnable() + head_s.learnable()


def _views(flat: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    """Views of consecutive slices of `flat`, shaped like `like`, in order."""
    return [v.reshape(a.shape) for v, a in zip(consecutive(flat, [a.size for a in like]), like)]


def _first_nonfinite(arrays) -> tuple[str, str]:
    """(head label, parameter name) of the first of the twelve arrays, in
    _LABELS order, that holds a non-finite value."""
    return next(label for label, a in zip(_LABELS, arrays) if not np.isfinite(a).all())


# A diverging run overflows in sgd_step and heads.forward. The checks on the
# loss, the gradients, the embeddings (forward's norm guard) and, at each epoch's end,
# the parameters and batch-norm running statistics raise NumericalError for
# it, so numpy's warnings are off.
@np.errstate(over="ignore", invalid="ignore")
def train_joint(
    visual: np.ndarray,
    sentences: np.ndarray,
    groups: np.ndarray,
    state: TrainState,
    loss_cfg: LossConfig,
    train_cfg: TrainConfig,
    checkpoint_dir: str | None = None,
) -> TrainLog:
    """Train the state's two heads in place on paired features; returns the log.

    The heads' learnable arrays are replaced by views into one flat vector
    that each step updates, alongside the state's flat velocity, so an array
    taken from a head before the call keeps its old values.

    Training starts at state.next_epoch: TrainState.fresh starts a run, and
    a state loaded from disk resumes bit-identically to having trained
    straight through; a state of a run under other hyperparameters, or one
    that has trained more epochs than train_cfg.epochs, is refused.
    With checkpoint_dir, save_checkpoint writes there every checkpoint_every
    epochs (if set) and at the end, unless the last epoch has just written
    it, so the directory ends with the final state, written once, even when
    no epoch runs.
    """
    visual = as_matrix(visual, "visual features")
    sentences = as_matrix(sentences, "sentence features")
    groups = np.asarray(groups)
    if not (len(visual) == len(sentences) == len(groups)):
        raise ValueError(
            f"row counts disagree: {len(visual)} visual, {len(sentences)} sentence, "
            f"{len(groups)} groups"
        )
    if not (groups != groups[:1]).any():
        raise ValueError(f"{len(groups)} training rows hold fewer than two groups, "
                         "so no triplet has a negative")
    head_v, head_s = state.head_v, state.head_s
    if visual.shape[1] != head_v.d_in:
        raise ValueError("visual feature width does not match visual head input")
    if sentences.shape[1] != head_s.d_in:
        raise ValueError("sentence feature width does not match sentence head input")
    if head_v.d_out != head_s.d_out:
        raise ValueError("heads must share output dimensionality")
    train_cfg.validate()
    loss_cfg.validate()

    changed = state.changed_hyperparam(loss_cfg, train_cfg, len(visual))
    if changed is not None:
        raise ValueError("train_joint: state belongs to a run with %s=%r, not %r" % changed)
    if train_cfg.epochs < state.next_epoch:
        raise ValueError(f"train_joint: state has trained {state.next_epoch} epochs, more "
                         f"than epochs={train_cfg.epochs}")
    # Both heads' parameters become views into one vector, laid out like the
    # state's velocity, so each step checks and updates all twelve arrays
    # with one call each. The head objects stay the same.
    arrays = _learnable(head_v, head_s)
    params = np.concatenate(arrays, axis=None, dtype=np.float64)
    for (head, name), view in zip(product((head_v, head_s), PARAM_NAMES),
                                  _views(params, arrays)):
        setattr(head, name, view)
    grad = np.empty_like(params)
    train_log = TrainLog(first_epoch=state.next_epoch + 1)
    written = None  # next_epoch of the last checkpoint this call wrote

    for epoch in range(state.next_epoch, train_cfg.epochs):
        start = time.perf_counter()
        order = epoch_order(train_cfg.seed, epoch, len(visual))
        losses = []
        active_total = 0
        triple_total = 0

        for bi, idx in enumerate(_batch_indices(order, groups, train_cfg)):
            label = "visual head "
            try:
                emb_v, trace_v = forward(head_v, visual[idx], train=True)
                label = "sentence head "
                emb_s, trace_s = forward(head_s, sentences[idx], train=True)
            except NumericalError as exc:
                raise NumericalError(f"{label}{exc} at epoch {epoch + 1}, batch {bi + 1}") from exc
            batch = MiniBatch(emb_v, emb_s, groups[idx])
            loss, _, active, total, d_v, d_s = alignment_loss(batch, loss_cfg)
            if not np.isfinite(loss):
                raise NumericalError(f"non-finite loss at epoch {epoch + 1}, batch {bi + 1}")
            losses.append(loss)
            active_total += active
            triple_total += total

            if active == 0:
                continue
            grads_v = backward(head_v, trace_v, d_v)
            grads_s = backward(head_s, trace_s, d_s)
            np.concatenate((*grads_v, *grads_s), axis=None, out=grad)
            if not np.isfinite(grad).all():
                label, name = _first_nonfinite((*grads_v, *grads_s))
                raise NumericalError(
                    f"non-finite gradient in {label} head parameter {name} "
                    f"at epoch {epoch + 1}, batch {bi + 1}"
                )
            sgd_step(params, grad, state.velocity, train_cfg.learning_rate, train_cfg.momentum)
        if not np.isfinite(params).all():
            label, name = _first_nonfinite(_learnable(head_v, head_s))
            raise NumericalError(
                f"non-finite {label} head parameter {name} after epoch {epoch + 1}"
            )
        for label, head in (("visual", head_v), ("sentence", head_s)):
            for name in ("bn_running_mean", "bn_running_var"):
                if not np.isfinite(getattr(head, name)).all():
                    raise NumericalError(
                        f"non-finite {label} head {name} after epoch {epoch + 1}")

        train_log.epoch_loss.append(float(np.mean(losses)) if losses else 0.0)
        train_log.active_fraction.append(active_total / triple_total if triple_total else 0.0)
        train_log.epoch_seconds.append(time.perf_counter() - start)

        state.next_epoch = epoch + 1
        if (
            checkpoint_dir is not None
            and train_cfg.checkpoint_every > 0
            and (epoch + 1) % train_cfg.checkpoint_every == 0
        ):
            save_checkpoint(state, checkpoint_dir)
            written = state.next_epoch

    if checkpoint_dir is not None and written != state.next_epoch:
        save_checkpoint(state, checkpoint_dir)
    return train_log
