"""Per-stream embedding heads: FC -> ReLU -> FC -> BatchNorm -> L2 norm.

The forward pass produces unit-norm embedding rows; the backward pass is an
exact analytic differentiation of the whole pipeline, including the batch
statistics of the BatchNorm layer and the Jacobian of the row-wise L2
normalization. Gradients are validated against central finite differences
in the test suite and by the `gradcheck` CLI command.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .linalg import as_matrix, l2_normalize_rows, read_arrays, write_arrays

CHECKPOINT_MAGIC = b"JEH1"
CHECKPOINT_VERSION = 2

# Parameters the optimizer updates, in the order optimizer state and files use.
PARAM_NAMES = ("w1", "b1", "w2", "b2", "bn_gamma", "bn_beta")


@dataclass
class EmbeddingHead:
    """Learnable parameters and BatchNorm state of one stream."""

    w1: np.ndarray  # (d_hidden, d_in)
    b1: np.ndarray  # (d_hidden,)
    w2: np.ndarray  # (d_out, d_hidden)
    b2: np.ndarray  # (d_out,)
    bn_gamma: np.ndarray  # (d_out,)
    bn_beta: np.ndarray  # (d_out,)
    bn_running_mean: np.ndarray  # (d_out,)
    bn_running_var: np.ndarray  # (d_out,)
    bn_momentum: float = 0.1
    bn_epsilon: float = 1e-5

    @property
    def d_in(self) -> int:
        return self.w1.shape[1]

    @property
    def d_hidden(self) -> int:
        return self.w1.shape[0]

    @property
    def d_out(self) -> int:
        return self.w2.shape[0]

    def learnable(self) -> list[np.ndarray]:
        """Parameters updated by the optimizer (BN running stats excluded),
        in PARAM_NAMES order."""
        return [getattr(self, name) for name in PARAM_NAMES]


@dataclass
class ForwardTrace:
    """What backward reads of one train-mode forward."""

    inputs: np.ndarray  # (b, d_in)
    post_relu: np.ndarray  # (b, d_hidden)
    inv_std: np.ndarray  # 1/sqrt(var + eps), (d_out,)
    normalized: np.ndarray  # BN-whitened activations, (b, d_out)
    embeddings: np.ndarray  # the unit-norm rows forward returned, (b, d_out)
    row_norms: np.ndarray  # norms of the rows before normalization, (b,)
    train_mode: bool = True


def init_head(d_in: int, d_hidden: int, d_out: int, rng: np.random.Generator) -> EmbeddingHead:
    """Glorot-uniform weights, gamma=1, beta=0, unit running variance, and
    the default BN momentum and epsilon.

    b1 starts at 0.01 rather than 0 so an all-zero hidden layer (which would
    make the final L2 normalization degenerate) is measure-zero.
    """

    def glorot(fan_out, fan_in):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_out, fan_in))

    return EmbeddingHead(
        w1=glorot(d_hidden, d_in),
        b1=np.full(d_hidden, 0.01),
        w2=glorot(d_out, d_hidden),
        b2=np.zeros(d_out),
        bn_gamma=np.ones(d_out),
        bn_beta=np.zeros(d_out),
        bn_running_mean=np.zeros(d_out),
        bn_running_var=np.ones(d_out),
    )


def forward(
    head: EmbeddingHead,
    batch: np.ndarray,
    train: bool,
) -> tuple[np.ndarray, ForwardTrace]:
    """Run the head on a batch of rows; returns unit-norm embeddings.

    Train mode normalizes with batch statistics (biased variance), which it
    folds into the running averages. Eval mode uses the stored running
    statistics and mutates nothing.
    """
    batch = as_matrix(batch, "forward input")
    if batch.shape[1] != head.d_in:
        raise ValueError(
            f"forward: input has {batch.shape[1]} columns, head expects {head.d_in}"
        )
    b = batch.shape[0]
    if train and b < 2:
        raise ValueError("forward: train mode needs batch size >= 2 for batch statistics")

    post_relu = np.maximum(batch @ head.w1.T + head.b1, 0.0)
    pre_bn = post_relu @ head.w2.T + head.b2

    if train:
        # np.add.reduce(., 0) / b is what ndarray.mean and .var compute,
        # without their wrappers' cost.
        mean = np.add.reduce(pre_bn, 0) / b
        centered = pre_bn - mean
        var = np.add.reduce(centered * centered, 0) / b  # biased; bn_epsilon guards 0
        mom = head.bn_momentum
        unbiased = var * b / (b - 1)
        head.bn_running_mean[:] = (1.0 - mom) * head.bn_running_mean + mom * mean
        head.bn_running_var[:] = (1.0 - mom) * head.bn_running_var + mom * unbiased
    else:
        centered = pre_bn - head.bn_running_mean
        var = head.bn_running_var
    inv_std = 1.0 / np.sqrt(var + head.bn_epsilon)
    normalized = centered * inv_std

    pre_l2 = head.bn_gamma * normalized + head.bn_beta
    embeddings, row_norms = l2_normalize_rows(pre_l2, "forward: embedding")

    trace = ForwardTrace(inputs=batch, post_relu=post_relu, inv_std=inv_std,
                         normalized=normalized, embeddings=embeddings,
                         row_norms=row_norms, train_mode=train)
    return embeddings, trace


def backward(
    head: EmbeddingHead, trace: ForwardTrace, d_embeddings: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Exact gradients of a scalar loss through the head.

    `d_embeddings` is the upstream gradient w.r.t. the unit-norm output rows.
    Returns the parameter gradients, in PARAM_NAMES order.
    """
    if not trace.train_mode:
        raise ValueError("backward: trace must come from a train-mode forward")
    d_embeddings = as_matrix(d_embeddings, "d_embeddings")
    b, d_out = trace.embeddings.shape
    if d_embeddings.shape != (b, d_out):
        raise ValueError(
            f"backward: d_embeddings shape {d_embeddings.shape} != {(b, d_out)}"
        )

    # Row-wise L2 normalization: o = u/|u|, d_u = (g - o(o.g)) / |u|
    out = trace.embeddings
    dot = np.add.reduce(out * d_embeddings, 1, keepdims=True)
    d_pre_l2 = (d_embeddings - out * dot) / trace.row_norms[:, None]

    # BN affine
    d_gamma = np.add.reduce(d_pre_l2 * trace.normalized, 0)
    d_beta = np.add.reduce(d_pre_l2, 0)
    d_norm = d_pre_l2 * head.bn_gamma

    # BN whitening with batch statistics (biased variance)
    mean_dnorm = np.add.reduce(d_norm, 0) / b
    mean_dnorm_xhat = np.add.reduce(d_norm * trace.normalized, 0) / b
    d_pre_bn = trace.inv_std * (d_norm - mean_dnorm - trace.normalized * mean_dnorm_xhat)

    # Second FC
    d_w2 = d_pre_bn.T @ trace.post_relu
    d_b2 = np.add.reduce(d_pre_bn, 0)
    d_post_relu = d_pre_bn @ head.w2

    # ReLU (post_relu > 0 exactly where its input is) and first FC
    d_pre_relu = d_post_relu * (trace.post_relu > 0.0)
    d_w1 = d_pre_relu.T @ trace.inputs
    d_b1 = np.add.reduce(d_pre_relu, 0)

    return d_w1, d_b1, d_w2, d_b2, d_gamma, d_beta


# --- checkpoint serialization ------------------------------------------------
# Layout (version 2, linalg's array codec): magic "JEH1", version byte, the
# uint32 LE dims of w1, b1, w2, b2, gamma, beta, running_mean and
# running_var, then those eight arrays and the scalars bn_momentum and
# bn_epsilon as float64 LE. The resume bundle embeds the same arrays.

HEAD_FIELDS = PARAM_NAMES + ("bn_running_mean", "bn_running_var", "bn_momentum", "bn_epsilon")
HEAD_RANKS = (2, 1, 2, 1, 1, 1, 1, 1, 0, 0)


def head_arrays(head: EmbeddingHead) -> list:
    """The head's state in HEAD_FIELDS order, scalars included."""
    return [getattr(head, name) for name in HEAD_FIELDS]


def head_from_arrays(arrays: list[np.ndarray], path: str) -> EmbeddingHead:
    """Inverse of head_arrays. Inconsistent shapes, and batch-norm state that
    cannot normalize (a negative running variance, epsilon <= 0, momentum
    outside [0, 1]), are a DataError."""
    (d_hidden, d_in), d_out = arrays[0].shape, arrays[2].shape[0]
    want = [(d_hidden, d_in), (d_hidden,), (d_out, d_hidden)] + [(d_out,)] * 5 + [()] * 2
    if [a.shape for a in arrays] != want:
        raise DataError(f"{path}: head array shapes {[a.shape for a in arrays]} "
                        f"are inconsistent, expected {want}")
    head = dict(zip(HEAD_FIELDS, arrays))
    var, mom, eps = head["bn_running_var"], float(head["bn_momentum"]), float(head["bn_epsilon"])
    if (var < 0).any() or not (eps > 0 and 0 <= mom <= 1):
        raise DataError(f"{path}: batch-norm state needs running_var >= 0, epsilon > 0 and "
                        f"momentum in [0, 1], got min running_var {var.min(initial=np.inf):g}, "
                        f"epsilon {eps:g}, momentum {mom:g}")
    head["bn_momentum"], head["bn_epsilon"] = mom, eps
    return EmbeddingHead(**head)


def save_head(head: EmbeddingHead, path: str) -> None:
    write_arrays(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, head_arrays(head))


def load_head(path: str) -> EmbeddingHead:
    arrays = read_arrays(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, HEAD_RANKS)
    return head_from_arrays(arrays, path)
