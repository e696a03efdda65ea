import copy
import re

import numpy as np
import pytest

from jezsl.errors import DataError, NumericalError
from jezsl.gradcheck import check_heads
from jezsl.heads import (
    EmbeddingHead,
    backward,
    forward,
    init_head,
    load_head,
    save_head,
)
from jezsl.linalg import make_rng


def identity_head(d):
    return EmbeddingHead(
        w1=np.eye(d),
        b1=np.zeros(d),
        w2=np.eye(d),
        b2=np.zeros(d),
        bn_gamma=np.ones(d),
        bn_beta=np.zeros(d),
        bn_running_mean=np.zeros(d),
        bn_running_var=np.ones(d),
        bn_epsilon=0.0,
    )


def reference_forward(head, batch, train):
    """Independent scalar-loop forward used as an oracle."""
    b, d_in = batch.shape
    d_hidden, d_out = head.d_hidden, head.d_out
    hidden = np.zeros((b, d_hidden))
    for n in range(b):
        for i in range(d_hidden):
            acc = head.b1[i]
            for j in range(d_in):
                acc += head.w1[i, j] * batch[n, j]
            hidden[n, i] = acc if acc > 0 else 0.0
    pre_bn = np.zeros((b, d_out))
    for n in range(b):
        for i in range(d_out):
            acc = head.b2[i]
            for j in range(d_hidden):
                acc += head.w2[i, j] * hidden[n, j]
            pre_bn[n, i] = acc
    out = np.zeros((b, d_out))
    for i in range(d_out):
        if train:
            mean = sum(pre_bn[n, i] for n in range(b)) / b
            var = sum((pre_bn[n, i] - mean) ** 2 for n in range(b)) / b
        else:
            mean = head.bn_running_mean[i]
            var = head.bn_running_var[i]
        for n in range(b):
            xhat = (pre_bn[n, i] - mean) / np.sqrt(var + head.bn_epsilon)
            out[n, i] = head.bn_gamma[i] * xhat + head.bn_beta[i]
    for n in range(b):
        norm = np.sqrt(sum(out[n, i] ** 2 for i in range(d_out)))
        out[n] = out[n] / norm
    return out


class TestForward:
    def test_identity_eval_three_four(self):
        head = identity_head(2)
        out, _ = forward(head, np.array([[3.0, 4.0]]), train=False)
        np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-12)

    def test_relu_zeroes_negative_input(self):
        head = identity_head(2)
        with pytest.raises(NumericalError):
            forward(head, np.array([[-3.0, -4.0]]), train=False)

    def test_matches_scalar_reference(self):
        rng = make_rng(5)
        head = init_head(6, 5, 4, rng)
        batch = rng.standard_normal((3, 6))
        for train in (True, False):
            out, _ = forward(copy.deepcopy(head), batch, train=train)
            ref = reference_forward(head, batch, train)
            assert np.max(np.abs(out - ref)) <= 1e-10

    def test_unit_norm_rows_both_modes(self):
        rng = make_rng(11)
        head = init_head(8, 6, 5, rng)
        batch = rng.standard_normal((7, 8))
        for train in (True, False):
            out, _ = forward(head, batch, train=train)
            norms = np.linalg.norm(out, axis=1)
            assert np.all(np.abs(norms - 1.0) <= 1e-9)

    def test_train_mode_requires_batch_of_two(self):
        head = init_head(3, 3, 3, make_rng(0))
        with pytest.raises(ValueError):
            forward(head, np.ones((1, 3)), train=True)

    def test_dimension_mismatch(self):
        head = init_head(3, 3, 3, make_rng(0))
        with pytest.raises(ValueError):
            forward(head, np.ones((2, 4)), train=True)

    def test_eval_mode_pure_and_repeatable(self):
        rng = make_rng(2)
        head = init_head(4, 4, 4, rng)
        before = {k: v.copy() for k, v in vars(head).items() if isinstance(v, np.ndarray)}
        batch = rng.standard_normal((3, 4))
        out1, _ = forward(head, batch, train=False)
        out2, _ = forward(head, batch, train=False)
        np.testing.assert_array_equal(out1, out2)
        for k, v in before.items():
            np.testing.assert_array_equal(getattr(head, k), v)

    def test_running_stats_exact_update(self):
        rng = make_rng(3)
        head = init_head(4, 4, 4, rng)
        old_mean = head.bn_running_mean.copy()
        old_var = head.bn_running_var.copy()
        batch = rng.standard_normal((5, 4))
        pre_bn = np.maximum(batch @ head.w1.T + head.b1, 0.0) @ head.w2.T + head.b2
        forward(head, batch, train=True)
        mom = head.bn_momentum
        np.testing.assert_array_equal(
            head.bn_running_mean, (1 - mom) * old_mean + mom * pre_bn.mean(axis=0)
        )
        unbiased = pre_bn.var(axis=0) * 5 / 4
        np.testing.assert_array_equal(
            head.bn_running_var, (1 - mom) * old_var + mom * unbiased
        )

    def test_zero_variance_column_is_not_an_error(self):
        # A constant pre-BN column must be absorbed by bn_epsilon.
        head = identity_head(2)
        head.bn_epsilon = 1e-5
        batch = np.array([[1.0, 1.0], [1.0, 2.0]])
        out, _ = forward(head, batch, train=True)
        assert np.all(np.isfinite(out))


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        rng = make_rng(4)
        head = init_head(5, 4, 3, rng)
        batch = rng.standard_normal((3, 5))
        _, trace = forward(head, batch, train=True)
        for g in backward(head, trace, np.zeros((3, 3))):
            assert np.all(g == 0.0)

    def test_doubling_upstream_doubles_gradients(self):
        rng = make_rng(6)
        head = init_head(5, 4, 3, rng)
        batch = rng.standard_normal((4, 5))
        _, trace = forward(head, batch, train=True)
        up = rng.standard_normal((4, 3))
        g1 = backward(head, trace, up)
        g2 = backward(head, trace, 2.0 * up)
        for a, b in zip(g1, g2):
            np.testing.assert_array_equal(2.0 * a, b)

    def test_eval_trace_rejected(self):
        rng = make_rng(7)
        head = init_head(3, 3, 3, rng)
        _, trace = forward(head, rng.standard_normal((2, 3)), train=False)
        with pytest.raises(ValueError):
            backward(head, trace, np.zeros((2, 3)))

    def test_shape_mismatch_rejected(self):
        rng = make_rng(8)
        head = init_head(3, 3, 3, rng)
        _, trace = forward(head, rng.standard_normal((2, 3)), train=True)
        with pytest.raises(ValueError):
            backward(head, trace, np.zeros((3, 3)))

    @pytest.mark.parametrize("seed", range(20))
    def test_finite_difference_check(self, seed):
        assert check_heads(trials=1, seed=100 + seed).passed


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = make_rng(9)
        head = init_head(6, 5, 4, rng)
        head.bn_running_mean[:] = rng.standard_normal(4)
        head.bn_running_var[:] = rng.random(4) + 0.5
        path = str(tmp_path / "head.jeh")
        save_head(head, path)
        loaded = load_head(path)
        for k, v in vars(head).items():
            if isinstance(v, np.ndarray):
                np.testing.assert_array_equal(getattr(loaded, k), v)
            else:
                assert getattr(loaded, k) == v

    @pytest.mark.parametrize("name, value, got", [
        ("bn_running_var", -1.0, "min running_var -1, epsilon 1e-05, momentum 0.1"),
        ("bn_running_var", -1e-5, "min running_var -1e-05, epsilon 1e-05, momentum 0.1"),
        ("bn_epsilon", 0.0, "min running_var 1, epsilon 0, momentum 0.1"),
        ("bn_epsilon", -1.0, "min running_var 1, epsilon -1, momentum 0.1"),
        ("bn_momentum", -0.1, "min running_var 1, epsilon 1e-05, momentum -0.1"),
        ("bn_momentum", 1.5, "min running_var 1, epsilon 1e-05, momentum 1.5"),
    ], ids=["var-1", "var-1e-5", "eps-0", "eps-neg", "mom-neg", "mom-1.5"])
    def test_batch_norm_state_that_cannot_normalize_is_refused(self, tmp_path, name, value, got):
        head = init_head(3, 3, 3, make_rng(11))
        if name == "bn_running_var":
            head.bn_running_var[0] = value
        else:
            setattr(head, name, value)
        path = str(tmp_path / "head.jeh")
        save_head(head, path)
        message = (f"{path}: batch-norm state needs running_var >= 0, epsilon > 0 and "
                   f"momentum in [0, 1], got {got}")
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_head(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.jeh"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(DataError):
            load_head(str(path))

    def test_truncation(self, tmp_path):
        rng = make_rng(10)
        head = init_head(3, 3, 3, rng)
        path = str(tmp_path / "head.jeh")
        save_head(head, path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-8])
        with pytest.raises(DataError):
            load_head(path)
