import numpy as np
import pytest

import jezsl.gradcheck as gc
from jezsl.gradcheck import (
    check_alignment,
    check_compatibility,
    check_heads,
    run_all,
)


class TestSuites:
    def test_heads_pass(self):
        assert check_heads(trials=5, seed=0).passed

    def test_alignment_pass(self):
        assert check_alignment(trials=5, seed=1).passed

    def test_compatibility_pass(self):
        assert check_compatibility(trials=5, seed=2).passed

    def test_run_all_names(self):
        results = run_all(trials=2, seed=0)
        assert [r.name for r in results] == [
            "embedding-heads", "alignment-loss", "compatibility-ranking",
        ]
        assert all(r.passed for r in results)

    def test_head_instance_with_dead_hidden_rows_is_redrawn(self):
        # Seed 2's fourth instance first draws a batch whose hidden ReLUs are
        # all dead, so forward refuses its zero embedding row.
        assert check_heads(trials=20, seed=2).passed

    def test_roundoff_of_an_inert_gradient_is_not_an_error(self):
        # One of seed 9's instances has a b1 that BatchNorm makes inert: its
        # analytic gradient is 2e-13 in norm, its central differences 2e-10.
        assert check_heads(trials=20, seed=9).passed


class TestRelErr:
    def test_small_real_gradient_is_judged_relatively(self):
        # A 0.1% error on a gradient of norm 1e-4 stands above the floor.
        g = np.full(4, 5e-5)
        assert gc._rel_err(1.001 * g, g, loss_scale=1.0) > gc.TOLERANCE

    def test_both_numerically_zero_agree(self):
        assert gc._rel_err(np.full(3, 1e-16), np.full(3, 5e-10), loss_scale=1.0) == 0.0

    def test_nan_differences_fail(self):
        assert gc._rel_err(np.zeros(3), np.full(3, np.nan), loss_scale=1.0) == np.inf


def off_by_1e3(name, exact):
    """`exact` with the first analytic gradient it returns shifted by 1e-3."""
    def wrong(*args):
        out = exact(*args)
        if name == "alignment_loss":  # (loss, sums, active, total, dx, dy)
            return (*out[:4], out[4] + 1e-3, out[5])
        if name == "backward":  # one gradient per learnable array
            return (out[0] + 1e-3, *out[1:])
        return out + 1e-3
    return wrong


# The analytic gradient each suite checks, by suite name, as gradcheck calls it.
ANALYTIC = {
    "embedding-heads": "backward",
    "alignment-loss": "alignment_loss",
    "compatibility-ranking": "ranking_loss_grad",
}


class TestNegativeControl:
    # A checker that cannot notice a wrong gradient checks nothing.
    def test_every_suite_has_a_control(self):
        assert list(ANALYTIC) == [r.name for r in run_all(trials=1, seed=0)]

    @pytest.mark.parametrize("suite", list(ANALYTIC))
    def test_corrupt_gradients_detected_everywhere(self, monkeypatch, suite):
        name = ANALYTIC[suite]
        monkeypatch.setattr(gc, name, off_by_1e3(name, getattr(gc, name)))
        for r in run_all(trials=2, seed=0):
            assert r.passed == (r.name != suite), r.name

    def test_non_finite_gradient_fails(self, monkeypatch):
        exact = gc.alignment_loss

        def nan_dx(batch, cfg):
            loss, sums, active, total, dx, dy = exact(batch, cfg)
            return loss, sums, active, total, dx * np.nan, dy

        monkeypatch.setattr(gc, "alignment_loss", nan_dx)
        result = gc.check_alignment(trials=2, seed=1)
        assert not result.passed and result.worst_rel_err == np.inf
