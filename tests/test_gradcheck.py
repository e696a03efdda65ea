import numpy as np

from jezsl.gradcheck import (
    TOLERANCE,
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


class TestNegativeControl:
    # A checker that cannot notice a corrupted gradient checks nothing.
    def test_corrupt_gradients_detected_everywhere(self):
        for r in run_all(trials=2, seed=0, corrupt=True):
            assert not r.passed, r.name
            assert r.worst_rel_err > TOLERANCE

    def test_non_finite_gradient_fails(self, monkeypatch):
        import jezsl.gradcheck as gc

        exact = gc.alignment_loss

        def nan_dx(batch, cfg):
            loss, sums, active, total, dx, dy = exact(batch, cfg)
            return loss, sums, active, total, dx * np.nan, dy

        monkeypatch.setattr(gc, "alignment_loss", nan_dx)
        result = gc.check_alignment(trials=2, seed=1)
        assert not result.passed and result.worst_rel_err == np.inf
