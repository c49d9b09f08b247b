"""Unit tests for repro.eval.tuning (grid search)."""

from itertools import cycle, islice

import pytest

from repro.core.fused import FUSE_MIN_COLUMNS, stack_width
from repro.errors import EvaluationError
from repro.eval.grids import attrank_grid, futurerank_grid
from repro.eval.metrics import NDCG, SpearmanRho
from repro.eval.tuning import evaluate_setting, tune_method, tune_methods
from repro.parallel import ExperimentEngine


class TestEvaluateSetting:
    def test_single_setting(self, hepth_split):
        score = evaluate_setting(
            "RAM", {"gamma": 0.3}, hepth_split, SpearmanRho()
        )
        assert -1.0 <= score <= 1.0

    def test_deterministic(self, hepth_split):
        metric = NDCG(50)
        a = evaluate_setting("RAM", {"gamma": 0.5}, hepth_split, metric)
        b = evaluate_setting("RAM", {"gamma": 0.5}, hepth_split, metric)
        assert a == b


class TestTuneMethod:
    def test_best_is_argmax_of_sweep(self, hepth_split):
        grid = [{"gamma": g} for g in (0.1, 0.3, 0.5, 0.7, 0.9)]
        result = tune_method("RAM", grid, hepth_split, SpearmanRho())
        assert result.best_score == max(s.score for s in result.sweep)
        assert len(result.sweep) == 5

    def test_tie_keeps_first_setting(self, hepth_split):
        grid = [{"gamma": 0.4}, {"gamma": 0.4}]
        result = tune_method("RAM", grid, hepth_split, SpearmanRho())
        assert result.best is result.sweep[0]

    def test_empty_grid_rejected(self, hepth_split):
        with pytest.raises(EvaluationError, match="empty parameter grid"):
            tune_method("RAM", [], hepth_split, SpearmanRho())

    def test_result_metadata(self, hepth_split):
        result = tune_method(
            "RAM", [{"gamma": 0.2}], hepth_split, NDCG(10)
        )
        assert result.method == "RAM"
        assert result.metric == "ndcg@10"
        assert result.best_params == {"gamma": 0.2}

    def test_tuned_beats_or_equals_any_single_setting(self, hepth_split):
        grid = [{"gamma": round(0.1 * i, 1)} for i in range(1, 10)]
        result = tune_method("RAM", grid, hepth_split, SpearmanRho())
        fixed = evaluate_setting(
            "RAM", {"gamma": 0.6}, hepth_split, SpearmanRho()
        )
        assert result.best_score >= fixed


class TestTuneMethods:
    def test_multiple_methods(self, hepth_split):
        results = tune_methods(
            {
                "RAM": [{"gamma": 0.3}, {"gamma": 0.6}],
                "CR": [{"alpha": 0.5, "tau_dir": 2.0}],
            },
            hepth_split,
            SpearmanRho(),
        )
        assert set(results) == {"RAM", "CR"}
        assert results["CR"].best_params["tau_dir"] == 2.0


class TestChunkedSweep:
    """A grid spanning several solver batches sweeps point for point.

    The grid covers two full chunks plus a tail narrower than
    ``FUSE_MIN_COLUMNS``, so the sweep takes both the stacked solve and
    the tail's scalar fallback; every value must equal the scalar
    reference bit for bit.
    """

    TAIL = 3

    @pytest.mark.parametrize(
        "method,grid", [("AR", attrank_grid), ("FR", futurerank_grid)]
    )
    def test_every_point_equals_evaluate_setting(
        self, dblp_split, method, grid
    ):
        width = stack_width(dblp_split.current.n_papers)
        assert self.TAIL < FUSE_MIN_COLUMNS
        points = list(islice(cycle(grid()), 2 * width + self.TAIL))
        metric = NDCG(50)
        serial = tune_method(method, points, dblp_split, metric)
        assert [entry.score for entry in serial.sweep] == [
            evaluate_setting(method, params, dblp_split, metric)
            for params in points
        ]
        pooled = ExperimentEngine(jobs=2).tune_method(
            method, points, dblp_split, metric
        )
        assert pooled.sweep == serial.sweep
        assert pooled.best == serial.best
