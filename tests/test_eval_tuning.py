"""Unit tests for repro.eval.tuning (grid search)."""

from itertools import chain, islice

import numpy as np
import pytest

from repro.core.fused import FUSE_MIN_COLUMNS, stack_width
from repro.errors import EvaluationError
from repro.eval.experiment import COMPARISON_METHODS
from repro.eval.grids import attrank_grid, futurerank_grid
from repro.eval.metrics import NDCG, SpearmanRho
from repro.eval.tuning import evaluate_setting, tune_method, tune_methods
from repro.parallel import ExperimentEngine


def problem(method, params):
    """The fixed-point problem a grid point poses, read off its params.

    ``None`` for a closed form, which has no fixed point to share: every
    such point is solved.  Otherwise NO-ATT is AttRank, ``beta = 0``
    leaves AttRank's attention window without effect, and ``gamma = 0``
    FutureRank's ``rho``.
    """
    if method in ("RAM", "WSDM"):
        return None
    if method in ("NO-ATT", "ATT-ONLY"):
        method = "AR"
    relevant = dict(params)
    if method == "AR":
        if relevant["alpha"] == 0.0:
            return None
        if relevant["beta"] == 0.0:
            del relevant["attention_window"]
    if method == "FR" and relevant["gamma"] == 0.0:
        del relevant["rho"]
    return method, tuple(sorted(relevant.items()))


def distinct_problems(method, points):
    """``points`` without those repeating an earlier point's problem."""
    seen = set()
    for params in points:
        key = problem(method, params)
        if key is None or key not in seen:
            seen.add(key)
            yield params


class CountingEngine(ExperimentEngine):
    """Records the chunks a sweep solves and the value rows they return."""

    def __init__(self, jobs):
        super().__init__(jobs)
        self.chunks = []
        self.rows = 0

    def map_chunks(self, splits, chunks):
        self.chunks.extend(chunks)
        scored = list(super().map_chunks(splits, chunks))
        self.rows += sum(len(rows) for rows in scored)
        return scored


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

    The points are distinct problems covering two full chunks plus a
    tail narrower than ``FUSE_MIN_COLUMNS``, so the sweep takes both the
    stacked solve and the tail's scalar fallback; every value must equal
    the scalar reference bit for bit.  FutureRank's grid holds 110
    distinct problems, so its list goes on with rho values outside it.
    """

    TAIL = 3

    @pytest.mark.parametrize(
        "method,grid", [("AR", attrank_grid), ("FR", futurerank_grid)]
    )
    def test_every_point_equals_evaluate_setting(
        self, dblp_split, method, grid
    ):
        width = stack_width(dblp_split.current.n_papers)
        candidates = grid()
        if method == "FR":
            candidates = chain(
                candidates,
                (
                    {**params, "rho": rho}
                    for rho in (-0.32, -0.22)
                    for params in futurerank_grid()
                    if params["rho"] == -0.82
                ),
            )
        points = list(
            islice(
                distinct_problems(method, candidates),
                2 * width + self.TAIL,
            )
        )
        assert len(points) == 2 * width + self.TAIL
        metric = NDCG(50)
        engine = CountingEngine(jobs=1)
        serial = engine.tune_method(method, points, dblp_split, metric)
        # The last chunk takes the scalar fallback: it is narrower than
        # FUSE_MIN_COLUMNS, and every point in it iterates.
        tail = engine.chunks[-1].points
        assert len(tail) == self.TAIL < FUSE_MIN_COLUMNS
        assert all(problem(method, params) for params in tail)
        assert [entry.score for entry in serial.sweep] == [
            evaluate_setting(method, params, dblp_split, metric)
            for params in points
        ]
        pooled = ExperimentEngine(jobs=2).tune_method(
            method, points, dblp_split, metric
        )
        assert pooled.sweep == serial.sweep
        assert pooled.best == serial.best


class TestDistinctProblems:
    """A sweep solves each distinct fixed-point problem once."""

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_full_lineup_solves_each_problem_once(
        self, dblp_tiny, dblp_split, jobs
    ):
        engine = CountingEngine(jobs)
        metric = NDCG(50)
        panel = engine.compare_over_ratios(
            dblp_tiny, metric=metric, test_ratios=(dblp_split.test_ratio,)
        )
        assert tuple(panel.cells) == COMPARISON_METHODS
        problems, closed_forms, settings = set(), 0, 0
        for method, (cell,) in panel.cells.items():
            for entry in cell.result.sweep:
                assert entry.score == evaluate_setting(
                    method, entry.params, dblp_split, metric
                )
                settings += 1
                key = problem(method, entry.params)
                if key is None:
                    closed_forms += 1
                else:
                    problems.add(key)
        # The paper's grids: 504 settings, of which 55 repeat a problem.
        assert settings == 504
        assert engine.rows == closed_forms + len(problems) == 449

    def test_near_repeats_are_never_merged(self, dblp_split):
        base = {
            "alpha": 0.2,
            "beta": 0.5,
            "gamma": 0.3,
            "attention_window": 3.0,
        }
        points = [
            base,
            {**base, "tol": 1e-11},
            {**base, "max_iterations": 999},
            {**base, "alpha": float(np.nextafter(0.2, 1.0))},
            dict(base),  # an exact repeat, the one point merged
        ]
        metric = NDCG(50)
        engine = CountingEngine(jobs=1)
        result = engine.tune_method("AR", points, dblp_split, metric)
        assert engine.rows == len(points) - 1
        assert [entry.params for entry in result.sweep] == points
        assert [entry.score for entry in result.sweep] == [
            evaluate_setting("AR", params, dblp_split, metric)
            for params in points
        ]
