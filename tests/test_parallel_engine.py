"""Tests of repro.parallel: determinism across jobs, snapshot hoisting.

The engine's contract is that scoring sweep chunks on worker processes
changes *nothing* about the results — same scores (bit-identical), same
chosen hyper-parameters, same sweep order — for any ``--jobs`` value.
These tests pin that contract down for jobs in {1, 2, 4} against the
in-process drivers in ``repro.eval``, and against the scalar reference
``evaluate_setting`` point by point.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    EvaluationError,
)
from repro.eval.experiment import compare_over_ratios
from repro.eval.grids import attrank_grid, ram_grid
from repro.eval.metrics import NDCG, SpearmanRho
from repro.eval.split import split_by_ratio
from repro.eval.tuning import evaluate_setting, tune_method, tune_methods
from repro.parallel import ExperimentEngine, SplitSnapshot, resolve_jobs

JOB_COUNTS = (1, 2, 4)

#: Small grids and a reduced lineup keep the matrix fast while still
#: exercising multi-method, multi-ratio reduction.
SMALL_METHODS = ("RAM", "AR", "ATT-ONLY")
SMALL_RATIOS = (1.4, 1.6)


def small_ar_grid():
    return list(attrank_grid(windows=(1, 3)))


class TestResolveJobs:
    def test_explicit_value_passes_through(self):
        assert resolve_jobs(3) == 3

    def test_zero_and_none_mean_all_cores(self):
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) == resolve_jobs(0)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            resolve_jobs(-1)


class TestSplitSnapshot:
    def test_warm_builds_shared_structure(self, hepth_split):
        snapshot = SplitSnapshot(hepth_split, warm=False)
        before = snapshot.cached_structures
        snapshot.warm()
        assert snapshot.cached_structures >= before

    def test_warm_with_grid_touches_attention_windows(self, hepth_split):
        from repro.graph.cache import cached_keys

        snapshot = SplitSnapshot(hepth_split)
        snapshot.warm(grid=small_ar_grid())
        keys = cached_keys(hepth_split.current)
        reference = hepth_split.current.latest_time
        # The grid mentions windows 1 and 3; both must be materialised.
        assert ("attention", 1.0, reference) in keys
        assert ("attention", 3.0, reference) in keys

    def test_evaluate_matches_evaluate_setting(self, hepth_split):
        snapshot = SplitSnapshot(hepth_split)
        params = {"gamma": 0.4}
        direct = evaluate_setting("RAM", params, hepth_split, SpearmanRho())
        via_snapshot = snapshot.evaluate("RAM", params, SpearmanRho())
        assert direct == via_snapshot


class TestTuneMethodDeterminism:
    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_identical_to_serial(self, hepth_split, jobs):
        metric = NDCG(50)
        serial = tune_method("AR", small_ar_grid(), hepth_split, metric)
        parallel = ExperimentEngine(jobs=jobs).tune_method(
            "AR", small_ar_grid(), hepth_split, metric
        )
        assert parallel.method == serial.method
        assert parallel.metric == serial.metric
        # Bit-identical scores, same params, same sweep order.
        assert parallel.sweep == serial.sweep
        # Same chosen hyper-parameters (ties resolved identically).
        assert dict(parallel.best_params) == dict(serial.best_params)
        assert parallel.best_score == serial.best_score

    def test_empty_grid_raises_like_serial(self, hepth_split):
        with pytest.raises(EvaluationError, match="empty parameter grid"):
            ExperimentEngine(jobs=2).tune_method(
                "AR", [], hepth_split, NDCG(50)
            )

    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_tune_methods_matches_serial(self, hepth_split, jobs):
        metric = SpearmanRho()
        grids = {"RAM": list(ram_grid()), "AR": small_ar_grid()}
        serial = tune_methods(
            {name: list(grid) for name, grid in grids.items()},
            hepth_split,
            metric,
        )
        parallel = ExperimentEngine(jobs=jobs).tune_methods(
            grids, hepth_split, metric
        )
        assert set(parallel) == set(serial)
        for name in serial:
            assert parallel[name].sweep == serial[name].sweep
            assert dict(parallel[name].best_params) == dict(
                serial[name].best_params
            )


class TestCompareDeterminism:
    @pytest.fixture(scope="class")
    def serial_panel(self, hepth_tiny):
        return compare_over_ratios(
            hepth_tiny,
            dataset="hep-th",
            metric=NDCG(50),
            test_ratios=SMALL_RATIOS,
            methods=SMALL_METHODS,
        )

    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_compare_over_ratios_identical(
        self, hepth_tiny, serial_panel, jobs
    ):
        panel = ExperimentEngine(jobs=jobs).compare_over_ratios(
            hepth_tiny,
            dataset="hep-th",
            metric=NDCG(50),
            test_ratios=SMALL_RATIOS,
            methods=SMALL_METHODS,
        )
        assert panel.x_values == serial_panel.x_values
        assert tuple(panel.cells) == tuple(serial_panel.cells)
        for method in SMALL_METHODS:
            # Same metric values at every ratio (bit-identical)...
            assert panel.series(method) == serial_panel.series(method)
            # ... and the same hyper-parameters chosen per cell.
            for mine, reference in zip(
                panel.cells[method], serial_panel.cells[method]
            ):
                assert dict(mine.result.best_params) == dict(
                    reference.result.best_params
                )
        # Identical method rankings at every ratio.
        for ratio in SMALL_RATIOS:
            assert panel.winner_at(ratio) == serial_panel.winner_at(ratio)

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_compare_over_k_identical(self, hepth_tiny, jobs):
        from repro.eval.experiment import compare_over_k

        serial = compare_over_k(
            hepth_tiny,
            dataset="hep-th",
            test_ratio=1.6,
            k_values=(10, 50),
            methods=SMALL_METHODS,
        )
        parallel = ExperimentEngine(jobs=jobs).compare_over_k(
            hepth_tiny,
            dataset="hep-th",
            test_ratio=1.6,
            k_values=(10, 50),
            methods=SMALL_METHODS,
        )
        assert parallel.x_values == serial.x_values
        for method in SMALL_METHODS:
            assert parallel.series(method) == serial.series(method)


class TestMapEvaluations:
    """Chunks scored on the pool come back in submission order."""

    def test_results_are_in_task_order(self, hepth_split):
        metric = SpearmanRho()
        # One chunk per method, so the pool scores three chunks.
        grids = {
            "RAM": [{"gamma": g} for g in (0.1, 0.5, 0.9, 0.3, 0.7)],
            "CR": [{"alpha": 0.5, "tau_dir": t} for t in (6.0, 2.0, 4.0)],
            "PR": [{"alpha": a} for a in (0.3, 0.5)],
        }
        results = ExperimentEngine(jobs=2).tune_methods(
            grids, hepth_split, metric
        )
        assert list(results) == list(grids)
        for name, points in grids.items():
            assert [entry.params for entry in results[name].sweep] == points
            assert [entry.score for entry in results[name].sweep] == [
                evaluate_setting(name, params, hepth_split, metric)
                for params in points
            ]

    def test_worker_errors_propagate(self, hepth_split):
        """A solve that fails on a worker re-raises its own error."""
        grids = {
            # One iteration cannot reach the tolerance.
            "AR": [{"alpha": 0.5, "beta": 0.3, "max_iterations": 1}],
            "CR": [{"alpha": 0.5, "tau_dir": 2.0}],
        }
        with pytest.raises(ConvergenceError) as caught:
            ExperimentEngine(jobs=2).tune_methods(
                grids, hepth_split, SpearmanRho()
            )
        assert caught.value.iterations == 1

    def test_invalid_settings_fail_before_any_worker(self, hepth_split):
        """Every point's method is built in this process, to key it."""

        class NoPool(ExperimentEngine):
            def map_chunks(self, splits, chunks):
                raise AssertionError("chunks reached the pool")

        grids = {
            "RAM": [{"gamma": 2.0}],  # invalid: gamma must be <= 1
            "CR": [{"alpha": 0.5, "tau_dir": 2.0}],
        }
        with pytest.raises(ConfigurationError, match="gamma"):
            NoPool(jobs=2).tune_methods(grids, hepth_split, SpearmanRho())
