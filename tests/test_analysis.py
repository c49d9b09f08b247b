"""Unit tests for the analysis package (heatmaps, popularity, horizons,
convergence)."""

import numpy as np
import pytest

from repro.analysis.convergence import convergence_study, iterations_to_converge
from repro.analysis.heatmap import attention_heatmap
from repro.analysis.horizons import horizon_table
from repro.analysis.popularity import recently_popular_overlap
from repro.errors import EvaluationError
from repro.eval.metrics import NDCG, SpearmanRho


class TestHeatmap:
    @pytest.fixture(scope="class")
    def sweep(self, hepth_split):
        return attention_heatmap(
            hepth_split,
            SpearmanRho(),
            windows=(1, 2),
            alphas=(0.0, 0.2, 0.4),
            betas=(0.0, 0.3, 0.6, 1.0),
        )

    def test_grid_shape(self, sweep):
        assert sweep.values[1].shape == (4, 3)
        assert set(sweep.values) == {1, 2}

    def test_invalid_cells_are_nan(self, sweep):
        # alpha=0.4, beta=1.0 -> gamma=-0.4: outside the Table-3 space.
        grid = sweep.values[1]
        assert np.isnan(grid[3, 2])
        # alpha=0, beta=0 -> gamma=1.0 > 0.9: also excluded.
        assert np.isnan(grid[0, 0])

    def test_best_for_window_is_grid_max(self, sweep):
        alpha, beta, value = sweep.best_for_window(1)
        assert value == np.nanmax(sweep.values[1])
        assert alpha in sweep.alphas and beta in sweep.betas

    def test_best_overall_consistent(self, sweep):
        best = sweep.best_overall()
        per_window = [sweep.best_for_window(w)[2] for w in sweep.values]
        assert best["value"] == max(per_window)
        assert best["alpha"] + best["beta"] + best["gamma"] == pytest.approx(
            1.0
        )

    def test_no_att_maximum_is_beta_zero_row(self, sweep):
        value = sweep.no_att_maximum()
        rows = [grid[0, :] for grid in sweep.values.values()]
        assert value == np.nanmax(rows)

    def test_att_only_maximum(self, sweep):
        value = sweep.att_only_maximum()
        cells = [grid[3, 0] for grid in sweep.values.values()]
        assert value == np.nanmax(cells)

    def test_attention_beats_no_attention(self, sweep):
        """The paper's headline heatmap observation: the beta = 0 row is
        dominated by the best beta > 0 cell."""
        assert sweep.best_overall()["value"] > sweep.no_att_maximum()

    def test_every_cell_equals_its_own_solve(self, hepth_split):
        """The full Table-3 sweep solves each beta = 0 cell once for
        all windows; every cell still equals its scalar solve."""
        from repro.core.recency import fit_decay_rate
        from repro.eval.tuning import evaluate_setting

        metric = NDCG(50)
        sweep = attention_heatmap(hepth_split, metric)
        decay = fit_decay_rate(hepth_split.current).decay_rate
        cells = 0
        for window, grid in sweep.values.items():
            for b, beta in enumerate(sweep.betas):
                for a, alpha in enumerate(sweep.alphas):
                    if np.isnan(grid[b, a]):
                        continue
                    cells += 1
                    params = {
                        "alpha": alpha,
                        "beta": beta,
                        "gamma": round(1.0 - alpha - beta, 10),
                        "attention_window": float(window),
                        "decay_rate": decay,
                    }
                    assert grid[b, a] == evaluate_setting(
                        "AR", params, hepth_split, metric
                    )
        assert cells == 250


class TestRecentlyPopular:
    def test_overlap_bounds(self, hepth_split):
        result = recently_popular_overlap(hepth_split, k=50)
        assert 0 <= result.overlap <= 50
        assert result.fraction == result.overlap / 50

    def test_substantial_overlap_on_synthetic_data(self, hepth_split):
        """Table 1: roughly half of the top STI papers were recently
        popular.  The synthetic corpora must reproduce a large overlap."""
        result = recently_popular_overlap(hepth_split, k=50, window_years=5)
        assert result.overlap >= 15  # at least 30%

    def test_lists_have_k_entries(self, hepth_split):
        result = recently_popular_overlap(hepth_split, k=25)
        assert len(result.top_sti) == 25
        assert len(result.top_recent) == 25

    def test_k_larger_than_network_rejected(self, hepth_split):
        with pytest.raises(EvaluationError):
            recently_popular_overlap(hepth_split, k=10**6)

    def test_bad_window_rejected(self, hepth_split):
        with pytest.raises(EvaluationError):
            recently_popular_overlap(hepth_split, window_years=0.0)

    def test_bad_k_rejected(self, hepth_split):
        with pytest.raises(EvaluationError):
            recently_popular_overlap(hepth_split, k=0)


class TestHorizons:
    def test_table_shape(self, hepth_tiny):
        rows = horizon_table(hepth_tiny)
        assert [r.test_ratio for r in rows] == [1.2, 1.4, 1.6, 1.8, 2.0]

    def test_horizons_increase_with_ratio(self, hepth_tiny):
        rows = horizon_table(hepth_tiny)
        horizons = [r.horizon_years for r in rows]
        assert horizons == sorted(horizons)
        assert all(h > 0 for h in horizons)

    def test_paper_counts_consistent(self, hepth_tiny):
        for row in horizon_table(hepth_tiny):
            assert row.n_future_papers >= row.n_current_papers
            assert row.n_future_papers <= hepth_tiny.n_papers


class TestConvergenceStudy:
    def test_report_structure(self, dblp_tiny):
        reports = convergence_study(dblp_tiny, alphas=(0.5,))
        report = reports[0.5]
        assert set(report.iterations) == {"AR", "CR", "FR"}
        assert report.tolerance == 1e-12

    def test_attrank_converges_fast(self, dblp_tiny):
        """Section 4.4: AttRank needs < 30 iterations at alpha = 0.5."""
        report = convergence_study(dblp_tiny, alphas=(0.5,))[0.5]
        assert report.converged["AR"]
        assert report.iterations["AR"] <= 40

    def test_iterations_decrease_with_alpha(self, dblp_tiny):
        reports = convergence_study(dblp_tiny, alphas=(0.1, 0.5))
        assert (
            reports[0.1].iterations["AR"] <= reports[0.5].iterations["AR"]
        )

    def test_fr_skipped_without_authors(self, chain):
        reports = convergence_study(chain, alphas=(0.5,))
        assert "FR" not in reports[0.5].iterations

    def test_iterations_to_converge_closed_form(self, hepth_tiny):
        from repro.core.variants import AttentionOnly

        count, converged = iterations_to_converge(
            AttentionOnly(attention_window=2), hepth_tiny
        )
        assert count == 1 and converged
