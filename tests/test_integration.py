"""Integration tests: full pipelines across modules.

These tests exercise the complete story of the paper on small synthetic
corpora: generate -> split -> rank (all methods) -> evaluate, plus
serialisation round-trips feeding the same pipeline.
"""

import numpy as np
import pytest

from repro.baselines import METHOD_REGISTRY, make_method
from repro.core.attrank import AttRank
from repro.core.variants import AttentionOnly, NoAttention
from repro.eval.metrics import NDCG, SpearmanRho, spearman_rho
from repro.eval.split import split_by_ratio
from repro.io.serialize import load_network, save_network


class TestFullPipeline:
    def test_every_method_scores_every_dataset(self, dblp_tiny):
        """All ten registered methods run end-to-end on a corpus with
        full metadata and produce finite, non-negative scores."""
        split = split_by_ratio(dblp_tiny, 1.6)
        for name in METHOD_REGISTRY:
            method = make_method(name)
            scores = method.scores(split.current)
            assert scores.shape == (split.current.n_papers,)
            assert np.all(np.isfinite(scores))
            assert scores.min() >= 0

    def test_attrank_beats_ablations_on_defaults(self, hepth_split):
        """The paper's core result in miniature, at default parameters."""
        network, sti = hepth_split.current, hepth_split.sti
        full = AttRank(
            alpha=0.2, beta=0.5, gamma=0.3, attention_window=2,
            decay_rate=-0.5,
        )
        no_att = NoAttention(alpha=0.2, decay_rate=-0.5)
        rho_full = spearman_rho(full.scores(network), sti)
        rho_no = spearman_rho(no_att.scores(network), sti)
        assert rho_full > rho_no
        assert rho_full > 0.35  # meaningfully correlated with STI

    def test_attrank_beats_citation_count(self, hepth_split):
        """Age bias: plain citation count must lose clearly."""
        network, sti = hepth_split.current, hepth_split.sti
        attrank = AttRank(
            alpha=0.2, beta=0.5, gamma=0.3, attention_window=2,
            decay_rate=-0.5,
        )
        cc = make_method("CC")
        assert spearman_rho(attrank.scores(network), sti) > spearman_rho(
            cc.scores(network), sti
        )

    def test_ndcg_and_spearman_agree_on_strong_methods(self, hepth_split):
        """A method that is excellent on one metric should not be at the
        bottom on the other (sanity of the evaluation wiring)."""
        network, sti = hepth_split.current, hepth_split.sti
        metric_rho = SpearmanRho()
        metric_ndcg = NDCG(50)
        rhos, ndcgs = {}, {}
        for name in ("CC", "ATT-ONLY", "RAM"):
            scores = make_method(name).scores(network)
            rhos[name] = metric_rho(scores, sti)
            ndcgs[name] = metric_ndcg(scores, sti)
        assert rhos["ATT-ONLY"] > rhos["CC"]
        assert ndcgs["ATT-ONLY"] > ndcgs["CC"]

    def test_round_trip_then_full_evaluation(self, hepth_tiny, tmp_path):
        path = str(tmp_path / "net.snap")
        save_network(hepth_tiny, path)
        reloaded = load_network(path)
        original_split = split_by_ratio(hepth_tiny, 1.6)
        reloaded_split = split_by_ratio(reloaded, 1.6)
        assert np.array_equal(original_split.sti, reloaded_split.sti)
        method = AttentionOnly(attention_window=2)
        assert np.allclose(
            method.scores(original_split.current),
            method.scores(reloaded_split.current),
        )


class TestTuningPipeline:
    def test_tuned_attrank_dominates_tuned_no_att(self, hepth_split):
        """Tuning both over their full grids preserves the paper's
        ordering: AR >= NO-ATT and AR >= ATT-ONLY by construction, and
        the NO-ATT gap is material."""
        from repro.eval.grids import attrank_grid, no_att_grid, att_only_grid
        from repro.eval.tuning import tune_method

        metric = SpearmanRho()
        ar = tune_method("AR", attrank_grid(), hepth_split, metric)
        no_att = tune_method("NO-ATT", no_att_grid(), hepth_split, metric)
        att_only = tune_method(
            "ATT-ONLY", att_only_grid(), hepth_split, metric
        )
        assert ar.best_score >= att_only.best_score
        assert ar.best_score >= no_att.best_score
        assert ar.best_score - no_att.best_score > 0.02

    def test_heatmap_consistent_with_tuning(self, hepth_split):
        """The heatmap's best cell equals grid search over the same
        space (same w fit)."""
        from repro.analysis.heatmap import attention_heatmap
        from repro.core.recency import fit_decay_rate
        from repro.eval.tuning import tune_method

        metric = SpearmanRho()
        sweep = attention_heatmap(hepth_split, metric, windows=(1, 2))
        best = sweep.best_overall()

        decay = fit_decay_rate(hepth_split.current).decay_rate
        grid = [
            {
                "alpha": a,
                "beta": b,
                "gamma": round(1 - a - b, 10),
                "attention_window": float(y),
                "decay_rate": decay,
            }
            for y in (1, 2)
            for a in sweep.alphas
            for b in sweep.betas
            if 0 <= round(1 - a - b, 10) <= 0.9
        ]
        tuned = tune_method("AR", grid, hepth_split, metric)
        assert tuned.best_score == pytest.approx(best["value"], abs=1e-12)


class TestScenarioPipeline:
    def test_attrank_identifies_the_challenger(self):
        """Figure 1b in action: in 1998 the challenger has fewer total
        citations but AttRank ranks it above the incumbent, while plain
        citation count does the opposite."""
        from repro.graph.temporal import snapshot_at
        from repro.synth.scenarios import two_paper_overtaking

        scenario = two_paper_overtaking(seed=7)
        network_1998, _ = snapshot_at(scenario.network, 1998.9)
        incumbent = network_1998.index_of(scenario.incumbent_id)
        challenger = network_1998.index_of(scenario.challenger_id)

        cc = make_method("CC").scores(network_1998)
        assert cc[incumbent] > cc[challenger]  # incumbent leads on totals

        attrank = AttRank(
            alpha=0.1, beta=0.7, gamma=0.2, attention_window=2,
            decay_rate=-0.5,
        )
        scores = attrank.scores(network_1998)
        assert scores[challenger] > scores[incumbent]
