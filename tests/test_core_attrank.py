"""Unit tests for repro.core.attrank — Equation 4 and Theorem 1."""

import numpy as np
import pytest

from repro.baselines.pagerank import PageRank
from repro.core.attrank import AttRank, attrank_matrix
from repro.errors import ConfigurationError
from tests.conftest import assert_probability_vector


class TestConfiguration:
    def test_gamma_inferred(self):
        method = AttRank(alpha=0.2, beta=0.5)
        assert method.gamma == pytest.approx(0.3)

    def test_coefficients_must_sum_to_one(self):
        with pytest.raises(ConfigurationError, match="must equal 1"):
            AttRank(alpha=0.5, beta=0.4, gamma=0.4)

    def test_coefficients_must_be_probabilities(self):
        with pytest.raises(ConfigurationError):
            AttRank(alpha=-0.1, beta=0.6, gamma=0.5)
        with pytest.raises(ConfigurationError):
            AttRank(alpha=0.0, beta=1.2, gamma=-0.2)

    def test_window_validated(self):
        with pytest.raises(ConfigurationError):
            AttRank(alpha=0.2, beta=0.5, attention_window=0.0)

    def test_positive_decay_rejected(self):
        with pytest.raises(ConfigurationError):
            AttRank(alpha=0.2, beta=0.5, decay_rate=0.1)

    def test_params_reported(self):
        method = AttRank(alpha=0.1, beta=0.6, attention_window=2)
        params = method.params()
        assert params["alpha"] == 0.1
        assert params["beta"] == 0.6
        assert params["y"] == 2

    def test_describe_mentions_name(self):
        assert AttRank(alpha=0.2, beta=0.5).describe().startswith("AR(")


class TestScores:
    def test_probability_vector(self, toy):
        method = AttRank(
            alpha=0.3, beta=0.4, gamma=0.3, attention_window=3, decay_rate=-0.5
        )
        assert_probability_vector(method.scores(toy))

    def test_start_independence_theorem1(self, hepth_tiny):
        """Theorem 1: the fixed point does not depend on the start.

        Seeded Dirichlet starts, set through ``start_vector``, must
        reach the default start's fixed point for AttRank, PageRank and
        CiteRank.  Each map contracts by ``alpha`` in L1, so a solve
        stopped once an iteration moves less than ``tol`` lies within
        ``tol * alpha / (1 - alpha)`` of the fixed point, and two solves
        within twice that.  A point-mass start needs a different number
        of iterations, so the start vector really is used.
        """
        from repro.baselines import make_method

        n = hepth_tiny.n_papers
        rng = np.random.default_rng(2021)
        point_mass = np.zeros(n)
        point_mass[0] = 1.0
        for label, params in (
            ("AR", dict(alpha=0.5, beta=0.3, gamma=0.2,
                        attention_window=2, decay_rate=-0.5)),
            ("PR", dict(alpha=0.5)),
            ("CR", dict(alpha=0.5)),
        ):
            default = make_method(label, **params)
            reference = default.scores(hepth_tiny)
            bound = 2 * default.tol * default.alpha / (1 - default.alpha)
            for _ in range(5):
                method = make_method(label, **params)
                method.start_vector = rng.dirichlet(np.ones(n))
                gap = np.abs(method.scores(hepth_tiny) - reference).sum()
                assert gap <= bound, (label, gap, bound)
            method = make_method(label, **params)
            method.start_vector = point_mass
            method.scores(hepth_tiny)
            assert (
                method.last_convergence.iterations
                != default.last_convergence.iterations
            ), label

    def test_alpha_zero_closed_form(self, toy):
        """With alpha = 0 the score is exactly beta*A + gamma*T (one
        'iteration', as Section 4.4 notes)."""
        from repro.core.attention import attention_vector
        from repro.core.recency import recency_vector

        method = AttRank(
            alpha=0.0, beta=0.6, gamma=0.4, attention_window=3, decay_rate=-0.4
        )
        scores = method.scores(toy)
        expected = 0.6 * attention_vector(toy, 3) + 0.4 * recency_vector(
            toy, -0.4
        )
        assert np.allclose(scores, expected)
        assert method.last_convergence is None

    def test_equation4_fixed_point(self, toy):
        """The returned vector satisfies AR = alpha*S@AR + beta*A + gamma*T."""
        from repro.graph.matrix import StochasticOperator

        method = AttRank(
            alpha=0.4, beta=0.3, gamma=0.3, attention_window=3, decay_rate=-0.5
        )
        scores = method.scores(toy)
        attention, recency = method.jump_vectors(toy)
        rhs = (
            0.4 * StochasticOperator(toy).apply(scores)
            + 0.3 * attention
            + 0.3 * recency
        )
        assert np.allclose(scores, rhs, atol=1e-9)

    def test_matches_pagerank_when_beta0_w0(self, hepth_tiny):
        """Paper Section 3: beta = 0 and w = 0 recovers PageRank."""
        attrank = AttRank(
            alpha=0.5, beta=0.0, gamma=0.5, decay_rate=0.0, tol=1e-14
        )
        pagerank = PageRank(alpha=0.5, tol=1e-14)
        assert np.allclose(
            attrank.scores(hepth_tiny),
            pagerank.scores(hepth_tiny),
            atol=1e-9,
        )

    def test_fits_decay_rate_when_unset(self, hepth_tiny):
        method = AttRank(alpha=0.2, beta=0.5, gamma=0.3, attention_window=2)
        method.scores(hepth_tiny)
        assert method.fitted_decay_rate_ is not None
        assert method.fitted_decay_rate_ < 0

    def test_empty_network_rejected(self):
        from repro.graph.citation_network import CitationNetwork

        with pytest.raises(ConfigurationError):
            AttRank(alpha=0.2, beta=0.5).scores(CitationNetwork([], [], [], []))

    def test_convergence_info_populated(self, hepth_tiny):
        method = AttRank(
            alpha=0.5, beta=0.25, gamma=0.25, attention_window=2,
            decay_rate=-0.5,
        )
        method.scores(hepth_tiny)
        info = method.last_convergence
        assert info is not None and info.converged
        assert info.residual <= 1e-12

    def test_convergence_speed_paper_claim(self, hepth_tiny):
        """Section 4.4: fewer than ~30 iterations at alpha = 0.5 and
        eps = 1e-12, decreasing with alpha."""
        fast = AttRank(alpha=0.1, beta=0.45, gamma=0.45, decay_rate=-0.5)
        slow = AttRank(alpha=0.5, beta=0.25, gamma=0.25, decay_rate=-0.5)
        fast.scores(hepth_tiny)
        slow.scores(hepth_tiny)
        assert slow.last_convergence.iterations <= 40
        assert (
            fast.last_convergence.iterations
            < slow.last_convergence.iterations
        )

    def test_rank_orders_by_score(self, toy):
        method = AttRank(
            alpha=0.2, beta=0.5, gamma=0.3, attention_window=3, decay_rate=-0.5
        )
        scores = method.scores(toy)
        ranking = method.rank(toy)
        assert np.all(np.diff(scores[ranking]) <= 1e-15)


class TestAttRankMatrix:
    def test_matrix_is_column_stochastic(self, toy):
        matrix = attrank_matrix(
            toy, alpha=0.4, beta=0.3, gamma=0.3, decay_rate=-0.5
        )
        assert np.allclose(matrix.sum(axis=0), 1.0)

    def test_matrix_strictly_positive_when_gamma_positive(self, toy):
        """Theorem 1's irreducibility/aperiodicity argument: the recency
        vector is strictly positive, so every entry of R is positive."""
        matrix = attrank_matrix(
            toy, alpha=0.4, beta=0.3, gamma=0.3, decay_rate=-0.5
        )
        assert matrix.min() > 0.0

    def test_matrix_diagonal_positive(self, toy):
        matrix = attrank_matrix(
            toy, alpha=0.5, beta=0.2, gamma=0.3, decay_rate=-0.3
        )
        assert np.all(np.diag(matrix) > 0)

    def test_power_method_on_dense_matrix_agrees(self, toy):
        """Iterating the dense R reproduces AttRank's sparse solve."""
        matrix = attrank_matrix(
            toy, alpha=0.4, beta=0.3, gamma=0.3, decay_rate=-0.5,
            attention_window=3,
        )
        vector = np.full(toy.n_papers, 1.0 / toy.n_papers)
        for _ in range(200):
            vector = matrix @ vector
        method = AttRank(
            alpha=0.4, beta=0.3, gamma=0.3, attention_window=3,
            decay_rate=-0.5,
        )
        assert np.allclose(method.scores(toy), vector, atol=1e-9)
