"""Effective Contagion Matrix (Ghosh et al., 2011) — competitor "ECM".

ECM generalises RAM from single citations to *citation chains*: a chain
of ``k`` citations contributes the product of its per-edge retained
weights, further discounted by ``alpha^(k-1)``.  This is Katz centrality
over the retained adjacency matrix ``R`` (the same age-weighted matrix
RAM uses):

    ECM scores  s = sum_{k>=1} alpha^(k-1) * R^k @ 1
                  = R @ (1 + alpha * s)

Citation networks that respect time order are acyclic, so ``R`` is
nilpotent and the series terminates exactly after the longest citation
chain; the fixed-point iteration therefore converges in finitely many
steps regardless of ``alpha``.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np
import scipy.sparse as sp

from repro.baselines.ram import retained_edge_weights
from repro.errors import ConfigurationError
from repro.graph.cache import memoize_on
from repro.graph.citation_network import CitationNetwork
from repro.ranking import RankingMethod

__all__ = ["EffectiveContagion"]


class EffectiveContagion(RankingMethod):
    """ECM: age-weighted Katz centrality over citation chains.

    Parameters
    ----------
    alpha:
        Chain-length discount in (0, 1); the original work finds small
        values (0.007-0.1) optimal.
    gamma:
        Retention base of the underlying matrix, as in RAM.
    tol, max_iterations:
        Fixed-point controls (exact termination on DAGs).
    now:
        Current time ``tN`` (default: latest publication time).
    """

    name = "ECM"

    def __init__(
        self,
        *,
        alpha: float = 0.1,
        gamma: float = 0.3,
        tol: float = 1e-12,
        max_iterations: int = 1000,
        now: float | None = None,
    ) -> None:
        if not 0 < alpha < 1:
            raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
        if not 0 < gamma <= 1:
            raise ConfigurationError(f"gamma must be in (0, 1], got {gamma}")
        self.alpha = float(alpha)
        self.gamma = float(gamma)
        self.tol = tol
        self.max_iterations = max_iterations
        self.now = now

    def params(self) -> Mapping[str, Any]:
        return {"alpha": self.alpha, "gamma": self.gamma}

    def retained_matrix(self, network: CitationNetwork) -> sp.csr_matrix:
        """The retained adjacency matrix ``R[i, j] = gamma^age * C[i, j]``.

        Memoised per ``(network, gamma, now)`` — ECM's grid sweeps five
        ``alpha`` values against each ``gamma``, and the CSR assembly is
        the expensive part of a score evaluation.
        """
        reference = (
            network.latest_time if self.now is None else float(self.now)
        )

        def build() -> sp.csr_matrix:
            weights = retained_edge_weights(
                network, self.gamma, now=reference
            )
            n = network.n_papers
            matrix = sp.csr_matrix(
                (weights, (network.cited, network.citing)), shape=(n, n)
            )
            matrix.sum_duplicates()
            return matrix

        return memoize_on(
            network, ("retained_matrix", self.gamma, reference), build
        )

    def fused_column(self, network: CitationNetwork):
        """ECM as one column of a fused solve.

        Uses its own retained matrix rather than the shared stochastic
        operator; the fused solver groups columns by matrix, so ECM costs
        one extra SpMV per iteration but still shares the convergence
        loop.  The column always starts from ``base``, the RAM scores
        (warm starts are pointless for a finitely-terminating Katz
        series).
        """
        if network.n_papers == 0:
            return None
        from repro.core.fused import FusedColumn

        retained = self.retained_matrix(network)
        ones = np.ones(network.n_papers, dtype=np.float64)
        base = retained @ ones
        return FusedColumn(
            label=self.name,
            matrix=retained,
            alpha=self.alpha,
            jump=base,
            start=base,
            normalize=False,
            tol=self.tol,
            max_iterations=self.max_iterations,
            raise_on_failure=False,
        )
