"""The WSDM Cup 2016 winning method (Feng et al.) — competitor "WSDM".

The winning entry of the cup's "query-independent paper importance" task
aggregates, over a *fixed small number of iterations* ``i`` (4 or 5),
scores propagated to each paper from three bipartite structures —
paper-paper citations, paper-author, paper-venue — plus degree-based
priors weighted by two real coefficients ``alpha`` (in-degree) and
``beta`` (out-degree).

No reference implementation of the winning entry is public; this module
is a faithful-in-spirit reconstruction of the four-page cup description
(see DESIGN.md §4, substitution 3):

* paper prior  ``b ∝ alpha * log1p(indegree) + beta * log1p(outdegree)``
* each iteration recomputes author scores (mean of their papers) and
  venue scores (mean of their papers), then updates every paper with the
  normalised mix of (citation inflow, author mean, venue mean, prior);
* exactly ``i`` iterations are run — no convergence criterion, matching
  the original's fixed-iteration design.

Requires author *and* venue metadata; the paper accordingly evaluates
WSDM only on PMC and DBLP, where such metadata exists.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np
import scipy.sparse as sp

from repro._typing import FloatVector
from repro.errors import ConfigurationError, GraphError
from repro.graph.cache import memoize_on
from repro.graph.citation_network import CitationNetwork
from repro.graph.matrix import shared_operator
from repro.ranking import RankingMethod

__all__ = ["WSDMRanker"]


def _row_mean_operator(incidence: sp.csr_matrix) -> sp.csr_matrix:
    """Row-normalise a bipartite incidence matrix (mean over its papers)."""
    sums = np.asarray(incidence.sum(axis=1)).ravel()
    scale = np.divide(
        1.0, sums, out=np.zeros_like(sums), where=sums > 0
    )
    return sp.diags(scale) @ incidence


def _normalized(vector: np.ndarray) -> np.ndarray:
    total = vector.sum()
    if total <= 0:
        return np.full(vector.size, 1.0 / max(vector.size, 1))
    return vector / total


class WSDMRanker(RankingMethod):
    """The reconstructed WSDM Cup 2016 winner.

    Parameters
    ----------
    alpha:
        Coefficient of the in-degree prior (original work: 1.7).
    beta:
        Coefficient of the out-degree prior (original work: 3).
    iterations:
        Fixed iteration count ``i`` (original work: 4 or 5).
    """

    name = "WSDM"

    def __init__(
        self,
        *,
        alpha: float = 1.7,
        beta: float = 3.0,
        iterations: int = 5,
    ) -> None:
        if alpha < 0 or beta < 0:
            raise ConfigurationError(
                f"alpha and beta must be non-negative, got {alpha}, {beta}"
            )
        if iterations < 1:
            raise ConfigurationError(
                f"iterations must be >= 1, got {iterations}"
            )
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.iterations = int(iterations)

    def params(self) -> Mapping[str, Any]:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "iterations": self.iterations,
        }

    def scores(self, network: CitationNetwork) -> FloatVector:
        if network.n_papers == 0:
            raise ConfigurationError("cannot rank an empty network")
        if not network.has_authors or not network.has_venues:
            raise GraphError(
                "the WSDM method requires both author and venue metadata "
                "(the paper runs it only on PMC and DBLP for this reason)"
            )
        n = network.n_papers
        citation_flow = shared_operator(network)
        # The bipartite mean operators depend only on the network, so
        # one WSDM grid (50 settings) normalises each matrix once.
        author_mean = memoize_on(
            network,
            ("wsdm_row_mean", "authors"),
            lambda: _row_mean_operator(network.author_matrix),
        )
        venue_mean = memoize_on(
            network,
            ("wsdm_row_mean", "venues"),
            lambda: _row_mean_operator(network.venue_matrix),
        )
        # Bound once beside them: ``.T`` builds a fresh CSC wrapper on
        # every call (the product is the same ``csc_matvec``).
        author_spread = memoize_on(
            network, ("wsdm_row_mean_t", "authors"), lambda: author_mean.T
        )
        venue_spread = memoize_on(
            network, ("wsdm_row_mean_t", "venues"), lambda: venue_mean.T
        )

        prior = _normalized(
            self.alpha * np.log1p(network.in_degree.astype(np.float64))
            + self.beta * np.log1p(network.out_degree.astype(np.float64))
        )

        scores = np.full(n, 1.0 / n)
        for _ in range(self.iterations):
            author_scores = author_mean @ scores
            venue_scores = venue_mean @ scores
            from_authors = _normalized(author_spread @ author_scores)
            from_venues = _normalized(venue_spread @ venue_scores)
            inflow = _normalized(citation_flow.apply(scores))
            scores = _normalized(
                inflow + from_authors + from_venues + prior
            )
        self.last_convergence = None
        return scores
