"""Classic centrality variants (paper Section 5, "Basic Centrality
Variants").

The related-work section groups a family of non-time-aware centrality
methods that preceded the time-aware competitors.  Two canonical
representatives are provided for completeness — they demonstrate the age
bias that motivates the paper and serve as sanity baselines:

* **Katz centrality** on the citation matrix: every citation chain into
  a paper contributes, discounted by ``alpha`` per hop (ECM without the
  time weights);
* **HITS authority** (Kleinberg 1999): papers heavily cited by papers
  with many references (hubs, e.g. surveys) score high.  HITS is also
  the mechanism FutureRank borrows for its author reinforcement.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np
import scipy.sparse as sp

from repro._typing import FloatVector
from repro.core.power_iteration import power_iterate
from repro.errors import ConfigurationError
from repro.graph.citation_network import CitationNetwork
from repro.ranking import RankingMethod

__all__ = ["KatzCentrality", "HITSAuthority"]


class KatzCentrality(RankingMethod):
    """Katz centrality over unweighted citation chains.

    ``s = C @ (1 + alpha * s)``: chains of length k contribute
    ``alpha^(k-1)``.  Citation networks that respect time order are
    acyclic, so the series always terminates (cf. ECM, which adds
    citation-age weights on top of exactly this recursion).

    Parameters
    ----------
    alpha:
        Per-hop attenuation in (0, 1).
    """

    name = "KATZ"

    def __init__(
        self,
        *,
        alpha: float = 0.1,
        tol: float = 1e-12,
        max_iterations: int = 1000,
    ) -> None:
        if not 0 < alpha < 1:
            raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = float(alpha)
        self.tol = tol
        self.max_iterations = max_iterations

    def params(self) -> Mapping[str, Any]:
        return {"alpha": self.alpha}

    def fused_column(self, network: CitationNetwork):
        """Katz as one column of a fused solve: ``alpha * C @ x`` plus
        the citation counts, which are also the start.

        ``C`` is the network's cached citation matrix, so every Katz
        column of one network shares one SpMV per iteration.
        """
        if network.n_papers == 0:
            return None
        from repro.core.fused import FusedColumn

        matrix = network.citation_matrix
        base = np.asarray(matrix.sum(axis=1)).ravel()  # citation counts
        return FusedColumn(
            label=self.name,
            matrix=matrix,
            alpha=self.alpha,
            jump=base,
            start=base,
            normalize=False,
            tol=self.tol,
            max_iterations=self.max_iterations,
            raise_on_failure=False,
        )


class HITSAuthority(RankingMethod):
    """HITS authority scores on the citation graph.

    Alternates hub scores (papers citing good authorities) and authority
    scores (papers cited by good hubs), each L1-normalised per round,
    until the authority vector stabilises.

    Parameters
    ----------
    tol, max_iterations:
        Convergence controls on the authority vector.
    """

    name = "HITS"

    def __init__(
        self, *, tol: float = 1e-12, max_iterations: int = 1000
    ) -> None:
        self.tol = tol
        self.max_iterations = max_iterations

    def params(self) -> Mapping[str, Any]:
        return {}

    def scores(self, network: CitationNetwork) -> FloatVector:
        if network.n_papers == 0:
            raise ConfigurationError("cannot rank an empty network")
        # C[i, j] = 1 iff j cites i: authorities = C @ hubs,
        # hubs = C.T @ authorities.
        matrix: sp.csr_matrix = network.citation_matrix
        transpose = sp.csr_matrix(matrix.T)

        def normalized(vector: np.ndarray) -> np.ndarray:
            total = vector.sum()
            if total <= 0:
                return np.full(vector.size, 1.0 / vector.size)
            return vector / total

        def step(authority: np.ndarray) -> np.ndarray:
            hubs = normalized(transpose @ authority)
            return normalized(matrix @ hubs)

        result, info = power_iterate(
            step,
            network.n_papers,
            tol=self.tol,
            max_iterations=self.max_iterations,
            raise_on_failure=False,
        )
        self.last_convergence = info
        return result
