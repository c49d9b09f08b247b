"""PageRank on the citation network (paper Section 2, Equation 1).

    PR = alpha * S @ PR + (1 - alpha) / |P|

with ``S`` the column-stochastic citation matrix (dangling papers spread
uniformly).  The paper notes that AttRank with ``beta = 0`` and ``w = 0``
recovers exactly this method — a relationship the test suite verifies.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.power_iteration import DEFAULT_TOLERANCE, uniform_vector
from repro.errors import ConfigurationError
from repro.graph.citation_network import CitationNetwork
from repro.graph.matrix import shared_operator
from repro.ranking import RankingMethod

__all__ = ["PageRank"]


class PageRank(RankingMethod):
    """Classic PageRank with uniform random jumps.

    Parameters
    ----------
    alpha:
        Damping factor — probability of following a reference.  Citation
        analyses conventionally use 0.5 (Chen et al. 2007), the default
        here.
    tol, max_iterations:
        Power-iteration controls.
    """

    name = "PR"
    supports_warm_start = True

    def __init__(
        self,
        *,
        alpha: float = 0.5,
        tol: float = DEFAULT_TOLERANCE,
        max_iterations: int = 1000,
    ) -> None:
        if not 0 <= alpha < 1:
            raise ConfigurationError(f"alpha must be in [0, 1), got {alpha}")
        self.alpha = float(alpha)
        self.tol = tol
        self.max_iterations = max_iterations

    def params(self) -> Mapping[str, Any]:
        return {"alpha": self.alpha}

    def fused_column(self, network: CitationNetwork):
        """PageRank as one column of a fused solve."""
        if network.n_papers == 0:
            return None
        from repro.core.fused import FusedColumn

        operator = shared_operator(network)
        teleport = (1.0 - self.alpha) * uniform_vector(network.n_papers)
        return FusedColumn(
            label=self.name,
            matrix=operator.sparse_part,
            alpha=self.alpha,
            jump=teleport,
            dangling=(
                operator.dangling_mask if operator.n_dangling else None
            ),
            start=self.start_vector,
            normalize=True,
            tol=self.tol,
            max_iterations=self.max_iterations,
        )
