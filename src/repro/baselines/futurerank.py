"""FutureRank (Sayyadi & Getoor, 2009) — competitor "FR".

FutureRank predicts the *future PageRank* of papers by combining three
signals in a mutually reinforcing iteration:

* PageRank-style flow over citations (coefficient ``alpha``),
* HITS-style reinforcement between papers and their **authors**
  (coefficient ``beta``): author scores are the normalised sum of their
  papers' scores, and papers in turn receive their authors' scores,
* an exponential **recency** preference ``R^T_i ∝ exp(rho * age_i)``
  with ``rho < 0`` (coefficient ``gamma``).

The update (our notation; ``M`` = stochastic citation matrix, ``B`` =
author-paper incidence) is

    R^A = normalize(B @ R^P)
    R^P = alpha * M @ R^P + beta * normalize(B' @ R^A)
          + gamma * R^T + (1 - alpha - beta - gamma)/n

The paper's evaluation (Section 4.3) notes FR "did not, in practice,
converge under all possible settings"; accordingly the iteration budget
is enforced without raising, and :attr:`last_convergence` reports whether
the tolerance was reached.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro._typing import FloatVector
from repro.core.power_iteration import DEFAULT_TOLERANCE, power_iterate
from repro.core.recency import recency_vector
from repro.errors import ConfigurationError, GraphError
from repro.graph.citation_network import CitationNetwork
from repro.graph.matrix import shared_operator
from repro.ranking import RankingMethod

__all__ = ["FutureRank"]


def _normalized(vector: np.ndarray) -> np.ndarray:
    total = vector.sum()
    if total <= 0:
        return np.full(vector.size, 1.0 / max(vector.size, 1))
    return vector / total


class FutureRank(RankingMethod):
    """FutureRank: citation flow + author reinforcement + recency.

    Parameters
    ----------
    alpha:
        Weight of the PageRank (citation) component.
    beta:
        Weight of the author-reinforcement component.  Requires author
        metadata on the network when positive.
    gamma:
        Weight of the recency component.
    rho:
        Exponent of the recency weights (negative; original work uses
        -0.62).
    tol, max_iterations:
        Iteration controls.  Non-convergence within the budget is *not*
        an error (see module docstring).
    now:
        Current time ``tN`` (default: latest publication time).
    """

    name = "FR"

    def __init__(
        self,
        *,
        alpha: float = 0.4,
        beta: float = 0.1,
        gamma: float = 0.5,
        rho: float = -0.62,
        tol: float = DEFAULT_TOLERANCE,
        max_iterations: int = 200,
        now: float | None = None,
    ) -> None:
        for label, value in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
            if not 0 <= value <= 1:
                raise ConfigurationError(
                    f"{label} must lie in [0, 1], got {value}"
                )
        if alpha + beta + gamma > 1 + 1e-9:
            raise ConfigurationError(
                "alpha + beta + gamma must not exceed 1, got "
                f"{alpha + beta + gamma}"
            )
        if rho >= 0:
            raise ConfigurationError(f"rho must be negative, got {rho}")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.gamma = float(gamma)
        self.rho = float(rho)
        self.tol = tol
        self.max_iterations = max_iterations
        self.now = now

    def params(self) -> Mapping[str, Any]:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "rho": self.rho,
        }

    def recency_weights(self, network: CitationNetwork) -> FloatVector:
        """The normalised time-preference vector ``R^T``.

        Identical formula to AttRank's recency vector (Eq. 3 with
        ``w = rho``), so it shares that memoised implementation — the
        tuned FR grid revisits each of its 3 rho values 40 times.
        """
        return recency_vector(network, self.rho, now=self.now)

    def scores(self, network: CitationNetwork) -> FloatVector:
        if network.n_papers == 0:
            raise ConfigurationError("cannot rank an empty network")
        if self.beta > 0 and not network.has_authors:
            raise GraphError(
                "FutureRank with beta > 0 requires author metadata"
            )
        n = network.n_papers
        operator = shared_operator(network)
        time_vector = self.recency_weights(network)
        uniform_mass = max(1.0 - self.alpha - self.beta - self.gamma, 0.0) / n

        incidence = network.author_matrix if self.beta > 0 else None
        # Bound once: ``.T`` builds a fresh CSC wrapper on every call.
        transposed = incidence.T if incidence is not None else None

        def step(paper_scores: np.ndarray) -> np.ndarray:
            updated = (
                self.alpha * operator.apply(paper_scores)
                + self.gamma * time_vector
                + uniform_mass
            )
            if incidence is not None:
                author_scores = _normalized(incidence @ paper_scores)
                updated = updated + self.beta * _normalized(
                    transposed @ author_scores
                )
            return updated

        result, info = power_iterate(
            step,
            n,
            tol=self.tol,
            max_iterations=self.max_iterations,
            raise_on_failure=False,
        )
        self.last_convergence = info
        return result

    def fused_column(self, network: CitationNetwork):
        """FutureRank as one column of a fused solve.

        The citation flow shares the stacked SpMV, ``gamma * R^T`` is
        the column's jump, and the uniform mass and the author
        reinforcement are the column's ``uniform`` and ``incidence``
        terms, which the solver adds after the jump in the order of
        :meth:`scores`'s step, so the bits are the same.  Every FR
        column of one network shares the author products.
        """
        if network.n_papers == 0 or (
            self.beta > 0 and not network.has_authors
        ):
            return None
        from repro.core.fused import FusedColumn

        n = network.n_papers
        operator = shared_operator(network)
        return FusedColumn(
            label=self.name,
            matrix=operator.sparse_part,
            alpha=self.alpha,
            jump=self.gamma * self.recency_weights(network),
            dangling=(
                operator.dangling_mask if operator.n_dangling else None
            ),
            uniform=(
                max(1.0 - self.alpha - self.beta - self.gamma, 0.0) / n
            ),
            incidence=network.author_matrix if self.beta > 0 else None,
            beta=self.beta,
            normalize=True,
            tol=self.tol,
            max_iterations=self.max_iterations,
            raise_on_failure=False,
        )
