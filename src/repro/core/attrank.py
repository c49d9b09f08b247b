"""AttRank — the paper's contribution (Equation 4, Theorem 1).

AttRank scores satisfy the recurrence

    AR = alpha * S @ AR + beta * A + gamma * T,   alpha + beta + gamma = 1

with ``S`` the column-stochastic citation matrix (random researcher
follows a reference), ``A`` the attention vector of Eq. 2 (she picks a
recently popular paper) and ``T`` the recency vector of Eq. 3 (she picks
a recently published paper).  The effective iteration matrix

    R = alpha*S + beta * A @ 1' + gamma * T @ 1'

is column-stochastic, irreducible and aperiodic whenever beta + gamma > 0
and the jump vectors are strictly positive, so the power method converges
to a unique fixed point regardless of the start vector (Theorem 1).
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro._typing import FloatVector
from repro.core.attention import attention_vector
from repro.core.power_iteration import DEFAULT_TOLERANCE
from repro.core.recency import fit_decay_rate, recency_vector
from repro.errors import ConfigurationError
from repro.graph.citation_network import CitationNetwork
from repro.graph.matrix import StochasticOperator, shared_operator
from repro.ranking import RankingMethod, solve_column

__all__ = ["AttRank", "attrank_matrix"]

_COEFFICIENT_ATOL = 1e-9


class AttRank(RankingMethod):
    """The AttRank ranking method of Kanellos et al.

    Parameters
    ----------
    alpha:
        Probability of following a reference from the current paper.
    beta:
        Probability of jumping to a paper by recent attention (Eq. 2).
    gamma:
        Probability of jumping to a paper by recency (Eq. 3).
        ``alpha + beta + gamma`` must equal 1 (Table 3 explores
        alpha in [0, 0.5], beta in [0, 1]).
    attention_window:
        The hyper-parameter ``y`` (years) of the attention vector.
    decay_rate:
        The exponent ``w`` of the recency vector.  ``None`` (default)
        fits it from the network's citation-age distribution at scoring
        time, as the paper does per dataset (Section 4.2).
    tol, max_iterations:
        Power-iteration controls (paper uses tol = 1e-12).
    now:
        Current time ``tN``; defaults to the network's latest
        publication time.

    Examples
    --------
    >>> from repro.synth import toy_network
    >>> method = AttRank(alpha=0.2, beta=0.5, gamma=0.3, attention_window=3)
    >>> scores = method.scores(toy_network())
    >>> round(float(scores.sum()), 6)
    1.0
    """

    name = "AR"
    supports_warm_start = True

    def __init__(
        self,
        *,
        alpha: float = 0.2,
        beta: float = 0.5,
        gamma: float | None = None,
        attention_window: float = 3.0,
        decay_rate: float | None = None,
        tol: float = DEFAULT_TOLERANCE,
        max_iterations: int = 1000,
        now: float | None = None,
    ) -> None:
        if gamma is None:
            gamma = 1.0 - alpha - beta
        for label, value in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
            if not -_COEFFICIENT_ATOL <= value <= 1 + _COEFFICIENT_ATOL:
                raise ConfigurationError(
                    f"{label} must lie in [0, 1], got {value}"
                )
        total = alpha + beta + gamma
        if abs(total - 1.0) > 1e-6:
            raise ConfigurationError(
                f"alpha + beta + gamma must equal 1, got {total}"
            )
        if attention_window <= 0:
            raise ConfigurationError(
                f"attention_window must be positive, got {attention_window}"
            )
        if decay_rate is not None and decay_rate > 0:
            raise ConfigurationError(
                f"decay_rate w must be <= 0, got {decay_rate}"
            )
        self.alpha = float(np.clip(alpha, 0.0, 1.0))
        self.beta = float(np.clip(beta, 0.0, 1.0))
        self.gamma = float(np.clip(gamma, 0.0, 1.0))
        self.attention_window = float(attention_window)
        self.decay_rate = decay_rate
        self.tol = tol
        self.max_iterations = max_iterations
        self.now = now
        #: The decay rate actually used in the last ``scores`` call
        #: (useful when it was fitted automatically).
        self.fitted_decay_rate_: float | None = None

    def params(self) -> Mapping[str, Any]:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "y": self.attention_window,
            "w": self.decay_rate,
        }

    # ------------------------------------------------------------------
    def _resolve_decay_rate(self, network: CitationNetwork) -> float:
        if self.decay_rate is not None:
            return self.decay_rate
        fitted = fit_decay_rate(network).decay_rate
        self.fitted_decay_rate_ = fitted
        return fitted

    def jump_vectors(
        self, network: CitationNetwork
    ) -> tuple[FloatVector, FloatVector]:
        """The attention vector ``A`` and recency vector ``T`` for
        ``network`` under this configuration.

        A vector whose coefficient is zero is not computed (it cannot
        influence the scores); it is returned as all-zeros.  In
        particular, ATT-ONLY (``gamma = 0``) never needs the decay-rate
        fit, so it runs on networks whose citation-age distribution is
        degenerate.
        """
        zeros = np.zeros(network.n_papers)
        attention = (
            attention_vector(network, self.attention_window, now=self.now)
            if self.beta > 0
            else zeros
        )
        if self.gamma > 0:
            decay = self._resolve_decay_rate(network)
            recency = recency_vector(network, decay, now=self.now)
        else:
            recency = zeros
        return attention, recency

    def scores(self, network: CitationNetwork) -> FloatVector:
        """Solve Equation 4 by power iteration, as :meth:`fused_column`.

        Special case: with ``alpha = 0`` the fixed point is available in
        closed form (``AR = beta*A + gamma*T``), which the paper notes
        requires "a single iteration".
        """
        if self.alpha != 0.0:
            return solve_column(self, network)
        if network.n_papers == 0:
            raise ConfigurationError("cannot rank an empty network")
        attention, recency = self.jump_vectors(network)
        self.last_convergence = None
        return self.beta * attention + self.gamma * recency

    def fused_column(self, network: CitationNetwork):
        """AttRank as one column of a fused solve (see Equation 4):
        ``alpha * S @ x + jump``, with ``S``'s dangling correction.

        The ``alpha = 0`` closed form needs no iteration and is left to
        :meth:`scores` (fused stacking would only waste a column).
        """
        if self.alpha == 0.0 or network.n_papers == 0:
            return None
        from repro.core.fused import FusedColumn

        attention, recency = self.jump_vectors(network)
        jump = self.beta * attention + self.gamma * recency
        operator = shared_operator(network)
        return FusedColumn(
            label=self.name,
            matrix=operator.sparse_part,
            alpha=self.alpha,
            jump=jump,
            dangling=(
                operator.dangling_mask if operator.n_dangling else None
            ),
            start=self.start_vector,
            normalize=True,
            tol=self.tol,
            max_iterations=self.max_iterations,
        )


def attrank_matrix(
    network: CitationNetwork,
    *,
    alpha: float,
    beta: float,
    gamma: float,
    attention_window: float = 3.0,
    decay_rate: float | None = None,
    now: float | None = None,
) -> np.ndarray:
    """Materialise the dense AttRank matrix ``R`` of Theorem 1.

    ``R[i, j] = alpha*S[i, j] + beta*A(p_i) + gamma*T(p_i)`` — intended
    for verification on small networks (the tests check column-
    stochasticity, irreducibility and aperiodicity), not for production
    scoring, which uses the sparse operator.
    """
    method = AttRank(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        attention_window=attention_window,
        decay_rate=decay_rate,
        now=now,
    )
    attention, recency = method.jump_vectors(network)
    dense_s = StochasticOperator(network).dense()
    jump = beta * attention + gamma * recency
    return alpha * dense_s + jump[:, None]
