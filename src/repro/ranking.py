"""The common interface every paper-ranking method implements.

A *ranking method* maps a :class:`~repro.graph.CitationNetwork` (the
current state ``C(tN)``) to one non-negative score per paper; papers are
then ranked in decreasing score order as a proxy for their unknown
short-term impact (Problem 1 of the paper).  AttRank and all baselines
subclass :class:`RankingMethod`, which gives the evaluation framework a
single uniform handle for running, tuning and comparing them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro._typing import FloatVector, IntVector
from repro.errors import ConfigurationError
from repro.graph.citation_network import CitationNetwork

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.fused import FusedColumn

__all__ = [
    "RankingMethod",
    "ConvergenceInfo",
    "ranking_from_scores",
    "solve_column",
    "top_k_indices",
]


@dataclass(frozen=True)
class ConvergenceInfo:
    """Diagnostics of an iterative solve.

    Attributes
    ----------
    iterations:
        Number of iterations performed.
    residual:
        Final L1 change between successive iterates.
    converged:
        Whether the residual dropped below the requested tolerance within
        the iteration budget.
    residual_history:
        Residual after each iteration (length = ``iterations``).
    """

    iterations: int
    residual: float
    converged: bool
    residual_history: tuple[float, ...]


class RankingMethod:
    """Base class of all ranking methods.

    Subclasses set the class attribute :attr:`name` (the short label used
    in the paper's plots: ``"AR"``, ``"CR"``, ``"FR"``, ...), report
    their configuration from :meth:`params`, and either describe their
    iteration by :meth:`fused_column` or implement :meth:`scores`
    themselves (closed forms, and iterations of another shape).
    Iterative methods additionally expose a :attr:`last_convergence`
    attribute after :meth:`scores` has run.
    """

    #: Short label for reports (matches the paper's legends).
    name: str = "?"

    #: Whether ``scores()`` honours :attr:`start_vector` — true for the
    #: fixed-point methods whose solution is start-independent (paper
    #: Theorem 1), so a previous solution can warm-start the solve.
    supports_warm_start: bool = False

    #: Optional start vector for the next ``scores()`` call.  Methods
    #: with :attr:`supports_warm_start` seed their power iteration from
    #: it (the incremental-update path of :mod:`repro.serve` sets this to
    #: the previous snapshot's solution); others ignore it.  The fixed
    #: point is unaffected — only the iteration count changes.
    start_vector: FloatVector | None = None

    #: Populated by iterative subclasses after ``scores()``.
    last_convergence: ConvergenceInfo | None = None

    def scores(self, network: CitationNetwork) -> FloatVector:
        """Compute one non-negative score per paper of ``network``.

        The default solves :meth:`fused_column` alone (see
        :func:`solve_column`); methods without a column override this.
        """
        return solve_column(self, network)

    def fused_column(
        self, network: CitationNetwork
    ) -> "FusedColumn | None":
        """The method's column spec for the fused multi-method solver.

        Iterative methods whose update is an affine map over a sparse
        operator return a :class:`~repro.core.fused.FusedColumn`, the
        one description of their iteration: :meth:`scores` solves it
        alone, and :func:`~repro.core.fused.solve_methods` stacks it
        into one SpMV pass per iteration with other columns, with the
        same bits (docs/SOLVER.md).  The default ``None`` means "not
        fusable" — closed forms (citation count, RAM, ATT-ONLY) and
        structurally different iterations (WSDM, HITS) implement
        :meth:`scores` instead.
        """
        return None

    def params(self) -> Mapping[str, Any]:
        """The method's configuration, for experiment reports."""
        return {}

    def rank(self, network: CitationNetwork) -> IntVector:
        """Paper indices in decreasing score order (ties by index)."""
        return ranking_from_scores(self.scores(network))

    def describe(self) -> str:
        """Human-readable one-liner, e.g. ``AR(alpha=0.2, beta=0.5)``."""
        inner = ", ".join(f"{k}={v}" for k, v in self.params().items())
        return f"{self.name}({inner})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


def solve_column(
    method: RankingMethod, network: CitationNetwork
) -> FloatVector:
    """Solve ``method``'s fused column alone; set its ``last_convergence``.

    Raises
    ------
    ConfigurationError
        If ``network`` has no papers.
    NotImplementedError
        If ``method`` has no fused column for ``network``.
    """
    if network.n_papers == 0:
        raise ConfigurationError("cannot rank an empty network")
    column = method.fused_column(network)
    if column is None:
        raise NotImplementedError(
            f"{type(method).__name__} has no fused column to solve"
        )
    from repro.core.fused import FusedSolver  # import cycle guard

    ((vector, info),) = FusedSolver([column], network.n_papers).solve()
    method.last_convergence = info
    return vector


def _checked_scores(scores: FloatVector) -> np.ndarray:
    """``scores`` as a finite float64 vector, or a ConfigurationError."""
    array = np.asarray(scores, dtype=np.float64)
    if array.ndim != 1:
        raise ConfigurationError(
            f"scores must be a vector, got shape {array.shape}"
        )
    if not np.all(np.isfinite(array)):
        raise ConfigurationError("scores contain non-finite values")
    return array


def ranking_from_scores(scores: FloatVector) -> IntVector:
    """Indices sorted by decreasing score, ties broken by ascending index.

    The deterministic tie-break makes every evaluation reproducible even
    when a method assigns identical scores (e.g. citation count).
    """
    array = _checked_scores(scores)
    return np.lexsort((np.arange(array.size), -array)).astype(np.int64)


def top_k_indices(scores: FloatVector, k: int) -> IntVector:
    """The ``k`` highest-scoring paper indices, deterministic on ties.

    Exactly ``ranking_from_scores(scores)[:k]``, without sorting every
    paper: a partition finds the k-th highest score, and only the
    candidates at or above it (every tie at the cut included) are
    sorted, under the same (score, index) order.
    """
    if k < 0:
        raise ConfigurationError(f"k must be non-negative, got {k}")
    array = _checked_scores(scores)
    if k == 0 or k >= array.size:
        return ranking_from_scores(array)[:k]
    negated = -array
    cut = negated[np.argpartition(negated, k - 1)[k - 1]]
    candidates = np.flatnonzero(negated <= cut)
    order = np.lexsort((candidates, negated[candidates]))
    return candidates[order[:k]].astype(np.int64)
