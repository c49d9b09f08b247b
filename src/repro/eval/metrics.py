"""Ranking-quality metrics of the evaluation (paper Section 4.1).

* **Spearman's rho** — rank correlation between a method's scores and the
  ground-truth STI over *all* current papers (overall list similarity).
* **nDCG@k** — rank-order-sensitive agreement on the *top* of the list,
  with the short-term impact as the gain:
  ``DCG@k = sum_{i=1..k} rel(i) / log2(i + 1)`` over the method's top-k,
  normalised by the ideal DCG.

Both are implemented from their definitions; the tests cross-check
Spearman against :func:`scipy.stats.spearmanr`.
"""

from __future__ import annotations

import numpy as np

from repro._typing import FloatVector
from repro.errors import EvaluationError
from repro.ranking import top_k_indices

__all__ = ["spearman_rho", "dcg_at_k", "ndcg_at_k", "Metric", "SpearmanRho", "NDCG"]


def spearman_rho(scores_a: FloatVector, scores_b: FloatVector) -> float:
    """Spearman rank correlation between two score vectors.

    Ties receive average ranks (the standard treatment, and scipy's).
    Returns a value in [-1, 1]; degenerate inputs where either vector is
    constant have undefined correlation and raise.
    """
    # Imported here, not at module level: scipy.stats is slow to
    # import, and no serving or tuning path computes a correlation.
    from scipy.stats import rankdata

    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise EvaluationError(
            f"score vectors must share a 1-D shape, got {a.shape} vs {b.shape}"
        )
    if a.size < 2:
        raise EvaluationError("need at least two papers for a correlation")
    ranks_a = rankdata(a)
    ranks_b = rankdata(b)
    da = ranks_a - ranks_a.mean()
    db = ranks_b - ranks_b.mean()
    denominator = float(np.sqrt((da**2).sum() * (db**2).sum()))
    if denominator == 0:
        raise EvaluationError(
            "Spearman correlation undefined: a score vector is constant"
        )
    return float((da * db).sum() / denominator)


def dcg_at_k(relevance_in_rank_order: FloatVector, k: int) -> float:
    """Discounted cumulative gain of the first ``k`` relevance values."""
    if k < 1:
        raise EvaluationError(f"k must be >= 1, got {k}")
    gains = np.asarray(relevance_in_rank_order, dtype=np.float64)[:k]
    if gains.size == 0:
        return 0.0
    discounts = np.log2(np.arange(2, gains.size + 2, dtype=np.float64))
    return float((gains / discounts).sum())


def ndcg_at_k(
    method_scores: FloatVector,
    relevance: FloatVector,
    k: int,
) -> float:
    """Normalised DCG@k of a method's ranking against ground-truth gains.

    Parameters
    ----------
    method_scores:
        The method's per-paper scores (higher = ranked earlier).
    relevance:
        Ground-truth gain per paper — the short-term impact in the
        paper's evaluation.
    k:
        Cut-off rank (the paper uses {5, 10, 50, 100, 500}, default 50).

    Returns
    -------
    float
        nDCG in [0, 1].  When every paper has zero relevance the ideal
        DCG vanishes and the nDCG is defined as 0 (no ranking can be
        better than any other).
    """
    scores = np.asarray(method_scores, dtype=np.float64)
    gains = np.asarray(relevance, dtype=np.float64)
    if scores.shape != gains.shape or scores.ndim != 1:
        raise EvaluationError(
            "method scores and relevance must share a 1-D shape, got "
            f"{scores.shape} vs {gains.shape}"
        )
    if gains.size and gains.min() < 0:
        raise EvaluationError("relevance gains must be non-negative")
    # Only the first k of each order count; a negative k still reaches
    # dcg_at_k's check once both vectors are validated.
    method_order = top_k_indices(scores, max(k, 0))
    ideal_order = top_k_indices(gains, max(k, 0))
    ideal = dcg_at_k(gains[ideal_order], k)
    if ideal == 0:
        return 0.0
    achieved = dcg_at_k(gains[method_order], k)
    return achieved / ideal


class Metric:
    """A named evaluation metric: callable on (method scores, ground truth)."""

    name: str = "?"

    def __call__(
        self, method_scores: FloatVector, ground_truth: FloatVector
    ) -> float:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


class SpearmanRho(Metric):
    """Spearman correlation to the ground-truth STI (higher is better)."""

    name = "spearman"

    def __call__(
        self, method_scores: FloatVector, ground_truth: FloatVector
    ) -> float:
        return spearman_rho(method_scores, ground_truth)


class NDCG(Metric):
    """nDCG@k with the ground-truth STI as the gain (higher is better)."""

    def __init__(self, k: int = 50) -> None:
        if k < 1:
            raise EvaluationError(f"k must be >= 1, got {k}")
        self.k = int(k)
        self.name = f"ndcg@{self.k}"

    def __call__(
        self, method_scores: FloatVector, ground_truth: FloatVector
    ) -> float:
        return ndcg_at_k(method_scores, ground_truth, self.k)
