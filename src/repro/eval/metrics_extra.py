"""Additional ranking metrics beyond the paper's two headline measures.

The companion survey the paper builds on (Kanellos et al., TKDE 2019,
reference [16]) evaluates impact-ranking methods with a wider metric
battery; this module provides the common ones so users can extend the
evaluation without re-implementing them:

* **Kendall's tau-b** — pairwise rank agreement over all papers (a
  stricter cousin of Spearman's rho);
* **overlap@k** (top-k intersection) — how many of the method's top-k
  papers are in the ground-truth top-k;
* **average precision@k** — precision-weighted retrieval of the
  ground-truth top-k set.

All follow the library's :class:`~repro.eval.metrics.Metric` protocol
and can be passed anywhere a metric is expected (tuning, comparisons,
heatmaps).
"""

from __future__ import annotations

import numpy as np

from repro._typing import FloatVector
from repro.errors import EvaluationError
from repro.eval.metrics import Metric
from repro.ranking import top_k_indices

__all__ = [
    "kendall_tau",
    "overlap_at_k",
    "average_precision_at_k",
    "KendallTau",
    "OverlapAtK",
    "AveragePrecisionAtK",
]


def kendall_tau(scores_a: FloatVector, scores_b: FloatVector) -> float:
    """Kendall's tau-b between two score vectors (ties handled).

    Delegates to :func:`scipy.stats.kendalltau` (the O(n log n)
    implementation) after the same shape checks as
    :func:`~repro.eval.metrics.spearman_rho`.
    """
    from scipy.stats import kendalltau  # deferred, as in spearman_rho

    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise EvaluationError(
            f"score vectors must share a 1-D shape, got {a.shape} vs {b.shape}"
        )
    if a.size < 2:
        raise EvaluationError("need at least two papers for a correlation")
    if np.unique(a).size < 2 or np.unique(b).size < 2:
        raise EvaluationError(
            "Kendall correlation undefined: a score vector is constant"
        )
    return float(kendalltau(a, b).statistic)


def overlap_at_k(
    method_scores: FloatVector,
    relevance: FloatVector,
    k: int,
) -> float:
    """Fraction of the ground-truth top-k found in the method's top-k.

    This is the "identical papers in top-k" measure used by ranking
    comparisons in the bibliometrics literature (value in [0, 1]).
    """
    scores = np.asarray(method_scores, dtype=np.float64)
    gains = np.asarray(relevance, dtype=np.float64)
    if scores.shape != gains.shape or scores.ndim != 1:
        raise EvaluationError(
            "method scores and relevance must share a 1-D shape, got "
            f"{scores.shape} vs {gains.shape}"
        )
    if k < 1:
        raise EvaluationError(f"k must be >= 1, got {k}")
    k = min(k, scores.size)
    top_method = top_k_indices(scores, k)
    top_truth = top_k_indices(gains, k)
    return float(np.intersect1d(top_method, top_truth).size) / k


def average_precision_at_k(
    method_scores: FloatVector,
    relevance: FloatVector,
    k: int,
) -> float:
    """Average precision of retrieving the ground-truth top-k set.

    The ground-truth top-k papers are the "relevant" set; the method's
    ranking is scanned to depth k, accumulating precision at each hit.
    Returns a value in [0, 1]; 1 iff the method's top-k equals the
    ground-truth top-k in any order... scanned in order, so exactly 1
    only when every prefix consists of relevant papers.
    """
    scores = np.asarray(method_scores, dtype=np.float64)
    gains = np.asarray(relevance, dtype=np.float64)
    if scores.shape != gains.shape or scores.ndim != 1:
        raise EvaluationError(
            "method scores and relevance must share a 1-D shape, got "
            f"{scores.shape} vs {gains.shape}"
        )
    if k < 1:
        raise EvaluationError(f"k must be >= 1, got {k}")
    k = min(k, scores.size)
    relevant = set(top_k_indices(gains, k).tolist())
    ranking = top_k_indices(scores, k)
    hits = 0
    precision_sum = 0.0
    for position, paper in enumerate(ranking.tolist(), start=1):
        if paper in relevant:
            hits += 1
            precision_sum += hits / position
    return precision_sum / k


class KendallTau(Metric):
    """Kendall's tau-b to the ground-truth STI (higher is better)."""

    name = "kendall"

    def __call__(
        self, method_scores: FloatVector, ground_truth: FloatVector
    ) -> float:
        return kendall_tau(method_scores, ground_truth)


class OverlapAtK(Metric):
    """Top-k overlap with the ground-truth STI ranking."""

    def __init__(self, k: int = 50) -> None:
        if k < 1:
            raise EvaluationError(f"k must be >= 1, got {k}")
        self.k = int(k)
        self.name = f"overlap@{self.k}"

    def __call__(
        self, method_scores: FloatVector, ground_truth: FloatVector
    ) -> float:
        return overlap_at_k(method_scores, ground_truth, self.k)


class AveragePrecisionAtK(Metric):
    """Average precision at k against the ground-truth top-k set."""

    def __init__(self, k: int = 50) -> None:
        if k < 1:
            raise EvaluationError(f"k must be >= 1, got {k}")
        self.k = int(k)
        self.name = f"ap@{self.k}"

    def __call__(
        self, method_scores: FloatVector, ground_truth: FloatVector
    ) -> float:
        return average_precision_at_k(method_scores, ground_truth, self.k)
