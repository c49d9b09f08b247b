"""The paper's contribution: AttRank and its building blocks.

* :class:`AttRank` — Equation 4, solved by power iteration (Theorem 1).
* :class:`NoAttention` / :class:`AttentionOnly` — the paper's ablations.
* :func:`attention_vector` — Eq. 2 (recent-citation shares).
* :func:`recency_vector` / :func:`fit_decay_rate` — Eq. 3 and the per-
  dataset fitting of ``w`` (Section 4.2).
* :func:`power_iterate` — the solver for a fixed-point map that is
  not a fused column (HITS).
"""

from repro.core.attention import attention_counts, attention_vector
from repro.core.attrank import AttRank, attrank_matrix
from repro.core.power_iteration import (
    DEFAULT_TOLERANCE,
    power_iterate,
    uniform_vector,
)
from repro.core.recency import DecayFit, fit_decay_rate, recency_vector
from repro.core.variants import AttentionOnly, NoAttention

__all__ = [
    "AttRank",
    "attrank_matrix",
    "AttentionOnly",
    "NoAttention",
    "attention_counts",
    "attention_vector",
    "recency_vector",
    "DecayFit",
    "fit_decay_rate",
    "DEFAULT_TOLERANCE",
    "power_iterate",
    "uniform_vector",
]
