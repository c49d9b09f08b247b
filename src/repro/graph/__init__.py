"""Citation-network substrate: graph structure, matrices, temporal views.

Public entry points:

* :class:`CitationNetwork` — the immutable network (papers, times, edges,
  optional authors/venues).
* :class:`IdTable` — the append-only id table the versions of a growing
  network (and the serving layer's shards) share.
* :class:`NetworkBuilder` — incremental construction with id resolution.
* :class:`StochasticOperator` — the paper's column-stochastic matrix ``S``
  with exact dangling handling.
* :mod:`repro.graph.temporal` — snapshots ``C(t)`` and citation windows.
* :mod:`repro.graph.statistics` — citation-age distribution (Figure 1a),
  per-paper yearly trajectories (Figure 1b) and summaries.
"""

from repro.graph.builder import NetworkBuilder
from repro.graph.cache import (
    cached_keys,
    clear_derived,
    derived_store,
    memoize_on,
)
from repro.graph.citation_network import CitationNetwork
from repro.graph.ids import IdTable
from repro.graph.matrix import (
    StochasticOperator,
    column_stochastic,
    is_column_stochastic,
    shared_operator,
)
from repro.graph.statistics import (
    NetworkSummary,
    citation_age_counts,
    citation_age_distribution,
    citations_per_year,
    summarize,
    top_cited,
    yearly_citations,
)
from repro.graph.temporal import (
    chronological_order,
    citation_counts_between,
    citations_in_window,
    papers_published_until,
    prefix_by_count,
    snapshot_at,
)

__all__ = [
    "CitationNetwork",
    "IdTable",
    "NetworkBuilder",
    "StochasticOperator",
    "column_stochastic",
    "is_column_stochastic",
    "shared_operator",
    "cached_keys",
    "clear_derived",
    "derived_store",
    "memoize_on",
    "NetworkSummary",
    "citation_age_counts",
    "citation_age_distribution",
    "citations_per_year",
    "summarize",
    "top_cited",
    "yearly_citations",
    "chronological_order",
    "citation_counts_between",
    "citations_in_window",
    "papers_published_until",
    "prefix_by_count",
    "snapshot_at",
]
