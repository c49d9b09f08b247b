"""Descriptive statistics of citation networks.

This module provides the empirical quantities the paper analyses before
introducing AttRank:

* the **citation-age distribution** — the fraction of all citations that
  arrive ``n`` years after the cited paper's publication (Figure 1a),
  whose exponential tail calibrates the recency weight ``w`` (Eq. 3);
* **yearly citation trajectories** of individual papers (Figure 1b);
* summary statistics used by loaders, generators and reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._typing import FloatVector, IntVector
from repro.errors import GraphError
from repro.graph.cache import cached_value, memoize_on
from repro.graph.citation_network import CitationNetwork

__all__ = [
    "citation_age_counts",
    "citation_age_distribution",
    "yearly_citations",
    "citations_per_year",
    "top_cited",
    "NetworkSummary",
    "summarize",
]


def citation_age_counts(
    network: CitationNetwork,
    *,
    max_age: int = 10,
) -> tuple[IntVector, int]:
    """Citations per whole-year age ``0 .. max_age``, and all non-negative ones.

    Returns ``(counts, total)``: ``counts[n]`` citations were made ``n``
    whole years (``floor(t_citing - t_cited)``) after the cited paper's
    publication, and ``total`` counts every citation of non-negative
    age.  Memoised per network; an extension whose parent's counts are
    cached (see :attr:`CitationNetwork.parent`) adds only the appended
    citations' ages to them.
    """
    key = ("citation_age_counts", int(max_age))

    def build() -> tuple[IntVector, int]:
        parent = network.parent
        base = None if parent is None else cached_value(parent, key)
        start = 0 if base is None else parent.n_citations
        times = network.publication_times
        ages = np.floor(
            times[network.citing[start:]] - times[network.cited[start:]]
        ).astype(np.int64)
        ages = ages[ages >= 0]
        counts = np.bincount(ages[ages <= max_age], minlength=max_age + 1)
        total = int(ages.size)
        if base is not None:
            counts += base[0]
            total += base[1]
        counts.setflags(write=False)
        return counts, total

    return memoize_on(network, key, build)


def citation_age_distribution(
    network: CitationNetwork,
    *,
    max_age: int = 10,
) -> FloatVector:
    """Empirical distribution of citation ages, as in the paper's Figure 1a.

    Entry ``n`` (for ``n`` in ``0 .. max_age``) is the fraction of *all*
    citations in the network that were made ``n`` whole years after the
    publication of the cited paper.  Citation age is measured as
    ``floor(t_citing - t_cited)`` and negative ages (data noise) are
    discarded.  The returned vector sums to the fraction of citations with
    age <= ``max_age`` (i.e. it is *not* renormalised — exactly the "% of
    citations" y-axis of Figure 1a, divided by 100).  The counts come
    from :func:`citation_age_counts`.

    Raises
    ------
    GraphError
        If the network has no citations.
    """
    if network.n_citations == 0:
        raise GraphError("citation-age distribution of an edgeless network")
    counts, total = citation_age_counts(network, max_age=max_age)
    if total == 0:
        raise GraphError("all citations have negative age; check the data")
    return counts / total


def yearly_citations(
    network: CitationNetwork,
    paper: int | str,
    *,
    first_year: int | None = None,
    last_year: int | None = None,
) -> tuple[IntVector, IntVector]:
    """Yearly citation counts of one paper (the Figure 1b trajectories).

    Returns ``(years, counts)`` where ``years`` are whole calendar years
    and ``counts[k]`` is the number of citations made to ``paper`` during
    year ``years[k]``.  The range defaults to the span from the paper's
    publication year to the network's latest year.
    """
    index = network.index_of(paper) if isinstance(paper, str) else int(paper)
    if not 0 <= index < network.n_papers:
        raise GraphError(f"paper index {index} out of range")
    received = network.cited == index
    made_at = network.citation_times()[received]
    start = int(np.floor(network.publication_times[index]))
    end = int(np.floor(network.latest_time))
    if first_year is not None:
        start = int(first_year)
    if last_year is not None:
        end = int(last_year)
    if end < start:
        raise GraphError(f"empty year range [{start}, {end}]")
    years = np.arange(start, end + 1, dtype=np.int64)
    counts = np.zeros(years.size, dtype=np.int64)
    offsets = np.floor(made_at).astype(np.int64) - start
    valid = (offsets >= 0) & (offsets < years.size)
    np.add.at(counts, offsets[valid], 1)
    return years, counts


def citations_per_year(network: CitationNetwork) -> tuple[IntVector, IntVector]:
    """Total citations made per calendar year, over the whole network."""
    if network.n_citations == 0:
        raise GraphError("network has no citations")
    made_at = np.floor(network.citation_times()).astype(np.int64)
    start, end = int(made_at.min()), int(made_at.max())
    years = np.arange(start, end + 1, dtype=np.int64)
    counts = np.zeros(years.size, dtype=np.int64)
    np.add.at(counts, made_at - start, 1)
    return years, counts


def top_cited(
    network: CitationNetwork,
    k: int,
    *,
    since: float | None = None,
) -> IntVector:
    """Indices of the ``k`` most-cited papers, optionally counting only
    citations made after ``since``.

    Ties are broken deterministically by paper index.  Used by the
    "recently popular" analysis behind the paper's Table 1.
    """
    if k < 0:
        raise GraphError(f"k must be non-negative, got {k}")
    if since is None:
        counts = network.in_degree.astype(np.float64)
    else:
        from repro.graph.temporal import citation_counts_between

        counts = citation_counts_between(network, since, np.inf)
    order = np.lexsort((np.arange(network.n_papers), -counts))
    return order[:k].astype(np.int64)


@dataclass(frozen=True)
class NetworkSummary:
    """Headline statistics of a citation network."""

    n_papers: int
    n_citations: int
    n_authors: int
    n_venues: int
    first_year: float
    last_year: float
    mean_references: float
    mean_citations: float
    dangling_fraction: float

    def as_rows(self) -> list[tuple[str, str]]:
        """Render as (label, value) rows for report tables."""
        return [
            ("papers", f"{self.n_papers:,}"),
            ("citations", f"{self.n_citations:,}"),
            ("authors", f"{self.n_authors:,}"),
            ("venues", f"{self.n_venues:,}"),
            ("years", f"{self.first_year:.0f}-{self.last_year:.0f}"),
            ("mean references", f"{self.mean_references:.2f}"),
            ("mean citations", f"{self.mean_citations:.2f}"),
            ("dangling fraction", f"{self.dangling_fraction:.3f}"),
        ]


def summarize(network: CitationNetwork) -> NetworkSummary:
    """Compute a :class:`NetworkSummary` for ``network``."""
    if network.n_papers == 0:
        raise GraphError("cannot summarise an empty network")
    times = network.publication_times
    n = network.n_papers
    return NetworkSummary(
        n_papers=n,
        n_citations=network.n_citations,
        n_authors=network.n_authors,
        n_venues=network.n_venues,
        first_year=float(times.min()),
        last_year=float(times.max()),
        mean_references=float(network.out_degree.mean()),
        mean_citations=float(network.in_degree.mean()),
        dangling_fraction=float(network.dangling_mask.mean()),
    )
