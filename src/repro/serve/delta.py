"""Deltas — batches of new papers and citations — and their application.

A :class:`NetworkDelta` is the serving layer's unit of ingest: the
papers and citation edges that arrived since the index's snapshot was
built (in a deployment, one harvesting cycle of the bibliographic
sources).  :class:`DeltaUpdater` applies a delta to a
:class:`~repro.serve.ScoreIndex`:

1. extend the snapshot through the graph layer
   (:meth:`NetworkBuilder.extending`), preserving existing paper
   indices.  The extension shares the snapshot's append-only id table
   (:mod:`repro.graph.ids`), so its per-paper work touches only the
   delta's papers, and its operator, in-degrees and citation-age counts
   are updated from the snapshot's instead of rebuilt;
2. re-solve every indexed method, **warm-starting** from the previous
   solution wherever the method supports it (paper Theorem 1 makes the
   fixed point start-independent, so warm starts change iteration
   counts, never results);
3. bump the index version, which invalidates downstream result caches,
   and route the new papers to their shards
   (:meth:`~repro.serve.ShardedScoreIndex.sync`), again touching only
   the delta's papers.

Work that still grows with the corpus on every delta: the numeric
columns are concatenated, the attention window and recency vector are
recomputed, every shard's scores are re-sliced and re-sorted, and the
warm solve runs over the whole graph.

For small deltas the warm start lands close to the new fixed point and
the re-solve converges in a fraction of the cold iteration count — the
property ``benchmarks/bench_serve_incremental.py`` measures.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.errors import ConfigurationError, DataFormatError
from repro.graph.builder import MissingRefPolicy, NetworkBuilder
from repro.graph.citation_network import CitationNetwork
from repro.obs.logging import get_logger
from repro.obs.registry import REGISTRY
from repro.obs.trace import span
from repro.serve.score_index import MethodEntry, ScoreIndex

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    from repro.serve.shard import ShardedScoreIndex

__all__ = ["NetworkDelta", "DeltaUpdater", "UpdateReport", "delta_between"]

_LOG = get_logger("serve.delta")

_APPLY_SECONDS = REGISTRY.histogram(
    "repro_update_apply_seconds",
    "Wall-clock seconds per applied delta (extend + re-solve + sync).",
)
_PAPERS_TOTAL = REGISTRY.counter(
    "repro_update_papers_total",
    "New papers applied through delta updates.",
)
_CITATIONS_TOTAL = REGISTRY.counter(
    "repro_update_citations_total",
    "New citation edges applied through delta updates.",
)
_TOUCHED_SHARDS = REGISTRY.gauge(
    "repro_update_last_touched_shards",
    "Shards that gained papers in the most recent delta.",
)


@dataclass(frozen=True)
class NetworkDelta:
    """New papers and citations to append to a snapshot.

    Attributes
    ----------
    papers:
        ``(paper_id, publication_time)`` pairs for the new papers, in
        the order they should be appended.
    citations:
        ``(citing_id, cited_id)`` pairs.  Citing papers must be new
        (reference lists of published papers are fixed); cited papers
        may be new or already in the snapshot.
    """

    papers: tuple[tuple[str, float], ...]
    citations: tuple[tuple[str, str], ...]

    @property
    def n_papers(self) -> int:
        """Number of new papers in the delta."""
        return len(self.papers)

    @property
    def n_citations(self) -> int:
        """Number of new citation edges in the delta."""
        return len(self.citations)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NetworkDelta(n_papers={self.n_papers}, "
            f"n_citations={self.n_citations})"
        )

    @classmethod
    def from_mapping(cls, payload: Mapping) -> "NetworkDelta":
        """Build a delta from the JSON-dict layout of :meth:`to_json`."""
        try:
            papers = tuple(
                (str(p["id"]), float(p["time"])) for p in payload["papers"]
            )
            citations = tuple(
                (str(a), str(b)) for a, b in payload.get("citations", [])
            )
        except (KeyError, TypeError, ValueError) as error:
            raise DataFormatError(f"malformed delta payload: {error}") from None
        return cls(papers=papers, citations=citations)

    @classmethod
    def from_json_file(cls, path: str) -> "NetworkDelta":
        """Load a delta from a JSON file.

        Expected layout::

            {"papers": [{"id": "p1", "time": 2020.5}, ...],
             "citations": [["p1", "p0"], ...]}
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as error:
            raise DataFormatError(f"cannot read delta file: {error}") from None
        except json.JSONDecodeError as error:
            raise DataFormatError(
                f"{path}: invalid JSON ({error})"
            ) from None
        return cls.from_mapping(payload)

    def to_json(self) -> str:
        """Serialise to the JSON layout :meth:`from_json_file` reads."""
        return json.dumps(
            {
                "papers": [
                    {"id": pid, "time": t} for pid, t in self.papers
                ],
                "citations": [list(pair) for pair in self.citations],
            }
        )


def delta_between(
    base: CitationNetwork, full: CitationNetwork
) -> NetworkDelta:
    """The delta that grows ``base`` into ``full``.

    ``full`` must contain every paper of ``base``; the delta consists of
    the remaining papers (in ``full``'s index order) and all of
    ``full``'s edges whose citing paper is one of them.  Used by tests
    and benchmarks to replay the arrival of the newest slice of a corpus
    on top of an older snapshot.
    """
    new_indices = [
        i for i, pid in enumerate(full.paper_ids) if pid not in base
    ]
    if len(new_indices) + base.n_papers != full.n_papers:
        raise ConfigurationError(
            "base contains papers that are absent from the full network"
        )
    new_set = set(new_indices)
    papers = tuple(
        (full.id_of(i), float(full.publication_times[i])) for i in new_indices
    )
    citations = tuple(
        (full.id_of(int(c)), full.id_of(int(d)))
        for c, d in zip(full.citing, full.cited)
        if int(c) in new_set
    )
    if base.n_citations + len(citations) != full.n_citations:
        # Edges we cannot express as a delta: full has citations from
        # papers already in base (retroactive references), or base has
        # edges full lacks.  Applying the delta would silently produce a
        # network different from ``full``.
        raise ConfigurationError(
            "base is not an induced prefix of full: "
            f"{base.n_citations} base + {len(citations)} delta citations "
            f"!= {full.n_citations} in full"
        )
    return NetworkDelta(papers=papers, citations=citations)


@dataclass(frozen=True)
class UpdateReport:
    """What one :meth:`DeltaUpdater.apply` call did.

    Attributes
    ----------
    version:
        Index version after the update.
    n_new_papers, n_new_citations:
        Size of the applied delta (citations counted after reference
        resolution, i.e. excluding skipped out-of-collection targets).
    n_papers:
        Total papers in the refreshed snapshot.
    entries:
        The refreshed per-method entries (iteration counts of the
        warm-started solves included).
    elapsed_seconds:
        Wall-clock time of extend + re-solve.
    touched_shards:
        Shard ids that gained papers, when the updater routes to a
        :class:`~repro.serve.ShardedScoreIndex` (empty otherwise).
    """

    version: int
    n_new_papers: int
    n_new_citations: int
    n_papers: int
    entries: Mapping[str, MethodEntry]
    elapsed_seconds: float
    touched_shards: tuple[int, ...] = ()


class DeltaUpdater:
    """Applies :class:`NetworkDelta` batches to a :class:`ScoreIndex`.

    Parameters
    ----------
    index:
        The index to update in place.
    missing_references:
        Policy for citations whose cited id is in neither the snapshot
        nor the delta: ``"skip"`` (default) drops them, ``"error"``
        raises — mirroring :class:`~repro.graph.NetworkBuilder`.
    sharded:
        An attached :class:`~repro.serve.ShardedScoreIndex` over the
        same index.  When given, every applied delta is routed through
        :meth:`~repro.serve.ShardedScoreIndex.sync` and the report
        records which shards gained papers.
    """

    def __init__(
        self,
        index: ScoreIndex,
        *,
        missing_references: MissingRefPolicy = "skip",
        sharded: ShardedScoreIndex | None = None,
    ) -> None:
        self._index = index
        self._policy: MissingRefPolicy = missing_references
        self._sharded = sharded

    @property
    def index(self) -> ScoreIndex:
        """The score index this updater mutates in place."""
        return self._index

    def extend_network(self, delta: NetworkDelta) -> CitationNetwork:
        """The snapshot grown by ``delta`` (without re-solving anything)."""
        if delta.n_papers == 0 and delta.n_citations == 0:
            raise ConfigurationError("empty delta: nothing to apply")
        builder = NetworkBuilder.extending(
            self._index.network, missing_references=self._policy
        )
        references: dict[str, list[str]] = {pid: [] for pid, _ in delta.papers}
        for citing_id, cited_id in delta.citations:
            if citing_id not in references:
                raise ConfigurationError(
                    f"citation from {citing_id!r}, which is not a paper of "
                    "this delta; published papers cannot gain references"
                )
            references[citing_id].append(cited_id)
        for pid, pub_time in delta.papers:
            builder.add_paper(pid, pub_time, references=references[pid])
        return builder.build()

    def apply(self, delta: NetworkDelta) -> UpdateReport:
        """Extend the snapshot, re-solve all methods, bump the version.

        With an attached shard store, the new papers are then routed to
        their shards and the new version is published, as one snapshot
        swap (:meth:`ShardedScoreIndex.sync`); readers see the update
        from that swap on.
        """
        started = time.perf_counter()
        before = self._index.network
        with span(
            "delta.apply",
            papers=delta.n_papers,
            citations=delta.n_citations,
        ) as sp:
            with span("delta.extend"):
                extended = self.extend_network(delta)
            with span("delta.refresh"):
                entries = self._index.refresh(extended)
            touched: tuple[int, ...] = ()
            if self._sharded is not None:
                with span("delta.sync"):
                    touched = self._sharded.sync()
            if sp is not None:
                sp.set(
                    version=self._index.version,
                    touched_shards=list(touched),
                )
        elapsed = time.perf_counter() - started
        report = UpdateReport(
            version=self._index.version,
            n_new_papers=extended.n_papers - before.n_papers,
            n_new_citations=extended.n_citations - before.n_citations,
            n_papers=extended.n_papers,
            entries=entries,
            elapsed_seconds=elapsed,
            touched_shards=touched,
        )
        _APPLY_SECONDS.observe(elapsed)
        _PAPERS_TOTAL.inc(report.n_new_papers)
        _CITATIONS_TOTAL.inc(report.n_new_citations)
        _TOUCHED_SHARDS.set(len(touched))
        _LOG.info(
            "delta applied",
            extra={
                "version": report.version,
                "new_papers": report.n_new_papers,
                "new_citations": report.n_new_citations,
                "n_papers": report.n_papers,
                "touched_shards": len(touched),
                "ms": round(elapsed * 1e3, 3),
            },
        )
        return report
