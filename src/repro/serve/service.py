"""The query front end: top-k rankings over a live score index.

:class:`RankingService` is the piece a web tier would sit on.  It
answers read queries — paginated top-k lists, year-range filtered
rankings, multi-method comparisons, single-paper lookups — and funnels
write traffic (deltas, refreshes) through a
:class:`~repro.serve.DeltaUpdater`.

The service owns a :class:`~repro.serve.ShardedScoreIndex` (a
single-shard store by default — the unsharded service is just the
``shards=1`` special case) and delegates every read to a
:class:`~repro.serve.QueryEngine`, the same engine that serves batched
multi-shard traffic.

One publication rule keeps reads consistent with writes:

* **Readers pin.**  Every read is a batch (:meth:`top_k`,
  :meth:`compare` and :meth:`paper` are one-element batches), and a
  batch pins the store's published
  :class:`~repro.serve.StoreSnapshot` once: its cache lookups, its
  engine misses and any per-query retry all answer from that snapshot
  and are stamped with its version.  Readers never look at the
  :class:`~repro.serve.ScoreIndex`.
* **Writers publish.**  :meth:`update` and :meth:`refresh` re-solve
  off to the side and publish the new version as ONE snapshot swap
  (:meth:`ShardedScoreIndex.sync`), then clear the result cache.  A
  write killed before that swap publishes nothing: readers stay on the
  last published version, and the next write's sync publishes
  everything the index holds.

The result cache keys on the pinned snapshot's version and labels, so
an entry is only served to a batch pinned on the same publication —
even after a publish that adds a method without moving the version.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import ConfigurationError
from repro.graph.builder import MissingRefPolicy
from repro.obs.trace import span as trace_span
from repro.serve.batch import (
    CompareQuery,
    PaperQuery,
    Query,
    QueryEngine,
    TopKQuery,
    _normalise_page,
)
from repro.serve.cache import CacheStats, LRUCache
from repro.serve.delta import DeltaUpdater, NetworkDelta, UpdateReport
from repro.serve.results import (
    MethodComparison,
    PaperDetails,
    QueryResult,
    RankedPaper,
)
from repro.serve.score_index import MethodEntry, ScoreIndex
from repro.serve.shard import ShardedScoreIndex, StoreSnapshot

__all__ = [
    "RankingService",
    "QueryResult",
    "RankedPaper",
    "MethodComparison",
    "PaperDetails",
]


class RankingService:
    """Serve ranking queries from a score index.

    Parameters
    ----------
    index:
        The (live) score index; the service's writes update it in place
        and publish it to the shard store.
    cache_size:
        Capacity of the LRU result cache.
    missing_references:
        Reference-resolution policy for incoming deltas.
    shards:
        Partition count of the underlying shard store.  ``1`` (the
        default) serves exactly like the historical unsharded service;
        any other count produces bit-identical results while spreading
        per-shard work.
    partitioner:
        ``"hash"`` (default) or ``"year"`` — see
        :class:`~repro.serve.ShardedScoreIndex`.

    Examples
    --------
    >>> from repro.serve import ScoreIndex
    >>> from repro.synth import toy_network
    >>> index = ScoreIndex(toy_network())
    >>> index.add_method("CC")
    >>> service = RankingService(index)
    >>> service.top_k("CC", k=2).paper_ids
    ('A', 'C')
    """

    def __init__(
        self,
        index: ScoreIndex,
        *,
        cache_size: int = 128,
        missing_references: MissingRefPolicy = "skip",
        shards: int = 1,
        partitioner: str = "hash",
    ) -> None:
        self._index = index
        self._sharded = ShardedScoreIndex.from_index(
            index, n_shards=shards, partitioner=partitioner
        )
        self._engine = QueryEngine(self._sharded)
        self._updater = DeltaUpdater(
            index,
            missing_references=missing_references,
            sharded=self._sharded,
        )
        self._cache = LRUCache(maxsize=cache_size)

    @property
    def index(self) -> ScoreIndex:
        """The score index writes re-solve (reads use :attr:`sharded`)."""
        return self._index

    @property
    def engine(self) -> QueryEngine:
        """The batched query engine reads are delegated to."""
        return self._engine

    @property
    def sharded(self) -> ShardedScoreIndex:
        """The shard store backing the engine (the published snapshot)."""
        return self._sharded

    @property
    def version(self) -> int:
        """The published version: what a read started now is stamped with.

        Moves only when a write publishes (:meth:`update`,
        :meth:`refresh`).
        """
        return self._sharded.version

    def cache_stats(self) -> CacheStats:
        """Hit/miss/eviction/invalidation counters of the result cache."""
        return self._cache.stats()

    # ------------------------------------------------------------------
    # Reads (each a one-element batch)
    # ------------------------------------------------------------------
    def top_k(
        self,
        method: str = "AR",
        *,
        k: int = 10,
        offset: int = 0,
        year_range: tuple[float, float] | None = None,
    ) -> QueryResult:
        """One page of the ranking by ``method``.

        Parameters
        ----------
        method:
            Indexed method label.
        k:
            Page size (rows returned; fewer when the population runs
            out).
        offset:
            Rows to skip — page ``p`` of size ``k`` is
            ``offset = p * k``.
        year_range:
            Inclusive ``(lo, hi)`` publication-time filter; ranks are
            renumbered within the filtered population.
        """
        query = TopKQuery(
            method=method, k=k, offset=offset, year_range=year_range
        )
        return self.execute_batch([query])[1][0]

    def compare(
        self,
        methods: Sequence[str],
        *,
        k: int = 10,
        offset: int = 0,
        year_range: tuple[float, float] | None = None,
    ) -> MethodComparison:
        """The same result page of several methods, with overlaps.

        Overlaps count shared papers *within the requested page* of each
        pair of methods.  Repeated comparisons ride the result cache.
        """
        query = CompareQuery(
            methods=tuple(methods), k=k, offset=offset,
            year_range=year_range,
        )
        return self.execute_batch([query])[1][0]

    def paper(self, paper_id: str) -> PaperDetails:
        """Scores and (unfiltered) ranks of one paper across all methods."""
        return self.execute_batch([PaperQuery(paper_id=str(paper_id))])[1][0]

    # ------------------------------------------------------------------
    # Batched reads through the result cache
    # ------------------------------------------------------------------
    @staticmethod
    def _normalise_query(query: Query) -> Query:
        """Validate one query and canonicalise it for caching."""
        if isinstance(query, TopKQuery):
            span = _normalise_page(query.k, query.offset, query.year_range)
            return TopKQuery(
                method=query.method.upper(), k=query.k,
                offset=query.offset, year_range=span,
            )
        if isinstance(query, CompareQuery):
            span = _normalise_page(query.k, query.offset, query.year_range)
            labels = tuple(m.upper() for m in query.methods)
            if len(set(labels)) != len(labels):
                raise ConfigurationError(
                    "duplicate method labels in comparison"
                )
            return CompareQuery(
                methods=labels, k=query.k, offset=query.offset,
                year_range=span,
            )
        if isinstance(query, PaperQuery):
            return PaperQuery(paper_id=str(query.paper_id))
        raise ConfigurationError(
            f"unsupported query type: {type(query).__name__}"
        )

    @staticmethod
    def _batch_key(snap: StoreSnapshot, query: Query) -> tuple:
        """Cache key of one normalised query on one pinned snapshot.

        The snapshot's ``(version, labels)`` leads the key: a publish
        either moves the version or adds a method, and the key holds
        no reference to the snapshot's shards, so a stale entry keeps
        only its page alive.  The shapes cannot collide: a compare key
        carries a *tuple* of labels where a top-k key carries a string,
        and a paper key has a different arity altogether.
        """
        pin = (snap.version, snap.labels)
        if isinstance(query, TopKQuery):
            return (
                pin, query.method, query.k, query.offset,
                query.year_range,
            )
        if isinstance(query, CompareQuery):
            return (
                pin, query.methods, query.k, query.offset,
                query.year_range,
            )
        assert isinstance(query, PaperQuery)
        return (pin, "paper", query.paper_id)

    def execute_batch(
        self,
        queries: Sequence[Query],
        *,
        snapshot: StoreSnapshot | None = None,
    ) -> tuple[int, tuple[Any, ...]]:
        """Answer a query batch through the result cache and the engine.

        The service's one read path, which the gateway's request
        coalescer drives too: the batch pins ``snapshot`` (default: the
        published one) once, every query is looked up in the LRU result
        cache under that snapshot, the misses are executed as
        ONE engine batch on the same snapshot (amortising the shard
        fan-out), and the computed results are cached for the next
        flood.  Returns ``(version, results)`` in request order; every
        result is bit-identical to a single-query read at that version.
        """
        normalised = [self._normalise_query(query) for query in queries]
        snap = snapshot if snapshot is not None else self._sharded.snapshot()
        keys = [self._batch_key(snap, query) for query in normalised]
        results: list[Any] = [None] * len(normalised)
        misses: list[int] = []
        with trace_span(
            "service.cache_lookup", queries=len(normalised)
        ) as sp:
            for position, key in enumerate(keys):
                cached = self._cache.get(key)
                if cached is None:
                    misses.append(position)
                else:
                    results[position] = cached
            if sp is not None:
                sp.set(
                    hits=len(normalised) - len(misses),
                    misses=len(misses),
                )
        if misses:
            _, computed = self._engine.execute_versioned(
                [normalised[position] for position in misses],
                snapshot=snap,
            )
            for position, value in zip(misses, computed):
                self._cache.put(keys[position], value)
                results[position] = value
        return snap.version, tuple(results)

    # ------------------------------------------------------------------
    # Writes (each publishes one snapshot)
    # ------------------------------------------------------------------
    def update(self, delta: NetworkDelta) -> UpdateReport:
        """Apply a delta: extend, warm re-solve, publish, invalidate.

        The cache clear is belt-and-braces with the version-keyed
        cache entries: keys of the old version could never be served
        again anyway, but dropping them frees their pages at the moment
        they become dead instead of waiting for LRU eviction.  A batch
        pinned before the publish may still put its old-version pages
        afterwards; the next publish or LRU eviction drops those.
        """
        report = self._updater.apply(delta)
        self._cache.clear()
        return report

    def refresh(self) -> dict[str, MethodEntry]:
        """Re-solve every method cold on the current network and publish.

        Cold means from the canonical start, so the scores equal a
        fresh build's (:meth:`~repro.stream.StreamIngestor.finalize`
        relies on that).  Returns the refreshed entries; the version
        moves by one.
        """
        entries = self._index.refresh(warm=False)
        self._sharded.sync()
        self._cache.clear()
        return entries
