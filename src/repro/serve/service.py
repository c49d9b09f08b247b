"""The query front end: top-k rankings over a live score index.

:class:`RankingService` is the piece a web tier would sit on.  It
answers read queries — paginated top-k lists, year-range filtered
rankings, multi-method comparisons, single-paper lookups — and funnels
write traffic (deltas) through a :class:`~repro.serve.DeltaUpdater`.

Since the sharding refactor the service no longer reads score vectors
directly: it owns a :class:`~repro.serve.ShardedScoreIndex` (a
single-shard store by default — the unsharded service is just the
``shards=1`` special case) and delegates every read to a
:class:`~repro.serve.QueryEngine`, the same engine that serves batched
multi-shard traffic.  What the service adds on top of the engine:

* an LRU result cache whose keys include the serving-state version, so
  a delta update implicitly invalidates every cached page;
* write plumbing — :meth:`update` applies a delta, routes the growth to
  the affected shards, and clears the cache;
* freshness tracking — an out-of-band :meth:`ScoreIndex.refresh` is
  detected by version mismatch and the shard store re-synced before the
  next read.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro._typing import IntVector
from repro.errors import ConfigurationError
from repro.graph.builder import MissingRefPolicy
from repro.obs.trace import span as trace_span
from repro.ranking import ranking_from_scores
from repro.serve.batch import (
    CompareQuery,
    PaperQuery,
    Query,
    QueryEngine,
    TopKQuery,
    _normalise_page,
    pairwise_overlap,
)
from repro.serve.cache import CacheStats, LRUCache
from repro.serve.delta import DeltaUpdater, NetworkDelta, UpdateReport
from repro.serve.results import (
    MethodComparison,
    PaperDetails,
    QueryResult,
    RankedPaper,
)
from repro.serve.score_index import ScoreIndex
from repro.serve.shard import ShardedScoreIndex

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
        The (live) score index; the service updates it in place.
    cache_size:
        Capacity of the LRU result cache.
    missing_references:
        Reference-resolution policy for incoming deltas.
    warm:
        Warm-start re-solves on update (default; cold mode exists for
        benchmarking).
    shards:
        Partition count of the underlying shard store.  ``1`` (the
        default) serves exactly like the historical unsharded service;
        any other count produces bit-identical results while spreading
        per-shard work.
    partitioner:
        ``"hash"`` (default) or ``"year"`` — see
        :class:`~repro.serve.ShardedScoreIndex`.
    jobs:
        Worker threads for the per-shard phase of each query
        (``1`` = serial, ``0`` = all cores).

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
        warm: bool = True,
        shards: int = 1,
        partitioner: str = "hash",
        jobs: int | None = 1,
    ) -> None:
        self._index = index
        self._sharded = ShardedScoreIndex.from_index(
            index, n_shards=shards, partitioner=partitioner
        )
        self._engine = QueryEngine(self._sharded, jobs=jobs)
        self._updater = DeltaUpdater(
            index,
            missing_references=missing_references,
            warm=warm,
            sharded=self._sharded,
        )
        self._cache = LRUCache(maxsize=cache_size)

    @property
    def index(self) -> ScoreIndex:
        """The score index queries are answered from."""
        return self._index

    @property
    def engine(self) -> QueryEngine:
        """The batched query engine reads are delegated to."""
        return self._engine

    @property
    def sharded(self) -> ShardedScoreIndex:
        """The shard store backing the engine."""
        return self._sharded

    @property
    def version(self) -> int:
        """Current index version (bumped by :meth:`update`)."""
        return self._index.version

    def cache_stats(self) -> CacheStats:
        """Hit/miss/eviction counters of the result cache."""
        return self._cache.stats()

    @property
    def _rankings(self) -> dict[str, tuple[int, IntVector]]:
        """Back-compat view of the memoised rankings.

        Historically the service memoised one full permutation per
        method as ``label -> (version, order)``; the permutations now
        live per shard inside the engine.  This property reassembles
        that mapping (for the labels whose shard orders are warm) so
        diagnostics and tests keep one stable surface.
        """
        snap = self._sharded.snapshot()
        rankings: dict[str, tuple[int, IntVector]] = {}
        for label in self._engine.warm_methods():
            full = np.empty(snap.n_papers, dtype=np.float64)
            for shard in snap.iter_shards():
                full[shard.global_indices] = shard.scores[label]
            rankings[label] = (snap.version, ranking_from_scores(full))
        return rankings

    # ------------------------------------------------------------------
    # Freshness
    # ------------------------------------------------------------------
    def _fresh_version(self) -> int:
        """Sync the shard store if the index moved underneath us.

        `ScoreIndex.refresh` and `ScoreIndex.add_method` can be called
        directly (warm-start benchmarks register methods late, and a
        stream replay's :meth:`~repro.stream.StreamIngestor.finalize`
        re-solves out of band); a version or label mismatch is the
        signal that the shard slices are stale.  A *version* change
        additionally invalidates the result cache: entries keyed by
        older versions can never be served again, and letting them
        squat in the LRU until capacity evicts them would push out live
        pages — on a long replay, every micro-batch would poison the
        cache a little more.
        """
        if self._sharded.version != self._index.version:
            self._sharded.sync()
            self._cache.clear()
        elif self._sharded.labels != self._index.labels:
            self._sharded.sync()
        return self._sharded.version

    # ------------------------------------------------------------------
    # Reads
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
        label = method.upper()
        span = _normalise_page(k, offset, year_range)
        version = self._fresh_version()
        cache_key = (version, label, k, offset, span)
        cached = self._cache.get(cache_key)
        if cached is not None:
            return cached
        result = self._engine.top_k(
            label, k=k, offset=offset, year_range=span
        )
        self._cache.put(cache_key, result)
        return result

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
        pair of methods.  Pages go through :meth:`top_k`, so repeated
        comparisons ride the result cache.
        """
        labels = [m.upper() for m in methods]
        if len(set(labels)) != len(labels):
            raise ConfigurationError("duplicate method labels in comparison")
        results = {
            label: self.top_k(
                label, k=k, offset=offset, year_range=year_range
            )
            for label in labels
        }
        return MethodComparison(
            results=results, overlap=pairwise_overlap(results)
        )

    def paper(self, paper_id: str) -> PaperDetails:
        """Scores and (unfiltered) ranks of one paper across all methods."""
        self._fresh_version()
        return self._engine.paper(paper_id)

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
    def _batch_key(version: int, query: Query) -> tuple:
        """Cache key of one normalised query at one version.

        :class:`TopKQuery` keys deliberately match the ones
        :meth:`top_k` writes, so the batched gateway path and the
        single-query path share cache entries.  The other shapes cannot
        collide: a compare key carries a *tuple* of labels where a
        top-k key carries a string, and a paper key has a different
        arity altogether.
        """
        if isinstance(query, TopKQuery):
            return (
                version, query.method, query.k, query.offset,
                query.year_range,
            )
        if isinstance(query, CompareQuery):
            return (
                version, query.methods, query.k, query.offset,
                query.year_range,
            )
        assert isinstance(query, PaperQuery)
        return (version, "paper", query.paper_id)

    def execute_batch(
        self, queries: Sequence[Query]
    ) -> tuple[int, tuple[Any, ...]]:
        """Answer a query batch through the result cache and the engine.

        The read path the gateway's request coalescer drives: every
        query is first looked up in the LRU result cache (under the
        fresh version), the misses are executed as ONE engine batch
        (amortising the shard fan-out), and the computed results are
        cached for the next flood.  Returns ``(version, results)`` in
        request order; each result is exactly the object the
        corresponding single-query method would return — bit-identical
        to :meth:`top_k` / :meth:`compare` / :meth:`paper` calls at the
        same version.
        """
        normalised = [self._normalise_query(query) for query in queries]
        while True:
            version = self._fresh_version()
            keys = [
                self._batch_key(version, query) for query in normalised
            ]
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
            if not misses:
                return version, tuple(results)
            engine_version, computed = self._engine.execute_versioned(
                tuple(normalised[position] for position in misses)
            )
            if engine_version != version:
                # The store moved between the cache lookups and the
                # engine pinning its snapshot (an out-of-band refresh
                # from another thread).  Mixing version-N cache hits
                # with version-N+1 computations — or caching the new
                # results under the old key — would break the method's
                # single-version promise; retry against the new state.
                continue
            for position, value in zip(misses, computed):
                self._cache.put(keys[position], value)
                results[position] = value
            return version, tuple(results)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def update(self, delta: NetworkDelta) -> UpdateReport:
        """Apply a delta: extend, warm re-solve, re-shard, invalidate.

        The cache clear is belt-and-braces with the version-keyed
        cache entries: keys of the old version could never be served
        again anyway, but dropping them releases the memory at the
        moment it becomes dead instead of waiting for LRU eviction.
        """
        report = self._updater.apply(delta)
        self._cache.clear()
        return report
