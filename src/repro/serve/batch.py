"""The batched query engine over a sharded score store.

An academic search engine does not receive one query at a time — it
receives floods of heterogeneous requests: front-page top-k lists,
year-filtered pages, method comparisons, per-paper score lookups.
:class:`QueryEngine` accepts *batches* of such queries
(:class:`TopKQuery` / :class:`PaperQuery` / :class:`CompareQuery`),
plans the work they share, executes it shard by shard in the calling
thread, and k-way merges per-shard candidates into global results (a
vectorised merge: each shard contributes its best ``offset + k`` rows,
one ``lexsort`` on the ranking comparator re-ranks the pooled
candidates).

The planning step is where batching pays: every distinct
``(method, year-span)`` ranking needed anywhere in the batch is
computed **once per shard** at the deepest requested depth, no matter
how many pages, comparisons, or lookups ask for it.  The merge then
assembles each query's result in request order, so results are
deterministic and *bit-identical* to issuing the same queries one at a
time against an unsharded
:class:`~repro.serve.RankingService` — the acceptance property the
shard-count {1, 2, 7} tests pin down.

``repro query --batch FILE`` drives this engine from the command line;
:func:`queries_from_file` documents the JSON request format.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence, Union

import numpy as np

from repro.errors import (
    ConfigurationError,
    DataFormatError,
    GraphError,
    ReproError,
)
from repro.obs.registry import REGISTRY
from repro.obs.trace import span as trace_span
from repro.serve.results import (
    MethodComparison,
    PaperDetails,
    QueryResult,
    RankedPaper,
)
from repro.serve.shard import Shard, ShardedScoreIndex, StoreSnapshot

__all__ = [
    "QueryEngine",
    "TopKQuery",
    "PaperQuery",
    "CompareQuery",
    "Query",
    "execute_with_attribution",
    "pairwise_overlap",
    "queries_from_file",
    "queries_from_payload",
    "result_payload",
]

_BATCHES_TOTAL = REGISTRY.counter(
    "repro_engine_batches_total",
    "Query batches executed by the engine.",
)
_QUERIES_TOTAL = REGISTRY.counter(
    "repro_engine_queries_total",
    "Queries answered by the engine (across all batches).",
)
_SHARD_SECONDS = REGISTRY.histogram(
    "repro_engine_shard_candidate_seconds",
    "Candidate-phase wall-clock seconds, by shard.",
    ["shard"],
)


def execute_with_attribution(
    execute: "Callable[..., tuple[int, tuple[Any, ...]]]",
    queries: Sequence[Query],
    store: Any,
) -> tuple[int, list[Any]]:
    """Run a batch; attribute a failure to its query, not the batch.

    Batch planning is all-or-nothing — one unknown method or paper id
    raises before any query is answered.  Both front ends that accept
    *mixed* batches (the gateway's request coalescer and
    ``repro query --batch``) want per-query attribution instead: on a
    :class:`~repro.errors.ReproError`, the batch is retried one query
    at a time, and each outcome slot holds either the result or the
    typed error that query raised.  The shared helper keeps the two
    surfaces' semantics identical by construction.

    ``execute`` is :meth:`QueryEngine.execute_versioned` or
    :meth:`~repro.serve.RankingService.execute_batch`; a whole batch
    pins its own snapshot.  The retries pin ``store.snapshot()`` once
    and all run on that snapshot (``execute([query], snapshot=...)``),
    so every result carries the returned version even when the store
    publishes between them — as a fleet worker's
    :class:`~repro.serve.shm.SharedStoreReader` does whenever the
    supervisor publishes.  Returns ``(version, outcomes)``.
    """
    try:
        version, results = execute(queries)
        return version, list(results)
    except ReproError:
        pinned = store.snapshot()
        outcomes: list[Any] = []
        for query in queries:
            try:
                _, (result,) = execute([query], snapshot=pinned)
                outcomes.append(result)
            except ReproError as error:
                outcomes.append(error)
        return pinned.version, outcomes


@dataclass(frozen=True)
class TopKQuery:
    """One page of the ranking by ``method`` (optionally year-filtered)."""

    method: str = "AR"
    k: int = 10
    offset: int = 0
    year_range: tuple[float, float] | None = None


@dataclass(frozen=True)
class PaperQuery:
    """Scores and global ranks of one paper under every method."""

    paper_id: str


@dataclass(frozen=True)
class CompareQuery:
    """The same result page of several methods, with pairwise overlap."""

    methods: tuple[str, ...]
    k: int = 10
    offset: int = 0
    year_range: tuple[float, float] | None = None


Query = Union[TopKQuery, PaperQuery, CompareQuery]


def pairwise_overlap(
    results: Mapping[str, QueryResult]
) -> dict[tuple[str, str], int]:
    """``|page(a) ∩ page(b)|`` for every unordered method pair.

    Shared between :meth:`QueryEngine.compare` and
    :meth:`RankingService.compare` so both layers agree on the
    paper's Table-1-style agreement measure.
    """
    labels = list(results)
    overlap: dict[tuple[str, str], int] = {}
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            shared = set(results[a].paper_ids) & set(results[b].paper_ids)
            overlap[(a, b)] = len(shared)
    return overlap


def _normalise_span(
    year_range: tuple[float, float] | None
) -> tuple[float, float] | None:
    """Validate a year filter; return the canonical float span."""
    if year_range is None:
        return None
    lo, hi = float(year_range[0]), float(year_range[1])
    # NaN compares false both ways: it would pass the order check,
    # match no paper, and give every repeat a result-cache key of its
    # own (two NaN floats never compare equal).
    if math.isnan(lo) or math.isnan(hi):
        raise ConfigurationError(
            f"year range bounds must be numbers, got ({lo}, {hi})"
        )
    if lo > hi:
        raise ConfigurationError(f"empty year range: {lo} > {hi}")
    return (lo, hi)


def _normalise_page(
    k: int, offset: int, year_range: tuple[float, float] | None
) -> tuple[float, float] | None:
    """Validate one page request; return the canonical float span."""
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if offset < 0:
        raise ConfigurationError(f"offset must be >= 0, got {offset}")
    return _normalise_span(year_range)


@dataclass(frozen=True)
class _RankingNeed:
    """One distinct per-shard computation the batch plan requires."""

    label: str
    span: tuple[float, float] | None


class QueryEngine:
    """Plan, fan out, and merge batches of ranking queries.

    Parameters
    ----------
    sharded:
        The shard store to serve from (attached or loaded from disk).

    Examples
    --------
    >>> from repro.serve import ScoreIndex, ShardedScoreIndex
    >>> from repro.synth import toy_network
    >>> index = ScoreIndex(toy_network())
    >>> index.add_method("CC")
    >>> engine = QueryEngine(ShardedScoreIndex.from_index(index, n_shards=2))
    >>> engine.top_k("CC", k=2).paper_ids
    ('A', 'C')
    """

    def __init__(self, sharded: ShardedScoreIndex) -> None:
        self._sharded = sharded

    @property
    def sharded(self) -> ShardedScoreIndex:
        """The shard store queries are answered from."""
        return self._sharded

    @property
    def version(self) -> int:
        """Serving-state version stamped onto every result."""
        return self._sharded.version

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QueryEngine(n_shards={self._sharded.n_shards})"

    # ------------------------------------------------------------------
    # The batch path
    # ------------------------------------------------------------------
    def execute(self, queries: Sequence[Query]) -> tuple[Any, ...]:
        """Run a batch; results come back in request order.

        Each element is the exact object the corresponding single-query
        method returns: :class:`QueryResult` for :class:`TopKQuery`,
        :class:`PaperDetails` for :class:`PaperQuery`,
        :class:`MethodComparison` for :class:`CompareQuery`.
        """
        return self.execute_versioned(queries)[1]

    def execute_versioned(
        self,
        queries: Sequence[Query],
        *,
        snapshot: StoreSnapshot | None = None,
    ) -> tuple[int, tuple[Any, ...]]:
        """Run a batch against ONE generation; return its version too.

        The whole batch — planning, shard phase, merges — executes
        against a single :class:`~repro.serve.StoreSnapshot`: the
        given ``snapshot``, or the store's current one captured up
        front.  A concurrent :meth:`ShardedScoreIndex.sync` can never
        tear a batch across two index versions: every result is
        bit-identical to a single-version execution at the returned
        version.  The gateway stamps its HTTP responses with exactly
        this number.
        """
        with trace_span(
            "engine.execute", queries=len(queries)
        ) as sp:
            snap = (
                snapshot if snapshot is not None else self._sharded.snapshot()
            )
            plan = self._plan(queries, snap)
            shard_results = self._run_shard_phase(plan, snap)
            # Merged global orders are shared across the batch: twelve
            # pages over the same (method, span) trigger one merge.
            merge_cache: dict[_RankingNeed, tuple[Any, ...]] = {}
            results = tuple(
                self._merge_query(query, snap, shard_results, merge_cache)
                for query in queries
            )
            if sp is not None:
                sp.set(version=snap.version, shards=snap.n_shards)
        _BATCHES_TOTAL.inc()
        _QUERIES_TOTAL.inc(len(queries))
        return snap.version, results

    # -- planning -------------------------------------------------------
    def _plan(
        self, queries: Sequence[Query], snap: StoreSnapshot
    ) -> dict[_RankingNeed, int]:
        """Validate the batch; collect distinct needs at max depth."""
        labels = set(snap.labels)
        needs: dict[_RankingNeed, int] = {}

        def require(label: str, span, depth: int) -> None:
            if label not in labels:
                known = ", ".join(snap.labels) or "<none>"
                raise ConfigurationError(
                    f"method {label!r} is not in the index "
                    f"(indexed: {known})"
                )
            need = _RankingNeed(label=label, span=span)
            needs[need] = max(needs.get(need, 0), depth)

        for query in queries:
            if isinstance(query, TopKQuery):
                span = _normalise_page(
                    query.k, query.offset, query.year_range
                )
                require(
                    query.method.upper(), span, query.offset + query.k
                )
            elif isinstance(query, CompareQuery):
                span = _normalise_page(
                    query.k, query.offset, query.year_range
                )
                upper = [m.upper() for m in query.methods]
                if len(set(upper)) != len(upper):
                    raise ConfigurationError(
                        "duplicate method labels in comparison"
                    )
                for label in upper:
                    require(label, span, query.offset + query.k)
            elif isinstance(query, PaperQuery):
                # Rank counting needs the unfiltered order of every
                # method in every shard (depth 0: order only).
                for label in snap.labels:
                    require(label, None, 0)
            else:
                raise ConfigurationError(
                    f"unsupported query type: {type(query).__name__}"
                )
        return needs

    # -- shard phase ----------------------------------------------------
    def _run_shard_phase(
        self, plan: dict[_RankingNeed, int], snap: StoreSnapshot
    ) -> dict[int, dict[_RankingNeed, tuple[int, Any]]]:
        """Compute every planned need on every shard.

        Returns ``shard_id -> need -> (total_matching, candidate local
        positions)``, one shard after another in the calling thread.

        Year-partitioned stores additionally *prune*: a need whose span
        cannot intersect a shard's time bounds is answered ``(0, [])``
        without touching the shard — and a shard none of whose needs
        survive is never even loaded from disk.
        """
        empty = np.zeros(0, dtype=np.int64)
        produced: dict[int, dict[_RankingNeed, tuple[int, Any]]] = {}
        for shard_id in range(snap.n_shards):
            started = time.perf_counter()
            with trace_span("engine.shard", shard=shard_id) as sp:
                bounds = snap.shard_time_bounds(shard_id)
                results: dict[_RankingNeed, tuple[int, Any]] = {}
                live: list[tuple[_RankingNeed, int]] = []
                for need, depth in plan.items():
                    if (
                        bounds is not None
                        and need.span is not None
                        and (
                            need.span[1] < bounds[0]
                            or need.span[0] > bounds[1]
                        )
                    ):
                        results[need] = (0, empty)
                    else:
                        live.append((need, depth))
                if live:
                    shard = snap.shard(shard_id)
                    for need, depth in live:
                        results[need] = shard.candidates(
                            need.label, need.span, depth
                        )
                if sp is not None:
                    sp.set(needs=len(live), pruned=len(plan) - len(live))
            _SHARD_SECONDS.observe(
                time.perf_counter() - started, shard=str(shard_id)
            )
            produced[shard_id] = results
        return produced

    # -- merge phase ----------------------------------------------------
    def _merge_query(
        self,
        query: Query,
        snap: StoreSnapshot,
        shard_results: dict[int, dict[_RankingNeed, tuple[int, Any]]],
        merge_cache: dict[_RankingNeed, tuple[Any, ...]],
    ) -> Any:
        if isinstance(query, TopKQuery):
            return self._merge_top_k(
                query.method.upper(),
                query.k,
                query.offset,
                _normalise_span(query.year_range),
                snap,
                shard_results,
                merge_cache,
            )
        if isinstance(query, CompareQuery):
            span = _normalise_span(query.year_range)
            results = {
                label.upper(): self._merge_top_k(
                    label.upper(), query.k, query.offset, span,
                    snap, shard_results, merge_cache,
                )
                for label in query.methods
            }
            return MethodComparison(
                results=results, overlap=pairwise_overlap(results)
            )
        assert isinstance(query, PaperQuery)
        return self._lookup_paper(query.paper_id, snap)

    def _merged(
        self,
        need: _RankingNeed,
        snap: StoreSnapshot,
        shard_results: dict[int, dict[_RankingNeed, tuple[int, Any]]],
        merge_cache: dict[_RankingNeed, tuple[Any, ...]],
    ) -> tuple[int, Any, Any, Any]:
        """The globally merged candidate list for one planned need.

        Returns ``(total_matching, owner_shard_ids, local_positions,
        scores)``, globally ranked up to the need's planned depth.
        Computed once per batch per need — every page over the same
        (method, span) slices the same arrays.

        Every shard contributed at most ``depth`` rows (no merge can
        take more rows from one shard than it returns overall), so the
        pool holds at most ``n_shards * depth`` entries; one NumPy
        ``lexsort`` on ``(-score, global_index)`` — the exact
        comparator of the global ranking — re-ranks it, which keeps
        equal scores in the order the unsharded ranking lists them.
        """
        got = merge_cache.get(need)
        if got is not None:
            return got
        total = 0
        parts: list[tuple[Shard, Any]] = []
        for shard_id in range(snap.n_shards):
            shard_total, positions = shard_results[shard_id][need]
            total += shard_total
            if positions.size:
                parts.append((snap.shard(shard_id), positions))
        if not parts:
            owners = np.zeros(0, dtype=np.int64)
            locals_ = np.zeros(0, dtype=np.int64)
            scores = np.zeros(0, dtype=np.float64)
        elif len(parts) == 1:
            shard, positions = parts[0]
            owners = np.full(positions.size, shard.shard_id, dtype=np.int64)
            locals_ = positions
            scores = shard.scores[need.label][positions]
        else:
            scores = np.concatenate(
                [shard.scores[need.label][pos] for shard, pos in parts]
            )
            gidx = np.concatenate(
                [shard.global_indices[pos] for shard, pos in parts]
            )
            owners = np.concatenate(
                [
                    np.full(pos.size, shard.shard_id, dtype=np.int64)
                    for shard, pos in parts
                ]
            )
            locals_ = np.concatenate([pos for _, pos in parts])
            winners = np.lexsort((gidx, -scores))
            owners = owners[winners]
            locals_ = locals_[winners]
            scores = scores[winners]
        merged = (total, owners, locals_, scores)
        merge_cache[need] = merged
        return merged

    def _merge_top_k(
        self,
        label: str,
        k: int,
        offset: int,
        span: tuple[float, float] | None,
        snap: StoreSnapshot,
        shard_results: dict[int, dict[_RankingNeed, tuple[int, Any]]],
        merge_cache: dict[_RankingNeed, tuple[Any, ...]],
    ) -> QueryResult:
        """One result page, sliced from the batch-shared merged order."""
        total, owners, locals_, scores = self._merged(
            _RankingNeed(label=label, span=span), snap, shard_results,
            merge_cache,
        )
        take = offset + k
        rows = tuple(
            RankedPaper(
                rank=offset + position + 1,
                paper_id=snap.shard(int(owners[entry])).paper_ids[
                    int(locals_[entry])
                ],
                year=float(
                    snap.shard(int(owners[entry])).times[
                        int(locals_[entry])
                    ]
                ),
                score=float(scores[entry]),
            )
            for position, entry in enumerate(range(offset, min(take, owners.size)))
        )
        return QueryResult(
            method=label,
            version=snap.version,
            k=k,
            offset=offset,
            total=total,
            year_range=span,
            entries=rows,
        )

    def _lookup_paper(
        self, paper_id: str, snap: StoreSnapshot
    ) -> PaperDetails:
        home: Shard | None = None
        local = None
        for shard in snap.iter_shards():
            local = shard.location_of(paper_id)
            if local is not None:
                home = shard
                break
        if home is None or local is None:
            raise GraphError(f"unknown paper id: {str(paper_id)!r}")
        global_index = int(home.global_indices[local])
        scores: dict[str, float] = {}
        ranks: dict[str, int] = {}
        for label in snap.labels:
            value = float(home.scores[label][local])
            before = sum(
                shard.count_ranked_before(label, value, global_index)
                for shard in snap.iter_shards()
            )
            scores[label] = value
            ranks[label] = before + 1
        return PaperDetails(
            paper_id=home.paper_ids[local],
            year=float(home.times[local]),
            scores=scores,
            ranks=ranks,
        )

    # ------------------------------------------------------------------
    # Single-query conveniences (each is a one-element batch)
    # ------------------------------------------------------------------
    def top_k(
        self,
        method: str = "AR",
        *,
        k: int = 10,
        offset: int = 0,
        year_range: tuple[float, float] | None = None,
    ) -> QueryResult:
        """One page of the ranking by ``method`` (engine-side)."""
        return self.execute(
            [
                TopKQuery(
                    method=method, k=k, offset=offset,
                    year_range=year_range,
                )
            ]
        )[0]

    def compare(
        self,
        methods: Sequence[str],
        *,
        k: int = 10,
        offset: int = 0,
        year_range: tuple[float, float] | None = None,
    ) -> MethodComparison:
        """The same page for several methods, with pairwise overlap."""
        return self.execute(
            [
                CompareQuery(
                    methods=tuple(methods), k=k, offset=offset,
                    year_range=year_range,
                )
            ]
        )[0]

    def paper(self, paper_id: str) -> PaperDetails:
        """Scores and global ranks of one paper across all methods."""
        return self.execute([PaperQuery(paper_id=str(paper_id))])[0]


# ----------------------------------------------------------------------
# Batch-file format (the CLI's ``repro query --batch FILE``)
# ----------------------------------------------------------------------
def queries_from_payload(payload: Any) -> tuple[Query, ...]:
    """Parse the JSON batch layout into query objects.

    Expected layout — a list of request objects discriminated by
    ``type``::

        [{"type": "top_k", "method": "AR", "k": 10, "offset": 0,
          "year_min": 1995.0, "year_max": 2000.0},
         {"type": "paper", "id": "P0000335"},
         {"type": "compare", "methods": ["AR", "CC"], "k": 20}]

    ``year_min``/``year_max`` are optional and combine into the
    inclusive ``year_range`` filter (either side may be omitted).
    """
    if not isinstance(payload, list):
        raise DataFormatError(
            "batch file must contain a JSON list of query objects, "
            f"got {type(payload).__name__}"
        )
    queries: list[Query] = []
    for position, raw in enumerate(payload):
        if not isinstance(raw, dict) or "type" not in raw:
            raise DataFormatError(
                f"batch entry {position}: expected an object with a "
                "'type' field"
            )
        kind = str(raw["type"])
        try:
            if kind == "top_k":
                queries.append(
                    TopKQuery(
                        method=str(raw.get("method", "AR")),
                        k=int(raw.get("k", 10)),
                        offset=int(raw.get("offset", 0)),
                        year_range=_span_from_mapping(raw),
                    )
                )
            elif kind == "paper":
                queries.append(PaperQuery(paper_id=str(raw["id"])))
            elif kind == "compare":
                methods = raw["methods"]
                if not isinstance(methods, (list, tuple)):
                    # A bare string would iterate into single letters.
                    raise TypeError(
                        "'methods' must be a list of labels, got "
                        f"{type(methods).__name__}"
                    )
                queries.append(
                    CompareQuery(
                        methods=tuple(str(m) for m in methods),
                        k=int(raw.get("k", 10)),
                        offset=int(raw.get("offset", 0)),
                        year_range=_span_from_mapping(raw),
                    )
                )
            else:
                raise DataFormatError(
                    f"batch entry {position}: unknown query type "
                    f"{kind!r} (expected top_k, paper, or compare)"
                )
        except (KeyError, TypeError, ValueError) as error:
            raise DataFormatError(
                f"batch entry {position}: malformed {kind!r} query "
                f"({error!r})"
            ) from None
    return tuple(queries)


def _span_from_mapping(raw: Mapping[str, Any]) -> tuple[float, float] | None:
    lo = raw.get("year_min")
    hi = raw.get("year_max")
    if lo is None and hi is None:
        return None
    return (
        float(lo) if lo is not None else float("-inf"),
        float(hi) if hi is not None else float("inf"),
    )


def queries_from_file(path: str) -> tuple[Query, ...]:
    """Load a query batch from a JSON file (see
    :func:`queries_from_payload` for the layout)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as error:
        raise DataFormatError(
            f"cannot read batch file: {error}"
        ) from None
    except json.JSONDecodeError as error:
        raise DataFormatError(f"{path}: invalid JSON ({error})") from None
    return queries_from_payload(payload)


def result_payload(result: Any) -> dict[str, Any]:
    """One query result as a JSON-serialisable dictionary.

    The CLI prints a list of these for ``repro query --batch``; the
    shapes mirror the result dataclasses field-for-field.
    """
    if isinstance(result, QueryResult):
        return {
            "type": "top_k",
            "method": result.method,
            "version": result.version,
            "k": result.k,
            "offset": result.offset,
            "total": result.total,
            "year_range": (
                list(result.year_range)
                if result.year_range is not None
                else None
            ),
            "entries": [
                {
                    "rank": row.rank,
                    "paper_id": row.paper_id,
                    "year": row.year,
                    "score": row.score,
                }
                for row in result.entries
            ],
        }
    if isinstance(result, PaperDetails):
        return {
            "type": "paper",
            "paper_id": result.paper_id,
            "year": result.year,
            "scores": dict(result.scores),
            "ranks": dict(result.ranks),
        }
    if isinstance(result, MethodComparison):
        return {
            "type": "compare",
            "results": {
                label: result_payload(page)
                for label, page in result.results.items()
            },
            "overlap": {
                f"{a}&{b}": shared
                for (a, b), shared in result.overlap.items()
            },
        }
    raise ConfigurationError(
        f"cannot serialise result of type {type(result).__name__}"
    )
