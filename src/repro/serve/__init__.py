"""repro.serve — the incremental, sharded ranking service layer.

The paper ranks by *short-term* impact, a signal that is only useful if
rankings can follow the corpus as new papers and citations arrive
(BIP! DB, the deployment built on these methods, refreshes its scores
from exactly such harvesting cycles — and serves them for >100M
publications).  This package turns the offline bench into that service:

* :class:`ScoreIndex` — versioned per-method score vectors bound to a
  network snapshot, persistable as one checksummed snapshot file
  (:mod:`repro.io.layout`);
* :class:`NetworkDelta` / :class:`DeltaUpdater` — batches of new papers
  and citations, applied by extending the snapshot in place (existing
  paper indices are preserved) and re-solving each method
  **warm-started** from its previous solution;
* :class:`ShardedScoreIndex` — the serving state partitioned across N
  shards (hash or year-range), persisted as one store file whose
  shards materialise lazily, and placed in shared memory as the same
  bytes; delta growth is routed to the affected shards;
* :class:`QueryEngine` — batches of heterogeneous queries
  (:class:`TopKQuery` / :class:`PaperQuery` / :class:`CompareQuery`)
  planned per shard, executed concurrently, and k-way heap-merged into
  results bit-identical to the unsharded path;
* :class:`RankingService` — the per-request front end: paginated top-k
  queries, year-range filters, multi-method comparison and per-paper
  lookups behind an LRU result cache, delegating reads to the engine
  (the unsharded service is the ``shards=1`` special case).

CLI: ``repro index`` builds an index file (``--shards N`` for a store
file), ``repro update`` applies a delta, ``repro query`` serves
reads (``--batch FILE`` for a query batch).
"""

from repro.serve.batch import (
    CompareQuery,
    PaperQuery,
    Query,
    QueryEngine,
    TopKQuery,
    execute_with_attribution,
    pairwise_overlap,
    queries_from_file,
    queries_from_payload,
    result_payload,
)
from repro.serve.cache import CacheStats, LRUCache
from repro.serve.delta import (
    DeltaUpdater,
    NetworkDelta,
    UpdateReport,
    delta_between,
)
from repro.serve.results import (
    MethodComparison,
    PaperDetails,
    QueryResult,
    RankedPaper,
)
from repro.serve.score_index import MethodEntry, ScoreIndex
from repro.serve.service import RankingService
from repro.serve.shm import (
    GenerationBoard,
    SharedStorePublisher,
    SharedStoreReader,
    attach_snapshot,
    export_snapshot,
)
from repro.serve.shard import (
    PARTITIONERS,
    Shard,
    ShardedScoreIndex,
    StoreSnapshot,
)

__all__ = [
    "CacheStats",
    "LRUCache",
    "DeltaUpdater",
    "NetworkDelta",
    "UpdateReport",
    "delta_between",
    "MethodEntry",
    "ScoreIndex",
    "PARTITIONERS",
    "Shard",
    "ShardedScoreIndex",
    "StoreSnapshot",
    "CompareQuery",
    "PaperQuery",
    "Query",
    "QueryEngine",
    "TopKQuery",
    "execute_with_attribution",
    "pairwise_overlap",
    "queries_from_file",
    "queries_from_payload",
    "result_payload",
    "MethodComparison",
    "PaperDetails",
    "QueryResult",
    "RankedPaper",
    "RankingService",
    "GenerationBoard",
    "SharedStorePublisher",
    "SharedStoreReader",
    "attach_snapshot",
    "export_snapshot",
]
