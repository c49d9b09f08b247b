"""Behaviour and property tests for the batched query engine.

The load-bearing guarantee: a :class:`QueryEngine` over a
:class:`ShardedScoreIndex` — any shard count, any partitioner, any
worker count, batched or not — answers every query with results
*bit-identical* to the unsharded, one-query-at-a-time
:class:`RankingService`.  The property tests below state it over
randomized synthetic networks at shard counts {1, 2, 7}.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataFormatError, GraphError
from repro.serve import (
    CompareQuery,
    DeltaUpdater,
    NetworkDelta,
    PaperQuery,
    QueryEngine,
    RankingService,
    ScoreIndex,
    ShardedScoreIndex,
    TopKQuery,
    execute_with_attribution,
    queries_from_payload,
    result_payload,
)
from repro.synth import generate_dataset, toy_network

SHARD_COUNTS = (1, 2, 7)


def _mixed_queries(network):
    times = network.publication_times
    lo, hi = float(times.min()), float(times.max())
    mid = (lo + hi) / 2.0
    queries = []
    for method in ("PR", "CC"):
        queries.extend(
            [
                TopKQuery(method=method, k=13),
                TopKQuery(method=method, k=7, offset=11),
                TopKQuery(method=method, k=50, year_range=(lo, mid)),
                TopKQuery(
                    method=method, k=5, offset=3, year_range=(mid, hi)
                ),
                TopKQuery(method=method, k=10, offset=10_000),
            ]
        )
    queries.append(CompareQuery(methods=("PR", "CC"), k=20))
    queries.append(
        CompareQuery(methods=("CC", "PR"), k=9, year_range=(lo, mid))
    )
    step = max(1, network.n_papers // 7)
    queries.extend(
        PaperQuery(paper_id=network.id_of(i))
        for i in range(0, network.n_papers, step)
    )
    return queries


def _answer_serially(service, queries):
    results = []
    for query in queries:
        if isinstance(query, TopKQuery):
            results.append(
                service.top_k(
                    query.method,
                    k=query.k,
                    offset=query.offset,
                    year_range=query.year_range,
                )
            )
        elif isinstance(query, CompareQuery):
            results.append(
                service.compare(
                    query.methods,
                    k=query.k,
                    offset=query.offset,
                    year_range=query.year_range,
                )
            )
        else:
            results.append(service.paper(query.paper_id))
    return results


class TestBatchIdenticalToUnshardedService:
    """The acceptance property, over randomized synth networks."""

    @pytest.mark.parametrize("seed", [11, 23, 47])
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_batch_matches_serial_service(self, seed, n_shards):
        network = generate_dataset("hep-th", size="tiny", seed=seed)
        index = ScoreIndex(network)
        index.add_method("PR")
        index.add_method("CC")
        queries = _mixed_queries(network)
        expected = _answer_serially(RankingService(index), queries)
        for partitioner in ("hash", "year"):
            store = ShardedScoreIndex.from_index(
                index, n_shards=n_shards, partitioner=partitioner
            )
            engine = QueryEngine(store)
            assert list(engine.execute(queries)) == expected

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_sharded_service_is_a_drop_in(self, hepth_tiny, n_shards):
        """RankingService(shards=N) keeps its public behaviour."""
        index = ScoreIndex(hepth_tiny)
        index.add_method("PR")
        index.add_method("CC")
        baseline = RankingService(index)
        sharded = RankingService(index, shards=n_shards)
        assert (
            sharded.top_k("PR", k=12).entries
            == baseline.top_k("PR", k=12).entries
        )
        assert (
            sharded.paper(hepth_tiny.id_of(3))
            == baseline.paper(hepth_tiny.id_of(3))
        )

    def test_deep_pagination_walks_the_full_ranking(self, hepth_tiny):
        index = ScoreIndex(hepth_tiny)
        index.add_method("CC")
        store = ShardedScoreIndex.from_index(index, n_shards=7)
        engine = QueryEngine(store)
        pages = engine.execute(
            [
                TopKQuery(method="CC", k=100, offset=start)
                for start in range(0, hepth_tiny.n_papers, 100)
            ]
        )
        walked = [pid for page in pages for pid in page.paper_ids]
        service = RankingService(index)
        assert walked == list(
            service.top_k("CC", k=hepth_tiny.n_papers).paper_ids
        )


class TestEngineBehaviour:
    @pytest.fixture
    def engine(self, hepth_tiny):
        index = ScoreIndex(hepth_tiny)
        index.add_method("PR")
        index.add_method("CC")
        return QueryEngine(
            ShardedScoreIndex.from_index(index, n_shards=3)
        )

    def test_validation_mirrors_service(self, engine):
        with pytest.raises(ConfigurationError, match="k must be"):
            engine.top_k("PR", k=0)
        with pytest.raises(ConfigurationError, match="offset"):
            engine.top_k("PR", offset=-1)
        with pytest.raises(ConfigurationError, match="year range"):
            engine.top_k("PR", year_range=(2000.0, 1990.0))
        with pytest.raises(ConfigurationError, match="not in the index"):
            engine.top_k("AR")
        with pytest.raises(ConfigurationError, match="duplicate"):
            engine.compare(["PR", "pr"])
        with pytest.raises(GraphError, match="unknown paper"):
            engine.paper("nope")

    def test_invalid_query_rejects_whole_batch(self, engine):
        with pytest.raises(ConfigurationError, match="not in the index"):
            engine.execute(
                [TopKQuery(method="PR"), TopKQuery(method="WSDM")]
            )

    def test_batch_plans_shared_depth(self, engine):
        """Two pages over one ranking must not disturb each other."""
        shallow, deep = engine.execute(
            [
                TopKQuery(method="PR", k=5),
                TopKQuery(method="PR", k=5, offset=95),
            ]
        )
        assert shallow.entries[0].rank == 1
        assert deep.entries[0].rank == 96

    def test_empty_batch(self, engine):
        assert engine.execute([]) == ()

    def test_unsupported_query_type(self, engine):
        with pytest.raises(ConfigurationError, match="unsupported query"):
            engine.execute(["top_k"])


class TestBatchFileFormat:
    def test_payload_roundtrip(self):
        queries = queries_from_payload(
            [
                {"type": "top_k", "method": "pr", "k": 3, "offset": 6,
                 "year_min": 1995, "year_max": 2000},
                {"type": "top_k"},
                {"type": "paper", "id": "P1"},
                {"type": "compare", "methods": ["PR", "CC"], "k": 4},
            ]
        )
        assert queries[0] == TopKQuery(
            method="pr", k=3, offset=6, year_range=(1995.0, 2000.0)
        )
        assert queries[1] == TopKQuery()
        assert queries[2] == PaperQuery(paper_id="P1")
        assert queries[3] == CompareQuery(methods=("PR", "CC"), k=4)

    def test_half_open_year_filters(self):
        (query,) = queries_from_payload(
            [{"type": "top_k", "year_min": 1995}]
        )
        assert query.year_range == (1995.0, float("inf"))

    def test_malformed_batches_rejected(self):
        with pytest.raises(DataFormatError, match="JSON list"):
            queries_from_payload({"type": "top_k"})
        with pytest.raises(DataFormatError, match="'type'"):
            queries_from_payload([{"method": "PR"}])
        with pytest.raises(DataFormatError, match="unknown query type"):
            queries_from_payload([{"type": "nearest"}])
        with pytest.raises(DataFormatError, match="malformed"):
            queries_from_payload([{"type": "paper"}])

    def test_result_payload_shapes(self, hepth_tiny):
        index = ScoreIndex(hepth_tiny)
        index.add_method("CC")
        index.add_method("PR")
        engine = QueryEngine(
            ShardedScoreIndex.from_index(index, n_shards=2)
        )
        top = result_payload(engine.top_k("CC", k=2))
        assert top["type"] == "top_k"
        assert [row["rank"] for row in top["entries"]] == [1, 2]
        paper = result_payload(engine.paper(top["entries"][0]["paper_id"]))
        assert paper["type"] == "paper"
        assert paper["ranks"]["CC"] == 1
        compare = result_payload(engine.compare(["CC", "PR"], k=3))
        assert compare["type"] == "compare"
        assert set(compare["results"]) == {"CC", "PR"}
        assert "CC&PR" in compare["overlap"]


class TestPaperRankCounting:
    def test_rank_counting_handles_ties(self):
        """CC produces massive score ties; cross-shard tie counting
        must reproduce the global index tie-break exactly."""
        network = generate_dataset("hep-th", size="tiny", seed=5)
        index = ScoreIndex(network)
        index.add_method("CC")
        service = RankingService(index)
        engine = QueryEngine(
            ShardedScoreIndex.from_index(index, n_shards=7)
        )
        order = np.argsort(-index.scores("CC"), kind="stable")
        for position in (0, 17, network.n_papers - 1):
            pid = network.id_of(int(order[position]))
            assert engine.paper(pid) == service.paper(pid)


class _PublishingStore:
    """Duck-types the shard store; every pin moves to the next published
    snapshot, then stays on the last — as a fleet worker's shared store
    does while the supervisor publishes."""

    def __init__(self, snapshots):
        self._snapshots = list(snapshots)

    def snapshot(self):
        pinned = self._snapshots[0]
        if len(self._snapshots) > 1:
            del self._snapshots[0]
        return pinned

    @property
    def version(self):
        return self._snapshots[0].version


class TestAttributionPinsOneSnapshot:
    def test_retried_batch_is_stamped_with_one_version(self):
        """Regression: the per-query retries after a failed batch must
        all answer from one snapshot.  Re-pinning per query stamped a
        page computed at one version into a batch of another."""
        index = ScoreIndex(toy_network())
        index.add_method("PR")
        store = ShardedScoreIndex.from_index(index, n_shards=2)
        published = [store.snapshot()]
        updater = DeltaUpdater(index, sharded=store)
        for n in range(3):
            updater.apply(
                NetworkDelta(
                    papers=((f"N{n}", 2004.0 + n),),
                    citations=((f"N{n}", "D"), (f"N{n}", "H")),
                )
            )
            published.append(store.snapshot())
        engine = QueryEngine(_PublishingStore(published))
        queries = [
            TopKQuery(method="PR", k=3),
            TopKQuery(method="NOPE", k=3),
            TopKQuery(method="PR", k=3),
        ]
        version, outcomes = execute_with_attribution(
            engine.execute_versioned, queries, engine.sharded
        )
        assert isinstance(outcomes[1], ConfigurationError)
        direct = QueryEngine(
            _PublishingStore([published[version]])
        ).top_k("PR", k=3)
        for page in (outcomes[0], outcomes[2]):
            assert page.version == version
            assert page == direct


class TestLateMethodRegistration:
    def test_service_serves_methods_added_after_construction(
        self, hepth_tiny
    ):
        """add_method on the backing index must reach the shard store
        once the store publishes it, even though it bumps no version."""
        index = ScoreIndex(hepth_tiny)
        index.add_method("CC")
        service = RankingService(index, shards=3)
        service.top_k("CC", k=3)  # warm the store with the old labels
        index.add_method("PR")
        service.sharded.sync()  # writers publish; reads never re-sync
        page = service.top_k("PR", k=5)
        assert page.method == "PR"
        details = service.paper(hepth_tiny.id_of(0))
        assert set(details.scores) == {"CC", "PR"}

    def test_cached_lookup_is_not_served_after_a_label_publish(
        self, hepth_tiny
    ):
        """Regression: a publish that adds a method keeps the version,
        so a result cache keyed on the version served the lookup
        cached before it, without the new method."""
        index = ScoreIndex(hepth_tiny)
        index.add_method("CC")
        service = RankingService(index)
        lookup = [PaperQuery(paper_id=hepth_tiny.id_of(0))]
        service.execute_batch(lookup)
        index.add_method("PR")
        service.sharded.sync()
        version, (details,) = service.execute_batch(lookup)
        assert version == 0
        assert set(details.scores) == {"CC", "PR"}


class TestYearPruningInEngine:
    def test_span_confined_to_one_shard_loads_one_shard(
        self, hepth_tiny, tmp_path
    ):
        index = ScoreIndex(hepth_tiny)
        index.add_method("CC")
        store = ShardedScoreIndex.from_index(
            index, n_shards=4, partitioner="year"
        )
        store.save(str(tmp_path / "store"))
        lazy = ShardedScoreIndex.load(str(tmp_path / "store"))
        # A span strictly inside the last shard's time range.
        lo, _hi = lazy.shard_time_bounds(3)
        span = (lo + 1e-6, float("inf"))
        engine = QueryEngine(lazy)
        result = engine.top_k("CC", k=5, year_range=span)
        assert lazy.loaded_shard_count == 1  # shards 0-2 never loaded
        # Pruned shards still contribute correct (zero) totals.
        service = RankingService(index)
        assert result == service.top_k("CC", k=5, year_range=span)

    def test_pruning_never_changes_results(self, hepth_tiny):
        index = ScoreIndex(hepth_tiny)
        index.add_method("PR")
        index.add_method("CC")
        service = RankingService(index)
        engine = QueryEngine(
            ShardedScoreIndex.from_index(
                index, n_shards=7, partitioner="year"
            )
        )
        times = hepth_tiny.publication_times
        lo, hi = float(times.min()), float(times.max())
        step = (hi - lo) / 5
        for i in range(5):
            span = (lo + i * step, lo + (i + 1) * step)
            assert engine.top_k("PR", k=20, year_range=span) == (
                service.top_k("PR", k=20, year_range=span)
            )


class TestCompareMethodsValidation:
    def test_string_methods_field_rejected(self):
        with pytest.raises(DataFormatError, match="malformed 'compare'"):
            queries_from_payload([{"type": "compare", "methods": "AR"}])
