"""Behaviour tests for repro.serve.service.RankingService."""

import numpy as np
import pytest

from repro.baselines import make_method
from repro.errors import ConfigurationError, GraphError
from repro.ranking import ranking_from_scores
from repro.serve import NetworkDelta, RankingService, ScoreIndex


@pytest.fixture
def service(hepth_tiny):
    index = ScoreIndex(hepth_tiny)
    index.add_method("PR")
    index.add_method("CC")
    return RankingService(index, cache_size=8)


class TestTopK:
    def test_matches_batch_ranking(self, service, hepth_tiny):
        """The acceptance criterion: query == batch rank on an
        unchanged snapshot."""
        result = service.top_k("PR", k=10)
        batch = make_method("PR").rank(hepth_tiny)[:10]
        expected = [hepth_tiny.id_of(int(i)) for i in batch]
        assert list(result.paper_ids) == expected
        assert result.total == hepth_tiny.n_papers
        assert [row.rank for row in result.entries] == list(range(1, 11))

    def test_scores_and_years_reported(self, service, hepth_tiny):
        row = service.top_k("CC", k=1).entries[0]
        index = hepth_tiny.index_of(row.paper_id)
        assert row.score == float(hepth_tiny.in_degree[index])
        assert row.year == float(hepth_tiny.publication_times[index])

    def test_pagination_is_seamless(self, service):
        full = service.top_k("PR", k=10)
        page1 = service.top_k("PR", k=5, offset=0)
        page2 = service.top_k("PR", k=5, offset=5)
        assert page1.paper_ids + page2.paper_ids == full.paper_ids
        assert page2.entries[0].rank == 6

    def test_offset_beyond_population(self, service, hepth_tiny):
        result = service.top_k("PR", k=5, offset=hepth_tiny.n_papers)
        assert result.entries == ()
        assert result.total == hepth_tiny.n_papers

    def test_year_filter(self, service, hepth_tiny):
        lo, hi = 1996.0, 1999.0
        result = service.top_k("CC", k=20, year_range=(lo, hi))
        times = hepth_tiny.publication_times
        expected_total = int(np.sum((times >= lo) & (times <= hi)))
        assert result.total == expected_total
        for row in result.entries:
            assert lo <= row.year <= hi
        # Filtered ranking preserves the method's score order.
        scores = [row.score for row in result.entries]
        assert scores == sorted(scores, reverse=True)

    def test_validation(self, service):
        with pytest.raises(ConfigurationError, match="k must be"):
            service.top_k("PR", k=0)
        with pytest.raises(ConfigurationError, match="offset"):
            service.top_k("PR", offset=-1)
        with pytest.raises(ConfigurationError, match="year range"):
            service.top_k("PR", year_range=(2000.0, 1990.0))
        with pytest.raises(ConfigurationError, match="not in the index"):
            service.top_k("AR")


class TestCaching:
    def test_repeat_query_hits_cache(self, service):
        first = service.top_k("PR", k=5)
        second = service.top_k("PR", k=5)
        assert second is first  # the very same frozen result object
        stats = service.cache_stats()
        assert stats.hits == 1
        assert stats.misses == 1

    def test_distinct_queries_miss(self, service):
        service.top_k("PR", k=5)
        service.top_k("PR", k=6)
        service.top_k("PR", k=5, year_range=(1990.0, 2000.0))
        assert service.cache_stats().hits == 0

    def test_update_invalidates(self, service):
        before = service.top_k("CC", k=3)
        service.update(
            NetworkDelta(
                papers=(("NEW", 2004.0),),
                citations=(("NEW", before.paper_ids[0]),),
            )
        )
        after = service.top_k("CC", k=3)
        assert after is not before
        assert after.version == before.version + 1
        # The new citation is visible: the leader gained one point.
        assert after.entries[0].score == before.entries[0].score + 1

    def test_out_of_band_ingest_never_serves_stale(self, service):
        """Regression: an ingest that bypasses service.update (a second
        writer on the same index, publishing through the service's
        shard store) must never let the service hand back a cached
        pre-ingest page."""
        from repro.serve import DeltaUpdater

        before = service.top_k("CC", k=3)
        assert service.top_k("CC", k=3) is before  # primed the cache
        DeltaUpdater(service.index, sharded=service.sharded).apply(
            NetworkDelta(
                papers=(("NEW", 2004.0),),
                citations=(("NEW", before.paper_ids[0]),),
            )
        )
        after = service.top_k("CC", k=3)
        assert after is not before
        assert after.version == before.version + 1
        assert after.entries[0].score == before.entries[0].score + 1

    def test_out_of_band_version_change_clears_cache(self, service):
        """Regression: entries cached before a refresh are dead weight;
        publishing the new version must drop them instead of letting
        them squat in the LRU (capacity 8 here — a replay of many
        micro-batches would otherwise evict every live page)."""
        for k in (2, 3, 4, 5):
            service.top_k("PR", k=k)
        assert service.cache_stats().size == 4
        service.refresh()  # e.g. a stream finalize
        service.top_k("PR", k=2)
        stats = service.cache_stats()
        # Only the fresh entry survives; the four stale ones are gone.
        assert stats.size == 1

    def test_late_put_of_an_old_pin_keeps_only_its_page(self, service):
        """A batch pinned before a publish may put its misses after the
        writer cleared the cache.  Such an entry is never served again,
        and it must not keep the old generation (every shard's columns
        and memoised orders) alive until the next publish — only its
        page."""
        from repro.serve import StoreSnapshot, TopKQuery

        old = service.sharded.snapshot()
        service.update(
            NetworkDelta(
                papers=(("NEW", 2004.0),),
                citations=(("NEW", service.top_k("CC", k=1).paper_ids[0]),),
            )
        )
        version, (page,) = service.execute_batch(
            [TopKQuery(method="CC", k=3)], snapshot=old
        )
        assert version == page.version == old.version
        assert service.top_k("CC", k=3).version == old.version + 1

        def holds_snapshot(item):
            if isinstance(item, StoreSnapshot):
                return True
            return isinstance(item, tuple) and any(
                holds_snapshot(part) for part in item
            )

        keys = list(service._cache._entries)
        assert len(keys) == 2
        assert not any(holds_snapshot(key) for key in keys)


class TestCompare:
    def test_results_and_overlap(self, service):
        comparison = service.compare(["PR", "CC"], k=10)
        assert set(comparison.results) == {"PR", "CC"}
        shared = set(comparison.results["PR"].paper_ids) & set(
            comparison.results["CC"].paper_ids
        )
        assert comparison.overlap[("PR", "CC")] == len(shared)

    def test_duplicate_labels_rejected(self, service):
        with pytest.raises(ConfigurationError, match="duplicate"):
            service.compare(["PR", "pr"])

    def test_offset_paginates_every_method(self, service):
        page2 = service.compare(["PR", "CC"], k=5, offset=5)
        for label in ("PR", "CC"):
            expected = service.top_k(label, k=5, offset=5)
            assert page2.results[label].paper_ids == expected.paper_ids
            assert page2.results[label].entries[0].rank == 6


class TestPaperLookup:
    def test_scores_and_ranks(self, service, hepth_tiny):
        top = service.top_k("PR", k=1).entries[0]
        details = service.paper(top.paper_id)
        assert details.ranks["PR"] == 1
        assert details.scores["PR"] == top.score
        assert set(details.scores) == {"PR", "CC"}
        order = ranking_from_scores(service.index.scores("CC"))
        position = int(
            np.nonzero(order == hepth_tiny.index_of(top.paper_id))[0][0]
        )
        assert details.ranks["CC"] == position + 1

    def test_unknown_paper(self, service):
        with pytest.raises(GraphError, match="unknown paper"):
            service.paper("nope")


class TestUpdateFlow:
    def test_update_report_and_version(self, service):
        report = service.update(
            NetworkDelta(papers=(("NEW", 2004.0),), citations=())
        )
        assert report.version == 1
        assert service.version == 1
        assert report.n_new_papers == 1
        assert report.entries["PR"].warm_started

    def test_queries_reflect_new_papers(self, service, hepth_tiny):
        service.update(
            NetworkDelta(papers=(("NEW", 2004.0),), citations=())
        )
        result = service.top_k("CC", k=5)
        assert result.total == hepth_tiny.n_papers + 1

    def test_external_refresh_is_served_without_memo_leak(self, service):
        """Version bumps outside service.update (service.refresh) must
        refresh the ranking memo, never accumulate entries."""
        before = service.top_k("PR", k=3)
        for _ in range(3):
            service.refresh()
        after = service.top_k("PR", k=3)
        assert after.version == before.version + 3
        assert after.paper_ids == before.paper_ids
        # One memoised permutation per method and shard, regardless of
        # versions, and the served one is at the served version.
        served = service.sharded.snapshot()
        assert served.version == after.version
        for shard in served.iter_shards():
            full = [label for label, span in shard._orders if span is None]
            assert len(full) == len(set(full))
            assert set(full) <= {"PR", "CC"}
            assert "PR" in full


class TestConcurrentReadsAndWrites:
    def test_every_read_matches_a_replica_at_its_version(self, hepth_tiny):
        """One thread applies deltas through service.update while two
        others read, with the interpreter switching threads as often as
        it can: every batch is bit-identical to a replica at its
        stamped version, and the result cache never raises nor loses a
        count."""
        import sys
        import threading

        from repro.serve import CompareQuery, PaperQuery, TopKQuery
        from repro.stream import EventLog, StreamIngestor

        log = EventLog.from_network(hepth_tiny)

        def make_ingestor():
            ingestor = StreamIngestor(
                log, methods=("PR", "CC"), batch_size=64,
                bootstrap_size=len(log) - 400, shards=2, cache_size=4,
            )
            ingestor.step()
            return ingestor

        writer, replica = make_ingestor(), make_ingestor()
        service = writer.service
        network = service.index.network
        times = network.publication_times
        lo, hi = float(times.min()), float(times.max())
        # Six keys for a four-entry cache: every batch evicts.
        queries = [
            TopKQuery(method="PR", k=10),
            TopKQuery(method="CC", k=5, offset=5),
            TopKQuery(method="PR", k=7, year_range=(lo, (lo + hi) / 2)),
            CompareQuery(methods=("PR", "CC"), k=6),
            PaperQuery(paper_id=network.id_of(0)),
            PaperQuery(paper_id=network.id_of(network.n_papers - 1)),
        ]
        expected = {0: replica.service.execute_batch(queries)[1]}
        while not replica.exhausted:
            replica.step()
            expected[replica.service.version] = (
                replica.service.execute_batch(queries)[1]
            )

        observed = ([], [])
        errors = []
        first_reads = [threading.Event(), threading.Event()]
        writes_done = threading.Event()

        def read(reader):
            try:
                while True:
                    last = writes_done.is_set()
                    observed[reader].append(service.execute_batch(queries))
                    first_reads[reader].set()
                    if last:
                        return
            except BaseException as error:
                errors.append(error)
                first_reads[reader].set()

        def write():
            try:
                for started in first_reads:
                    started.wait(10.0)
                while not writer.exhausted:
                    writer.step()
            except BaseException as error:
                errors.append(error)
            finally:
                writes_done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=read, args=(0,)),
                threading.Thread(target=read, args=(1,)),
                threading.Thread(target=write),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        for batches in observed:
            versions = [version for version, _ in batches]
            assert versions == sorted(versions)
            assert versions[0] == 0 and versions[-1] == max(expected) > 0
            for version, results in batches:
                assert results == expected[version]
                assert all(page.version == version for page in results[:3])
        stats = service.cache_stats()
        lookups = len(queries) * sum(len(batches) for batches in observed)
        assert stats.hits + stats.misses == lookups
