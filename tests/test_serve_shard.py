"""Unit tests for repro.serve.shard — partitioning, sync, persistence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, IndexIntegrityError
from repro.serve import (
    NetworkDelta,
    DeltaUpdater,
    ScoreIndex,
    ShardedScoreIndex,
)
from repro.serve.shard import (
    Shard,
    _hash_assign,
    hash_shard_of,
    year_boundaries,
)
from repro.stream import EventLog, StreamIngestor
from shardoracle import assert_fresh_slices


@pytest.fixture(scope="module")
def hepth_log(hepth_tiny) -> EventLog:
    return EventLog.from_network(hepth_tiny)


@pytest.fixture
def indexed(hepth_tiny):
    index = ScoreIndex(hepth_tiny)
    index.add_method("PR")
    index.add_method("CC")
    return index


class TestPartitioners:
    def test_hash_is_stable_and_process_independent(self):
        # Fixed expectations pin the on-disk routing contract: a store
        # built today must route deltas identically forever.
        assert hash_shard_of("P0000001", 7) == hash_shard_of("P0000001", 7)
        values = {hash_shard_of(f"P{i:07d}", 5) for i in range(200)}
        assert values == set(range(5))  # every shard gets traffic

    def test_vectorised_hash_matches_scalar(self):
        ids = [f"paper-{i}" for i in range(500)] + ["x", "P", "Zz9"]
        vec = _hash_assign(ids, 7)
        scalar = np.array([hash_shard_of(p, 7) for p in ids])
        assert (vec == scalar).all()

    def test_year_boundaries_balance(self, hepth_tiny):
        bounds = year_boundaries(hepth_tiny.publication_times, 4)
        assert bounds.shape == (3,)
        assert (np.diff(bounds) >= 0).all()

    def test_unknown_partitioner_rejected(self, indexed):
        with pytest.raises(ConfigurationError, match="unknown partitioner"):
            ShardedScoreIndex.from_index(
                indexed, n_shards=2, partitioner="alphabetical"
            )

    def test_bad_shard_count_rejected(self, indexed):
        with pytest.raises(ConfigurationError, match="n_shards"):
            ShardedScoreIndex.from_index(indexed, n_shards=0)

    def test_methodless_index_rejected(self, hepth_tiny):
        with pytest.raises(ConfigurationError, match="no solved methods"):
            ShardedScoreIndex.from_index(ScoreIndex(hepth_tiny))


class TestShardStructure:
    @pytest.mark.parametrize("partitioner", ["hash", "year"])
    @pytest.mark.parametrize("n_shards", [1, 2, 7])
    def test_partition_covers_every_paper_once(
        self, indexed, partitioner, n_shards
    ):
        store = ShardedScoreIndex.from_index(
            indexed, n_shards=n_shards, partitioner=partitioner
        )
        seen = np.concatenate(
            [shard.global_indices for shard in store.iter_shards()]
        )
        assert np.sort(seen).tolist() == list(
            range(indexed.network.n_papers)
        )
        assert store.n_papers == indexed.network.n_papers

    def test_year_partition_is_contiguous(self, indexed):
        store = ShardedScoreIndex.from_index(
            indexed, n_shards=3, partitioner="year"
        )
        tops = [
            float(shard.times.max())
            for shard in store.iter_shards()
            if shard.n_papers
        ]
        bottoms = [
            float(shard.times.min())
            for shard in store.iter_shards()
            if shard.n_papers
        ]
        for earlier_top, later_bottom in zip(tops, bottoms[1:]):
            assert earlier_top <= later_bottom

    def test_shard_slices_match_index(self, indexed):
        store = ShardedScoreIndex.from_index(indexed, n_shards=3)
        full = indexed.scores("PR")
        for shard in store.iter_shards():
            assert (shard.scores["PR"] == full[shard.global_indices]).all()

    def test_shard_scores_read_only(self, indexed):
        store = ShardedScoreIndex.from_index(indexed, n_shards=2)
        with pytest.raises(ValueError, match="read-only"):
            store.shard(0).scores["PR"][0] = 9.9

    def test_shard_id_out_of_range(self, indexed):
        store = ShardedScoreIndex.from_index(indexed, n_shards=2)
        with pytest.raises(ConfigurationError, match="out of range"):
            store.shard(2)


class TestSyncRouting:
    def test_sync_reports_touched_shards(self, indexed):
        store = ShardedScoreIndex.from_index(indexed, n_shards=4)
        updater = DeltaUpdater(indexed, sharded=store)
        new_ids = [f"NEW-{i}" for i in range(6)]
        report = updater.apply(
            NetworkDelta(
                papers=tuple((pid, 2004.0) for pid in new_ids),
                citations=(),
            )
        )
        expected = sorted({hash_shard_of(pid, 4) for pid in new_ids})
        assert list(report.touched_shards) == expected
        assert store.version == indexed.version
        assert store.n_papers == indexed.network.n_papers

    def test_sync_refreshes_scores_without_growth(self, indexed):
        store = ShardedScoreIndex.from_index(indexed, n_shards=2)
        indexed.refresh()
        touched = store.sync()
        assert touched == ()
        assert store.version == indexed.version
        full = indexed.scores("PR")
        for shard in store.iter_shards():
            assert (shard.scores["PR"] == full[shard.global_indices]).all()

    def test_year_routing_uses_build_time_boundaries(self, indexed):
        store = ShardedScoreIndex.from_index(
            indexed, n_shards=3, partitioner="year"
        )
        updater = DeltaUpdater(indexed, sharded=store)
        # A paper far in the future lands in the last year shard.
        report = updater.apply(
            NetworkDelta(papers=(("FUTURE", 2050.0),), citations=())
        )
        assert report.touched_shards == (2,)

    def test_detached_store_cannot_sync(self, indexed, tmp_path):
        store = ShardedScoreIndex.from_index(indexed, n_shards=2)
        store.save(str(tmp_path / "store"))
        loaded = ShardedScoreIndex.load(str(tmp_path / "store"))
        with pytest.raises(ConfigurationError, match="detached"):
            loaded.sync()
        # A detached store still saves, and writes the same bytes.
        loaded.save(str(tmp_path / "other"))
        assert (tmp_path / "other").read_bytes() == (
            tmp_path / "store"
        ).read_bytes()


class TestPersistence:
    def test_roundtrip_preserves_everything(self, indexed, tmp_path):
        store = ShardedScoreIndex.from_index(
            indexed, n_shards=3, partitioner="year"
        )
        store.save(str(tmp_path / "store"))
        loaded = ShardedScoreIndex.load(str(tmp_path / "store"))
        assert loaded.n_shards == 3
        assert loaded.partitioner == "year"
        assert loaded.version == store.version
        assert loaded.labels == store.labels
        for shard_id in range(3):
            original = store.shard(shard_id)
            restored = loaded.shard(shard_id)
            assert restored.paper_ids == original.paper_ids
            assert (
                restored.global_indices == original.global_indices
            ).all()
            for label in store.labels:
                assert (
                    restored.scores[label] == original.scores[label]
                ).all()

    def test_load_is_lazy(self, indexed, tmp_path):
        store = ShardedScoreIndex.from_index(indexed, n_shards=4)
        store.save(str(tmp_path / "store"))
        loaded = ShardedScoreIndex.load(str(tmp_path / "store"))
        assert loaded.loaded_shard_count == 0
        loaded.shard(1)
        assert loaded.loaded_shard_count == 1

    def test_header_declares_more_shards_than_it_describes(
        self, indexed, tmp_path
    ):
        from repro.io.layout import encode, read

        path = str(tmp_path / "store")
        ShardedScoreIndex.from_index(indexed, n_shards=2).save(path)
        decoded = read(path, kind="store", error=IndexIntegrityError)
        meta = dict(decoded.meta, n_shards=3)
        encode("store", meta, decoded.arrays).save(path)
        with pytest.raises(IndexIntegrityError, match="shards/2/.* missing"):
            ShardedScoreIndex.load(path)


class TestSpanMemoBound:
    def test_filtered_span_memos_are_capped(self, indexed):
        store = ShardedScoreIndex.from_index(indexed, n_shards=1)
        shard = store.shard(0)
        for start in range(shard.MAX_SPAN_MEMOS + 20):
            shard.order("PR", (1990.0 + start, 2000.0 + start))
        spans = sum(1 for _, span in shard._orders if span is not None)
        assert spans <= shard.MAX_SPAN_MEMOS
        # The full per-method order is never evicted.
        assert ("PR", None) in shard._orders

    def test_evicted_span_recomputes_identically(self, indexed):
        store = ShardedScoreIndex.from_index(indexed, n_shards=1)
        shard = store.shard(0)
        span = (1995.0, 1999.0)
        first = shard.order("PR", span).copy()
        for start in range(shard.MAX_SPAN_MEMOS + 5):
            shard.order("PR", (1800.0 + start, 1801.0 + start))
        assert (shard.order("PR", span) == first).all()


@st.composite
def _partitioned_scores(draw):
    """Scores with forced ties, and an owning shard per global row.

    Drawing scores from a pool of at most four values makes ties the
    rule; small corpora over up to 7 shards leave shards empty.
    """
    n_papers = draw(st.integers(min_value=0, max_value=30))
    n_shards = draw(st.sampled_from([1, 2, 7]))
    pool = draw(
        st.lists(
            st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=4,
        )
    )
    scores = draw(
        st.lists(
            st.sampled_from(pool), min_size=n_papers, max_size=n_papers
        )
    )
    owners = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_shards - 1),
            min_size=n_papers,
            max_size=n_papers,
        )
    )
    return np.asarray(scores, dtype=np.float64), np.asarray(owners), n_shards


class TestRankCountOracle:
    """``count_ranked_before`` against a brute-force count.

    The oracle shares no code with the shard: a paper ranks before
    ``(score, gi)`` iff its score is higher, or equal with a smaller
    global index.
    """

    @staticmethod
    def _shards(scores, owners, n_shards):
        shards = []
        for shard_id in range(n_shards):
            owned = np.nonzero(owners == shard_id)[0]
            shards.append(
                Shard(
                    shard_id,
                    owned,
                    [f"P{i}" for i in owned],
                    np.zeros(owned.size),
                    {"X": scores[owned]},
                )
            )
        return shards

    @given(_partitioned_scores(), st.data())
    def test_matches_brute_force_count(self, partitioned, data):
        scores, owners, n_shards = partitioned
        shards = self._shards(scores, owners, n_shards)
        rows = [(float(s), gi) for gi, s in enumerate(scores)]
        # Probes off the rows too: scores outside the pool's range, and
        # global indices past both ends.
        probe_scores = [float(s) for s in scores] + [-2.0, 0.0, 2.0]
        rows += data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(probe_scores),
                    st.integers(min_value=-1, max_value=scores.size + 1),
                ),
                max_size=5,
            )
        )
        g = np.arange(scores.size)
        for score, gi in rows:
            expected = (scores > score) | ((scores == score) & (g < gi))
            for shard in shards:
                mine = owners == shard.shard_id
                assert shard.count_ranked_before("X", score, gi) == int(
                    np.count_nonzero(expected & mine)
                )
            assert sum(
                shard.count_ranked_before("X", score, gi)
                for shard in shards
            ) == int(np.count_nonzero(expected))

    def test_repeated_calls_reuse_one_key_array(self, indexed, monkeypatch):
        shard = ShardedScoreIndex.from_index(indexed, n_shards=2).shard(0)
        searched = []
        searchsorted = np.searchsorted

        def spy(keys, value, *args, **kwargs):
            searched.append(keys)
            return searchsorted(keys, value, *args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", spy)

        def keys_searched(label):
            searched.clear()
            for row in range(3):
                shard.count_ranked_before(
                    label,
                    float(shard.scores[label][row]),
                    int(shard.global_indices[row]),
                )
            return list(searched)

        by_label = {label: keys_searched(label) for label in ("PR", "CC")}
        for label, arrays in by_label.items():
            assert len(arrays) >= 3, label
            assert all(keys is arrays[0] for keys in arrays), label
            assert not arrays[0].flags.writeable
        assert by_label["PR"][0] is not by_label["CC"][0]


class TestSyncOracle:
    """Shard generations against from-scratch slices, version by version.

    Shards grow by appending new papers to id tables shared with their
    earlier generations.  After every sync each shard must equal a
    fresh slice of the backing index, and a generation captured before
    the sync must still find its own papers and none of the new ones.
    """

    @given(
        n_shards=st.integers(1, 4),
        partitioner=st.sampled_from(("hash", "year")),
        batch_size=st.integers(20, 250),
    )
    @settings(max_examples=12, deadline=None)
    def test_every_sync_equals_a_fresh_slice(
        self, hepth_log, n_shards, partitioner, batch_size
    ):
        ingestor = StreamIngestor(
            hepth_log,
            ("PR", "CC"),
            batch_size=batch_size,
            bootstrap_size=len(hepth_log) - 600,
            shards=n_shards,
            partitioner=partitioner,
        )
        ingestor.step()
        service = ingestor.service
        boundaries = year_boundaries(
            service.index.network.publication_times, n_shards
        )
        assert_fresh_slices(service.sharded, service.index, boundaries)
        while not ingestor.exhausted:
            before = service.sharded.snapshot()
            owned = {
                shard.shard_id: shard.paper_ids
                for shard in before.loaded_shards()
            }
            known = service.index.network.n_papers
            ingestor.step()
            assert_fresh_slices(service.sharded, service.index, boundaries)
            new_ids = service.index.network.paper_ids_from(known)
            assert new_ids
            for shard in before.loaded_shards():
                assert shard.paper_ids == owned[shard.shard_id]
                for local, pid in enumerate(owned[shard.shard_id]):
                    assert shard.location_of(pid) == local
                for pid in new_ids:
                    assert shard.location_of(pid) is None


class TestYearPruning:
    def test_time_bounds_only_for_year_partitioner(self, indexed):
        hash_store = ShardedScoreIndex.from_index(indexed, n_shards=3)
        assert hash_store.shard_time_bounds(0) is None
        year_store = ShardedScoreIndex.from_index(
            indexed, n_shards=3, partitioner="year"
        )
        lo0, hi0 = year_store.shard_time_bounds(0)
        lo2, hi2 = year_store.shard_time_bounds(2)
        assert lo0 == float("-inf") and hi2 == float("inf")
        assert hi0 <= lo2

    def test_bounds_cover_actual_shard_times(self, indexed):
        store = ShardedScoreIndex.from_index(
            indexed, n_shards=4, partitioner="year"
        )
        for shard_id in range(4):
            shard = store.shard(shard_id)
            if shard.n_papers == 0:
                continue
            lo, hi = store.shard_time_bounds(shard_id)
            assert lo <= float(shard.times.min())
            assert float(shard.times.max()) <= hi


class TestReadDuringSync:
    """Queries racing a sync see one whole generation, never a mix.

    The store publishes each rebuild as a single snapshot swap;
    a batch captured against the old generation completes against it
    bit-identically while the new one goes live.  Before the snapshot
    refactor this test crashed (readers observed the half-rebuilt
    shard dict) or returned pages mixing two versions.
    """

    def _reference_results(self, network, base, delta, queries):
        """Direct single-version results at version 0 and version 1."""
        from repro.serve import RankingService

        refs = {}
        index = ScoreIndex(base)
        index.add_method("PR")
        index.add_method("CC")
        service = RankingService(index)
        refs[0] = service.engine.execute(queries)
        service.update(delta)
        refs[1] = service.engine.execute(queries)
        return refs

    def test_threaded_queries_old_or_new_never_torn(self, hepth_tiny):
        import threading

        from repro.graph.temporal import chronological_order
        from repro.serve import (
            PaperQuery,
            QueryEngine,
            TopKQuery,
            delta_between,
        )
        import numpy as np

        order = chronological_order(hepth_tiny)
        base = hepth_tiny.subnetwork(
            np.sort(order[: hepth_tiny.n_papers - 25])
        )
        delta = delta_between(base, hepth_tiny)
        queries = (
            TopKQuery(method="PR", k=20),
            TopKQuery(method="CC", k=10, offset=5),
            PaperQuery(paper_id=base.paper_ids[0]),
        )
        refs = self._reference_results(hepth_tiny, base, delta, queries)

        live = ScoreIndex(base)
        live.add_method("PR")
        live.add_method("CC")
        store = ShardedScoreIndex.from_index(live, n_shards=4)
        engine = QueryEngine(store)
        updater = DeltaUpdater(live, sharded=store)

        observed: list[tuple[int, tuple]] = []
        failures: list[BaseException] = []
        done = threading.Event()
        lock = threading.Lock()

        def reader():
            try:
                while not done.is_set():
                    version, results = engine.execute_versioned(queries)
                    with lock:
                        observed.append((version, results))
            except BaseException as error:  # noqa: BLE001
                failures.append(error)

        # The generation captured before the delta keeps answering for
        # its own papers, and for none of the delta's, while later
        # generations append to the id tables it shares.
        old_generation = store.snapshot()
        owned = {
            shard.shard_id: shard.paper_ids
            for shard in old_generation.loaded_shards()
        }
        delta_ids = [pid for pid, _ in delta.papers]
        lookups = []

        def lookup_reader():
            try:
                while not done.is_set():
                    for shard in old_generation.loaded_shards():
                        mine = owned[shard.shard_id]
                        for local in range(0, len(mine), 7):
                            assert shard.location_of(mine[local]) == local
                        for pid in delta_ids:
                            assert shard.location_of(pid) is None
                    lookups.append(1)
            except BaseException as error:  # noqa: BLE001
                failures.append(error)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=lookup_reader))
        for thread in threads:
            thread.start()
        try:
            # Same-version rebuilds first: the store swaps generations
            # under the readers without any version change...
            for _ in range(10):
                store.sync()
            # ...then the real thing: a delta lands mid-traffic.
            updater.apply(delta)
            for _ in range(10):
                store.sync()
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=30)

        assert not failures, failures
        assert observed and lookups
        newest = store.snapshot().loaded_shards()
        for pid in delta_ids:
            assert sum(
                shard.location_of(pid) is not None for shard in newest
            ) == 1
        versions = {version for version, _ in observed}
        assert versions <= {0, 1}
        for version, results in observed:
            assert results == refs[version], (
                f"torn read at version {version}"
            )
