"""Asyncio tests for the request coalescer.

Each test drives a real event loop via ``asyncio.run`` (no plugin
needed): submits race each other, batches form naturally behind the
drain worker, and results must be bit-identical to direct service
calls.
"""

import asyncio
import threading

import pytest

from repro.errors import ConfigurationError, GatewayError, GraphError
from repro.gateway import RequestCoalescer
from repro.obs.registry import Histogram
from repro.serve import (
    CompareQuery,
    PaperQuery,
    QueryEngine,
    RankingService,
    ScoreIndex,
    ShardedScoreIndex,
    TopKQuery,
)
from repro.synth import toy_network


def _make_service() -> RankingService:
    index = ScoreIndex(toy_network())
    index.add_method("CC")
    index.add_method("PR")
    return RankingService(index)


class TestCoalescing:
    def test_single_query_round_trip(self):
        service = _make_service()

        async def main():
            coalescer = RequestCoalescer(service)
            try:
                return await coalescer.submit(TopKQuery(method="CC", k=3))
            finally:
                await coalescer.close()

        version, page = asyncio.run(main())
        assert version == 0
        assert page == service.top_k("CC", k=3)

    def test_concurrent_submits_form_batches(self):
        service = _make_service()
        batch_sizes = Histogram("t_batch_size", "help", bounds=(1.0,))
        queries = [
            TopKQuery(method="CC", k=3),
            TopKQuery(method="PR", k=2),
            PaperQuery(paper_id="A"),
            CompareQuery(methods=("CC", "PR"), k=4),
        ] * 4

        async def main():
            coalescer = RequestCoalescer(service, batch_sizes=batch_sizes)
            try:
                return await asyncio.gather(
                    *(coalescer.submit(query) for query in queries)
                )
            finally:
                await coalescer.close()

        outcomes = asyncio.run(main())
        assert len(outcomes) == len(queries)
        # Everything answered at the single live version...
        assert {version for version, _ in outcomes} == {0}
        # ...bit-identical to the direct paths...
        assert outcomes[0][1] == service.top_k("CC", k=3)
        assert outcomes[2][1] == service.paper("A")
        assert outcomes[3][1] == service.compare(("CC", "PR"), k=4)
        # ...and the 16 concurrent submits coalesced into fewer
        # engine batches (the first drain takes 1, the rest pile up).
        assert batch_sizes.snapshot()["count"] < len(queries)
        assert batch_sizes.snapshot()["sum"] == len(queries)

    def test_per_query_error_attribution(self):
        service = _make_service()
        queries = [
            TopKQuery(method="CC", k=2),
            PaperQuery(paper_id="NO-SUCH-PAPER"),
            TopKQuery(method="NOPE", k=2),
            TopKQuery(method="PR", k=2),
        ]

        async def main():
            coalescer = RequestCoalescer(service)
            try:
                return await asyncio.gather(
                    *(coalescer.submit(query) for query in queries),
                    return_exceptions=True,
                )
            finally:
                await coalescer.close()

        good_0, bad_paper, bad_method, good_3 = asyncio.run(main())
        assert good_0[1] == service.top_k("CC", k=2)
        assert isinstance(bad_paper, GraphError)
        assert isinstance(bad_method, ConfigurationError)
        assert good_3[1] == service.top_k("PR", k=2)

    def test_engine_backend_without_cache(self):
        index = ScoreIndex(toy_network())
        index.add_method("CC")
        engine = QueryEngine(
            ShardedScoreIndex.from_index(index, n_shards=2)
        )

        async def main():
            coalescer = RequestCoalescer(engine)
            try:
                return await coalescer.submit(TopKQuery(method="CC", k=3))
            finally:
                await coalescer.close()

        version, page = asyncio.run(main())
        assert version == 0
        assert page == engine.top_k("CC", k=3)

    def test_submit_after_close_is_gateway_error(self):
        service = _make_service()

        async def main():
            coalescer = RequestCoalescer(service)
            await coalescer.start()
            await coalescer.close()
            with pytest.raises(GatewayError, match="draining"):
                await coalescer.submit(TopKQuery(method="CC", k=1))

        asyncio.run(main())

    def test_close_drains_pending_requests(self):
        service = _make_service()

        async def main():
            coalescer = RequestCoalescer(service)
            await coalescer.start()
            futures = [
                asyncio.ensure_future(
                    coalescer.submit(TopKQuery(method="CC", k=2))
                )
                for _ in range(8)
            ]
            await asyncio.sleep(0)      # let submits park
            await coalescer.close()     # must answer them, not drop
            return await asyncio.gather(*futures)

        outcomes = asyncio.run(main())
        assert len(outcomes) == 8
        assert all(
            page == service.top_k("CC", k=2) for _, page in outcomes
        )

    def test_exclusively_serialises_with_batches(self):
        """An update applied via exclusively() is atomic to readers:
        every response version matches the batch's actual state."""
        from repro.serve import NetworkDelta

        service = _make_service()
        delta = NetworkDelta(
            papers=(("NEW", 2005.0),), citations=(("NEW", "A"),)
        )

        async def main():
            coalescer = RequestCoalescer(service)
            await coalescer.start()
            reads = [
                asyncio.ensure_future(
                    coalescer.submit(TopKQuery(method="CC", k=3))
                )
                for _ in range(6)
            ]
            await coalescer.exclusively(lambda: service.update(delta))
            late = await coalescer.submit(TopKQuery(method="CC", k=3))
            await coalescer.close()
            return await asyncio.gather(*reads), late

        outcomes, late = asyncio.run(main())
        for version, page in outcomes:
            assert page.version == version
            assert version in (0, 1)
        late_version, late_page = late
        assert late_version == 1
        assert late_page == service.top_k("CC", k=3)

    def test_bad_max_batch_rejected(self):
        with pytest.raises(GatewayError):
            RequestCoalescer(_make_service(), max_batch=0)


class TestWhereWorkRuns:
    """Read batches run inline on the event loop; updates do not."""

    def test_read_batches_run_on_the_event_loop_thread(self):
        service = _make_service()
        batch_threads = []

        async def main():
            coalescer = RequestCoalescer(service)
            backend_execute = coalescer._backend_execute

            def recording(queries):
                batch_threads.append(threading.get_ident())
                return backend_execute(queries)

            coalescer._backend_execute = recording
            try:
                await asyncio.gather(
                    coalescer.submit(TopKQuery(method="CC", k=2)),
                    coalescer.submit(PaperQuery(paper_id="A")),
                )
                await coalescer.submit(TopKQuery(method="PR", k=2))
            finally:
                await coalescer.close()
            return threading.get_ident()

        loop_thread = asyncio.run(main())
        assert batch_threads
        assert set(batch_threads) == {loop_thread}

    def test_exclusive_work_runs_off_the_event_loop_thread(self):
        service = _make_service()

        async def main():
            coalescer = RequestCoalescer(service)
            await coalescer.start()
            try:
                worker_thread = await coalescer.exclusively(
                    threading.get_ident
                )
            finally:
                await coalescer.close()
            return threading.get_ident(), worker_thread

        loop_thread, worker_thread = asyncio.run(main())
        assert worker_thread != loop_thread

    def test_backlog_yields_between_batches(self):
        # Four pending queries, two per batch: the first batch's
        # submitters must resume (and so could write their responses)
        # before the second batch runs on the loop.
        service = _make_service()
        events = []

        async def main():
            coalescer = RequestCoalescer(service, max_batch=2)
            backend_execute = coalescer._backend_execute

            def recording(queries):
                events.append(("batch", len(queries)))
                return backend_execute(queries)

            coalescer._backend_execute = recording

            async def client(i):
                await coalescer.submit(TopKQuery(method="CC", k=i + 1))
                events.append(("resumed", i))

            await coalescer.start()
            try:
                await asyncio.gather(*(client(i) for i in range(4)))
            finally:
                await coalescer.close()

        asyncio.run(main())
        assert events == [
            ("batch", 2),
            ("resumed", 0),
            ("resumed", 1),
            ("batch", 2),
            ("resumed", 2),
            ("resumed", 3),
        ]


class TestReadsDuringUpdates:
    """Every batch pins one published snapshot, so reads never wait."""

    def test_read_is_answered_while_a_step_is_held(self, monkeypatch):
        """A read arriving while an updater step is held in the executor
        (after the index took the batch, before the shard store
        publishes it) is answered at the previous version at once."""
        from repro.gateway import StreamUpdater
        from repro.stream import EventLog, StreamIngestor

        log = EventLog.from_network(toy_network())

        def make_ingestor():
            ingestor = StreamIngestor(
                log, methods=("CC", "PR"), batch_size=2, bootstrap_size=12
            )
            ingestor.step()
            return ingestor

        ingestor, replica = make_ingestor(), make_ingestor()
        service = ingestor.service
        query = TopKQuery(method="PR", k=3)
        entered, release = threading.Event(), threading.Event()
        store = service.sharded
        publish = store.sync

        def held_sync():
            entered.set()
            assert release.wait(5.0)
            return publish()

        monkeypatch.setattr(store, "sync", held_sync)

        async def main():
            coalescer = RequestCoalescer(service)
            await coalescer.start()
            updater = StreamUpdater(
                ingestor, coalescer, interval=0.0, max_batches=1
            )
            task = asyncio.ensure_future(updater.run())
            try:
                deadline = asyncio.get_running_loop().time() + 5.0
                while not entered.is_set():
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.005)
                during = await asyncio.wait_for(
                    coalescer.submit(query), timeout=2.0
                )
                index_version = service.index.version
            finally:
                release.set()
                await task
            after = await coalescer.submit(query)
            await coalescer.close()
            return during, index_version, after

        during, index_version, after = asyncio.run(main())
        assert index_version == 1
        assert during == (0, replica.service.top_k("PR", k=3))
        replica.step()
        assert after == (1, replica.service.top_k("PR", k=3))
