"""Tests for the micro-batched replay path and its equivalence claims."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, GraphError, StreamError
from repro.graph import NetworkBuilder
from repro.stream import (
    CitationEvent,
    EventLog,
    PaperEvent,
    StreamIngestor,
    batch_compute,
    network_from_log,
)

pytestmark = pytest.mark.stream

#: AttRank with a pinned decay rate: the default fit needs a mature
#: citation-age distribution, which tiny bootstrap snapshots lack.
AR_PARAMS = {"AR": {"decay_rate": -0.6}}
METHODS = ("AR", "PR", "CC")


@pytest.fixture(scope="module")
def hepth_log(hepth_tiny) -> EventLog:
    return EventLog.from_network(hepth_tiny)


def _assert_scores_equal(index_a, index_b, labels=METHODS):
    for label in labels:
        np.testing.assert_array_equal(
            index_a.scores(label), index_b.scores(label), err_msg=label
        )


class TestBatching:
    def test_batches_never_split_groups(self, hepth_log):
        ingestor = StreamIngestor(
            hepth_log, ("CC",), batch_size=7, bootstrap_size=40
        )
        while not ingestor.exhausted:
            report = ingestor.step()
            if not ingestor.exhausted:
                # The next batch starts on a paper event.
                assert isinstance(
                    hepth_log[report.offset_end], PaperEvent
                )
            assert report.n_events >= 1

    def test_batch_size_floor(self, hepth_log):
        ingestor = StreamIngestor(
            hepth_log, ("CC",), batch_size=50, bootstrap_size=50
        )
        reports = []
        while not ingestor.exhausted:
            reports.append(ingestor.step())
        # Every batch except possibly the final one reaches the floor.
        for report in reports[:-1]:
            assert report.n_events >= 50

    def test_watermark_policy_bounds_batch_span(self, hepth_log):
        ingestor = StreamIngestor(
            hepth_log,
            ("CC",),
            batch_size=10_000,  # size never triggers
            bootstrap_size=1,
            watermark_years=1.0,
        )
        while not ingestor.exhausted:
            report = ingestor.step()
            events = hepth_log.events[
                report.offset_start:report.offset_end
            ]
            span = events[-1].time - events[0].time
            # The batch closes at the first group boundary beyond the
            # watermark, so it never runs a whole extra year past it.
            assert span < 2.0

    def test_bootstrap_size_controls_first_batch(self, hepth_log):
        ingestor = StreamIngestor(
            hepth_log, ("CC",), batch_size=4, bootstrap_size=100
        )
        first = ingestor.step()
        assert first.bootstrap
        assert first.n_events >= 100
        second = ingestor.step()
        assert not second.bootstrap
        assert second.n_events < 100

    def test_invalid_configuration(self, hepth_log):
        with pytest.raises(ConfigurationError, match="batch_size"):
            StreamIngestor(hepth_log, ("CC",), batch_size=0)
        with pytest.raises(ConfigurationError, match="bootstrap_size"):
            StreamIngestor(hepth_log, ("CC",), bootstrap_size=0)
        for watermark in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="watermark"):
                StreamIngestor(hepth_log, ("CC",), watermark_years=watermark)
        with pytest.raises(ConfigurationError, match="method"):
            StreamIngestor(hepth_log, ())
        with pytest.raises(StreamError, match="empty"):
            StreamIngestor(EventLog([]), ("CC",))


class TestReplay:
    def test_pre_bootstrap_accessors_raise(self, hepth_log):
        ingestor = StreamIngestor(hepth_log, ("CC",))
        with pytest.raises(StreamError, match="bootstrap"):
            ingestor.index
        with pytest.raises(StreamError, match="bootstrap"):
            ingestor.service

    def test_step_past_end_raises(self, toy):
        ingestor = StreamIngestor(
            EventLog.from_network(toy), ("CC",), batch_size=1000
        )
        ingestor.step()
        assert ingestor.exhausted
        with pytest.raises(StreamError, match="exhausted"):
            ingestor.step()

    def test_replay_report_accounting(self, hepth_log):
        ingestor = StreamIngestor(
            hepth_log, ("CC",), batch_size=200, bootstrap_size=200
        )
        report = ingestor.replay()
        assert report.exhausted
        assert report.n_events == len(hepth_log)
        assert report.n_batches == ingestor.batches_applied
        assert report.n_papers == hepth_log.n_papers
        assert report.events_per_second > 0
        # Version: bootstrap leaves v0, every delta bumps by one.
        assert report.version == report.n_batches - 1

    def test_serves_queries_between_batches(self, hepth_log):
        ingestor = StreamIngestor(
            hepth_log,
            METHODS,
            batch_size=256,
            bootstrap_size=512,
            method_params=AR_PARAMS,
            shards=3,
        )
        ingestor.step()
        seen_versions = []
        while not ingestor.exhausted:
            ingestor.step()
            page = ingestor.service.top_k("AR", k=5)
            assert len(page.entries) == 5
            assert page.version == ingestor.index.version
            seen_versions.append(page.version)
        assert seen_versions == sorted(seen_versions)

    def test_replay_equals_batch_compute_after_finalize(self, hepth_log):
        cold = batch_compute(hepth_log, METHODS, method_params=AR_PARAMS)
        ingestor = StreamIngestor(
            hepth_log,
            METHODS,
            batch_size=128,
            bootstrap_size=512,
            method_params=AR_PARAMS,
        )
        ingestor.replay()
        # Warm replay state agrees to solver tolerance...
        for label in METHODS:
            np.testing.assert_allclose(
                ingestor.index.scores(label),
                cold.scores(label),
                atol=1e-9,
            )
        # ...and the canonical finalize closes the gap bit-exactly.
        ingestor.finalize()
        _assert_scores_equal(ingestor.index, cold)
        final = network_from_log(hepth_log)
        assert ingestor.index.network.paper_ids == final.paper_ids

    def test_replay_is_deterministic(self, hepth_log):
        def run():
            ingestor = StreamIngestor(
                hepth_log,
                METHODS,
                batch_size=64,
                bootstrap_size=512,
                method_params=AR_PARAMS,
            )
            ingestor.replay()
            return ingestor

        _assert_scores_equal(run().index, run().index)

    def test_service_fresh_after_finalize(self, hepth_log):
        ingestor = StreamIngestor(
            hepth_log,
            ("PR", "CC"),
            batch_size=512,
            bootstrap_size=512,
        )
        ingestor.replay()
        stale = ingestor.service.top_k("PR", k=3)
        ingestor.finalize()
        fresh = ingestor.service.top_k("PR", k=3)
        # The finalize bumped the version out of band; the service must
        # notice and never serve the stale page object again.
        assert fresh.version == ingestor.index.version
        assert fresh.version == stale.version + 1

    def test_missing_reference_policies(self):
        from repro.stream import CitationEvent

        events = [
            PaperEvent(time=2000.0, paper_id="a"),
            PaperEvent(time=2001.0, paper_id="b"),
            CitationEvent(time=2001.0, citing="b", cited="a"),
            PaperEvent(time=2002.0, paper_id="c"),
            CitationEvent(time=2002.0, citing="c", cited="ghost"),
        ]
        log = EventLog(events)
        skipping = StreamIngestor(
            log, ("CC",), batch_size=2, bootstrap_size=3
        )
        skipping.replay()
        assert skipping.index.network.n_citations == 1

        from repro.errors import GraphError

        erroring = StreamIngestor(
            log,
            ("CC",),
            batch_size=2,
            bootstrap_size=3,
            missing_references="error",
        )
        with pytest.raises(GraphError, match="ghost"):
            erroring.replay()


# ----------------------------------------------------------------------
# Oracles: the column paths against per-event loops
# ----------------------------------------------------------------------
_IDS = st.text(alphabet="abcdefgh", min_size=1, max_size=2)


@st.composite
def _logs(draw) -> EventLog:
    """Valid logs whose references repeat, leave the log, or name papers
    that arrive later."""
    ids = draw(st.lists(_IDS, min_size=1, max_size=12, unique=True))
    times = sorted(
        draw(
            st.lists(
                st.integers(1990, 2000), min_size=len(ids), max_size=len(ids)
            )
        )
    )
    targets = ids + ["outside"]
    events = []
    for paper, year in zip(ids, times):
        events.append(PaperEvent(float(year), paper))
        events.extend(
            CitationEvent(float(year), paper, cited)
            for cited in draw(st.lists(st.sampled_from(targets), max_size=4))
            if cited != paper
        )
    return EventLog(events)


def _builder_network(events, policy):
    """The snapshot a NetworkBuilder builds, fed one event at a time."""
    builder = NetworkBuilder(missing_references=policy)
    for event in events:
        if isinstance(event, PaperEvent):
            builder.add_paper(event.paper_id, event.time)
        else:
            builder.add_reference(event.citing, event.cited)
    return builder.build()


def _outcome(build) -> object:
    """A network's ids, time bytes and edges, or the GraphError text."""
    try:
        network = build()
    except GraphError as error:
        return f"GraphError: {error}"
    return (
        network.paper_ids,
        network.publication_times.tobytes(),
        network.citing.tolist(),
        network.cited.tolist(),
    )


def _reference_cut(events, start, minimum, watermark) -> int:
    """The first legal cut past ``start``, by a scan of every event."""
    for position in range(start + 1, len(events)):
        event = events[position]
        if not isinstance(event, PaperEvent):
            continue
        if position - start >= minimum:
            return position
        if (
            watermark is not None
            and event.time - events[start].time >= watermark
        ):
            return position
    return len(events)


class TestColumnOracles:
    @settings(max_examples=100, deadline=None)
    @given(
        log=_logs(),
        size=st.integers(1, 40),
        policy=st.sampled_from(["skip", "error"]),
    )
    def test_network_builds_match_a_per_event_builder(self, log, size, policy):
        events = log.events
        assert _outcome(
            lambda: network_from_log(log, missing_references=policy)
        ) == _outcome(lambda: _builder_network(events, policy))

        cut = _reference_cut(events, 0, size, None)
        ingestor = StreamIngestor(
            log, ("CC",), bootstrap_size=size, missing_references=policy
        )

        def bootstrap():
            report = ingestor.step()
            assert report.offset_end == cut
            return ingestor.index.network

        assert _outcome(bootstrap) == _outcome(
            lambda: _builder_network(events[:cut], policy)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        log=_logs(),
        batch_size=st.integers(1, 6),
        bootstrap_size=st.integers(1, 10),
        watermark=st.one_of(
            st.none(), st.sampled_from([1.0, 2.0, 3.0]), st.floats(0.5, 6.0)
        ),
    )
    def test_cuts_match_a_linear_scan(
        self, log, batch_size, bootstrap_size, watermark
    ):
        events = log.events
        ingestor = StreamIngestor(
            log,
            ("CC",),
            batch_size=batch_size,
            bootstrap_size=bootstrap_size,
            watermark_years=watermark,
        )
        minimum = bootstrap_size
        while not ingestor.exhausted:
            start = ingestor.offset
            report = ingestor.step()
            assert report.offset_end == _reference_cut(
                events, start, minimum, watermark
            )
            minimum = batch_size


@pytest.mark.slow
class TestReplayMatrix:
    """The acceptance matrix: batch sizes x shard counts, with resume.

    Every cell replays the full log with one mid-replay
    checkpoint/resume and must land bit-identical to the cold batch
    compute after finalize.
    """

    @pytest.mark.parametrize("batch_size", [1, 16, 256])
    @pytest.mark.parametrize("shards", [1, 4])
    def test_replay_matrix(self, hepth_log, tmp_path, batch_size, shards):
        cold = batch_compute(hepth_log, METHODS, method_params=AR_PARAMS)
        ingestor = StreamIngestor(
            hepth_log,
            METHODS,
            batch_size=batch_size,
            bootstrap_size=512,
            shards=shards,
            method_params=AR_PARAMS,
        )
        ingestor.replay(max_batches=3)
        scratch = str(tmp_path / f"ckpt-{batch_size}-{shards}")
        ingestor.checkpoint(scratch)
        resumed = StreamIngestor.resume(scratch, hepth_log)
        report = resumed.replay()
        assert report.exhausted
        resumed.finalize()
        _assert_scores_equal(resumed.index, cold)
        # The served ranking agrees with the canonical scores too.
        top = resumed.service.top_k("AR", k=10)
        expected = np.argsort(
            -cold.scores("AR"), kind="stable"
        )[:10]
        assert [
            resumed.index.network.index_of(row.paper_id)
            for row in top.entries
        ] == [int(i) for i in expected]
