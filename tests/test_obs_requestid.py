"""Request-id isolation under concurrency.

The request id lives in a :data:`contextvars.ContextVar`; the gateway
binds one per request, and the coalescer copies each submitter's
context when the query parks and runs the batch under its leader's
copy.  These tests prove the id never *leaks*: a task (or thread)
always observes the id it bound, no matter how its requests
interleave with others inside shared batches — the hypothesis cases
drive randomised fleets of concurrently coalesced submits, the
threaded cases hammer the logging filter directly.
"""

from __future__ import annotations

import asyncio
import io
import json
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.gateway import RequestCoalescer
from repro.obs.logging import (
    MAX_REQUEST_ID_BYTES,
    bind_request_id,
    clear_worker_identity,
    configure_logging,
    current_request_id,
    get_logger,
    reset_logging,
    sanitize_request_id,
    set_worker_identity,
)
from repro.obs.trace import disable_tracing, enable_tracing
from repro.serve import RankingService, ScoreIndex, TopKQuery
from repro.synth import toy_network


def _make_service() -> RankingService:
    index = ScoreIndex(toy_network())
    index.add_method("CC")
    return RankingService(index)


# One backend for every hypothesis example: building the index is the
# slow part and the property only exercises context plumbing.
_SERVICE = _make_service()


@settings(max_examples=25, deadline=None)
@given(
    ks=st.lists(st.integers(min_value=1, max_value=5), min_size=1,
                max_size=12),
    stagger=st.lists(st.booleans(), min_size=12, max_size=12),
)
def test_coalesced_submits_keep_their_own_request_id(ks, stagger):
    """Every submitter still sees its own id after its batch resolves.

    Each task binds a distinct request id, submits through the shared
    coalescer (so several tasks land in the same engine batch), and
    checks the contextvar before, after, and around an extra await —
    a leak from the batch leader's context would surface here.
    """
    observed: dict[str, list[str | None]] = {}

    async def one_request(index: int, k: int) -> None:
        rid = f"req-{index}"
        with bind_request_id(rid):
            if stagger[index % len(stagger)]:
                await asyncio.sleep(0)  # vary batch composition
            assert current_request_id() == rid
            version, page = await coalescer.submit(
                TopKQuery(method="CC", k=k)
            )
            assert version == 0
            assert len(page.paper_ids) <= k
            after = current_request_id()
            await asyncio.sleep(0)
            observed[rid] = [after, current_request_id()]
        assert current_request_id() is None

    async def main() -> None:
        try:
            await asyncio.gather(
                *(one_request(i, k) for i, k in enumerate(ks))
            )
        finally:
            await coalescer.close()

    coalescer = RequestCoalescer(_SERVICE)
    asyncio.run(main())
    assert observed == {
        f"req-{i}": [f"req-{i}", f"req-{i}"] for i in range(len(ks))
    }


def test_batch_trace_attributes_every_coalesced_request_id():
    """The leader's ``engine.batch`` span lists all coalesced ids."""
    collector = enable_tracing()
    try:
        coalescer = RequestCoalescer(_SERVICE)

        async def one_request(index: int) -> None:
            from repro.obs.trace import start_trace

            rid = f"trace-req-{index}"
            with bind_request_id(rid):
                with start_trace("gateway.request", request_id=rid):
                    await coalescer.submit(TopKQuery(method="CC", k=2))

        async def main() -> None:
            try:
                await asyncio.gather(*(one_request(i) for i in range(6)))
            finally:
                await coalescer.close()

        asyncio.run(main())
        traces = collector.recent()
        assert len(traces) == 6
        submitted = {f"trace-req-{i}" for i in range(6)}
        attributed: set[str] = set()
        for trace in traces:
            for child in trace["spans"]:
                if child["name"] != "engine.batch":
                    continue
                ids = child["attrs"]["request_ids"]
                # The batch executes under its leader's context, so
                # the span lands in the leader's own trace.
                assert trace["request_id"] in ids
                attributed.update(ids)
        # Across all batches, every submit was attributed exactly once.
        assert attributed == submitted
    finally:
        disable_tracing()


@settings(max_examples=10, deadline=None)
@given(st.lists(st.text(alphabet="abcdef0123456789", min_size=4,
                        max_size=12), min_size=2, max_size=8,
                unique=True))
def test_threaded_log_records_carry_the_binding_threads_id(rids):
    """Concurrent threads each log under their own bound id."""
    sink = io.StringIO()
    lock = threading.Lock()
    configure_logging("INFO", json=True, stream=sink)
    try:
        logger = get_logger("leaktest")
        barrier = threading.Barrier(len(rids))

        def worker(rid: str) -> None:
            with bind_request_id(rid):
                barrier.wait()  # maximise interleaving
                for _ in range(20):
                    with lock:  # StringIO writes are not atomic
                        logger.info("ping", extra={"expected": rid})
                assert current_request_id() == rid
            assert current_request_id() is None

        threads = [
            threading.Thread(target=worker, args=(rid,)) for rid in rids
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        reset_logging()
    lines = sink.getvalue().strip().splitlines()
    assert len(lines) == 20 * len(rids)
    for line in lines:
        entry = json.loads(line)
        assert entry["request_id"] == entry["expected"]


class TestSanitizeRequestId:
    """The adoption gate for client-supplied ``X-Request-Id`` headers.

    The id lands verbatim in JSON log lines, trace trees, and profiler
    attribution keys, so a hostile header must come out either clean
    or rejected (``None`` — the caller keeps its generated id).
    """

    def test_clean_ids_pass_through(self):
        assert sanitize_request_id("trace-abc-123") == "trace-abc-123"
        assert sanitize_request_id("  padded  ") == "padded"

    @pytest.mark.parametrize(
        "hostile",
        [
            "evil\x01id",
            "a\tb",
            "crlf\r\nInjected-Header: gotcha",
            "newline\nonly",
            "del\x7fchar",
            "\x00",
        ],
    )
    def test_control_characters_reject_the_whole_id(self, hostile):
        assert sanitize_request_id(hostile) is None

    def test_oversized_ids_truncate_instead_of_rejecting(self):
        assert sanitize_request_id("x" * 300) == "x" * 128
        boundary = "y" * MAX_REQUEST_ID_BYTES
        assert sanitize_request_id(boundary) == boundary

    def test_truncation_happens_before_the_control_scan(self):
        # A control character beyond the cap is gone by the time the
        # scan runs: the surviving prefix is clean, so it is adopted.
        assert sanitize_request_id("x" * 128 + "\n") == "x" * 128

    def test_empty_and_absent_ids_fall_back(self):
        assert sanitize_request_id(None) is None
        assert sanitize_request_id("") is None
        assert sanitize_request_id("   ") is None

    @settings(max_examples=50, deadline=None)
    @given(st.text(max_size=200))
    def test_output_is_always_clean_and_bounded(self, raw):
        cleaned = sanitize_request_id(raw)
        if cleaned is not None:
            assert 0 < len(cleaned) <= MAX_REQUEST_ID_BYTES
            assert all(
                ord(c) >= 0x20 and ord(c) != 0x7F for c in cleaned
            )


class TestWorkerIdentityInLogs:
    """Every fleet log line says which process wrote it."""

    def _one_entry(self, *, extra=None):
        sink = io.StringIO()
        configure_logging("INFO", json=True, stream=sink)
        try:
            get_logger("fleettest").info("ping", extra=extra or {})
        finally:
            reset_logging()
        return json.loads(sink.getvalue().strip())

    def test_worker_fields_appear_when_identity_is_set(self):
        set_worker_identity("3", pid=4242)
        try:
            entry = self._one_entry()
        finally:
            clear_worker_identity()
        assert entry["worker"] == "3"
        assert entry["worker_pid"] == 4242

    def test_supervisor_label_is_a_plain_string(self):
        set_worker_identity("supervisor")
        try:
            entry = self._one_entry()
        finally:
            clear_worker_identity()
        assert entry["worker"] == "supervisor"
        assert isinstance(entry["worker_pid"], int)

    def test_identity_beats_a_colliding_extra_field(self):
        # The emitting process's identity is authoritative: a log call
        # cannot masquerade as another worker via ``extra=``.
        set_worker_identity("1")
        try:
            entry = self._one_entry(extra={"worker": "99"})
        finally:
            clear_worker_identity()
        assert entry["worker"] == "1"

    def test_no_worker_fields_outside_fleet_mode(self):
        clear_worker_identity()
        entry = self._one_entry()
        assert "worker" not in entry
        assert "worker_pid" not in entry
