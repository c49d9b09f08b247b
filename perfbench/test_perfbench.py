"""Tests of the benchmark's own arithmetic, load generator and verifier.

Run with ``python -m pytest perfbench/test_perfbench.py -q`` from the
repository root (``PYTHONPATH=src``).
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading
import time

import pytest

from perfbench import spans
from perfbench.loadgen import render_request, run_open_loop
from perfbench.run import UNITS, check_response, first_difference
from perfbench.stats import (
    generator_lateness,
    latency_from_due,
    penalised,
    percentile,
    rank_count,
    tail,
    tail_percentile,
)


class TestOpenLoopArithmetic:
    def test_latency_counts_from_the_due_time(self):
        # Due at 10.000, sent late at 10.030 behind a stall, answered at
        # 10.035: the request waited 35 ms, not the 5 ms a closed loop sees.
        assert latency_from_due(10.000, 10.035) == pytest.approx(0.035)

    def test_lateness_when_a_connection_was_free(self):
        assert generator_lateness(due=10.0, connection_free=9.5, sent=10.002) == pytest.approx(0.002)

    def test_lateness_excludes_waiting_for_a_busy_connection(self):
        # The only connection freed at 10.4; sending at 10.4005 is the
        # generator's own 0.5 ms, the other 400 ms are the server's.
        assert generator_lateness(due=10.0, connection_free=10.4, sent=10.4005) == pytest.approx(0.0005)

    def test_failed_requests_miss_the_limit(self):
        assert penalised(2.0, True, 250.0) == 250.0
        assert penalised(900.0, True, 250.0) == 900.0
        assert penalised(2.0, False, 250.0) == 2.0


class TestPercentileChoice:
    @pytest.mark.parametrize(
        "n, q",
        [(10_000, 99.9), (2_000, 99.5), (1_000, 99.0), (999, 98.0), (200, 95.0), (100, 90.0), (20, 50.0)],
    )
    def test_highest_percentile_with_ten_samples_beyond(self, n, q):
        assert tail_percentile(n) == q
        assert n - rank_count(q, n) >= 10

    def test_too_few_samples_for_any_percentile(self):
        assert tail_percentile(19) is None
        assert tail([3.0, 1.0, 2.0]) == (3.0, None)

    def test_rank_is_exact_for_decimal_percentiles(self):
        assert rank_count(99.9, 1000) == 999
        assert rank_count(99.0, 1000) == 990

    def test_tail_value_is_an_observed_sample(self):
        values = [float(v) for v in range(1, 1001)]
        assert tail(values) == (990.0, 99.0)
        assert percentile(values, 50) == 500.0


class TestVerifier:
    @pytest.fixture()
    def answered(self):
        from repro.serve import RankingService, ScoreIndex, result_payload
        from repro.synth import toy_network

        index = ScoreIndex(toy_network())
        index.add_method("PR")
        service = RankingService(index)
        result = service.top_k("PR", k=3)
        # What the gateway writes for this query.
        body = json.dumps({"version": service.version, "result": result_payload(result)})
        return body, service.version, result

    def test_accepts_the_identical_answer(self, answered):
        body, version, result = answered
        assert check_response(json.loads(body), version, result) is None

    def test_rejects_one_changed_score_digit(self, answered):
        body, version, result = answered
        score = repr(result.entries[1].score)
        digit = len(score) - 2
        changed = score[:digit] + str((int(score[digit]) + 1) % 10) + score[digit + 1 :]
        tampered = body.replace(score, changed, 1)
        assert tampered != body
        problem = check_response(json.loads(tampered), version, result)
        assert problem is not None and ".result.entries[1].score" in problem

    def test_names_the_first_difference(self):
        assert first_difference({"a": [1, 2]}, {"a": [1, 3]}) == ".a[1]: got 2, want 3"
        assert first_difference({"a": 1}, {"a": 1}) is None


class TestSelfTime:
    def test_children_and_links_are_subtracted_once(self):
        recorded = [
            {"id": 1, "name": "a", "start": 0.0, "end": 10.0, "parent": None, "rid": "x", "extra": None},
            {"id": 2, "name": "b", "start": 0.0, "end": 6.0, "parent": None, "rid": "y", "extra": None},
            {"id": 3, "name": "c", "start": 2.0, "end": 5.0, "parent": 1, "rid": "x", "extra": {"links": [1, 2]}},
            {"id": 4, "name": "d", "start": 4.0, "end": 7.0, "parent": 1, "rid": "x", "extra": None},
        ]
        own = spans.self_times(recorded)
        assert own == {1: 5.0, 2: 3.0, 3: 3.0, 4: 3.0}

    def test_every_declared_per_layer_metric_is_derived(self):
        metrics = spans.derive([], ready=0.0, overhead_ms=0.0)
        assert set(metrics) == set(UNITS[1])


@contextlib.contextmanager
def _answering_server(delay: float):
    """A keep-alive HTTP stub on localhost answering every GET after ``delay``.

    Every thread it starts is joined on exit, so no test leaves threads
    behind for later tests that sample all of the process's threads.
    """
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen()
    listener.settimeout(0.05)
    stop = threading.Event()
    handlers: list[threading.Thread] = []

    def handle(conn):
        with conn:
            buffer = b""
            try:
                while True:
                    chunk = conn.recv(4096)
                    if not chunk:
                        return
                    buffer += chunk
                    while b"\r\n\r\n" in buffer:
                        _, buffer = buffer.split(b"\r\n\r\n", 1)
                        time.sleep(delay)
                        conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
            except OSError:
                return  # the client hung up mid-answer

    def accept():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            conn.settimeout(5.0)
            handler = threading.Thread(target=handle, args=(conn,))
            handlers.append(handler)
            handler.start()

    acceptor = threading.Thread(target=accept)
    acceptor.start()
    try:
        yield listener.getsockname()
    finally:
        stop.set()
        acceptor.join(timeout=5.0)
        listener.close()
        for handler in handlers:
            handler.join(timeout=5.0)
    assert not acceptor.is_alive()
    assert not any(handler.is_alive() for handler in handlers)


class TestOpenLoopGenerator:
    def test_even_schedule_and_queueing_counted_from_due(self):
        requests = [render_request("/x", f"r{n}") for n in range(3)]
        with _answering_server(delay=0.025) as address:
            start = time.perf_counter() + 0.05
            outcomes = run_open_loop(
                address, requests, rate=50.0, start=start, connections=1, grace=2.0
            )
        assert all(outcome.ok for outcome in outcomes)
        assert [round(o.due - start, 6) for o in outcomes] == [0.0, 0.02, 0.04]
        # One connection, 25 ms per answer, a request due every 20 ms: the
        # queue grows, and latency from due grows with it.
        latencies = [o.done - o.due for o in outcomes]
        assert latencies[2] > latencies[0] + 0.005
        for outcome in outcomes:
            assert outcome.sent >= max(outcome.due, outcome.free)

    def test_requests_left_at_the_drain_deadline_fail(self):
        requests = [render_request("/x", f"r{n}") for n in range(5)]
        with _answering_server(delay=0.2) as address:
            outcomes = run_open_loop(
                address,
                requests,
                rate=100.0,
                start=time.perf_counter(),
                connections=1,
                grace=0.25,
            )
        # Answers take 200 ms on one connection; the drain deadline is
        # 300 ms after the start: one answered, one in flight, three unsent.
        assert outcomes[0].ok
        assert outcomes[1].error.startswith("lost")
        assert [o.error for o in outcomes[2:]] == ["unsent"] * 3
