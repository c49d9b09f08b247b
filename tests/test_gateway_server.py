"""Integration tests for the asyncio HTTP gateway.

Real sockets, real HTTP: each test starts a :class:`GatewayServer` on
an ephemeral port inside ``asyncio.run`` and drives it with raw
stream-client requests — concurrent clients during live stream
updates, load shedding under overload, and drain-on-shutdown.
"""

import asyncio
import io
import json
import time

import pytest

from expfmt import parse_exposition
from obsschema import validate_metrics
from repro.gateway import GatewayConfig, GatewayServer, GatewayThread
from repro.obs.logging import configure_logging, reset_logging
from repro.obs.trace import disable_tracing, enable_tracing
from repro.serve import RankingService, ScoreIndex
from repro.stream import EventLog, StreamIngestor
from repro.synth import toy_network


def _make_service(methods=("CC", "PR")) -> RankingService:
    index = ScoreIndex(toy_network())
    for label in methods:
        index.add_method(label)
    return RankingService(index)


async def _get_raw(host, port, target, *, extra_headers=()):
    """One HTTP GET; returns (status, header dict, raw body bytes)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        request = f"GET {target} HTTP/1.1\r\nHost: {host}\r\n"
        for name, value in extra_headers:
            request += f"{name}: {value}\r\n"
        request += "Connection: keep-alive\r\n\r\n"
        writer.write(request.encode())
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        lines = head.decode().split("\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if value:
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        body = await reader.readexactly(length)
        return status, headers, body
    finally:
        writer.close()


async def _get(host, port, target, *, close=False):
    """One HTTP GET on a fresh connection; returns (status, document)."""
    status, _, body = await _get_raw(host, port, target)
    return status, json.loads(body)


class TestRoutesAndErrors:
    def test_endpoints_and_typed_errors(self):
        service = _make_service()

        async def main():
            server = GatewayServer(service, config=GatewayConfig(port=0))
            await server.start()
            host, port = server.config.host, server.port
            try:
                out = {}
                out["health"] = await _get(host, port, "/v1/healthz")
                out["top"] = await _get(
                    host, port, "/v1/top?method=CC&k=3"
                )
                out["paper"] = await _get(host, port, "/v1/paper/A")
                out["compare"] = await _get(
                    host, port, "/v1/compare?methods=CC,PR&k=4"
                )
                out["missing"] = await _get(host, port, "/v1/paper/ZZZ")
                out["bad_method"] = await _get(
                    host, port, "/v1/top?method=NOPE"
                )
                out["bad_param"] = await _get(
                    host, port, "/v1/top?k=banana"
                )
                out["unknown"] = await _get(host, port, "/nope")
                out["metrics"] = await _get(host, port, "/v1/metrics")
                return out
            finally:
                await server.stop()

        out = asyncio.run(main())
        status, health = out["health"]
        assert status == 200 and health["status"] == "ok"
        assert health["papers"] == 8

        status, top = out["top"]
        assert status == 200
        direct = service.top_k("CC", k=3)
        assert top["version"] == 0
        assert [e["paper_id"] for e in top["result"]["entries"]] == list(
            direct.paper_ids
        )
        assert top["result"]["entries"][0]["score"] == (
            direct.entries[0].score
        )

        status, paper = out["paper"]
        assert status == 200
        assert paper["result"]["ranks"] == dict(
            service.paper("A").ranks
        )

        status, compare = out["compare"]
        assert status == 200
        assert set(compare["result"]["results"]) == {"CC", "PR"}

        assert out["missing"][0] == 404
        assert out["missing"][1]["error"]["type"] == "GraphError"
        assert out["bad_method"][0] == 400
        assert out["bad_method"][1]["error"]["type"] == (
            "ConfigurationError"
        )
        assert out["bad_param"][0] == 400
        assert out["unknown"][0] == 404

        status, metrics = out["metrics"]
        assert status == 200
        validate_metrics(metrics)
        assert metrics["requests"]["started"] >= 8
        assert metrics["latency"]["overall"]["count"] >= 7
        assert metrics["responses"]["by_status"] == {
            "200": 4, "400": 2, "404": 2,
        }
        assert "result_cache" in metrics
        assert metrics["admission"]["active"] == 0

    def test_malformed_request_gets_400_not_a_crash(self):
        """A garbage request line is answered with a typed 400 and a
        closed connection — never an unhandled task exception."""
        service = _make_service()

        async def main():
            server = GatewayServer(service, config=GatewayConfig(port=0))
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.config.host, server.port
                )
                writer.write(b"BOGUS\r\n\r\n")
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                status = int(head.split(b" ")[1])
                length = int(
                    [
                        line.split(b":")[1]
                        for line in head.split(b"\r\n")
                        if line.lower().startswith(b"content-length")
                    ][0]
                )
                document = json.loads(await reader.readexactly(length))
                trailing = await reader.read()   # server closed after
                writer.close()
                # The gateway keeps serving normally afterwards.
                follow_up = await _get(
                    server.config.host, server.port, "/v1/healthz"
                )
                return status, document, trailing, head, follow_up
            finally:
                await server.stop()

        status, document, trailing, head, follow_up = asyncio.run(main())
        assert status == 400
        assert document["error"]["type"] == "GatewayError"
        assert b"Connection: close" in head
        assert trailing == b""
        assert follow_up[0] == 200

    def test_unparseable_target_gets_400_not_a_dropped_connection(self):
        """A target the URL parser rejects (an unclosed IPv6 bracket)
        is answered with a typed 400 like any other malformed request,
        not an empty reply and a task traceback."""
        service = _make_service()

        async def main():
            server = GatewayServer(service, config=GatewayConfig(port=0))
            await server.start()
            host, port = server.config.host, server.port
            try:
                status, headers, body = await _get_raw(
                    host, port, "http://[::1/v1/top"
                )
                follow_up = await _get(host, port, "/v1/healthz")
                return status, headers, json.loads(body), follow_up
            finally:
                await server.stop()

        status, headers, document, follow_up = asyncio.run(main())
        assert status == 400
        assert document["error"]["type"] == "GatewayError"
        assert "request target" in document["error"]["message"]
        assert headers["connection"] == "close"
        assert follow_up[0] == 200

    def test_nan_year_bound_is_a_typed_400_and_never_cached(self):
        """NaN passes every order check and matches nothing: it must be
        refused, not answered with an empty page and a cache entry no
        later request can hit."""
        service = _make_service()

        async def main():
            server = GatewayServer(service, config=GatewayConfig(port=0))
            await server.start()
            host, port = server.config.host, server.port
            try:
                return [
                    await _get(host, port, "/v1/top?method=CC&year_min=nan")
                    for _ in range(4)
                ]
            finally:
                await server.stop()

        outcomes = asyncio.run(main())
        assert [status for status, _ in outcomes] == [400] * 4
        assert {doc["error"]["type"] for _, doc in outcomes} == {
            "ConfigurationError"
        }
        stats = service.cache_stats()
        assert (stats.misses, stats.size) == (0, 0)

    def test_keep_alive_connection_reuse(self):
        service = _make_service()

        async def main():
            server = GatewayServer(service, config=GatewayConfig(port=0))
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.config.host, server.port
                )
                statuses = []
                for _ in range(3):
                    writer.write(
                        b"GET /v1/top?method=CC&k=2 HTTP/1.1\r\n"
                        b"Host: x\r\n\r\n"
                    )
                    await writer.drain()
                    head = await reader.readuntil(b"\r\n\r\n")
                    statuses.append(int(head.split(b" ")[1]))
                    length = int(
                        [
                            line.split(b":")[1]
                            for line in head.split(b"\r\n")
                            if line.lower().startswith(b"content-length")
                        ][0]
                    )
                    await reader.readexactly(length)
                writer.close()
                return statuses
            finally:
                await server.stop()

        assert asyncio.run(main()) == [200, 200, 200]


class TestLiveUpdates:
    def test_concurrent_clients_during_stream_updates(self):
        """Mixed traffic while micro-batches land: every response is
        stamped with a consistent version and matches a direct call."""
        log = EventLog.from_network(toy_network())
        ingestor = StreamIngestor(
            log, methods=("CC",), batch_size=2, bootstrap_size=8
        )
        ingestor.step()  # bootstrap -> version 0
        service = ingestor.service

        async def client(host, port, n, out):
            for _ in range(n):
                status, document = await _get(
                    host, port, "/v1/top?method=CC&k=3"
                )
                assert status == 200
                out.append(document)

        async def main():
            server = GatewayServer(
                service,
                config=GatewayConfig(port=0, update_interval=0.0),
                ingestor=ingestor,
            )
            await server.start()
            responses: list = []
            try:
                await asyncio.gather(
                    *(
                        client(
                            server.config.host, server.port, 6, responses
                        )
                        for _ in range(4)
                    )
                )
            finally:
                await server.stop()
            return responses, server

        responses, server = asyncio.run(main())
        assert len(responses) == 24
        versions = {doc["version"] for doc in responses}
        assert len(versions) >= 1
        # The envelope version always matches the page's own stamp.
        for doc in responses:
            assert doc["result"]["version"] == doc["version"]
        assert server.metrics_document()["stream_updates"]["applied"] > 0
        # The final version's pages match a direct call now.
        final = max(versions)
        if service.version == final:
            direct = service.top_k("CC", k=3)
            for doc in responses:
                if doc["version"] == final:
                    assert [
                        e["paper_id"]
                        for e in doc["result"]["entries"]
                    ] == list(direct.paper_ids)


class TestLoadShedding:
    def test_overload_sheds_503(self, monkeypatch):
        service = _make_service()
        real = service.execute_batch

        def slow_execute(queries):
            time.sleep(0.05)
            return real(queries)

        monkeypatch.setattr(service, "execute_batch", slow_execute)

        async def main():
            server = GatewayServer(
                service,
                config=GatewayConfig(
                    port=0, max_inflight=1, max_queue=0
                ),
            )
            await server.start()
            try:
                outcomes = await asyncio.gather(
                    *(
                        _get(
                            server.config.host,
                            server.port,
                            "/v1/top?method=CC&k=2",
                        )
                        for _ in range(6)
                    )
                )
            finally:
                await server.stop()
            return outcomes, server

        outcomes, server = asyncio.run(main())
        statuses = sorted(status for status, _ in outcomes)
        assert 200 in statuses            # someone got served
        assert 503 in statuses            # someone was shed
        shed = [doc for status, doc in outcomes if status == 503]
        assert all(
            doc["error"]["reason"] == "queue-full" for doc in shed
        )
        document = server.metrics_document()
        validate_metrics(document)
        assert document["responses"]["shed_503"] == len(shed)

    def test_backend_breakage_answers_500_without_leaking_slots(
        self, monkeypatch
    ):
        """A non-ReproError from the backend must surface as a 500 and
        release its admission slot — not leak until the gateway sheds
        everything as queue-full."""
        service = _make_service()

        def broken_execute(queries):
            raise AttributeError("backend exploded")

        monkeypatch.setattr(service, "execute_batch", broken_execute)

        async def main():
            server = GatewayServer(
                service,
                config=GatewayConfig(port=0, max_inflight=2, max_queue=0),
            )
            await server.start()
            try:
                broken = [
                    await _get(
                        server.config.host, server.port,
                        "/v1/top?method=CC&k=2",
                    )
                    for _ in range(4)  # more failures than capacity
                ]
                active_after = server.admission.active
                monkeypatch.undo()  # heal the backend
                healed = await _get(
                    server.config.host, server.port,
                    "/v1/top?method=CC&k=2",
                )
            finally:
                await server.stop()
            return broken, active_after, healed

        broken, active_after, healed = asyncio.run(main())
        assert [status for status, _ in broken] == [500] * 4
        assert all(
            doc["error"]["type"] == "AttributeError"
            for _, doc in broken
        )
        assert active_after == 0        # every slot released
        assert healed[0] == 200         # not stuck shedding queue-full

    def test_rate_limit_sheds_429(self):
        service = _make_service()

        async def main():
            server = GatewayServer(
                service,
                config=GatewayConfig(
                    port=0, rate_limit=0.001, rate_burst=1
                ),
            )
            await server.start()
            try:
                first = await _get(
                    server.config.host, server.port,
                    "/v1/top?method=CC&k=2",
                )
                second = await _get_raw(
                    server.config.host, server.port,
                    "/v1/top?method=CC&k=2",
                )
                # healthz is never rate limited.
                health = await _get(
                    server.config.host, server.port, "/v1/healthz"
                )
            finally:
                await server.stop()
            return first, second, health

        first, second, health = asyncio.run(main())
        assert first[0] == 200
        status, headers, body = second
        assert status == 429
        assert json.loads(body)["error"]["reason"] == "rate-limited"
        # The shed tells the client when retrying could succeed: the
        # bucket refills at 0.001/s, so the hint is a large integer,
        # never the "retry immediately" a bare 429 implies.
        assert int(headers["retry-after"]) >= 1
        assert health[0] == 200


class TestDrain:
    def test_stop_finishes_inflight_then_refuses(self):
        service = _make_service()

        async def wait_until(condition):
            deadline = time.monotonic() + 5.0
            while not condition():
                assert time.monotonic() < deadline, "condition never held"
                await asyncio.sleep(0.005)

        async def main():
            server = GatewayServer(service, config=GatewayConfig(port=0))
            await server.start()
            host, port = server.config.host, server.port
            # Read batches run inline on the event loop: hold the
            # admitted request before it reaches the coalescer, so it
            # is still unanswered when the drain begins.
            held, release = asyncio.Event(), asyncio.Event()
            submit = server.coalescer.submit

            async def held_submit(query):
                held.set()
                await release.wait()
                return await submit(query)

            server.coalescer.submit = held_submit
            inflight = asyncio.ensure_future(
                _get(host, port, "/v1/top?method=CC&k=2")
            )
            await wait_until(held.is_set)
            await wait_until(lambda: server.admission.active == 1)
            stopping = asyncio.ensure_future(server.stop())
            await wait_until(lambda: server.admission.draining)
            answered_before_release = inflight.done()
            release.set()
            await stopping              # drain must wait for it
            status, document = await inflight
            refused = False
            try:
                await _get(host, port, "/v1/healthz")
            except (ConnectionRefusedError, OSError):
                refused = True
            return status, document, refused, answered_before_release

        status, document, refused, answered_early = asyncio.run(main())
        assert not answered_early       # the drain began first
        assert status == 200            # the admitted request finished
        assert document["result"]["entries"]
        assert refused                  # the listener is gone

    def test_requests_during_drain_get_503(self):
        service = _make_service()

        async def main():
            server = GatewayServer(service, config=GatewayConfig(port=0))
            await server.start()
            host, port = server.config.host, server.port
            # An open keep-alive connection outlives the listener...
            reader, writer = await asyncio.open_connection(host, port)
            server.admission.start_draining()
            writer.write(
                b"GET /v1/top?method=CC&k=2 HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            status = int(head.split(b" ")[1])
            length = int(
                [
                    line.split(b":")[1]
                    for line in head.split(b"\r\n")
                    if line.lower().startswith(b"content-length")
                ][0]
            )
            document = json.loads(await reader.readexactly(length))
            writer.close()
            await server.stop()
            return status, document, head

        status, document, head = asyncio.run(main())
        assert status == 503
        assert document["error"]["reason"] == "draining"
        assert b"Connection: close" in head
        # Draining sheds carry a Retry-After derived from the
        # remaining drain budget, so well-behaved clients back off
        # instead of hammering a server that is going away.
        assert b"Retry-After: " in head


class TestGatewayThread:
    def test_thread_restarts_on_a_fresh_port_binding(self):
        """stop() re-arms the thread: a second start() must report the
        NEW live port, not the first run's dead one."""
        import urllib.request

        service = _make_service()
        gateway = GatewayThread(service)
        gateway.start()
        first_port = gateway.port
        gateway.stop()
        gateway.start()
        try:
            assert gateway.port is not None
            body = urllib.request.urlopen(
                f"http://127.0.0.1:{gateway.port}/v1/healthz", timeout=10
            ).read()
            assert json.loads(body)["status"] == "ok"
        finally:
            gateway.stop()
        assert first_port is not None  # both runs actually bound

    def test_thread_serves_urllib_and_drains(self):
        import urllib.request

        service = _make_service()
        with GatewayThread(service) as gateway:
            body = urllib.request.urlopen(
                f"http://127.0.0.1:{gateway.port}/v1/top?method=CC&k=2",
                timeout=10,
            ).read()
            document = json.loads(body)
        assert document["version"] == 0
        assert len(document["result"]["entries"]) == 2
        # After the context exits, the port is closed.
        with pytest.raises(Exception):
            urllib.request.urlopen(
                f"http://127.0.0.1:{gateway.port}/v1/healthz", timeout=2
            )


class TestObservability:
    def test_every_error_body_carries_the_response_request_id(
        self, monkeypatch
    ):
        """404/400/429/503/500 JSON bodies all include a ``request_id``
        matching the ``X-Request-Id`` response header."""
        service = _make_service()

        async def main():
            server = GatewayServer(
                service,
                config=GatewayConfig(
                    port=0, rate_limit=0.001, rate_burst=2
                ),
            )
            await server.start()
            host, port = server.config.host, server.port
            try:
                out = {}
                out["404"] = await _get_raw(host, port, "/v1/paper/ZZZ")
                out["400"] = await _get_raw(
                    host, port, "/v1/top?method=NOPE"
                )
                await _get_raw(host, port, "/v1/top?method=CC&k=2")
                out["429"] = await _get_raw(  # top bucket exhausted
                    host, port, "/v1/top?method=CC&k=2"
                )

                def broken(queries):
                    raise AttributeError("backend exploded")

                monkeypatch.setattr(service, "execute_batch", broken)
                out["500"] = await _get_raw(host, port, "/v1/paper/A")
                monkeypatch.undo()
                server.admission.start_draining()
                out["503"] = await _get_raw(
                    host, port, "/v1/compare?methods=CC,PR&k=2"
                )
            finally:
                await server.stop()
            return out

        out = asyncio.run(main())
        seen_ids = set()
        for expected, (status, headers, body) in out.items():
            assert status == int(expected)
            document = json.loads(body)
            rid = headers.get("x-request-id")
            assert rid, f"no X-Request-Id header on the {expected}"
            assert document["error"]["request_id"] == rid
            seen_ids.add(rid)
        # Five requests, five distinct correlation ids.
        assert len(seen_ids) == len(out)

    def test_client_supplied_request_id_is_echoed(self):
        service = _make_service()

        async def main():
            server = GatewayServer(service, config=GatewayConfig(port=0))
            await server.start()
            host, port = server.config.host, server.port
            try:
                ok = await _get_raw(
                    host, port, "/v1/top?method=CC&k=2",
                    extra_headers=[("X-Request-Id", "my-id-42")],
                )
                error = await _get_raw(
                    host, port, "/v1/paper/ZZZ",
                    extra_headers=[("X-Request-Id", "err-id-7")],
                )
                generated = await _get_raw(
                    host, port, "/v1/top?method=CC&k=2"
                )
            finally:
                await server.stop()
            return ok, error, generated

        ok, error, generated = asyncio.run(main())
        assert ok[1]["x-request-id"] == "my-id-42"
        assert error[1]["x-request-id"] == "err-id-7"
        assert json.loads(error[2])["error"]["request_id"] == "err-id-7"
        # Without a client id the gateway mints conn-seq ids itself.
        conn, _, seq = generated[1]["x-request-id"].partition("-")
        assert len(conn) == 16 and seq.isdigit()

    def test_metrics_prometheus_exposition_parses_strictly(self):
        """``/v1/metrics?format=prometheus`` must satisfy the strict
        exposition parser and carry the serving stack's families."""
        service = _make_service()

        async def main():
            server = GatewayServer(service, config=GatewayConfig(port=0))
            await server.start()
            host, port = server.config.host, server.port
            try:
                await _get(host, port, "/v1/top?method=CC&k=3")
                await _get(host, port, "/v1/paper/ZZZ")
                return await _get_raw(
                    host, port, "/v1/metrics?format=prometheus"
                )
            finally:
                await server.stop()

        status, headers, body = asyncio.run(main())
        assert status == 200
        assert headers["content-type"] == (
            "text/plain; version=0.0.4; charset=utf-8"
        )
        families = parse_exposition(body.decode())
        requests = families["repro_gateway_requests_total"]
        assert requests.kind == "counter"
        assert requests.values()[(("endpoint", "top"),)] == 1.0
        responses = families["repro_gateway_responses_total"].values()
        assert responses[(("status", "200"),)] >= 1.0
        assert responses[(("status", "404"),)] == 1.0
        latency = families["repro_gateway_request_latency_seconds"]
        assert latency.kind == "histogram"
        assert latency.values("_count")[(("endpoint", "top"),)] == 1.0
        assert families["repro_gateway_admission_active"].values()[()] == 0
        # Global-registry families ride along: the solver recorded the
        # index builds, the cache its lookups.
        solves = families["repro_solver_solves_total"].values()
        assert sum(solves.values()) >= 1.0
        assert "repro_cache_events_total" in families
        assert families["repro_gateway_draining"].values()[()] == 0

    def test_metrics_default_format_is_still_json(self):
        service = _make_service()

        async def main():
            server = GatewayServer(service, config=GatewayConfig(port=0))
            await server.start()
            try:
                return await _get_raw(
                    server.config.host, server.port, "/v1/metrics"
                )
            finally:
                await server.stop()

        status, headers, body = asyncio.run(main())
        assert status == 200
        assert headers["content-type"] == "application/json"
        document = json.loads(body)
        validate_metrics(document)
        assert "max_ms" not in document["latency"]["overall"]

    def test_trace_endpoint_serves_the_span_tree(self):
        service = _make_service()
        enable_tracing(capacity=64)
        try:

            async def main():
                server = GatewayServer(
                    service, config=GatewayConfig(port=0)
                )
                await server.start()
                host, port = server.config.host, server.port
                try:
                    ok = await _get_raw(
                        host, port, "/v1/top?method=CC&k=3",
                        extra_headers=[("X-Request-Id", "traced-1")],
                    )
                    return ok, await _get(
                        host, port, "/v1/trace?limit=10"
                    )
                finally:
                    await server.stop()

            ok, (status, document) = asyncio.run(main())
        finally:
            disable_tracing()
        assert ok[0] == 200
        assert status == 200
        assert document["enabled"] is True
        assert document["recorded_total"] >= 1
        traced = [
            trace for trace in document["traces"]
            if trace.get("request_id") == "traced-1"
        ]
        assert len(traced) == 1
        trace = traced[0]
        assert trace["name"] == "gateway.request"
        assert trace["attrs"]["endpoint"] == "top"
        assert trace["attrs"]["status"] == 200

        def names(node):
            yield node["name"]
            for child in node["spans"]:
                yield from names(child)

        seen = set(names(trace))
        # The request's tree spans the whole stack: admission →
        # coalescer → engine batch → shard fan-out.
        for expected in (
            "gateway.admission", "gateway.coalesce", "engine.batch",
            "engine.execute", "engine.shard",
        ):
            assert expected in seen, f"{expected} missing from {seen}"

    def test_trace_endpoint_reports_disabled_state(self):
        service = _make_service()
        disable_tracing()

        async def main():
            server = GatewayServer(service, config=GatewayConfig(port=0))
            await server.start()
            try:
                return await _get(
                    server.config.host, server.port, "/v1/trace"
                )
            finally:
                await server.stop()

        status, document = asyncio.run(main())
        assert status == 200
        assert document == {
            "enabled": False, "recorded_total": 0, "traces": [],
        }

    def test_access_log_is_debug_and_carries_the_request_id(self):
        """Per-request access lines are DEBUG telemetry (metrics do the
        per-request accounting at INFO), and each line correlates with
        the ``X-Request-Id`` the client saw."""
        service = _make_service()

        async def run_one(header_id):
            server = GatewayServer(service, config=GatewayConfig(port=0))
            await server.start()
            try:
                _, headers, _ = await _get_raw(
                    server.config.host,
                    server.port,
                    "/v1/top?method=CC&k=2",
                    extra_headers=(("X-Request-Id", header_id),),
                )
                return headers["x-request-id"]
            finally:
                await server.stop()

        sink = io.StringIO()
        configure_logging("DEBUG", json=True, stream=sink)
        try:
            returned = asyncio.run(run_one("acc-dbg-1"))
            lines = [
                json.loads(line)
                for line in sink.getvalue().splitlines()
            ]
            access = [
                entry for entry in lines if entry["message"] == "request"
            ]
            assert len(access) == 1
            assert access[0]["level"] == "DEBUG"
            assert access[0]["request_id"] == returned == "acc-dbg-1"
            assert access[0]["endpoint"] == "top"
            assert access[0]["status"] == 200
            assert access[0]["ms"] >= 0

            # At INFO the access line is silent: the log is an event
            # stream, not a per-request ledger.
            sink.truncate(0)
            sink.seek(0)
            configure_logging("INFO", json=True, stream=sink)
            asyncio.run(run_one("acc-info-1"))
            assert "request" not in [
                json.loads(line).get("message")
                for line in sink.getvalue().splitlines()
            ]
        finally:
            reset_logging()
