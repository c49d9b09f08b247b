"""The asyncio HTTP/1.1 gateway server.

Stdlib only — ``asyncio.start_server`` plus a deliberately small
HTTP/1.1 parser (GET, JSON out, keep-alive, bounded header sizes).
The request path is::

    connection -> parse -> route -> admission -> coalescer -> JSON

Endpoints
---------
``GET /v1/top?method=AR&k=10&offset=0&year_min=..&year_max=..``
    One ranking page (:class:`~repro.serve.TopKQuery`).
``GET /v1/paper/{id}``
    Scores and ranks of one paper (:class:`~repro.serve.PaperQuery`).
``GET /v1/compare?methods=AR,CC&k=10``
    Side-by-side pages with overlaps (:class:`~repro.serve.CompareQuery`).
``GET /v1/healthz``
    Liveness: status, index version, paper count.
``GET /v1/metrics``
    The full observability document (latency quantiles, shed counts,
    coalesced batch sizes, serve-layer cache counters) as JSON, or the
    Prometheus text exposition with ``?format=prometheus``.  A fleet
    worker answers the JSON document for the whole fleet unless asked
    for ``?scope=local``.
``GET /v1/trace``
    Recent request/update span trees from the trace ring buffer
    (``?limit=N``); empty until tracing is enabled.

Every request carries a correlation id: generated per connection and
numbered per request (``{conn}-{seq}``), overridable by a client
``X-Request-Id`` header, bound in a contextvar for the request's
duration (so every log record and error payload it causes carries the
id), and echoed in an ``X-Request-Id`` response header.

Query responses are ``{"version": V, "result": {...}}`` where the
result object is byte-for-byte the CLI's
:func:`~repro.serve.result_payload` rendering of the same dataclass a
direct :class:`~repro.serve.RankingService` call returns — the
invariant the load bench verifies response by response.

Shutdown drains: :meth:`GatewayServer.stop` stops accepting, sheds new
requests with 503 (``reason: draining``), lets every admitted request
finish, then closes the remaining keep-alive connections.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Mapping
from urllib.parse import SplitResult, parse_qs, unquote, urlsplit

from repro.chaos.faults import InjectedDisconnect
from repro.chaos.points import chaos_point
from repro.errors import (
    ConfigurationError,
    DataFormatError,
    GatewayError,
    GraphError,
    ReproError,
)
from repro.gateway.admission import AdmissionController, TokenBucket
from repro.gateway.coalesce import Backend, RequestCoalescer
from repro.gateway.metrics import RequestInstruments, metrics_document
from repro.gateway.updates import StreamUpdater
from repro.obs.logging import (
    bind_request_id,
    current_request_id,
    get_logger,
    get_worker_identity,
    new_request_id,
    request_id_var,
    sanitize_request_id,
)
from repro.obs.profile import (
    SamplingProfiler,
    collapsed_stacks,
    profile_phase,
    render_profile,
    speedscope_document,
)
from repro.obs.registry import (
    REGISTRY,
    MetricFamily,
    MetricsRegistry,
    counter_family,
    families_state,
    gauge_family,
    label_families,
    render_families,
)
from repro.obs.slo import DEFAULT_SLOS, SLO, SLOEngine
from repro.obs.trace import get_collector, span, start_trace
from repro.obs.tsdb import TimeSeriesStore
from repro.serve.batch import (
    CompareQuery,
    PaperQuery,
    Query,
    TopKQuery,
    result_payload,
)
from repro.serve.service import RankingService
from repro.stream.ingest import StreamIngestor

__all__ = ["GatewayConfig", "GatewayServer", "GatewayThread"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Parser limits: a request line or header longer than this is a 400.
_MAX_LINE = 8192
_MAX_HEADERS = 64

_LOG = get_logger("gateway")


@dataclass(frozen=True)
class GatewayConfig:
    """Tunables of one gateway instance.

    Attributes
    ----------
    host, port:
        Bind address; port 0 picks a free port (the bound one is on
        :attr:`GatewayServer.port` after start).
    max_inflight, max_queue:
        Admission capacity (see
        :class:`~repro.gateway.AdmissionController`).
    max_batch:
        Largest coalesced engine batch.
    rate_limit, rate_burst:
        Optional per-endpoint token bucket (requests/second + burst);
        ``None`` disables 429 shedding.
    update_interval:
        Sleep between live stream micro-batches (when an ingestor is
        attached).
    drain_seconds:
        How long :meth:`GatewayServer.stop` waits for in-flight
        requests before closing connections anyway.
    reuse_port:
        Bind the listening socket with ``SO_REUSEPORT`` so sibling
        worker processes can share one port (the multi-worker
        gateway's pre-fork mode); the kernel load-balances incoming
        connections across all listeners.
    profile, profile_hz:
        Run the sampling profiler (:mod:`repro.obs.profile`) behind
        ``/v1/profile``; off by default — sampling at the default rate
        costs a few percent of throughput (the ``obs_overhead`` bench
        holds it under 5%), which is opt-in money.
    profile_memory:
        Also run ``tracemalloc`` so ``/v1/profile?memory=1`` serves
        allocation snapshots.  A separate knob on purpose:
        ``tracemalloc`` hooks *every* allocation and costs tens of
        percent — deep-dive-only, never an always-on posture.
    history_interval, history_capacity:
        The metrics time-series store behind ``/v1/metrics/history``:
        one self-scrape every ``history_interval`` seconds, the newest
        ``history_capacity`` points kept.  ``history_interval <= 0``
        disables the background scraper (the multi-worker fleet does
        this in workers: the supervisor owns fleet history).
    slos:
        The objectives ``/v1/slo`` evaluates;
        ``None`` means :data:`repro.obs.slo.DEFAULT_SLOS`.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    max_inflight: int = 64
    max_queue: int = 256
    max_batch: int = 128
    rate_limit: float | None = None
    rate_burst: int = 32
    update_interval: float = 0.01
    drain_seconds: float = 5.0
    reuse_port: bool = False
    profile: bool = False
    profile_hz: float = 67.0
    profile_memory: bool = False
    history_interval: float = 5.0
    history_capacity: int = 720
    slos: tuple[SLO, ...] | None = None


class GatewayServer:
    """One HTTP serving gateway over a ranking backend.

    Parameters
    ----------
    backend:
        A :class:`~repro.serve.RankingService` (live, cache-backed) or
        a :class:`~repro.serve.QueryEngine` over a detached shard
        store (read-only).
    config:
        See :class:`GatewayConfig`.
    ingestor:
        Optional PR-4 :class:`~repro.stream.StreamIngestor` whose
        remaining events are applied live while the server answers
        queries; its service must be ``backend``.
    """

    def __init__(
        self,
        backend: Backend,
        *,
        config: GatewayConfig | None = None,
        ingestor: StreamIngestor | None = None,
    ) -> None:
        self.config = config or GatewayConfig()
        self.backend = backend
        #: This gateway's own request metrics (see
        #: :mod:`repro.gateway.metrics`), kept apart from the
        #: process-global REGISTRY so every server counts only itself.
        self.registry = MetricsRegistry()
        self._instruments = RequestInstruments.register(self.registry)
        rate_limits: dict[str, TokenBucket] = {}
        if self.config.rate_limit is not None:
            rate_limits = {
                endpoint: TokenBucket(
                    rate=self.config.rate_limit,
                    burst=self.config.rate_burst,
                )
                for endpoint in ("top", "paper", "compare")
            }
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            max_queue=self.config.max_queue,
            rate_limits=rate_limits,
            drain_hint_seconds=self.config.drain_seconds,
        )
        # max_inflight is a promise about concurrent *execution*: at
        # most that many requests enter one engine batch, the rest
        # wait admitted in the coalescer's pending queue.  Capping the
        # batch size here is what makes the admission knob real.
        self.coalescer = RequestCoalescer(
            backend,
            max_batch=min(self.config.max_batch, self.config.max_inflight),
            batch_sizes=self._instruments.batch_sizes,
        )
        self.updater: StreamUpdater | None = None
        if ingestor is not None:
            self.updater = StreamUpdater(
                ingestor,
                self.coalescer,
                interval=self.config.update_interval,
                updates=self._instruments.updates,
            )
        self.port: int | None = None
        self.control_port: int | None = None
        #: The deep-observability plane: profiler (opt-in), history
        #: store, and SLO engine over that store.  The store's
        #: background scraper runs only when ``history_interval > 0``;
        #: ``scrape_once`` still works either way (the SLO endpoint
        #: scrapes on demand), so a fleet worker keeps a valid local
        #: view even though the supervisor owns fleet history.
        self.profiler: SamplingProfiler | None = (
            SamplingProfiler(
                hz=self.config.profile_hz,
                trace_memory=self.config.profile_memory,
            )
            if self.config.profile
            else None
        )
        self.tsdb = TimeSeriesStore(
            self._metric_families,
            capacity=self.config.history_capacity,
            interval=self.config.history_interval,
        )
        self.slo_engine = SLOEngine(
            self.tsdb, slos=self.config.slos or DEFAULT_SLOS
        )
        #: Fleet wiring, set by the multi-worker launcher: this
        #: process's index, and the supervisor's stats address that
        #: ``/v1/profile``, ``/v1/slo``, ``/v1/metrics/history``, and
        #: ``/v1/trace`` proxy to (unless ``?scope=local``) so public
        #: answers are fleet-truth, not one worker's view.
        self.worker_index: int | None = None
        self.fleet_stats_addr: tuple[str, int] | None = None
        #: A crash that killed the live updater task, surfaced by
        #: :meth:`stop` instead of re-raised into the drain — the
        #: gateway keeps serving reads after its write path dies.
        self.updater_error: BaseException | None = None
        self._server: asyncio.AbstractServer | None = None
        self._control_server: asyncio.AbstractServer | None = None
        self._updater_task: asyncio.Task | None = None
        self._connections: set[asyncio.StreamWriter] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind, listen, start the coalescer (and the live updater)."""
        if self._server is not None:
            raise GatewayError("gateway server already started")
        await self.coalescer.start()
        # reuse_port is passed only when asked for: asyncio rejects the
        # keyword outright on platforms without SO_REUSEPORT.
        extra: dict[str, Any] = (
            {"reuse_port": True} if self.config.reuse_port else {}
        )
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            **extra,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.profiler is not None:
            self.profiler.start()
        self.tsdb.start()
        if self.updater is not None:
            self._updater_task = asyncio.ensure_future(
                self.updater.run()
            )

    async def start_control(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> int:
        """Open a private per-process listener on the same handler.

        The multi-worker supervisor scrapes each worker's metrics here:
        the public ``SO_REUSEPORT`` port load-balances across workers,
        so "ask worker 3 for its counters" needs an address only worker
        3 answers.  Returns the bound port.
        """
        if self._control_server is not None:
            raise GatewayError("control listener already started")
        self._control_server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        self.control_port = (
            self._control_server.sockets[0].getsockname()[1]
        )
        return self.control_port

    async def serve_forever(self) -> None:
        """Block until cancelled (the CLI's foreground mode)."""
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful drain: finish admitted work, then close everything.

        Order matters: (1) shed new arrivals, (2) stop accepting
        connections, (3) stop the updater after its in-flight batch,
        (4) wait out in-flight requests (bounded by
        ``drain_seconds``), (5) drain the coalescer, (6) close the
        remaining keep-alive connections.
        """
        self.admission.start_draining()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._control_server is not None:
            self._control_server.close()
            await self._control_server.wait_closed()
            self._control_server = None
        if self._updater_task is not None:
            assert self.updater is not None
            self.updater.stop()
            try:
                await self._updater_task
            except asyncio.CancelledError:
                raise
            except BaseException as error:
                # A dead updater (including an injected kill mid-batch)
                # must not abort the drain: reads still need their
                # graceful finish.  BaseException on purpose — the
                # chaos harness's simulated crash is one.
                self.updater_error = error
                _LOG.error(
                    "updater crashed",
                    extra={"error": type(error).__name__},
                )
            self._updater_task = None
        deadline = time.monotonic() + self.config.drain_seconds
        while self.admission.active > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.005)
        await self.coalescer.close()
        self.tsdb.stop()
        if self.profiler is not None:
            self.profiler.stop()
        for writer in tuple(self._connections):
            writer.close()
        self._server = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._connections.add(writer)
        # One id per connection, one sequence number per request on it:
        # the id exists *before* parsing, so even a 400 on a malformed
        # request correlates with a log line and an X-Request-Id.
        connection_id = new_request_id()
        sequence = 0
        try:
            while True:
                sequence += 1
                with bind_request_id(f"{connection_id}-{sequence}"):
                    try:
                        request = await self._read_request(reader)
                    except GatewayError as error:
                        # A malformed request is answered, not crashed
                        # on: the parser cannot trust the connection
                        # state afterwards, so close after the 400.
                        _LOG.info(
                            "bad request",
                            extra={"status": 400, "detail": str(error)},
                        )
                        await self._write_response(
                            writer,
                            400,
                            _error_payload("GatewayError", str(error)),
                            False,
                        )
                        break
                    if request is None:
                        break
                    keep_alive = await self._respond(writer, *request)
                if not keep_alive:
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, SplitResult, dict[str, str]] | None:
        """Parse one request; ``None`` on clean EOF.

        Returns the method, the raw target, the target split into its
        URL parts, and the headers.  Raises
        :class:`~repro.errors.GatewayError` on a request the parser
        refuses (oversized lines, malformed request line or target, too
        many headers) — the caller answers 400 and closes.
        """
        chaos_point("gateway.request.read")
        try:
            line = await reader.readuntil(b"\r\n")
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None
            raise
        except asyncio.LimitOverrunError:
            raise GatewayError("request line too long") from None
        if len(line) > _MAX_LINE:
            raise GatewayError("request line too long")
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise GatewayError(f"malformed request line: {parts[:2]}")
        method, target, _http_version = parts
        try:
            split = urlsplit(target)
        except ValueError as error:  # e.g. an unclosed IPv6 bracket
            raise GatewayError(
                f"malformed request target ({error})"
            ) from None
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            try:
                line = await reader.readuntil(b"\r\n")
            except asyncio.LimitOverrunError:
                raise GatewayError("header line too long") from None
            if len(line) > _MAX_LINE:
                raise GatewayError("header line too long")
            if line in (b"\r\n", b"\n"):
                return method.upper(), target, split, headers
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raise GatewayError("too many request headers")

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        target: str,
        split: SplitResult,
        headers: Mapping[str, str],
    ) -> bool:
        started = time.perf_counter()
        keep_alive = headers.get("connection", "").lower() != "close"
        path = split.path
        params = parse_qs(split.query)
        endpoint = self._endpoint_of(path)
        self._instruments.requests.inc(endpoint=endpoint)
        # A client-supplied X-Request-Id replaces the generated one for
        # this request only (the token restores the connection id) —
        # after sanitization: control characters are rejected (the
        # generated id stays bound) and oversized ids are truncated,
        # so a hostile header cannot pollute logs, traces, or the
        # profiler's attribution keys.
        client_id = sanitize_request_id(headers.get("x-request-id"))
        id_token = (
            request_id_var.set(client_id) if client_id else None
        )
        # Fleet scope: under --workers N the deep-observability
        # endpoints proxy to the supervisor's merged view unless the
        # caller asked for this one process (?scope=local — what the
        # supervisor's own fan-out requests).
        fleet_scope = (
            self.fleet_stats_addr is not None
            and params.get("scope", [""])[-1].lower() != "local"
        )

        status: int
        payload: dict[str, Any] | str
        content_type = "application/json"
        admitted = False
        retry_after: float | None = None
        try:
            if method != "GET":
                status, payload = 405, _error_payload(
                    "GatewayError",
                    f"method {method} not allowed (GET only)",
                )
            elif endpoint == "healthz":
                status, payload = 200, self._healthz_payload()
            elif endpoint == "metrics":
                wants = params.get("format", ["json"])[-1].lower()
                if wants == "prometheus":
                    status, payload = 200, self._prometheus_text()
                    content_type = (
                        "text/plain; version=0.0.4; charset=utf-8"
                    )
                elif wants == "state":
                    # Raw mergeable families: what the multi-worker
                    # supervisor scrapes from each worker's control
                    # port to build the fleet-wide document.  They
                    # stay unlabelled so the supervisor's merge sums
                    # matching series across workers.
                    status, payload = 200, {
                        "admission": self.admission.snapshot(),
                        "registry": families_state(
                            self._metric_families(labelled=False)
                        ),
                        "worker": self._worker_info(),
                    }
                else:
                    proxied = (
                        await self._fleet_fetch(target)
                        if fleet_scope
                        else None
                    )
                    if proxied is not None:
                        status, payload, content_type = proxied
                    else:
                        status, payload = 200, self.metrics_document()
            elif endpoint in ("trace", "profile", "slo", "history"):
                proxied = (
                    await self._fleet_fetch(target)
                    if fleet_scope
                    else None
                )
                if proxied is not None:
                    status, payload, content_type = proxied
                elif endpoint == "trace":
                    status, payload = 200, self._trace_payload(params)
                elif endpoint == "profile":
                    status, payload, content_type = (
                        self._profile_payload(params)
                    )
                elif endpoint == "slo":
                    status, payload = 200, self._slo_payload()
                else:
                    status, payload = 200, self._history_payload(params)
            elif endpoint in ("top", "paper", "compare"):
                with start_trace(
                    "gateway.request",
                    request_id=current_request_id(),
                    endpoint=endpoint,
                ) as root:
                    with span("gateway.admission"):
                        decision = self.admission.try_admit(endpoint)
                    if not decision.admitted:
                        status, payload = (
                            decision.status,
                            _error_payload(
                                "GatewayError",
                                f"request shed: {decision.reason}",
                                reason=decision.reason,
                            ),
                        )
                        retry_after = decision.retry_after
                    else:
                        admitted = True
                        try:
                            status, payload = await self._answer_query(
                                endpoint, path, params
                            )
                        except Exception as error:
                            # Non-ReproError breakage (the coalescer
                            # forwards arbitrary backend failures):
                            # answer 500 rather than dropping the
                            # connection — and fall through to the
                            # finally below, so the admitted slot is
                            # released instead of leaking until the
                            # gateway sheds everything as queue-full.
                            status, payload = 500, _error_payload(
                                type(error).__name__,
                                str(error) or "internal error",
                            )
                    if root is not None:
                        root.set(status=status)
            else:
                status, payload = 404, _error_payload(
                    "GatewayError", f"no such endpoint: {path}"
                )
            if self.admission.draining:
                keep_alive = False
            if status in (429, 503) and retry_after is None:
                # Sheds decided past admission (a drain racing the
                # coalescer submit): the process is going away, so the
                # honest hint is the full drain window.
                retry_after = self.config.drain_seconds
            try:
                await self._write_response(
                    writer,
                    status,
                    payload,
                    keep_alive,
                    content_type=content_type,
                    retry_after=retry_after,
                )
            finally:
                # Release only after the body is flushed: stop()'s
                # active==0 drain wait must cover response *writing*,
                # or the connection-close sweep could truncate a slow
                # client's body mid-flush.
                if admitted:
                    self.admission.release()
                elapsed = time.perf_counter() - started
                instruments = self._instruments
                instruments.responses.inc(status=status)
                if status == 429 or status == 503:
                    instruments.shed.inc(status=status)
                instruments.latency.observe(elapsed, endpoint=endpoint)
                # The access line is DEBUG on purpose: metrics are the
                # per-request accounting of record (counted and timed
                # above), traces are the sampled deep-dive, and at
                # INFO the log stays an *event* stream — errors,
                # lifecycle — instead of paying ~a log line per
                # request at high QPS (measured by the obs_overhead
                # bench scenario).
                _LOG.debug(
                    "request",
                    extra={
                        "endpoint": endpoint,
                        "path": path,
                        "status": status,
                        "ms": round(elapsed * 1e3, 3),
                    },
                )
        finally:
            if id_token is not None:
                request_id_var.reset(id_token)
        return keep_alive

    @staticmethod
    def _endpoint_of(path: str) -> str:
        if path == "/v1/healthz":
            return "healthz"
        if path == "/v1/metrics":
            return "metrics"
        if path == "/v1/metrics/history":
            return "history"
        if path == "/v1/trace":
            return "trace"
        if path == "/v1/profile":
            return "profile"
        if path == "/v1/slo":
            return "slo"
        if path == "/v1/top":
            return "top"
        if path == "/v1/compare":
            return "compare"
        if path.startswith("/v1/paper/"):
            return "paper"
        return "unknown"

    async def _answer_query(
        self,
        endpoint: str,
        path: str,
        params: Mapping[str, list[str]],
    ) -> tuple[int, dict[str, Any]]:
        """Parse, coalesce, and map typed failures to HTTP statuses.

        Admission happens in :meth:`_respond` (the caller), which
        releases the slot only after the response body is flushed.
        """
        try:
            # Attribution for the sampling profiler: while the event
            # loop is executing this request, samples land under the
            # endpoint's phase (approximate across awaits — documented
            # in docs/OBSERVABILITY.md).
            with profile_phase(endpoint):
                query = _parse_query(endpoint, path, params)
                with span("gateway.coalesce"):
                    version, result = await self.coalescer.submit(query)
            return 200, {
                "version": version,
                "result": result_payload(result),
            }
        except GraphError as error:
            return 404, _error_payload("GraphError", str(error))
        except (ConfigurationError, DataFormatError) as error:
            return 400, _error_payload(type(error).__name__, str(error))
        except GatewayError as error:
            return 503, _error_payload(
                "GatewayError", str(error), reason="draining"
            )
        except ReproError as error:
            return 500, _error_payload(type(error).__name__, str(error))

    def _healthz_payload(self) -> dict[str, Any]:
        # One pin, so the version and the paper count agree.
        published = self.backend.sharded.snapshot()
        return {
            "status": "draining" if self.admission.draining else "ok",
            "version": published.version,
            "papers": published.n_papers,
            "live_updates": self.updater is not None,
        }

    def metrics_document(self) -> dict[str, Any]:
        """This process's ``/v1/metrics`` document.

        Rendered from this gateway's own registry, plus the result
        cache counters and the admission snapshot.
        """
        cache_stats = None
        if isinstance(self.backend, RankingService):
            cache_stats = self.backend.cache_stats().as_dict()
        document = metrics_document(self.registry.collect(), cache_stats)
        document["admission"] = self.admission.snapshot()
        return document

    def _prometheus_text(self) -> str:
        """``/v1/metrics?format=prometheus``: the text exposition."""
        return render_families(self._metric_families())

    def _metric_families(
        self, *, labelled: bool = True
    ) -> list[MetricFamily]:
        """Every family this process exports, as one list.

        Gateway request families plus the admission snapshot, the
        serve-layer cache counters, and everything the process-global
        registry has accumulated (solver, engine, updater, stream).
        This is the single source the exposition text, the time-series
        store, and the ``?format=state`` scrape document all render
        from.  With ``labelled=True`` (the exposition) a fleet worker
        stamps its ``worker`` label on every sample; the mergeable
        state form stays unlabelled so the supervisor's cross-worker
        merge sums matching series instead of keeping them apart.
        """
        families = self.registry.collect()
        adm = self.admission.snapshot()
        families.append(
            gauge_family(
                "repro_gateway_admission_active",
                "Requests currently admitted (in flight).",
                adm["active"],
            )
        )
        families.append(
            gauge_family(
                "repro_gateway_admission_peak_active",
                "High-water mark of concurrently admitted requests.",
                adm["peak_active"],
            )
        )
        families.append(
            counter_family(
                "repro_gateway_admitted_total",
                "Requests admitted past admission control.",
                {(): float(adm["admitted_total"])},
            )
        )
        families.append(
            gauge_family(
                "repro_gateway_draining",
                "1 while the gateway is draining, else 0.",
                1.0 if adm["draining"] else 0.0,
            )
        )
        if isinstance(self.backend, RankingService):
            stats = self.backend.cache_stats().as_dict()
            families.append(
                counter_family(
                    "repro_cache_events_total",
                    "Result-cache lookup outcomes, by event.",
                    {
                        (("event", event),): float(stats[event])
                        for event in (
                            "hits", "misses", "evictions", "invalidations"
                        )
                    },
                )
            )
            families.append(
                gauge_family(
                    "repro_cache_size",
                    "Entries currently in the result cache.",
                    stats["size"],
                )
            )
        families.extend(REGISTRY.collect())
        identity = get_worker_identity()
        if labelled and identity is not None:
            families = label_families(
                families, (("worker", identity[0]),)
            )
        return families

    def _worker_info(self) -> dict[str, Any]:
        """This process's fleet identity, for scrape documents."""
        identity = get_worker_identity()
        return {
            "worker": identity[0] if identity else None,
            "pid": identity[1] if identity else os.getpid(),
            "index": self.worker_index,
        }

    def _trace_payload(
        self, params: Mapping[str, list[str]]
    ) -> dict[str, Any]:
        """``/v1/trace``: recent span trees, newest first."""
        collector = get_collector()
        limit_raw = params.get("limit", ["50"])[-1]
        try:
            limit = max(0, int(limit_raw))
        except ValueError:
            limit = 50
        if collector is None:
            return {"enabled": False, "recorded_total": 0, "traces": []}
        traces = collector.recent(limit)
        if self.worker_index is not None:
            # The supervisor merges these across the fleet; a tree is
            # only actionable there if it says which process ran it.
            traces = [
                {**trace, "worker": self.worker_index}
                for trace in traces
            ]
        return {
            "enabled": True,
            "recorded_total": collector.recorded_total,
            "traces": traces,
        }

    def _profile_payload(
        self, params: Mapping[str, list[str]]
    ) -> tuple[int, dict[str, Any] | str, str]:
        """``/v1/profile``: the sampling profiler's view of this process.

        ``?format=`` selects the rendering: ``json`` (default,
        flamegraph-ready aggregated stacks), ``collapsed`` (Brendan
        Gregg folded text for ``flamegraph.pl``), ``speedscope`` (a
        ready-to-open speedscope document), or ``state`` (the raw
        mergeable counts the supervisor aggregates).  ``?memory=1``
        attaches a tracemalloc snapshot/diff.
        """
        wants = params.get("format", ["json"])[-1].lower()
        if self.profiler is None:
            if wants == "state":
                return 200, {"enabled": False, "profile": None}, (
                    "application/json"
                )
            return 200, {
                "enabled": False,
                "detail": "start the gateway with profiling enabled "
                "(--profile / GatewayConfig(profile=True))",
            }, "application/json"
        state = self.profiler.state_dict()
        if wants == "state":
            return 200, {
                "enabled": True,
                "profile": state,
                "worker": self._worker_info(),
            }, "application/json"
        if wants == "collapsed":
            return 200, collapsed_stacks(state), (
                "text/plain; charset=utf-8"
            )
        if wants == "speedscope":
            return 200, speedscope_document(state), "application/json"
        try:
            top = max(1, int(params.get("top", ["50"])[-1]))
        except ValueError:
            top = 50
        document = render_profile(state, top=top)
        if params.get("memory", [""])[-1] in ("1", "true", "yes"):
            memory = self.profiler.memory
            document["memory"] = (
                memory.snapshot() if memory is not None else None
            )
        return 200, document, "application/json"

    def _slo_payload(self) -> dict[str, Any]:
        """``/v1/slo``: objectives, burn rates, and alert states."""
        return self.slo_engine.evaluate(scrape=True)

    def _history_payload(
        self, params: Mapping[str, list[str]]
    ) -> dict[str, Any]:
        """``/v1/metrics/history``: the ring-buffer time series."""
        family = params.get("family", [None])[-1] or None
        since: float | None = None
        raw_since = params.get("since", [""])[-1]
        if raw_since:
            try:
                since = float(raw_since)
            except ValueError:
                since = None
        limit: int | None = None
        raw_limit = params.get("limit", [""])[-1]
        if raw_limit:
            try:
                limit = max(1, int(raw_limit))
            except ValueError:
                limit = None
        if self.tsdb.scrapes_total == 0:
            # No scraper thread has run yet (or the interval is 0 —
            # fleet workers): take one point now so the endpoint is
            # never empty on a live process.
            self.tsdb.scrape_once()
        return self.tsdb.history_payload(
            family=family, since=since, limit=limit
        )

    async def _fleet_fetch(
        self, target: str
    ) -> tuple[int, dict[str, Any] | str, str] | None:
        """Proxy ``target`` to the supervisor's fleet-stats server.

        Any worker can answer a deep-observability request with the
        *fleet* view: it forwards the request (path, query string and
        all) to the supervisor, which fans out ``?scope=local`` scrapes
        to every worker and merges.  Returns ``None`` when the
        supervisor is unreachable — the caller falls back to the local
        payload, which is degraded but honest (and carries this
        worker's identity).
        """
        assert self.fleet_stats_addr is not None
        host, port = self.fleet_stats_addr
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout=2.0
            )
        except (OSError, asyncio.TimeoutError):
            return None
        try:
            writer.write(
                f"GET {target} HTTP/1.1\r\n"
                f"Host: {host}\r\nConnection: close\r\n\r\n".encode(
                    "latin-1"
                )
            )
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=5.0)
        except (OSError, asyncio.TimeoutError):
            return None
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionResetError, BrokenPipeError):
                pass
        head, _, body = raw.partition(b"\r\n\r\n")
        head_lines = head.split(b"\r\n")
        if not head_lines or not head_lines[0].startswith(b"HTTP/1."):
            return None
        try:
            status = int(head_lines[0].split()[1])
        except (IndexError, ValueError):
            return None
        content_type = "application/json"
        for line in head_lines[1:]:
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-type":
                content_type = value.strip()
        if content_type.startswith("application/json"):
            try:
                return status, json.loads(body), content_type
            except ValueError:
                return None
        return status, body.decode("utf-8", "replace"), content_type

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Mapping[str, Any] | str,
        keep_alive: bool,
        *,
        content_type: str = "application/json",
        retry_after: float | None = None,
    ) -> None:
        if isinstance(payload, str):
            body = payload.encode("utf-8")
        else:
            body = json.dumps(payload).encode("utf-8")
        connection = "keep-alive" if keep_alive else "close"
        request_id = current_request_id()
        request_id_header = (
            f"X-Request-Id: {request_id}\r\n" if request_id else ""
        )
        # RFC 9110 delta-seconds: a non-negative integer, rounded up so
        # "0.08s until a token" never becomes "retry immediately".
        retry_header = (
            f"Retry-After: {max(1, math.ceil(retry_after))}\r\n"
            if retry_after is not None
            else ""
        )
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{request_id_header}"
            f"{retry_header}"
            f"Connection: {connection}\r\n"
            "\r\n"
        )
        fault = chaos_point("gateway.response.write")
        if fault is not None and fault.kind == "torn":
            # Injected torn response: flush the head and half the body,
            # then hard-drop the connection.  The declared
            # Content-Length makes the tear detectable — a client must
            # see a short read, never a parseable partial document.
            writer.write(head.encode("latin-1") + body[: len(body) // 2])
            await writer.drain()
            writer.transport.abort()
            raise InjectedDisconnect(
                "gateway.response.write", fault.invocation
            )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()


def _error_payload(
    error_type: str, message: str, *, reason: str | None = None
) -> dict[str, Any]:
    """A typed error body; carries the bound request id when one exists."""
    error: dict[str, Any] = {"type": error_type, "message": message}
    if reason is not None:
        error["reason"] = reason
    request_id = current_request_id()
    if request_id is not None:
        error["request_id"] = request_id
    return {"error": error}


def _parse_query(
    endpoint: str, path: str, params: Mapping[str, list[str]]
) -> Query:
    """Build the engine query for one endpoint; bad params are 400s."""

    def one(name: str, default: str | None = None) -> str | None:
        values = params.get(name)
        return values[-1] if values else default

    def integer(name: str, default: int) -> int:
        raw = one(name)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigurationError(
                f"query parameter {name!r} must be an integer, "
                f"got {raw!r}"
            ) from None

    def span() -> tuple[float, float] | None:
        lo_raw, hi_raw = one("year_min"), one("year_max")
        if lo_raw is None and hi_raw is None:
            return None
        try:
            lo = float(lo_raw) if lo_raw is not None else float("-inf")
            hi = float(hi_raw) if hi_raw is not None else float("inf")
        except ValueError:
            raise ConfigurationError(
                "year_min/year_max must be numbers"
            ) from None
        return (lo, hi)

    if endpoint == "top":
        return TopKQuery(
            method=one("method", "AR") or "AR",
            k=integer("k", 10),
            offset=integer("offset", 0),
            year_range=span(),
        )
    if endpoint == "compare":
        raw = one("methods")
        if not raw:
            raise ConfigurationError(
                "compare needs ?methods=A,B[,C...]"
            )
        return CompareQuery(
            methods=tuple(
                label.strip() for label in raw.split(",") if label.strip()
            ),
            k=integer("k", 10),
            offset=integer("offset", 0),
            year_range=span(),
        )
    assert endpoint == "paper"
    paper_id = unquote(path[len("/v1/paper/"):])
    if not paper_id:
        raise ConfigurationError("paper id missing from path")
    return PaperQuery(paper_id=paper_id)


class GatewayThread:
    """Run a gateway on a background thread with its own event loop.

    For synchronous callers — the docs example, the bench harness, and
    tests that drive the server with ``urllib`` — a context manager
    that starts the loop, reports the bound port, and drains on exit:

    >>> from repro.serve import RankingService, ScoreIndex
    >>> from repro.synth import toy_network
    >>> index = ScoreIndex(toy_network())
    >>> index.add_method("CC")
    >>> with GatewayThread(RankingService(index)) as gateway:
    ...     import json, urllib.request
    ...     body = urllib.request.urlopen(
    ...         f"http://127.0.0.1:{gateway.port}/v1/healthz"
    ...     ).read()
    >>> json.loads(body)["status"]
    'ok'
    """

    def __init__(
        self,
        backend: Backend,
        *,
        config: GatewayConfig | None = None,
        ingestor: StreamIngestor | None = None,
    ) -> None:
        self._backend = backend
        self._config = config or GatewayConfig(port=0)
        self._ingestor = ingestor
        self.server: GatewayServer | None = None
        self.port: int | None = None
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown: asyncio.Event | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self) -> "GatewayThread":
        """Start the loop thread; returns once the port is bound."""
        if self._thread is not None:
            raise GatewayError("gateway thread already started")
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-gateway",
            daemon=True,
        )
        self._thread.start()
        self._started.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        if self.port is None:
            raise GatewayError("gateway thread failed to start in time")
        return self

    async def _main(self) -> None:
        try:
            server = GatewayServer(
                self._backend,
                config=self._config,
                ingestor=self._ingestor,
            )
            await server.start()
        except BaseException as error:  # surface to the caller thread
            self._startup_error = error
            self._started.set()
            return
        self.server = server
        self.port = server.port
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._started.set()
        await self._shutdown.wait()
        await server.stop()

    def stop(self) -> None:
        """Drain, join, and reset so the thread can be started again."""
        if self._thread is None:
            return
        if self._loop is not None and self._shutdown is not None:
            self._loop.call_soon_threadsafe(self._shutdown.set)
        self._thread.join(timeout=60)
        self._thread = None
        # Re-arm for a clean restart: without this a second start()
        # would see the stale _started event and report the dead port.
        self._started.clear()
        self.server = None
        self.port = None
        self._loop = None
        self._shutdown = None
        self._startup_error = None

    def __enter__(self) -> "GatewayThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
