"""Pre-fork multi-worker serving: N gateways, one shared score store.

One asyncio process tops out at one core; the ROADMAP's "millions of
users" target needs the classic pre-fork shape.  This module supplies
it on top of the shared-memory store (:mod:`repro.serve.shm`):

* a **supervisor** process exports the materialised
  :class:`~repro.serve.StoreSnapshot` into shared memory, reserves the
  serving port, and forks N workers with ``multiprocessing``'s fork
  context (the generation lock, the armed chaos plan, and logging
  config all inherit);
* each **worker** attaches a :class:`~repro.serve.SharedStoreReader`,
  wraps it in a stock :class:`~repro.serve.QueryEngine`, and runs a
  :class:`~repro.gateway.GatewayServer` that binds the *same* port
  with ``SO_REUSEPORT`` — the kernel load-balances connections across
  workers, no userspace proxy.  A private control listener per worker
  answers the supervisor's metrics scrapes;
* the **streaming updater runs in exactly one process** (the
  supervisor): it steps the ingestor against its private service,
  publishes each new index version as a shared-memory generation, and
  every worker picks the generation up at its next batch boundary —
  the cross-process analogue of the single-process atomic snapshot
  swap, so responses remain bit-identical to a direct call at their
  reported version;
* the supervisor **restarts crashed workers** (a replacement forks
  within one supervision tick; the port stays bound by the reservation
  socket and the surviving siblings keep answering), propagates
  **graceful drain** (SIGTERM to each worker triggers the gateway's
  in-process drain; the supervisor then unlinks every shared segment),
  and **aggregates** ``/v1/metrics`` across workers by rendering the
  merged metric families of every worker — exact sums and exact
  fleet-wide quantiles, not averaged per-worker quantiles.

``repro serve-http --workers N`` is the CLI frontend;
``repro loadgen --workers N`` and the ``gateway_mp`` bench scenario
drive it under verified load.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import signal
import socket
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping, Sequence
from urllib.parse import parse_qs, urlsplit

from repro.chaos import points as chaos_points
from repro.chaos.faults import InjectedCrash
from repro.chaos.points import chaos_point
from repro.errors import GatewayError
from repro.gateway.metrics import metrics_document
from repro.gateway.server import GatewayConfig, GatewayServer
from repro.obs.logging import (
    clear_worker_identity,
    get_logger,
    get_worker_identity,
    set_worker_identity,
)
from repro.obs.profile import (
    collapsed_stacks,
    merge_profile_states,
    render_profile,
    speedscope_document,
)
from repro.obs.registry import merge_family_states
from repro.obs.slo import DEFAULT_SLOS, SLOEngine
from repro.obs.tsdb import TimeSeriesStore
from repro.serve.batch import QueryEngine
from repro.serve.service import RankingService
from repro.serve.shard import ShardedScoreIndex, StoreSnapshot
from repro.serve.shm import (
    SharedStorePublisher,
    SharedStoreReader,
    new_session,
)
from repro.stream.ingest import StreamIngestor

__all__ = ["MultiWorkerGateway"]

_LOG = get_logger("gateway.workers")

#: Seconds between a worker's chaos-point heartbeats (also its drain
#: poll granularity).  The ``gateway.worker`` fault point fires here,
#: so a planned worker kill lands within ``invocation * _HEARTBEAT``
#: of worker start.
_HEARTBEAT = 0.003

#: How long the supervisor waits for a forked worker's ready report.
_READY_TIMEOUT = 30.0


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
async def _worker_serve(
    session: str,
    lock: Any,
    config: GatewayConfig,
    index: int,
    conn: Any,
    supervisor_pid: int,
    stats_addr: tuple[str, int] | None,
) -> None:
    store = SharedStoreReader(session, lock)
    engine = QueryEngine(store)
    server = GatewayServer(engine, config=config)
    # Fleet wiring before the first request: public deep-observability
    # answers proxy to the supervisor's merged view, and every local
    # payload carries this worker's identity.
    server.worker_index = index
    server.fleet_stats_addr = stats_addr
    await server.start()
    control_port = await server.start_control(config.host)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX
            pass
    conn.send(
        {
            "worker": index,
            "pid": os.getpid(),
            "port": server.port,
            "control_port": control_port,
        }
    )
    conn.close()
    _LOG.info(
        "worker serving",
        extra={"worker": index, "port": server.port},
    )
    while not stop.is_set():
        # supervisor_pid was captured in the parent at fork time, so
        # this catches even a supervisor that died before we started.
        if os.getppid() != supervisor_pid:
            # Orphaned: the supervisor died without signalling us.
            # Drain and exit rather than serve forever unsupervised.
            _LOG.warning("supervisor gone, draining", extra={"worker": index})
            stop.set()
            break
        # The worker-kill fault point: an injected crash dies right
        # here, mid-flight, exactly like an external kill -9 — open
        # connections reset, no drain, no asyncio teardown.
        try:
            chaos_point("gateway.worker")
        except InjectedCrash:
            os._exit(137)
        try:
            await asyncio.wait_for(stop.wait(), timeout=_HEARTBEAT)
        except TimeoutError:
            pass
    _LOG.info("worker draining", extra={"worker": index})
    await server.stop()
    store.close()


def _worker_main(
    session: str,
    lock: Any,
    config: GatewayConfig,
    index: int,
    conn: Any,
    arm_chaos: bool,
    supervisor_pid: int,
    stats_addr: tuple[str, int] | None,
) -> None:
    # Overwrite the inherited "supervisor" identity first thing: every
    # log line and metric label from here on says which worker spoke.
    set_worker_identity(str(index))
    if not arm_chaos:
        # Replacement workers start clean: the fork image inherits the
        # supervisor's armed chaos plan, and without this a planned
        # worker kill would re-fire in every restart, forever.
        chaos_points._ARMED = None
    try:
        asyncio.run(
            _worker_serve(
                session,
                lock,
                config,
                index,
                conn,
                supervisor_pid,
                stats_addr,
            )
        )
    except InjectedCrash:
        # The simulated kill: no drain, no cleanup, nonzero exit —
        # the supervisor must notice and restart.
        os._exit(137)
    except KeyboardInterrupt:  # pragma: no cover - signal race at start
        pass


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
class _WorkerSlot:
    __slots__ = ("index", "process", "port", "control_port", "restarts")

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Any = None
        self.port: int | None = None
        self.control_port: int | None = None
        self.restarts = 0


class _FleetStatsHandler(BaseHTTPRequestHandler):
    """The supervisor's merged-view endpoint handler.

    Workers proxy public ``/v1/metrics`` (JSON), ``/v1/profile``,
    ``/v1/slo``, ``/v1/metrics/history``, and ``/v1/trace`` requests
    here; the handler fans ``?scope=local`` scrapes out across the
    fleet's control ports and merges raw state: summed metric
    families, profiler stack counts and trace rings.  Loopback-only
    and started before the first fork, so its address travels to
    workers as a plain argument.
    """

    protocol_version = "HTTP/1.1"

    def log_message(self, *args: Any) -> None:  # noqa: N802
        pass  # routed through our structured logger, not stderr

    def do_GET(self) -> None:  # noqa: N802
        gateway: "MultiWorkerGateway" = self.server.gateway  # type: ignore[attr-defined]
        split = urlsplit(self.path)
        params = parse_qs(split.query)
        status = 200
        content_type = "application/json"
        try:
            if split.path == "/v1/metrics":
                payload = gateway.aggregate_metrics()
            elif split.path == "/v1/profile":
                status, payload, content_type = gateway.fleet_profile(
                    params
                )
            elif split.path == "/v1/slo":
                payload = gateway.fleet_slo()
            elif split.path == "/v1/metrics/history":
                payload = gateway.fleet_history(params)
            elif split.path == "/v1/trace":
                payload = gateway.aggregate_traces(
                    _int_param(params, "limit", 50)
                )
            else:
                status = 404
                payload = {
                    "error": {
                        "type": "GatewayError",
                        "detail": f"no such endpoint: {split.path}",
                    }
                }
        except Exception as error:  # pragma: no cover - merge breakage
            status, content_type = 500, "application/json"
            payload = {
                "error": {
                    "type": type(error).__name__,
                    "detail": str(error) or "internal error",
                }
            }
        body = (
            payload.encode("utf-8")
            if isinstance(payload, str)
            else json.dumps(payload).encode("utf-8")
        )
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def _int_param(
    params: Mapping[str, list[str]], name: str, default: int
) -> int:
    raw = params.get(name, [""])[-1]
    try:
        return max(0, int(raw)) if raw else default
    except ValueError:
        return default


def _float_param(
    params: Mapping[str, list[str]], name: str
) -> float | None:
    raw = params.get(name, [""])[-1]
    try:
        return float(raw) if raw else None
    except ValueError:
        return None


class MultiWorkerGateway:
    """A supervised fleet of SO_REUSEPORT gateway workers.

    Parameters
    ----------
    backend:
        A :class:`~repro.serve.RankingService`,
        :class:`~repro.serve.QueryEngine`, or
        :class:`~repro.serve.ShardedScoreIndex` — whatever it is, its
        current snapshot is published to shared memory and the workers
        serve *that*, not the backend object.
    workers:
        Fleet size (>= 1).
    config:
        Per-worker :class:`~repro.gateway.GatewayConfig`; ``port`` may
        be 0 (the supervisor resolves it once, pre-fork, by binding a
        reservation socket every worker then joins via
        ``SO_REUSEPORT``).  Admission/rate limits apply per worker.
    ingestor:
        Optional :class:`~repro.stream.StreamIngestor` whose service
        must be ``backend``: the supervisor replays its remaining
        events in micro-batches and publishes each version as a new
        shared generation — the one-writer rule of the protocol.

    Lifecycle: :meth:`start` forks the fleet; then either
    :meth:`serve_forever` (CLI foreground: installs SIGTERM/SIGINT
    handlers, supervises, drains on signal) or
    :meth:`start_supervision_thread` (test/bench drivers that run load
    in the same process); finally :meth:`stop` (SIGTERM + join every
    worker, then unlink all shared segments).
    """

    def __init__(
        self,
        backend: Any,
        *,
        workers: int,
        config: GatewayConfig | None = None,
        ingestor: StreamIngestor | None = None,
        max_restarts: int = 16,
    ) -> None:
        if workers < 1:
            raise GatewayError(f"workers must be >= 1, got {workers}")
        if not hasattr(socket, "SO_REUSEPORT"):  # pragma: no cover
            raise GatewayError(
                "multi-worker serving needs SO_REUSEPORT "
                "(Linux/BSD only)"
            )
        self.config = config or GatewayConfig(port=0)
        self.n_workers = int(workers)
        self.max_restarts = int(max_restarts)
        self._backend = backend
        self._service: RankingService | None = None
        if isinstance(backend, RankingService):
            self._service = backend
        if ingestor is not None:
            if self._service is None or ingestor.service is not self._service:
                raise GatewayError(
                    "the ingestor's service must be the backend "
                    "RankingService (one writer, its snapshot is what "
                    "gets published)"
                )
        self._ingestor = ingestor
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX
            raise GatewayError(
                "multi-worker serving needs the fork start method"
            ) from exc
        self._publisher: SharedStorePublisher | None = None
        self._reservation: socket.socket | None = None
        self._slots: list[_WorkerSlot] = []
        self._stopping = False
        self._stop_requested = False
        self._last_update = 0.0
        self._last_history = 0.0
        self._stats_server: ThreadingHTTPServer | None = None
        self._stats_thread: threading.Thread | None = None
        self._supervision_thread: threading.Thread | None = None
        self.stats_addr: tuple[str, int] | None = None
        self._previous_identity: tuple[str, int] | None = None
        #: Fleet history and SLOs live in the supervisor: one store
        #: scraping the *merged* per-worker registries (exact summed
        #: series), one engine evaluating objectives over it.  Workers
        #: run no history scraper of their own (``history_interval=0``
        #: in the worker config) — fleet truth has one owner.
        self.tsdb = TimeSeriesStore(
            self._fleet_families,
            capacity=self.config.history_capacity,
            interval=0.0,
        )
        self.slo_engine = SLOEngine(
            self.tsdb, slos=self.config.slos or DEFAULT_SLOS
        )
        self.port: int | None = None
        self.session: str | None = None
        self.updates_applied = 0
        self.restarts = 0
        self.last_metrics: dict[str, Any] | None = None

    # ------------------------------------------------------------------
    # Startup
    # ------------------------------------------------------------------
    def _current_snapshot(self) -> StoreSnapshot:
        backend = self._backend
        if isinstance(backend, RankingService):
            return backend.sharded.snapshot()
        if isinstance(backend, QueryEngine):
            return backend.sharded.snapshot()
        if isinstance(backend, ShardedScoreIndex):
            return backend.snapshot()
        raise GatewayError(
            "backend must be a RankingService, QueryEngine, or "
            f"ShardedScoreIndex, got {type(backend).__name__}"
        )

    def _reserve_port(self) -> int:
        """Bind (NOT listen) the serving address with ``SO_REUSEPORT``.

        Resolves port 0 to a concrete port *before* forking, and keeps
        the port owned by this uid for the whole session: a bound,
        non-listening TCP socket never receives connections, but it
        keeps the address from being claimed by anything that does not
        also set ``SO_REUSEPORT`` — so worker crashes never lose the
        port.
        """
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((self.config.host, self.config.port))
        self._reservation = sock
        return int(sock.getsockname()[1])

    def _start_stats_server(self) -> None:
        """Bind the loopback fleet-stats listener, pre-fork."""
        server = ThreadingHTTPServer(
            ("127.0.0.1", 0), _FleetStatsHandler
        )
        server.daemon_threads = True
        server.gateway = self  # type: ignore[attr-defined]
        self._stats_server = server
        self.stats_addr = (
            "127.0.0.1",
            int(server.server_address[1]),
        )
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-gateway-fleet-stats",
            daemon=True,
        )
        thread.start()
        self._stats_thread = thread

    def start(self) -> None:
        """Publish generation 0, reserve the port, fork the fleet."""
        if self._slots:
            raise GatewayError("multi-worker gateway already started")
        # Remember the pre-fleet identity so an embedded fleet (tests,
        # docs, the bench harness) does not leave this whole process
        # labelled "supervisor" after stop().
        self._previous_identity = get_worker_identity()
        set_worker_identity("supervisor")
        self.session = new_session()
        lock = self._ctx.Lock()
        self._lock = lock
        self._publisher = SharedStorePublisher(self.session, lock=lock)
        self._publisher.publish(self._current_snapshot())
        resolved = self._reserve_port()
        self.port = resolved
        # The fleet-stats listener starts *before* the first fork so
        # its resolved address rides into _worker_main as an argument
        # (the ready pipe is one-way, worker -> supervisor).
        self._start_stats_server()
        self._worker_config = replace(
            self.config,
            port=resolved,
            reuse_port=True,
            history_interval=0.0,
        )
        self._slots = [_WorkerSlot(i) for i in range(self.n_workers)]
        for slot in self._slots:
            self._spawn(slot, arm_chaos=True)
        self._last_update = time.monotonic()
        _LOG.info(
            "fleet serving",
            extra={
                "workers": self.n_workers,
                "port": resolved,
                "session": self.session,
            },
        )

    def _spawn(self, slot: _WorkerSlot, *, arm_chaos: bool) -> None:
        assert self.session is not None
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                self.session,
                self._lock,
                self._worker_config,
                slot.index,
                child_conn,
                arm_chaos,
                os.getpid(),
                self.stats_addr,
            ),
            name=f"repro-gateway-worker-{slot.index}",
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(_READY_TIMEOUT):
            process.terminate()
            raise GatewayError(
                f"worker {slot.index} did not report ready within "
                f"{_READY_TIMEOUT}s"
            )
        try:
            ready = parent_conn.recv()
        except EOFError as exc:
            raise GatewayError(
                f"worker {slot.index} died before reporting ready"
            ) from exc
        finally:
            parent_conn.close()
        slot.process = process
        slot.port = int(ready["port"])
        slot.control_port = int(ready["control_port"])

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def supervise_once(self) -> None:
        """One supervision tick: restart the dead, step the stream.

        Crashed workers are replaced immediately (replacements start
        with a clean chaos state — an injected kill fires once, like a
        real one).  When an ingestor is attached and due, exactly one
        micro-batch is applied here and published as a new generation.
        """
        if self._stopping:
            return
        for slot in self._slots:
            if slot.process is not None and not slot.process.is_alive():
                exitcode = slot.process.exitcode
                self.restarts += 1
                slot.restarts += 1
                if self.restarts > self.max_restarts:
                    raise GatewayError(
                        f"worker {slot.index} crashed (exit {exitcode}) "
                        f"and the restart budget ({self.max_restarts}) "
                        "is spent"
                    )
                _LOG.warning(
                    "worker crashed; restarting",
                    extra={
                        "worker": slot.index,
                        "exitcode": exitcode,
                        "restarts": self.restarts,
                    },
                )
                self._spawn(slot, arm_chaos=False)
        if (
            self._ingestor is not None
            and self._publisher is not None
            and not self._ingestor.exhausted
        ):
            now = time.monotonic()
            if now - self._last_update >= self.config.update_interval:
                self._ingestor.step()
                assert self._service is not None
                self._publisher.publish(self._service.sharded.snapshot())
                self.updates_applied += 1
                self._last_update = now
        # The fleet history heartbeat: one merged scrape per interval,
        # taken here (the supervision tick) so the store needs no
        # thread of its own and never races a restart fork.
        if self.config.history_interval > 0:
            now = time.monotonic()
            if (
                now - self._last_history
                >= self.config.history_interval
            ):
                self._last_history = now
                try:
                    self.tsdb.scrape_once()
                except Exception:  # pragma: no cover - torn scrape
                    pass

    def start_supervision_thread(self, interval: float = 0.005) -> Any:
        """Supervise from a daemon thread (in-process load drivers).

        The CLI foreground path uses :meth:`serve_forever` instead —
        a single-threaded supervisor makes restart forks trivially
        fork-safe.  Drivers that run asyncio load in the main thread
        (loadgen, the chaos harness) use this; the thread owns all
        forking and all board mutation, so the only fork-at-risk state
        is its own, never the driver's.
        """
        def loop() -> None:
            while not self._stopping:
                self.supervise_once()
                time.sleep(interval)

        thread = threading.Thread(
            target=loop, name="repro-gateway-supervisor", daemon=True
        )
        thread.start()
        self._supervision_thread = thread
        return thread

    def serve_forever(
        self, for_seconds: float | None = None, interval: float = 0.02
    ) -> None:
        """Foreground supervision until SIGTERM/SIGINT (or a deadline)."""

        def request_stop(signum: int, frame: Any) -> None:
            self._stop_requested = True

        previous = {
            signum: signal.signal(signum, request_stop)
            for signum in (signal.SIGTERM, signal.SIGINT)
        }
        deadline = (
            None
            if for_seconds is None
            else time.monotonic() + for_seconds
        )
        try:
            while not self._stop_requested:
                if deadline is not None and time.monotonic() >= deadline:
                    break
                self.supervise_once()
                time.sleep(interval)
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self.stop()

    # ------------------------------------------------------------------
    # Metrics aggregation
    # ------------------------------------------------------------------
    def _scrape_json(
        self, slot: _WorkerSlot, target: str
    ) -> dict[str, Any] | None:
        """GET ``target`` from one worker's control port, parsed.

        Every fan-out target carries ``scope=local``: the control
        listener shares the public handler, and without it the worker
        would proxy the request straight back to the supervisor.
        """
        if slot.control_port is None:
            return None
        try:
            with socket.create_connection(
                (self.config.host, slot.control_port), timeout=5.0
            ) as sock:
                sock.sendall(
                    f"GET {target} HTTP/1.1\r\n"
                    "Host: control\r\nConnection: close\r\n\r\n".encode(
                        "latin-1"
                    )
                )
                chunks = []
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    chunks.append(chunk)
        except OSError:
            return None
        raw = b"".join(chunks)
        head, _, body = raw.partition(b"\r\n\r\n")
        if not head.startswith(b"HTTP/1.1 200"):
            return None
        try:
            return json.loads(body)
        except json.JSONDecodeError:  # pragma: no cover - torn scrape
            return None

    def _scrape_state(self, slot: _WorkerSlot) -> dict[str, Any] | None:
        return self._scrape_json(
            slot, "/v1/metrics?format=state&scope=local"
        )

    def aggregate_metrics(self) -> dict[str, Any]:
        """One fleet-wide ``/v1/metrics`` document.

        Scrapes every live worker's family state over its control port
        and renders :func:`~repro.gateway.metrics.metrics_document` over
        their merge: counters are exact sums; latency quantiles are
        recovered from the *summed* bucket counts (identical fixed
        bounds in every process), so the fleet p99 is exact — not an
        average of per-worker p99s.
        """
        states: list[Mapping[str, Any]] = []
        admissions: list[Mapping[str, Any]] = []
        per_worker: list[dict[str, Any]] = []
        for slot in self._slots:
            scraped = self._scrape_state(slot)
            alive = (
                slot.process is not None and slot.process.is_alive()
            )
            per_worker.append(
                {
                    "worker": slot.index,
                    "alive": alive,
                    "restarts": slot.restarts,
                    "scraped": scraped is not None,
                }
            )
            if scraped is not None:
                states.append(scraped["registry"])
                admissions.append(scraped["admission"])
        document = metrics_document(merge_family_states(states))
        document["stream_updates"] = {"applied": self.updates_applied}
        document["admission"] = {
            "active": sum(int(a["active"]) for a in admissions),
            "peak_active": max(
                (int(a["peak_active"]) for a in admissions), default=0
            ),
            "admitted_total": sum(
                int(a["admitted_total"]) for a in admissions
            ),
            "draining": any(bool(a["draining"]) for a in admissions),
        }
        document["workers"] = {
            "count": self.n_workers,
            "restarts": self.restarts,
            "fleet": per_worker,
        }
        return document

    # ------------------------------------------------------------------
    # Fleet deep observability (profile, SLO, history, traces)
    # ------------------------------------------------------------------
    def _fleet_families(self) -> list[Any]:
        """The fleet TSDB's collector: merged per-worker registries.

        Scrapes each live worker's unlabelled family state and sums
        matching series — so every point in fleet history (and every
        burn rate the SLO engine derives from it) is an exact
        fleet-wide total, never one worker's sample.
        """
        states = []
        for slot in self._slots:
            scraped = self._scrape_state(slot)
            if scraped is not None and scraped.get("registry"):
                states.append(scraped["registry"])
        return merge_family_states(states)

    def aggregate_profile(self) -> dict[str, Any]:
        """Raw fleet profile: summed stack counts plus per-worker meta.

        A restart does not zero the fleet view: samples a dead worker
        contributed are gone with its process, but the replacement's
        samples merge in under the same keys — the chaos harness
        asserts the merged profile stays well-formed and growing across
        a kill.
        """
        states: list[Mapping[str, Any]] = []
        per_worker: list[dict[str, Any]] = []
        for slot in self._slots:
            scraped = self._scrape_json(
                slot, "/v1/profile?format=state&scope=local"
            )
            entry = {
                "worker": slot.index,
                "scraped": scraped is not None,
                "enabled": bool(scraped and scraped.get("enabled")),
                "samples": 0,
            }
            if scraped and scraped.get("profile"):
                state = scraped["profile"]
                entry["samples"] = int(state.get("samples_total", 0))
                states.append(state)
            per_worker.append(entry)
        merged = merge_profile_states(states)
        return {
            "enabled": any(w["enabled"] for w in per_worker),
            "profile": merged if states else None,
            "workers": per_worker,
        }

    def fleet_profile(
        self, params: Mapping[str, list[str]]
    ) -> tuple[int, dict[str, Any] | str, str]:
        """``/v1/profile`` with fleet-merged samples, format-selected."""
        aggregate = self.aggregate_profile()
        state = aggregate["profile"]
        wants = params.get("format", ["json"])[-1].lower()
        if wants == "state":
            return 200, aggregate, "application/json"
        if state is None:
            return 200, {
                "enabled": aggregate["enabled"],
                "detail": "no worker returned profile samples "
                "(start the fleet with --profile)",
                "workers": aggregate["workers"],
            }, "application/json"
        if wants == "collapsed":
            return 200, collapsed_stacks(state), (
                "text/plain; charset=utf-8"
            )
        if wants == "speedscope":
            return 200, speedscope_document(state), "application/json"
        document = render_profile(
            state, top=_int_param(params, "top", 50) or 50
        )
        document["workers"] = aggregate["workers"]
        return 200, document, "application/json"

    def fleet_slo(self) -> dict[str, Any]:
        """``/v1/slo`` over fleet history (scrapes a fresh point)."""
        self._last_history = time.monotonic()
        return self.slo_engine.evaluate(scrape=True)

    def fleet_history(
        self, params: Mapping[str, list[str]]
    ) -> dict[str, Any]:
        """``/v1/metrics/history`` from the supervisor's fleet store."""
        if self.tsdb.scrapes_total == 0:
            self._last_history = time.monotonic()
            self.tsdb.scrape_once()
        limit = _int_param(params, "limit", 0)
        return self.tsdb.history_payload(
            family=params.get("family", [""])[-1] or None,
            since=_float_param(params, "since"),
            limit=limit or None,
        )

    def aggregate_traces(self, limit: int = 50) -> dict[str, Any]:
        """``/v1/trace`` across the fleet, newest first.

        Each worker tags its trees with its index before they leave the
        process, so a merged trace still says who ran it.
        """
        enabled = False
        recorded_total = 0
        traces: list[dict[str, Any]] = []
        for slot in self._slots:
            scraped = self._scrape_json(
                slot, f"/v1/trace?limit={limit}&scope=local"
            )
            if scraped is None:
                continue
            enabled = enabled or bool(scraped.get("enabled"))
            recorded_total += int(scraped.get("recorded_total", 0))
            traces.extend(scraped.get("traces", ()))
        traces.sort(
            key=lambda t: t.get("start_unix", 0.0), reverse=True
        )
        return {
            "enabled": enabled,
            "recorded_total": recorded_total,
            "traces": traces[:limit] if limit else traces,
            "workers": self.n_workers,
        }

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def stop(self, *, aggregate: bool = True) -> dict[str, Any] | None:
        """Drain the fleet and unlink every shared segment.

        Order: scrape final metrics (workers must still be alive),
        SIGTERM every worker (each runs its gateway's graceful drain),
        join with a bounded wait, SIGKILL stragglers, then destroy the
        generation board — which unlinks the board and every remaining
        generation segment, leaving ``/dev/shm`` clean.
        """
        if self._stopping:
            return self.last_metrics
        self._stopping = True
        thread = self._supervision_thread
        if thread is not None and thread is not threading.current_thread():
            # A restart fork in flight finishes first; otherwise its
            # worker starts after the terminate loop below and serves
            # on, unsupervised, until the interpreter's exit hook waits
            # for it forever.
            thread.join()
            self._supervision_thread = None
        if aggregate and self._slots:
            try:
                self.last_metrics = self.aggregate_metrics()
            except Exception:  # pragma: no cover - best-effort scrape
                self.last_metrics = None
        for slot in self._slots:
            if slot.process is not None and slot.process.is_alive():
                slot.process.terminate()  # SIGTERM -> graceful drain
        deadline = time.monotonic() + self.config.drain_seconds + 5.0
        for slot in self._slots:
            if slot.process is None:
                continue
            remaining = max(0.1, deadline - time.monotonic())
            slot.process.join(timeout=remaining)
            if slot.process.is_alive():  # pragma: no cover - hung drain
                slot.process.kill()
                slot.process.join(timeout=5.0)
        self._slots = []
        if self._stats_server is not None:
            self._stats_server.shutdown()
            self._stats_server.server_close()
            self._stats_server = None
            if self._stats_thread is not None:
                self._stats_thread.join(timeout=5.0)
                self._stats_thread = None
        if self._reservation is not None:
            self._reservation.close()
            self._reservation = None
        if self._publisher is not None:
            self._publisher.close()
            self._publisher = None
        _LOG.info(
            "fleet drained and stopped",
            extra={"restarts": self.restarts, "session": self.session},
        )
        # The final supervisor log line above still carries the
        # "supervisor" identity; only now does the process revert to
        # whatever it was before the fleet existed.
        if self._previous_identity is None:
            clear_worker_identity()
        else:
            set_worker_identity(*self._previous_identity)
        return self.last_metrics

    def __enter__(self) -> "MultiWorkerGateway":
        self.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()


def worker_ports(gateway: MultiWorkerGateway) -> Sequence[int]:
    """The per-worker serving ports (all equal — SO_REUSEPORT group)."""
    return [
        slot.port
        for slot in gateway._slots
        if slot.port is not None
    ]
