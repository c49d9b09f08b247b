"""The gateway load generator: concurrent clients, verified responses.

``repro loadgen`` (and the ``gateway`` bench scenario) drive a real
:class:`~repro.gateway.GatewayServer` over real sockets with N
concurrent asyncio clients issuing mixed endpoint traffic — ranking
pages, paper lookups, comparisons — optionally while a
:class:`~repro.gateway.StreamUpdater` applies citation micro-batches
mid-run.  Every client records per-request latency and the full JSON
response.

The run then *proves* its answers instead of trusting them: each
response carries the index version it was computed at, and stream
replay is deterministic (PR 4), so a fresh **verification replica**
replaying the same log with the same batch policy passes through
bit-identical index states.  The verifier steps the replica to every
version observed in the recorded traffic and compares each response
payload against a direct :class:`~repro.serve.RankingService` call —
the acceptance property "every gateway response is bit-identical to a
direct service call at the response's reported version", checked
response by response.

The report is JSON-ready: requests/second, client-observed latency
quantiles (p50/p95/p99), status counts, the server's coalesced
batch-size distribution, cache counters, and the
``identical_rankings`` verdict.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from typing import Any, Mapping, Sequence
from urllib.parse import quote

from repro.errors import GatewayError
from repro.gateway.metrics import latency_summary, metrics_document
from repro.gateway.server import GatewayConfig, GatewayServer
from repro.obs.registry import Histogram
from repro.serve.service import RankingService
from repro.stream.events import EventLog
from repro.stream.ingest import StreamIngestor

__all__ = [
    "run_load_over_log",
    "run_load_static",
    "run_load_multiworker",
]


# ----------------------------------------------------------------------
# Request planning
# ----------------------------------------------------------------------
def _request_plan(
    rng: random.Random,
    methods: Sequence[str],
    paper_ids: Sequence[str],
    count: int,
    year_span: tuple[float, float],
) -> list[dict[str, Any]]:
    """A deterministic mixed-traffic plan for one client."""
    lo, hi = year_span
    third = (hi - lo) / 3.0
    spans = [None, None, (lo, lo + 2 * third), (lo + third, hi)]
    plan: list[dict[str, Any]] = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.55:
            plan.append(
                {
                    "kind": "top",
                    "method": rng.choice(list(methods)),
                    "k": rng.choice([5, 10, 25]),
                    "offset": rng.choice([0, 0, 0, 10, 50]),
                    "span": rng.choice(spans),
                }
            )
        elif roll < 0.8 and paper_ids:
            plan.append(
                {"kind": "paper", "id": rng.choice(list(paper_ids))}
            )
        else:
            chosen = list(methods)
            rng.shuffle(chosen)
            plan.append(
                {
                    "kind": "compare",
                    "methods": chosen[: max(2, min(3, len(chosen)))],
                    "k": rng.choice([10, 25]),
                }
            )
    return plan


def _target_of(request: Mapping[str, Any]) -> str:
    """The HTTP request target for one planned request."""
    kind = request["kind"]
    if kind == "top":
        target = (
            f"/v1/top?method={quote(request['method'])}"
            f"&k={request['k']}&offset={request['offset']}"
        )
        if request["span"] is not None:
            # repr round-trips float64 exactly; %g would truncate the
            # bound and silently change the filtered population.
            lo, hi = request["span"]
            target += f"&year_min={lo!r}&year_max={hi!r}"
        return target
    if kind == "paper":
        return f"/v1/paper/{quote(request['id'], safe='')}"
    assert kind == "compare"
    return (
        f"/v1/compare?methods={quote(','.join(request['methods']))}"
        f"&k={request['k']}"
    )


# ----------------------------------------------------------------------
# The asyncio HTTP client
# ----------------------------------------------------------------------
async def _client(
    host: str,
    port: int,
    plan: Sequence[Mapping[str, Any]],
    records: list[dict[str, Any]],
    histogram: Histogram,
    *,
    retries: int = 0,
    retry_cap: float = 2.0,
    reconnect_delay: float = 0.05,
) -> None:
    """One keep-alive connection working through its request plan.

    With ``retries`` (the multi-worker drivers), shed responses are
    retried after honouring the server's ``Retry-After`` header
    (capped at ``retry_cap`` — the header's RFC floor is one whole
    second, far coarser than bench-scale runs), and lost connections
    reconnect: against a worker fleet a connection dies whenever *its*
    worker does, and the retried request simply lands on a sibling.
    Only the final attempt's latency is observed — backoff sleeps are
    the client behaving, not the server responding.
    """
    reader: asyncio.StreamReader | None = None
    writer: asyncio.StreamWriter | None = None

    async def connect() -> None:
        nonlocal reader, writer
        if writer is None:
            reader, writer = await asyncio.open_connection(host, port)

    async def disconnect() -> None:
        nonlocal reader, writer
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        reader = writer = None

    try:
        for request in plan:
            target = _target_of(request)
            attempt = 0
            while True:
                try:
                    await connect()
                    assert reader is not None and writer is not None
                    started = time.perf_counter()
                    writer.write(
                        (
                            f"GET {target} HTTP/1.1\r\n"
                            f"Host: {host}\r\n"
                            "Connection: keep-alive\r\n\r\n"
                        ).encode("latin-1")
                    )
                    await writer.drain()
                    status, headers, document = await _read_response(
                        reader
                    )
                    latency = time.perf_counter() - started
                except (OSError, asyncio.IncompleteReadError):
                    await disconnect()
                    if attempt >= retries:
                        records.append(
                            {
                                "request": dict(request),
                                "status": 599,
                                "version": None,
                                "result": None,
                                "error": "connection-lost",
                            }
                        )
                        break
                    attempt += 1
                    await asyncio.sleep(reconnect_delay)
                    continue
                if status in (429, 503) and attempt < retries:
                    attempt += 1
                    hint = headers.get("retry-after")
                    delay = (
                        min(float(hint), retry_cap)
                        if hint is not None
                        else reconnect_delay
                    )
                    await asyncio.sleep(delay)
                    continue
                histogram.observe(latency)
                records.append(
                    {
                        "request": dict(request),
                        "status": status,
                        "version": document.get("version"),
                        "result": document.get("result"),
                        "error": document.get("error"),
                    }
                )
                break
    finally:
        await disconnect()


async def _read_response(
    reader: asyncio.StreamReader,
) -> tuple[int, dict[str, str], dict[str, Any]]:
    """One HTTP response: ``(status, lowercase headers, JSON body)``."""
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if value:
            headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0))
    body = await reader.readexactly(length) if length else b""
    document = json.loads(body) if body else {}
    return status, headers, document


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------
def _canon(payload: Any) -> Any:
    """JSON round-trip: tuples become lists, exactly like the wire."""
    return json.loads(json.dumps(payload))


def _direct_payload(service: Any, request: Mapping[str, Any]) -> dict[str, Any]:
    """The payload a direct call produces for one request.

    ``service`` is a :class:`~repro.serve.RankingService` or a
    :class:`~repro.serve.QueryEngine`; both answer the same reads.
    """
    from repro.serve.batch import result_payload

    kind = request["kind"]
    if kind == "top":
        return result_payload(
            service.top_k(
                request["method"],
                k=request["k"],
                offset=request["offset"],
                year_range=request["span"],
            )
        )
    if kind == "paper":
        return result_payload(service.paper(request["id"]))
    assert kind == "compare"
    return result_payload(
        service.compare(request["methods"], k=request["k"])
    )


def _verify_records(
    records: Sequence[Mapping[str, Any]],
    service_at_version,
) -> tuple[int, int]:
    """Compare every 200 response against a direct call at its version.

    ``service_at_version(v)`` must return a
    :class:`~repro.serve.RankingService` whose state is bit-identical
    to the serving state at version ``v`` (or ``None`` if that version
    cannot be reconstructed — counted as a mismatch).  Returns
    ``(verified, mismatches)``.
    """
    verified = 0
    mismatches = 0
    ordered = sorted(
        (r for r in records if r["status"] == 200),
        key=lambda r: r["version"],
    )
    for record in ordered:
        service = service_at_version(int(record["version"]))
        if service is None:
            mismatches += 1
            continue
        expected = _canon(_direct_payload(service, record["request"]))
        if expected != record["result"]:
            mismatches += 1
        else:
            verified += 1
    return verified, mismatches


class _ReplicaAtVersion:
    """Step a verification replica ingestor to requested versions."""

    def __init__(self, replica: StreamIngestor) -> None:
        self._replica = replica

    def __call__(self, version: int) -> RankingService | None:
        replica = self._replica
        if replica.batches_applied == 0:
            replica.step()  # bootstrap -> version 0
        while (
            replica.service.version < version and not replica.exhausted
        ):
            replica.step()
        if replica.service.version != version:
            return None
        return replica.service


# ----------------------------------------------------------------------
# Run drivers
# ----------------------------------------------------------------------
def _client_plans(
    methods: Sequence[str],
    sample: Sequence[str],
    year_span: tuple[float, float],
    *,
    clients: int,
    requests_per_client: int,
    seed: int,
) -> list[list[dict[str, Any]]]:
    """One deterministic mixed-traffic plan per client."""
    return [
        _request_plan(
            random.Random(seed + 1000 * client),
            methods,
            sample,
            requests_per_client,
            year_span,
        )
        for client in range(clients)
    ]


def _client_latency() -> Histogram:
    """The client-observed latency histogram of one load run."""
    return Histogram(
        "repro_loadgen_latency_seconds",
        "Client-observed request latency in seconds.",
    )


def _execute_run(
    server: GatewayServer,
    plans: Sequence[Sequence[Mapping[str, Any]]],
) -> tuple[list[dict[str, Any]], Histogram, float]:
    """Start the server, run every client plan, drain, and time it.

    The one place the load loop lives — the bench (`gateway`
    scenario, via :func:`run_load_over_log`) and the CI static smoke
    (:func:`run_load_static`) must measure exactly the same thing.
    """
    records: list[dict[str, Any]] = []
    histogram = _client_latency()

    async def drive() -> float:
        await server.start()
        assert server.port is not None
        started = time.perf_counter()
        await asyncio.gather(
            *(
                _client(
                    server.config.host, server.port, plan, records,
                    histogram,
                )
                for plan in plans
            )
        )
        elapsed = time.perf_counter() - started
        await server.stop()
        return elapsed

    elapsed = asyncio.run(drive())
    return records, histogram, elapsed


def _report(
    records: list[dict[str, Any]],
    histogram: Histogram,
    elapsed: float,
    document: Mapping[str, Any] | None,
    verified: int,
    mismatches: int,
) -> dict[str, Any]:
    """The load report of one run.

    Client-side measures (latency, status counts) come from the
    recorded traffic; server-side measures come from the gateway's
    ``/v1/metrics`` document — one server's, or the fleet's final
    merge (``None`` when that scrape failed, which reports zeros).
    """
    status_counts: dict[str, int] = {}
    for record in records:
        key = str(record["status"])
        status_counts[key] = status_counts.get(key, 0) + 1
    errors_5xx = sum(
        count
        for status, count in status_counts.items()
        if int(status) >= 500
    )
    versions = sorted(
        {
            int(record["version"])
            for record in records
            if record["version"] is not None
        }
    )
    server = document if document is not None else metrics_document(())
    return {
        "requests": len(records),
        "elapsed_seconds": elapsed,
        "requests_per_second": (
            len(records) / elapsed if elapsed > 0 else 0.0
        ),
        "latency": latency_summary(histogram.collect()),
        "status_counts": status_counts,
        "errors_5xx": errors_5xx,
        "shed_429": server["responses"]["shed_429"],
        "shed_503": server["responses"]["shed_503"],
        "coalescing": server["coalescing"],
        "updates_applied": server["stream_updates"]["applied"],
        "versions_observed": versions,
        "result_cache": server.get("result_cache"),
        "verified_responses": verified,
        "mismatched_responses": mismatches,
        "identical_rankings": mismatches == 0 and verified > 0,
    }


def run_load_over_log(
    log: EventLog,
    methods: Sequence[str] = ("AR", "PR", "CC"),
    *,
    clients: int = 4,
    requests_per_client: int = 50,
    seed: int = 7,
    batch_size: int = 64,
    bootstrap_events: int | None = None,
    shards: int = 1,
    partitioner: str = "hash",
    config: GatewayConfig | None = None,
    verify: bool = True,
) -> dict[str, Any]:
    """Serve a log's bootstrap, load-test while replaying the rest.

    The gateway bootstraps from the first ``bootstrap_events`` events
    (default: half the log), then serves ``clients`` concurrent
    connections of mixed traffic while a live updater applies the
    remaining events in micro-batches.  With ``verify`` (default), a
    replica replay checks every response at its reported version.
    """
    if clients < 1:
        raise GatewayError(f"clients must be >= 1, got {clients}")
    if requests_per_client < 1:
        raise GatewayError(
            f"requests_per_client must be >= 1, got {requests_per_client}"
        )
    bootstrap = (
        max(1, len(log) // 2)
        if bootstrap_events is None
        else bootstrap_events
    )

    def make_ingestor() -> StreamIngestor:
        return StreamIngestor(
            log,
            methods,
            batch_size=batch_size,
            bootstrap_size=bootstrap,
            shards=shards,
            partitioner=partitioner,
        )

    ingestor = make_ingestor()
    ingestor.step()  # the bootstrap batch: version 0
    service = ingestor.service
    network = service.index.network
    times = network.publication_times
    year_span = (float(times.min()), float(times.max()))
    # Only bootstrap-era papers: they exist at every version a client
    # can observe, so lookups never depend on update timing.
    sample = list(network.paper_ids[:: max(1, network.n_papers // 64)])
    plans = _client_plans(
        methods, sample, year_span,
        clients=clients,
        requests_per_client=requests_per_client,
        seed=seed,
    )
    server = GatewayServer(
        service,
        config=config or GatewayConfig(port=0),
        ingestor=ingestor,
    )
    records, histogram, elapsed = _execute_run(server, plans)

    verified = mismatches = 0
    if verify:
        verified, mismatches = _verify_records(
            records, _ReplicaAtVersion(make_ingestor())
        )
    return _report(
        records, histogram, elapsed, server.metrics_document(), verified,
        mismatches,
    )


def run_load_static(
    backend: Any,
    methods: Sequence[str],
    *,
    clients: int = 4,
    requests_per_client: int = 50,
    seed: int = 7,
    config: GatewayConfig | None = None,
    verify: bool = True,
) -> dict[str, Any]:
    """Load-test a static backend (no live updates).

    ``backend`` is a :class:`~repro.serve.RankingService` or a
    :class:`~repro.serve.QueryEngine` (over a store file, say): both
    expose their shard store as ``.sharded`` and the same ``top_k``,
    ``compare`` and ``paper`` reads.  The id sample and the year span
    come from the store's snapshot, and verification replays the
    recorded traffic as direct calls on the backend at its single
    served version.
    """
    if clients < 1:
        raise GatewayError(f"clients must be >= 1, got {clients}")
    sharded = getattr(backend, "sharded", None)
    if sharded is None:
        raise GatewayError(
            "backend must be a RankingService or QueryEngine, got "
            f"{type(backend).__name__}"
        )
    # Empty shards (sparse hash buckets, thin year ranges) carry no
    # times; they must not reach .min()/.max().
    shards = [s for s in sharded.snapshot().iter_shards() if s.n_papers]
    if not shards:
        raise GatewayError("cannot load-test an empty shard store")
    ids = [pid for shard in shards for pid in shard.paper_ids]
    year_span = (
        min(float(shard.times.min()) for shard in shards),
        max(float(shard.times.max()) for shard in shards),
    )
    sample = ids[:: max(1, len(ids) // 64)]
    plans = _client_plans(
        methods, sample, year_span,
        clients=clients,
        requests_per_client=requests_per_client,
        seed=seed,
    )
    server = GatewayServer(backend, config=config or GatewayConfig(port=0))
    records, histogram, elapsed = _execute_run(server, plans)

    verified = mismatches = 0
    if verify:
        verified, mismatches = _verify_records(
            records,
            lambda version: (
                backend if version == backend.version else None
            ),
        )
    return _report(
        records, histogram, elapsed, server.metrics_document(), verified,
        mismatches,
    )


# ----------------------------------------------------------------------
# Multi-worker run driver
# ----------------------------------------------------------------------
def run_load_multiworker(
    log: EventLog,
    methods: Sequence[str] = ("AR", "PR", "CC"),
    *,
    workers: int,
    clients: int = 8,
    requests_per_client: int = 25,
    seed: int = 7,
    batch_size: int = 64,
    bootstrap_events: int | None = None,
    shards: int = 1,
    partitioner: str = "hash",
    config: GatewayConfig | None = None,
    verify: bool = True,
    live_updates: bool = True,
    retries: int = 8,
) -> dict[str, Any]:
    """Load-test a pre-forked worker fleet over one shared store.

    The multi-worker counterpart of :func:`run_load_over_log`: a
    :class:`~repro.gateway.MultiWorkerGateway` serves the log's
    bootstrap from ``workers`` ``SO_REUSEPORT`` processes while the
    supervisor (the one writer) applies the remaining events as
    shared-memory generations.  Clients honour ``Retry-After`` on
    sheds and reconnect through worker restarts, so the driver also
    holds under chaos.  ``clients`` may be in the thousands — each is
    one asyncio connection, not a thread.  Verification replays a
    replica exactly as in the single-process driver: shared memory
    must not change a single response byte.
    """
    if clients < 1:
        raise GatewayError(f"clients must be >= 1, got {clients}")
    if requests_per_client < 1:
        raise GatewayError(
            f"requests_per_client must be >= 1, got {requests_per_client}"
        )
    from repro.gateway.workers import MultiWorkerGateway

    bootstrap = (
        max(1, len(log) // 2)
        if bootstrap_events is None
        else bootstrap_events
    )

    def make_ingestor() -> StreamIngestor:
        return StreamIngestor(
            log,
            methods,
            batch_size=batch_size,
            bootstrap_size=bootstrap,
            shards=shards,
            partitioner=partitioner,
        )

    ingestor = make_ingestor()
    ingestor.step()  # the bootstrap batch: version 0
    service = ingestor.service
    network = service.index.network
    times = network.publication_times
    year_span = (float(times.min()), float(times.max()))
    sample = list(network.paper_ids[:: max(1, network.n_papers // 64)])
    plans = _client_plans(
        methods, sample, year_span,
        clients=clients,
        requests_per_client=requests_per_client,
        seed=seed,
    )
    gateway = MultiWorkerGateway(
        service,
        workers=workers,
        config=config or GatewayConfig(port=0),
        ingestor=ingestor if live_updates else None,
    )
    records: list[dict[str, Any]] = []
    histogram = _client_latency()
    gateway.start()
    try:
        gateway.start_supervision_thread()
        assert gateway.port is not None

        async def drive() -> float:
            started = time.perf_counter()
            await asyncio.gather(
                *(
                    _client(
                        gateway.config.host, gateway.port, plan,
                        records, histogram, retries=retries,
                    )
                    for plan in plans
                )
            )
            return time.perf_counter() - started

        elapsed = asyncio.run(drive())
    finally:
        fleet = gateway.stop()

    verified = mismatches = 0
    if verify:
        verified, mismatches = _verify_records(
            records, _ReplicaAtVersion(make_ingestor())
        )
    report = _report(
        records, histogram, elapsed, fleet, verified, mismatches
    )
    report["workers"] = workers
    report["worker_restarts"] = gateway.restarts
    if fleet is not None:
        report["fleet_latency"] = fleet["latency"]["overall"]
    return report
