"""repro.gateway — the asyncio HTTP serving gateway.

PRs 1-4 built the serving stack — versioned score index, warm-started
deltas, sharded batched queries, checkpointed stream replay — but every
entry point was an in-process call or a one-shot CLI.  This package is
the network layer that turns the library into a service a ranking site
(BIP! DB-style, serving impact scores for >100M publications) could
actually stand behind:

* :class:`GatewayServer` — a stdlib-only asyncio HTTP/1.1 server with
  JSON endpoints (``/v1/top``, ``/v1/paper/{id}``, ``/v1/compare``,
  ``/v1/healthz``, ``/v1/metrics``) and graceful drain on shutdown;
* :class:`RequestCoalescer` — natural micro-batching: concurrent
  in-flight queries collect into heterogeneous
  :class:`~repro.serve.QueryEngine` batches, amortising shard fan-out,
  with responses bit-identical to direct
  :class:`~repro.serve.RankingService` calls;
* :class:`AdmissionController` — bounded in-flight + queue with typed
  429/503 load shedding and per-endpoint token-bucket rate limits;
* :mod:`repro.gateway.metrics` — each server's request counters and
  fixed-bucket latency histograms, :mod:`repro.obs.registry`
  instruments in the server's own registry, and
  :func:`metrics_document`, which renders ``/v1/metrics``
  (p50/p95/p99, sheds, batch sizes, cache counters) from metric
  families for one process or a fleet;
* :class:`StreamUpdater` — a background task applying
  :class:`~repro.stream.StreamIngestor` micro-batches while the server
  keeps answering, with the version swap atomic against every read;
* :class:`MultiWorkerGateway` — pre-fork multi-process serving: N
  workers share one port via ``SO_REUSEPORT`` and one score store via
  :mod:`repro.serve.shm` shared memory, with a supervisor that
  restarts crashes, runs the single-writer streaming updater, and
  merges per-worker metric families into exact fleet-wide counters;
* :func:`run_load_over_log` / :func:`run_load_static` — the load
  generator behind ``repro loadgen`` and the ``gateway`` bench
  scenario, which verifies every recorded response against a direct
  service call at the response's reported index version.

CLI: ``repro serve-http`` starts a gateway; ``repro loadgen`` runs the
verified load bench against one.
"""

from repro.gateway.admission import (
    AdmissionController,
    AdmissionDecision,
    TokenBucket,
)
from repro.gateway.coalesce import RequestCoalescer
from repro.gateway.loadgen import (
    run_load_multiworker,
    run_load_over_log,
    run_load_static,
)
from repro.gateway.metrics import RequestInstruments, metrics_document
from repro.gateway.server import GatewayConfig, GatewayServer, GatewayThread
from repro.gateway.updates import StreamUpdater
from repro.gateway.workers import MultiWorkerGateway

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "TokenBucket",
    "RequestCoalescer",
    "run_load_over_log",
    "run_load_static",
    "run_load_multiworker",
    "RequestInstruments",
    "metrics_document",
    "GatewayConfig",
    "GatewayServer",
    "GatewayThread",
    "StreamUpdater",
    "MultiWorkerGateway",
]
