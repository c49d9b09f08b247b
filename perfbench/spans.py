"""Spans recorded around the program's public entry points, from outside.

:func:`install` wraps each layer's public boundary (class attributes and
the module-level names the callers look up) so that, while a
:class:`Recorder` is enabled, every call leaves one span: id, name,
start, end, parent span and request id.  Parents follow a context
variable, which the gateway's coalescer and updater carry into their
executor threads; a coalesced engine batch also *links* to the submit
span of every request it answered, so each request's coalesce wait is
its submit time minus the batch that served it.  Spans stay in memory
and are written once, when the system under test exits.

:func:`derive` turns the spans (plus the client's per-request timings
and the counters the gateway already exports) into the per-layer
metrics.  Nothing here changes what the wrapped code computes.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Mapping, Sequence

from perfbench.stats import percentile

_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)

#: The eight methods of the paper's Figure-4 lineup, by registry label.
TUNE_METHODS = ("CR", "FR", "RAM", "ECM", "WSDM", "AR", "NO-ATT", "ATT-ONLY")


class Recorder:
    """In-memory span sink; recording happens only while ``enabled``."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        #: ``id(query) -> submit span id`` while that submit is open.
        self.submit_of_query: dict[int, int] = {}

    def open(self) -> tuple[int, int | None, contextvars.Token]:
        sid = next(self._ids)
        parent = _CURRENT.get()
        return sid, parent, _CURRENT.set(sid)

    def close(self, sid, parent, token, name, start, rid, extra=None) -> None:
        _CURRENT.reset(token)
        self.spans.append((sid, name, start, time.perf_counter(), parent, rid, extra))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, rid, extra in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "rid": rid,
                            "extra": extra,
                        }
                    )
                    + "\n"
                )


def load_spans(path: str) -> list[dict[str, Any]]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------
def _wrap(
    recorder: Recorder,
    fn: Callable,
    name: str | Callable[[tuple], str],
    request_id: Callable[[], str | None],
    extra: Callable[[tuple, Any], Any] | None = None,
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        sid, parent, token = recorder.open()
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            recorder.close(
                sid,
                parent,
                token,
                name if isinstance(name, str) else name(args),
                start,
                request_id(),
                extra(args, result) if extra is not None and result is not None else None,
            )

    return wrapper


def _wrap_async(
    recorder: Recorder,
    fn: Callable,
    name: str,
    request_id: Callable[[], str | None],
    track_query: bool = False,
) -> Callable:
    @functools.wraps(fn)
    async def wrapper(self, *args):
        if not recorder.enabled:
            return await fn(self, *args)
        sid, parent, token = recorder.open()
        if track_query:
            recorder.submit_of_query[id(args[0])] = sid
        start = time.perf_counter()
        try:
            return await fn(self, *args)
        finally:
            if track_query:
                recorder.submit_of_query.pop(id(args[0]), None)
            recorder.close(sid, parent, token, name, start, request_id())

    return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the per-layer metrics are derived from."""
    from repro.baselines import METHOD_REGISTRY
    from repro.core.fused import FusedSolver
    from repro.eval.metrics import NDCG
    from repro.gateway.coalesce import RequestCoalescer
    from repro.graph.matrix import StochasticOperator
    from repro.obs import current_request_id as rid
    from repro.serve.batch import QueryEngine
    from repro.serve.delta import DeltaUpdater
    from repro.serve.score_index import ScoreIndex
    from repro.serve.service import RankingService
    from repro.serve.shard import Shard, ShardedScoreIndex
    from repro.stream.events import EventLog
    from repro.stream.ingest import StreamIngestor
    import repro.gateway.server as gateway_server
    import repro.parallel.engine as experiment_engine
    import repro.parallel.snapshot as split_snapshot

    def patch(owner: Any, attribute: str, name, extra=None) -> None:
        setattr(owner, attribute, _wrap(recorder, getattr(owner, attribute), name, rid, extra))

    def patch_classmethod(owner: type, attribute: str, name: str) -> None:
        fn = owner.__dict__[attribute].__func__
        setattr(owner, attribute, classmethod(_wrap(recorder, fn, name, rid)))

    def batch_links(args: tuple, _result: Any) -> dict[str, Any]:
        links = {recorder.submit_of_query.get(id(query)) for query in args[1]}
        links.discard(None)
        return {"queries": len(args[1]), "links": sorted(links)}

    RequestCoalescer.submit = _wrap_async(
        recorder, RequestCoalescer.submit, "coalesce.submit", rid, track_query=True
    )
    RequestCoalescer.exclusively = _wrap_async(
        recorder, RequestCoalescer.exclusively, "coalesce.exclusively", rid
    )
    patch(RankingService, "execute_batch", "service.batch", batch_links)
    patch(
        QueryEngine,
        "execute_versioned",
        "engine.batch",
        lambda args, _result: {"queries": len(args[1])},
    )
    patch(Shard, "order", "shard.order")
    patch(Shard, "count_ranked_before", "shard.rank_count")
    patch(gateway_server, "result_payload", "serve.payload")
    patch(
        StreamIngestor,
        "step",
        "stream.step",
        lambda _args, report: {"events": report.n_events, "bootstrap": report.bootstrap},
    )
    patch(DeltaUpdater, "extend_network", "delta.extend")
    patch(ScoreIndex, "refresh", "index.refresh")
    patch(ShardedScoreIndex, "sync", "shard.sync")
    patch_classmethod(EventLog, "load", "events.load")
    patch_classmethod(ScoreIndex, "load", "index.load")
    patch(
        FusedSolver,
        "solve",
        "solver.solve",
        lambda _args, results: {"iterations": sum(info.iterations for _, info in results)},
    )
    patch(StochasticOperator, "apply", "solver.spmv")
    patch(StochasticOperator, "__init__", "graph.operator")
    # NO-ATT and ATT-ONLY inherit AttRank.scores: wrap each defining
    # class once and name the span after the instance's own label.
    labels = {METHOD_REGISTRY[label]: label for label in TUNE_METHODS}
    owners = {
        next(base for base in cls.__mro__ if "scores" in base.__dict__) for cls in labels
    }
    for owner in owners:
        patch(
            owner,
            "scores",
            lambda args: f"method.{labels.get(type(args[0]), type(args[0]).__name__)}.scores",
        )
    patch(experiment_engine, "split_by_ratio", "eval.split")
    patch(split_snapshot, "evaluate_setting", "eval.evaluate")
    patch(NDCG, "__call__", "eval.metric")


# ----------------------------------------------------------------------
# Derivation
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Mapping[str, Any]]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children are the spans naming it as parent or linking to it; their
    intervals are clipped to the span and merged before subtracting, so
    overlapping children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        owners = set((span.get("extra") or {}).get("links", ()))
        if span["parent"] is not None:
            owners.add(span["parent"])
        for owner in owners:
            children[owner].append((span["start"], span["end"]))
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(span["id"], ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end - start) - covered
    return result


def _ms(values: Iterable[float]) -> list[float]:
    return [value * 1e3 for value in values]


def _p(values: Sequence[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


def derive(
    spans: Sequence[Mapping[str, Any]],
    *,
    ready: float,
    requests: Sequence[Mapping[str, Any]] = (),
    counters: Mapping[str, float] | None = None,
    overhead_ms: float,
    total_s: float | None = None,
) -> dict[str, float]:
    """The per-layer metrics of one traced run.

    ``ready`` splits set-up spans (loads, bootstrap) from the measured
    ones.  ``requests`` are the traced HTTP requests as the client saw
    them (``rid``, ``sent``, ``done``, ``due``; generator clock);
    ``counters`` carries what the gateway exports (shed count, cache
    hit ratio, ingest rate).  ``total_s`` is the traced end-to-end time
    of a job workload, whose top-level spans it is compared against.
    """
    own = self_times(spans)
    setup = [span for span in spans if span["start"] < ready]
    window = [span for span in spans if span["start"] >= ready]
    by_name: dict[str, list[Mapping[str, Any]]] = defaultdict(list)
    for span in window:
        by_name[span["name"]].append(span)

    def durations(name: str) -> list[float]:
        return [span["end"] - span["start"] for span in by_name[name]]

    def total_ms(name: str) -> float:
        return sum(durations(name)) * 1e3

    def extra(span: Mapping[str, Any], key: str) -> Any:
        # A call that raised left a span without its extra fields.
        return (span["extra"] or {}).get(key, 0)

    def setup_s(name: str, first_only: bool = False) -> float:
        found = [span["end"] - span["start"] for span in setup if span["name"] == name]
        if not found:
            return 0.0
        return found[0] if first_only else sum(found)

    metrics: dict[str, float] = {}
    submits = {span["rid"]: span for span in by_name["coalesce.submit"] if span["rid"]}
    outside, unaccounted, end_to_end = [], 0.0, 0.0
    for request in requests:
        submit = submits.get(request["rid"])
        if submit is None:
            continue
        served = (request["done"] - request["sent"]) - (submit["end"] - submit["start"])
        outside.append(served)
        payload = [
            span["end"] - span["start"]
            for span in by_name["serve.payload"]
            if span["rid"] == request["rid"]
        ]
        unaccounted += served - sum(payload)
        end_to_end += request["done"] - request["due"]
    metrics["gateway.outside_ms.p50"] = _p(_ms(outside), 50)
    waits = _ms(own[span["id"]] for span in by_name["coalesce.submit"])
    metrics["coalesce.wait_ms.p50"] = _p(waits, 50)
    metrics["coalesce.wait_ms.p99"] = _p(waits, 99)
    batches = by_name["service.batch"]
    metrics["coalesce.batch_size.mean"] = (
        sum(extra(span, "queries") for span in batches) / len(batches) if batches else 0.0
    )
    metrics["updater.lock_wait_ms.p50"] = _p(
        _ms(own[span["id"]] for span in by_name["coalesce.exclusively"]), 50
    )
    for name, metric in (
        ("service.batch", "service.batch_ms"),
        ("engine.batch", "engine.batch_ms"),
    ):
        values = _ms(durations(name))
        metrics[f"{metric}.p50"] = _p(values, 50)
        metrics[f"{metric}.p99"] = _p(values, 99)
    metrics["engine.queries"] = float(
        sum(extra(span, "queries") for span in by_name["engine.batch"])
    )
    metrics["engine.self_ms.p50"] = _p(
        _ms(own[span["id"]] for span in by_name["engine.batch"]), 50
    )
    metrics["shard.order_ms"] = total_ms("shard.order")
    metrics["shard.order_calls"] = float(len(by_name["shard.order"]))
    metrics["shard.rank_count_ms"] = total_ms("shard.rank_count")
    metrics["serve.payload_ms.p50"] = _p(_ms(durations("serve.payload")), 50)
    steps = [span for span in by_name["stream.step"] if not extra(span, "bootstrap")]
    step_ms = _ms(span["end"] - span["start"] for span in steps)
    metrics["stream.step_ms.p50"] = _p(step_ms, 50)
    metrics["stream.step_ms.p99"] = _p(step_ms, 99)
    metrics["stream.events_per_step"] = (
        sum(extra(span, "events") for span in steps) / len(steps) if steps else 0.0
    )
    for name, metric in (
        ("delta.extend", "delta.extend_ms.p50"),
        ("index.refresh", "index.refresh_ms.p50"),
        ("shard.sync", "shard.sync_ms.p50"),
    ):
        metrics[metric] = _p(_ms(durations(name)), 50)
    metrics["events.load_s"] = setup_s("events.load")
    metrics["stream.bootstrap_s"] = setup_s("stream.step", first_only=True)
    metrics["index.load_s"] = setup_s("index.load")
    metrics["solver.solve_ms"] = total_ms("solver.solve")
    metrics["solver.solves"] = float(len(by_name["solver.solve"]))
    metrics["solver.column_iterations"] = float(
        sum(extra(span, "iterations") for span in by_name["solver.solve"])
    )
    metrics["solver.spmv_ms"] = total_ms("solver.spmv")
    metrics["solver.spmv_calls"] = float(len(by_name["solver.spmv"]))
    for label in TUNE_METHODS:
        metrics[f"method.{label}.scores_ms"] = total_ms(f"method.{label}.scores")
    metrics["graph.operator_ms"] = total_ms("graph.operator")
    metrics["graph.operator_builds"] = float(len(by_name["graph.operator"]))
    metrics["eval.split_ms"] = total_ms("eval.split")
    metrics["eval.evaluations"] = float(len(by_name["eval.evaluate"]))
    metrics["eval.metric_ms"] = total_ms("eval.metric")
    counters = counters or {}
    metrics["admission.shed"] = float(counters.get("shed", 0.0))
    metrics["service.cache_hit_ratio"] = float(counters.get("cache_hit_ratio", 0.0))
    metrics["stream.ingest_eps"] = float(counters.get("ingest_eps", 0.0))
    metrics["trace.overhead_ms"] = overhead_ms
    if total_s is not None:
        top = sum(span["end"] - span["start"] for span in window if span["parent"] is None)
        metrics["trace.unaccounted_share"] = max(0.0, total_s - top) / total_s if total_s else 0.0
    else:
        metrics["trace.unaccounted_share"] = unaccounted / end_to_end if end_to_end else 0.0
    return metrics
