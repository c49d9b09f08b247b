"""The gateway's request metrics and the ``/v1/metrics`` document.

A gateway records six request families as ordinary
:mod:`repro.obs.registry` instruments (:class:`RequestInstruments`):
requests by endpoint, responses by status, 429/503 sheds, latency by
endpoint, coalesced batch sizes, and applied stream updates.  Each
:class:`~repro.gateway.GatewayServer` registers them in a
:class:`~repro.obs.registry.MetricsRegistry` of its own rather than
the process-global :data:`~repro.obs.registry.REGISTRY`, so several
gateways in one process keep separate counts.

The ``/v1/metrics`` JSON document is one function of a list of metric
families, :func:`metrics_document`.  A single process renders its own
registry's families; the multi-worker supervisor renders
:func:`~repro.obs.registry.merge_family_states` over the workers'
scraped states.  Both compute every number the same way: counters are
sums, and latency quantiles come from bucket counts.  A family
carries no observed maximum, so a quantile is bounded by the upper
bound of the bucket it falls in, and one in the overflow bucket
reports the last finite bound.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, NamedTuple

from repro.obs.registry import (
    Counter,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    quantile_from_buckets,
)

__all__ = ["RequestInstruments", "latency_summary", "metrics_document"]

REQUESTS = "repro_gateway_requests_total"
RESPONSES = "repro_gateway_responses_total"
SHED = "repro_gateway_requests_shed_total"
UPDATES = "repro_gateway_stream_updates_total"
LATENCY = "repro_gateway_request_latency_seconds"
BATCH_SIZE = "repro_gateway_coalesced_batch_size"

#: Batch-size buckets ``1, 2, 3-4, 5-8, ..., 513-1024`` plus overflow:
#: the signal is "are batches forming at all", which the low buckets
#: answer exactly.
BATCH_SIZE_BOUNDS = tuple(float(1 << b) for b in range(11))


class RequestInstruments(NamedTuple):
    """Handles on the six request families of one registry."""

    requests: Counter
    responses: Counter
    shed: Counter
    updates: Counter
    latency: Histogram
    batch_sizes: Histogram

    @classmethod
    def register(cls, registry: MetricsRegistry) -> "RequestInstruments":
        """Register the families in ``registry`` and return the handles.

        Both shed series and the batch-size series exist from the
        start, so a scrape before the first shed or batch shows them
        at zero (a rate over them needs that baseline).
        """
        instruments = cls(
            requests=registry.counter(
                REQUESTS, "Requests started, by endpoint.", ["endpoint"]
            ),
            responses=registry.counter(
                RESPONSES, "Responses sent, by HTTP status.", ["status"]
            ),
            shed=registry.counter(
                SHED,
                "Requests shed by admission control, by status.",
                ["status"],
            ),
            updates=registry.counter(
                UPDATES, "Live stream micro-batches applied."
            ),
            latency=registry.histogram(
                LATENCY,
                "Request latency in seconds, by endpoint.",
                ["endpoint"],
            ),
            batch_sizes=registry.histogram(
                BATCH_SIZE,
                "Requests per coalesced engine batch.",
                bounds=BATCH_SIZE_BOUNDS,
            ),
        )
        instruments.shed.inc(0, status="429")
        instruments.shed.inc(0, status="503")
        instruments.batch_sizes.declare()
        return instruments


class _Buckets(NamedTuple):
    """One histogram series read back from its cumulative samples."""

    bounds: tuple[float, ...]
    counts: tuple[int, ...]
    total: float
    count: int


_NO_BUCKETS = _Buckets((), (0,), 0.0, 0)


def _counts(family: MetricFamily | None, label: str) -> dict[str, int]:
    """Counter values summed per value of ``label``."""
    counts: dict[str, int] = {}
    for sample in family.samples if family is not None else ():
        key = dict(sample.labels)[label]
        counts[key] = counts.get(key, 0) + int(sample.value)
    return counts


def _histograms(
    family: MetricFamily | None, label: str | None
) -> dict[str, _Buckets]:
    """Histogram series summed per value of ``label`` (all: ``None``).

    Series that share the grouping value are added bucket by bucket,
    which is exact because every series of a family has the same
    bounds.
    """
    cumulative: dict[str, dict[float, float]] = {}
    sums: dict[str, float] = {}
    counts: dict[str, float] = {}
    for sample in family.samples if family is not None else ():
        labels = dict(sample.labels)
        key = labels.get(label, "") if label is not None else ""
        if sample.suffix == "_bucket":
            le = labels["le"]
            bound = math.inf if le == "+Inf" else float(le)
            series = cumulative.setdefault(key, {})
            series[bound] = series.get(bound, 0.0) + sample.value
        elif sample.suffix == "_sum":
            sums[key] = sums.get(key, 0.0) + sample.value
        else:
            counts[key] = counts.get(key, 0.0) + sample.value
    result: dict[str, _Buckets] = {}
    for key, series in cumulative.items():
        bounds = sorted(series)
        running = [series[bound] for bound in bounds]
        result[key] = _Buckets(
            bounds=tuple(bounds[:-1]),
            counts=tuple(
                int(value - (running[i - 1] if i else 0.0))
                for i, value in enumerate(running)
            ),
            total=sums.get(key, 0.0),
            count=int(counts.get(key, 0.0)),
        )
    return result


def _latency_summary(buckets: _Buckets) -> dict[str, int | float]:
    """Count, mean and quantiles of one latency series, in ms.

    No maximum is known, so the overflow bucket reports the last
    finite bound.
    """
    count = buckets.count
    summary: dict[str, int | float] = {
        "count": count,
        "mean_ms": 0.0,
        "p50_ms": 0.0,
        "p95_ms": 0.0,
        "p99_ms": 0.0,
    }
    if count:
        summary["mean_ms"] = buckets.total / count * 1000.0
        for name, q in (("p50_ms", 0.5), ("p95_ms", 0.95), ("p99_ms", 0.99)):
            summary[name] = 1000.0 * quantile_from_buckets(
                buckets.bounds, buckets.counts, count, buckets.bounds[-1], q
            )
    return summary


def _batch_summary(buckets: _Buckets) -> dict[str, Any]:
    """Batch and request totals plus the non-empty bucket counts."""
    labels = []
    previous = 0
    for bound in buckets.bounds:
        low, high = previous + 1, int(bound)
        labels.append(str(high) if low == high else f"{low}-{high}")
        previous = high
    labels.append(f">{previous}")
    return {
        "batches": buckets.count,
        "requests": int(buckets.total),
        "mean_batch_size": (
            buckets.total / buckets.count if buckets.count else 0.0
        ),
        "distribution": {
            label: count
            for label, count in zip(labels, buckets.counts)
            if count
        },
    }


def latency_summary(family: MetricFamily | None) -> dict[str, Any]:
    """Every series of a latency family pooled into one summary.

    ``count``, ``mean_ms``, ``p50_ms``, ``p95_ms`` and ``p99_ms``: the
    document's ``latency.overall``, and the load generator's report of
    its client-side latency histogram.
    """
    return _latency_summary(_histograms(family, None).get("", _NO_BUCKETS))


def metrics_document(
    families: Iterable[MetricFamily],
    cache_stats: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """The ``/v1/metrics`` document rendered from metric families.

    Reads the six request families by name and ignores every other
    family, so the input may be one registry's families or a fleet
    merge of everything the workers export.  ``cache_stats`` adds the
    serve-layer result-cache counters under ``result_cache``.
    """
    by_name = {family.name: family for family in families}
    by_status = _counts(by_name.get(RESPONSES), "status")
    shed = _counts(by_name.get(SHED), "status")
    requests = _counts(by_name.get(REQUESTS), "endpoint")
    latency = by_name.get(LATENCY)
    updates = by_name.get(UPDATES)
    document: dict[str, Any] = {
        "requests": {
            "started": sum(requests.values()),
            "by_endpoint": dict(sorted(requests.items())),
        },
        "responses": {
            "by_status": dict(
                sorted(by_status.items(), key=lambda item: int(item[0]))
            ),
            "shed_429": shed.get("429", 0),
            "shed_503": shed.get("503", 0),
            "errors_5xx": sum(
                count
                for status, count in by_status.items()
                if int(status) >= 500
            ),
        },
        "latency": {
            "overall": latency_summary(latency),
            "by_endpoint": {
                endpoint: _latency_summary(buckets)
                for endpoint, buckets in sorted(
                    _histograms(latency, "endpoint").items()
                )
            },
        },
        "coalescing": _batch_summary(
            _histograms(by_name.get(BATCH_SIZE), None).get("", _NO_BUCKETS)
        ),
        "stream_updates": {
            "applied": int(sum(s.value for s in updates.samples))
            if updates is not None
            else 0
        },
    }
    if cache_stats is not None:
        document["result_cache"] = dict(cache_stats)
    return document
