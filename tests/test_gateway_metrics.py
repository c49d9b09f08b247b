"""Unit tests for the gateway's request metrics and admission control.

The request families are :mod:`repro.obs.registry` instruments in a
registry of the server's own (:class:`RequestInstruments`); these
tests pin what the ``/v1/metrics`` document renders from them — the
latency histogram, the batch-size histogram and the counters.
"""

import pytest

from repro.errors import ConfigurationError
from repro.gateway import (
    AdmissionController,
    RequestInstruments,
    TokenBucket,
    metrics_document,
)
from repro.obs.registry import Histogram, MetricsRegistry


def _registry():
    registry = MetricsRegistry()
    return registry, RequestInstruments.register(registry)


def _overall_latency(observations_ms, endpoint="top"):
    registry, instruments = _registry()
    for ms in observations_ms:
        instruments.latency.observe(ms / 1000.0, endpoint=endpoint)
    return metrics_document(registry.collect())["latency"]["overall"]


def _bucket_bound(seconds):
    """Upper bound of the default latency bucket holding ``seconds``."""
    return min(b for b in Histogram.DEFAULT_BOUNDS if b >= seconds)


def _cumulative(family):
    return {
        dict(sample.labels)["le"]: sample.value
        for sample in family.samples
        if sample.suffix == "_bucket"
    }


class TestLatencyHistogram:
    def test_empty_histogram(self):
        registry, _ = _registry()
        latency = metrics_document(registry.collect())["latency"]
        assert latency["by_endpoint"] == {}
        assert latency["overall"] == {
            "count": 0, "mean_ms": 0.0,
            "p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0,
        }

    def test_quantiles_are_ordered_and_bounded(self):
        overall = _overall_latency((1, 1, 1, 2, 2, 5, 10, 10, 50, 400))
        p50, p95, p99 = (
            overall["p50_ms"], overall["p95_ms"], overall["p99_ms"]
        )
        # No family carries a maximum: quantiles are bounded by the
        # upper bound of the slowest observation's bucket.
        assert 0 < p50 <= p95 <= p99 <= _bucket_bound(0.4) * 1000.0
        # p50 should land near the 2ms observations (one bucket slack).
        assert 1.0 < p50 < 4.0

    def test_quantile_never_exceeds_observed_max(self):
        # The instrument knows its maximum and caps every quantile...
        registry, instruments = _registry()
        instruments.latency.observe(0.0021, endpoint="top")
        assert instruments.latency.quantile(0.99, endpoint="top") <= 0.0021
        # ...the document, rendered from families, caps at the bound.
        overall = metrics_document(registry.collect())["latency"]["overall"]
        assert overall["p99_ms"] <= _bucket_bound(0.0021) * 1000.0

    def test_overflow_bucket_reports_max(self):
        registry, instruments = _registry()
        instruments.latency.observe(120.0, endpoint="top")  # past 30 s
        assert instruments.latency.quantile(0.99, endpoint="top") == 120.0
        # The document has no maximum: the overflow bucket reports the
        # last finite bound.
        overall = metrics_document(registry.collect())["latency"]["overall"]
        assert overall["p50_ms"] == overall["p99_ms"] == 30_000.0

    def test_snapshot_fields_in_milliseconds(self):
        overall = _overall_latency((10,))
        assert set(overall) == {
            "count", "mean_ms", "p50_ms", "p95_ms", "p99_ms",
        }
        assert overall["count"] == 1
        assert overall["mean_ms"] == pytest.approx(10.0)
        assert overall["p50_ms"] >= 10.0 * 0.75   # within one bucket

    def test_interpolated_p50_error_regression(self):
        # Regression pin for the upper-bound bias fix: on a uniform
        # 1..937 ms distribution the true median is ~469 ms.  The old
        # bucket-upper-bound rule reported 500 ms (+6.6%); within-bucket
        # interpolation must stay inside 2%.
        overall = _overall_latency(range(1, 938))
        true_median = 469.0
        p50 = overall["p50_ms"]
        assert abs(p50 - true_median) / true_median < 0.02
        # And the bias really is gone: strictly below the bucket's
        # upper bound the old rule would have returned.
        assert p50 < 500.0

    def test_bucket_pairs_cumulative_export(self):
        _, instruments = _registry()
        for seconds in (0.002, 0.004, 120.0):  # the last overflows
            instruments.latency.observe(seconds, endpoint="top")
        family = instruments.latency.collect()
        buckets = [
            sample.value
            for sample in family.samples
            if sample.suffix == "_bucket"
        ]
        assert family.samples[len(buckets) - 1].labels[-1] == ("le", "+Inf")
        assert buckets[-1] == 3
        assert buckets == sorted(buckets)
        total = {sample.suffix: sample.value for sample in family.samples}
        assert total["_sum"] == pytest.approx(120.006)
        assert total["_count"] == 3


class TestBatchSizeHistogram:
    def test_bucket_pairs_power_of_two_bounds(self):
        _, instruments = _registry()
        for size in (1, 2, 3, 2000):
            instruments.batch_sizes.observe(size)
        pairs = _cumulative(instruments.batch_sizes.collect())
        assert list(pairs) == [
            str(1 << b) for b in range(11)
        ] + ["+Inf"]
        assert pairs["1"] == 1
        assert pairs["2"] == 2
        assert pairs["4"] == 3
        assert pairs["1024"] == 3
        assert pairs["+Inf"] == 4

    def test_distribution_buckets(self):
        registry, instruments = _registry()
        for size in (1, 1, 2, 4, 7, 64):
            instruments.batch_sizes.observe(size)
        snapshot = metrics_document(registry.collect())["coalescing"]
        assert snapshot["batches"] == 6
        assert snapshot["requests"] == 79
        assert snapshot["distribution"] == {
            "1": 2, "2": 1, "3-4": 1, "5-8": 1, "33-64": 1,
        }
        assert snapshot["mean_batch_size"] == pytest.approx(79 / 6)


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=10.0, burst=2)
        assert bucket.take(now=0.0)
        assert bucket.take(now=0.0)
        assert not bucket.take(now=0.0)
        assert bucket.take(now=0.11)   # ~1 token refilled
        assert not bucket.take(now=0.11)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=3)
        for _ in range(3):
            assert bucket.take(now=0.0)
        # A long idle period refills to burst, not beyond.
        for _ in range(3):
            assert bucket.take(now=100.0)
        assert not bucket.take(now=100.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=1.0, burst=0)


class TestAdmissionController:
    def test_sheds_503_beyond_capacity(self):
        admission = AdmissionController(max_inflight=2, max_queue=1)
        decisions = [admission.try_admit("top") for _ in range(4)]
        assert [d.admitted for d in decisions] == [True, True, True, False]
        assert decisions[3].status == 503
        assert decisions[3].reason == "queue-full"
        admission.release()
        assert admission.try_admit("top").admitted

    def test_rate_limit_sheds_429_before_capacity(self):
        admission = AdmissionController(
            max_inflight=100,
            max_queue=100,
            rate_limits={"top": TokenBucket(rate=1.0, burst=1)},
        )
        assert admission.try_admit("top", now=0.0).admitted
        shed = admission.try_admit("top", now=0.0)
        assert not shed.admitted
        assert shed.status == 429
        assert shed.reason == "rate-limited"
        # Other endpoints are unaffected by the bucket.
        assert admission.try_admit("paper", now=0.0).admitted

    def test_draining_sheds_everything(self):
        admission = AdmissionController(max_inflight=8, max_queue=8)
        assert admission.try_admit("top").admitted
        admission.start_draining()
        decision = admission.try_admit("top")
        assert not decision.admitted
        assert decision.status == 503
        assert decision.reason == "draining"
        admission.release()    # admitted-before-drain work still finishes
        assert admission.active == 0

    def test_snapshot_counters(self):
        admission = AdmissionController(max_inflight=2, max_queue=0)
        admission.try_admit("top")
        admission.try_admit("top")
        admission.try_admit("top")        # shed
        snapshot = admission.snapshot()
        assert snapshot["active"] == 2
        assert snapshot["peak_active"] == 2
        assert snapshot["admitted_total"] == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(max_inflight=0)
        with pytest.raises(ConfigurationError):
            AdmissionController(max_queue=-1)


class TestGatewayMetrics:
    def test_render_document(self):
        registry, instruments = _registry()
        for endpoint, status, seconds in (
            ("top", 200, 0.002),
            ("paper", 404, 0.001),
            ("top", 429, 0.0001),
            ("top", 503, 0.0001),
        ):
            instruments.responses.inc(status=str(status))
            if status in (429, 503):
                instruments.shed.inc(status=str(status))
            instruments.latency.observe(seconds, endpoint=endpoint)
        instruments.requests.inc(endpoint="top")
        instruments.requests.inc(endpoint="paper")
        instruments.updates.inc()
        instruments.batch_sizes.observe(3)
        document = metrics_document(
            registry.collect(), {"hits": 5, "misses": 2}
        )
        assert document["requests"]["by_endpoint"] == {
            "top": 1, "paper": 1,
        }
        assert document["requests"]["started"] == 2
        assert document["responses"]["by_status"] == {
            "200": 1, "404": 1, "429": 1, "503": 1,
        }
        assert document["responses"]["shed_429"] == 1
        assert document["responses"]["shed_503"] == 1
        assert document["responses"]["errors_5xx"] == 1
        assert document["latency"]["overall"]["count"] == 4
        assert document["coalescing"]["batches"] == 1
        assert document["stream_updates"]["applied"] == 1
        assert document["result_cache"]["hits"] == 5

    def test_combined_latency_pools_endpoints(self):
        registry, instruments = _registry()
        instruments.latency.observe(0.001, endpoint="top")
        instruments.latency.observe(0.100, endpoint="paper")
        latency = metrics_document(registry.collect())["latency"]
        pooled = latency["overall"]
        assert pooled["count"] == 2
        assert pooled["mean_ms"] == pytest.approx(50.5)
        assert latency["by_endpoint"]["top"]["count"] == 1
        assert latency["by_endpoint"]["paper"]["count"] == 1
        # The median falls in the fast request's bucket, the tail in
        # the slow one's.
        assert (
            pooled["p50_ms"]
            <= _bucket_bound(0.001) * 1000.0
            < pooled["p99_ms"]
            <= _bucket_bound(0.100) * 1000.0
        )
