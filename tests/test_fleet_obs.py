"""Fleet-merge correctness properties for the deep-observability stack.

The supervisor never averages derived values — it merges *raw* state
(bucket counts, counter values, profile stack counts) and derives
quantiles/burn rates/windows from the merged state.  These hypothesis
properties pin the discipline: for arbitrary traffic splits across N
workers, the merged computation must equal a single registry that saw
the concatenated observations.  Runs derandomized under the repro-ci
profile (see conftest.py).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from obsschema import validate_metrics, validate_profile, validate_slo
from repro.gateway import RequestInstruments, metrics_document
from repro.obs.profile import merge_profile_states, render_profile
from repro.obs.registry import (
    Histogram,
    MetricsRegistry,
    families_state,
    merge_family_states,
    quantile_from_buckets,
)
from repro.obs.slo import SLOEngine
from repro.obs.tsdb import TimeSeriesStore

_BOUNDS = (0.1, 0.25, 0.5, 1.0)

_observations = st.lists(
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False,
              allow_infinity=False, width=32),
    max_size=30,
)


def _sample_map(state):
    """Family-state JSON as a ``{(name, suffix, labels): value}`` map."""
    samples = {}
    for family in state:
        for sample in family["samples"]:
            key = (
                family["name"],
                sample["suffix"],
                tuple(tuple(pair) for pair in sample["labels"]),
            )
            assert key not in samples, f"duplicate series {key}"
            samples[key] = sample["value"]
    return samples


def _bucket_counts(state, name):
    """Raw (non-cumulative) bucket counts of one histogram family."""
    buckets = []
    for family in state:
        if family["name"] != name:
            continue
        for sample in family["samples"]:
            if sample["suffix"] != "_bucket":
                continue
            le = dict(sample["labels"])["le"]
            bound = float("inf") if le == "+Inf" else float(le)
            buckets.append((bound, sample["value"]))
    buckets.sort()
    cumulative = [value for _, value in buckets]
    return [
        int(value - (cumulative[i - 1] if i else 0))
        for i, value in enumerate(cumulative)
    ]


class TestHistogramMerge:
    @settings(max_examples=50, deadline=None)
    @given(per_worker=st.lists(_observations, min_size=1, max_size=4))
    def test_merged_buckets_and_quantiles_equal_concatenation(
        self, per_worker
    ):
        states = []
        for observations in per_worker:
            registry = MetricsRegistry()
            histogram = registry.histogram(
                "unit_latency_seconds", "", bounds=_BOUNDS
            )
            for value in observations:
                histogram.observe(value)
            states.append(families_state(registry.collect()))
        merged = families_state(merge_family_states(states))

        single = MetricsRegistry()
        histogram = single.histogram(
            "unit_latency_seconds", "", bounds=_BOUNDS
        )
        everything = [v for obs in per_worker for v in obs]
        for value in everything:
            histogram.observe(value)
        expected = families_state(single.collect())

        # Bucket-count and count/sum equality up to float summation
        # order (the _sum sample is a float sum; everything else is
        # integer-exact).
        merged_map = _sample_map(merged)
        expected_map = _sample_map(expected)
        assert merged_map.keys() == expected_map.keys()
        for key, value in expected_map.items():
            if key[1] == "_sum":
                assert abs(merged_map[key] - value) < 1e-6
            else:
                assert merged_map[key] == value

        # The derived value: quantiles computed from merged buckets
        # equal quantiles computed from the concatenated registry's
        # buckets — because the raw counts are identical.
        merged_counts = _bucket_counts(merged, "unit_latency_seconds")
        expected_counts = _bucket_counts(
            expected, "unit_latency_seconds"
        )
        assert merged_counts == expected_counts
        total = sum(merged_counts)
        for q in (0.5, 0.95, 0.99):
            assert quantile_from_buckets(
                _BOUNDS, merged_counts, total, _BOUNDS[-1], q
            ) == quantile_from_buckets(
                _BOUNDS, expected_counts, total, _BOUNDS[-1], q
            )

    @settings(max_examples=50, deadline=None)
    @given(
        per_worker=st.lists(
            st.lists(st.integers(0, 50), min_size=2, max_size=2),
            min_size=1,
            max_size=4,
        )
    )
    def test_merged_counters_are_exact_sums(self, per_worker):
        states = []
        for good, bad in per_worker:
            registry = MetricsRegistry()
            counter = registry.counter(
                "unit_responses_total", "", ("status",)
            )
            counter.inc(good, status="200")
            counter.inc(bad, status="500")
            states.append(families_state(registry.collect()))
        merged = _sample_map(
            families_state(merge_family_states(states))
        )
        key_200 = ("unit_responses_total", "", (("status", "200"),))
        key_500 = ("unit_responses_total", "", (("status", "500"),))
        assert merged[key_200] == sum(g for g, _ in per_worker)
        assert merged[key_500] == sum(b for _, b in per_worker)


_request = st.tuples(
    st.integers(0, 3),  # worker, modulo the fleet size
    st.sampled_from(("top", "paper", "compare", "metrics")),
    st.sampled_from((200, 400, 404, 429, 500, 503)),
    st.one_of(  # latency in seconds, some past the last bound (30 s)
        st.floats(min_value=0.0, max_value=2.0, width=32),
        st.floats(min_value=29.0, max_value=120.0, width=32),
    ),
)


def _batch_label(size: int) -> str:
    """A batch size's distribution label, by the power-of-two rule."""
    bucket = 0 if size <= 1 else min((size - 1).bit_length(), 11)
    if bucket == 11:
        return ">1024"
    low, high = (1 << (bucket - 1)) + 1 if bucket else 1, 1 << bucket
    return str(high) if low == high else f"{low}-{high}"


def _pop_means(document):
    """Remove and return every ``mean_ms`` (float sums: order varies)."""
    latency = document["latency"]
    summaries = {"": latency["overall"], **latency["by_endpoint"]}
    return {key: summary.pop("mean_ms") for key, summary in summaries.items()}


class TestFleetMetricsDocument:
    @settings(max_examples=50, deadline=None)
    @given(
        workers=st.integers(1, 4),
        requests=st.lists(_request, max_size=60),
        batches=st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 2000)), max_size=20
        ),
        updates=st.lists(st.integers(0, 3), max_size=5),
    )
    def test_fleet_document_equals_single_registry(
        self, workers, requests, batches, updates
    ):
        registries = [MetricsRegistry() for _ in range(workers)]
        fleet = [RequestInstruments.register(r) for r in registries]
        single_registry = MetricsRegistry()
        single = RequestInstruments.register(single_registry)
        for worker, endpoint, status, seconds in requests:
            for instruments in (fleet[worker % workers], single):
                instruments.requests.inc(endpoint=endpoint)
                instruments.responses.inc(status=str(status))
                if status in (429, 503):
                    instruments.shed.inc(status=str(status))
                instruments.latency.observe(seconds, endpoint=endpoint)
        for worker, size in batches:
            for instruments in (fleet[worker % workers], single):
                instruments.batch_sizes.observe(size)
        for worker in updates:
            for instruments in (fleet[worker % workers], single):
                instruments.updates.inc()

        # What the supervisor does: merge the JSON wire states.
        states = [
            json.loads(json.dumps(families_state(registry.collect())))
            for registry in registries
        ]
        merged = metrics_document(merge_family_states(states))
        expected = metrics_document(single_registry.collect())
        validate_metrics(merged)
        validate_metrics(expected)
        merged_means, expected_means = _pop_means(merged), _pop_means(
            expected
        )
        assert merged == expected  # counts, quantiles, distribution
        assert merged_means.keys() == expected_means.keys()
        for key, mean in expected_means.items():
            assert merged_means[key] == pytest.approx(mean, rel=1e-9)

        # Independent tallies of what was recorded.
        endpoints = Counter(endpoint for _, endpoint, _, _ in requests)
        statuses = Counter(str(status) for _, _, status, _ in requests)
        assert merged["requests"]["by_endpoint"] == dict(endpoints)
        assert merged["responses"]["by_status"] == dict(statuses)
        assert merged["responses"]["shed_429"] == statuses["429"]
        assert merged["responses"]["shed_503"] == statuses["503"]
        assert merged["responses"]["errors_5xx"] == (
            statuses["500"] + statuses["503"]
        )
        assert merged["latency"]["overall"]["count"] == len(requests)
        assert {
            endpoint: summary["count"]
            for endpoint, summary in merged["latency"]["by_endpoint"].items()
        } == dict(endpoints)
        assert merged["coalescing"]["batches"] == len(batches)
        assert merged["coalescing"]["requests"] == sum(s for _, s in batches)
        assert merged["coalescing"]["distribution"] == dict(
            Counter(_batch_label(size) for _, size in batches)
        )
        assert merged["stream_updates"]["applied"] == len(updates)

        # Each quantile lies in the bucket of the nearest-rank quantile
        # of the raw latencies (the overflow bucket reports 30 s).
        latencies = sorted(seconds for *_, seconds in requests)
        bounds = Histogram.DEFAULT_BOUNDS
        for name, q in (("p50_ms", 0.5), ("p95_ms", 0.95), ("p99_ms", 0.99)):
            if not latencies:
                break
            true = latencies[math.ceil(q * len(latencies)) - 1]
            position = bisect_left(bounds, true)
            lower = bounds[position - 1] if position else 0.0
            upper = bounds[min(position, len(bounds) - 1)]
            reported = merged["latency"]["overall"][name] / 1000.0
            assert lower * (1 - 1e-12) <= reported <= upper * (1 + 1e-12)


class TestSLOFleetEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        per_worker=st.lists(
            st.tuples(
                st.integers(0, 20),  # good responses
                st.integers(0, 20),  # 5xx responses
                st.integers(0, 20),  # fast (0.05s) query latencies
                st.integers(0, 20),  # slow (1.0s) query latencies
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_fleet_burn_rates_equal_single_registry(self, per_worker):
        def make_registry():
            registry = MetricsRegistry()
            responses = registry.counter(
                "repro_gateway_responses_total",
                "",
                ("endpoint", "status"),
            )
            latency = registry.histogram(
                "repro_gateway_request_latency_seconds",
                "",
                ("endpoint",),
                bounds=_BOUNDS,
            )
            return registry, responses, latency

        workers = [make_registry() for _ in per_worker]
        single_registry, single_responses, single_latency = (
            make_registry()
        )

        def drive(responses, latency, good, bad, fast, slow):
            responses.inc(good, endpoint="top", status="200")
            responses.inc(bad, endpoint="top", status="500")
            for _ in range(fast):
                latency.observe(0.05, endpoint="top")
            for _ in range(slow):
                latency.observe(1.0, endpoint="top")

        def fleet_families():
            return merge_family_states(
                [
                    families_state(registry.collect())
                    for registry, _, _ in workers
                ]
            )

        fleet_store = TimeSeriesStore(fleet_families, interval=0.0)
        single_store = TimeSeriesStore(
            single_registry.collect, interval=0.0
        )
        fleet_store.scrape_once(now=0.0)
        single_store.scrape_once(now=0.0)
        for (_, responses, latency), counts in zip(workers, per_worker):
            drive(responses, latency, *counts)
            drive(single_responses, single_latency, *counts)
        fleet_store.scrape_once(now=60.0)
        single_store.scrape_once(now=60.0)

        fleet = SLOEngine(fleet_store).evaluate(now=60.0)
        single = SLOEngine(single_store).evaluate(now=60.0)
        validate_slo(fleet)
        # Same traffic, same windows: identical documents — burn
        # rates, compliance, and alert states all derive from the
        # integer-exact merged counters.
        assert fleet == single


class TestTSDBWindows:
    @settings(max_examples=50, deadline=None)
    @given(
        deltas=st.lists(
            st.floats(min_value=0.125, max_value=100.0,
                      allow_nan=False, width=32),
            min_size=1,
            max_size=20,
        ),
        window=st.floats(min_value=0.5, max_value=500.0,
                         allow_nan=False, width=32),
    )
    def test_window_selects_oldest_point_at_or_after_anchor(
        self, deltas, window
    ):
        registry = MetricsRegistry()
        counter = registry.counter("unit_ticks_total", "")
        store = TimeSeriesStore(registry.collect, interval=0.0)
        timestamps = []
        now = 0.0
        for delta in deltas:
            now += delta
            counter.inc()
            timestamps.append(store.scrape_once(now=now))
        assert timestamps == sorted(timestamps)
        pair = store.window(window, now=timestamps[-1])
        assert pair is not None
        old, new = pair
        assert new["ts"] == timestamps[-1]
        anchor = timestamps[-1] - window
        inside = [ts for ts in timestamps if ts >= anchor]
        assert old["ts"] == (inside[0] if inside else timestamps[-1])


class TestProfileMerge:
    _stacks = st.lists(
        st.tuples(
            st.sampled_from(["top", "paper", "compare", "idle"]),
            st.lists(st.sampled_from(["a (m.py:1)", "b (m.py:2)",
                                      "c (m.py:3)"]), max_size=3),
            st.integers(1, 5),
        ),
        max_size=12,
    )

    @settings(max_examples=50, deadline=None)
    @given(per_worker=st.lists(_stacks, min_size=1, max_size=4))
    def test_merge_equals_direct_totals(self, per_worker):
        def fold(entries):
            totals = {}
            for phase, frames, count in entries:
                key = (phase, tuple(frames))
                totals[key] = totals.get(key, 0) + count
            return totals

        states = []
        for entries in per_worker:
            totals = fold(entries)
            states.append(
                {
                    "running": False,
                    "hz": 67.0,
                    "samples_total": sum(totals.values()),
                    "dropped_stacks": 0,
                    "started_unix": 100.0,
                    "stacks": [
                        {"phase": phase, "frames": list(frames),
                         "count": count}
                        for (phase, frames), count in totals.items()
                    ],
                    "samples_by_request": {},
                }
            )
        merged = merge_profile_states(states)
        expected = fold(
            entry for entries in per_worker for entry in entries
        )
        assert {
            (s["phase"], tuple(s["frames"])): s["count"]
            for s in merged["stacks"]
        } == expected
        assert merged["samples_total"] == sum(expected.values())
        document = render_profile(merged, top=5)
        validate_profile(document)
