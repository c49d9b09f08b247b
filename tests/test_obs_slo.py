"""Tests for repro.obs.slo — burn-rate objectives over the TSDB.

The engine is pure arithmetic over stored points, so every test
injects its own timestamps and drives a private registry: no gateway,
no sleeping, exact expected burn rates.
"""

from __future__ import annotations

import pytest

from obsschema import validate_slo
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import (
    DEFAULT_BURN_RULES,
    DEFAULT_SLOS,
    SLO,
    SLOEngine,
    format_window,
    parse_slo,
)
from repro.obs.tsdb import TimeSeriesStore


def _fixture():
    """(responses counter, latency histogram, store, engine)."""
    registry = MetricsRegistry()
    responses = registry.counter(
        "repro_gateway_responses_total", "", ("endpoint", "status")
    )
    latency = registry.histogram(
        "repro_gateway_request_latency_seconds",
        "",
        ("endpoint",),
        bounds=(0.1, 0.25, 0.5),
    )
    store = TimeSeriesStore(registry.collect, interval=0.0)
    return responses, latency, store, SLOEngine(store)


class TestSpecParsing:
    def test_availability_spec(self):
        slo = parse_slo("availability:99.9")
        assert slo.kind == "availability"
        assert slo.objective == pytest.approx(0.999)
        assert slo.budget == pytest.approx(0.001)

    def test_latency_spec_in_seconds_and_ms(self):
        seconds = parse_slo("latency:99:0.25")
        millis = parse_slo("latency:99:250ms")
        assert seconds.threshold == millis.threshold == 0.25
        assert seconds.objective == millis.objective == 0.99

    @pytest.mark.parametrize(
        "spec",
        [
            "availability",
            "availability:0",
            "availability:100",
            "availability:banana",
            "latency:99",
            "latency:99:fast",
            "throughput:99",
        ],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ConfigurationError):
            parse_slo(spec)

    @pytest.mark.parametrize(
        "threshold, accepted",
        [("nan", False), ("inf", False), ("60", False), ("-1", False),
         ("30", True)],
    )
    def test_latency_threshold_must_be_checkable(self, threshold, accepted):
        # Good requests are counted at the first latency bucket bound at
        # or above the threshold; past the last finite bound (30 s) no
        # bound qualifies, every request would count as bad, and the
        # objective would page forever on healthy traffic.
        spec = f"latency:99:{threshold}"
        if accepted:
            assert parse_slo(spec).threshold == float(threshold)
        else:
            with pytest.raises(ConfigurationError, match="threshold"):
                parse_slo(spec)

    def test_slo_validation(self):
        with pytest.raises(ConfigurationError, match="kind"):
            SLO(name="x", kind="throughput", objective=0.9)
        with pytest.raises(ConfigurationError, match="objective"):
            SLO(name="x", kind="availability", objective=1.0)
        with pytest.raises(ConfigurationError, match="threshold"):
            SLO(name="x", kind="latency", objective=0.9)

    def test_format_window(self):
        assert format_window(300) == "5m"
        assert format_window(3600) == "1h"
        assert format_window(21600) == "6h"
        assert format_window(259200) == "3d"
        assert format_window(90) == "90s"


class TestEvaluation:
    def test_no_traffic_is_fully_compliant(self):
        _, _, store, engine = _fixture()
        store.scrape_once(now=0.0)
        document = engine.evaluate(now=0.0)
        validate_slo(document)
        assert document["windows"] == ["5m", "30m", "1h", "6h", "3d"]
        assert document["firing"] is False
        for objective in document["objectives"]:
            assert objective["compliance"] == 1.0
            assert objective["budget_consumed"] == 0.0
            assert set(objective["burn_rates"].values()) == {0.0}

    def test_active_errors_burn_exactly(self):
        responses, latency, store, engine = _fixture()
        store.scrape_once(now=0.0)  # baseline point: all zeros
        responses.inc(90, endpoint="top", status="200")
        responses.inc(10, endpoint="top", status="500")
        for _ in range(90):
            latency.observe(0.05, endpoint="top")
        for _ in range(10):
            latency.observe(1.0, endpoint="top")
        # Scrape-time traffic on a non-query endpoint must not count.
        for _ in range(20):
            latency.observe(5.0, endpoint="metrics")
        store.scrape_once(now=100.0)
        document = engine.evaluate(now=100.0)
        validate_slo(document)
        availability, latency_slo = document["objectives"]

        # 10% errors against a 0.1% budget: burn 100 on every window
        # (both stored points bracket all of them), so every rule
        # (14.4, 6.0, 1.0) fires on both its windows.
        assert availability["name"] == "availability"
        assert availability["total"] == 100.0
        assert availability["good"] == 90.0
        assert availability["compliance"] == pytest.approx(0.9)
        assert availability["budget_consumed"] == 1.0
        for burn in availability["burn_rates"].values():
            assert burn == pytest.approx(100.0)
        assert [a["firing"] for a in availability["alerts"]] == [
            True, True, True,
        ]

        # Latency: 10% of query requests above 250ms against a 1%
        # budget is burn 10 — page@14.4 stays quiet, page@6.0 and
        # ticket@1.0 fire.  "Good" is the exact cumulative count at
        # the 0.25 bucket bound; the metrics-endpoint observations
        # are excluded from both good and total.
        assert latency_slo["kind"] == "latency"
        assert latency_slo["threshold_seconds"] == 0.25
        assert latency_slo["total"] == 100.0
        assert latency_slo["good"] == 90.0
        for burn in latency_slo["burn_rates"].values():
            assert burn == pytest.approx(10.0)
        assert [a["firing"] for a in latency_slo["alerts"]] == [
            False, True, True,
        ]
        assert document["firing"] is True

    def test_stale_errors_do_not_page(self):
        responses, _, store, engine = _fixture()
        store.scrape_once(now=0.0)
        responses.inc(100, endpoint="top", status="500")
        store.scrape_once(now=50.0)
        # Seven hours of silence later: every window up to 6h starts
        # after the incident, so only the 3d window still sees it —
        # and no rule pairs 3d with a short window that agrees.
        store.scrape_once(now=25050.0)
        document = engine.evaluate(now=25050.0)
        validate_slo(document)
        availability = document["objectives"][0]
        assert availability["compliance"] == 0.0  # lifetime truth
        assert availability["burn_rates"]["6h"] == 0.0
        assert availability["burn_rates"]["3d"] == pytest.approx(1000.0)
        assert availability["firing"] is False
        assert document["firing"] is False

    def test_scrape_true_appends_the_point_it_evaluates(self):
        responses, _, store, engine = _fixture()
        responses.inc(5, endpoint="top", status="200")
        assert store.scrapes_total == 0
        document = engine.evaluate(scrape=True, now=10.0)
        assert store.scrapes_total == 1
        validate_slo(document)
        assert document["objectives"][0]["total"] == 5.0

    def test_custom_objectives_from_cli_specs(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_gateway_responses_total", "", ("endpoint", "status")
        ).inc(7, endpoint="top", status="200")
        store = TimeSeriesStore(registry.collect, interval=0.0)
        engine = SLOEngine(
            store, slos=(parse_slo("availability:99"),)
        )
        document = engine.evaluate(scrape=True, now=0.0)
        validate_slo(document)
        assert [o["name"] for o in document["objectives"]] == [
            "availability-99"
        ]
        assert document["objectives"][0]["error_budget"] == (
            pytest.approx(0.01)
        )

    def test_engine_requires_objectives_and_defaults_are_sane(self):
        _, _, store, _ = _fixture()
        with pytest.raises(ConfigurationError, match="at least one"):
            SLOEngine(store, slos=())
        assert [s.name for s in DEFAULT_SLOS] == [
            "availability", "latency-p99-250ms",
        ]
        assert [r.severity for r in DEFAULT_BURN_RULES] == [
            "page", "page", "ticket",
        ]
