"""Unit tests for repro.obs: registry, logging, tracing, expfmt."""

from __future__ import annotations

import io
import json
import logging as _logging
import math
import random

import pytest

from expfmt import ExpositionError, parse_exposition
from repro.errors import ConfigurationError
from repro.obs.logging import (
    JsonLinesFormatter,
    bind_request_id,
    configure_logging,
    current_request_id,
    get_logger,
    new_request_id,
    request_id_var,
    reset_logging,
)
from repro.obs.registry import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter_family,
    cumulative_buckets,
    gauge_family,
    geometric_bounds,
    get_registry,
    quantile_from_buckets,
    render_families,
)
from repro.obs.trace import (
    TraceCollector,
    chrome_trace,
    disable_tracing,
    enable_tracing,
    get_collector,
    span,
    start_trace,
    tracing_enabled,
)


@pytest.fixture(autouse=True)
def _clean_obs_state():
    yield
    disable_tracing()
    reset_logging()


# ----------------------------------------------------------------------
# Bucket math
# ----------------------------------------------------------------------
def test_geometric_bounds_shape():
    bounds = geometric_bounds(1e-3, 1.0, per_decade=10)
    assert bounds[0] == 1e-3
    assert bounds[-1] == 1.0
    assert list(bounds) == sorted(bounds)
    # Ten buckets per decade, three decades, plus the closing bound.
    assert len(bounds) == 31
    assert bounds[1] / bounds[0] == pytest.approx(10 ** 0.1)


def test_quantile_from_buckets_empty():
    assert quantile_from_buckets((1.0, 2.0), (0, 0, 0), 0, 0.0, 0.5) == 0.0


def test_quantile_from_buckets_interpolates_within_bucket():
    # 100 observations uniform in [0, 1): all land in the single
    # [0, 1] bucket, so the interpolated median must sit near 0.5 —
    # the old upper-bound rule would report 1.0.
    bounds = (1.0, 2.0)
    counts = (100, 0, 0)
    median = quantile_from_buckets(bounds, counts, 100, 0.99, 0.5)
    assert median == pytest.approx(0.5, abs=0.01)


def test_quantile_from_buckets_overflow_reports_max():
    bounds = (1.0,)
    counts = (0, 5)  # everything beyond the last bound
    assert quantile_from_buckets(bounds, counts, 5, 7.5, 0.5) == 7.5


def test_quantile_from_buckets_clamped_to_observed_max():
    bounds = (1.0, 2.0)
    counts = (0, 3, 0)
    # Interpolation would land in (1, 2], but the slowest observation
    # was 1.2s — no quantile may exceed it.
    assert quantile_from_buckets(bounds, counts, 3, 1.2, 0.99) == 1.2


def test_cumulative_buckets_ends_at_inf():
    pairs = cumulative_buckets((0.1, 1.0), (3, 4, 2))
    assert pairs == (("0.1", 3), ("1", 7), ("+Inf", 9))


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
def test_counter_inc_and_value():
    counter = Counter("t_total", "help")
    assert counter.value() == 0.0
    counter.inc()
    counter.inc(2.5)
    assert counter.value() == 3.5


def test_counter_rejects_decrease():
    counter = Counter("t_total", "help")
    with pytest.raises(ConfigurationError):
        counter.inc(-1)


def test_counter_labels_enforced():
    counter = Counter("t_total", "help", ["kind"])
    counter.inc(kind="a")
    counter.inc(3, kind="b")
    assert counter.value(kind="a") == 1.0
    assert counter.value(kind="b") == 3.0
    with pytest.raises(ConfigurationError):
        counter.inc()  # missing label
    with pytest.raises(ConfigurationError):
        counter.inc(kind="a", extra="x")  # unknown label


def test_invalid_metric_and_label_names_rejected():
    with pytest.raises(ConfigurationError):
        Counter("0bad", "help")
    with pytest.raises(ConfigurationError):
        Counter("ok_total", "help", ["le"])  # reserved for buckets
    with pytest.raises(ConfigurationError):
        Counter("ok_total", "help", ["bad-dash"])


def test_gauge_set_inc():
    gauge = Gauge("t_gauge", "help")
    gauge.set(4)
    gauge.inc(-1.5)
    assert gauge.value() == 2.5


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ConfigurationError):
        Histogram("t_seconds", "help", bounds=())
    with pytest.raises(ConfigurationError):
        Histogram("t_seconds", "help", bounds=(2.0, 1.0))
    with pytest.raises(ConfigurationError):
        Histogram("t_seconds", "help", bounds=(1.0, 1.0))


def test_histogram_observe_quantile_snapshot():
    hist = Histogram("t_seconds", "help", bounds=(1.0, 2.0, 4.0))
    for value in (0.5, 0.6, 1.5, 3.0, 10.0):
        hist.observe(value)
    snap = hist.snapshot()
    assert snap["count"] == 5
    assert snap["sum"] == pytest.approx(15.6)
    assert snap["max"] == 10.0
    assert 0.0 < snap["p50"] <= 2.0
    assert snap["p99"] == 10.0  # overflow bucket reports max
    assert hist.quantile(0.5) == snap["p50"]


def test_histogram_empty_snapshot():
    hist = Histogram("t_seconds", "help", bounds=(1.0,))
    assert hist.snapshot() == {
        "count": 0, "sum": 0.0, "mean": 0.0,
        "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0,
    }
    assert hist.quantile(0.5) == 0.0


def test_histogram_interpolated_p50_on_default_bounds():
    # Uniform 1..937 ms: the true median is ~469 ms.  The bucket's
    # upper bound would say 500 ms (+6.6%); interpolation within the
    # bucket stays inside 2% and below that bound.
    hist = Histogram("t_seconds", "help")
    for ms in range(1, 938):
        hist.observe(ms / 1000.0)
    p50 = hist.quantile(0.5)
    assert abs(p50 - 0.469) / 0.469 < 0.02
    assert p50 < 0.5


def test_histogram_overflow_reports_max_and_caps_quantiles():
    hist = Histogram("t_seconds", "help")
    hist.observe(0.0021)
    assert hist.quantile(0.99) <= 0.0021  # capped by the slowest one
    hist.observe(120.0)  # past the last bound (30 s)
    assert hist.quantile(0.99) == 120.0
    assert all(hist.quantile(q) <= 120.0 for q in (0.1, 0.5, 0.95, 1.0))


def test_histogram_cumulative_export_ends_at_inf():
    hist = Histogram("t_seconds", "help")
    for seconds in (0.002, 0.004, 120.0):
        hist.observe(seconds)
    samples = hist.collect().samples
    buckets = [s for s in samples if s.suffix == "_bucket"]
    assert buckets[-1].labels == (("le", "+Inf"),)
    assert buckets[-1].value == 3
    assert [s.value for s in buckets] == sorted(s.value for s in buckets)
    assert len(buckets) == len(Histogram.DEFAULT_BOUNDS) + 1


def test_histogram_declare_exports_zero_buckets():
    hist = Histogram("t_size", "help", bounds=(1.0, 2.0))
    assert hist.collect().samples == ()
    hist.declare()
    assert [s.value for s in hist.collect().samples] == [0.0] * 5
    assert hist.snapshot()["count"] == 0


def test_repeated_label_names_rejected():
    # A keyword cannot repeat, so such an instrument could never record.
    for cls in (Counter, Gauge, Histogram):
        with pytest.raises(ConfigurationError, match="repeated"):
            cls("t_total", "help", ["shard", "shard"])


def test_histogram_labelled_series_isolated():
    hist = Histogram("t_seconds", "help", ["shard"], bounds=(1.0, 2.0))
    hist.observe(0.5, shard="0")
    hist.observe(1.5, shard="1")
    assert hist.snapshot(shard="0")["count"] == 1
    assert hist.snapshot(shard="1")["count"] == 1
    assert hist.snapshot(shard="0")["max"] == 0.5


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_get_or_create_returns_same_object():
    registry = MetricsRegistry()
    first = registry.counter("a_total", "help")
    second = registry.counter("a_total", "other help ignored")
    assert first is second


def test_registry_conflicting_kind_raises():
    registry = MetricsRegistry()
    registry.counter("a_total", "help")
    with pytest.raises(ConfigurationError):
        registry.gauge("a_total", "help")


def test_registry_conflicting_labels_raise():
    registry = MetricsRegistry()
    registry.counter("a_total", "help", ["x"])
    with pytest.raises(ConfigurationError):
        registry.counter("a_total", "help", ["y"])


def test_registry_reset_keeps_handles_live():
    registry = MetricsRegistry()
    counter = registry.counter("a_total", "help")
    counter.inc(5)
    registry.reset()
    assert counter.value() == 0.0
    counter.inc()  # the same handle keeps recording
    assert registry.counter("a_total", "help").value() == 1.0


def test_registry_collectors_contribute_families():
    registry = MetricsRegistry()
    registry.register_collector(
        lambda: [gauge_family("extra_gauge", "help", 7)]
    )
    names = {family.name for family in registry.collect()}
    assert "extra_gauge" in names


def test_registry_render_json_document():
    registry = MetricsRegistry()
    registry.counter("a_total", "help", ["kind"]).inc(2, kind="x")
    document = registry.render_json()
    assert document["a_total"]["kind"] == "counter"
    samples = document["a_total"]["samples"]
    assert samples == [{"suffix": "", "labels": {"kind": "x"}, "value": 2.0}]


def test_global_registry_identity():
    assert get_registry() is REGISTRY


# ----------------------------------------------------------------------
# Exposition rendering — validated by the strict parser
# ----------------------------------------------------------------------
def test_render_prometheus_parses_strictly():
    registry = MetricsRegistry()
    registry.counter("req_total", "Requests.", ["endpoint"]).inc(
        3, endpoint="query"
    )
    registry.gauge("active", "In flight.").set(2)
    hist = registry.histogram(
        "latency_seconds", "Latency.", bounds=(0.1, 1.0)
    )
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(5.0)
    families = parse_exposition(registry.render_prometheus())
    assert families["req_total"].kind == "counter"
    assert families["req_total"].values()[(("endpoint", "query"),)] == 3.0
    assert families["active"].values()[()] == 2.0
    latency = families["latency_seconds"]
    assert latency.kind == "histogram"
    assert latency.values("_count")[()] == 3.0
    buckets = latency.values("_bucket")
    assert buckets[(("le", "+Inf"),)] == 3.0
    assert buckets[(("le", "0.1"),)] == 1.0


def test_render_families_escapes_labels_and_help():
    family = counter_family(
        'a_total', 'help with "quotes"\nand newline',
        {(("k", 'v"\n\\'),): 1.0},
    )
    text = render_families([family])
    assert '\\"' in text
    assert "\\n" in text
    parsed = parse_exposition(text)
    assert parsed["a_total"].values()[(("k", 'v"\n\\'),)] == 1.0


def test_render_families_sorted_and_terminated():
    text = render_families(
        [gauge_family("b_gauge", "h", 1), gauge_family("a_gauge", "h", 2)]
    )
    assert text.index("a_gauge") < text.index("b_gauge")
    assert text.endswith("\n")
    assert render_families([]) == ""


def test_expfmt_rejects_malformed_input():
    with pytest.raises(ExpositionError):
        parse_exposition("not a metric line\n")
    with pytest.raises(ExpositionError):
        parse_exposition("# TYPE m bogus_kind\n")
    with pytest.raises(ExpositionError):
        # Sample before any TYPE declaration.
        parse_exposition("orphan_total 1\n")
    with pytest.raises(ExpositionError):
        # Histogram bucket series must end at +Inf.
        parse_exposition(
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 1\n'
            "h_sum 1\n"
            "h_count 1\n"
        )
    with pytest.raises(ExpositionError):
        # +Inf bucket must equal _count.
        parse_exposition(
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 1\n'
            'h_bucket{le="+Inf"} 2\n'
            "h_sum 1\n"
            "h_count 3\n"
        )


# ----------------------------------------------------------------------
# Logging
# ----------------------------------------------------------------------
def test_new_request_id_format():
    rid = new_request_id()
    assert len(rid) == 16
    int(rid, 16)  # hex


def test_bind_request_id_nested_and_restored():
    assert current_request_id() is None
    with bind_request_id("outer"):
        assert current_request_id() == "outer"
        with bind_request_id("inner"):
            assert current_request_id() == "inner"
        assert current_request_id() == "outer"
    assert current_request_id() is None


def test_configure_logging_emits_json_lines():
    sink = io.StringIO()
    configure_logging("INFO", json=True, stream=sink)
    logger = get_logger("testmod")
    with bind_request_id("rid-1"):
        logger.info("hello", extra={"endpoint": "query", "ms": 1.5})
    line = sink.getvalue().strip()
    entry = json.loads(line)
    assert entry["level"] == "INFO"
    assert entry["logger"] == "repro.testmod"
    assert entry["message"] == "hello"
    assert entry["request_id"] == "rid-1"
    assert entry["endpoint"] == "query"
    assert entry["ms"] == 1.5
    assert entry["ts"].endswith("+00:00")


def test_configure_logging_omits_unbound_request_id():
    sink = io.StringIO()
    configure_logging("INFO", json=True, stream=sink)
    get_logger("testmod").info("plain")
    entry = json.loads(sink.getvalue().strip())
    assert "request_id" not in entry


def test_configure_logging_idempotent_handler():
    sink = io.StringIO()
    configure_logging("INFO", json=True, stream=sink)
    configure_logging("INFO", json=True, stream=sink)
    get_logger("testmod").info("once")
    assert len(sink.getvalue().strip().splitlines()) == 1


def test_configure_logging_text_format():
    sink = io.StringIO()
    configure_logging("INFO", json=False, stream=sink)
    with bind_request_id("rid-2"):
        get_logger("testmod").info("hello", extra={"k": "v"})
    line = sink.getvalue()
    assert "repro.testmod" in line
    assert "request_id=rid-2" in line
    assert "k=v" in line


def test_configure_logging_level_from_env(monkeypatch):
    sink = io.StringIO()
    monkeypatch.setenv("REPRO_LOG_LEVEL", "WARNING")
    configure_logging(stream=sink)
    get_logger("testmod").info("dropped")
    get_logger("testmod").warning("kept")
    lines = sink.getvalue().strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["message"] == "kept"


def test_configure_logging_unknown_level():
    with pytest.raises(ConfigurationError):
        configure_logging("NOT_A_LEVEL", stream=io.StringIO())


def test_json_formatter_exception_and_unserialisable_extra():
    formatter = JsonLinesFormatter()
    try:
        raise ValueError("boom")
    except ValueError:
        import sys

        record = _logging.LogRecord(
            "repro.t", _logging.ERROR, __file__, 1, "failed",
            None, sys.exc_info(),
        )
    record.payload = object()  # not JSON-serialisable
    entry = json.loads(formatter.format(record))
    assert "ValueError: boom" in entry["exc"]
    assert entry["payload"].startswith("<object object")


def test_reset_logging_restores_propagation():
    configure_logging("INFO", stream=io.StringIO())
    logger = _logging.getLogger("repro")
    assert logger.propagate is False
    reset_logging()
    assert logger.propagate is True
    assert not [
        h for h in logger.handlers
        if getattr(h, "_repro_obs_handler", False)
    ]


def test_logging_capture_flags_toggled_and_restored():
    """The stdlib optimization knobs apply only while configured."""
    assert _logging.logThreads is True
    configure_logging("INFO", stream=io.StringIO())
    assert _logging.logThreads is False
    assert _logging.logProcesses is False
    assert _logging.logMultiprocessing is False
    assert _logging._srcfile is None
    reset_logging()
    assert _logging.logThreads is True
    assert _logging.logProcesses is True
    assert _logging.logMultiprocessing is True
    assert _logging._srcfile is not None


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def test_span_is_noop_outside_trace():
    with span("orphan") as sp:
        assert sp is None


def test_start_trace_is_noop_without_collector():
    assert not tracing_enabled()
    with start_trace("gateway.request") as root:
        assert root is None


def test_trace_tree_records_nested_spans():
    collector = enable_tracing()
    assert tracing_enabled()
    assert get_collector() is collector
    with start_trace("gateway.request", request_id="rid-3", endpoint="q") as root:
        root.set(status=200)
        with span("engine.execute", queries=2) as sp:
            sp.set(version=7)
            with span("engine.shard", shard=0):
                pass
    traces = collector.recent()
    assert len(traces) == 1
    trace = traces[0]
    assert trace["name"] == "gateway.request"
    assert trace["request_id"] == "rid-3"
    assert trace["attrs"] == {"endpoint": "q", "status": 200}
    assert trace["start_unix"] > 0
    assert len(trace["trace_id"]) == 16
    (execute,) = trace["spans"]
    assert execute["name"] == "engine.execute"
    assert execute["attrs"] == {"queries": 2, "version": 7}
    (shard,) = execute["spans"]
    assert shard["name"] == "engine.shard"
    assert shard["start_ms"] >= execute["start_ms"]
    assert trace["duration_ms"] >= execute["duration_ms"]


def test_collector_ring_buffer_and_totals():
    collector = enable_tracing(capacity=2)
    for index in range(3):
        with start_trace(f"t{index}"):
            pass
    assert collector.recorded_total == 3
    names = [trace["name"] for trace in collector.recent()]
    assert names == ["t2", "t1"]  # newest first, oldest evicted
    assert [t["name"] for t in collector.recent(limit=1)] == ["t2"]
    collector.clear()
    assert collector.recent() == []
    assert collector.recorded_total == 3


def test_collector_capacity_validated():
    with pytest.raises(ConfigurationError):
        TraceCollector(capacity=0)


def test_collector_sample_validated():
    for bad in (-0.1, 1.1):
        with pytest.raises(ConfigurationError):
            TraceCollector(sample=bad)


def test_sampling_zero_records_nothing():
    collector = enable_tracing(sample=0.0)
    for _ in range(20):
        with start_trace("t") as root:
            assert root is None  # unsampled → the shared no-op
    assert collector.recorded_total == 0
    assert collector.recent() == []


def test_sampling_one_records_everything():
    collector = enable_tracing(sample=1.0)
    for _ in range(20):
        with start_trace("t"):
            pass
    assert collector.recorded_total == 20


def test_sampling_fraction_records_a_subset():
    collector = enable_tracing(sample=0.5)
    assert collector.sample == 0.5
    random.seed(1234)  # the sampler draws from the module-level rng
    for _ in range(400):
        with start_trace("t"):
            pass
    # Binomial(400, 0.5): the window below is ~10 sigma wide.
    assert 100 < collector.recorded_total < 300
    # Sampled-out requests keep spans on the no-op path entirely.
    for trace in collector.recent():
        assert trace["name"] == "t"


def test_disable_tracing_restores_noop():
    enable_tracing()
    disable_tracing()
    assert not tracing_enabled()
    assert get_collector() is None
    with start_trace("t") as root:
        assert root is None


def test_chrome_trace_conversion():
    collector = enable_tracing()
    with start_trace("gateway.request", request_id="rid-4"):
        with span("engine.execute"):
            pass
    document = chrome_trace(collector.recent())
    events = document["traceEvents"]
    assert document["displayTimeUnit"] == "ms"
    assert [event["name"] for event in events] == [
        "gateway.request", "engine.execute",
    ]
    root, child = events
    assert root["ph"] == "X"
    assert root["args"]["request_id"] == "rid-4"
    assert len(root["args"]["trace_id"]) == 16
    assert child["tid"] == root["tid"]
    # Timestamps anchor at the trace's wall-clock start, in µs.
    trace = collector.recent()[0]
    assert root["ts"] == pytest.approx(trace["start_unix"] * 1e6)
    assert child["ts"] >= root["ts"]
    assert math.isfinite(child["dur"])


def test_chrome_trace_assigns_tids_per_trace():
    collector = enable_tracing()
    with start_trace("a"):
        pass
    with start_trace("b"):
        pass
    events = chrome_trace(collector.recent())["traceEvents"]
    assert {event["tid"] for event in events} == {0, 1}
