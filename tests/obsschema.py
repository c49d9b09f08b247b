"""Strict validators for the deep-observability JSON documents.

Test helper in the spirit of ``expfmt.py``: the gateway tests and the
CI obs-deep smoke job feed live ``/v1/metrics``, ``/v1/profile``,
``/v1/slo``, and ``/v1/metrics/history`` responses through these, and
any malformed
field, broken invariant, or type drift raises :class:`ObsSchemaError`
naming the offending path.  Strictness is the point — a 200 with JSON
in it is not a schema.
"""

from __future__ import annotations

import math
from typing import Any, Mapping


class ObsSchemaError(ValueError):
    """The document violates the declared schema."""


def _fail(path: str, message: str) -> None:
    raise ObsSchemaError(f"{path}: {message}")


def _want(
    document: Mapping[str, Any], path: str, key: str, kinds: tuple
) -> Any:
    if key not in document:
        _fail(f"{path}.{key}", "missing")
    value = document[key]
    if not isinstance(value, kinds) or (
        # bool is an int subclass; reject it unless bool was asked for.
        isinstance(value, bool)
        and bool not in kinds
    ):
        _fail(
            f"{path}.{key}",
            f"expected {'/'.join(k.__name__ for k in kinds)}, "
            f"got {type(value).__name__}",
        )
    return value


def _finite(value: float, path: str) -> float:
    if not math.isfinite(value):
        _fail(path, f"not finite: {value!r}")
    return float(value)


# ----------------------------------------------------------------------
# /v1/profile (format=json)
# ----------------------------------------------------------------------
def validate_profile(document: Mapping[str, Any]) -> None:
    """Validate a ``/v1/profile`` JSON rendering (single or fleet)."""
    path = "profile"
    enabled = _want(document, path, "enabled", (bool,))
    if not enabled:
        return  # the disabled document only promises "enabled": false
    _want(document, path, "running", (bool,))
    hz = _finite(_want(document, path, "hz", (int, float)), f"{path}.hz")
    if hz <= 0:
        _fail(f"{path}.hz", f"must be > 0, got {hz}")
    samples_total = _want(document, path, "samples_total", (int,))
    dropped = _want(document, path, "dropped_stacks", (int,))
    if samples_total < 0 or dropped < 0:
        _fail(f"{path}.samples_total", "negative count")
    by_phase = _want(document, path, "by_phase", (dict,))
    phase_sum = 0
    for phase, count in by_phase.items():
        if not isinstance(phase, str) or not phase:
            _fail(f"{path}.by_phase", f"bad phase key {phase!r}")
        if not isinstance(count, int) or count < 0:
            _fail(f"{path}.by_phase.{phase}", f"bad count {count!r}")
        phase_sum += count
    if phase_sum + dropped != samples_total:
        _fail(
            f"{path}.by_phase",
            f"phases sum to {phase_sum} + {dropped} dropped, "
            f"samples_total says {samples_total}",
        )
    stacks = _want(document, path, "stacks", (list,))
    for i, stack in enumerate(stacks):
        spath = f"{path}.stacks[{i}]"
        if not isinstance(stack, dict):
            _fail(spath, "not an object")
        phase = _want(stack, spath, "phase", (str,))
        if phase not in by_phase:
            _fail(spath, f"phase {phase!r} missing from by_phase")
        frames = _want(stack, spath, "frames", (list,))
        for frame in frames:
            if not isinstance(frame, str) or not frame:
                _fail(f"{spath}.frames", f"bad frame {frame!r}")
        count = _want(stack, spath, "count", (int,))
        if count < 1:
            _fail(f"{spath}.count", f"must be >= 1, got {count}")
    _want(document, path, "truncated", (bool,))
    hot = _want(document, path, "hot_requests", (list,))
    for i, entry in enumerate(hot):
        hpath = f"{path}.hot_requests[{i}]"
        if not isinstance(entry, dict):
            _fail(hpath, "not an object")
        _want(entry, hpath, "request_id", (str,))
        samples = _want(entry, hpath, "samples", (int,))
        if samples < 1:
            _fail(f"{hpath}.samples", f"must be >= 1, got {samples}")


def validate_collapsed(text: str) -> int:
    """Validate folded-stack text; returns the number of stack lines."""
    lines = [line for line in text.splitlines() if line]
    for line in lines:
        folded, _, count = line.rpartition(" ")
        if not folded:
            _fail("collapsed", f"no frames in line {line!r}")
        if not count.isdigit() or int(count) < 1:
            _fail("collapsed", f"bad count in line {line!r}")
    return len(lines)


# ----------------------------------------------------------------------
# /v1/slo
# ----------------------------------------------------------------------
def validate_slo(document: Mapping[str, Any]) -> None:
    """Validate a ``/v1/slo`` document (single-process or fleet)."""
    path = "slo"
    _finite(
        _want(document, path, "evaluated_unix", (int, float)),
        f"{path}.evaluated_unix",
    )
    windows = _want(document, path, "windows", (list,))
    if not windows or not all(
        isinstance(w, str) and w for w in windows
    ):
        _fail(f"{path}.windows", f"bad window labels {windows!r}")
    objectives = _want(document, path, "objectives", (list,))
    if not objectives:
        _fail(f"{path}.objectives", "empty")
    any_firing = False
    for i, objective in enumerate(objectives):
        opath = f"{path}.objectives[{i}]"
        if not isinstance(objective, dict):
            _fail(opath, "not an object")
        _want(objective, opath, "name", (str,))
        kind = _want(objective, opath, "kind", (str,))
        if kind not in ("availability", "latency"):
            _fail(f"{opath}.kind", f"unknown kind {kind!r}")
        target = _finite(
            _want(objective, opath, "objective", (int, float)),
            f"{opath}.objective",
        )
        if not 0.0 < target < 1.0:
            _fail(f"{opath}.objective", f"outside (0, 1): {target}")
        budget = _finite(
            _want(objective, opath, "error_budget", (int, float)),
            f"{opath}.error_budget",
        )
        if abs(budget - (1.0 - target)) > 1e-9:
            _fail(f"{opath}.error_budget", "!= 1 - objective")
        if kind == "latency":
            threshold = _finite(
                _want(
                    objective, opath, "threshold_seconds", (int, float)
                ),
                f"{opath}.threshold_seconds",
            )
            if threshold <= 0:
                _fail(f"{opath}.threshold_seconds", "must be > 0")
        total = _finite(
            _want(objective, opath, "total", (int, float)),
            f"{opath}.total",
        )
        good = _finite(
            _want(objective, opath, "good", (int, float)),
            f"{opath}.good",
        )
        if good < 0 or total < 0 or good > total:
            _fail(opath, f"bad good/total pair {good}/{total}")
        compliance = _finite(
            _want(objective, opath, "compliance", (int, float)),
            f"{opath}.compliance",
        )
        if not 0.0 <= compliance <= 1.0:
            _fail(f"{opath}.compliance", f"outside [0, 1]: {compliance}")
        if total:
            if abs(compliance - good / total) > 1e-9:
                _fail(f"{opath}.compliance", "!= good / total")
        elif compliance != 1.0:
            _fail(f"{opath}.compliance", "no traffic must read 1.0")
        consumed = _finite(
            _want(objective, opath, "budget_consumed", (int, float)),
            f"{opath}.budget_consumed",
        )
        if not 0.0 <= consumed <= 1.0:
            _fail(
                f"{opath}.budget_consumed", f"outside [0, 1]: {consumed}"
            )
        burns = _want(objective, opath, "burn_rates", (dict,))
        if sorted(burns) != sorted(windows):
            _fail(
                f"{opath}.burn_rates",
                f"windows {sorted(burns)} != declared {sorted(windows)}",
            )
        for window, burn in burns.items():
            if (
                not isinstance(burn, (int, float))
                or isinstance(burn, bool)
                or not math.isfinite(burn)
                or burn < 0
            ):
                _fail(f"{opath}.burn_rates.{window}", f"bad burn {burn!r}")
        alerts = _want(objective, opath, "alerts", (list,))
        if not alerts:
            _fail(f"{opath}.alerts", "empty")
        alert_firing = False
        for j, alert in enumerate(alerts):
            apath = f"{opath}.alerts[{j}]"
            if not isinstance(alert, dict):
                _fail(apath, "not an object")
            severity = _want(alert, apath, "severity", (str,))
            if severity not in ("page", "ticket"):
                _fail(f"{apath}.severity", f"unknown {severity!r}")
            short = _want(alert, apath, "short_window", (str,))
            long = _want(alert, apath, "long_window", (str,))
            if short not in windows or long not in windows:
                _fail(apath, "alert windows missing from declared set")
            factor = _finite(
                _want(alert, apath, "factor", (int, float)),
                f"{apath}.factor",
            )
            short_burn = _finite(
                _want(alert, apath, "short_burn", (int, float)),
                f"{apath}.short_burn",
            )
            long_burn = _finite(
                _want(alert, apath, "long_burn", (int, float)),
                f"{apath}.long_burn",
            )
            firing = _want(alert, apath, "firing", (bool,))
            if firing != (
                short_burn >= factor and long_burn >= factor
            ):
                _fail(f"{apath}.firing", "inconsistent with burns")
            alert_firing = alert_firing or firing
        firing = _want(objective, opath, "firing", (bool,))
        if firing != alert_firing:
            _fail(f"{opath}.firing", "inconsistent with alerts")
        any_firing = any_firing or firing
    firing = _want(document, path, "firing", (bool,))
    if firing != any_firing:
        _fail(f"{path}.firing", "inconsistent with objectives")


# ----------------------------------------------------------------------
# /v1/metrics/history
# ----------------------------------------------------------------------
def validate_history(document: Mapping[str, Any]) -> None:
    """Validate a ``/v1/metrics/history`` document."""
    path = "history"
    family = document.get("family")
    if family is not None and not isinstance(family, str):
        _fail(f"{path}.family", f"expected str or null, got {family!r}")
    _finite(
        _want(document, path, "interval_seconds", (int, float)),
        f"{path}.interval_seconds",
    )
    capacity = _want(document, path, "capacity", (int,))
    if capacity < 1:
        _fail(f"{path}.capacity", f"must be >= 1, got {capacity}")
    scrapes = _want(document, path, "scrapes_total", (int,))
    if scrapes < 0:
        _fail(f"{path}.scrapes_total", "negative")
    families = _want(document, path, "families", (list,))
    for name in families:
        if not isinstance(name, str) or not name:
            _fail(f"{path}.families", f"bad family name {name!r}")
    points = _want(document, path, "points", (list,))
    total = _want(document, path, "points_total", (int,))
    if len(points) > total:
        _fail(
            f"{path}.points",
            f"{len(points)} returned but points_total says {total}",
        )
    if len(points) > capacity:
        _fail(f"{path}.points", "more points than capacity")
    previous_ts: float | None = None
    for i, point in enumerate(points):
        ppath = f"{path}.points[{i}]"
        if not isinstance(point, dict):
            _fail(ppath, "not an object")
        ts = _finite(
            _want(point, ppath, "ts", (int, float)), f"{ppath}.ts"
        )
        if previous_ts is not None and ts < previous_ts:
            _fail(f"{ppath}.ts", f"out of order: {ts} < {previous_ts}")
        previous_ts = ts
        series = _want(point, ppath, "series", (dict,))
        for key, value in series.items():
            if not isinstance(key, str) or not key:
                _fail(f"{ppath}.series", f"bad series key {key!r}")
            if family is not None and not key.startswith(family):
                _fail(
                    f"{ppath}.series",
                    f"series {key!r} outside family {family!r}",
                )
            if (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or not math.isfinite(value)
            ):
                _fail(f"{ppath}.series.{key}", f"bad value {value!r}")


# ----------------------------------------------------------------------
# /v1/metrics (format=json)
# ----------------------------------------------------------------------
_LATENCY_KEYS = {"count", "mean_ms", "p50_ms", "p95_ms", "p99_ms"}


def _counts(document: Mapping[str, Any], path: str, key: str) -> dict:
    """A ``{label: non-negative int}`` object."""
    counts = _want(document, path, key, (dict,))
    for label, count in counts.items():
        if not isinstance(label, str) or not label:
            _fail(f"{path}.{key}", f"bad key {label!r}")
        _want(counts, f"{path}.{key}", label, (int,))
        if count < 0:
            _fail(f"{path}.{key}.{label}", f"negative count {count}")
    return counts


def _latency(summary: Any, path: str) -> int:
    """Validate one latency summary; returns its count."""
    if not isinstance(summary, dict):
        _fail(path, "not an object")
    if set(summary) != _LATENCY_KEYS:
        _fail(path, f"keys {sorted(summary)} != {sorted(_LATENCY_KEYS)}")
    count = _want(summary, path, "count", (int,))
    if count < 0:
        _fail(f"{path}.count", f"negative count {count}")
    values = {
        key: _finite(
            _want(summary, path, key, (int, float)), f"{path}.{key}"
        )
        for key in ("mean_ms", "p50_ms", "p95_ms", "p99_ms")
    }
    if min(values.values()) < 0:
        _fail(path, f"negative latency in {values}")
    if not values["p50_ms"] <= values["p95_ms"] <= values["p99_ms"]:
        _fail(path, f"quantiles out of order: {values}")
    return count


def validate_metrics(document: Mapping[str, Any]) -> None:
    """Validate a ``/v1/metrics`` JSON document (single or fleet).

    Beyond keys and types: every response is counted once by status
    and timed once, so the ``by_status`` counts sum to the latency
    count; each shed count equals its status entry; the endpoint
    counts sum to their totals; and the batch-size distribution sums
    to the number of batches.
    """
    path = "metrics"
    requests = _want(document, path, "requests", (dict,))
    started = _want(requests, f"{path}.requests", "started", (int,))
    by_endpoint = _counts(requests, f"{path}.requests", "by_endpoint")
    if sum(by_endpoint.values()) != started:
        _fail(
            f"{path}.requests.by_endpoint",
            f"sums to {sum(by_endpoint.values())}, started says {started}",
        )

    rpath = f"{path}.responses"
    responses = _want(document, path, "responses", (dict,))
    by_status = _counts(responses, rpath, "by_status")
    for status in by_status:
        if not (status.isdigit() and len(status) == 3):
            _fail(f"{rpath}.by_status", f"bad status {status!r}")
    for status in ("429", "503"):
        shed = _want(responses, rpath, f"shed_{status}", (int,))
        if shed != by_status.get(status, 0):
            _fail(
                f"{rpath}.shed_{status}",
                f"{shed} != by_status {by_status.get(status, 0)}",
            )
    errors = _want(responses, rpath, "errors_5xx", (int,))
    if errors != sum(c for s, c in by_status.items() if int(s) >= 500):
        _fail(f"{rpath}.errors_5xx", f"{errors} disagrees with by_status")

    lpath = f"{path}.latency"
    latency = _want(document, path, "latency", (dict,))
    total = _latency(_want(latency, lpath, "overall", (dict,)),
                     f"{lpath}.overall")
    endpoints = _want(latency, lpath, "by_endpoint", (dict,))
    endpoint_total = sum(
        _latency(summary, f"{lpath}.by_endpoint.{endpoint}")
        for endpoint, summary in endpoints.items()
    )
    if endpoint_total != total:
        _fail(
            f"{lpath}.by_endpoint",
            f"counts sum to {endpoint_total}, overall says {total}",
        )
    if sum(by_status.values()) != total:
        _fail(
            f"{rpath}.by_status",
            f"sums to {sum(by_status.values())} responses, "
            f"latency timed {total}",
        )

    cpath = f"{path}.coalescing"
    coalescing = _want(document, path, "coalescing", (dict,))
    batches = _want(coalescing, cpath, "batches", (int,))
    batched = _want(coalescing, cpath, "requests", (int,))
    mean = _finite(
        _want(coalescing, cpath, "mean_batch_size", (int, float)),
        f"{cpath}.mean_batch_size",
    )
    if batches < 0 or batched < batches:
        _fail(cpath, f"{batched} requests in {batches} batches")
    expected_mean = batched / batches if batches else 0.0
    if not math.isclose(mean, expected_mean, rel_tol=1e-9):
        _fail(f"{cpath}.mean_batch_size", f"{mean} != {expected_mean}")
    distribution = _counts(coalescing, cpath, "distribution")
    if sum(distribution.values()) != batches:
        _fail(
            f"{cpath}.distribution",
            f"sums to {sum(distribution.values())}, batches says {batches}",
        )

    updates = _want(document, path, "stream_updates", (dict,))
    applied = _want(updates, f"{path}.stream_updates", "applied", (int,))
    if applied < 0:
        _fail(f"{path}.stream_updates.applied", "negative")
    # The served document adds admission state next to the rendered
    # families; a bare metrics_document() has none.
    if "admission" in document:
        admission = _want(document, path, "admission", (dict,))
        for key in ("active", "peak_active", "admitted_total"):
            if _want(admission, f"{path}.admission", key, (int,)) < 0:
                _fail(f"{path}.admission.{key}", "negative")
        _want(admission, f"{path}.admission", "draining", (bool,))
