"""Declarative SLOs with multi-window multi-burn-rate alerting.

An SLO turns "the gateway feels slow" into arithmetic: an objective
("99.9% of requests succeed", "99% answer under 250ms"), an error
budget (one minus the objective), and a **burn rate** — the ratio of
the observed error rate to the budget.  Burn rate 1.0 spends the
budget exactly over the SLO period; 14.4 spends a 30-day budget in two
days.  The alerting strategy is the multi-window multi-burn-rate form
from Google's SRE workbook: an alert fires only when the burn rate
exceeds its threshold over *both* a long window (is it sustained?) and
a short window (is it still happening?), which kills both flappy
alerts and stale ones:

========  =====  ======  ==========================================
severity  burn   windows  meaning
========  =====  ======  ==========================================
page      14.4   5m/1h    2% of a 30-day budget gone in one hour
page      6.0    30m/6h   5% of the budget gone in six hours
ticket    1.0    6h/3d    burning at/above the sustainable rate
========  =====  ======  ==========================================

Everything is computed from data the stack already exports: the
availability SLO reads the ``repro_gateway_responses_total`` status
counters, the latency SLO reads the cumulative latency histogram
buckets (good = requests at or under the bucket covering the
threshold — thresholds snap to a bucket bound so "good" is exact, not
interpolated), and the windows come from the
:class:`~repro.obs.tsdb.TimeSeriesStore` history.  Feed the engine a
*fleet* store (the multi-worker supervisor's merged scrape) and every
number is fleet-truth.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import ConfigurationError
from repro.obs.registry import Histogram
from repro.obs.tsdb import TimeSeriesStore, counter_delta, parse_series_key

__all__ = [
    "BurnRule",
    "DEFAULT_BURN_RULES",
    "DEFAULT_SLOS",
    "SLO",
    "SLOEngine",
    "format_window",
    "parse_slo",
]


@dataclass(frozen=True)
class SLO:
    """One objective over the gateway's query traffic.

    ``kind`` is ``availability`` (good = non-5xx responses) or
    ``latency`` (good = requests at or under ``threshold`` seconds);
    ``objective`` is the target good-fraction (0 < objective < 1).
    A latency threshold must lie within (0, 30] seconds: good requests
    are counted from a latency bucket bound at or above it, and the
    latency histogram's last finite bound is 30 s.
    """

    name: str
    kind: str
    objective: float
    threshold: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("availability", "latency"):
            raise ConfigurationError(
                f"SLO kind must be availability or latency, "
                f"got {self.kind!r}"
            )
        if not 0.0 < self.objective < 1.0:
            raise ConfigurationError(
                f"SLO objective must be within (0, 1), "
                f"got {self.objective}"
            )
        last_bound = Histogram.DEFAULT_BOUNDS[-1]
        if self.kind == "latency" and not (
            self.threshold is not None
            and 0.0 < self.threshold <= last_bound
        ):
            raise ConfigurationError(
                "a latency SLO needs a threshold within "
                f"(0, {last_bound:g}] seconds, got {self.threshold}"
            )

    @property
    def budget(self) -> float:
        """The error budget: the tolerated bad-request fraction."""
        return 1.0 - self.objective


@dataclass(frozen=True)
class BurnRule:
    """One multi-window alert: fire when burn >= factor on both."""

    short_seconds: float
    long_seconds: float
    factor: float
    severity: str


DEFAULT_BURN_RULES: tuple[BurnRule, ...] = (
    BurnRule(300.0, 3600.0, 14.4, "page"),
    BurnRule(1800.0, 21600.0, 6.0, "page"),
    BurnRule(21600.0, 259200.0, 1.0, "ticket"),
)

DEFAULT_SLOS: tuple[SLO, ...] = (
    SLO(name="availability", kind="availability", objective=0.999),
    SLO(name="latency-p99-250ms", kind="latency", objective=0.99,
        threshold=0.25),
)

#: Endpoints whose traffic the SLOs cover: the query surface, not the
#: scrape/introspection endpoints (a Prometheus scrape failing its own
#: latency target must not page anyone).
QUERY_ENDPOINTS = frozenset(("top", "paper", "compare"))

_RESPONSES = "repro_gateway_responses_total"
_LATENCY = "repro_gateway_request_latency_seconds"


def parse_slo(spec: str) -> SLO:
    """An :class:`SLO` from a CLI spec string.

    Formats::

        availability:99.9             -> 99.9% non-5xx
        latency:99:0.25               -> 99% of requests <= 0.25s
        latency:99.5:250ms            -> thresholds accept an ms suffix

    The objective is given in percent (as operators quote SLOs), the
    threshold in seconds unless suffixed ``ms``.
    """
    parts = spec.split(":")
    kind = parts[0].strip().lower()
    if kind == "availability" and len(parts) == 2:
        objective = _percent(parts[1], spec)
        return SLO(
            name=f"availability-{parts[1].strip()}",
            kind="availability",
            objective=objective,
        )
    if kind == "latency" and len(parts) == 3:
        objective = _percent(parts[1], spec)
        raw = parts[2].strip().lower()
        try:
            threshold = (
                float(raw[:-2]) / 1000.0
                if raw.endswith("ms")
                else float(raw)
            )
        except ValueError:
            raise ConfigurationError(
                f"bad latency threshold in SLO spec {spec!r}"
            ) from None
        return SLO(
            name=f"latency-p{parts[1].strip()}-{raw}",
            kind="latency",
            objective=objective,
            threshold=threshold,
        )
    raise ConfigurationError(
        f"bad SLO spec {spec!r} (want availability:PCT or "
        "latency:PCT:SECONDS)"
    )


def _percent(raw: str, spec: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"bad objective percentage in SLO spec {spec!r}"
        ) from None
    if not 0.0 < value < 100.0:
        raise ConfigurationError(
            f"SLO objective must be within (0, 100) percent, "
            f"got {value} in {spec!r}"
        )
    return value / 100.0


def format_window(seconds: float) -> str:
    """``300 -> "5m"``, ``21600 -> "6h"``, ``259200 -> "3d"``."""
    value = float(seconds)
    for unit_seconds, unit in ((86400.0, "d"), (3600.0, "h"),
                               (60.0, "m")):
        if value >= unit_seconds and value % unit_seconds == 0:
            return f"{int(value // unit_seconds)}{unit}"
    return f"{int(value)}s"


def _is_query_endpoint(labels: Mapping[str, str]) -> bool:
    endpoint = labels.get("endpoint")
    return endpoint is None or endpoint in QUERY_ENDPOINTS


class SLOEngine:
    """Evaluate objectives against a metrics history store.

    One engine per store; :meth:`evaluate` renders the full ``/v1/slo``
    document.  With ``scrape=True`` (how the endpoint calls it) the
    evaluation starts by appending a fresh point, so the short-window
    burn rates always include traffic up to "now".
    """

    def __init__(
        self,
        store: TimeSeriesStore,
        *,
        slos: tuple[SLO, ...] = DEFAULT_SLOS,
        rules: tuple[BurnRule, ...] = DEFAULT_BURN_RULES,
    ) -> None:
        if not slos:
            raise ConfigurationError("SLOEngine needs at least one SLO")
        self.store = store
        self.slos = tuple(slos)
        self.rules = tuple(rules)

    # ------------------------------------------------------------------
    # Good/total extraction from one stored point
    # ------------------------------------------------------------------
    @staticmethod
    def _availability_delta(
        old: Mapping[str, Any], new: Mapping[str, Any]
    ) -> tuple[float, float]:
        total = counter_delta(old, new, prefix=_RESPONSES)
        bad = counter_delta(
            old,
            new,
            prefix=_RESPONSES,
            where=lambda labels: labels.get("status", "").startswith(
                "5"
            ),
        )
        return total - bad, total

    @staticmethod
    def _latency_delta(
        old: Mapping[str, Any],
        new: Mapping[str, Any],
        threshold: float,
    ) -> tuple[float, float]:
        """Good/total from the cumulative ``le`` buckets.

        "Good" is the cumulative count of the smallest bucket bound at
        or above the threshold — with the registry's fixed geometric
        bounds that bound exists for any sane threshold, and the count
        is *exact* (cumulative buckets are <=-counts by construction).
        """

        def good_bound(point: Mapping[str, Any]) -> float | None:
            best: float | None = None
            for key in point.get("series", {}):
                if not key.startswith(_LATENCY + "_bucket"):
                    continue
                _, labels = parse_series_key(key)
                if not _is_query_endpoint(labels):
                    continue
                le = labels.get("le")
                if le is None or le == "+Inf":
                    continue
                bound = float(le)
                if bound >= threshold and (
                    best is None or bound < best
                ):
                    best = bound
            return best

        bound = good_bound(new)
        good = (
            0.0
            if bound is None
            else counter_delta(
                new=new,
                old=old,
                prefix=_LATENCY + "_bucket",
                where=lambda labels: (
                    _is_query_endpoint(labels)
                    and labels.get("le") not in (None, "+Inf")
                    and float(labels["le"]) == bound
                ),
            )
        )
        total = counter_delta(
            new=new,
            old=old,
            prefix=_LATENCY + "_count",
            where=_is_query_endpoint,
        )
        return min(good, total), total

    def _delta(
        self,
        slo: SLO,
        old: Mapping[str, Any],
        new: Mapping[str, Any],
    ) -> tuple[float, float]:
        if slo.kind == "availability":
            return self._availability_delta(old, new)
        assert slo.threshold is not None
        return self._latency_delta(old, new, slo.threshold)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self, *, scrape: bool = False, now: float | None = None
    ) -> dict[str, Any]:
        """The ``/v1/slo`` JSON document.

        Per SLO: lifetime compliance (from the newest point's raw
        totals), the remaining budget fraction, one burn rate per
        distinct window, and the firing state of every rule.
        """
        if scrape:
            self.store.scrape_once(now)
        evaluated = time.time() if now is None else float(now)
        zero = {"series": {}}
        newest_points = self.store.points()
        newest = newest_points[-1] if newest_points else dict(zero)
        windows = sorted(
            {
                seconds
                for rule in self.rules
                for seconds in (rule.short_seconds, rule.long_seconds)
            }
        )
        objectives: list[dict[str, Any]] = []
        for slo in self.slos:
            good_total, total = self._delta(slo, zero, newest)
            compliance = good_total / total if total else 1.0
            burn_by_window: dict[str, float] = {}
            burn_raw: dict[float, float] = {}
            for seconds in windows:
                pair = self.store.window(seconds, now=now)
                if pair is None:
                    burn = 0.0
                else:
                    old, new = pair
                    good, window_total = self._delta(slo, old, new)
                    error_rate = (
                        (window_total - good) / window_total
                        if window_total
                        else 0.0
                    )
                    burn = error_rate / slo.budget
                burn_raw[seconds] = burn
                burn_by_window[format_window(seconds)] = burn
            alerts = [
                {
                    "severity": rule.severity,
                    "short_window": format_window(rule.short_seconds),
                    "long_window": format_window(rule.long_seconds),
                    "factor": rule.factor,
                    "short_burn": burn_raw[rule.short_seconds],
                    "long_burn": burn_raw[rule.long_seconds],
                    "firing": (
                        burn_raw[rule.short_seconds] >= rule.factor
                        and burn_raw[rule.long_seconds] >= rule.factor
                    ),
                }
                for rule in self.rules
            ]
            entry: dict[str, Any] = {
                "name": slo.name,
                "kind": slo.kind,
                "objective": slo.objective,
                "error_budget": slo.budget,
                "total": total,
                "good": good_total,
                "compliance": compliance,
                "budget_consumed": min(
                    1.0, (1.0 - compliance) / slo.budget
                ),
                "burn_rates": burn_by_window,
                "alerts": alerts,
                "firing": any(alert["firing"] for alert in alerts),
            }
            if slo.threshold is not None:
                entry["threshold_seconds"] = slo.threshold
            objectives.append(entry)
        return {
            "evaluated_unix": evaluated,
            "windows": [format_window(seconds) for seconds in windows],
            "objectives": objectives,
            "firing": any(o["firing"] for o in objectives),
        }
