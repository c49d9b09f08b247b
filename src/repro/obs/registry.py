"""Named metric instruments and the Prometheus text exposition.

The three standard instrument kinds — :class:`Counter`, :class:`Gauge`,
:class:`Histogram` — are registered by name (optionally with label
dimensions) in a :class:`MetricsRegistry`; :func:`render_families`
renders them in the Prometheus text exposition format (version 0.0.4):
``# HELP`` / ``# TYPE`` comments, ``_bucket``/``_sum``/``_count``
histogram series with cumulative ``le`` buckets ending at ``+Inf``.

The histogram bucket math lives here too:

* :func:`geometric_bounds` — the fixed geometric bucket layout;
* :func:`quantile_from_buckets` — quantile recovery that interpolates
  *within* the bucket the quantile rank falls into (assuming a uniform
  distribution across the bucket), instead of reporting the bucket's
  upper bound.  On geometric buckets (~26% wide) the upper bound
  overstates mid-bucket quantiles by up to a full bucket width; linear
  interpolation cuts the typical error to a few percent;
* :func:`cumulative_buckets` — the ``le``-labelled cumulative counts a
  Prometheus histogram exposes.

A process-global :data:`REGISTRY` is the default sink for the serving
layers (solver, delta updater, stream ingestor, query engine).  Each
gateway records its request metrics in a registry of its own and
renders it next to :data:`REGISTRY`.
:meth:`MetricsRegistry.reset` zeroes values but keeps registrations,
so module-level instrument handles stay live across test isolation.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "Sample",
    "REGISTRY",
    "get_registry",
    "geometric_bounds",
    "quantile_from_buckets",
    "cumulative_buckets",
    "counter_family",
    "gauge_family",
    "histogram_samples",
    "render_families",
    "label_families",
    "families_state",
    "state_families",
    "merge_family_states",
]

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


# ----------------------------------------------------------------------
# Bucket math
# ----------------------------------------------------------------------
def geometric_bounds(
    lo: float, hi: float, per_decade: int
) -> tuple[float, ...]:
    """Geometric bucket upper bounds from ``lo`` to ``hi``."""
    bounds = []
    factor = 10.0 ** (1.0 / per_decade)
    value = lo
    while value < hi:
        bounds.append(value)
        value *= factor
    bounds.append(hi)
    return tuple(bounds)


def quantile_from_buckets(
    bounds: Sequence[float],
    counts: Sequence[int],
    total: int,
    max_value: float,
    q: float,
) -> float:
    """The ``q``-quantile recovered from bucket counts (0 when empty).

    The quantile rank is located in its bucket, then linearly
    interpolated between the bucket's lower and upper bound by the
    rank's position among the bucket's observations — the uniform
    within-bucket assumption.  Observations beyond the last bound (the
    overflow bucket) report the observed maximum, and no estimate ever
    exceeds it: the slowest observation caps every quantile.
    """
    if total <= 0:
        return 0.0
    rank = q * total
    seen = 0
    for position, bucket in enumerate(counts):
        if not bucket:
            continue
        below = seen
        seen += bucket
        if seen >= rank:
            if position >= len(bounds):
                return max_value
            lower = bounds[position - 1] if position else 0.0
            upper = bounds[position]
            fraction = min(1.0, max(0.0, (rank - below) / bucket))
            return min(lower + fraction * (upper - lower), max_value)
    return max_value


def _le_label(bound: float) -> str:
    """A bucket bound as Prometheus renders ``le`` values."""
    if math.isinf(bound):
        return "+Inf"
    return format_value(bound)


def cumulative_buckets(
    bounds: Sequence[float], counts: Sequence[int]
) -> tuple[tuple[str, int], ...]:
    """``(le_label, cumulative_count)`` pairs, ending with ``+Inf``.

    ``counts`` must have one more entry than ``bounds`` (the overflow
    bucket), the layout :class:`Histogram` uses.
    """
    pairs: list[tuple[str, int]] = []
    running = 0
    for bound, count in zip(bounds, counts):
        running += count
        pairs.append((_le_label(bound), running))
    running += counts[len(bounds)]
    pairs.append(("+Inf", running))
    return tuple(pairs)


def format_value(value: float) -> str:
    """A sample value in exposition format (integers without ``.0``)."""
    number = float(value)
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if number.is_integer() and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


# ----------------------------------------------------------------------
# Families and rendering
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Sample:
    """One exposition line: ``name<suffix>{labels} value``."""

    suffix: str
    labels: tuple[tuple[str, str], ...]
    value: float


@dataclass(frozen=True)
class MetricFamily:
    """All samples of one metric name, with its kind and help text."""

    name: str
    kind: str
    help: str
    samples: tuple[Sample, ...]


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _render_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in labels
    )
    return "{" + inner + "}"


def render_families(families: Iterable[MetricFamily]) -> str:
    """Render families as Prometheus text exposition (sorted by name)."""
    lines: list[str] = []
    for family in sorted(families, key=lambda f: f.name):
        lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for sample in family.samples:
            lines.append(
                f"{family.name}{sample.suffix}"
                f"{_render_labels(sample.labels)} "
                f"{format_value(sample.value)}"
            )
    return "\n".join(lines) + "\n" if lines else ""


def counter_family(
    name: str,
    help: str,
    values: Mapping[tuple[tuple[str, str], ...], float],
) -> MetricFamily:
    """A counter family from pre-aggregated ``labels -> value`` data."""
    return MetricFamily(
        name=name,
        kind="counter",
        help=help,
        samples=tuple(
            Sample(suffix="", labels=labels, value=value)
            for labels, value in values.items()
        ),
    )


def gauge_family(name: str, help: str, value: float) -> MetricFamily:
    """A single-sample unlabelled gauge family."""
    return MetricFamily(
        name=name,
        kind="gauge",
        help=help,
        samples=(Sample(suffix="", labels=(), value=float(value)),),
    )


def histogram_samples(
    labels: tuple[tuple[str, str], ...],
    bucket_pairs: Sequence[tuple[str, int]],
    total_sum: float,
    total_count: int,
) -> tuple[Sample, ...]:
    """The ``_bucket``/``_sum``/``_count`` samples of one series."""
    samples = [
        Sample(
            suffix="_bucket",
            labels=labels + (("le", le),),
            value=float(cumulative),
        )
        for le, cumulative in bucket_pairs
    ]
    samples.append(Sample(suffix="_sum", labels=labels, value=total_sum))
    samples.append(
        Sample(suffix="_count", labels=labels, value=float(total_count))
    )
    return tuple(samples)


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
class _Instrument:
    """Shared naming/label plumbing of the three instrument kinds."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> None:
        if not _METRIC_NAME.match(name):
            raise ConfigurationError(f"invalid metric name: {name!r}")
        for label in labelnames:
            if not _LABEL_NAME.match(label) or label == "le":
                raise ConfigurationError(
                    f"invalid label name {label!r} for metric {name!r}"
                )
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        # Keyword arguments cannot repeat a name, so a repeated label
        # name could never be satisfied; rejecting it here lets _key
        # compare against a set built once instead of sorting per call.
        self._labelset = frozenset(self.labelnames)
        if len(self._labelset) != len(self.labelnames):
            raise ConfigurationError(
                f"repeated label name for metric {name!r}: "
                f"{list(self.labelnames)}"
            )
        self._lock = threading.Lock()

    def _key(self, labels: Mapping[str, Any]) -> tuple[str, ...]:
        if labels.keys() != self._labelset:
            raise ConfigurationError(
                f"metric {self.name!r} takes labels "
                f"{list(self.labelnames)}, got {sorted(labels)}"
            )
        return tuple([str(labels[name]) for name in self.labelnames])

    def _labels_of(self, key: tuple[str, ...]) -> tuple[tuple[str, str], ...]:
        return tuple(zip(self.labelnames, key))

    def describe(self) -> dict[str, Any]:
        """Kind/labels metadata (the JSON rendering's header)."""
        return {
            "kind": self.kind,
            "help": self.help,
            "labels": list(self.labelnames),
        }


class Counter(_Instrument):
    """A monotonically increasing count (optionally per labelset)."""

    kind = "counter"

    def __init__(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> None:
        super().__init__(name, help, labelnames)
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (>= 0) to the labelled series."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        """Current value of the labelled series (0 if never touched)."""
        return self._values.get(self._key(labels), 0.0)

    def _zero(self) -> None:
        with self._lock:
            self._values.clear()

    def collect(self) -> MetricFamily:
        with self._lock:
            items = sorted(self._values.items())
        if not items and not self.labelnames:
            items = [((), 0.0)]
        return MetricFamily(
            name=self.name,
            kind=self.kind,
            help=self.help,
            samples=tuple(
                Sample(suffix="", labels=self._labels_of(key), value=value)
                for key, value in items
            ),
        )


class Gauge(_Instrument):
    """A value that can go up and down (optionally per labelset)."""

    kind = "gauge"

    def __init__(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> None:
        super().__init__(name, help, labelnames)
        self._values: dict[tuple[str, ...], float] = {}

    def set(self, value: float, **labels: Any) -> None:
        """Set the labelled series to ``value``."""
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (may be negative) to the labelled series."""
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        """Current value of the labelled series (0 if never set)."""
        return self._values.get(self._key(labels), 0.0)

    def _zero(self) -> None:
        with self._lock:
            self._values.clear()

    def collect(self) -> MetricFamily:
        with self._lock:
            items = sorted(self._values.items())
        if not items and not self.labelnames:
            items = [((), 0.0)]
        return MetricFamily(
            name=self.name,
            kind=self.kind,
            help=self.help,
            samples=tuple(
                Sample(suffix="", labels=self._labels_of(key), value=value)
                for key, value in items
            ),
        )


class _HistogramSeries:
    """Bucket counts / sum / count / max of one labelled series."""

    __slots__ = ("counts", "count", "sum", "max_value")

    def __init__(self, n_bounds: int) -> None:
        self.counts = [0] * (n_bounds + 1)
        self.count = 0
        self.sum = 0.0
        self.max_value = 0.0


class Histogram(_Instrument):
    """Fixed-bucket histogram with interpolated quantile recovery.

    Default buckets are geometric from 50 microseconds to 30 seconds
    (ten per decade) — the latency layout the gateway uses — with a
    ``+Inf`` overflow bucket; pass ``bounds`` for other units.
    """

    kind = "histogram"

    DEFAULT_BOUNDS = geometric_bounds(50e-6, 30.0, per_decade=10)

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        *,
        bounds: Sequence[float] | None = None,
    ) -> None:
        super().__init__(name, help, labelnames)
        chosen = tuple(bounds) if bounds is not None else self.DEFAULT_BOUNDS
        if not chosen or list(chosen) != sorted(set(chosen)):
            raise ConfigurationError(
                f"histogram {name!r} bounds must be strictly increasing"
            )
        self.bounds = chosen
        self._series: dict[tuple[str, ...], _HistogramSeries] = {}

    def _series_for(self, key: tuple[str, ...]) -> _HistogramSeries:
        series = self._series.get(key)
        if series is None:
            series = self._series.setdefault(
                key, _HistogramSeries(len(self.bounds))
            )
        return series

    def declare(self, **labels: Any) -> None:
        """Create the labelled series with every bucket at zero.

        A series is exported once it exists, so declaring it gives a
        scrape zero buckets before the first observation — what
        ``Counter.inc(0, ...)`` does for a counter.
        """
        self._series_for(self._key(labels))

    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation into the labelled series."""
        key = self._key(labels)
        series = self._series_for(key)
        position = bisect_left(self.bounds, value)
        with self._lock:
            series.counts[position] += 1
            series.count += 1
            series.sum += value
            if value > series.max_value:
                series.max_value = value

    def quantile(self, q: float, **labels: Any) -> float:
        """Interpolated ``q``-quantile of the labelled series."""
        series = self._series.get(self._key(labels))
        if series is None:
            return 0.0
        return quantile_from_buckets(
            self.bounds, series.counts, series.count,
            series.max_value, q,
        )

    def snapshot(self, **labels: Any) -> dict[str, float]:
        """Count/sum/quantiles of the labelled series, JSON-ready."""
        series = self._series.get(self._key(labels))
        if series is None or series.count == 0:
            return {
                "count": 0, "sum": 0.0, "mean": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0,
            }
        return {
            "count": series.count,
            "sum": series.sum,
            "mean": series.sum / series.count,
            "p50": self.quantile(0.50, **labels),
            "p95": self.quantile(0.95, **labels),
            "p99": self.quantile(0.99, **labels),
            "max": series.max_value,
        }

    def _zero(self) -> None:
        with self._lock:
            self._series.clear()

    def collect(self) -> MetricFamily:
        samples: list[Sample] = []
        with self._lock:
            snapshot = [
                (key, list(series.counts), series.sum, series.count)
                for key, series in sorted(self._series.items())
            ]
        for key, counts, total_sum, total_count in snapshot:
            samples.extend(
                histogram_samples(
                    self._labels_of(key),
                    cumulative_buckets(self.bounds, counts),
                    total_sum,
                    total_count,
                )
            )
        return MetricFamily(
            name=self.name,
            kind=self.kind,
            help=self.help,
            samples=tuple(samples),
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class MetricsRegistry:
    """Get-or-create instrument store plus extra collector callbacks.

    Instruments are addressed by name; asking twice with the same name
    returns the same object, asking with a conflicting kind or label
    set raises :class:`~repro.errors.ConfigurationError` — two call
    sites silently sharing a name but disagreeing on its shape is a
    bug, not a merge.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}
        self._collectors: list[Callable[[], Iterable[MetricFamily]]] = []
        self._lock = threading.Lock()

    def _get_or_create(
        self, cls: type, name: str, help: str,
        labelnames: Sequence[str], **kwargs: Any,
    ) -> Any:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or (
                    existing.labelnames != tuple(labelnames)
                ):
                    raise ConfigurationError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels "
                        f"{list(existing.labelnames)}"
                    )
                return existing
            instrument = cls(name, help, labelnames, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        """Get or create a :class:`Counter`."""
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        *,
        bounds: Sequence[float] | None = None,
    ) -> Histogram:
        """Get or create a :class:`Histogram`."""
        return self._get_or_create(
            Histogram, name, help, labelnames, bounds=bounds
        )

    def register_collector(
        self, collector: Callable[[], Iterable[MetricFamily]]
    ) -> None:
        """Add a callback that contributes families at scrape time."""
        with self._lock:
            self._collectors.append(collector)

    def collect(self) -> list[MetricFamily]:
        """All families: registered instruments plus collectors."""
        with self._lock:
            instruments = list(self._instruments.values())
            collectors = list(self._collectors)
        families = [instrument.collect() for instrument in instruments]
        for collector in collectors:
            families.extend(collector())
        return families

    def render_prometheus(
        self, extra_families: Iterable[MetricFamily] = ()
    ) -> str:
        """The text exposition of everything this registry knows."""
        return render_families([*self.collect(), *extra_families])

    def render_json(self) -> dict[str, Any]:
        """A JSON document of every instrument's current samples."""
        document: dict[str, Any] = {}
        for family in self.collect():
            entry = document.setdefault(
                family.name,
                {"kind": family.kind, "help": family.help, "samples": []},
            )
            for sample in family.samples:
                entry["samples"].append(
                    {
                        "suffix": sample.suffix,
                        "labels": dict(sample.labels),
                        "value": sample.value,
                    }
                )
        return document

    def reset(self) -> None:
        """Zero every instrument, keeping registrations and handles.

        Module-level instrument handles (the serving layers hold them)
        stay valid: the same objects keep recording into this registry
        after the reset — which is why reset zeroes values instead of
        discarding instruments.
        """
        with self._lock:
            instruments = list(self._instruments.values())
        for instrument in instruments:
            instrument._zero()  # type: ignore[attr-defined]


#: The process-global default registry the serving layers record into.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global :data:`REGISTRY`."""
    return REGISTRY


# ----------------------------------------------------------------------
# Cross-process family plumbing (the multi-worker fleet)
# ----------------------------------------------------------------------
def label_families(
    families: Iterable[MetricFamily],
    extra_labels: tuple[tuple[str, str], ...],
) -> list[MetricFamily]:
    """Every sample re-labelled with ``extra_labels`` appended.

    The multi-worker gateway stamps ``worker="N"`` onto each worker's
    exposition this way, so a Prometheus scrape that happened to land
    on worker 3 says so on every series.
    """
    if not extra_labels:
        return list(families)
    return [
        MetricFamily(
            name=family.name,
            kind=family.kind,
            help=family.help,
            samples=tuple(
                Sample(
                    suffix=sample.suffix,
                    labels=sample.labels + extra_labels,
                    value=sample.value,
                )
                for sample in family.samples
            ),
        )
        for family in families
    ]


def families_state(
    families: Iterable[MetricFamily],
) -> list[dict[str, Any]]:
    """Families as a JSON-safe state list (the scrape wire form).

    The inverse of :func:`state_families`; a worker serves this under
    ``/v1/metrics?format=state`` so the supervisor can merge the raw
    per-process registries instead of trying to parse text exposition.
    """
    return [
        {
            "name": family.name,
            "kind": family.kind,
            "help": family.help,
            "samples": [
                {
                    "suffix": sample.suffix,
                    "labels": [list(pair) for pair in sample.labels],
                    "value": sample.value,
                }
                for sample in family.samples
            ],
        }
        for family in families
    ]


def state_families(
    state: Iterable[Mapping[str, Any]],
) -> list[MetricFamily]:
    """Families back out of a :func:`families_state` document."""
    return [
        MetricFamily(
            name=str(entry["name"]),
            kind=str(entry["kind"]),
            help=str(entry.get("help", "")),
            samples=tuple(
                Sample(
                    suffix=str(sample["suffix"]),
                    labels=tuple(
                        (str(name), str(value))
                        for name, value in sample["labels"]
                    ),
                    value=float(sample["value"]),
                )
                for sample in entry["samples"]
            ),
        )
        for entry in state
    ]


def merge_family_states(
    states: Sequence[Iterable[Mapping[str, Any]]],
) -> list[MetricFamily]:
    """N workers' :func:`families_state` documents merged into one.

    Samples are summed per ``(name, suffix, labels)`` — exact for
    counters and histogram ``_bucket``/``_sum``/``_count`` series
    (every process uses the same fixed bounds), and the fleet-total
    reading for gauges (in-flight requests across workers add, they
    do not average).  Help text and kind come from the first state
    that declares the family.
    """
    order: list[str] = []
    meta: dict[str, tuple[str, str]] = {}
    merged: dict[
        str, dict[tuple[str, tuple[tuple[str, str], ...]], float]
    ] = {}
    for state in states:
        for entry in state:
            name = str(entry["name"])
            if name not in meta:
                meta[name] = (
                    str(entry["kind"]),
                    str(entry.get("help", "")),
                )
                order.append(name)
                merged[name] = {}
            samples = merged[name]
            for sample in entry["samples"]:
                key = (
                    str(sample["suffix"]),
                    tuple(
                        (str(label), str(value))
                        for label, value in sample["labels"]
                    ),
                )
                samples[key] = samples.get(key, 0.0) + float(
                    sample["value"]
                )
    return [
        MetricFamily(
            name=name,
            kind=meta[name][0],
            help=meta[name][1],
            samples=tuple(
                Sample(suffix=suffix, labels=labels, value=value)
                for (suffix, labels), value in merged[name].items()
            ),
        )
        for name in order
    ]
