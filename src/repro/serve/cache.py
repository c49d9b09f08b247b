"""A small LRU result cache for the ranking service.

Query results are cheap to recompute on toy networks but not at corpus
scale, where a handful of popular queries (front page, per-year top
lists) dominate traffic.  The cache is deliberately dependency-free: an
ordered dict with move-to-front on hit, bounded size, and counters that
the service surfaces for observability.

The service keys entries on the version and method labels of the
published snapshot they were computed on, so a delta update never
serves stale rankings: entries written against an older publication
simply stop being requested and age out (the service additionally
clears the cache when it publishes, to release the memory
immediately).

The gateway reads the cache on its event loop while the stream updater
clears it from an executor thread, so every operation holds the
cache's lock: a lookup never sees a half-done clear or eviction.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

from repro.errors import ConfigurationError

__all__ = ["LRUCache", "CacheStats"]

_MISSING = object()


@dataclass(frozen=True)
class CacheStats:
    """Counters of one :class:`LRUCache` since creation (or last reset).

    Attributes
    ----------
    hits, misses:
        Lookup outcomes.
    evictions:
        Entries dropped because the cache was full.
    invalidations:
        :meth:`LRUCache.clear` calls — how often a version bump (or an
        explicit flush) dropped the whole cache.  Distinct from
        evictions: an eviction is capacity pressure, an invalidation
        is staleness.
    size, maxsize:
        Current and maximum entry counts.

    A snapshot is taken under the cache's lock, so the counters are
    consistent with each other and with ``size``.
    """

    hits: int
    misses: int
    evictions: int
    invalidations: int
    size: int
    maxsize: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, int | float]:
        """JSON-ready counters (for ``/v1/metrics`` and bench payloads).

        Values are the six integer counters plus the float
        ``hit_rate`` — ``int | float``, not ``float``: consumers that
        branch on exact equality (bench baselines diffing counter
        values) must not be told these are floats.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "size": self.size,
            "maxsize": self.maxsize,
            "hit_rate": self.hit_rate,
        }


class LRUCache:
    """Bounded mapping with least-recently-used eviction.

    >>> cache = LRUCache(maxsize=2)
    >>> cache.put("a", 1); cache.put("b", 2); cache.put("c", 3)
    >>> cache.get("a") is None   # evicted, capacity 2
    True
    >>> cache.get("c")
    3
    """

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 1:
            raise ConfigurationError(
                f"cache maxsize must be >= 1, got {maxsize}"
            )
        self._maxsize = int(maxsize)
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value, refreshing its recency; count the miss."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self._misses += 1
                return default
            self._hits += 1
            self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the oldest when full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            if len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop every entry; counts one invalidation (counters survive)."""
        with self._lock:
            self._entries.clear()
            self._invalidations += 1

    def stats(self) -> CacheStats:
        """A snapshot of the hit/miss/eviction/invalidation counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
                size=len(self._entries),
                maxsize=self._maxsize,
            )
