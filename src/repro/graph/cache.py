"""Per-network memoisation of derived ranking structure.

Every grid search of the paper's evaluation (Figures 3-5) re-evaluates
hundreds of parameterisations against the *same* current state
``C(tN)``: the column-stochastic operator ``S``, the attention vector of
a given window, the recency vector of a given decay rate and the
retained adjacency weights of a given ``gamma`` are all functions of the
network alone (plus a scalar hyper-parameter), yet the method objects
used to rebuild them once per grid point.  This module hoists that
structure out of the per-grid-point loop: derived artifacts are memoised
*per network instance*, so the first evaluation pays for construction
and every later one — whether in the same process or in a worker of
:mod:`repro.parallel` — reuses the cached object.

Design notes
------------
* The store is a :class:`weakref.WeakKeyDictionary` keyed by the
  :class:`~repro.graph.CitationNetwork` *instance*.  Networks are
  immutable (their arrays are flagged read-only), so identity is a safe
  cache key, and the weak reference means a network's derived structure
  dies with it — no explicit invalidation is ever needed.
* Cached arrays — and the backing arrays of cached scipy sparse
  matrices — are flagged read-only before they are stored, so a caller
  that mutates shared state fails loudly instead of silently
  corrupting every later evaluation.
* Memoisation never changes numerical results: the factory runs exactly
  the code the call site used to run, so cached and uncached evaluations
  are bit-identical (the property the determinism tests pin down).
"""

from __future__ import annotations

from threading import Lock
from typing import Any, Callable, Hashable, TypeVar
from weakref import WeakKeyDictionary

import numpy as np
import scipy.sparse as sp

__all__ = [
    "derived_store",
    "memoize_on",
    "cached_value",
    "cached_keys",
    "clear_derived",
]

T = TypeVar("T")

#: network instance -> {cache key -> derived artifact}.
_STORES: "WeakKeyDictionary[Any, dict[Hashable, Any]]" = WeakKeyDictionary()

#: Guards store *creation* only; per-store access is single-threaded in
#: practice (worker processes each hold their own interpreter).
_LOCK = Lock()


def derived_store(network: Any) -> dict[Hashable, Any]:
    """The mutable cache dictionary attached to ``network``.

    Created on first access; garbage-collected with the network.
    """
    with _LOCK:
        store = _STORES.get(network)
        if store is None:
            store = {}
            _STORES[network] = store
        return store


def memoize_on(
    network: Any,
    key: Hashable,
    factory: Callable[[], T],
) -> T:
    """Return the cached value for ``key`` on ``network``, building it once.

    ``factory`` is only invoked on a miss; numpy arrays it returns are
    flagged read-only before being cached — and for scipy sparse
    matrices the backing ``data``/``indices``/``indptr`` arrays are
    frozen likewise — so shared state cannot be mutated by one caller
    under another's feet.  Richer objects (e.g. a cached operator) are
    expected to guard their own internals.
    """
    store = derived_store(network)
    try:
        return store[key]
    except KeyError:
        pass
    value = factory()
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif sp.issparse(value):
        for name in ("data", "indices", "indptr", "row", "col"):
            backing = getattr(value, name, None)
            if isinstance(backing, np.ndarray):
                backing.setflags(write=False)
    store[key] = value
    return value


def cached_value(network: Any, key: Hashable) -> Any | None:
    """The value cached for ``key`` on ``network``, or ``None``.

    Never builds anything (not even the store): incremental builders
    use it to ask whether a parent network already paid for a
    structure they can update instead of rebuilding.
    """
    return _STORES.get(network, {}).get(key)


def cached_keys(network: Any) -> tuple[Hashable, ...]:
    """The cache keys currently materialised for ``network`` (diagnostics)."""
    return tuple(_STORES.get(network, ()))


def clear_derived(network: Any | None = None) -> None:
    """Drop cached structure for one network (or for all, with ``None``).

    Only needed by benchmarks that want to time cold construction;
    regular code relies on the weak references instead.
    """
    if network is None:
        _STORES.clear()
    else:
        _STORES.pop(network, None)
