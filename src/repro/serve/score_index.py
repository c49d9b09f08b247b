"""The versioned score index — per-method solutions over one snapshot.

A :class:`ScoreIndex` binds a :class:`~repro.graph.CitationNetwork`
snapshot to the score vectors of any number of registered ranking
methods (addressed by their paper labels: ``"AR"``, ``"PR"``, ...).  It
is the unit of state the serving layer works with:

* :class:`~repro.serve.RankingService` publishes it to a shard store
  and answers queries from there,
* :class:`~repro.serve.DeltaUpdater` refreshes it in place after a
  delta, warm-starting every method that supports it from its previous
  solution,
* :meth:`ScoreIndex.save` / :meth:`ScoreIndex.load` persist it as one
  ``index`` snapshot of :mod:`repro.io.layout` — the network's arrays,
  one ``scores/<label>`` vector per method, and the method records as
  header metadata, every span checksummed — so a service restart never
  recomputes from scratch.  Stream checkpoints store the same file.

Every refresh bumps :attr:`ScoreIndex.version`; query-result caches key
on the version, which makes invalidation after updates automatic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro._typing import FloatVector
from repro.baselines import METHOD_REGISTRY, make_method, warm_startable
from repro.chaos.points import chaos_point
from repro.core.power_iteration import grow_start_vector
from repro.errors import ConfigurationError, IndexIntegrityError
from repro.graph.citation_network import CitationNetwork
from repro.io.layout import encode, read
from repro.io.serialize import network_from_payload, network_payload
from repro.obs.logging import get_logger
from repro.obs.registry import REGISTRY
from repro.obs.trace import span

__all__ = ["ScoreIndex", "MethodEntry"]

_LOG = get_logger("serve.solver")

_SOLVES_TOTAL = REGISTRY.counter(
    "repro_solver_solves_total",
    "Method solves, by method label and convergence outcome.",
    ["method", "converged"],
)
_LAST_ITERATIONS = REGISTRY.gauge(
    "repro_solver_last_iterations",
    "Iterations of the most recent solve, by method.",
    ["method"],
)
_LAST_RESIDUAL = REGISTRY.gauge(
    "repro_solver_last_residual",
    "Final L1 residual of the most recent solve, by method.",
    ["method"],
)


@dataclass(frozen=True)
class MethodEntry:
    """One method's solution over the index's current snapshot.

    Attributes
    ----------
    label:
        Registry label (``"AR"``, ``"PR"``, ...).
    params:
        Constructor keyword arguments the method was registered with;
        refreshes re-instantiate the method from these via
        :func:`repro.baselines.make_method`.
    scores:
        The score vector, aligned with the snapshot's paper indices.
    iterations:
        Iterations of the solve that produced :attr:`scores` (0 for
        closed-form/non-iterative methods).
    converged:
        Whether that solve converged (always true for closed forms).
    warm_started:
        Whether the solve was seeded from a previous solution.
    """

    label: str
    params: Mapping[str, Any]
    scores: FloatVector
    iterations: int
    converged: bool
    warm_started: bool


class ScoreIndex:
    """Versioned per-method score vectors over a network snapshot.

    Parameters
    ----------
    network:
        The snapshot to score.
    version:
        Starting version number (0 for a fresh index; :meth:`load`
        restores the persisted value).

    Examples
    --------
    >>> from repro.synth import toy_network
    >>> index = ScoreIndex(toy_network())
    >>> index.add_method("CC")
    >>> index.labels
    ('CC',)
    >>> int(index.scores("CC").argmax())   # A, the most cited toy paper
    0
    """

    def __init__(
        self, network: CitationNetwork, *, version: int = 0
    ) -> None:
        if network.n_papers == 0:
            raise ConfigurationError("cannot index an empty network")
        self._network = network
        self._version = int(version)
        self._entries: dict[str, MethodEntry] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def network(self) -> CitationNetwork:
        """The current snapshot."""
        return self._network

    @property
    def version(self) -> int:
        """Monotonic counter, bumped by every :meth:`refresh`."""
        return self._version

    @property
    def labels(self) -> tuple[str, ...]:
        """Registered method labels, in registration order."""
        return tuple(self._entries)

    def __contains__(self, label: object) -> bool:
        return isinstance(label, str) and label.upper() in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScoreIndex(version={self._version}, "
            f"methods={list(self._entries)}, "
            f"n_papers={self._network.n_papers})"
        )

    def entry(self, label: str) -> MethodEntry:
        """The full :class:`MethodEntry` for ``label``."""
        key = label.upper()
        try:
            return self._entries[key]
        except KeyError:
            known = ", ".join(self._entries) or "<none>"
            raise ConfigurationError(
                f"method {label!r} is not in the index "
                f"(indexed: {known})"
            ) from None

    def scores(self, label: str) -> FloatVector:
        """The score vector for ``label``, aligned with paper indices."""
        return self.entry(label).scores

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def add_method(self, label: str, **params: Any) -> MethodEntry:
        """Register a method and solve it cold on the current snapshot.

        ``params`` are the method's constructor keyword arguments; they
        are stored so that every later refresh re-instantiates exactly
        the same configuration.
        """
        key = label.upper()
        if key in self._entries:
            raise ConfigurationError(f"method {label!r} is already indexed")
        entry = self._solve_fused(
            {key: (dict(params), None)}, self._network
        )[key]
        self._entries[key] = entry
        return entry

    def refresh(
        self,
        network: CitationNetwork | None = None,
        *,
        warm: bool = True,
    ) -> dict[str, MethodEntry]:
        """Re-solve every indexed method and bump the version.

        Parameters
        ----------
        network:
            A replacement snapshot (the delta-update path passes the
            extended network).  It must contain at least the papers of
            the current snapshot, *in the same index positions* — the
            contract :meth:`CitationNetwork.extend` guarantees.  A
            network grown from the indexed one shares its id table and
            passes in O(1); any other has its id prefix compared, and a
            mismatch raises :class:`~repro.errors.ConfigurationError`.
            ``None`` re-solves on the unchanged snapshot.
        warm:
            Seed each method that supports it from its previous
            solution, grown to the new size (what
            :class:`~repro.serve.DeltaUpdater` does).  ``False`` solves
            every method from its canonical start, so the scores equal
            a fresh build's (:meth:`RankingService.refresh
            <repro.serve.RankingService.refresh>`).

        Notes
        -----
        The refresh is atomic: every method is re-solved against the
        new snapshot first, and the index state (network, entries,
        version) is only swapped once all solves succeeded.  A
        :class:`~repro.errors.ConvergenceError` mid-refresh therefore
        leaves the index exactly as it was, still serving the old
        version.
        """
        target = self._network
        if network is not None:
            if not network.is_extension_of(self._network):
                raise ConfigurationError(
                    "refresh network is not an extension of the indexed "
                    f"snapshot: it must start with its {self._network.n_papers}"
                    " paper ids, in order (the index only grows)"
                )
            target = network
        refreshed = self._solve_fused(
            {
                key: (dict(entry.params), entry.scores if warm else None)
                for key, entry in self._entries.items()
            },
            target,
        )
        chaos_point("index.refresh.swap")
        self._network = target
        self._entries = refreshed
        self._version += 1
        return dict(self._entries)

    def _solve_fused(
        self,
        specs: Mapping[str, tuple[dict[str, Any], FloatVector | None]],
        network: CitationNetwork,
    ) -> dict[str, MethodEntry]:
        """Solve ``{key: (params, previous)}`` through the fused solver.

        :func:`repro.core.fused.solve_methods` stacks the methods when
        enough of them share an operator and solves them one at a time
        otherwise, with bit-identical scores either way.  The
        per-method instruments (``repro_solver_solves_total``,
        ``repro_solver_last_*``) fire once per method.
        """
        from repro.core.fused import solve_methods

        keys = list(specs)
        methods = []
        warm_flags = []
        for key in keys:
            params, previous = specs[key]
            method = make_method(key, **params)
            is_warm = previous is not None and warm_startable(key)
            if is_warm:
                method.start_vector = grow_start_vector(
                    previous, network.n_papers
                )
            methods.append(method)
            warm_flags.append(is_warm)
        started = time.perf_counter()
        with span(
            "solver.solve_fused", methods=",".join(keys)
        ) as sp:
            solved = solve_methods(network, methods)
            if sp is not None:
                sp.set(papers=network.n_papers)
        elapsed = time.perf_counter() - started
        entries: dict[str, MethodEntry] = {}
        for key, is_warm, (scores, info) in zip(keys, warm_flags, solved):
            # Shared arrays are read-only throughout this codebase (see
            # CitationNetwork); the score vector doubles as the next
            # warm start and the ranking basis, so caller mutation must
            # fail loud.
            scores.setflags(write=False)
            iterations = info.iterations if info is not None else 0
            converged = info.converged if info is not None else True
            _SOLVES_TOTAL.inc(
                method=key, converged="true" if converged else "false"
            )
            _LAST_ITERATIONS.set(iterations, method=key)
            if info is not None:
                _LAST_RESIDUAL.set(info.residual, method=key)
            entries[key] = MethodEntry(
                label=key,
                params=specs[key][0],
                scores=scores,
                iterations=iterations,
                converged=converged,
                warm_started=is_warm,
            )
        _LOG.info(
            "solve_fused",
            extra={
                "methods": keys,
                "papers": network.n_papers,
                "iterations": {
                    key: entries[key].iterations for key in keys
                },
                "warm": [key for key, w in zip(keys, warm_flags) if w],
                "ms": round(elapsed * 1e3, 3),
            },
        )
        return entries

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Write the index (snapshot + scores + metadata) to ``path``.

        The write is atomic (temp file, fsync, rename): ``repro update``
        overwrites the live index in place, and an interrupted write
        must never destroy the only copy of the serving state.
        """
        payload = network_payload(self._network)
        for entry in self._entries.values():
            payload[f"scores/{entry.label}"] = entry.scores
        meta = {
            "version": self._version,
            "methods": [
                {
                    "label": entry.label,
                    "params": dict(entry.params),
                    "iterations": entry.iterations,
                    "converged": entry.converged,
                    "warm_started": entry.warm_started,
                }
                for entry in self._entries.values()
            ],
        }
        encode("index", meta, payload).save(path)

    @classmethod
    def load(cls, path: str) -> "ScoreIndex":
        """Read an index previously written by :meth:`save`.

        Every checksum is verified before anything is decoded, and the
        score vectors are copied out, so the loaded index does not pin
        the file's bytes.

        Raises
        ------
        IndexIntegrityError
            (A :class:`~repro.errors.DataFormatError`.)  If the file is
            missing, fails a checksum, is not an index file (a bare
            network file, say), or its pieces disagree: metadata fields
            missing, method labels unknown to the registry or
            duplicated, score vectors missing, undeclared, or of the
            wrong length, version numbers malformed.
        """
        chaos_point("index.load")
        decoded = read(path, kind="index", error=IndexIntegrityError)
        records = _validated_method_records(decoded.meta, source=path)
        network = network_from_payload(decoded)
        index = cls(network, version=records["version"])
        for record in records["methods"]:
            label = record["label"]
            scores = decoded.take(
                f"scores/{label}", "<f8", network.n_papers
            ).copy()
            scores.setflags(write=False)
            index._entries[label] = MethodEntry(
                label=label,
                params=record["params"],
                scores=scores,
                iterations=record["iterations"],
                converged=record["converged"],
                warm_started=record["warm_started"],
            )
        decoded.finish()
        return index


def _validated_method_records(
    meta: Mapping[str, Any], *, source: str
) -> dict[str, Any]:
    """Validate a persisted index's metadata block.

    Returns ``{"version": int, "methods": [normalised records]}``.
    Every failure raises :class:`IndexIntegrityError` — a loader must
    never surface a bare :class:`KeyError` from a truncated or
    hand-edited file.
    """
    try:
        version = int(meta["version"])
        raw_methods = meta["methods"]
    except (KeyError, TypeError, ValueError) as error:
        raise IndexIntegrityError(
            f"{source}: malformed index metadata ({error!r})"
        ) from None
    if version < 0:
        raise IndexIntegrityError(
            f"{source}: negative index version {version}"
        )
    if not isinstance(raw_methods, list):
        raise IndexIntegrityError(
            f"{source}: metadata 'methods' must be a list, "
            f"got {type(raw_methods).__name__}"
        )
    methods: list[dict[str, Any]] = []
    seen: set[str] = set()
    for record in raw_methods:
        try:
            label = str(record["label"])
            normalised = {
                "label": label,
                "params": dict(record["params"]),
                "iterations": int(record["iterations"]),
                "converged": bool(record["converged"]),
                "warm_started": bool(record["warm_started"]),
            }
        except (KeyError, TypeError, ValueError) as error:
            raise IndexIntegrityError(
                f"{source}: malformed method record ({error!r})"
            ) from None
        if label != label.upper() or label.upper() not in METHOD_REGISTRY:
            known = ", ".join(sorted(METHOD_REGISTRY))
            raise IndexIntegrityError(
                f"{source}: metadata names unknown method {label!r} "
                f"(registered: {known})"
            )
        if label in seen:
            raise IndexIntegrityError(
                f"{source}: metadata declares method {label!r} twice"
            )
        seen.add(label)
        methods.append(normalised)
    return {"version": version, "methods": methods}
