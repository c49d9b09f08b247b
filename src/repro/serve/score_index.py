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
* :meth:`ScoreIndex.save` / :meth:`ScoreIndex.load` persist it as a
  single ``.npz`` file (network payload + score vectors + metadata), so
  a service restart never recomputes from scratch.

Every refresh bumps :attr:`ScoreIndex.version`; query-result caches key
on the version, which makes invalidation after updates automatic.
"""

from __future__ import annotations

import glob
import json
import os
import time
import zipfile
import zlib
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro._typing import FloatVector
from repro.baselines import METHOD_REGISTRY, make_method, warm_startable
from repro.chaos.points import chaos_point
from repro.core.power_iteration import grow_start_vector
from repro.errors import (
    ConfigurationError,
    DataFormatError,
    IndexIntegrityError,
)
from repro.graph.citation_network import CitationNetwork
from repro.io.serialize import network_from_payload, network_payload
from repro.obs.logging import get_logger
from repro.obs.registry import REGISTRY
from repro.obs.trace import span

__all__ = ["ScoreIndex", "MethodEntry", "INDEX_FORMAT_VERSION"]

INDEX_FORMAT_VERSION = 1

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
    solver_jobs:
        Thread count passed to the fused solver's row-chunked SpMV
        (``repro index --jobs`` / ``repro update --jobs``).  Scores are
        bit-identical for any value.

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
        self,
        network: CitationNetwork,
        *,
        version: int = 0,
        solver_jobs: int = 1,
    ) -> None:
        if network.n_papers == 0:
            raise ConfigurationError("cannot index an empty network")
        if solver_jobs < 1:
            raise ConfigurationError(
                f"solver_jobs must be >= 1, got {solver_jobs}"
            )
        self._network = network
        self._version = int(version)
        self._entries: dict[str, MethodEntry] = {}
        #: Thread count for the fused solver's row-chunked SpMV; results
        #: are bit-identical for any value (see repro.core.fused).
        self.solver_jobs = int(solver_jobs)

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
            solution, grown to the new size.  ``False`` forces cold
            solves (the benchmark's comparison baseline).

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
            solved = solve_methods(
                network, methods, jobs=self.solver_jobs
            )
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

        The write is atomic (temp file + rename): ``repro update``
        overwrites the live index in place, and an interrupted write
        must never destroy the only copy of the serving state.
        """
        payload = network_payload(self._network)
        meta = {
            "index_format_version": INDEX_FORMAT_VERSION,
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
        payload["index_meta"] = np.asarray([json.dumps(meta)], dtype=np.str_)
        for entry in self._entries.values():
            payload[f"index_scores__{entry.label}"] = entry.scores
        # Temp debris from a *crashed* earlier save (the cleanup below
        # only runs on live exceptions, not on a kill) is swept here,
        # on the next commit attempt — the same recovery moment the
        # checkpoint protocol uses.
        for stale in glob.glob(f"{glob.escape(path)}.tmp-*"):
            os.remove(stale)
        temp_path = f"{path}.tmp-{os.getpid()}"
        try:
            # A file handle keeps savez from appending ".npz" to the
            # temp name and lets us fsync before the rename.
            with open(temp_path, "wb") as handle:
                np.savez_compressed(handle, **payload)
                handle.flush()
                chaos_point("index.save.write")
                os.fsync(handle.fileno())
            chaos_point("index.save.fsync")
            os.replace(temp_path, path)
            chaos_point("index.save.replace")
        except Exception:
            # Deliberately narrower than a finally: an injected crash
            # (BaseException) must leave the same orphaned temp file a
            # real kill would, so the sweep above stays honest.
            if os.path.exists(temp_path):
                os.remove(temp_path)
            raise

    @classmethod
    def load(cls, path: str) -> "ScoreIndex":
        """Read an index previously written by :meth:`save`.

        Raises
        ------
        DataFormatError
            If the file is missing, is a bare network file rather than
            an index, or declares an unsupported index format version.
        IndexIntegrityError
            If the file parses as an index but its pieces disagree:
            metadata fields missing, method labels unknown to the
            registry or duplicated, score vectors missing, undeclared,
            or of the wrong length, version numbers malformed.  (A
            subclass of :class:`DataFormatError`.)
        """
        if not os.path.exists(path):
            raise DataFormatError(f"file not found: {path}")
        chaos_point("index.load")
        try:
            with np.load(path, allow_pickle=False) as archive:
                arrays = {name: archive[name] for name in archive.files}
        except DataFormatError:
            raise
        except (OSError, ValueError, zipfile.BadZipFile, zlib.error) as error:
            # np.load raises zipfile/OS errors on truncated archives
            # and directories, and zlib errors on bit-flipped deflate
            # data; a CLI caller must get a typed one-liner, not a
            # traceback.
            raise DataFormatError(
                f"{path}: not a readable .npz index ({error})"
            ) from None
        if "index_meta" not in arrays:
            raise DataFormatError(
                f"{path}: not a repro score index (missing index_meta; "
                "is this a bare network file?)"
            )
        meta = json.loads(str(arrays["index_meta"][0]))
        declared = int(meta.get("index_format_version", -1))
        if declared != INDEX_FORMAT_VERSION:
            raise DataFormatError(
                f"{path}: unsupported index format version {declared} "
                f"(this build reads version {INDEX_FORMAT_VERSION})"
            )
        records = _validated_method_records(meta, source=path)
        network = network_from_payload(arrays, source=path)
        index = cls(network, version=records["version"])
        declared_keys = set()
        for record in records["methods"]:
            label = record["label"]
            key = f"index_scores__{label}"
            declared_keys.add(key)
            if key not in arrays:
                raise IndexIntegrityError(
                    f"{path}: score vector for {label!r} is missing"
                )
            scores = np.asarray(arrays[key], dtype=np.float64)
            scores.setflags(write=False)
            if scores.shape != (network.n_papers,):
                raise IndexIntegrityError(
                    f"{path}: score vector for {label!r} has length "
                    f"{scores.size}, expected {network.n_papers}"
                )
            index._entries[label] = MethodEntry(
                label=label,
                params=record["params"],
                scores=scores,
                iterations=record["iterations"],
                converged=record["converged"],
                warm_started=record["warm_started"],
            )
        undeclared = sorted(
            name
            for name in arrays
            if name.startswith("index_scores__")
            and name not in declared_keys
        )
        if undeclared:
            raise IndexIntegrityError(
                f"{path}: score vectors not declared in the metadata: "
                f"{undeclared} — the file was assembled inconsistently"
            )
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
