"""Replaying an event log through the serving layer, in micro-batches.

:class:`StreamIngestor` is the write path of a live deployment: it
consumes an :class:`~repro.stream.EventLog` in order, accumulates
events into micro-batched :class:`~repro.serve.NetworkDelta`\\ s
(configurable batch-size and time-watermark policies, always cut at
paper-group boundaries), and drives each batch through
:meth:`RankingService.update` — i.e. through
:class:`~repro.serve.DeltaUpdater`'s warm-started re-solves and
:meth:`~repro.serve.ShardedScoreIndex.sync`'s shard routing.  Between
batches the service answers queries as usual; the ingestor is just a
second handle on the same serving state.

Determinism contract
--------------------
* Replay is *deterministic*: two replays of the same log with the same
  batch policy pass through bit-identical states at every batch
  boundary — which is what makes checkpoint/resume
  (:mod:`repro.stream.checkpoint`) exact rather than approximate.
* Mid-replay, score vectors are warm-started solutions: within solver
  tolerance (1e-12 L1) of the canonical solution, but not bit-equal to
  it — a warm power iteration stops at a different iterate than a cold
  one.
* :meth:`StreamIngestor.finalize` closes that gap: it re-solves the
  final snapshot cold (the canonical start), after which the scores
  are **bit-identical** to an offline batch compute over the full log
  (:func:`batch_compute`) — at any batch size, watermark, shard count,
  or resume point.  This is the invariant the property tests and the
  ``stream`` bench scenario enforce.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.chaos.points import chaos_point
from repro.errors import ConfigurationError, GraphError, StreamError
from repro.graph.builder import MissingRefPolicy
from repro.graph.citation_network import CitationNetwork
from repro.obs.logging import get_logger
from repro.obs.registry import REGISTRY
from repro.obs.trace import span
from repro.serve.delta import NetworkDelta
from repro.serve.score_index import MethodEntry, ScoreIndex
from repro.serve.service import RankingService
from repro.stream.events import EventLog

__all__ = [
    "StreamIngestor",
    "BatchReport",
    "ReplayReport",
    "network_from_log",
    "batch_compute",
]

#: Default methods a stream deployment keeps live.
DEFAULT_METHODS = ("AR", "PR", "CC")

_LOG = get_logger("stream")

_BATCH_SECONDS = REGISTRY.histogram(
    "repro_stream_batch_seconds",
    "Wall-clock seconds per applied stream micro-batch.",
)
_EVENTS_TOTAL = REGISTRY.counter(
    "repro_stream_events_total",
    "Events consumed from the stream, by kind.",
    ["kind"],
)
_EVENT_LAG = REGISTRY.gauge(
    "repro_stream_event_lag",
    "Events still unconsumed in the attached log.",
)


@dataclass(frozen=True)
class BatchReport:
    """What one :meth:`StreamIngestor.step` call did.

    Attributes
    ----------
    batch:
        0-based batch number.
    offset_start, offset_end:
        Half-open event range ``[start, end)`` this batch consumed.
    n_papers, n_citations:
        Papers and citation edges the batch added.
    version:
        Index version after the batch (0 for the bootstrap batch).
    bootstrap:
        Whether this batch built the initial snapshot (cold solves)
        rather than applying a delta (warm re-solves).
    entries:
        Per-method entries after the batch (iteration counts of the
        solves included).
    touched_shards:
        Shards that gained papers (empty for the bootstrap batch).
    elapsed_seconds:
        Wall-clock time of the batch.
    """

    batch: int
    offset_start: int
    offset_end: int
    n_papers: int
    n_citations: int
    version: int
    bootstrap: bool
    entries: Mapping[str, MethodEntry]
    touched_shards: tuple[int, ...]
    elapsed_seconds: float

    @property
    def n_events(self) -> int:
        """Events consumed by this batch."""
        return self.offset_end - self.offset_start


@dataclass(frozen=True)
class ReplayReport:
    """Summary of one :meth:`StreamIngestor.replay` run.

    Attributes
    ----------
    n_batches, n_events:
        Batches applied and events consumed by *this* replay call.
    n_papers, n_citations:
        Size of the snapshot after the replay.
    version:
        Index version after the replay.
    exhausted:
        Whether the log was fully consumed.
    elapsed_seconds:
        Wall-clock time of the replay loop.
    events_per_second:
        Ingest throughput (events consumed / elapsed).
    """

    n_batches: int
    n_events: int
    n_papers: int
    n_citations: int
    version: int
    exhausted: bool
    elapsed_seconds: float

    @property
    def events_per_second(self) -> float:
        return (
            self.n_events / self.elapsed_seconds
            if self.elapsed_seconds > 0
            else float("inf")
        )


class StreamIngestor:
    """Consume an event log in micro-batches, updating a live service.

    Parameters
    ----------
    log:
        The event log to replay.
    methods:
        Method labels to solve and keep live (default AR, PR, CC).
    batch_size:
        Minimum events per micro-batch; each batch extends to the next
        paper-group boundary at or past this size, so a paper's
        citation events always travel with the paper.
    bootstrap_size:
        Minimum events in the *first* batch, which builds the initial
        snapshot (default: ``batch_size``).  Methods that fit
        parameters from citation structure (AttRank's decay rate) need
        the bootstrap to contain citation events; raise this — or pin
        the parameter explicitly via ``method_params`` — when
        replaying with a tiny ``batch_size`` from the very first
        event.
    watermark_years:
        Optional time watermark: a batch also closes at the first
        group boundary whose event time is at least this far past the
        batch's first event.  ``None`` (default) disables the policy.
    shards, partitioner, cache_size:
        Serving-state configuration, passed to the
        :class:`~repro.serve.RankingService` built at bootstrap.
    missing_references:
        Policy for citations whose cited id is in neither the snapshot
        nor the log — ``"skip"`` (default) or ``"error"``, mirroring
        :class:`~repro.graph.NetworkBuilder`.
    method_params:
        Optional per-label constructor overrides, e.g.
        ``{"AR": {"alpha": 0.2}}``.

    Examples
    --------
    >>> from repro.stream import EventLog
    >>> from repro.synth import toy_network
    >>> ingestor = StreamIngestor(
    ...     EventLog.from_network(toy_network()),
    ...     methods=("CC",), batch_size=4,
    ... )
    >>> report = ingestor.replay()
    >>> (report.exhausted, report.n_papers)
    (True, 8)
    >>> ingestor.service.top_k("CC", k=2).paper_ids
    ('A', 'C')
    """

    def __init__(
        self,
        log: EventLog,
        methods: Sequence[str] = DEFAULT_METHODS,
        *,
        batch_size: int = 64,
        bootstrap_size: int | None = None,
        watermark_years: float | None = None,
        shards: int = 1,
        partitioner: str = "hash",
        cache_size: int = 128,
        missing_references: MissingRefPolicy = "skip",
        method_params: Mapping[str, Mapping[str, Any]] | None = None,
    ) -> None:
        if batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        if bootstrap_size is not None and bootstrap_size < 1:
            raise ConfigurationError(
                f"bootstrap_size must be >= 1, got {bootstrap_size}"
            )
        if watermark_years is not None and not (
            0 < watermark_years < math.inf
        ):
            raise ConfigurationError(
                "watermark_years must be finite and positive, "
                f"got {watermark_years}"
            )
        if len(log) == 0:
            raise StreamError("cannot ingest an empty event log")
        labels = tuple(m.upper() for m in methods)
        if not labels:
            raise ConfigurationError("at least one method is required")
        self._log = log
        self._methods = labels
        self._method_params = {
            str(k).upper(): dict(v) for k, v in (method_params or {}).items()
        }
        self._batch_size = int(batch_size)
        self._bootstrap_size = (
            self._batch_size if bootstrap_size is None else int(bootstrap_size)
        )
        self._watermark = (
            None if watermark_years is None else float(watermark_years)
        )
        self._shards = int(shards)
        self._partitioner = partitioner
        self._cache_size = int(cache_size)
        self._policy: MissingRefPolicy = missing_references
        self._offset = 0
        self._batches = 0
        self._index: ScoreIndex | None = None
        self._service: RankingService | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def log(self) -> EventLog:
        """The event log being replayed."""
        return self._log

    @property
    def offset(self) -> int:
        """Events consumed so far."""
        return self._offset

    @property
    def batches_applied(self) -> int:
        """Micro-batches applied so far (bootstrap included)."""
        return self._batches

    @property
    def exhausted(self) -> bool:
        """Whether every event of the log has been consumed."""
        return self._offset >= len(self._log)

    @property
    def batch_size(self) -> int:
        """Minimum events per micro-batch."""
        return self._batch_size

    @property
    def bootstrap_size(self) -> int:
        """Minimum events in the snapshot-building first batch."""
        return self._bootstrap_size

    @property
    def watermark_years(self) -> float | None:
        """Time-watermark batch policy (``None`` = disabled)."""
        return self._watermark

    @property
    def index(self) -> ScoreIndex:
        """The live score index (raises before the bootstrap batch)."""
        if self._index is None:
            raise StreamError(
                "no snapshot yet: the ingestor has not applied its "
                "bootstrap batch (call step() or replay())"
            )
        return self._index

    @property
    def service(self) -> RankingService:
        """The ranking service answering queries between batches."""
        if self._service is None:
            raise StreamError(
                "no serving state yet: the ingestor has not applied "
                "its bootstrap batch (call step() or replay())"
            )
        return self._service

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamIngestor(offset={self._offset}/{len(self._log)}, "
            f"batches={self._batches}, batch_size={self._batch_size}, "
            f"methods={list(self._methods)})"
        )

    # ------------------------------------------------------------------
    # Batching
    # ------------------------------------------------------------------
    def _next_cut(self) -> int:
        """The exclusive end of the next micro-batch.

        A cut is legal before any paper event (group boundary) and
        taken at the first legal position where the batch has reached
        ``batch_size`` events or the time watermark.  Without a
        trigger, the batch runs to the end of the log.  Both triggers
        only switch on as the position grows, so each is a binary
        search over the paper positions.
        """
        papers = self._log.paper_positions
        start = self._offset
        minimum = (
            self._bootstrap_size if self._index is None else self._batch_size
        )
        # ``closing`` indexes ``papers``: the paper event that closes
        # the batch, or ``len(papers)`` when none does.
        closing = int(np.searchsorted(papers, start + minimum))
        if self._watermark is not None:
            times = self._log.times
            start_time = float(times[start])
            first = int(np.searchsorted(papers, start, side="right"))
            closing = first + bisect.bisect_left(
                range(first, closing),
                True,
                key=lambda i: float(times[papers[i]]) - start_time
                >= self._watermark,
            )
        if closing == len(papers):
            return len(self._log)
        return int(papers[closing])

    def _published(self) -> int | None:
        """The index version, or ``None`` before the bootstrap."""
        return None if self._index is None else self._index.version

    def step(self) -> BatchReport:
        """Apply the next micro-batch; raise :class:`StreamError` at EOF.

        The batch is served once the service publishes it, as one
        snapshot swap.  A step that fails after the index took its
        batch (killed at the shard store's swap, say) still consumes
        the batch before the error propagates, so the next step applies
        the next batch instead of adding this one's papers twice.
        Readers stay on the last published version meanwhile, and the
        next write's sync publishes everything the index holds.
        """
        if self.exhausted:
            raise StreamError(
                f"event log exhausted after {self._offset} events; "
                "nothing left to replay"
            )
        started = time.perf_counter()
        start, cut = self._offset, self._next_cut()
        published = self._published()
        try:
            chaos_point("stream.step.apply")
            with span(
                "stream.step", batch=self._batches, events=cut - start
            ) as sp:
                if self._index is None:
                    report = self._bootstrap(cut, started)
                else:
                    report = self._apply_delta(cut, started)
                if sp is not None:
                    sp.set(version=report.version)
            chaos_point("stream.step.advance")
        except BaseException:
            if self._published() != published:
                self._offset = cut
                self._batches += 1
            raise
        self._offset = cut
        self._batches += 1
        _BATCH_SECONDS.observe(report.elapsed_seconds)
        positions = self._log.paper_positions
        papers = int(
            np.searchsorted(positions, cut) - np.searchsorted(positions, start)
        )
        _EVENTS_TOTAL.inc(papers, kind="paper")
        _EVENTS_TOTAL.inc(cut - start - papers, kind="citation")
        _EVENT_LAG.set(len(self._log) - cut)
        _LOG.debug(
            "stream batch",
            extra={
                "batch": report.batch,
                "events": report.n_events,
                "version": report.version,
                "lag": len(self._log) - cut,
                "ms": round(report.elapsed_seconds * 1e3, 3),
            },
        )
        return report

    def prefix_digest(self) -> str:
        """SHA-256 of the consumed prefix, ``log.digest(offset)``.

        Computed on demand, never per batch: the log extends its
        running hash from the furthest prefix it has hashed, so a
        checkpoint costs O(events since the last digest), not
        O(offset).
        """
        return self._log.digest(self._offset)

    def _bootstrap(self, cut: int, started: float) -> BatchReport:
        """Build the initial snapshot, index and service (cold solves)."""
        network = _network(self._log, cut, self._policy)
        index = ScoreIndex(network)
        for label in self._methods:
            index.add_method(label, **self._method_params.get(label, {}))
        service = RankingService(
            index,
            cache_size=self._cache_size,
            missing_references=self._policy,
            shards=self._shards,
            partitioner=self._partitioner,
        )
        # Published together, once both exist.
        self._index, self._service = index, service
        return BatchReport(
            batch=self._batches,
            offset_start=self._offset,
            offset_end=cut,
            n_papers=network.n_papers,
            n_citations=network.n_citations,
            version=index.version,
            bootstrap=True,
            entries={
                label: index.entry(label) for label in self._methods
            },
            touched_shards=(),
            elapsed_seconds=time.perf_counter() - started,
        )

    def _apply_delta(self, cut: int, started: float) -> BatchReport:
        """Turn the events up to ``cut`` into a delta and apply it warm."""
        log = self._log
        ids = log.ids
        papers: list[tuple[str, float]] = []
        citations: list[tuple[str, str]] = []
        # A batch starts at a paper event, so ``citing`` is set first.
        for event_time, paper, code in zip(
            log.times[self._offset:cut].tolist(),
            log.is_paper[self._offset:cut].tolist(),
            log.codes[self._offset:cut].tolist(),
        ):
            if paper:
                citing = ids[code]
                papers.append((citing, event_time))
            else:
                citations.append((citing, ids[code]))
        delta = NetworkDelta(
            papers=tuple(papers), citations=tuple(citations)
        )
        assert self._service is not None
        update = self._service.update(delta)
        return BatchReport(
            batch=self._batches,
            offset_start=self._offset,
            offset_end=cut,
            n_papers=update.n_new_papers,
            n_citations=update.n_new_citations,
            version=update.version,
            bootstrap=False,
            entries=update.entries,
            touched_shards=update.touched_shards,
            elapsed_seconds=time.perf_counter() - started,
        )

    def replay(self, *, max_batches: int | None = None) -> ReplayReport:
        """Apply batches until the log is exhausted (or a batch budget).

        Parameters
        ----------
        max_batches:
            Stop after this many batches (``None`` = run to the end).
            A partial replay leaves the ingestor ready to continue —
            the checkpoint/resume path uses exactly this.
        """
        if max_batches is not None and max_batches < 1:
            raise ConfigurationError(
                f"max_batches must be >= 1, got {max_batches}"
            )
        started = time.perf_counter()
        events_before = self._offset
        batches = 0
        while not self.exhausted:
            if max_batches is not None and batches >= max_batches:
                break
            self.step()
            batches += 1
        network = self.index.network
        return ReplayReport(
            n_batches=batches,
            n_events=self._offset - events_before,
            n_papers=network.n_papers,
            n_citations=network.n_citations,
            version=self.index.version,
            exhausted=self.exhausted,
            elapsed_seconds=time.perf_counter() - started,
        )

    def finalize(self) -> dict[str, MethodEntry]:
        """Re-solve the current snapshot cold, canonicalising the scores.

        Warm-started replay scores agree with the canonical batch
        solution to solver tolerance; this refresh re-anchors them at
        the bit-exact canonical fixed point (a cold solve from the
        uniform start is fully deterministic), so a finalized replay is
        bit-identical to :func:`batch_compute` over the same events —
        regardless of batch size, shard count, or resume history.  The
        refresh goes through :meth:`RankingService.refresh`, so the
        canonical scores are published (one snapshot swap, the result
        cache dropped) before this returns.
        """
        return self.service.refresh()

    def checkpoint(self, directory: str) -> str:
        """Persist the replay state for :meth:`resume`; returns the path.

        See :class:`repro.stream.Checkpoint` for the layout.
        """
        from repro.stream.checkpoint import Checkpoint

        return Checkpoint.capture(self).save(directory)

    @classmethod
    def resume(
        cls,
        directory: str,
        log: EventLog,
        *,
        cache_size: int = 128,
    ) -> "StreamIngestor":
        """Rebuild an ingestor from a checkpoint and continue ``log``.

        The checkpoint's digest must match the prefix of ``log`` it
        claims to have consumed — resuming against a different stream
        raises :class:`~repro.errors.StreamError` instead of silently
        diverging.  The restored ingestor continues bit-identically to
        the run that wrote the checkpoint.
        """
        from repro.stream.checkpoint import Checkpoint

        state = Checkpoint.load(directory)
        state.verify_against(log)
        index = state.load_index(directory)
        ingestor = cls(
            log,
            methods=index.labels,
            batch_size=state.batch_size,
            watermark_years=state.watermark_years,
            shards=state.shards,
            partitioner=state.partitioner,
            cache_size=cache_size,
            missing_references=state.missing_references,
        )
        ingestor._offset = state.offset
        ingestor._batches = state.batches_applied
        ingestor._index = index
        ingestor._service = RankingService(
            index,
            cache_size=cache_size,
            missing_references=state.missing_references,
            shards=state.shards,
            partitioner=state.partitioner,
        )
        return ingestor


def network_from_log(
    log: EventLog,
    *,
    missing_references: MissingRefPolicy = "skip",
) -> CitationNetwork:
    """Build the full snapshot from a log in one pass (no micro-batching).

    This is the offline baseline the replay path is measured against:
    papers take dense indices in event order, exactly as an exhausted
    replay leaves them.
    """
    if len(log) == 0:
        raise StreamError("cannot build a network from an empty log")
    return _network(log, len(log), missing_references)


def _network(
    log: EventLog, stop: int, policy: MissingRefPolicy
) -> CitationNetwork:
    """The snapshot of the first ``stop`` events, built from the columns.

    It equals the network a :class:`~repro.graph.NetworkBuilder` builds
    from the same events fed one at a time: papers take dense indices
    in event order; a reference to an id with no paper event among
    these events is skipped, or raises :class:`GraphError` at the first
    one under ``"error"``; a repeated reference keeps its first
    occurrence.
    """
    if policy not in ("skip", "error"):
        raise GraphError(f"unknown missing-reference policy: {policy!r}")
    ids = log.ids
    is_paper = log.is_paper[:stop]
    codes = log.codes[:stop]
    papers = np.flatnonzero(is_paper)
    paper_codes = codes[papers]
    index_of = np.full(len(ids), -1, dtype=np.int64)
    index_of[paper_codes] = np.arange(papers.size)
    cites = np.flatnonzero(~is_paper)
    citing = np.searchsorted(papers, cites) - 1
    cited = index_of[codes[cites]]
    unknown = cited < 0
    if unknown.any():
        if policy == "error":
            first = int(np.argmax(unknown))
            raise GraphError(
                f"paper {ids[paper_codes[citing[first]]]!r} references "
                f"unknown paper {ids[codes[cites[first]]]!r}"
            )
        citing, cited = citing[~unknown], cited[~unknown]
    _, firsts = np.unique(citing * papers.size + cited, return_index=True)
    if firsts.size < citing.size:
        firsts.sort()
        citing, cited = citing[firsts], cited[firsts]
    return CitationNetwork(
        paper_ids=[ids[code] for code in paper_codes.tolist()],
        publication_times=log.times[papers],
        citing=citing,
        cited=cited,
    )


def batch_compute(
    log: EventLog,
    methods: Sequence[str] = DEFAULT_METHODS,
    *,
    missing_references: MissingRefPolicy = "skip",
    method_params: Mapping[str, Mapping[str, Any]] | None = None,
) -> ScoreIndex:
    """Cold batch compute over the full log — the canonical scores.

    Builds the snapshot with :func:`network_from_log` and solves every
    method cold.  A finalized replay of the same log produces
    bit-identical score vectors (see
    :meth:`StreamIngestor.finalize`).
    """
    index = ScoreIndex(network_from_log(log, missing_references=missing_references))
    params = {
        str(k).upper(): dict(v) for k, v in (method_params or {}).items()
    }
    for label in methods:
        key = label.upper()
        index.add_method(key, **params.get(key, {}))
    return index
