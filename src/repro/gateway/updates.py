"""Live index updates under traffic: the gateway's write path.

The paper's premise — rank by *current* short-term impact — only holds
if the serving index tracks the citation stream while queries keep
flowing.  :class:`StreamUpdater` is the background task that does this:
it drives a :class:`~repro.stream.StreamIngestor` (the replay engine)
one micro-batch at a time, each step run in the default executor via
:meth:`~repro.gateway.RequestCoalescer.exclusively`, so the event loop
keeps answering reads meanwhile.

One publication rule is the whole consistency story:

* a step (extend + warm re-solve + shard sync + cache invalidation,
  all inside :meth:`~repro.serve.RankingService.update`) builds the
  new version off to the side and publishes it as ONE
  :class:`~repro.serve.StoreSnapshot` swap;
* every coalesced read batch pins one published snapshot, so it is
  answered entirely at the version before a swap or entirely at the
  one after it — never a half-applied delta;
* a step killed before its swap publishes nothing, and reads carry on
  at the last published version.

Between steps the updater sleeps ``interval`` seconds.

Because the ingestor's replay is deterministic, a verification replica
replaying the same log with the same policy passes through
bit-identical index states — the load bench exploits this to check
every recorded gateway response against a direct service call at the
same version.
"""

from __future__ import annotations

import asyncio

from repro.chaos.points import chaos_point
from repro.errors import GatewayError
from repro.gateway.coalesce import RequestCoalescer
from repro.obs.logging import get_logger
from repro.obs.registry import Counter
from repro.obs.trace import start_trace
from repro.serve.service import RankingService
from repro.stream.ingest import BatchReport, StreamIngestor

__all__ = ["StreamUpdater"]

_LOG = get_logger("gateway.updates")


class StreamUpdater:
    """Apply stream micro-batches to a live gateway's serving state.

    Parameters
    ----------
    ingestor:
        The replay engine to drive.  Its bootstrap batch must already
        be applied (the gateway serves from ``ingestor.service``), and
        that service must be the coalescer's backend — updating a
        *different* index than the one being served would be a silent
        split-brain, so the constructor refuses it.
    coalescer:
        The read path being served; steps hop to the executor through
        it.
    interval:
        Seconds to sleep between micro-batches (0 yields to the event
        loop once per batch).
    max_batches:
        Stop after this many batches (``None`` = run the log dry).
    updates:
        Optional unlabelled :class:`~repro.obs.registry.Counter` of
        applied micro-batches.
    """

    def __init__(
        self,
        ingestor: StreamIngestor,
        coalescer: RequestCoalescer,
        *,
        interval: float = 0.01,
        max_batches: int | None = None,
        updates: Counter | None = None,
    ) -> None:
        backend = coalescer.backend
        if not isinstance(backend, RankingService):
            raise GatewayError(
                "live updates need a RankingService backend (a bare "
                "QueryEngine serves a detached store that cannot sync)"
            )
        if ingestor.service is not backend:
            raise GatewayError(
                "the updater's ingestor must drive the same "
                "RankingService the coalescer serves from"
            )
        if interval < 0:
            raise GatewayError(
                f"interval must be >= 0, got {interval}"
            )
        self._ingestor = ingestor
        self._coalescer = coalescer
        self._interval = float(interval)
        self._max_batches = max_batches
        self._updates = updates
        self._stopping = False
        self.batches_applied = 0
        self.versions_published: list[int] = []

    @property
    def exhausted(self) -> bool:
        """Whether the ingestor's log is fully consumed."""
        return self._ingestor.exhausted

    def stop(self) -> None:
        """Finish the in-flight batch, then return from :meth:`run`."""
        self._stopping = True

    def _step(self) -> BatchReport:
        """One micro-batch, in the executor thread.

        The fault point fires *here*, while reads are being answered on
        the loop, because that is where a killed updater is most
        hostile: every coalesced read must still see one untorn
        version.
        """
        chaos_point("gateway.update.step")
        return self._ingestor.step()

    async def run(self) -> int:
        """Apply micro-batches until the log (or the budget) runs out.

        Returns the number of batches applied by this call.  Intended
        to run as a background task next to the server; cancellation
        between batches is safe.
        """
        applied = 0
        while not self._ingestor.exhausted and not self._stopping:
            if (
                self._max_batches is not None
                and applied >= self._max_batches
            ):
                break
            # The trace opens *before* the executor handoff so the
            # ingest/delta/solver spans (run under this context's copy)
            # nest beneath one stream.update root per micro-batch.
            with start_trace("stream.update") as root:
                report = await self._coalescer.exclusively(self._step)
                if root is not None:
                    root.set(
                        version=report.version,
                        events=report.n_events,
                        batch=report.batch,
                    )
            applied += 1
            self.batches_applied += 1
            self.versions_published.append(report.version)
            if self._updates is not None:
                self._updates.inc()
            _LOG.info(
                "stream update",
                extra={
                    "version": report.version,
                    "batch": report.batch,
                    "events": report.n_events,
                    "papers": report.n_papers,
                    "citations": report.n_citations,
                    "touched_shards": len(report.touched_shards),
                    "ms": round(report.elapsed_seconds * 1e3, 3),
                },
            )
            await asyncio.sleep(self._interval)
        return applied
