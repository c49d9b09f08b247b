"""Request coalescing: many concurrent HTTP queries, one engine batch.

The PR-3 :class:`~repro.serve.QueryEngine` amortises shard fan-out over
a *batch* of queries — but HTTP requests arrive one at a time.  The
:class:`RequestCoalescer` closes that gap with the classic
natural-batching loop: requests park in a pending list, a single
worker task drains the list into one
:meth:`~repro.serve.RankingService.execute_batch` call, and every
request parked while the worker is busy accumulates into the next one.
Under light load batches have size 1 (no added latency); under heavy
load batch size grows with concurrency, which is exactly when
amortisation pays.

Batches run *on the event loop*, inline in the worker task: a read
batch is short, and handing it to an executor thread and back (a
thread wake-up, a hand-off of the interpreter lock, a wake-up of the
loop) cost more CPU than the batch itself.  The price is that a slow
batch stalls the loop for its whole duration, and admission decisions,
socket reads and response writes wait behind it; requests whose bytes
arrive meanwhile are parsed afterwards and park together for the next
batch.  Slow batches are the exception: an injected
``gateway.batch.execute`` delay, or the first touch of a shard of a
store file, which decodes that shard's ids.  When more requests are pending
than one batch takes, the worker yields to the loop between batches,
so each batch's responses are written before the next batch runs.
Only the stream updater's micro-batches
(:meth:`RequestCoalescer.exclusively`), each a re-solve of the index,
run in the default executor, and reads keep being answered while one
applies.

Correctness guarantees:

* **Bit-identical results.**  A coalesced query is answered by the same
  engine, at one pinned store generation, as a direct
  :class:`~repro.serve.RankingService` call — the PR-3 equivalence
  property carries over unchanged, and every response is stamped with
  the index version it was computed at.
* **No torn reads during live updates.**  Each batch pins the
  published :class:`~repro.serve.StoreSnapshot` once, and the updater
  publishes a version as one snapshot swap, so a batch is answered
  entirely at the version before a swap or entirely at the one after
  it, whatever the updater is doing meanwhile.
* **Per-query failure attribution.**  A batch that fails to plan
  (unknown method, bad page, unknown paper id) is retried query by
  query, every retry on one pinned snapshot, so one bad request gets
  its typed error while the rest of the batch is served normally, all
  at the version the batch is stamped with.
"""

from __future__ import annotations

import asyncio
import contextvars
from typing import Any, Callable, Sequence, Union

from repro.chaos.points import chaos_point
from repro.errors import GatewayError, ReproError
from repro.obs.logging import current_request_id
from repro.obs.profile import profile_phase
from repro.obs.registry import Histogram
from repro.obs.trace import span
from repro.serve.batch import Query, QueryEngine, execute_with_attribution
from repro.serve.service import RankingService

__all__ = ["RequestCoalescer"]

Backend = Union[RankingService, QueryEngine]


class RequestCoalescer:
    """Batch concurrent queries onto one serving backend.

    Parameters
    ----------
    backend:
        A :class:`~repro.serve.RankingService` (batches flow through
        its LRU result cache via :meth:`~RankingService.execute_batch`)
        or a bare :class:`~repro.serve.QueryEngine` (cache-less — the
        detached shard-directory serving mode).
    max_batch:
        Largest single engine batch; pending requests beyond it wait
        for the next drain (they are not shed — that is admission's
        job).
    batch_sizes:
        Optional :class:`~repro.obs.registry.Histogram` (unlabelled)
        that records the size of every executed batch.

    Examples
    --------
    >>> import asyncio
    >>> from repro.serve import RankingService, ScoreIndex, TopKQuery
    >>> from repro.synth import toy_network
    >>> index = ScoreIndex(toy_network())
    >>> index.add_method("CC")
    >>> async def main():
    ...     coalescer = RequestCoalescer(RankingService(index))
    ...     await coalescer.start()
    ...     try:
    ...         return await coalescer.submit(TopKQuery(method="CC", k=2))
    ...     finally:
    ...         await coalescer.close()
    >>> version, page = asyncio.run(main())
    >>> (version, page.paper_ids)
    (0, ('A', 'C'))
    """

    def __init__(
        self,
        backend: Backend,
        *,
        max_batch: int = 128,
        batch_sizes: Histogram | None = None,
    ) -> None:
        if max_batch < 1:
            raise GatewayError(
                f"max_batch must be >= 1, got {max_batch}"
            )
        self._backend = backend
        self._max_batch = int(max_batch)
        self._batch_sizes = batch_sizes
        # (query, future, submitter context, submitter request id):
        # the worker task has a context of its own, so the batch is
        # executed under the first submitter's copied context — the
        # engine's spans and log lines join that leader request's
        # trace, with the whole batch's request ids attached as attrs.
        self._pending: list[
            tuple[Query, asyncio.Future, contextvars.Context, str | None]
        ] = []
        self._wakeup = asyncio.Event()
        self._worker: asyncio.Task | None = None
        self._closed = False

    @property
    def backend(self) -> Backend:
        """The serving object batches execute against."""
        return self._backend

    @property
    def pending_count(self) -> int:
        """Requests parked for the next drain."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the drain worker (idempotent)."""
        if self._closed:
            raise GatewayError("coalescer is closed")
        if self._worker is None:
            self._worker = asyncio.ensure_future(self._run())

    async def close(self) -> None:
        """Drain everything already submitted, then stop the worker.

        Part of the graceful-shutdown path: requests admitted before
        the drain began still get real answers; only *new* submits are
        refused (with :class:`~repro.errors.GatewayError`).
        """
        self._closed = True
        self._wakeup.set()
        if self._worker is not None:
            await self._worker
            self._worker = None

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------
    async def submit(self, query: Query) -> tuple[int, Any]:
        """Park one query, await its batch, return ``(version, result)``.

        Raises the query's own typed :class:`~repro.errors.ReproError`
        on failure (unknown method/paper, invalid page), or
        :class:`~repro.errors.GatewayError` if the coalescer is
        draining.
        """
        if self._closed:
            raise GatewayError(
                "gateway is draining; no new requests accepted"
            )
        if self._worker is None:
            await self.start()
        future: asyncio.Future = (
            asyncio.get_running_loop().create_future()
        )
        self._pending.append(
            (
                query,
                future,
                contextvars.copy_context(),
                current_request_id(),
            )
        )
        self._wakeup.set()
        return await future

    async def exclusively(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` in the default executor, off the event loop.

        The stream updater applies index micro-batches through here,
        and reads keep being answered while one runs: a write publishes
        its version as one snapshot swap, and every batch pins one
        snapshot.  The caller's context rides along explicitly
        (``run_in_executor`` would not carry it), so the updater's
        trace and request id survive the thread hop.
        """
        ctx = contextvars.copy_context()
        return await asyncio.get_running_loop().run_in_executor(
            None, ctx.run, fn
        )

    # ------------------------------------------------------------------
    # The drain worker
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        while True:
            if not self._pending:
                if self._closed:
                    return
                self._wakeup.clear()
                # Re-check before sleeping: a submit may have landed
                # between the emptiness check and the clear.
                if not self._pending and not self._closed:
                    await self._wakeup.wait()
                continue
            batch = self._pending[: self._max_batch]
            del self._pending[: len(batch)]
            queries = [query for query, _, _, _ in batch]
            # The first submitter leads the batch: its copied context
            # carries its request id and open trace into the engine,
            # so the engine's spans nest under that request's tree.
            leader_ctx = batch[0][2]
            request_ids = [rid for _, _, _, rid in batch if rid]
            try:
                version, outcomes = leader_ctx.run(
                    self._execute_traced, queries, request_ids
                )
            except Exception as error:  # backend breakage
                for _, future, _, _ in batch:
                    if not future.done():
                        future.set_exception(error)
            else:
                if self._batch_sizes is not None:
                    self._batch_sizes.observe(len(batch))
                for (_, future, _, _), outcome in zip(batch, outcomes):
                    if future.done():  # client went away mid-batch
                        continue
                    if isinstance(outcome, ReproError):
                        future.set_exception(outcome)
                    else:
                        future.set_result((version, outcome))
            if self._pending:
                # The inline batch does not suspend, so a backlog
                # beyond max_batch would run batch after batch with the
                # loop stalled.  Yield once: this batch's submitters
                # write their responses before the next batch executes.
                await asyncio.sleep(0)

    def _backend_execute(
        self, queries: Sequence[Query]
    ) -> tuple[int, list[Any]]:
        """One batch on one pinned snapshot, failures attributed per query."""
        backend = self._backend
        execute = (
            backend.execute_batch
            if isinstance(backend, RankingService)
            else backend.execute_versioned
        )
        return execute_with_attribution(execute, queries, backend.sharded)

    def _execute_traced(
        self, queries: Sequence[Query], request_ids: Sequence[str]
    ) -> tuple[int, list[Any]]:
        """The worker's entry point: one traced engine batch.

        Runs on the event loop's thread under the leader's copied
        context, so the ``engine.batch`` span (annotated with every
        coalesced request id) lands in the leading request's trace.
        """
        with profile_phase("engine.batch"), span(
            "engine.batch",
            batch_size=len(queries),
            request_ids=list(request_ids),
        ) as sp:
            chaos_point("gateway.batch.execute")
            version, outcomes = self._backend_execute(queries)
            if sp is not None:
                sp.set(version=version)
        return version, outcomes
