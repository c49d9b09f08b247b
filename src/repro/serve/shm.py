"""Shared-memory score store: one index, many serving processes.

The single-process gateway already gets lock-free consistency from the
:class:`~repro.serve.StoreSnapshot` atomic-swap contract: readers pin a
snapshot object, the updater swaps one attribute, and the old snapshot
dies when its last reader drops.  This module extends exactly that
contract across process boundaries so ``repro serve-http --workers N``
can pre-fork N gateway workers that all answer from the *same* score
vectors without N copies of the index:

* :func:`export_snapshot` places a ``StoreSnapshot`` in one
  ``multiprocessing.shared_memory`` segment as exactly the bytes
  :meth:`~repro.serve.ShardedScoreIndex.save` writes to disk.
* :func:`attach_snapshot` checks every checksum of a segment and maps
  it back through the decoder :meth:`~repro.serve.ShardedScoreIndex.load`
  uses: numeric columns are read-only **zero-copy** numpy views over
  the shared pages, and a damaged segment is refused, never served.
* :class:`GenerationBoard` is the cross-process swap: a tiny shared
  segment holding the current generation number plus a refcounted
  slot table, mutated under one fork-inherited lock.  A publisher
  writes the new segment *first*, then flips the board; readers that
  pinned the old generation finish their batches on it, and the old
  segment is unlinked by whoever drops the **last** reference — the
  multi-process analogue of "old snapshot dies with its last reader".
* :class:`SharedStorePublisher` (updater side, exactly one process)
  and :class:`SharedStoreReader` (worker side) wrap the protocol.
  The reader duck-types ``ShardedScoreIndex`` — ``snapshot()`` /
  ``version`` / ``n_shards`` — so a stock
  :class:`~repro.serve.batch.QueryEngine` serves from shared memory
  unchanged.

Lifecycle notes that keep ``/dev/shm`` clean: every segment is
unregistered from the stdlib resource tracker at creation/attach time
(the tracker would otherwise unlink segments still mapped by sibling
processes — bpo-38119) and ownership moves to this protocol: the last
reader of a retired generation unlinks it, and
:meth:`GenerationBoard.destroy` (the supervisor's shutdown path)
unlinks everything that remains.  A reader that re-attaches a newer
generation keeps its old mapping object parked until every numpy view
into it has died — ``SharedMemory.close`` refuses (``BufferError``)
while views are live, which is exactly the guard we want — and retries
the unmap on the next generation swap.
"""

from __future__ import annotations

import os
import secrets
from multiprocessing import shared_memory
from multiprocessing.synchronize import Lock as ProcessLock
from typing import Any, Iterator

import numpy as np

from repro.errors import SharedStoreError
from repro.io.layout import decode
from repro.serve.shard import StoreSnapshot, decode_store, encode_store

__all__ = [
    "GenerationBoard",
    "SharedStorePublisher",
    "SharedStoreReader",
    "attach_snapshot",
    "board_name",
    "export_snapshot",
    "new_session",
    "segment_name",
]

# Board slot states.
_FREE, _LIVE, _RETIRED = 0, 1, 2
_BOARD_MAGIC = 0x5250_5242_4F52_4431  # "RPRBORD1"
_SLOTS = 16
_SLOT_BASE = 3  # [magic, current_generation, n_slots] then slot triples


def new_session() -> str:
    """A collision-resistant token naming one serving session's segments."""
    return f"{os.getpid()}x{secrets.token_hex(4)}"


def board_name(session: str) -> str:
    """The shared-memory name of a session's generation board."""
    return f"repro_shm_{session}_board"


def segment_name(session: str, generation: int) -> str:
    """The shared-memory name of one published generation."""
    return f"repro_shm_{session}_g{int(generation)}"


# ----------------------------------------------------------------------
# Tracker-safe creation / attachment
# ----------------------------------------------------------------------
def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Take ownership of cleanup away from the stdlib resource tracker.

    The tracker unlinks every registered segment when the *first*
    registering process tree exits — fatal when sibling workers still
    map it (bpo-38119).  This protocol unlinks explicitly instead: the
    last reader of a retired generation, or the supervisor's
    ``destroy``.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass


def _create(name: str, size: int) -> shared_memory.SharedMemory:
    try:
        shm = shared_memory.SharedMemory(name=name, create=True, size=size)
    except FileExistsError as exc:
        raise SharedStoreError(
            f"shared-memory segment {name!r} already exists; "
            "is another serving session using this name?"
        ) from exc
    _untrack(shm)
    return shm


def _attach(name: str) -> shared_memory.SharedMemory:
    try:
        try:
            # Python >= 3.13 can skip tracker registration outright.
            shm = shared_memory.SharedMemory(name=name, track=False)
            return shm
        except TypeError:
            shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError as exc:
        raise SharedStoreError(
            f"shared-memory segment {name!r} does not exist "
            "(publisher gone, or generation already unlinked)"
        ) from exc
    _untrack(shm)
    return shm


def _abandon(segment: shared_memory.SharedMemory) -> None:
    """Leak a mapping on purpose at final teardown.

    Called only when views are still exported at ``close()`` time:
    unmapping under them would be unsafe, and leaving the object for
    ``__del__`` prints "Exception ignored: BufferError" at interpreter
    shutdown.  Dropping the handles lets process exit reclaim the
    mapping (and the fd) silently — the segment itself is unlinked by
    the generation protocol regardless.
    """
    segment._buf = None
    segment._mmap = None


def _unlink(name: str) -> None:
    """Unlink a segment by name; missing segments are not an error.

    Goes straight to ``shm_unlink`` rather than through
    ``SharedMemory.unlink`` — the stdlib path would also *unregister*
    the name with the resource tracker, which we already did at
    create/attach time, and a double unregister makes the tracker
    daemon print spurious ``KeyError`` tracebacks.
    """
    posix = getattr(shared_memory, "_posixshmem", None)
    try:
        if posix is not None:
            posix.shm_unlink("/" + name)
        else:  # pragma: no cover - non-POSIX fallback
            segment = shared_memory.SharedMemory(name=name)
            segment.unlink()
            segment.close()
    except FileNotFoundError:
        pass


# ----------------------------------------------------------------------
# Segments
# ----------------------------------------------------------------------
def export_snapshot(
    name: str, snapshot: StoreSnapshot
) -> shared_memory.SharedMemory:
    """Place a snapshot in one new shared segment, as a store file.

    Returns the created (and fully written) ``SharedMemory``; the
    caller owns the mapping and usually closes it right away — the
    segment itself lives until unlinked by the generation protocol.
    """
    encoded = encode_store(snapshot)
    shm = _create(name, encoded.size)
    try:
        encoded.into(shm.buf)
    except BaseException:
        shm.close()
        _unlink(name)
        raise
    return shm


def attach_snapshot(
    name: str,
) -> tuple[shared_memory.SharedMemory, StoreSnapshot]:
    """Check a published segment and map it back into a snapshot.

    Numeric columns are zero-copy views over the shared pages; each
    shard's ids are decoded on its first access.  Keep the returned
    mapping referenced for as long as any view into the snapshot may
    be alive.  A missing, damaged or malformed segment raises
    :class:`~repro.errors.SharedStoreError`.
    """
    shm = _attach(name)
    try:
        snapshot = decode_store(
            decode(
                shm.buf,
                kind="store",
                source=f"segment {name!r}",
                error=SharedStoreError,
            )
        )
    except BaseException:
        try:
            shm.close()
        except BufferError:
            # Views of a half-decoded segment live on in the traceback;
            # the mapping goes when they do.
            _abandon(shm)
        raise
    return shm, snapshot


# ----------------------------------------------------------------------
# The generation board
# ----------------------------------------------------------------------
class GenerationBoard:
    """Cross-process current-generation pointer + reader refcounts.

    A fixed table of ``(generation, readers, state)`` slots plus the
    current generation number, in one small shared segment, mutated
    under a single fork-inherited lock.  ``publish`` retires every
    older live generation (unlinking the ones nobody reads any more),
    ``acquire``/``release`` pin and unpin generations for readers, and
    whoever drops the last reference to a retired generation unlinks
    its segment.  The unlocked :attr:`current` peek is one aligned
    8-byte read — the fast path readers poll between batches.
    """

    def __init__(
        self,
        session: str,
        lock: ProcessLock,
        shm: shared_memory.SharedMemory,
    ) -> None:
        self.session = session
        self._lock = lock
        self._shm = shm
        self._cells: np.ndarray | None = np.frombuffer(
            shm.buf, dtype=np.int64, count=_SLOT_BASE + 3 * _SLOTS
        )
        if self._cells[0] != _BOARD_MAGIC:
            cells = self._cells
            self._cells = None
            del cells
            shm.close()
            raise SharedStoreError(
                f"segment {board_name(session)!r} is not a generation "
                "board (bad magic)"
            )

    @classmethod
    def create(cls, session: str, lock: ProcessLock) -> "GenerationBoard":
        size = (_SLOT_BASE + 3 * _SLOTS) * 8
        shm = _create(board_name(session), size)
        cells = np.frombuffer(shm.buf, dtype=np.int64, count=_SLOT_BASE + 3 * _SLOTS)
        cells[:] = 0
        cells[1] = -1  # no generation published yet
        cells[2] = _SLOTS
        for slot in range(_SLOTS):
            cells[_SLOT_BASE + 3 * slot] = -1
        cells[0] = _BOARD_MAGIC
        del cells
        return cls(session, lock, shm)

    @classmethod
    def attach(cls, session: str, lock: ProcessLock) -> "GenerationBoard":
        return cls(session, lock, _attach(board_name(session)))

    # -- unlocked fast path --------------------------------------------
    @property
    def current(self) -> int:
        """The latest published generation (-1 before the first)."""
        cells = self._cells
        if cells is None:
            raise SharedStoreError("generation board is closed")
        return int(cells[1])

    # -- slot helpers (caller holds the lock) --------------------------
    def _slot_of(self, generation: int) -> int | None:
        cells = self._cells
        for slot in range(_SLOTS):
            base = _SLOT_BASE + 3 * slot
            if cells[base] == generation and cells[base + 2] != _FREE:
                return base
        return None

    def _drop_slot(self, base: int) -> None:
        cells = self._cells
        generation = int(cells[base])
        cells[base] = -1
        cells[base + 1] = 0
        cells[base + 2] = _FREE
        _unlink(segment_name(self.session, generation))

    # -- protocol ------------------------------------------------------
    def publish(self, generation: int) -> None:
        """Flip the current pointer; retire older live generations.

        The caller must have fully written the generation's segment
        *before* publishing — readers may attach the instant this
        returns.
        """
        cells = self._cells
        if cells is None:
            raise SharedStoreError("generation board is closed")
        with self._lock:
            for slot in range(_SLOTS):
                base = _SLOT_BASE + 3 * slot
                if cells[base + 2] == _LIVE and cells[base] != generation:
                    if cells[base + 1] == 0:
                        self._drop_slot(base)
                    else:
                        cells[base + 2] = _RETIRED
            free = next(
                (
                    _SLOT_BASE + 3 * slot
                    for slot in range(_SLOTS)
                    if cells[_SLOT_BASE + 3 * slot + 2] == _FREE
                ),
                None,
            )
            if free is None:
                raise SharedStoreError(
                    f"generation board full: {_SLOTS} generations are "
                    "still pinned by readers"
                )
            cells[free] = generation
            cells[free + 1] = 0
            cells[free + 2] = _LIVE
            cells[1] = generation

    def acquire(self) -> int:
        """Pin the current generation for reading; returns its number."""
        cells = self._cells
        if cells is None:
            raise SharedStoreError("generation board is closed")
        with self._lock:
            current = int(cells[1])
            if current < 0:
                raise SharedStoreError(
                    "no generation published yet on board "
                    f"{board_name(self.session)!r}"
                )
            base = self._slot_of(current)
            assert base is not None, "current generation has no slot"
            cells[base + 1] += 1
            return current

    def release(self, generation: int) -> None:
        """Unpin; the last reader of a retired generation unlinks it."""
        cells = self._cells
        if cells is None:
            return
        with self._lock:
            base = self._slot_of(generation)
            if base is None:  # already destroyed (shutdown race)
                return
            cells[base + 1] = max(0, int(cells[base + 1]) - 1)
            if cells[base + 2] == _RETIRED and cells[base + 1] == 0:
                self._drop_slot(base)

    def generations(self) -> dict[int, dict[str, int]]:
        """A locked view of the slot table (diagnostics and tests)."""
        cells = self._cells
        if cells is None:
            return {}
        with self._lock:
            table = {}
            for slot in range(_SLOTS):
                base = _SLOT_BASE + 3 * slot
                if cells[base + 2] != _FREE:
                    table[int(cells[base])] = {
                        "readers": int(cells[base + 1]),
                        "retired": int(cells[base + 2] == _RETIRED),
                    }
            return table

    def close(self) -> None:
        """Drop this process's mapping (the board itself lives on)."""
        if self._cells is None:
            return
        self._cells = None
        self._shm.close()

    def destroy(self) -> None:
        """Owner shutdown: unlink every remaining segment + the board."""
        if self._cells is not None:
            with self._lock:
                for slot in range(_SLOTS):
                    base = _SLOT_BASE + 3 * slot
                    if self._cells[base + 2] != _FREE:
                        self._drop_slot(base)
                self._cells[1] = -1
        self.close()
        _unlink(board_name(self.session))


# ----------------------------------------------------------------------
# Publisher / reader
# ----------------------------------------------------------------------
class SharedStorePublisher:
    """The single-process updater side of the generation protocol.

    Owns the board and the generation counter; ``publish`` packs a
    snapshot into a fresh segment, flips the board, and lets the
    refcount protocol reap superseded generations.
    """

    def __init__(
        self, session: str | None = None, *, lock: ProcessLock | None = None
    ) -> None:
        import multiprocessing

        self.session = session or new_session()
        self.lock = (
            lock
            if lock is not None
            else multiprocessing.get_context("fork").Lock()
        )
        self.board = GenerationBoard.create(self.session, self.lock)
        self._next_generation = 0
        self.published = 0

    def publish(self, snapshot: StoreSnapshot) -> int:
        """Publish one generation; returns its number."""
        generation = self._next_generation
        shm = export_snapshot(
            segment_name(self.session, generation), snapshot
        )
        shm.close()  # this process never reads it; the segment remains
        self.board.publish(generation)
        self._next_generation = generation + 1
        self.published += 1
        return generation

    def close(self) -> None:
        """Tear the session down: unlink every segment and the board."""
        self.board.destroy()

    def __enter__(self) -> "SharedStorePublisher":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class SharedStoreReader:
    """A worker's view of the shared store; duck-types the shard store.

    Exposes exactly the surface :class:`~repro.serve.batch.QueryEngine`
    (and the gateway's health endpoint) consume — ``snapshot()``,
    ``version``, ``n_shards``, ``n_papers``, ``labels`` — so a worker
    process serves from shared memory with the stock engine.
    ``snapshot()`` peeks the board's current generation (one unlocked
    8-byte read); on a change it pins the new generation, releases the
    old one, and parks the old mapping until every numpy view into it
    has died (``BufferError`` from ``close`` means "still in use" —
    retried on later swaps).
    """

    def __init__(self, session: str, lock: ProcessLock) -> None:
        self._board = GenerationBoard.attach(session, lock)
        self._generation: int | None = None
        self._segment: shared_memory.SharedMemory | None = None
        self._snapshot: StoreSnapshot | None = None
        self._parked: list[shared_memory.SharedMemory] = []
        try:
            self._refresh()
        except BaseException:
            self._board.close()
            raise

    # -- ShardedScoreIndex surface -------------------------------------
    def snapshot(self) -> StoreSnapshot:
        """The current generation's snapshot (pin happens on change)."""
        if self._board.current != self._generation:
            self._refresh()
        assert self._snapshot is not None
        return self._snapshot

    @property
    def version(self) -> int:
        return self.snapshot().version

    @property
    def n_shards(self) -> int:
        return self.snapshot().n_shards

    @property
    def n_papers(self) -> int:
        return self.snapshot().n_papers

    @property
    def labels(self) -> tuple[str, ...]:
        return self.snapshot().labels

    @property
    def partitioner(self) -> str:
        return self.snapshot().partitioner

    @property
    def generation(self) -> int | None:
        """The pinned generation number (diagnostics and tests)."""
        return self._generation

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SharedStoreReader(session={self._board.session!r}, "
            f"generation={self._generation})"
        )

    # -- internals -----------------------------------------------------
    def _refresh(self) -> None:
        generation = self._board.acquire()
        if generation == self._generation:
            # Raced with our own peek; drop the double pin.
            self._board.release(generation)
            return
        try:
            segment, snapshot = attach_snapshot(
                segment_name(self._board.session, generation)
            )
        except BaseException:
            # A refused (say, corrupted) generation stays unpinned, so
            # the board can still reap it.
            self._board.release(generation)
            raise
        old_generation, old_segment = self._generation, self._segment
        self._generation = generation
        self._segment = segment
        self._snapshot = snapshot
        if old_generation is not None:
            self._board.release(old_generation)
            if old_segment is not None:
                self._parked.append(old_segment)
        self._prune()

    def _prune(self) -> None:
        still_exported = []
        for segment in self._parked:
            try:
                segment.close()
            except BufferError:
                still_exported.append(segment)
        self._parked = still_exported

    def close(self) -> None:
        """Release the pinned generation and this process's mappings."""
        if self._generation is not None:
            self._board.release(self._generation)
            if self._segment is not None:
                self._parked.append(self._segment)
            self._generation = None
            self._segment = None
            self._snapshot = None
        self._prune()
        for segment in self._parked:  # views still live: leak quietly
            _abandon(segment)
        self._parked = []
        self._board.close()

    def __enter__(self) -> "SharedStoreReader":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def iter_repro_segments() -> Iterator[str]:
    """Names of this host's live ``repro_shm_*`` segments (``/dev/shm``).

    The chaos harness and the worker tests use this to prove clean
    shutdown: after a drained stop, no session segments remain.
    """
    root = "/dev/shm"
    try:
        entries = os.listdir(root)
    except OSError:  # pragma: no cover - non-Linux fallback
        return
    for entry in sorted(entries):
        if entry.startswith("repro_shm_"):
            yield entry
