"""Append-only id tables shared by every version of a growing corpus.

A stream of deltas turns one snapshot into a line of versions, each the
previous one plus a few papers.  Copying the id list and re-hashing the
id dict for every version would cost O(papers) per delta; an
:class:`IdTable` lets all the versions share both.

A version holds a ``(table, length)`` pair and sees positions
``0 .. length-1`` only: every lookup ignores positions at or past the
asking version's length.  Growing follows one rule:

* the newest version — the table's *tip*, whose length equals the
  table's — appends in place, in O(new ids);
* an older version copies its prefix into a new table first (O(length)),
  so it never changes what a newer version sees.

Both :class:`~repro.graph.CitationNetwork` and the serving layer's
shards (:class:`repro.serve.Shard`) keep their ids this way.  Appends
and lookups may run on different threads: appends hold the table's
lock, and a reader at an older length never looks at the positions an
append adds.
"""

from __future__ import annotations

from threading import Lock
from typing import Iterable, Sequence

__all__ = ["IdTable"]


class IdTable:
    """External ids in position order plus an id -> position dict.

    The dict is built on the first lookup, so a table that is only
    appended to and read by position never pays for it.
    """

    __slots__ = ("_ids", "_positions", "_lock")

    def __init__(self, ids: Iterable[str] = ()) -> None:
        self._ids: list[str] = list(ids)
        self._positions: dict[str, int] | None = None
        self._lock = Lock()

    def __len__(self) -> int:
        return len(self._ids)

    def __reduce__(self):
        return (IdTable, (self._ids,))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IdTable(len={len(self._ids)})"

    def _index(self) -> dict[str, int]:
        positions = self._positions
        if positions is None:
            with self._lock:
                positions = self._positions
                if positions is None:
                    positions = {pid: i for i, pid in enumerate(self._ids)}
                    self._positions = positions
        return positions

    def position(self, paper_id: object, length: int) -> int | None:
        """Position of ``paper_id`` below ``length``, or ``None``."""
        found = self._index().get(paper_id)  # type: ignore[call-overload]
        if found is None or found >= length:
            return None
        return found

    def id_at(self, position: int, length: int) -> str:
        """The id at ``position`` of the version of ``length`` ids.

        Negative positions count back from ``length``, as for a tuple.
        """
        if not -length <= position < length:
            raise IndexError(
                f"position {position} out of range for {length} ids"
            )
        return self._ids[position % length]

    def ids(self, start: int, stop: int) -> list[str]:
        """The ids at positions ``start .. stop-1``, as a new list."""
        return self._ids[start:stop]

    def unique(self) -> bool:
        """Whether no id repeats.

        Appends never add a repeat (callers check new ids against the
        prefix first), so only a table built from a sequence that
        already repeated an id fails this — and every version on such a
        table holds the repeat.
        """
        positions = self._index()
        with self._lock:
            return len(positions) == len(self._ids)

    def grown(self, length: int, new_ids: Sequence[str]) -> "IdTable":
        """The table holding the first ``length`` ids plus ``new_ids``.

        The caller guarantees that ``new_ids`` are distinct and absent
        from the first ``length`` ids.  When ``length`` is the tip, the
        ids are appended in place and ``self`` is returned; otherwise
        the prefix is copied into a new table first.
        """
        with self._lock:
            if len(self._ids) == length:
                table = self
            else:
                table = IdTable(self._ids[:length])
            start = len(table._ids)
            table._ids.extend(new_ids)
            if table._positions is not None:
                table._positions.update(
                    zip(new_ids, range(start, start + len(new_ids)))
                )
        return table
