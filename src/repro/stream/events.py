"""Citation-event logs — the corpus as a time-ordered stream.

The paper's methods rank a *snapshot*, but the snapshot itself is the
result of a stream: papers are published, and each arrives carrying its
reference list.  :class:`EventLog` holds that stream as an ordered
sequence of two event kinds:

* :class:`PaperEvent` — a paper is published at ``time``;
* :class:`CitationEvent` — the freshly published paper cites an
  existing one (the event's time is the citing paper's publication
  time).

The log is *grouped by construction*: every citation event follows the
paper event of its citing paper, with no other paper event in between.
This mirrors the serve layer's corpus model (reference lists of
published papers are fixed — :class:`~repro.serve.NetworkDelta` applies
the same rule), and it is what lets :class:`~repro.stream.StreamIngestor`
cut the log into micro-batches at any paper boundary without ever
splitting a paper from its references.

In memory the log is three columns, not one object per event: a
``float64`` time, a paper-or-cite flag, and an integer code into one id
table that holds each id string once.  A paper event's code names its
paper and a citation event's code its cited paper; the citing paper is
the nearest paper event before it, which grouping guarantees.
:class:`PaperEvent` and :class:`CitationEvent` objects are built on each
access (indexing, iteration, :attr:`EventLog.events`), and
:class:`~repro.stream.StreamIngestor` reads the columns directly.

Logs persist as JSONL (one event object per line), which streams,
appends, and diffs well; ``repr``-based float serialisation round-trips
``float64`` exactly, so a saved log replays bit-identically.
:meth:`EventLog.load` streams the file line by line into the columns.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import reprlib
import threading
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from repro._typing import FloatVector, IntVector
from repro.errors import DataFormatError, StreamError
from repro.graph.citation_network import CitationNetwork

__all__ = [
    "PaperEvent",
    "CitationEvent",
    "StreamEvent",
    "EventLog",
    "LOG_FORMAT_VERSION",
]

#: On-disk format version stamped into the JSONL header line.
LOG_FORMAT_VERSION = 1

_DECODER = json.JSONDecoder()


@dataclass(frozen=True, slots=True)
class PaperEvent:
    """A paper is published at ``time``."""

    time: float
    paper_id: str

    def to_payload(self) -> dict:
        """The JSONL object for this event."""
        return {"type": "paper", "time": self.time, "id": self.paper_id}


@dataclass(frozen=True, slots=True)
class CitationEvent:
    """The paper published at ``time`` (``citing``) cites ``cited``."""

    time: float
    citing: str
    cited: str

    def to_payload(self) -> dict:
        """The JSONL object for this event."""
        return {
            "type": "cite",
            "time": self.time,
            "citing": self.citing,
            "cited": self.cited,
        }


StreamEvent = Union[PaperEvent, CitationEvent]


def _event_line(event: StreamEvent) -> str:
    """Canonical JSONL line of one event (also the digest input)."""
    return json.dumps(event.to_payload(), sort_keys=True)


class _Appender:
    """Grows a log's columns one event at a time, checking the stream
    contract as it goes; every log is built through one.

    Ids enter the table in order of first appearance, so two equal
    event sequences give equal tables and equal codes.
    """

    __slots__ = (
        "times", "papers", "codes", "ids", "_code_of", "_published",
        "_current", "_last_time",
    )

    def __init__(self) -> None:
        self.times = array("d")
        self.papers = bytearray()
        self.codes = array("q")
        self.ids: list[str] = []
        self._code_of: dict[str, int] = {}
        self._published = bytearray()  # per code: a paper event named it
        self._current: str | None = None
        self._last_time = -math.inf

    def __len__(self) -> int:
        return len(self.times)

    def _code(self, paper_id: str) -> int:
        code = self._code_of.get(paper_id)
        if code is None:
            code = self._code_of[paper_id] = len(self.ids)
            self.ids.append(paper_id)
            self._published.append(0)
        return code

    def paper(self, time: float, paper_id: str) -> None:
        code = self._code(paper_id)
        if self._published[code]:
            raise StreamError(
                f"event {len(self)}: duplicate paper event for {paper_id!r}"
            )
        self._published[code] = 1
        self._current = paper_id
        self._append(time, 1, code)

    def cite(self, time: float, citing: str, cited: str) -> None:
        if citing != self._current:
            raise StreamError(
                f"event {len(self)}: citation from {citing!r} is detached "
                "from its citing paper's event (published papers cannot "
                "gain references — a citation event must follow its "
                "citing paper's event block)"
            )
        if cited == citing:
            raise StreamError(
                f"event {len(self)}: self-citation of {citing!r}"
            )
        self._append(time, 0, self._code(cited))

    def _append(self, time: float, paper: int, code: int) -> None:
        if not math.isfinite(time):
            raise StreamError(f"event {len(self)}: non-finite event time")
        if time < self._last_time:
            raise StreamError(
                f"event {len(self)}: time {time} precedes the previous "
                f"event's {self._last_time} — logs are time-ordered"
            )
        self._last_time = time
        self.times.append(time)
        self.papers.append(paper)
        self.codes.append(code)


def _frozen(values, dtype) -> np.ndarray:
    column = np.array(values, dtype=dtype)
    column.setflags(write=False)
    return column


class EventLog:
    """An immutable, validated, time-ordered sequence of stream events.

    Parameters
    ----------
    events:
        The events, already in arrival order.  Construction validates
        the streaming contract: event times never decrease, paper ids
        are unique, and every citation event immediately follows its
        citing paper's event block (grouping — see the module
        docstring).  Cited ids are *not* required to be in the log;
        out-of-collection references are resolved by the ingest
        policy, exactly like :class:`~repro.graph.NetworkBuilder`.

    Examples
    --------
    >>> from repro.synth import toy_network
    >>> log = EventLog.from_network(toy_network())
    >>> (log.n_papers, log.n_citations)
    (8, 13)
    >>> log[0]
    PaperEvent(time=1990.0, paper_id='A')
    """

    def __init__(self, events: Iterable[StreamEvent]) -> None:
        appender = _Appender()
        for event in events:
            if isinstance(event, PaperEvent):
                appender.paper(event.time, event.paper_id)
            elif isinstance(event, CitationEvent):
                appender.cite(event.time, event.citing, event.cited)
            else:
                raise StreamError(
                    f"event {len(appender)}: unsupported event type "
                    f"{type(event).__name__}"
                )
        self._adopt(appender)

    @classmethod
    def _built(cls, appender: _Appender) -> "EventLog":
        log = cls.__new__(cls)
        log._adopt(appender)
        return log

    def _adopt(self, appender: _Appender) -> None:
        self._times: FloatVector = _frozen(appender.times, np.float64)
        self._is_paper = _frozen(appender.papers, np.bool_)
        self._codes: IntVector = _frozen(appender.codes, np.int64)
        self._ids = tuple(appender.ids)
        self._paper_positions: IntVector = _frozen(
            np.flatnonzero(self._is_paper), np.int64
        )
        # Running SHA-256 over the canonical lines of the first
        # ``_hashed`` events: digest() extends it on demand, so a
        # replay that checkpoints as it goes hashes each event once.
        self._digest_lock = threading.Lock()
        self._hasher = hashlib.sha256()
        self._hashed = 0

    # ------------------------------------------------------------------
    # Columns
    # ------------------------------------------------------------------
    @property
    def times(self) -> FloatVector:
        """Each event's time (read-only)."""
        return self._times

    @property
    def is_paper(self) -> np.ndarray:
        """Whether each event is a paper event (read-only booleans)."""
        return self._is_paper

    @property
    def codes(self) -> IntVector:
        """Each event's position in :attr:`ids` (read-only).

        A paper event's code names its paper, a citation event's code
        its cited paper; the citing paper is the paper event nearest
        before it.
        """
        return self._codes

    @property
    def ids(self) -> tuple[str, ...]:
        """Every paper and cited id of the log, once each, in order of
        first appearance."""
        return self._ids

    @property
    def paper_positions(self) -> IntVector:
        """Positions of the paper events, ascending (read-only)."""
        return self._paper_positions

    def _events(self, start: int, stop: int) -> Iterator[StreamEvent]:
        """The events at positions ``start .. stop-1``, built anew."""
        ids = self._ids
        citing = None
        if start < stop and not self._is_paper[start]:
            papers = self._paper_positions
            before = papers[np.searchsorted(papers, start) - 1]
            citing = ids[self._codes[before]]
        for time, paper, code in zip(
            self._times[start:stop].tolist(),
            self._is_paper[start:stop].tolist(),
            self._codes[start:stop].tolist(),
        ):
            if paper:
                citing = ids[code]
                yield PaperEvent(time, citing)
            else:
                yield CitationEvent(time, citing, ids[code])

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[StreamEvent]:
        return self._events(0, len(self))

    def __getitem__(self, index):
        if isinstance(index, slice):
            positions = range(*index.indices(len(self)))
            if positions.step == 1:
                return tuple(self._events(positions.start, positions.stop))
            return tuple(self[position] for position in positions)
        position = range(len(self))[index]
        return next(self._events(position, position + 1))

    def __eq__(self, other: object) -> bool:
        # Tables grow in order of first appearance, so equal event
        # sequences have equal tables and codes.
        return (
            isinstance(other, EventLog)
            and self._ids == other._ids
            and np.array_equal(self._codes, other._codes)
            and np.array_equal(self._is_paper, other._is_paper)
            and np.array_equal(self._times, other._times)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EventLog(n_events={len(self)}, "
            f"n_papers={self.n_papers}, n_citations={self.n_citations})"
        )

    @property
    def events(self) -> tuple[StreamEvent, ...]:
        """All events, in arrival order, built anew on each access."""
        return tuple(self)

    @property
    def n_papers(self) -> int:
        """Number of paper events in the log."""
        return len(self._paper_positions)

    @property
    def n_citations(self) -> int:
        """Number of citation events in the log."""
        return len(self) - self.n_papers

    def time_span(self) -> tuple[float, float]:
        """``(first, last)`` event times of a non-empty log."""
        if not len(self):
            raise StreamError("empty log has no time span")
        return (float(self._times[0]), float(self._times[-1]))

    def digest(self, upto: int | None = None) -> str:
        """SHA-256 over the canonical lines of the first ``upto`` events.

        Checkpoints store this digest so a resume can prove it is
        continuing the *same* stream it stopped in, not a log that
        happens to share a length.

        The log keeps its running hash at the furthest prefix hashed so
        far, so digests at growing offsets cost O(new events) each; an
        offset behind that prefix is hashed afresh.
        """
        count = len(self) if upto is None else int(upto)
        if count < 0 or count > len(self):
            raise StreamError(
                f"digest offset {count} out of range [0, {len(self)}]"
            )
        with self._digest_lock:
            extend = count >= self._hashed
            start = self._hashed if extend else 0
            # Hash into a copy, so a failed encode leaves the memo whole.
            hasher = self._hasher.copy() if extend else hashlib.sha256()
            for event in self._events(start, count):
                hasher.update(_event_line(event).encode("utf-8") + b"\n")
            if extend:
                self._hasher, self._hashed = hasher, count
            return hasher.hexdigest()

    # ------------------------------------------------------------------
    # Extraction from a snapshot
    # ------------------------------------------------------------------
    @classmethod
    def from_network(cls, network: CitationNetwork) -> "EventLog":
        """The event log whose replay reconstructs ``network``.

        Papers are emitted in chronological order (stable on the dense
        index for ties), each immediately followed by its citation
        events in reference-list order.  For a network whose paper
        indices are already chronological — every loader and generator
        in this repository produces such networks — replaying the log
        rebuilds the snapshot *bit-identically*, dense indices
        included.

        Raises
        ------
        StreamError
            If the network is not replayable as a stream: some paper
            cites a paper that would arrive after it (the network
            violates time order, cf.
            :meth:`CitationNetwork.validate(require_time_order=True)
            <repro.graph.CitationNetwork.validate>`).
        """
        n = network.n_papers
        times = network.publication_times
        order = np.lexsort((np.arange(n), times))
        position = np.empty(n, dtype=np.int64)
        position[order] = np.arange(n)
        citing, cited = network.citing, network.cited
        forward = np.flatnonzero(position[cited] >= position[citing])
        if forward.size:
            edge = int(forward[0])
            raise StreamError(
                f"paper {network.id_of(int(citing[edge]))!r} cites "
                f"{network.id_of(int(cited[edge]))!r}, which arrives "
                "later in the stream; only time-ordered networks "
                "can be replayed as event logs"
            )
        # Each paper's references, in edge order.
        by_citing = np.argsort(citing, kind="stable")
        bounds = np.searchsorted(citing[by_citing], np.arange(n + 1)).tolist()
        targets = cited[by_citing].tolist()
        ids = network.paper_ids
        time_of = times.tolist()
        appender = _Appender()
        for paper in order.tolist():
            paper_id, time = ids[paper], time_of[paper]
            appender.paper(time, paper_id)
            for target in targets[bounds[paper]:bounds[paper + 1]]:
                appender.cite(time, paper_id, ids[target])
        return cls._built(appender)

    # ------------------------------------------------------------------
    # JSONL persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Write the log as JSONL: a header line, then one event per line.

        The write is atomic (temp file + rename), matching the other
        persistence paths of this repository.
        """
        temp_path = f"{path}.tmp-{os.getpid()}"
        try:
            with open(temp_path, "w", encoding="utf-8") as handle:
                handle.write(
                    json.dumps(
                        {
                            "format": "repro-event-log",
                            "log_format_version": LOG_FORMAT_VERSION,
                            "n_events": len(self),
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
                for event in self:
                    handle.write(_event_line(event) + "\n")
            os.replace(temp_path, path)
        finally:
            if os.path.exists(temp_path):
                os.remove(temp_path)

    @classmethod
    def load(cls, path: str) -> "EventLog":
        """Read a log written by :meth:`save`, streaming its lines.

        Each line is parsed, type-checked and appended to the columns
        before the next is read, so the file is never held whole.

        Raises
        ------
        DataFormatError
            If the file is missing, is not an event log, declares an
            unsupported format version, or holds a line that is not
            UTF-8, not a JSON object, nested too deeply to parse, or
            not a well-typed event: ``time`` must be a JSON number
            that fits a float (not a boolean), and ``id``, ``citing``
            and ``cited`` must be strings.  The header's integers must
            be JSON integers.  Line errors name the file and line.
        StreamError
            If the events parse but violate the streaming contract.
        """
        if not os.path.exists(path):
            raise DataFormatError(f"file not found: {path}")
        appender = _Appender()
        with open(path, "rb") as handle:
            lines = enumerate(handle, start=1)
            first = next(lines, None)
            if first is None:
                raise DataFormatError(
                    f"{path}: empty file is not an event log"
                )
            header = _parse_line(path, 1, _decoded(path, *first))
            if header.get("format") != "repro-event-log":
                raise DataFormatError(
                    f"{path}: not a repro event log (missing header line)"
                )
            version = _header_int(path, header, "log_format_version", -1)
            if version != LOG_FORMAT_VERSION:
                raise DataFormatError(
                    f"{path}: unsupported log format version {version} "
                    f"(this build reads version {LOG_FORMAT_VERSION})"
                )
            declared = _header_int(path, header, "n_events")
            for number, raw in lines:
                line = _decoded(path, number, raw)
                if not line or line.isspace():
                    continue
                payload = _parse_line(path, number, line)
                _append_line(appender, path, number, payload)
        if declared is not None and declared != len(appender):
            raise DataFormatError(
                f"{path}: header declares {declared} events but the file "
                f"contains {len(appender)} — the log was truncated or "
                "concatenated"
            )
        return cls._built(appender)


def _decoded(path: str, number: int, raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as error:
        raise DataFormatError(
            f"{path}:{number}: not UTF-8 text ({error.reason})"
        ) from None


def _header_int(
    path: str, header: dict, key: str, default: int | None = None
) -> int | None:
    """A header integer: a JSON integer, never a boolean or a float."""
    value = header.get(key, default)
    if value is not None and type(value) is not int:
        raise DataFormatError(
            f"{path}: malformed {key} {reprlib.repr(value)}"
        )
    return value


def _parse_line(path: str, number: int, line: str) -> dict:
    """One line's JSON object (``raw_decode`` skips ``loads``' regexes)."""
    text = line.strip(" \t\r\n")
    try:
        payload, end = _DECODER.raw_decode(text)
    except ValueError as error:
        raise DataFormatError(
            f"{path}:{number}: invalid JSON ({error})"
        ) from None
    except RecursionError:
        raise DataFormatError(
            f"{path}:{number}: invalid JSON (nested too deeply)"
        ) from None
    if end != len(text):
        raise DataFormatError(
            f"{path}:{number}: invalid JSON (extra data at column {end + 1})"
        )
    if not isinstance(payload, dict):
        raise DataFormatError(
            f"{path}:{number}: expected a JSON object, got "
            f"{type(payload).__name__}"
        )
    return payload


def _append_line(
    appender: _Appender, path: str, number: int, payload: dict
) -> None:
    """Append the event one line describes; field types are checked,
    not coerced."""
    kind = payload.get("type")
    if kind != "paper" and kind != "cite":
        raise DataFormatError(
            f"{path}:{number}: unknown event type {reprlib.repr(kind)} "
            "(expected 'paper' or 'cite')"
        )
    try:
        time = payload["time"]
        if type(time) is not float:
            # Only a JSON number is a time: never a boolean (an int
            # subclass), and an integer must fit a float.
            if type(time) is not int:
                raise TypeError(f"time is a {type(time).__name__}")
            time = float(time)
        if kind == "paper":
            paper_id = payload["id"]
            if type(paper_id) is not str:
                raise TypeError(f"id is a {type(paper_id).__name__}")
        else:
            citing, cited = payload["citing"], payload["cited"]
            if type(citing) is not str or type(cited) is not str:
                raise TypeError("citing and cited must be strings")
    except (KeyError, TypeError, OverflowError) as error:
        raise DataFormatError(
            f"{path}:{number}: malformed {kind!r} event ({error!r})"
        ) from None
    if kind == "paper":
        appender.paper(time, paper_id)
    else:
        appender.cite(time, citing, cited)


def group_boundaries(events: Sequence[StreamEvent]) -> tuple[int, ...]:
    """Positions where a micro-batch may end (exclusive cut points).

    A cut is legal immediately before each paper event (and at the end
    of the sequence): cutting there never separates a paper from its
    citation events.  Position 0 is never a boundary — a batch must
    contain at least one group.
    """
    cuts = [
        position
        for position, event in enumerate(events)
        if isinstance(event, PaperEvent) and position > 0
    ]
    cuts.append(len(events))
    return tuple(cuts)
