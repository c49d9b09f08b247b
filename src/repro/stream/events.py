"""Citation-event logs — the corpus as a time-ordered stream.

The paper's methods rank a *snapshot*, but the snapshot itself is the
result of a stream: papers are published, and each arrives carrying its
reference list.  :class:`EventLog` materialises that stream as an
ordered sequence of two event kinds:

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

Logs persist as JSONL (one event object per line), which streams,
appends, and diffs well; ``repr``-based float serialisation round-trips
``float64`` exactly, so a saved log replays bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import reprlib
import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

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
        # Collected into a list first: a tuple grown from a generator
        # is re-tracked by the garbage collector at every resize, so
        # each young collection would walk every event loaded so far.
        checked = list(_checked(events))
        self._events: tuple[StreamEvent, ...] = tuple(checked)
        # Running SHA-256 over the canonical lines of the first
        # ``_hashed`` events: digest() extends it on demand, so a
        # replay that checkpoints as it goes hashes each event once.
        self._digest_lock = threading.Lock()
        self._hasher = hashlib.sha256()
        self._hashed = 0

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[StreamEvent]:
        return iter(self._events)

    def __getitem__(self, index):
        return self._events[index]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EventLog) and self._events == other._events

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EventLog(n_events={len(self._events)}, "
            f"n_papers={self.n_papers}, n_citations={self.n_citations})"
        )

    @property
    def events(self) -> tuple[StreamEvent, ...]:
        """All events, in arrival order."""
        return self._events

    @property
    def n_papers(self) -> int:
        """Number of paper events in the log."""
        return sum(1 for e in self._events if isinstance(e, PaperEvent))

    @property
    def n_citations(self) -> int:
        """Number of citation events in the log."""
        return sum(1 for e in self._events if isinstance(e, CitationEvent))

    def time_span(self) -> tuple[float, float]:
        """``(first, last)`` event times of a non-empty log."""
        if not self._events:
            raise StreamError("empty log has no time span")
        return (self._events[0].time, self._events[-1].time)

    def digest(self, upto: int | None = None) -> str:
        """SHA-256 over the canonical lines of the first ``upto`` events.

        Checkpoints store this digest so a resume can prove it is
        continuing the *same* stream it stopped in, not a log that
        happens to share a length.

        The log keeps its running hash at the furthest prefix hashed so
        far, so digests at growing offsets cost O(new events) each; an
        offset behind that prefix is hashed afresh.
        """
        count = len(self._events) if upto is None else int(upto)
        if count < 0 or count > len(self._events):
            raise StreamError(
                f"digest offset {count} out of range "
                f"[0, {len(self._events)}]"
            )
        with self._digest_lock:
            extend = count >= self._hashed
            start = self._hashed if extend else 0
            # Hash into a copy, so a failed encode leaves the memo whole.
            hasher = self._hasher.copy() if extend else hashlib.sha256()
            for event in self._events[start:count]:
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
        times = network.publication_times
        order = np.lexsort((np.arange(network.n_papers), times))
        position = np.empty(network.n_papers, dtype=np.int64)
        position[order] = np.arange(network.n_papers)

        references: list[list[int]] = [[] for _ in range(network.n_papers)]
        for citing, cited in zip(network.citing, network.cited):
            if position[int(cited)] >= position[int(citing)]:
                raise StreamError(
                    f"paper {network.id_of(int(citing))!r} cites "
                    f"{network.id_of(int(cited))!r}, which arrives "
                    "later in the stream; only time-ordered networks "
                    "can be replayed as event logs"
                )
            references[int(citing)].append(int(cited))

        events: list[StreamEvent] = []
        for index in order:
            paper = int(index)
            time = float(times[paper])
            events.append(
                PaperEvent(time=time, paper_id=network.id_of(paper))
            )
            events.extend(
                CitationEvent(
                    time=time,
                    citing=network.id_of(paper),
                    cited=network.id_of(target),
                )
                for target in references[paper]
            )
        return cls(events)

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
                            "n_events": len(self._events),
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
                for event in self._events:
                    handle.write(_event_line(event) + "\n")
            os.replace(temp_path, path)
        finally:
            if os.path.exists(temp_path):
                os.remove(temp_path)

    @classmethod
    def load(cls, path: str) -> "EventLog":
        """Read a log written by :meth:`save`, in one pass over its lines.

        Raises
        ------
        DataFormatError
            If the file is missing, is not an event log, declares an
            unsupported format version, or holds a line that is not
            UTF-8, not a JSON object, nested too deeply to parse, or
            not a well-typed event: ``time`` must be a JSON number
            that fits a float (not a boolean), and ``id``, ``citing``
            and ``cited`` must be strings.  Line errors name the file
            and line.
        StreamError
            If the events parse but violate the streaming contract.
        """
        lines = _read_lines(path)
        if lines == [""]:
            raise DataFormatError(f"{path}: empty file is not an event log")
        header = _parse_line(path, 1, lines[0])
        if header.get("format") != "repro-event-log":
            raise DataFormatError(
                f"{path}: not a repro event log (missing header line)"
            )
        declared = _header_int(path, header, "log_format_version", -1)
        if declared != LOG_FORMAT_VERSION:
            raise DataFormatError(
                f"{path}: unsupported log format version {declared} "
                f"(this build reads version {LOG_FORMAT_VERSION})"
            )
        return cls(
            _parse_events(path, lines, _header_int(path, header, "n_events"))
        )


def _read_lines(path: str) -> list[str]:
    """The file's lines, decoded as UTF-8 in one go."""
    if not os.path.exists(path):
        raise DataFormatError(f"file not found: {path}")
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8").split("\n")
    except UnicodeDecodeError as error:
        number = data.count(b"\n", 0, error.start) + 1
        raise DataFormatError(
            f"{path}:{number}: not UTF-8 text ({error.reason})"
        ) from None


def _header_int(
    path: str, header: dict, key: str, default: int | None = None
) -> int | None:
    value = header.get(key, default)
    if value is None:
        return None
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise DataFormatError(
            f"{path}: malformed {key} {reprlib.repr(value)}"
        ) from None


def _parse_events(
    path: str, lines: list[str], declared: int | None
) -> Iterator[StreamEvent]:
    """Yield the events of ``lines[1:]``, checking the declared count."""
    count = 0
    for number, line in enumerate(lines[1:], start=2):
        if not line or line.isspace():
            continue
        payload = _parse_line(path, number, line)
        yield _event_from_payload(path, number, payload)
        count += 1
    if declared is not None and declared != count:
        raise DataFormatError(
            f"{path}: header declares {declared} events but the file "
            f"contains {count} — the log was truncated or concatenated"
        )


def _checked(events: Iterable[StreamEvent]) -> Iterator[StreamEvent]:
    """Yield ``events`` unchanged, raising at the first contract breach."""
    last_time = -math.inf
    current_paper: str | None = None
    seen: set[str] = set()
    for position, event in enumerate(events):
        if isinstance(event, PaperEvent):
            if event.paper_id in seen:
                raise StreamError(
                    f"event {position}: duplicate paper event for "
                    f"{event.paper_id!r}"
                )
            seen.add(event.paper_id)
            current_paper = event.paper_id
        elif isinstance(event, CitationEvent):
            if event.citing != current_paper:
                raise StreamError(
                    f"event {position}: citation from "
                    f"{event.citing!r} is detached from its citing "
                    "paper's event (published papers cannot gain "
                    "references — a citation event must follow its "
                    "citing paper's event block)"
                )
            if event.cited == event.citing:
                raise StreamError(
                    f"event {position}: self-citation of "
                    f"{event.citing!r}"
                )
        else:
            raise StreamError(
                f"event {position}: unsupported event type "
                f"{type(event).__name__}"
            )
        if not math.isfinite(event.time):
            raise StreamError(f"event {position}: non-finite event time")
        if event.time < last_time:
            raise StreamError(
                f"event {position}: time {event.time} precedes the "
                f"previous event's {last_time} — logs are time-ordered"
            )
        last_time = event.time
        yield event


def _parse_line(path: str, number: int, line: str) -> dict:
    """One line's JSON object (``raw_decode`` skips ``loads``' regexes)."""
    text = line.strip(" \t\r")
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


def _event_from_payload(path: str, number: int, payload: dict) -> StreamEvent:
    """The event one line describes; field types are checked, not coerced."""
    kind = payload.get("type")
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
            return PaperEvent(time, paper_id)
        if kind == "cite":
            citing, cited = payload["citing"], payload["cited"]
            if type(citing) is not str or type(cited) is not str:
                raise TypeError("citing and cited must be strings")
            return CitationEvent(time, citing, cited)
    except (KeyError, TypeError, OverflowError) as error:
        if kind in ("paper", "cite"):
            raise DataFormatError(
                f"{path}:{number}: malformed {kind!r} event ({error!r})"
            ) from None
    raise DataFormatError(
        f"{path}:{number}: unknown event type {reprlib.repr(kind)} "
        "(expected 'paper' or 'cite')"
    )


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
