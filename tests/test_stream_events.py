"""Tests for the event-log layer (extraction, validation, JSONL)."""

from __future__ import annotations

import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DataFormatError, ReproError, StreamError
from repro.stream import (
    CitationEvent,
    EventLog,
    PaperEvent,
    group_boundaries,
    network_from_log,
)


class TestConstruction:
    def test_orders_and_counts(self, toy):
        log = EventLog.from_network(toy)
        assert len(log) == toy.n_papers + toy.n_citations
        assert log.n_papers == toy.n_papers
        assert log.n_citations == toy.n_citations
        times = [event.time for event in log]
        assert times == sorted(times)

    def test_grouping_citations_follow_their_paper(self, toy):
        current = None
        for event in EventLog.from_network(toy):
            if isinstance(event, PaperEvent):
                current = event.paper_id
            else:
                assert event.citing == current

    def test_rejects_time_regression(self):
        with pytest.raises(StreamError, match="time-ordered"):
            EventLog(
                [
                    PaperEvent(time=2000.0, paper_id="a"),
                    PaperEvent(time=1999.0, paper_id="b"),
                ]
            )

    def test_rejects_duplicate_paper(self):
        with pytest.raises(StreamError, match="duplicate"):
            EventLog(
                [
                    PaperEvent(time=2000.0, paper_id="a"),
                    PaperEvent(time=2001.0, paper_id="a"),
                ]
            )

    def test_rejects_detached_citation(self):
        # The citation names "a" as citing, but "b" is the live group.
        with pytest.raises(StreamError, match="detached"):
            EventLog(
                [
                    PaperEvent(time=2000.0, paper_id="a"),
                    PaperEvent(time=2001.0, paper_id="b"),
                    CitationEvent(time=2001.0, citing="a", cited="b"),
                ]
            )

    def test_rejects_self_citation(self):
        with pytest.raises(StreamError, match="self-citation"):
            EventLog(
                [
                    PaperEvent(time=2000.0, paper_id="a"),
                    CitationEvent(time=2000.0, citing="a", cited="a"),
                ]
            )

    def test_rejects_leading_citation(self):
        with pytest.raises(StreamError, match="detached"):
            EventLog([CitationEvent(time=2000.0, citing="a", cited="b")])

    def test_from_network_rejects_forward_citations(self):
        from repro.graph.citation_network import CitationNetwork

        # "old" (1990) cites "new" (2000): not replayable as a stream.
        network = CitationNetwork(
            ["old", "new"], [1990.0, 2000.0], citing=[0], cited=[1]
        )
        with pytest.raises(StreamError, match="arrives later"):
            EventLog.from_network(network)

    def test_time_span_and_digest(self, toy):
        log = EventLog.from_network(toy)
        lo, hi = log.time_span()
        assert (lo, hi) == (1990.0, 2003.0)
        assert log.digest(0) != log.digest(len(log))
        assert log.digest() == log.digest(len(log))
        with pytest.raises(StreamError):
            log.digest(len(log) + 1)


class TestRoundTrips:
    def test_network_round_trip_is_exact(self, hepth_tiny):
        log = EventLog.from_network(hepth_tiny)
        rebuilt = network_from_log(log)
        assert rebuilt.paper_ids == hepth_tiny.paper_ids
        np.testing.assert_array_equal(
            rebuilt.publication_times, hepth_tiny.publication_times
        )
        assert rebuilt.n_citations == hepth_tiny.n_citations
        assert (
            rebuilt.citation_matrix != hepth_tiny.citation_matrix
        ).nnz == 0

    def test_jsonl_round_trip_is_exact(self, toy, tmp_path):
        log = EventLog.from_network(toy)
        path = str(tmp_path / "events.jsonl")
        log.save(path)
        loaded = EventLog.load(path)
        assert loaded == log
        assert loaded.digest() == log.digest()

    def test_jsonl_preserves_fractional_times(self, tmp_path):
        # repr-based float serialisation must round-trip exactly.
        time = 1997.1000000000001
        log = EventLog([PaperEvent(time=time, paper_id="x")])
        path = str(tmp_path / "events.jsonl")
        log.save(path)
        assert EventLog.load(path)[0].time == time

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="not found"):
            EventLog.load(str(tmp_path / "absent.jsonl"))

    def test_load_rejects_non_log(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text('{"hello": "world"}\n')
        with pytest.raises(DataFormatError, match="not a repro event log"):
            EventLog.load(str(path))

    def test_load_rejects_bad_version(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            '{"format": "repro-event-log", "log_format_version": 99}\n'
        )
        with pytest.raises(DataFormatError, match="version 99"):
            EventLog.load(str(path))

    def test_load_rejects_truncation(self, toy, tmp_path):
        log = EventLog.from_network(toy)
        path = tmp_path / "events.jsonl"
        log.save(str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(DataFormatError, match="truncated"):
            EventLog.load(str(path))

    def test_load_rejects_unknown_event_type(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"format": "repro-event-log", "log_format_version": 1}\n'
            '{"type": "retraction", "time": 2000.0, "id": "x"}\n'
        )
        with pytest.raises(DataFormatError, match="unknown event type"):
            EventLog.load(str(path))


class TestGroupBoundaries:
    def test_boundaries_are_paper_positions(self, toy):
        log = EventLog.from_network(toy)
        cuts = group_boundaries(log.events)
        assert cuts[-1] == len(log)
        for cut in cuts[:-1]:
            assert isinstance(log[cut], PaperEvent)
        assert 0 not in cuts

    def test_empty_log_errors(self):
        log = EventLog([])
        with pytest.raises(StreamError, match="empty"):
            log.time_span()
        with pytest.raises(StreamError, match="empty"):
            network_from_log(log)


class TestHeaderHardening:
    def test_load_rejects_non_numeric_version(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"format": "repro-event-log", "log_format_version": "one"}\n'
        )
        with pytest.raises(DataFormatError, match="malformed log_format"):
            EventLog.load(str(path))

    def test_load_rejects_non_numeric_event_count(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"format": "repro-event-log", "log_format_version": 1, '
            '"n_events": []}\n'
        )
        with pytest.raises(DataFormatError, match="malformed n_events"):
            EventLog.load(str(path))

    @pytest.mark.parametrize(
        "fields",
        [
            pytest.param('"log_format_version": true', id="boolean-version"),
            pytest.param('"log_format_version": 1.9', id="float-version"),
            pytest.param(
                '"log_format_version": 1, "n_events": 2.7', id="float-count"
            ),
            pytest.param(
                '"log_format_version": 1, "n_events": 2.0',
                id="integral-float-count",
            ),
        ],
    )
    def test_load_accepts_only_json_integers(self, tmp_path, fields):
        # Read through int(), each header would pass as version 1
        # declaring the file's two events.
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"format": "repro-event-log", ' + fields + "}\n"
            '{"type": "paper", "time": 2000.0, "id": "a"}\n'
            '{"type": "paper", "time": 2001.0, "id": "b"}\n'
        )
        with pytest.raises(DataFormatError, match="malformed"):
            EventLog.load(str(path))


_HEADER = b'{"format": "repro-event-log", "log_format_version": 1}\n'
_PAPER_A = b'{"type": "paper", "time": 2000.0, "id": "a"}\n'


class TestHostileLines:
    """Each malformed line is a DataFormatError naming file and line,
    never a stray builtin exception or a silently coerced value."""

    @pytest.mark.parametrize(
        ("body", "line"),
        [
            pytest.param(
                _PAPER_A
                + b'{"type": "paper", "time": 2001.0, "id": "\xff"}\n',
                3,
                id="non-utf8-bytes",
            ),
            pytest.param(
                b'{"type": "paper", "time": 1'
                + b"0" * 400
                + b', "id": "a"}\n',
                2,
                id="time-overflows-float",
            ),
            pytest.param(b"[" * 100_000 + b"\n", 2, id="deep-nesting"),
            pytest.param(
                b'{"type": "paper", "time": true, "id": "a"}\n',
                2,
                id="boolean-time",
            ),
            pytest.param(
                b'{"type": "paper", "time": 2000.0, "id": {"a": 1}}\n',
                2,
                id="non-string-id",
            ),
            pytest.param(
                _PAPER_A
                + b'{"type": "cite", "time": 2000.0, "citing": 7, '
                b'"cited": "b"}\n',
                3,
                id="non-string-citing",
            ),
            pytest.param(
                _PAPER_A
                + b'{"type": "cite", "time": 2000.0, "citing": "a", '
                b'"cited": ["b"]}\n',
                3,
                id="non-string-cited",
            ),
        ],
    )
    def test_typed_error_names_file_and_line(self, tmp_path, body, line):
        path = tmp_path / "hostile.jsonl"
        path.write_bytes(_HEADER + body)
        with pytest.raises(
            DataFormatError, match=re.escape(f"{path}:{line}:")
        ):
            EventLog.load(str(path))


def _damage(data: bytes, draw) -> bytes:
    """Apply one random truncation, byte flip, or line duplication/drop."""
    kind = draw(st.sampled_from(["truncate", "flip", "duplicate", "drop"]))
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "flip":
        at = draw(st.integers(0, len(data) - 1))
        mask = draw(st.integers(1, 255))
        return data[:at] + bytes([data[at] ^ mask]) + data[at + 1:]
    lines = data.split(b"\n")
    at = draw(st.integers(0, len(lines) - 1))
    if kind == "duplicate":
        return b"\n".join(lines[: at + 1] + lines[at:])
    return b"\n".join(lines[:at] + lines[at + 1:])


_IDS = st.text(min_size=1, max_size=6)
_TIMES = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def _logs(draw) -> EventLog:
    """Valid logs: unique ids (any unicode), sorted times, and each
    paper citing earlier papers or ids outside the log."""
    ids = draw(st.lists(_IDS, min_size=1, max_size=12, unique=True))
    times = sorted(
        draw(st.lists(_TIMES, min_size=len(ids), max_size=len(ids)))
    )
    events = []
    for position, (paper, time) in enumerate(zip(ids, times)):
        events.append(PaperEvent(time=time, paper_id=paper))
        cited = draw(
            st.lists(
                st.sampled_from(ids[:position]) if position else _IDS,
                max_size=3,
            )
        )
        events.extend(
            CitationEvent(time=time, citing=paper, cited=target)
            for target in cited
            if target != paper
        )
    return EventLog(events)


class TestLoaderFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_damaged_log_loads_or_raises_a_repro_error(
        self, tmp_path_factory, data
    ):
        from repro.synth import toy_network

        path = tmp_path_factory.mktemp("fuzz") / "events.jsonl"
        EventLog.from_network(toy_network()).save(str(path))
        damaged = path.read_bytes()
        for _ in range(data.draw(st.integers(1, 3))):
            if damaged:
                damaged = _damage(damaged, data.draw)
        path.write_bytes(damaged)
        try:
            EventLog.load(str(path))
        except ReproError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(log=_logs())
    def test_save_load_round_trip(self, tmp_path_factory, log):
        path = str(tmp_path_factory.mktemp("fuzz") / "events.jsonl")
        log.save(path)
        loaded = EventLog.load(path)
        assert loaded == log
        assert loaded.digest() == log.digest()
        # Bit-exact times: repr tells -0.0 from 0.0, which == does not.
        assert [repr(event.time) for event in loaded] == [
            repr(event.time) for event in log
        ]


# ----------------------------------------------------------------------
# Loader oracle: non-canonical files against a per-line json.loads
# ----------------------------------------------------------------------
_TIME_DRAWS = st.one_of(_TIMES, st.just(-0.0))


def _number(value: float, draw) -> str:
    """``value`` as a JSON number in a drawn form: repr, exponent, or
    (for an integral value) integer."""
    forms = [repr(value), "%.17e" % value, "%.17E" % value]
    if value == int(value):
        forms.append(str(int(value)))
    return draw(st.sampled_from(forms))


def _object(payload: dict, draw) -> str:
    """One JSON object line: shuffled keys, drawn spacing, escaped or
    raw non-ASCII strings, padding, and an LF or CRLF ending."""
    ascii_only = draw(st.booleans())
    item_sep = draw(st.sampled_from([",", ", ", " ,\t"]))
    key_sep = draw(st.sampled_from([":", ": ", " :  "]))

    def value(item) -> str:
        if isinstance(item, float):
            return _number(item, draw)
        return json.dumps(item, ensure_ascii=ascii_only)

    body = item_sep.join(
        json.dumps(key, ensure_ascii=ascii_only) + key_sep
        + value(payload[key])
        for key in draw(st.permutations(sorted(payload)))
    )
    pad = st.sampled_from(["", " ", "\t", "  "])
    return (
        draw(pad) + "{" + body + "}" + draw(pad)
        + draw(st.sampled_from(["\n", "\r\n"]))
    )


@st.composite
def _log_files(draw) -> bytes:
    """A valid log in non-canonical form, with blank lines, cited ids
    outside the log, and references to papers that arrive later."""
    ids = draw(st.lists(_IDS, min_size=1, max_size=8, unique=True))
    times = sorted(
        draw(st.lists(_TIME_DRAWS, min_size=len(ids), max_size=len(ids)))
    )
    targets = ids + draw(st.lists(_IDS, max_size=3))
    events: list[dict] = []
    for paper, time in zip(ids, times):
        events.append({"type": "paper", "time": time, "id": paper})
        events.extend(
            {"type": "cite", "time": time, "citing": paper, "cited": cited}
            for cited in draw(st.lists(st.sampled_from(targets), max_size=3))
            if cited != paper
        )
    header = {
        "format": "repro-event-log",
        "log_format_version": 1,
        "n_events": len(events),
    }
    blank = st.sampled_from(["\n", " \r\n", "\t\n"])
    lines = [_object(header, draw)]
    for event in events:
        lines.extend(draw(st.lists(blank, max_size=2)))
        lines.append(_object(event, draw))
    return "".join(lines).encode("utf-8")


def _reference_events(data: bytes) -> list:
    """The events of a log file, parsed with json.loads line by line."""
    events = []
    for raw in data.split(b"\n")[1:]:
        text = raw.decode("utf-8")
        if not text.strip():
            continue
        payload = json.loads(text)
        time = float(payload["time"])
        if payload["type"] == "paper":
            events.append(PaperEvent(time, payload["id"]))
        else:
            events.append(
                CitationEvent(time, payload["citing"], payload["cited"])
            )
    return events


def _canonical_line(event) -> str:
    if isinstance(event, PaperEvent):
        payload = {"type": "paper", "time": event.time, "id": event.paper_id}
    else:
        payload = {
            "type": "cite",
            "time": event.time,
            "citing": event.citing,
            "cited": event.cited,
        }
    return json.dumps(payload, sort_keys=True) + "\n"


class TestLoaderOracle:
    @settings(max_examples=150, deadline=None)
    @given(data=_log_files())
    def test_load_matches_a_per_line_json_parse(self, tmp_path_factory, data):
        directory = tmp_path_factory.mktemp("oracle")
        path = directory / "events.jsonl"
        path.write_bytes(data)
        loaded = EventLog.load(str(path))
        expected = _reference_events(data)
        assert list(loaded) == expected
        assert [repr(event.time) for event in loaded] == [
            repr(event.time) for event in expected
        ]
        body = "".join(_canonical_line(event) for event in expected)
        body_bytes = body.encode("utf-8")
        assert loaded.digest() == hashlib.sha256(body_bytes).hexdigest()
        header = json.dumps(
            {
                "format": "repro-event-log",
                "log_format_version": 1,
                "n_events": len(expected),
            },
            sort_keys=True,
        )
        loaded.save(str(directory / "saved.jsonl"))
        assert (directory / "saved.jsonl").read_bytes() == (
            header.encode("utf-8") + b"\n" + body_bytes
        )
