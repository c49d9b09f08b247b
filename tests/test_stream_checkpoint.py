"""Tests for checkpoint capture, persistence, and exact resume."""

from __future__ import annotations

import json
import os
import re

import numpy as np
import pytest

from repro.errors import DataFormatError, StreamError
from repro.stream import Checkpoint, EventLog, StreamIngestor

pytestmark = pytest.mark.stream

METHODS = ("PR", "CC")


@pytest.fixture(scope="module")
def hepth_log(hepth_tiny) -> EventLog:
    return EventLog.from_network(hepth_tiny)


def _half_replayed(log, **kwargs) -> StreamIngestor:
    ingestor = StreamIngestor(
        log, METHODS, batch_size=64, bootstrap_size=64, **kwargs
    )
    ingestor.replay(max_batches=20)
    return ingestor


class TestCaptureAndLoad:
    def test_capture_before_bootstrap_raises(self, hepth_log, tmp_path):
        ingestor = StreamIngestor(hepth_log, METHODS)
        with pytest.raises(StreamError, match="bootstrap"):
            ingestor.checkpoint(str(tmp_path / "ckpt"))

    def test_round_trip_preserves_state(self, hepth_log, tmp_path):
        ingestor = _half_replayed(
            hepth_log, shards=3, watermark_years=2.5
        )
        directory = str(tmp_path / "ckpt")
        path = ingestor.checkpoint(directory)
        assert os.path.basename(path) == "checkpoint.json"
        state = Checkpoint.load(directory)
        assert state.offset == ingestor.offset
        assert state.batches_applied == ingestor.batches_applied
        assert state.batch_size == 64
        assert state.watermark_years == 2.5
        assert state.shards == 3
        assert state.partitioner == "hash"
        assert state.index_version == ingestor.index.version
        index = state.load_index(directory)
        for label in METHODS:
            np.testing.assert_array_equal(
                index.scores(label), ingestor.index.scores(label)
            )

    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(DataFormatError, match="not a stream checkpoint"):
            Checkpoint.load(str(tmp_path / "nowhere"))

    def test_load_rejects_bad_version(self, hepth_log, tmp_path):
        directory = str(tmp_path / "ckpt")
        _half_replayed(hepth_log).checkpoint(directory)
        manifest = os.path.join(directory, "checkpoint.json")
        with open(manifest, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["checkpoint_format_version"] = 99
        with open(manifest, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with pytest.raises(DataFormatError, match="version 99"):
            Checkpoint.load(directory)

    def test_load_rejects_torn_index(self, hepth_log, tmp_path):
        # Manifest and index disagree on the version: refuse to resume.
        directory = str(tmp_path / "ckpt")
        ingestor = _half_replayed(hepth_log)
        ingestor.checkpoint(directory)
        state = Checkpoint.load(directory)
        ingestor.replay(max_batches=5)
        ingestor.index.save(os.path.join(directory, state.index_file))
        with pytest.raises(DataFormatError, match="partially overwritten"):
            state.load_index(directory)

    def test_crash_between_index_and_manifest_keeps_old_checkpoint(
        self, hepth_log, tmp_path
    ):
        """The commit point is the manifest: a new index file landing
        without its manifest (a crash mid-save) must leave the previous
        checkpoint fully loadable."""
        from repro.stream.checkpoint import Checkpoint as Ckpt

        directory = str(tmp_path / "ckpt")
        ingestor = _half_replayed(hepth_log)
        ingestor.checkpoint(directory)
        before = Ckpt.load(directory)
        # Simulate the crash: the next checkpoint's index file is
        # written, the manifest rename never happens.
        ingestor.replay(max_batches=5)
        bound = Ckpt.capture(ingestor)
        ingestor.index.save(
            os.path.join(directory, bound.state.index_file)
        )
        after = Ckpt.load(directory)
        assert after == before
        after.load_index(directory)  # still loads the old state
        resumed = StreamIngestor.resume(directory, hepth_log)
        assert resumed.offset == before.offset

    def test_save_prunes_superseded_index_files(self, hepth_log, tmp_path):
        directory = str(tmp_path / "ckpt")
        ingestor = _half_replayed(hepth_log)
        ingestor.checkpoint(directory)
        ingestor.replay(max_batches=5)
        ingestor.checkpoint(directory)
        index_files = [
            name
            for name in os.listdir(directory)
            if name.startswith("index-v")
        ]
        assert index_files == [Checkpoint.load(directory).index_file]

    def test_incremental_digest_matches_log_digest(self, hepth_log):
        ingestor = _half_replayed(hepth_log)
        assert ingestor.prefix_digest() == hepth_log.digest(
            ingestor.offset
        )

    def test_load_rejects_malformed_manifest(self, hepth_log, tmp_path):
        directory = str(tmp_path / "ckpt")
        _half_replayed(hepth_log).checkpoint(directory)
        manifest = os.path.join(directory, "checkpoint.json")
        with open(manifest, encoding="utf-8") as handle:
            payload = json.load(handle)
        del payload["offset"]
        with open(manifest, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with pytest.raises(DataFormatError, match="malformed"):
            Checkpoint.load(directory)


_MANIFEST = {
    "format": "repro-stream-checkpoint",
    "checkpoint_format_version": 1,
    "offset": 10,
    "batches_applied": 2,
    "batch_size": 64,
    "watermark_years": None,
    "shards": 1,
    "partitioner": "hash",
    "missing_references": "skip",
    "log_digest": "0" * 64,
    "index_version": 1,
    "index_file": "index-v00000001.snap",
    "created_utc": "2026-01-01T00:00:00Z",
}


def _manifest(**fields) -> bytes:
    return json.dumps({**_MANIFEST, **fields}).encode("utf-8")


class TestHostileManifest:
    def test_hand_written_manifest_loads(self, tmp_path):
        (tmp_path / "checkpoint.json").write_bytes(_manifest())
        state = Checkpoint.load(str(tmp_path))
        assert (state.offset, state.batch_size) == (10, 64)

    @pytest.mark.parametrize(
        "body",
        [
            pytest.param(b"[]", id="top-level-list"),
            pytest.param(
                _manifest(checkpoint_format_version="x"), id="string-version"
            ),
            pytest.param(
                _manifest(checkpoint_format_version=[]), id="list-version"
            ),
            pytest.param(
                _manifest(checkpoint_format_version=True), id="boolean-version"
            ),
            pytest.param(
                b'{"format": "repro-stream-checkpoint\xff"}', id="non-utf8"
            ),
            pytest.param(b"[" * 100_000, id="deep-nesting"),
            pytest.param(_manifest(offset=True), id="boolean-offset"),
            pytest.param(_manifest(batch_size=64.0), id="float-batch-size"),
            # json.dumps writes the non-standard tokens NaN and Infinity.
            pytest.param(
                _manifest(watermark_years=float("nan")), id="nan-watermark"
            ),
            pytest.param(
                _manifest(watermark_years=float("inf")),
                id="infinite-watermark",
            ),
        ],
    )
    def test_typed_error_names_the_file(self, tmp_path, body):
        path = tmp_path / "checkpoint.json"
        path.write_bytes(body)
        with pytest.raises(DataFormatError, match=re.escape(str(path))):
            Checkpoint.load(str(tmp_path))


class TestResume:
    def test_resume_is_bit_identical(self, hepth_log, tmp_path):
        uninterrupted = StreamIngestor(
            hepth_log, METHODS, batch_size=64, bootstrap_size=64
        )
        uninterrupted.replay()

        interrupted = _half_replayed(hepth_log)
        directory = str(tmp_path / "ckpt")
        interrupted.checkpoint(directory)
        resumed = StreamIngestor.resume(directory, hepth_log)
        assert resumed.offset == interrupted.offset
        assert resumed.batches_applied == interrupted.batches_applied
        resumed.replay()
        # Bit-identical *without* finalize: determinism of the batch
        # cuts plus exact float64 persistence of the warm starts.
        assert resumed.index.version == uninterrupted.index.version
        for label in METHODS:
            np.testing.assert_array_equal(
                resumed.index.scores(label),
                uninterrupted.index.scores(label),
            )
        assert (
            resumed.index.network.paper_ids
            == uninterrupted.index.network.paper_ids
        )

    def test_resume_rejects_wrong_log(self, hepth_log, tmp_path):
        from dataclasses import replace

        directory = str(tmp_path / "ckpt")
        _half_replayed(hepth_log).checkpoint(directory)
        # A structurally valid log whose prefix differs (the first
        # paper renamed) must be refused by the digest check.
        mutated = list(hepth_log.events)
        mutated[0] = replace(mutated[0], paper_id="IMPOSTOR")
        with pytest.raises(StreamError, match="digest"):
            StreamIngestor.resume(directory, EventLog(mutated))
        # A log shorter than the consumed prefix is refused outright.
        short = EventLog(list(hepth_log.events[:10]))
        with pytest.raises(StreamError, match="not the stream"):
            StreamIngestor.resume(directory, short)

    def test_resume_then_checkpoint_again(self, hepth_log, tmp_path):
        directory = str(tmp_path / "ckpt")
        _half_replayed(hepth_log).checkpoint(directory)
        resumed = StreamIngestor.resume(directory, hepth_log)
        resumed.replay(max_batches=5)
        resumed.checkpoint(directory)
        again = StreamIngestor.resume(directory, hepth_log)
        assert again.offset == resumed.offset
        report = again.replay()
        assert report.exhausted
