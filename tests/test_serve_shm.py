"""Unit tests for repro.serve.shm — the shared-memory score store.

Everything here runs in ONE process: the generation protocol is pure
shared-state bookkeeping, so publisher and reader can share an address
space and the assertions stay fast and deterministic.  The genuinely
cross-process behaviour (fork, SO_REUSEPORT, supervisor restarts) is
covered by tests/test_gateway_workers.py and the `worker` chaos
scenario.
"""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import SharedStoreError
from repro.serve import ScoreIndex, ShardedScoreIndex
from repro.serve.shm import (
    GenerationBoard,
    SharedStorePublisher,
    SharedStoreReader,
    _attach,
    _create,
    _unlink,
    attach_snapshot,
    board_name,
    export_snapshot,
    iter_repro_segments,
    new_session,
    segment_name,
)
from repro.synth import toy_network


def _sharded(n_shards=2):
    index = ScoreIndex(toy_network())
    index.add_method("CC")
    index.add_method("PR")
    return ShardedScoreIndex.from_index(index, n_shards=n_shards)


def _lock():
    return multiprocessing.get_context("fork").Lock()


@pytest.fixture(autouse=True)
def _no_leaked_segments():
    """Every test must leave /dev/shm exactly as it found it."""
    before = set(iter_repro_segments())
    yield
    leaked = set(iter_repro_segments()) - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


def _assert_snapshots_equal(original, loaded):
    """Compare inside one frame so no view outlives the caller's close."""
    assert loaded.version == original.version
    assert loaded.labels == original.labels
    assert loaded.n_papers == original.n_papers
    assert loaded.n_shards == original.n_shards
    assert loaded.partitioner == original.partitioner
    for shard_id in range(original.n_shards):
        ours, theirs = original.shard(shard_id), loaded.shard(shard_id)
        assert theirs.paper_ids == ours.paper_ids
        assert np.array_equal(theirs.global_indices, ours.global_indices)
        assert np.array_equal(theirs.times, ours.times)
        for label in original.labels:
            assert np.array_equal(theirs.scores[label], ours.scores[label])


class TestSegmentRoundTrip:
    def test_export_attach_is_bit_identical(self):
        store = _sharded()
        original = store.snapshot()
        name = segment_name(new_session(), 0)
        shm = export_snapshot(name, original)
        try:
            mapping, loaded = attach_snapshot(name)
            try:
                _assert_snapshots_equal(original, loaded)
            finally:
                del loaded
                mapping.close()
        finally:
            shm.close()
            _unlink(name)

    def test_attached_columns_are_zero_copy_views(self):
        store = _sharded(n_shards=1)
        name = segment_name(new_session(), 0)
        shm = export_snapshot(name, store.snapshot())
        try:
            mapping, loaded = attach_snapshot(name)
            try:
                # A view over the shared pages, not a copy (checked in
                # a helper frame so no inspection local — including the
                # hidden ones pytest's assertion rewriting introduces —
                # outlives the close below).
                self._assert_is_view(loaded.shard(0).scores["CC"])
            finally:
                del loaded
                mapping.close()
        finally:
            shm.close()
            _unlink(name)

    @staticmethod
    def _assert_is_view(scores):
        if scores.flags.owndata:
            raise AssertionError("scores column was copied, not mapped")
        base = scores
        while isinstance(base, np.ndarray) and base.base is not None:
            base = base.base
        # np.frombuffer chains bottom out in the segment's memoryview;
        # a copy would own its data and stop at an ndarray instead.
        if not isinstance(base, memoryview):
            raise AssertionError("view chain does not end in the mapping")

    def test_bad_magic_is_a_typed_error(self):
        name = segment_name(new_session(), 0)
        shm = _create(name, 64)
        try:
            shm.buf[:8] = b"NOTREPRO"
            with pytest.raises(SharedStoreError, match="bad magic"):
                attach_snapshot(name)
        finally:
            shm.close()
            _unlink(name)

    def test_missing_segment_is_a_typed_error(self):
        with pytest.raises(SharedStoreError, match="does not exist"):
            attach_snapshot(segment_name(new_session(), 99))


class TestGenerationBoard:
    def test_publish_acquire_release_lifecycle(self):
        session, lock = new_session(), _lock()
        board = GenerationBoard.create(session, lock)
        try:
            assert board.current == -1
            with pytest.raises(SharedStoreError, match="no generation"):
                board.acquire()
            export_snapshot(
                segment_name(session, 0), _sharded().snapshot()
            ).close()
            board.publish(0)
            assert board.current == 0
            generation = board.acquire()
            assert generation == 0
            assert board.generations()[0]["readers"] == 1
            board.release(0)
            assert board.generations()[0]["readers"] == 0
        finally:
            board.destroy()

    def test_retired_generation_unlinked_by_last_reader(self):
        session, lock = new_session(), _lock()
        board = GenerationBoard.create(session, lock)
        store = _sharded()
        try:
            export_snapshot(
                segment_name(session, 0), store.snapshot()
            ).close()
            board.publish(0)
            board.acquire()  # a reader pins gen 0
            export_snapshot(
                segment_name(session, 1), store.snapshot()
            ).close()
            board.publish(1)
            # Pinned, so retired but not unlinked yet.
            assert segment_name(session, 0) in set(iter_repro_segments())
            assert board.generations()[0]["retired"] == 1
            board.release(0)  # last reader drops it -> unlink
            assert segment_name(session, 0) not in set(
                iter_repro_segments()
            )
            assert 0 not in board.generations()
        finally:
            board.destroy()

    def test_unpinned_generation_unlinked_at_publish(self):
        session, lock = new_session(), _lock()
        board = GenerationBoard.create(session, lock)
        store = _sharded()
        try:
            export_snapshot(
                segment_name(session, 0), store.snapshot()
            ).close()
            board.publish(0)
            export_snapshot(
                segment_name(session, 1), store.snapshot()
            ).close()
            board.publish(1)  # nobody read gen 0: dropped right here
            assert segment_name(session, 0) not in set(
                iter_repro_segments()
            )
        finally:
            board.destroy()

    def test_board_full_is_a_typed_error(self):
        session, lock = new_session(), _lock()
        board = GenerationBoard.create(session, lock)
        store = _sharded(n_shards=1)
        try:
            for generation in range(16):  # every slot pinned forever
                export_snapshot(
                    segment_name(session, generation), store.snapshot()
                ).close()
                board.publish(generation)
                board.acquire()
            export_snapshot(
                segment_name(session, 16), store.snapshot()
            ).close()
            with pytest.raises(SharedStoreError, match="board full"):
                board.publish(16)
        finally:
            # The rejected generation never made it onto the board, so
            # destroy() cannot know about its segment.
            _unlink(segment_name(session, 16))
            board.destroy()

    def test_attach_rejects_non_board_segment(self):
        session, lock = new_session(), _lock()
        shm = _create(board_name(session), 1024)
        try:
            with pytest.raises(SharedStoreError, match="not a generation"):
                GenerationBoard.attach(session, lock)
        finally:
            shm.close()
            _unlink(board_name(session))

    def test_destroy_leaves_dev_shm_empty(self):
        session, lock = new_session(), _lock()
        board = GenerationBoard.create(session, lock)
        export_snapshot(
            segment_name(session, 0), _sharded().snapshot()
        ).close()
        board.publish(0)
        board.acquire()  # destroy must sweep even pinned generations
        board.destroy()
        assert not [
            name for name in iter_repro_segments() if session in name
        ]


class TestPublisherReader:
    def test_reader_duck_types_the_shard_store(self):
        store = _sharded()
        with SharedStorePublisher() as publisher:
            publisher.publish(store.snapshot())
            reader = SharedStoreReader(publisher.session, publisher.lock)
            try:
                assert reader.version == store.version
                assert reader.n_shards == store.n_shards
                assert reader.n_papers == store.n_papers
                assert reader.labels == store.snapshot().labels
                assert reader.partitioner == store.partitioner
                assert np.array_equal(
                    reader.snapshot().shard(0).scores["CC"],
                    store.snapshot().shard(0).scores["CC"],
                )
            finally:
                reader.close()

    def test_reader_follows_generation_swaps(self):
        store = _sharded()
        with SharedStorePublisher() as publisher:
            assert publisher.publish(store.snapshot()) == 0
            reader = SharedStoreReader(publisher.session, publisher.lock)
            try:
                assert reader.generation == 0
                old_scores = reader.snapshot().shard(0).scores["CC"]
                assert publisher.publish(store.snapshot()) == 1
                # The peek on the next snapshot() call repins.
                assert reader.snapshot().version == store.version
                assert reader.generation == 1
                # The superseded view stays readable until dropped —
                # a reader mid-batch never sees its arrays vanish.
                assert np.array_equal(
                    old_scores,
                    reader.snapshot().shard(0).scores["CC"],
                )
            finally:
                reader.close()
            assert publisher.published == 2

    def test_close_then_destroy_leaves_no_segments(self):
        store = _sharded()
        publisher = SharedStorePublisher()
        session = publisher.session
        publisher.publish(store.snapshot())
        reader = SharedStoreReader(session, publisher.lock)
        reader.snapshot()
        reader.close()
        publisher.close()
        assert not [
            name for name in iter_repro_segments() if session in name
        ]


def _damage(name: str, array: str | None) -> None:
    """Flip one byte of a published segment: in its header, or in the
    first byte of ``array``'s region."""
    import json
    import struct

    segment = _attach(name)
    try:
        (length,) = struct.unpack_from("<I", segment.buf, 8)
        offset = 16 + length // 2
        if array is not None:
            header = json.loads(bytes(segment.buf[16:16 + length]))
            body = -(-(16 + length) // 64) * 64
            (record,) = [r for r in header["arrays"] if r["name"] == array]
            offset = body + record["offset"]
        segment.buf[offset] ^= 0xFF
    finally:
        segment.close()


class TestCorruptSegments:
    """A generation damaged after it was published is refused by a
    checksum — the reader raises, and never serves a snapshot built from
    the damaged bytes."""

    @pytest.mark.parametrize(
        "array", [None, "shards/0/scores/CC"], ids=["header", "scores"]
    )
    def test_flipped_byte_is_refused(self, array):
        store = _sharded()
        publisher = SharedStorePublisher()
        session = publisher.session
        try:
            publisher.publish(store.snapshot())
            reader = SharedStoreReader(session, publisher.lock)
            try:
                generation = publisher.publish(store.snapshot())
                _damage(segment_name(session, generation), array)
                for _ in range(2):  # refused on every attempt
                    with pytest.raises(SharedStoreError, match="checksum"):
                        reader.snapshot()
                    assert reader.generation == 0
                # The refused generation is left unpinned.
                assert publisher.board.generations()[generation]["readers"] == 0
                with pytest.raises(SharedStoreError, match="checksum"):
                    SharedStoreReader(session, publisher.lock)
            finally:
                reader.close()
        finally:
            publisher.close()
        assert not [
            name for name in iter_repro_segments() if session in name
        ]

    def test_malformed_store_metadata_is_typed(self):
        """A well-formed segment whose store metadata is wrong fails
        with SharedStoreError, although its arrays were already mapped
        when the metadata check ran."""
        from repro.io.layout import decode, encode
        from repro.serve.shard import encode_store

        encoded = encode_store(_sharded().snapshot())
        raw = bytearray(encoded.size)
        encoded.into(memoryview(raw))
        arrays = decode(
            bytes(raw), kind="store", source="store", error=SharedStoreError
        ).arrays
        forged = encode("store", {"version": "v1"}, arrays)
        name = segment_name(new_session(), 0)
        shm = _create(name, forged.size)
        try:
            forged.into(shm.buf)
            with pytest.raises(SharedStoreError, match="malformed store metadata"):
                attach_snapshot(name)
        finally:
            shm.close()
            _unlink(name)


#: The tests that attach a segment they made themselves, with content
#: the module must refuse.
HOSTILE_SEGMENT_TESTS = (
    "TestSegmentRoundTrip::test_bad_magic_is_a_typed_error",
    "TestGenerationBoard::test_attach_rejects_non_board_segment",
    "TestCorruptSegments::test_malformed_store_metadata_is_typed",
)


def test_hostile_segments_leave_the_resource_tracker_quiet():
    """Run in a child interpreter, the hostile-segment tests print no
    resource-tracker traceback at exit.  Made with the stdlib's
    ``SharedMemory(create=True)`` and dropped with its ``unlink()``,
    they did: the tracker keeps names in a set, so the attach's
    unregister removed the creator's registration, and ``unlink()``'s
    second unregister raised ``KeyError`` inside the tracker."""
    here = Path(__file__).resolve()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parents[1])]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
        + [f"{here}::{test}" for test in HOSTILE_SEGMENT_TESTS],
        cwd=here.parents[1],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "3 passed" in done.stdout, done.stdout
    assert "Traceback" not in done.stderr, done.stderr
