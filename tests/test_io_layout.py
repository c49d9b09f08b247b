"""Tests for repro.io.layout — the one snapshot encoding.

Network files, index files, store files and shared-memory generations
share one checksummed columnar layout.  These tests hold it to its
rules: arbitrary ids and every array of every kind round-trip bit for
bit, a store file is byte for byte the segment a worker fleet attaches,
store columns are read-only zero-copy views, and every malformed
prefix, header or array table is a typed error naming its source.
(Corrupted bytes are refused in tests/test_failure_injection.py and
tests/test_serve_shm.py.)
"""

import json
import struct
import tempfile
import zlib
from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import DataFormatError, IndexIntegrityError, SharedStoreError
from repro.graph.citation_network import CitationNetwork
from repro.io import load_network, save_network
from repro.io.layout import decode
from repro.io.serialize import network_payload
from repro.serve import ScoreIndex, ShardedScoreIndex
from repro.serve.shm import (
    _unlink,
    attach_snapshot,
    export_snapshot,
    iter_repro_segments,
    new_session,
    segment_name,
)
from repro.synth import toy_network


@pytest.fixture(autouse=True)
def _no_leaked_segments():
    before = set(iter_repro_segments())
    yield
    leaked = set(iter_repro_segments()) - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


def _with_segment(snapshot, check):
    """Export ``snapshot``, attach it, run ``check`` on the attached
    snapshot, and unlink — no view outlives the close."""
    name = segment_name(new_session(), 0)
    shm = export_snapshot(name, snapshot)
    try:
        mapping, attached = attach_snapshot(name)
        try:
            check(attached)
        finally:
            del attached
            mapping.close()
    finally:
        shm.close()
        _unlink(name)


def _assert_same_ids(original, loaded, ids):
    for shard_id in range(original.n_shards):
        assert (
            loaded.shard(shard_id).paper_ids
            == original.shard(shard_id).paper_ids
        )
    for paper_id in ids:
        found = [
            (shard.shard_id, shard.location_of(paper_id))
            for shard in loaded.iter_shards()
            if shard.location_of(paper_id) is not None
        ]
        expected = [
            (shard.shard_id, shard.location_of(paper_id))
            for shard in original.iter_shards()
            if shard.location_of(paper_id) is not None
        ]
        assert found == expected and len(found) == 1, paper_id


# Any text UTF-8 can encode: surrogates are the only code points it
# cannot, so they are excluded.
_IDS = st.lists(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    min_size=1,
    max_size=8,
    unique=True,
)


class TestIdRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(ids=_IDS)
    @example(ids=["a\x00", "b", "c\x00\x00"])
    @example(ids=["", "\x00", "é", "日本語"])
    def test_any_id_round_trips_through_every_kind(self, ids):
        network = CitationNetwork(
            ids, np.linspace(2000.0, 2003.0, len(ids)), [], []
        )
        index = ScoreIndex(network)
        index.add_method("CC")
        store = ShardedScoreIndex.from_index(index, n_shards=2)
        with tempfile.TemporaryDirectory() as directory:
            save_network(network, f"{directory}/network.snap")
            assert load_network(f"{directory}/network.snap").paper_ids == tuple(ids)
            index.save(f"{directory}/index.snap")
            loaded = ScoreIndex.load(f"{directory}/index.snap")
            assert loaded.network.paper_ids == tuple(ids)
            store.save(f"{directory}/store.snap")
            _assert_same_ids(
                store.snapshot(),
                ShardedScoreIndex.load(f"{directory}/store.snap").snapshot(),
                ids,
            )
        _with_segment(
            store.snapshot(),
            lambda attached: _assert_same_ids(store.snapshot(), attached, ids),
        )


@st.composite
def _indexes(draw):
    """A small scored network: same-time ties, dangling papers, and
    optional author and venue data."""
    n = draw(st.integers(1, 12))
    years = st.sampled_from([2000.0, 2000.5, 2002.0])
    times = sorted(draw(st.lists(years, min_size=n, max_size=n)))
    citing, cited = [], []
    for source in range(1, n):
        for target in draw(st.sets(st.integers(0, source - 1), max_size=3)):
            citing.append(source)
            cited.append(target)
    authors = draw(
        st.none()
        | st.lists(st.lists(st.integers(0, 4), max_size=3), min_size=n, max_size=n)
    )
    venues = draw(st.none() | st.lists(st.integers(-1, 3), min_size=n, max_size=n))
    network = CitationNetwork(
        [f"p{i}" for i in range(n)], times, citing, cited,
        paper_authors=authors, paper_venues=venues,
    )
    index = ScoreIndex(network, version=draw(st.integers(0, 5)))
    index.add_method("CC")
    index.add_method("PR")
    return index


def _assert_bitwise(left, right):
    assert left.dtype == right.dtype
    assert left.tobytes() == right.tobytes()


def _assert_store_equal(original, loaded):
    assert (loaded.version, loaded.labels, loaded.n_papers, loaded.n_shards) == (
        original.version, original.labels, original.n_papers, original.n_shards
    )
    assert loaded.partitioner == original.partitioner
    for shard_id in range(original.n_shards):
        bounds = original.shard_time_bounds(shard_id)
        assert loaded.shard_time_bounds(shard_id) == bounds
        ours, theirs = original.shard(shard_id), loaded.shard(shard_id)
        assert theirs.paper_ids == ours.paper_ids
        _assert_bitwise(theirs.global_indices, ours.global_indices)
        _assert_bitwise(theirs.times, ours.times)
        for label in original.labels:
            _assert_bitwise(theirs.scores[label], ours.scores[label])


class TestEveryArrayRoundTrips:
    @settings(max_examples=40, deadline=None)
    @given(
        index=_indexes(),
        n_shards=st.integers(1, 7),
        partitioner=st.sampled_from(["hash", "year"]),
    )
    def test_bit_for_bit(self, index, n_shards, partitioner):
        network = index.network
        store = ShardedScoreIndex.from_index(
            index, n_shards=n_shards, partitioner=partitioner
        )
        with tempfile.TemporaryDirectory() as directory:
            save_network(network, f"{directory}/network.snap")
            restored = load_network(f"{directory}/network.snap")
            expected = network_payload(network)
            actual = network_payload(restored)
            assert list(actual) == list(expected)
            for name in expected:
                _assert_bitwise(actual[name], expected[name])
            assert restored.paper_authors == network.paper_authors

            index.save(f"{directory}/index.snap")
            loaded = ScoreIndex.load(f"{directory}/index.snap")
            assert loaded.version == index.version
            assert loaded.labels == index.labels
            for name, array in network_payload(loaded.network).items():
                _assert_bitwise(array, expected[name])
            for label in index.labels:
                _assert_bitwise(loaded.scores(label), index.scores(label))
                ours, theirs = index.entry(label), loaded.entry(label)
                for field in ("params", "iterations", "converged", "warm_started"):
                    assert getattr(theirs, field) == getattr(ours, field)

            store.save(f"{directory}/store.snap")
            with open(f"{directory}/store.snap", "rb") as handle:
                saved = handle.read()
            _assert_store_equal(
                store.snapshot(),
                ShardedScoreIndex.load(f"{directory}/store.snap").snapshot(),
            )

        def check(attached):
            _assert_store_equal(store.snapshot(), attached)

        _with_segment(store.snapshot(), check)
        # The file is exactly the bytes placed in shared memory.
        name = segment_name(new_session(), 0)
        shm = export_snapshot(name, store.snapshot())
        try:
            assert bytes(shm.buf) == saved
        finally:
            shm.close()
            _unlink(name)


class TestStoreColumnsAreViews:
    @staticmethod
    def _root(array):
        """The object that owns a view's memory: the file's bytes, or
        the segment's mapping."""
        while isinstance(array, np.ndarray) and array.base is not None:
            array = array.base
        return array.obj if isinstance(array, memoryview) else array

    def _assert_views_of_one_buffer(self, snapshot):
        roots = set()
        for shard in snapshot.iter_shards():
            for column in (shard.global_indices, shard.times, *shard.scores.values()):
                assert not column.flags.writeable
                assert not column.flags.owndata
                roots.add(id(self._root(column)))
        assert len(roots) == 1

    def _store(self):
        index = ScoreIndex(toy_network())
        index.add_method("CC")
        index.add_method("PR")
        return ShardedScoreIndex.from_index(index, n_shards=2)

    def test_file_columns(self, tmp_path):
        path = str(tmp_path / "store.snap")
        self._store().save(path)
        loaded = ShardedScoreIndex.load(path)
        self._assert_views_of_one_buffer(loaded.snapshot())
        root = self._root(loaded.shard(0).scores["CC"])
        assert isinstance(root, bytes)
        assert len(root) == (tmp_path / "store.snap").stat().st_size

    def test_segment_columns(self):
        _with_segment(
            self._store().snapshot(), self._assert_views_of_one_buffer
        )

    def test_index_and_network_loads_copy_out(self, tmp_path):
        """Only a store keeps views; an index or network load keeps no
        array that would pin the file's bytes."""
        index = ScoreIndex(toy_network())
        index.add_method("CC")
        index.save(str(tmp_path / "index.snap"))
        save_network(toy_network(), str(tmp_path / "network.snap"))
        loaded = ScoreIndex.load(str(tmp_path / "index.snap"))
        for network in (loaded.network, load_network(str(tmp_path / "network.snap"))):
            for array in (
                network.publication_times, network.citing, network.cited,
                network.paper_venues, loaded.scores("CC"),
            ):
                assert not isinstance(self._root(array), bytes)


# ----------------------------------------------------------------------
# Malformed headers: forged with a valid header checksum, so each one
# reaches the header's validation.
# ----------------------------------------------------------------------
def _forge(header, body=b""):
    if isinstance(header, dict):
        # Valid array checksums too, so only the check under test can
        # refuse the file.
        records = header.get("arrays", [])
        starts = [record["offset"] for record in records]
        for record, start, stop in zip(records, starts, starts[1:] + [len(body)]):
            record["crc32"] = zlib.crc32(body[start:stop])
    raw = header if isinstance(header, bytes) else json.dumps(header).encode()
    span = raw + bytes(-(16 + len(raw)) % 64)
    return struct.pack("<8sII", b"REPROSNP", len(raw), zlib.crc32(span)) + span + body


def _header(kind, *, size=0, arrays=(), **fields):
    return {"kind": kind, "format": 1, "meta": {}, "size": size,
            "arrays": list(arrays), **fields}


def _array(name="a", dtype="<f8", count=1, offset=0):
    return {"name": name, "dtype": dtype, "count": count, "offset": offset,
            "crc32": 0}


_CASES = {
    "not-utf8": lambda kind: _forge(b'{"kind": "\xff\xfe"}'),
    "invalid-json": lambda kind: _forge(b'{"kind": '),
    "not-an-object": lambda kind: _forge([kind, 1]),
    "nested-too-deep": lambda kind: _forge(b"[" * 100_000 + b"]" * 100_000),
    "missing-fields": lambda kind: _forge({"kind": kind, "format": 1}),
    "mistyped-format": lambda kind: _forge(_header(kind, format="1")),
    "mistyped-meta": lambda kind: _forge(_header(kind, meta=[1, 2])),
    "mistyped-record": lambda kind: _forge(
        _header(kind, size=64, arrays=[_array(count="1")]), bytes(64)
    ),
    "empty-meta": lambda kind: _forge(_header(kind)),
    "unknown-kind": lambda kind: _forge(_header("spreadsheet")),
    "unknown-version": lambda kind: _forge(_header(kind, format=2)),
    "bad-dtype": lambda kind: _forge(
        _header(kind, size=64, arrays=[_array(dtype="|O")]), bytes(64)
    ),
    "unaligned-offset": lambda kind: _forge(
        _header(kind, size=128, arrays=[_array(offset=8)]), bytes(128)
    ),
    "overlapping-offsets": lambda kind: _forge(
        _header(kind, size=64, arrays=[_array("a"), _array("b")]), bytes(64)
    ),
    "offset-out-of-range": lambda kind: _forge(
        _header(kind, size=64, arrays=[_array(offset=640)]), bytes(64)
    ),
    "count-past-end": lambda kind: _forge(
        _header(kind, size=64, arrays=[_array(count=100)]), bytes(64)
    ),
    "size-differs": lambda kind: _forge(
        _header(kind, size=128, arrays=[_array()]), bytes(64)
    ),
}


def _load_file(loader, raw, tmp_path):
    path = str(tmp_path / "forged.snap")
    with open(path, "wb") as handle:
        handle.write(raw)
    return path, lambda: loader(path)


def _attach(raw):
    name = segment_name(new_session(), 0)
    shm = shared_memory.SharedMemory(name=name, create=True, size=len(raw))
    shm.buf[: len(raw)] = raw

    return name, lambda: attach_snapshot(name), lambda: (shm.close(), shm.unlink())


def _decode_file(path):
    with open(path, "rb") as handle:
        return decode(handle.read(), kind=None, source=path, error=DataFormatError)


#: Reader -> (kind, load, error): ``load_network``, ``ScoreIndex.load``,
#: ``ShardedScoreIndex.load``, ``attach_snapshot`` (``None``), and the
#: bare layout decoder, which must refuse every case on its own.
_LOADERS = {
    "network": ("network", load_network, DataFormatError),
    "index": ("index", ScoreIndex.load, IndexIntegrityError),
    "store": ("store", ShardedScoreIndex.load, IndexIntegrityError),
    "segment": ("store", None, SharedStoreError),
    "layout": ("network", _decode_file, DataFormatError),
}


@pytest.mark.parametrize("loader", list(_LOADERS))
@pytest.mark.parametrize("case", list(_CASES))
def test_malformed_header_is_refused(case, loader, tmp_path):
    """A typed error naming the file or segment, from every reader."""
    if (case, loader) == ("empty-meta", "layout"):
        return  # a well-formed layout: only the kind's reader refuses it
    kind, load, error = _LOADERS[loader]
    raw = _CASES[case](kind)
    if load is None:
        source, attempt, cleanup = _attach(raw)
    else:
        source, attempt = _load_file(load, raw, tmp_path)
        cleanup = lambda: None  # noqa: E731
    try:
        with pytest.raises(error) as caught:
            attempt()
    finally:
        cleanup()
    assert source in str(caught.value)
    if error is DataFormatError:
        assert not isinstance(caught.value, IndexIntegrityError)


@pytest.mark.parametrize("loader", ["network", "index", "store"])
def test_missing_file_is_a_typed_error(loader, tmp_path):
    _, load, error = _LOADERS[loader]
    with pytest.raises(error, match="not found"):
        load(str(tmp_path / "absent.snap"))


def test_loads_take_the_kind_from_the_header(tmp_path):
    """File names carry no meaning: an index saved as ``network.npz``
    is an index, and a network file is not."""
    index = ScoreIndex(toy_network())
    index.add_method("CC")
    path = str(tmp_path / "network.npz")
    index.save(path)
    assert ScoreIndex.load(path).labels == ("CC",)
    with pytest.raises(DataFormatError, match="not a repro network .*score index"):
        load_network(path)
    save_network(toy_network(), path)
    with pytest.raises(IndexIntegrityError, match="not a repro score index"):
        ScoreIndex.load(path)
    with pytest.raises(IndexIntegrityError, match="not a repro score store"):
        ShardedScoreIndex.load(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["network.npz"]


_RAGGED_DAMAGE = {
    "ends-past-values": ("paper_ids/ends", lambda ends: ends + 1),
    "ends-decreasing": ("paper_ids/ends", lambda ends: ends[::-1].copy()),
    "ids-not-utf8": ("paper_ids/values", lambda values: np.full_like(values, 0xFF)),
    "ends-too-few": ("authors/ends", lambda ends: ends[:-1]),
}


@pytest.mark.parametrize("damage", list(_RAGGED_DAMAGE))
def test_bad_ragged_column_is_refused(damage, tmp_path):
    """Ragged columns written with valid checksums but inconsistent
    contents are typed errors, not garbage ids."""
    from repro.io.layout import encode

    arrays = network_payload(toy_network())
    name, change = _RAGGED_DAMAGE[damage]
    arrays[name] = change(arrays[name])
    path = str(tmp_path / "network.snap")
    encode("network", {}, arrays).save(path)
    with pytest.raises(DataFormatError, match="network.snap"):
        load_network(path)
