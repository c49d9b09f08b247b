"""Failure-injection tests: corrupt inputs, degenerate networks, and
adversarial configurations must fail loudly (or degrade gracefully where
the API documents it) — never return silently wrong rankings."""

import json
import os
import struct

import numpy as np
import pytest

from repro.baselines import METHOD_REGISTRY, make_method
from repro.errors import (
    ConfigurationError,
    DataFormatError,
    EvaluationError,
    GraphError,
    ReproError,
)
from repro.graph.builder import NetworkBuilder
from repro.graph.citation_network import CitationNetwork


def edgeless(n: int, *, spread: float = 1.0) -> CitationNetwork:
    """n isolated papers spanning `spread` years."""
    times = 2000.0 + np.linspace(0.0, spread, n)
    return CitationNetwork([f"p{i}" for i in range(n)], times, [], [])


class TestDegenerateNetworks:
    def test_every_method_handles_edgeless_network(self):
        """No citations at all: methods must still return valid scores
        (uniform-ish), not crash or divide by zero."""
        network = edgeless(6)
        for name in METHOD_REGISTRY:
            if name in ("FR", "WSDM"):
                continue  # require metadata, tested separately
            if name in ("AR", "NO-ATT"):
                method = make_method(name, decay_rate=-0.5)
            else:
                method = make_method(name)
            scores = method.scores(network)
            assert np.all(np.isfinite(scores)), name
            assert scores.min() >= 0, name

    def test_single_useful_paper_network(self):
        builder = NetworkBuilder()
        builder.add_paper("a", 2000.0)
        builder.add_paper("b", 2001.0, references=["a"])
        network = builder.build()
        scores = make_method("AR", decay_rate=-0.5).scores(network)
        assert scores.sum() == pytest.approx(1.0)

    def test_same_instant_publications(self):
        """All papers published at the same instant: ages are all zero,
        recency must degrade to uniform rather than NaN."""
        network = CitationNetwork(
            ["x", "y", "z"], [2000.0] * 3, [], []
        )
        from repro.core.recency import recency_vector

        vector = recency_vector(network, -1.0)
        assert np.allclose(vector, 1 / 3)

    def test_attrank_fit_fails_loudly_on_edgeless_network(self):
        """Auto-fitting w needs citation ages; with none the error must
        be a ReproError, not an inscrutable numpy failure."""
        with pytest.raises(ReproError):
            make_method("AR").scores(edgeless(5))


class TestCorruptFiles:
    def test_binary_garbage_edge_file(self, tmp_path):
        from repro.io.edgelist import load_edge_list

        edges = tmp_path / "edges.bin"
        edges.write_bytes(bytes(range(256)))
        times = tmp_path / "times.txt"
        times.write_text("a 2000\n")
        with pytest.raises(DataFormatError):
            load_edge_list(str(edges), str(times))

    def test_empty_metadata_csv(self, tmp_path):
        from repro.io.edgelist import load_csv_dataset

        metadata = tmp_path / "papers.csv"
        metadata.write_text("")
        citations = tmp_path / "citations.csv"
        citations.write_text("a,b\n")
        with pytest.raises(DataFormatError):
            load_csv_dataset(str(metadata), str(citations))


def _flip_byte(path: str, offset: int) -> None:
    raw = bytearray(open(path, "rb").read())
    raw[offset] ^= 0xFF
    open(path, "wb").write(bytes(raw))


def _corruption_offsets(raw: bytes) -> dict[str, int]:
    """Where to damage a snapshot file, read independently of the
    library: every prefix byte, one header byte, one byte of header
    padding, and the first byte of each array and of its padding."""
    (length,) = struct.unpack_from("<I", raw, 8)
    body = -(-(16 + length) // 64) * 64
    header = json.loads(raw[16:16 + length])
    offsets = {f"prefix[{i}]": i for i in range(16)}
    offsets["header"] = 16 + length // 2
    if body > 16 + length:
        offsets["header padding"] = 16 + length
    for record in header["arrays"]:
        start = body + record["offset"]
        end = start + record["count"] * np.dtype(record["dtype"]).itemsize
        if end > start:
            offsets[record["name"]] = start
        if end % 64:
            offsets[f"{record['name']} padding"] = end
    return offsets


class TestCorruptSnapshotFiles:
    """A flipped, missing or extra byte anywhere in a network, index or
    store file is refused with a typed error before anything loads —
    never a wrong answer served from damaged bytes."""

    @pytest.fixture(params=["network", "index", "store"])
    def snapshot_file(self, request, toy, tmp_path):
        from repro.io.serialize import load_network, save_network
        from repro.serve import ScoreIndex, ShardedScoreIndex

        path = str(tmp_path / f"{request.param}.snap")
        index = ScoreIndex(toy)
        index.add_method("CC")
        index.add_method("PR")
        if request.param == "network":
            save_network(toy, path)
            return path, load_network
        if request.param == "index":
            index.save(path)
            return path, ScoreIndex.load
        ShardedScoreIndex.from_index(index, n_shards=2).save(path)
        return path, ShardedScoreIndex.load

    def test_flipped_byte_is_refused(self, snapshot_file):
        path, load = snapshot_file
        raw = open(path, "rb").read()
        for where, offset in _corruption_offsets(raw).items():
            damaged = bytearray(raw)
            damaged[offset] ^= 0xFF
            open(path, "wb").write(bytes(damaged))
            with pytest.raises(DataFormatError):
                load(path)
                pytest.fail(f"loaded with a flipped byte at {where}")

    def test_resized_file_is_refused(self, snapshot_file):
        path, load = snapshot_file
        raw = open(path, "rb").read()
        cuts = [*_corruption_offsets(raw).values(), len(raw) - 1]
        for damaged in [raw[:cut] for cut in cuts] + [raw + b"\0"]:
            open(path, "wb").write(damaged)
            with pytest.raises(DataFormatError):
                load(path)
                pytest.fail(f"loaded from {len(damaged)} of {len(raw)} bytes")


class TestCorruptCheckpoints:
    """`repro stream resume` against a damaged checkpoint must exit 1
    with a typed one-line error, not a traceback."""

    @pytest.fixture
    def replayed(self, toy, tmp_path, capsys):
        from repro.cli import main
        from repro.io.serialize import save_network

        network_file = str(tmp_path / "net.snap")
        save_network(toy, network_file)
        log_file = str(tmp_path / "events.jsonl")
        assert main(
            ["stream", "extract", "--input", network_file,
             "--output", log_file]
        ) == 0
        ckpt = str(tmp_path / "ckpt")
        assert main(
            ["stream", "replay", "--log", log_file, "--methods", "CC",
             "--batch-size", "2", "--bootstrap-size", "4",
             "--max-batches", "2", "--checkpoint-dir", ckpt,
             "--checkpoint-every", "1"]
        ) == 0
        capsys.readouterr()
        return log_file, ckpt

    def test_corrupted_digest_is_a_stream_error(self, replayed, capsys):
        from repro.cli import main

        log_file, ckpt = replayed
        manifest = os.path.join(ckpt, "checkpoint.json")
        payload = json.load(open(manifest))
        payload["log_digest"] = "0" * len(payload["log_digest"])
        json.dump(payload, open(manifest, "w"))
        code = main(
            ["stream", "resume", "--checkpoint", ckpt, "--log", log_file]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "error: [StreamError]" in err and "digest" in err

    def test_corrupted_checkpoint_index_is_typed(self, replayed, capsys):
        from repro.cli import main

        log_file, ckpt = replayed
        (index_file,) = [
            name for name in os.listdir(ckpt) if name.endswith(".snap")
        ]
        path = os.path.join(ckpt, index_file)
        _flip_byte(path, os.path.getsize(path) // 2)
        code = main(
            ["stream", "resume", "--checkpoint", ckpt, "--log", log_file]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "error: [IndexIntegrityError]" in err


class TestAdversarialConfiguration:
    def test_coefficients_fuzz(self):
        """Random invalid coefficient triples never construct."""
        from repro.core.attrank import AttRank

        rng = np.random.default_rng(0)
        for _ in range(50):
            alpha, beta, gamma = rng.uniform(-0.5, 1.5, size=3)
            if (
                0 <= alpha <= 1
                and 0 <= beta <= 1
                and 0 <= gamma <= 1
                and abs(alpha + beta + gamma - 1) <= 1e-6
            ):
                AttRank(alpha=alpha, beta=beta, gamma=gamma)
            else:
                with pytest.raises(ConfigurationError):
                    AttRank(alpha=alpha, beta=beta, gamma=gamma)

    def test_split_ratio_fuzz(self, toy):
        from repro.eval.split import split_by_ratio

        for ratio in (-1.0, 0.0, 0.5, 1.0, 2.01, 100.0, float("inf")):
            with pytest.raises(EvaluationError):
                split_by_ratio(toy, ratio)

    def test_subnetwork_index_fuzz(self, toy):
        rng = np.random.default_rng(1)
        for _ in range(20):
            indices = rng.integers(-3, 12, size=5)
            valid = (
                np.unique(indices).size == indices.size
                and indices.min() >= 0
                and indices.max() < toy.n_papers
            )
            if valid:
                toy.subnetwork(indices)
            else:
                with pytest.raises(GraphError):
                    toy.subnetwork(indices)
