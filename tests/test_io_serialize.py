"""Unit tests for the network file round-trip."""

import numpy as np
import pytest

from repro.errors import DataFormatError
from repro.io.serialize import load_network, save_network


class TestRoundTrip:
    def test_toy_round_trip(self, toy, tmp_path):
        path = str(tmp_path / "toy.snap")
        save_network(toy, path)
        loaded = load_network(path)
        assert loaded.paper_ids == toy.paper_ids
        assert np.array_equal(loaded.publication_times, toy.publication_times)
        assert np.array_equal(loaded.citing, toy.citing)
        assert np.array_equal(loaded.cited, toy.cited)
        assert loaded.paper_authors == toy.paper_authors
        assert np.array_equal(loaded.paper_venues, toy.paper_venues)

    def test_metadata_free_round_trip(self, chain, tmp_path):
        path = str(tmp_path / "chain.snap")
        save_network(chain, path)
        loaded = load_network(path)
        assert not loaded.has_authors
        assert not loaded.has_venues
        assert loaded.n_citations == 3

    def test_synthetic_round_trip_preserves_scores(self, hepth_tiny, tmp_path):
        """Ranking scores must be bit-identical after a round-trip."""
        from repro.baselines.ram import RetainedAdjacency

        path = str(tmp_path / "hepth.snap")
        save_network(hepth_tiny, path)
        loaded = load_network(path)
        original = RetainedAdjacency(gamma=0.5).scores(hepth_tiny)
        restored = RetainedAdjacency(gamma=0.5).scores(loaded)
        assert np.array_equal(original, restored)


class TestErrors:
    def test_missing_file(self):
        with pytest.raises(DataFormatError, match="not found"):
            load_network("/no/such/file.snap")

    def test_wrong_file_rejected(self, tmp_path):
        path = str(tmp_path / "junk.npz")
        np.savez(path, unrelated=np.ones(3))
        with pytest.raises(DataFormatError, match="not a repro network"):
            load_network(path)

    def test_wrong_version_rejected(self, toy, tmp_path, monkeypatch):
        from repro.io import layout

        path = str(tmp_path / "toy.snap")
        with monkeypatch.context() as patch:
            patch.setattr(layout, "FORMAT_VERSION", 999)
            save_network(toy, path)
        with pytest.raises(DataFormatError, match="unsupported format"):
            load_network(path)
