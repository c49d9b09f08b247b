"""Unit tests for repro.serve.score_index (and the LRU cache)."""

import numpy as np
import pytest

from repro.baselines import warm_startable
from repro.errors import ConfigurationError, DataFormatError
from repro.io.serialize import save_network
from repro.serve import LRUCache, ScoreIndex


class TestScoreIndex:
    def test_add_method_solves_cold(self, toy):
        index = ScoreIndex(toy)
        entry = index.add_method("AR", alpha=0.2, beta=0.5, gamma=0.3)
        assert entry.label == "AR"
        assert not entry.warm_started
        assert entry.converged
        assert entry.iterations > 0
        assert entry.scores.shape == (toy.n_papers,)

    def test_scores_are_read_only(self, toy, tmp_path):
        index = ScoreIndex(toy)
        index.add_method("PR")
        with pytest.raises(ValueError, match="read-only"):
            index.scores("PR")[0] = 1.0
        path = str(tmp_path / "index.snap")
        index.save(path)
        loaded = ScoreIndex.load(path)
        with pytest.raises(ValueError, match="read-only"):
            loaded.scores("PR")[0] = 1.0

    def test_closed_form_method_has_zero_iterations(self, toy):
        index = ScoreIndex(toy)
        entry = index.add_method("CC")
        assert entry.iterations == 0
        assert entry.converged

    def test_label_is_case_insensitive(self, toy):
        index = ScoreIndex(toy)
        index.add_method("cc")
        assert "CC" in index
        assert "cc" in index
        assert index.scores("cc") is index.scores("CC")

    def test_duplicate_method_rejected(self, toy):
        index = ScoreIndex(toy)
        index.add_method("CC")
        with pytest.raises(ConfigurationError, match="already indexed"):
            index.add_method("CC")

    def test_unknown_method_lookup(self, toy):
        index = ScoreIndex(toy)
        with pytest.raises(ConfigurationError, match="not in the index"):
            index.scores("AR")

    def test_empty_network_rejected(self, two_dangling):
        with pytest.raises(ConfigurationError):
            ScoreIndex(two_dangling.subnetwork([]))

    def test_refresh_bumps_version_and_warm_starts(self, toy):
        index = ScoreIndex(toy)
        index.add_method("PR")
        index.add_method("CC")
        assert index.version == 0
        entries = index.refresh()
        assert index.version == 1
        assert entries["PR"].warm_started
        assert not entries["CC"].warm_started  # closed form has no start
        entries = index.refresh(warm=False)
        assert index.version == 2
        assert not entries["PR"].warm_started

    def test_refresh_rejects_shrinking_network(self, toy, chain):
        index = ScoreIndex(toy)
        index.add_method("CC")
        with pytest.raises(ConfigurationError, match="only grows"):
            index.refresh(chain)

    def test_refresh_keeps_params(self, toy):
        index = ScoreIndex(toy)
        index.add_method("PR", alpha=0.3)
        index.refresh()
        assert index.entry("PR").params == {"alpha": 0.3}

    def test_failed_refresh_leaves_index_unchanged(self, toy, monkeypatch):
        """A solve failure mid-refresh must not half-commit state."""
        import repro.serve.score_index as score_index_module
        from repro.errors import ConvergenceError

        index = ScoreIndex(toy)
        index.add_method("CC")
        index.add_method("PR")
        network_before = index.network
        scores_before = {
            label: index.scores(label).copy() for label in index.labels
        }

        real_make_method = score_index_module.make_method

        def failing_make_method(label, **params):
            method = real_make_method(label, **params)
            if label == "PR":
                def explode(network):
                    raise ConvergenceError(
                        "synthetic failure", iterations=1, residual=1.0
                    )
                # Opt the method out of the fused stack so the refresh
                # falls back to the (exploding) scalar solve.
                method.scores = explode
                method.fused_column = lambda network: None
            return method

        monkeypatch.setattr(
            score_index_module, "make_method", failing_make_method
        )
        extended = toy.extend(["N1"], [2006.0], [])
        with pytest.raises(ConvergenceError):
            index.refresh(extended)

        # Untouched: snapshot, version, and every score vector.
        assert index.network is network_before
        assert index.version == 0
        for label in index.labels:
            np.testing.assert_array_equal(
                index.scores(label), scores_before[label]
            )

    def test_warm_startable_registry_helper(self):
        assert warm_startable("AR")
        assert warm_startable("pr")
        assert warm_startable("CR")
        assert not warm_startable("CC")
        assert not warm_startable("RAM")
        with pytest.raises(ConfigurationError, match="unknown method"):
            warm_startable("nope")


class TestScoreIndexPersistence:
    def test_roundtrip(self, toy, tmp_path):
        path = str(tmp_path / "index.snap")
        index = ScoreIndex(toy)
        index.add_method("AR", alpha=0.2, beta=0.5, gamma=0.3)
        index.add_method("CC")
        index.refresh()
        index.save(path)

        loaded = ScoreIndex.load(path)
        assert loaded.version == index.version == 1
        assert loaded.labels == ("AR", "CC")
        assert loaded.network.paper_ids == toy.paper_ids
        for label in index.labels:
            np.testing.assert_allclose(
                loaded.scores(label), index.scores(label)
            )
            assert loaded.entry(label).params == index.entry(label).params
            assert loaded.entry(label).iterations == (
                index.entry(label).iterations
            )

    def test_loaded_index_can_refresh(self, toy, tmp_path):
        path = str(tmp_path / "index.snap")
        index = ScoreIndex(toy)
        index.add_method("PR")
        index.save(path)
        loaded = ScoreIndex.load(path)
        entries = loaded.refresh()
        assert entries["PR"].warm_started
        np.testing.assert_allclose(
            loaded.scores("PR"), index.scores("PR"), atol=1e-10
        )

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="not found"):
            ScoreIndex.load(str(tmp_path / "nope.snap"))

    def test_bare_network_file_rejected(self, toy, tmp_path):
        path = str(tmp_path / "net.snap")
        save_network(toy, path)
        with pytest.raises(DataFormatError, match="not a repro score index"):
            ScoreIndex.load(path)


class TestLRUCache:
    def test_hit_miss_and_eviction(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes a's recency
        cache.put("c", 3)  # evicts b, the least recently used
        assert cache.get("b") is None
        assert cache.get("a") == 1
        stats = cache.stats()
        assert stats.hits == 2
        assert stats.misses == 1
        assert stats.evictions == 1
        assert stats.size == 2
        assert 0 < stats.hit_rate < 1

    def test_clear_keeps_counters(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1

    def test_put_refreshes_existing_key(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, no eviction
        cache.put("c", 3)  # evicts b
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_bad_maxsize(self):
        with pytest.raises(ConfigurationError):
            LRUCache(maxsize=0)


class TestLoadIntegrityValidation:
    """The load path must fail typed, never with a bare KeyError."""

    @staticmethod
    def _tampered(toy, tmp_path, mutate):
        """Save a valid index, let ``mutate`` edit its metadata and
        arrays, and rewrite it through the layout's own writer."""
        from repro.errors import IndexIntegrityError
        from repro.io.layout import encode, read

        path = str(tmp_path / "index.snap")
        index = ScoreIndex(toy)
        index.add_method("CC")
        index.save(path)
        decoded = read(path, kind="index", error=IndexIntegrityError)
        meta, arrays = decoded.meta, dict(decoded.arrays)
        mutate(meta, arrays)
        encode("index", meta, arrays).save(path)
        return path

    def test_missing_version_field(self, toy, tmp_path):
        from repro.errors import IndexIntegrityError

        path = self._tampered(
            toy, tmp_path, lambda meta, arrays: meta.pop("version")
        )
        with pytest.raises(IndexIntegrityError, match="malformed"):
            ScoreIndex.load(path)

    def test_negative_version(self, toy, tmp_path):
        from repro.errors import IndexIntegrityError

        def mutate(meta, arrays):
            meta["version"] = -3

        with pytest.raises(IndexIntegrityError, match="negative"):
            ScoreIndex.load(self._tampered(toy, tmp_path, mutate))

    def test_unknown_method_label(self, toy, tmp_path):
        from repro.errors import IndexIntegrityError

        def mutate(meta, arrays):
            meta["methods"][0]["label"] = "NOT-A-METHOD"

        with pytest.raises(IndexIntegrityError, match="unknown method"):
            ScoreIndex.load(self._tampered(toy, tmp_path, mutate))

    def test_duplicate_method_records(self, toy, tmp_path):
        from repro.errors import IndexIntegrityError

        def mutate(meta, arrays):
            meta["methods"].append(dict(meta["methods"][0]))

        with pytest.raises(IndexIntegrityError, match="twice"):
            ScoreIndex.load(self._tampered(toy, tmp_path, mutate))

    def test_declared_scores_missing(self, toy, tmp_path):
        from repro.errors import IndexIntegrityError

        def mutate(meta, arrays):
            del arrays["scores/CC"]

        with pytest.raises(IndexIntegrityError, match="missing"):
            ScoreIndex.load(self._tampered(toy, tmp_path, mutate))

    def test_undeclared_score_vector(self, toy, tmp_path):
        from repro.errors import IndexIntegrityError

        def mutate(meta, arrays):
            arrays["scores/PR"] = arrays["scores/CC"]

        with pytest.raises(IndexIntegrityError, match="not declared"):
            ScoreIndex.load(self._tampered(toy, tmp_path, mutate))

    def test_truncated_method_record(self, toy, tmp_path):
        from repro.errors import IndexIntegrityError

        def mutate(meta, arrays):
            del meta["methods"][0]["params"]

        with pytest.raises(IndexIntegrityError, match="malformed method"):
            ScoreIndex.load(self._tampered(toy, tmp_path, mutate))

    def test_integrity_error_is_a_data_format_error(self):
        from repro.errors import DataFormatError, IndexIntegrityError

        assert issubclass(IndexIntegrityError, DataFormatError)
