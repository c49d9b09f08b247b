"""Unit and property tests for repro.serve.delta.

The headline property (ISSUE acceptance): after applying a delta with
warm-started re-solves, every score vector matches a cold-start full
recompute on the extended network to within ``DEFAULT_TOLERANCE`` —
Theorem 1 makes the fixed point start-independent, so warm starts may
only change iteration counts, never results.
"""

import json

import numpy as np
import pytest

from repro.core.power_iteration import DEFAULT_TOLERANCE
from repro.errors import ConfigurationError, DataFormatError, GraphError
from repro.graph.temporal import chronological_order
from repro.serve import (
    DeltaUpdater,
    NetworkDelta,
    ScoreIndex,
    delta_between,
)
from repro.synth.profiles import generate_dataset


@pytest.fixture
def toy_delta():
    return NetworkDelta(
        papers=(("N1", 2006.0), ("N2", 2006.5)),
        citations=(("N1", "A"), ("N1", "B"), ("N2", "N1"), ("N2", "A")),
    )


class TestNetworkDelta:
    def test_counts(self, toy_delta):
        assert toy_delta.n_papers == 2
        assert toy_delta.n_citations == 4

    def test_json_roundtrip(self, toy_delta, tmp_path):
        path = tmp_path / "delta.json"
        path.write_text(toy_delta.to_json(), encoding="utf-8")
        loaded = NetworkDelta.from_json_file(str(path))
        assert loaded == toy_delta

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "delta.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DataFormatError, match="invalid JSON"):
            NetworkDelta.from_json_file(str(path))

    def test_missing_fields_rejected(self):
        with pytest.raises(DataFormatError, match="malformed"):
            NetworkDelta.from_mapping({"papers": [{"id": "x"}]})

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="cannot read"):
            NetworkDelta.from_json_file(str(tmp_path / "nope.json"))


class TestDeltaBetween:
    def test_replays_the_newest_slice(self):
        full = generate_dataset("hep-th", n_papers=300, seed=9)
        order = chronological_order(full)
        base = full.subnetwork(order[:260])
        delta = delta_between(base, full)
        assert delta.n_papers == 40
        extended = DeltaUpdater(ScoreIndex(base)).extend_network(delta)
        assert extended.n_papers == full.n_papers
        assert set(extended.paper_ids) == set(full.paper_ids)
        assert extended.n_citations == full.n_citations

    def test_base_must_be_subset(self, toy, chain):
        # toy has papers E..H that the 4-paper chain lacks.
        with pytest.raises(ConfigurationError, match="absent"):
            delta_between(toy, chain)

    def test_inexpressible_edges_rejected(self, toy):
        # A retroactive reference: an existing paper of `full` cites the
        # new paper, which no delta (new papers + their references) can
        # express.  toy's H is isolated, so dropping it keeps all edges.
        base = toy.subnetwork(
            [i for i in range(toy.n_papers) if toy.id_of(i) != "H"]
        )
        full = base.extend(["H"], [2005.0], [("A", "H")])
        with pytest.raises(ConfigurationError, match="induced prefix"):
            delta_between(base, full)


class TestDeltaUpdater:
    def test_apply_extends_and_bumps_version(self, toy, toy_delta):
        index = ScoreIndex(toy)
        index.add_method("CC")
        report = DeltaUpdater(index).apply(toy_delta)
        assert report.version == 1
        assert report.n_new_papers == 2
        assert report.n_new_citations == 4
        assert report.n_papers == toy.n_papers + 2
        assert index.network.index_of("N1") == toy.n_papers
        # CC scores reflect the new citations: A gained two.
        assert index.scores("CC")[toy.index_of("A")] == toy.in_degree[
            toy.index_of("A")
        ] + 2

    def test_empty_delta_rejected(self, toy):
        index = ScoreIndex(toy)
        updater = DeltaUpdater(index)
        with pytest.raises(ConfigurationError, match="empty delta"):
            updater.apply(NetworkDelta(papers=(), citations=()))

    def test_citation_from_existing_paper_rejected(self, toy):
        index = ScoreIndex(toy)
        delta = NetworkDelta(
            papers=(("N1", 2006.0),), citations=(("A", "N1"),)
        )
        with pytest.raises(ConfigurationError, match="cannot gain"):
            DeltaUpdater(index).apply(delta)

    def test_missing_reference_policies(self, toy):
        delta = NetworkDelta(
            papers=(("N1", 2006.0),), citations=(("N1", "nope"),)
        )
        skip = ScoreIndex(toy)
        skip.add_method("CC")
        report = DeltaUpdater(skip, missing_references="skip").apply(delta)
        assert report.n_new_citations == 0
        strict = ScoreIndex(toy)
        with pytest.raises(GraphError, match="unknown"):
            DeltaUpdater(strict, missing_references="error").apply(delta)

    def test_warm_entries_marked(self, toy, toy_delta):
        index = ScoreIndex(toy)
        index.add_method("PR")
        index.add_method("CC")
        report = DeltaUpdater(index).apply(toy_delta)
        assert report.entries["PR"].warm_started
        assert not report.entries["CC"].warm_started

    def test_cold_mode(self, toy, toy_delta):
        index = ScoreIndex(toy)
        index.add_method("PR")
        extended = DeltaUpdater(index).extend_network(toy_delta)
        entries = index.refresh(extended, warm=False)
        assert not entries["PR"].warm_started


class TestWarmStartMatchesColdRecompute:
    """The acceptance property, for AttRank and PageRank (CiteRank —
    whose fixed point is unnormalised — rides along as a regression
    test for the scale-preserving start)."""

    METHOD_PARAMS = {
        "AR": dict(
            alpha=0.5, beta=0.3, gamma=0.2, attention_window=3,
            decay_rate=-0.5,
        ),
        "PR": dict(alpha=0.5),
        "CR": dict(alpha=0.5, tau_dir=2.0),
    }

    @pytest.mark.parametrize("label", sorted(METHOD_PARAMS))
    @pytest.mark.parametrize("seed,n_delta", [(1, 5), (2, 20), (3, 60)])
    def test_warm_equals_cold_within_tolerance(self, label, seed, n_delta):
        full = generate_dataset("hep-th", n_papers=400, seed=seed)
        order = chronological_order(full)
        base = full.subnetwork(order[: 400 - n_delta])

        index = ScoreIndex(base)
        index.add_method(label, **self.METHOD_PARAMS[label])
        report = DeltaUpdater(index).apply(delta_between(base, full))
        assert report.entries[label].warm_started
        assert report.entries[label].converged

        cold = ScoreIndex(full)
        cold.add_method(label, **self.METHOD_PARAMS[label])

        # Warm and cold solves land on the same fixed point: the largest
        # per-paper deviation stays below the paper's epsilon.
        deviation = float(
            np.abs(index.scores(label) - cold.scores(label)).max()
        )
        assert deviation <= DEFAULT_TOLERANCE

        # And therefore identical rankings at the top.
        warm_top = np.argsort(-index.scores(label))[:25]
        cold_top = np.argsort(-cold.scores(label))[:25]
        assert warm_top.tolist() == cold_top.tolist()

    def test_warm_start_never_needs_more_iterations_much(self):
        """Small deltas converge in fewer iterations than cold starts."""
        full = generate_dataset("dblp", n_papers=1000, seed=4)
        order = chronological_order(full)
        base = full.subnetwork(order[:995])
        index = ScoreIndex(base)
        index.add_method("PR")
        report = DeltaUpdater(index).apply(delta_between(base, full))
        cold = ScoreIndex(full)
        cold.add_method("PR")
        assert report.entries["PR"].iterations < cold.entry("PR").iterations
