"""Tests for the gateway load generator and its verification replica."""

import pytest

from repro.errors import GatewayError
from repro.gateway import GatewayConfig
from repro.gateway.loadgen import run_load_over_log, run_load_static
from repro.serve import QueryEngine, RankingService, ScoreIndex, ShardedScoreIndex
from repro.stream import EventLog
from repro.synth import toy_network


@pytest.fixture(scope="module")
def tiny_log(hepth_tiny_module):
    return EventLog.from_network(hepth_tiny_module)


@pytest.fixture(scope="module")
def hepth_tiny_module():
    from repro.synth.profiles import generate_dataset

    return generate_dataset("hep-th", size="tiny", seed=7)


class TestRunLoadOverLog:
    def test_acceptance_run_verifies_every_response(self, tiny_log):
        """The ISSUE acceptance property: >= 4 concurrent clients,
        mixed endpoints, stream updates mid-run, every response
        bit-identical to a direct service call at its version."""
        report = run_load_over_log(
            tiny_log,
            ("AR", "CC"),
            clients=4,
            requests_per_client=15,
            batch_size=64,
            bootstrap_events=len(tiny_log) // 2,
        )
        assert report["requests"] == 60
        assert report["errors_5xx"] == 0
        assert report["status_counts"] == {"200": 60}
        assert report["identical_rankings"] is True
        assert report["verified_responses"] == 60
        assert report["mismatched_responses"] == 0
        # Updates really landed mid-run and produced version churn.
        assert report["updates_applied"] >= 1
        assert report["requests_per_second"] > 0
        latency = report["latency"]
        assert 0 < latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]
        assert report["coalescing"]["requests"] == 60
        assert report["result_cache"]["hits"] + report["result_cache"][
            "misses"
        ] > 0

    def test_sharded_serving_state(self, tiny_log):
        report = run_load_over_log(
            tiny_log,
            ("CC",),
            clients=4,
            requests_per_client=6,
            batch_size=128,
            bootstrap_events=len(tiny_log) // 2,
            shards=3,
        )
        assert report["identical_rankings"] is True
        assert report["errors_5xx"] == 0

    def test_validation(self, tiny_log):
        with pytest.raises(GatewayError):
            run_load_over_log(tiny_log, ("CC",), clients=0)
        with pytest.raises(GatewayError):
            run_load_over_log(
                tiny_log, ("CC",), requests_per_client=0
            )


class TestRunLoadStatic:
    def test_service_backend_verifies(self):
        index = ScoreIndex(toy_network())
        index.add_method("CC")
        index.add_method("PR")
        report = run_load_static(
            RankingService(index),
            ("CC", "PR"),
            clients=3,
            requests_per_client=10,
        )
        assert report["errors_5xx"] == 0
        assert report["identical_rankings"] is True
        assert report["updates_applied"] == 0
        assert report["versions_observed"] == [0]

    def test_detached_engine_backend(self, tmp_path):
        """A store file is served and verified like a service."""
        index = ScoreIndex(toy_network())
        index.add_method("CC")
        store_file = str(tmp_path / "store.snap")
        ShardedScoreIndex.from_index(index, n_shards=2).save(store_file)
        engine = QueryEngine(ShardedScoreIndex.load(store_file))
        report = run_load_static(
            engine, ("CC",), clients=2, requests_per_client=8,
        )
        assert report["errors_5xx"] == 0
        assert report["requests"] == 16
        assert report["identical_rankings"] is True
        assert report["verified_responses"] == report["status_counts"]["200"]

    def test_detached_store_with_empty_shards(self, tmp_path):
        """More shards than papers leaves some shards empty; the year
        span must come from the populated ones, not crash on min()."""
        index = ScoreIndex(toy_network())
        index.add_method("CC")
        store_file = str(tmp_path / "sparse.snap")
        ShardedScoreIndex.from_index(index, n_shards=16).save(store_file)
        engine = QueryEngine(ShardedScoreIndex.load(store_file))
        report = run_load_static(
            engine, ("CC",), clients=2, requests_per_client=4,
            verify=False,
        )
        assert report["errors_5xx"] == 0
        assert report["requests"] == 8

    def test_rejects_unknown_backend(self):
        with pytest.raises(GatewayError, match="backend"):
            run_load_static(object(), ("CC",))

    def test_shedding_config_counts_5xx(self):
        """With capacity 1/0 and several clients, shed 503s surface in
        the report as 5xx (exactly what the CI smoke gate watches)."""
        index = ScoreIndex(toy_network())
        index.add_method("CC")
        report = run_load_static(
            RankingService(index),
            ("CC",),
            clients=4,
            requests_per_client=10,
            config=GatewayConfig(port=0, max_inflight=1, max_queue=0),
            verify=False,
        )
        # Shed responses count against the 5xx gate; under this
        # extreme config at least the totals must reconcile.
        assert report["requests"] == 40
        assert report["shed_503"] == report["errors_5xx"]
        total = sum(report["status_counts"].values())
        assert total == 40
