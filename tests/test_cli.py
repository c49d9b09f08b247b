"""Smoke and behaviour tests for the command-line interface."""

import json
import os

import pytest

import repro
from repro.cli import main
from repro.io.layout import read_kind
from repro.io.serialize import save_network
from repro.serve import ShardedScoreIndex


@pytest.fixture
def toy_file(toy, tmp_path):
    path = str(tmp_path / "toy.snap")
    save_network(toy, path)
    return path


@pytest.fixture(scope="module")
def hepth_file(tmp_path_factory):
    from repro.synth.profiles import generate_dataset

    path = str(tmp_path_factory.mktemp("nets") / "hepth.snap")
    save_network(generate_dataset("hep-th", size="tiny", seed=42), path)
    return path


class TestGenerate:
    def test_generate_writes_file(self, tmp_path, capsys):
        out = str(tmp_path / "net.snap")
        code = main(
            ["generate", "hep-th", out, "--size", "tiny", "--seed", "1"]
        )
        assert code == 0
        assert os.path.exists(out)
        assert "wrote" in capsys.readouterr().out


class TestSummarize:
    def test_summarize_input(self, toy_file, capsys):
        assert main(["summarize", "--input", toy_file]) == 0
        out = capsys.readouterr().out
        assert "papers" in out and "8" in out

    def test_summarize_generated(self, capsys):
        code = main(
            ["summarize", "--dataset", "hep-th", "--size", "tiny",
             "--seed", "1"]
        )
        assert code == 0
        assert "citations" in capsys.readouterr().out


class TestRank:
    def test_rank_default_method(self, hepth_file, capsys):
        assert main(["rank", "--input", hepth_file, "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "AR(" in out
        assert len([l for l in out.splitlines() if l.startswith(" ") or l]) >= 5

    def test_rank_specific_method(self, toy_file, capsys):
        assert main(
            ["rank", "--input", toy_file, "--method", "CC", "--top", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "A" in out  # most-cited toy paper


class TestEvaluate:
    def test_evaluate_runs(self, hepth_file, capsys):
        code = main(
            [
                "evaluate", "--input", hepth_file,
                "--methods", "RAM", "ATT-ONLY",
                "--ratio", "1.6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "spearman" in out and "RAM" in out


class TestHorizons:
    def test_horizons_table(self, hepth_file, capsys):
        assert main(["horizons", "--input", hepth_file]) == 0
        out = capsys.readouterr().out
        assert "test ratio" in out and "2" in out


class TestPopular:
    def test_popular(self, hepth_file, capsys):
        code = main(
            ["popular", "--input", hepth_file, "--k", "50"]
        )
        assert code == 0
        assert "recently popular" in capsys.readouterr().out


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


def _ranked_papers(output: str) -> list[str]:
    """Extract the paper-id column from a rank/query table."""
    rows = []
    for line in output.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0].isdigit():
            rows.append(parts[1])
    return rows


class TestServe:
    @pytest.fixture
    def index_file(self, hepth_file, tmp_path_factory, capsys):
        path = str(tmp_path_factory.mktemp("serve") / "index.snap")
        assert main(
            ["index", "--input", hepth_file, "--output", path,
             "--methods", "AR", "PR", "CC"]
        ) == 0
        capsys.readouterr()
        return path

    def test_index_reports_solves(self, hepth_file, tmp_path, capsys):
        out_path = str(tmp_path / "index.snap")
        code = main(
            ["index", "--input", hepth_file, "--output", out_path,
             "--methods", "PR", "CC"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert os.path.exists(out_path)
        assert "solved PR" in out and "closed form" in out
        assert "wrote index v0" in out

    def test_query_matches_batch_rank(self, hepth_file, index_file, capsys):
        """Acceptance: query == rank top-k on an unchanged snapshot."""
        assert main(
            ["rank", "--input", hepth_file, "--method", "AR", "--top", "10"]
        ) == 0
        batch = _ranked_papers(capsys.readouterr().out)
        assert main(
            ["query", "--index", index_file, "--methods", "AR",
             "--top", "10"]
        ) == 0
        served = _ranked_papers(capsys.readouterr().out)
        assert served == batch
        assert len(served) == 10

    def test_query_pagination_and_year_filter(self, index_file, capsys):
        assert main(
            ["query", "--index", index_file, "--methods", "CC",
             "--top", "3", "--offset", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "rows 4-6" in out
        assert main(
            ["query", "--index", index_file, "--methods", "CC",
             "--top", "3", "--year-min", "1996", "--year-max", "1999"]
        ) == 0
        out = capsys.readouterr().out
        assert "years [1996, 1999]" in out
        assert _ranked_papers(out)  # the filtered page has rows

    def test_query_comparison(self, index_file, capsys):
        assert main(
            ["query", "--index", index_file, "--methods", "AR", "PR", "CC",
             "--top", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "comparison" in out
        assert "overlap AR" in out

    def test_update_applies_delta(self, index_file, tmp_path, capsys):
        assert main(
            ["query", "--index", index_file, "--methods", "CC", "--top", "1"]
        ) == 0
        leader = _ranked_papers(capsys.readouterr().out)[0]
        delta_path = str(tmp_path / "delta.json")
        with open(delta_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "papers": [{"id": "NEW-1", "time": 2004.0}],
                    "citations": [["NEW-1", leader], ["NEW-1", "unknown"]],
                },
                handle,
            )
        code = main(["update", "--index", index_file, "--delta", delta_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "+1 papers" in out
        assert "index v1" in out
        assert "warm" in out
        # The updated index is persisted and serves the new state.
        assert main(
            ["query", "--index", index_file, "--methods", "CC", "--top", "1"]
        ) == 0
        assert "v1" in capsys.readouterr().out

    def test_query_rejects_bare_network_file(self, hepth_file, capsys):
        code = main(
            ["query", "--index", hepth_file, "--methods", "AR"]
        )
        assert code == 1
        assert "not a repro score index" in capsys.readouterr().err


class TestTrace:
    @pytest.fixture
    def trace_dump(self, tmp_path):
        document = {
            "enabled": True,
            "recorded_total": 1,
            "traces": [
                {
                    "name": "gateway.request",
                    "start_ms": 0.0,
                    "duration_ms": 4.0,
                    "attrs": {"endpoint": "top", "status": 200},
                    "spans": [
                        {
                            "name": "engine.execute",
                            "start_ms": 1.0,
                            "duration_ms": 2.0,
                            "attrs": {"queries": 1},
                            "spans": [],
                        }
                    ],
                    "trace_id": "abc123",
                    "request_id": "rid-9",
                    "start_unix": 1000.0,
                }
            ],
        }
        path = str(tmp_path / "dump.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        return path

    def test_trace_converts_dump_to_chrome_events(
        self, trace_dump, tmp_path, capsys
    ):
        out_path = str(tmp_path / "chrome.json")
        assert main(
            ["trace", "--input", trace_dump, "--output", out_path]
        ) == 0
        assert "wrote 1 trace(s)" in capsys.readouterr().out
        with open(out_path, encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert [event["name"] for event in events] == [
            "gateway.request", "engine.execute",
        ]
        root = events[0]
        assert root["ph"] == "X"
        assert root["ts"] == 1000.0 * 1e6
        assert root["dur"] == 4000.0
        assert root["args"]["request_id"] == "rid-9"

    def test_trace_raw_prints_the_document_verbatim(
        self, trace_dump, capsys
    ):
        assert main(["trace", "--input", trace_dump, "--raw"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["recorded_total"] == 1
        assert document["traces"][0]["name"] == "gateway.request"

    def test_trace_notes_disabled_gateway(self, tmp_path, capsys):
        path = str(tmp_path / "empty.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"enabled": False, "recorded_total": 0, "traces": []},
                handle,
            )
        assert main(["trace", "--input", path]) == 0
        captured = capsys.readouterr()
        assert "tracing is disabled" in captured.err
        assert json.loads(captured.out)["traceEvents"] == []

    def test_trace_fetches_from_a_live_gateway(self, tmp_path, capsys):
        import urllib.request

        from repro.gateway import GatewayThread
        from repro.obs.trace import disable_tracing, enable_tracing
        from repro.serve import RankingService, ScoreIndex
        from repro.synth import toy_network

        index = ScoreIndex(toy_network())
        index.add_method("CC")
        enable_tracing(capacity=16)
        try:
            with GatewayThread(RankingService(index)) as gateway:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{gateway.port}"
                    "/v1/top?method=CC&k=2",
                    timeout=10,
                ).read()
                out_path = str(tmp_path / "live.json")
                assert main(
                    ["trace", "--url",
                     f"http://127.0.0.1:{gateway.port}",
                     "--output", out_path]
                ) == 0
        finally:
            disable_tracing()
        with open(out_path, encoding="utf-8") as handle:
            events = json.load(handle)["traceEvents"]
        names = {event["name"] for event in events}
        assert "gateway.request" in names
        assert "engine.execute" in names

    def test_trace_missing_input_is_typed_error(self, tmp_path, capsys):
        code = main(
            ["trace", "--input", str(tmp_path / "nope.json")]
        )
        assert code == 1
        assert "cannot read trace dump" in capsys.readouterr().err


class TestErrors:
    def test_error_exit_code(self, tmp_path, capsys):
        code = main(["summarize", "--input", str(tmp_path / "nope.snap")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_errors_are_typed_one_liners(self, tmp_path, capsys):
        code = main(
            ["query", "--index", str(tmp_path / "missing.snap"),
             "--methods", "AR"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "error: [DataFormatError]" in err
        assert "Traceback" not in err

    def test_missing_index_directory_is_typed(self, tmp_path, capsys):
        """A directory is not a store: stores are single files."""
        empty = tmp_path / "empty-dir"
        empty.mkdir()
        code = main(["query", "--index", str(empty), "--methods", "AR"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: [DataFormatError]" in err
        assert f"{empty}: cannot read" in err

    def test_corrupt_index_file_is_typed(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.snap"
        bogus.write_bytes(b"this is not a zip archive")
        code = main(["query", "--index", str(bogus), "--methods", "AR"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: [DataFormatError]" in err
        assert "Traceback" not in err

    def test_batch_emits_json_error_objects_per_query(
        self, tmp_path, capsys
    ):
        from repro.synth import toy_network

        net_path = str(tmp_path / "toy.snap")
        save_network(toy_network(), net_path)
        index_path = str(tmp_path / "toy-index.snap")
        assert main(
            ["index", "--input", net_path, "--output", index_path,
             "--methods", "CC"]
        ) == 0
        capsys.readouterr()
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([
            {"type": "top_k", "method": "CC", "k": 2},
            {"type": "paper", "id": "NO-SUCH-PAPER"},
            {"type": "top_k", "method": "NOPE", "k": 2},
        ]))
        code = main(["query", "--index", index_path, "--batch", str(batch)])
        assert code == 1                     # failures happened...
        documents = json.loads(capsys.readouterr().out)
        assert len(documents) == 3           # ...but every slot answered
        assert documents[0]["type"] == "top_k"
        assert len(documents[0]["entries"]) == 2
        assert documents[1] == {
            "type": "error",
            "error": "GraphError",
            "message": "unknown paper id: 'NO-SUCH-PAPER'",
        }
        assert documents[2]["type"] == "error"
        assert documents[2]["error"] == "ConfigurationError"

    def test_batch_rejects_nan_year_bounds(self, tmp_path, capsys):
        """A NaN bound (JSON's NaN literal or the string "nan") is a
        typed error in its slot, not a silently empty ranking."""
        from repro.synth import toy_network

        net_path = str(tmp_path / "toy.snap")
        save_network(toy_network(), net_path)
        index_path = str(tmp_path / "toy-index.snap")
        assert main(
            ["index", "--input", net_path, "--output", index_path,
             "--methods", "CC", "PR"]
        ) == 0
        capsys.readouterr()
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([
            {"type": "top_k", "method": "CC", "year_min": float("nan")},
            {"type": "compare", "methods": ["CC", "PR"],
             "year_max": "nan"},
            {"type": "top_k", "method": "CC", "year_min": 2000},
        ]))
        code = main(["query", "--index", index_path, "--batch", str(batch)])
        assert code == 1
        documents = json.loads(capsys.readouterr().out)
        assert [doc["type"] for doc in documents] == [
            "error", "error", "top_k"
        ]
        assert {doc["error"] for doc in documents[:2]} == {
            "ConfigurationError"
        }
        assert documents[2]["entries"]


class TestCompare:
    def test_compare_prints_series_and_winners(self, hepth_file, capsys):
        code = main(
            [
                "compare", "--input", hepth_file,
                "--metric", "ndcg", "--k", "50",
                "--ratios", "1.6",
                "--methods", "RAM", "ATT-ONLY",
                "--jobs", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ndcg@50 vs test ratio" in out
        assert "jobs=2" in out
        assert "RAM" in out and "ATT-ONLY" in out
        assert "winner @ 1.6:" in out

    def test_compare_spearman_serial(self, hepth_file, capsys):
        code = main(
            [
                "compare", "--input", hepth_file,
                "--metric", "spearman",
                "--ratios", "1.6",
                "--methods", "RAM",
                "--jobs", "1",
            ]
        )
        assert code == 0
        assert "spearman vs test ratio" in capsys.readouterr().out


class TestBench:
    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "figure4" in out
        assert "serve_delta" in out

    def test_bench_requires_scenario(self, capsys):
        assert main(["bench"]) == 2
        assert "--scenario is required" in capsys.readouterr().err

    def test_bench_unknown_scenario_errors(self, capsys):
        assert main(["bench", "--scenario", "nope"]) == 1
        assert "unknown bench scenario" in capsys.readouterr().err

    def test_bench_split_writes_json(self, tmp_path, capsys):
        code = main(
            [
                "bench", "--scenario", "split", "--smoke",
                "--repeats", "1", "--warmup", "0",
                "--output-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        path = tmp_path / "BENCH_split.json"
        assert path.exists()
        document = json.loads(path.read_text())
        assert document["scenario"] == "split"
        assert document["payload"]["splits_per_second"] > 0

    def test_bench_figure4_smoke_reports_speedup(self, tmp_path, capsys):
        code = main(
            [
                "bench", "--scenario", "figure4", "--jobs", "2",
                "--smoke", "--output-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup vs serial" in out
        assert "identical rankings" in out
        document = json.loads((tmp_path / "BENCH_figure4.json").read_text())
        assert document["payload"]["identical_rankings"] is True


class TestShardedServe:
    @pytest.fixture
    def store_file(self, hepth_file, tmp_path_factory, capsys):
        path = str(tmp_path_factory.mktemp("serve") / "store")
        assert main(
            ["index", "--input", hepth_file, "--output", path,
             "--methods", "PR", "CC", "--shards", "3",
             "--partitioner", "year"]
        ) == 0
        capsys.readouterr()
        return path

    def test_index_shards_writes_directory(
        self, hepth_file, tmp_path, capsys
    ):
        path = str(tmp_path / "store")
        assert main(
            ["index", "--input", hepth_file, "--output", path,
             "--methods", "CC", "--shards", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "2 hash-partitioned shards" in out
        # One store file at exactly the given path, nothing beside it.
        assert os.listdir(tmp_path) == ["store"]
        assert read_kind(path) == "store"
        assert ShardedScoreIndex.load(path).n_shards == 2

    def test_query_from_shard_directory_matches_file(
        self, hepth_file, store_file, tmp_path, capsys
    ):
        flat = str(tmp_path / "flat.snap")
        assert main(
            ["index", "--input", hepth_file, "--output", flat,
             "--methods", "PR", "CC"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["query", "--index", flat, "--methods", "PR", "--top", "7"]
        ) == 0
        from_file = _ranked_papers(capsys.readouterr().out)
        assert main(
            ["query", "--index", store_file, "--methods", "PR",
             "--top", "7"]
        ) == 0
        from_shards = _ranked_papers(capsys.readouterr().out)
        assert from_shards == from_file
        assert len(from_shards) == 7

    def test_batch_query_outputs_json(self, store_file, tmp_path, capsys):
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([
            {"type": "top_k", "method": "PR", "k": 3},
            {"type": "compare", "methods": ["PR", "CC"], "k": 5},
        ]))
        assert main(
            ["query", "--index", store_file, "--batch", str(batch)]
        ) == 0
        documents = json.loads(capsys.readouterr().out)
        assert [doc["type"] for doc in documents] == ["top_k", "compare"]
        assert len(documents[0]["entries"]) == 3

    def test_batch_query_on_flat_index(
        self, hepth_file, tmp_path, capsys
    ):
        flat = str(tmp_path / "flat.snap")
        assert main(
            ["index", "--input", hepth_file, "--output", flat,
             "--methods", "CC"]
        ) == 0
        capsys.readouterr()
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps([{"type": "top_k", "method": "CC"}]))
        assert main(["query", "--index", flat, "--batch", str(batch)]) == 0
        (document,) = json.loads(capsys.readouterr().out)
        assert document["method"] == "CC"

    def test_update_rejects_shard_directory(self, store_file, capsys):
        assert main(
            ["update", "--index", store_file, "--delta", "whatever.json"]
        ) == 2
        assert "single-file index" in capsys.readouterr().err

    def test_bench_serve_batch_smoke(self, tmp_path, capsys):
        assert main(
            ["bench", "--scenario", "serve_batch", "--smoke",
             "--repeats", "1", "--warmup", "0", "--shards", "2",
             "--output-dir", str(tmp_path)]
        ) == 0
        document = json.loads(
            (tmp_path / "BENCH_serve_batch.json").read_text()
        )
        assert document["payload"]["identical_rankings"] is True
        assert document["payload"]["shards"] == 2
        assert document["payload"]["batched"]["queries_per_second"] > 0


class TestGatewayCLI:
    @pytest.fixture
    def toy_index(self, tmp_path_factory, capsys):
        from repro.synth import toy_network

        root = tmp_path_factory.mktemp("gateway")
        net_path = str(root / "toy.snap")
        save_network(toy_network(), net_path)
        index_path = str(root / "index.snap")
        assert main(
            ["index", "--input", net_path, "--output", index_path,
             "--methods", "CC", "PR"]
        ) == 0
        capsys.readouterr()
        return index_path

    def test_serve_http_for_seconds(self, toy_index, capsys):
        code = main(
            ["serve-http", "--index", toy_index, "--port", "0",
             "--for-seconds", "0.2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serving" in out and "http://127.0.0.1:" in out
        assert "drained and stopped" in out

    def test_loadgen_static_mode_passes_gate(self, toy_index, capsys):
        code = main(
            ["loadgen", "--index", toy_index, "--clients", "3",
             "--requests", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "identical rankings" in out and "yes" in out
        assert "p99 (ms)" in out

    def test_loadgen_stream_mode_json_report(self, capsys):
        code = main(
            ["loadgen", "--dataset", "hep-th", "--size", "tiny",
             "--seed", "7", "--methods", "CC", "--clients", "4",
             "--requests", "10", "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["errors_5xx"] == 0
        assert report["identical_rankings"] is True
        assert report["updates_applied"] >= 1
        assert report["latency"]["p95_ms"] > 0


class TestStream:
    @pytest.fixture
    def log_file(self, hepth_file, tmp_path, capsys):
        path = str(tmp_path / "events.jsonl")
        assert main(
            ["stream", "extract", "--input", hepth_file, "--output", path]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        return path

    def test_extract_writes_loadable_log(self, log_file):
        from repro.stream import EventLog

        log = EventLog.load(log_file)
        assert log.n_papers == 750

    def test_replay_to_index(self, log_file, tmp_path, capsys):
        out = str(tmp_path / "streamed.snap")
        assert main(
            ["stream", "replay", "--log", log_file,
             "--methods", "PR", "CC", "--batch-size", "256",
             "--bootstrap-size", "256", "--index-out", out]
        ) == 0
        text = capsys.readouterr().out
        assert "finalized (canonical)" in text
        assert os.path.exists(out)
        from repro.serve import ScoreIndex
        from repro.stream import EventLog, batch_compute

        index = ScoreIndex.load(out)
        cold = batch_compute(EventLog.load(log_file), ("PR", "CC"))
        import numpy as np

        np.testing.assert_array_equal(
            index.scores("PR"), cold.scores("PR")
        )

    def test_replay_checkpoint_resume_inspect(
        self, log_file, tmp_path, capsys
    ):
        ckpt = str(tmp_path / "ckpt")
        assert main(
            ["stream", "replay", "--log", log_file,
             "--methods", "CC", "--batch-size", "64",
             "--bootstrap-size", "64", "--max-batches", "10",
             "--checkpoint-dir", ckpt, "--checkpoint-every", "4"]
        ) == 0
        assert "checkpoint @" in capsys.readouterr().out

        assert main(["stream", "checkpoint", "--checkpoint", ckpt]) == 0
        inspected = capsys.readouterr().out
        assert "events consumed" in inspected and "CC" in inspected

        out = str(tmp_path / "resumed.snap")
        assert main(
            ["stream", "resume", "--checkpoint", ckpt,
             "--log", log_file, "--index-out", out]
        ) == 0
        text = capsys.readouterr().out
        assert "resumed at event" in text
        assert "finalized (canonical)" in text
        assert os.path.exists(out)

    def test_resume_wrong_log_fails_cleanly(
        self, log_file, hepth_file, tmp_path, capsys
    ):
        ckpt = str(tmp_path / "ckpt")
        assert main(
            ["stream", "replay", "--log", log_file, "--methods", "CC",
             "--batch-size", "64", "--bootstrap-size", "64",
             "--max-batches", "3", "--checkpoint-dir", ckpt]
        ) == 0
        capsys.readouterr()
        other = str(tmp_path / "other.jsonl")
        assert main(
            ["stream", "extract", "--dataset", "hep-th", "--size",
             "tiny", "--seed", "9", "--output", other]
        ) == 0
        capsys.readouterr()
        assert main(
            ["stream", "resume", "--checkpoint", ckpt, "--log", other]
        ) == 1
        assert "digest" in capsys.readouterr().err

    def test_no_finalize_leaves_warm_scores(self, log_file, capsys):
        assert main(
            ["stream", "replay", "--log", log_file, "--methods", "CC",
             "--batch-size", "512", "--bootstrap-size", "512",
             "--no-finalize"]
        ) == 0
        assert "exhausted (warm scores)" in capsys.readouterr().out

    def test_bench_stream_smoke(self, tmp_path, capsys):
        assert main(
            ["bench", "--scenario", "stream", "--smoke", "--repeats",
             "1", "--warmup", "0", "--shards", "2",
             "--output-dir", str(tmp_path)]
        ) == 0
        document = json.loads((tmp_path / "BENCH_stream.json").read_text())
        payload = document["payload"]
        assert payload["identical_rankings"] is True
        assert payload["replay"]["events_per_second"] > 0
        assert payload["checkpoint_resume"]["resumed_batches"] > 0

    def test_replay_rejects_bad_max_batches(self, log_file, capsys):
        assert main(
            ["stream", "replay", "--log", log_file, "--methods", "CC",
             "--max-batches", "0"]
        ) == 2
        assert "--max-batches" in capsys.readouterr().err
