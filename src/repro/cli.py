"""Command-line interface: ``python -m repro`` or the ``repro`` script.

Subcommands
-----------
``generate``   Generate a synthetic dataset profile and save it as .npz.
``summarize``  Print headline statistics of a saved or generated network.
``rank``       Score a network with any registered method, print the top-k.
``evaluate``   Split a network by test ratio and score methods against STI.
``horizons``   Print the Table-2 ratio -> time-horizon mapping.
``popular``    Print the Table-1 recently-popular overlap.
``index``      Build a score index file — or, with ``--shards N``, a
               sharded index directory (one ``.npz`` per shard).
``update``     Apply a JSON delta to an index with warm-started re-solves.
``query``      Serve top-k queries (pagination, year filter) from an
               index file or shard directory; ``--batch FILE`` executes
               a JSON batch of heterogeneous queries through the
               :class:`~repro.serve.QueryEngine`.
``stream``     Event-log streaming: ``extract`` a JSONL log from a
               network, ``replay`` it through micro-batched warm-start
               updates (with optional checkpoints), ``resume`` a
               killed replay, ``checkpoint`` inspects a saved one.
``serve-http`` Serve an index over HTTP: the asyncio gateway with
               request coalescing, admission control, live metrics
               (JSON and Prometheus text), structured JSON logs,
               request tracing, and graceful drain.
``trace``      Fetch recent span trees from a running gateway's
               ``/v1/trace`` (or convert a saved dump) into
               Chrome-trace-format JSON for chrome://tracing.
``loadgen``    Drive an in-process gateway with concurrent clients and
               mixed traffic (optionally with live stream updates),
               verify every response against a direct service call,
               and report requests/sec + latency quantiles.
``compare``    Reproduce a figure panel (tune all methods per ratio),
               with the sweep's fused chunks fanned out over ``--jobs``
               worker processes.
``bench``      Run a benchmark scenario and write ``BENCH_<name>.json``.
``bench-diff`` Compare two directories of ``BENCH_*.json`` artifacts and
               fail on regressions (the CI benchmark gate).
``chaos``      Deterministic fault injection: ``plan`` prints the seeded
               fault draw, ``run`` executes one scenario (crash/resume
               or gateway drain) with the fault armed, ``sweep`` runs
               every fault point across N seeds and gates on the
               invariant report (the CI chaos job).

Batch commands accept either ``--dataset <name>`` (synthetic profile) or
``--input <file.npz>`` (a saved network); the serving commands
(``update``, ``query``) operate on an index built by ``index``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

import repro
from repro.analysis.horizons import horizon_table
from repro.analysis.popularity import recently_popular_overlap
from repro.analysis.reporting import format_kv_block, format_series, format_table
from repro.baselines import METHOD_REGISTRY, make_method
from repro.chaos.points import KINDS
from repro.errors import ReproError
from repro.eval.experiment import COMPARISON_METHODS
from repro.eval.metrics import NDCG, SpearmanRho
from repro.eval.split import DEFAULT_TEST_RATIOS, split_by_ratio
from repro.graph.citation_network import CitationNetwork
from repro.graph.statistics import summarize
from repro.io.serialize import load_network, save_network
from repro.serve import (
    DeltaUpdater,
    NetworkDelta,
    PARTITIONERS,
    QueryEngine,
    RankingService,
    ScoreIndex,
    ShardedScoreIndex,
    execute_with_attribution,
    queries_from_file,
    result_payload,
)
from repro.synth.profiles import DATASET_PROFILES, SIZE_FACTORS, generate_dataset

__all__ = ["main", "build_parser"]


def _add_source_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--dataset",
        choices=sorted(DATASET_PROFILES),
        help="synthetic dataset profile to generate",
    )
    source.add_argument("--input", help="path to a saved .npz network")
    parser.add_argument(
        "--size",
        choices=sorted(SIZE_FACTORS),
        default="small",
        help="scale of the synthetic profile (default: small)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="generator seed"
    )


def _load_source(args: argparse.Namespace) -> CitationNetwork:
    if args.input:
        return load_network(args.input)
    return generate_dataset(args.dataset, size=args.size, seed=args.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "AttRank reproduction: rank papers by expected short-term "
            "impact (Kanellos et al., ICDE 2021)"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {repro.__version__}",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser(
        "generate", help="generate a synthetic dataset and save it"
    )
    gen.add_argument(
        "dataset", choices=sorted(DATASET_PROFILES), help="profile name"
    )
    gen.add_argument("output", help="output .npz path")
    gen.add_argument(
        "--size", choices=sorted(SIZE_FACTORS), default="small"
    )
    gen.add_argument("--seed", type=int, default=None)

    show = commands.add_parser(
        "summarize", help="print headline statistics of a network"
    )
    _add_source_arguments(show)

    rank = commands.add_parser(
        "rank", help="rank a network's papers with one method"
    )
    _add_source_arguments(rank)
    rank.add_argument(
        "--method",
        default="AR",
        choices=sorted(METHOD_REGISTRY),
        help="method label (default: AR = AttRank)",
    )
    rank.add_argument("--top", type=int, default=10, help="list size")

    evaluate = commands.add_parser(
        "evaluate",
        help="temporal-split evaluation against the STI ground truth",
    )
    _add_source_arguments(evaluate)
    evaluate.add_argument(
        "--ratio", type=float, default=1.6, help="test ratio (default 1.6)"
    )
    evaluate.add_argument(
        "--methods",
        nargs="+",
        default=["AR", "NO-ATT", "ATT-ONLY", "RAM", "CC"],
        choices=sorted(METHOD_REGISTRY),
        help="methods to evaluate at their default parameters",
    )
    evaluate.add_argument(
        "--ndcg-k", type=int, default=50, help="nDCG cut-off (default 50)"
    )

    horizons = commands.add_parser(
        "horizons", help="print the test-ratio -> time-horizon table"
    )
    _add_source_arguments(horizons)

    popular = commands.add_parser(
        "popular", help="recently-popular papers among the top-100 by STI"
    )
    _add_source_arguments(popular)
    popular.add_argument("--k", type=int, default=100)
    popular.add_argument("--window", type=float, default=5.0)
    popular.add_argument("--ratio", type=float, default=1.6)

    index = commands.add_parser(
        "index",
        help="build a score index (snapshot + solved methods) file",
    )
    _add_source_arguments(index)
    index.add_argument(
        "--output",
        required=True,
        help=(
            "output index .npz (or, with --shards > 1, an output "
            "directory of per-shard .npz files)"
        ),
    )
    index.add_argument(
        "--methods",
        nargs="+",
        default=["AR", "PR", "CC"],
        choices=sorted(METHOD_REGISTRY),
        help="methods to solve and index (default: AR PR CC)",
    )
    index.add_argument(
        "--shards",
        type=int,
        default=1,
        help=(
            "partition the index across N shards (default 1 = single "
            ".npz file)"
        ),
    )
    index.add_argument(
        "--partitioner",
        choices=sorted(PARTITIONERS),
        default="hash",
        help=(
            "shard assignment: stable id hash, or contiguous "
            "publication-year ranges (default: hash)"
        ),
    )
    index.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "threads for the fused solver's row-chunked SpMV "
            "(default 1; scores are bit-identical for any value)"
        ),
    )

    update = commands.add_parser(
        "update",
        help="apply a JSON delta to an index (warm-started re-solve)",
    )
    update.add_argument("--index", required=True, help="index .npz to update")
    update.add_argument(
        "--delta",
        required=True,
        help=(
            "JSON delta file: {\"papers\": [{\"id\": ..., \"time\": ...}], "
            "\"citations\": [[citing, cited], ...]}"
        ),
    )
    update.add_argument(
        "--cold",
        action="store_true",
        help="force cold re-solves (for comparing against warm starts)",
    )
    update.add_argument(
        "--missing-references",
        choices=["skip", "error"],
        default="skip",
        help=(
            "policy for citations whose cited id is unknown (default: "
            "skip); citing papers must always be papers of the delta"
        ),
    )
    update.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "threads for the fused solver's row-chunked SpMV "
            "(default 1; scores are bit-identical for any value)"
        ),
    )

    query = commands.add_parser(
        "query", help="serve a top-k query from a score index"
    )
    query.add_argument(
        "--index",
        required=True,
        help="index .npz (or sharded index directory) to query",
    )
    query.add_argument(
        "--batch",
        default=None,
        help=(
            "JSON file of queries to execute as one planned batch: "
            '[{"type": "top_k", "method": "AR", "k": 10}, '
            '{"type": "paper", "id": "..."}, '
            '{"type": "compare", "methods": ["AR", "CC"]}]; '
            "results print as JSON"
        ),
    )
    query.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker threads for the per-shard query phase "
            "(0 = all cores; default 1)"
        ),
    )
    query.add_argument(
        "--methods",
        nargs="+",
        default=["AR"],
        choices=sorted(METHOD_REGISTRY),
        help="one method prints its ranking; several print a comparison",
    )
    query.add_argument("--top", type=int, default=10, help="page size")
    query.add_argument(
        "--offset", type=int, default=0, help="rows to skip (pagination)"
    )
    query.add_argument(
        "--year-min", type=float, default=None, help="earliest year, inclusive"
    )
    query.add_argument(
        "--year-max", type=float, default=None, help="latest year, inclusive"
    )

    stream = commands.add_parser(
        "stream",
        help="event-log streaming: extract, replay, resume, checkpoint",
    )
    stream_commands = stream.add_subparsers(
        dest="stream_command", required=True
    )

    extract = stream_commands.add_parser(
        "extract",
        help="convert a network into a time-ordered JSONL event log",
    )
    _add_source_arguments(extract)
    extract.add_argument(
        "--output", required=True, help="output .jsonl event-log path"
    )

    def _add_replay_arguments(parser: argparse.ArgumentParser) -> None:
        # Run controls shared by replay and resume; the batch *policy*
        # is replay-only (a resume must cut the log exactly as the
        # checkpointed run would have, so it comes from the manifest).
        parser.add_argument(
            "--max-batches",
            type=int,
            default=None,
            help="stop after N batches (default: run to the end)",
        )
        parser.add_argument(
            "--checkpoint-dir",
            default=None,
            help="directory to write checkpoints into",
        )
        parser.add_argument(
            "--checkpoint-every",
            type=int,
            default=25,
            help=(
                "checkpoint every N batches when --checkpoint-dir is "
                "set (default 25)"
            ),
        )
        parser.add_argument(
            "--index-out",
            default=None,
            help="save the final score index to this .npz path",
        )
        parser.add_argument(
            "--no-finalize",
            action="store_true",
            help=(
                "skip the canonical cold re-solve at the end of the "
                "log (leaves warm-started scores)"
            ),
        )

    replay = stream_commands.add_parser(
        "replay", help="replay an event log through warm-start updates"
    )
    replay.add_argument("--log", required=True, help="JSONL event log")
    replay.add_argument(
        "--methods",
        nargs="+",
        default=["AR", "PR", "CC"],
        choices=sorted(METHOD_REGISTRY),
        help="methods to keep live (default: AR PR CC)",
    )
    replay.add_argument(
        "--batch-size",
        type=int,
        default=64,
        help="minimum events per micro-batch (default 64)",
    )
    replay.add_argument(
        "--watermark-years",
        type=float,
        default=None,
        help=(
            "also close a batch once its events span this many years "
            "(default: disabled)"
        ),
    )
    replay.add_argument(
        "--bootstrap-size",
        type=int,
        default=256,
        help=(
            "minimum events in the snapshot-building first batch "
            "(default 256; methods fitting parameters from citation "
            "structure need a non-degenerate bootstrap)"
        ),
    )
    replay.add_argument(
        "--shards",
        type=int,
        default=1,
        help="shard count of the serving state (default 1)",
    )
    replay.add_argument(
        "--partitioner",
        choices=sorted(PARTITIONERS),
        default="hash",
        help="shard assignment policy (default: hash)",
    )
    replay.add_argument(
        "--missing-references",
        choices=["skip", "error"],
        default="skip",
        help="policy for citations of unknown papers (default: skip)",
    )
    _add_replay_arguments(replay)

    resume = stream_commands.add_parser(
        "resume", help="continue a replay from a checkpoint directory"
    )
    resume.add_argument(
        "--checkpoint", required=True, help="checkpoint directory"
    )
    resume.add_argument("--log", required=True, help="JSONL event log")
    _add_replay_arguments(resume)

    inspect = stream_commands.add_parser(
        "checkpoint", help="print the state of a saved checkpoint"
    )
    inspect.add_argument(
        "--checkpoint", required=True, help="checkpoint directory"
    )

    serve_http = commands.add_parser(
        "serve-http",
        help="serve a score index over HTTP (asyncio gateway)",
    )
    serve_http.add_argument(
        "--index",
        required=True,
        help="index .npz (or sharded index directory) to serve",
    )
    serve_http.add_argument("--host", default="127.0.0.1")
    serve_http.add_argument(
        "--port",
        type=int,
        default=8080,
        help="bind port (0 picks a free one; default 8080)",
    )
    serve_http.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help=(
            "requests executing concurrently (caps the coalesced "
            "batch size); admitted requests beyond it queue"
        ),
    )
    serve_http.add_argument(
        "--max-queue",
        type=int,
        default=256,
        help="queued requests beyond which arrivals are shed with 503",
    )
    serve_http.add_argument(
        "--max-batch",
        type=int,
        default=128,
        help="largest coalesced query batch",
    )
    serve_http.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        help="per-endpoint requests/second (429 beyond; default: off)",
    )
    serve_http.add_argument(
        "--rate-burst",
        type=int,
        default=32,
        help="token-bucket burst for --rate-limit (default 32)",
    )
    serve_http.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker threads for the per-shard query phase",
    )
    serve_http.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "pre-forked gateway processes sharing the port via "
            "SO_REUSEPORT and the score store via shared memory "
            "(default 1: single-process serving)"
        ),
    )
    serve_http.add_argument(
        "--for-seconds",
        type=float,
        default=None,
        help=(
            "serve for N seconds, then drain and exit (default: run "
            "until interrupted)"
        ),
    )
    serve_http.add_argument(
        "--log-level",
        default="INFO",
        choices=["DEBUG", "INFO", "WARNING", "ERROR", "off"],
        help=(
            "structured-log threshold on stderr ('off' disables "
            "logging entirely; default INFO)"
        ),
    )
    serve_http.add_argument(
        "--log-format",
        default="json",
        choices=["json", "text"],
        help="log rendering: JSON lines (default) or human-readable",
    )
    serve_http.add_argument(
        "--no-trace",
        action="store_true",
        help="disable request tracing (/v1/trace serves empty)",
    )
    serve_http.add_argument(
        "--trace-capacity",
        type=int,
        default=256,
        help="traces kept in the /v1/trace ring buffer (default 256)",
    )
    serve_http.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        help=(
            "fraction of requests traced, 0..1 (default 1.0; "
            "high-QPS deployments run sampled, e.g. 0.05)"
        ),
    )
    serve_http.add_argument(
        "--profile",
        action="store_true",
        help=(
            "run the sampling profiler (serves /v1/profile; "
            "off by default — costs <5%% at the default rate)"
        ),
    )
    serve_http.add_argument(
        "--profile-hz",
        type=float,
        default=67.0,
        help="profiler sampling rate in Hz (default 67)",
    )
    serve_http.add_argument(
        "--profile-memory",
        action="store_true",
        help=(
            "also run tracemalloc for /v1/profile?memory=1 "
            "(expensive: hooks every allocation; deep dives only)"
        ),
    )
    serve_http.add_argument(
        "--history-interval",
        type=float,
        default=5.0,
        help=(
            "seconds between /v1/metrics/history self-scrapes "
            "(0 disables the store; default 5)"
        ),
    )
    serve_http.add_argument(
        "--history-capacity",
        type=int,
        default=720,
        help=(
            "scrape points kept in the history ring buffer "
            "(default 720 = 1h at the default interval)"
        ),
    )
    serve_http.add_argument(
        "--slo",
        action="append",
        default=None,
        metavar="SPEC",
        help=(
            "SLO served at /v1/slo, repeatable: availability:99.9 "
            "or latency:99:250ms (default: availability 99.9%% "
            "and p99 latency 250ms)"
        ),
    )

    trace = commands.add_parser(
        "trace",
        help=(
            "fetch /v1/trace from a running gateway (or read a saved "
            "dump) and write Chrome trace-event JSON"
        ),
    )
    trace_source = trace.add_mutually_exclusive_group(required=True)
    trace_source.add_argument(
        "--url",
        help="gateway base URL, e.g. http://127.0.0.1:8080",
    )
    trace_source.add_argument(
        "--input",
        help="a saved /v1/trace JSON document to convert offline",
    )
    trace.add_argument(
        "--limit",
        type=int,
        default=50,
        help="most recent traces to fetch (default 50)",
    )
    trace.add_argument(
        "--output",
        default=None,
        help=(
            "write the Chrome trace JSON here (default: stdout); load "
            "the file in chrome://tracing or https://ui.perfetto.dev"
        ),
    )
    trace.add_argument(
        "--raw",
        action="store_true",
        help="emit the span trees as fetched instead of Chrome format",
    )

    profile = commands.add_parser(
        "profile",
        help=(
            "fetch /v1/profile from a running gateway (or profile a "
            "bench scenario in-process) and render it"
        ),
    )
    profile_source = profile.add_mutually_exclusive_group(
        required=True
    )
    profile_source.add_argument(
        "--url",
        help=(
            "gateway base URL, e.g. http://127.0.0.1:8080 (start it "
            "with --profile)"
        ),
    )
    profile_source.add_argument(
        "--bench",
        metavar="SCENARIO",
        help=(
            "run a bench scenario under the sampling profiler "
            "instead of attaching to a gateway"
        ),
    )
    profile.add_argument(
        "--format",
        dest="render_format",
        default="summary",
        choices=["summary", "collapsed", "speedscope", "json"],
        help=(
            "summary table (default), folded stacks for "
            "flamegraph.pl, a speedscope.app document, or the raw "
            "JSON rendering"
        ),
    )
    profile.add_argument(
        "--top",
        type=int,
        default=15,
        help="stacks shown in summary/json renderings (default 15)",
    )
    profile.add_argument(
        "--output",
        default=None,
        help="write the rendering here instead of stdout",
    )
    profile.add_argument(
        "--hz",
        type=float,
        default=199.0,
        help="sampling rate for --bench mode (default 199)",
    )
    profile.add_argument(
        "--size",
        default="tiny",
        choices=sorted(SIZE_FACTORS),
        help="dataset scale for --bench mode (default: tiny)",
    )
    profile.add_argument(
        "--seed", type=int, default=7, help="seed for --bench mode"
    )

    slo = commands.add_parser(
        "slo",
        help="SLO status from a running gateway's /v1/slo",
    )
    slo.add_argument(
        "action",
        nargs="?",
        default="status",
        choices=["status"],
        help="what to do (only 'status' for now)",
    )
    slo.add_argument(
        "--url",
        required=True,
        help="gateway base URL, e.g. http://127.0.0.1:8080",
    )
    slo.add_argument(
        "--as-json",
        action="store_true",
        help="emit the raw /v1/slo document instead of the table",
    )

    loadgen = commands.add_parser(
        "loadgen",
        help=(
            "verified load bench: concurrent clients against an "
            "in-process gateway"
        ),
    )
    load_source = loadgen.add_mutually_exclusive_group(required=True)
    load_source.add_argument(
        "--dataset",
        choices=sorted(DATASET_PROFILES),
        help="synthetic profile: stream-update mode (bootstrap half, "
        "apply the rest live during the run)",
    )
    load_source.add_argument(
        "--input", help="saved .npz network (stream-update mode)"
    )
    load_source.add_argument(
        "--index",
        help="pre-built index .npz or shard directory (static mode)",
    )
    loadgen.add_argument(
        "--size",
        choices=sorted(SIZE_FACTORS),
        default="tiny",
        help="scale of the synthetic profile (default: tiny)",
    )
    loadgen.add_argument(
        "--seed", type=int, default=7, help="generator + traffic seed"
    )
    loadgen.add_argument(
        "--methods",
        nargs="+",
        default=["AR", "PR", "CC"],
        choices=sorted(METHOD_REGISTRY),
        help="methods to serve (stream mode; static mode uses the "
        "index's own labels)",
    )
    loadgen.add_argument(
        "--clients", type=int, default=4, help="concurrent connections"
    )
    loadgen.add_argument(
        "--requests", type=int, default=50, help="requests per client"
    )
    loadgen.add_argument(
        "--batch-size",
        type=int,
        default=64,
        help="stream micro-batch size applied live during the run",
    )
    loadgen.add_argument(
        "--shards",
        type=int,
        default=1,
        help="shard count of the serving state (stream mode)",
    )
    loadgen.add_argument(
        "--partitioner",
        choices=sorted(PARTITIONERS),
        default="hash",
        help="shard assignment policy (default: hash)",
    )
    loadgen.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "drive a pre-forked SO_REUSEPORT worker fleet over one "
            "shared-memory store instead of a single in-process "
            "gateway (stream mode only; default 1)"
        ),
    )
    loadgen.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the response-by-response bit-identity check",
    )
    loadgen.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print the full report as JSON instead of a table",
    )

    compare = commands.add_parser(
        "compare",
        help=(
            "reproduce a figure panel: tune every method per test "
            "ratio (each method's grid solved in fused chunks); "
            "--jobs fans the chunks over worker processes, --json adds "
            "per-method best params and fused iteration counts"
        ),
    )
    _add_source_arguments(compare)
    compare.add_argument(
        "--metric",
        choices=["spearman", "ndcg"],
        default="ndcg",
        help="optimise Spearman rho (Figure 3) or nDCG@k (Figure 4)",
    )
    compare.add_argument(
        "--k", type=int, default=50, help="nDCG cut-off (default 50)"
    )
    compare.add_argument(
        "--ratios",
        nargs="+",
        type=float,
        default=list(DEFAULT_TEST_RATIOS),
        help="test ratios (default: the paper's 1.2 1.4 1.6 1.8 2.0)",
    )
    compare.add_argument(
        "--methods",
        nargs="+",
        default=None,
        choices=sorted(COMPARISON_METHODS),
        help="lineup subset (default: every method the data supports)",
    )
    compare.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (0 = all cores; default 1 = serial)",
    )
    compare.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help=(
            "print the panel as JSON: per ratio and method, the best "
            "parameters, metric score, and the iteration count of a "
            "fused re-solve of that winning configuration"
        ),
    )

    bench = commands.add_parser(
        "bench",
        help="run a benchmark scenario and write BENCH_<scenario>.json",
    )
    bench.add_argument(
        "--scenario", default=None, help="scenario name (see --list)"
    )
    bench.add_argument(
        "--list",
        action="store_true",
        dest="list_scenarios",
        help="list available scenarios and exit",
    )
    bench.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for parallel scenarios (0 = all cores)",
    )
    bench.add_argument(
        "--size",
        default="tiny",
        choices=sorted(SIZE_FACTORS),
        help="synthetic dataset scale (default: tiny)",
    )
    bench.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timed repetitions (default: the scenario's own)",
    )
    bench.add_argument(
        "--warmup",
        type=int,
        default=None,
        help="untimed warm-up runs (default: the scenario's own)",
    )
    bench.add_argument(
        "--smoke", action="store_true", help="CI-sized workload cut"
    )
    bench.add_argument("--seed", type=int, default=7, help="generator seed")
    bench.add_argument(
        "--shards",
        type=int,
        default=2,
        help=(
            "shard count for the sharded-serving scenarios "
            "(default 2; ignored by the others)"
        ),
    )
    bench.add_argument(
        "--output-dir", default=".", help="where to write BENCH_*.json"
    )

    diff = commands.add_parser(
        "bench-diff",
        help=(
            "compare two directories of BENCH_*.json artifacts; exit "
            "non-zero on regressions (the CI benchmark gate)"
        ),
    )
    diff.add_argument("base", help="baseline artifact directory")
    diff.add_argument("head", help="candidate artifact directory")
    diff.add_argument(
        "--tolerance",
        type=float,
        default=1.5,
        help=(
            "fail when head elapsed_seconds > tolerance x base "
            "(default 1.5)"
        ),
    )
    diff.add_argument(
        "--markdown",
        action="store_true",
        help="emit a GitHub-flavoured markdown table (for job summaries)",
    )

    chaos = commands.add_parser(
        "chaos",
        help=(
            "deterministic fault injection: plan a seeded fault, run "
            "one scenario, or sweep the whole fault-point catalog"
        ),
    )
    chaos_commands = chaos.add_subparsers(
        dest="chaos_command", required=True
    )

    chaos_plan = chaos_commands.add_parser(
        "plan",
        help="print the fault a seed would inject, without running it",
    )
    chaos_plan.add_argument(
        "--seed", type=int, default=0, help="plan seed (default 0)"
    )
    chaos_plan.add_argument(
        "--point",
        default=None,
        help=(
            "pin the fault point; the seed then only draws the kind "
            "and firing invocation (default: draw the point too)"
        ),
    )

    chaos_run = chaos_commands.add_parser(
        "run",
        help=(
            "arm one fault, run the owning scenario (checkpoint "
            "crash/resume or gateway drain), print the invariant report"
        ),
    )
    chaos_run.add_argument(
        "--point",
        required=True,
        help="fault point to arm (catalog: docs/RELIABILITY.md)",
    )
    chaos_run.add_argument(
        "--seed",
        type=int,
        default=0,
        help=(
            "workload seed; also draws the fault kind and invocation "
            "unless --kind pins them (default 0)"
        ),
    )
    chaos_run.add_argument(
        "--kind",
        choices=sorted(KINDS),
        default=None,
        help="pin the fault kind instead of drawing it from the seed",
    )
    chaos_run.add_argument(
        "--invocation",
        type=int,
        default=None,
        help=(
            "with --kind: fire at the Nth visit of the point "
            "(default 0)"
        ),
    )
    chaos_run.add_argument(
        "--report", default=None, help="also write the report JSON here"
    )

    chaos_sweep = chaos_commands.add_parser(
        "sweep",
        help=(
            "every fault point x N seeds; exit non-zero if any "
            "invariant fails (the CI chaos gate)"
        ),
    )
    chaos_sweep.add_argument(
        "--seeds",
        type=int,
        default=5,
        help="run seeds 0..N-1 against every point (default 5)",
    )
    chaos_sweep.add_argument(
        "--points",
        nargs="+",
        default=None,
        help="restrict to these fault points (default: full catalog)",
    )
    chaos_sweep.add_argument(
        "--report", default=None, help="write the full report JSON here"
    )

    return parser


def _command_generate(args: argparse.Namespace) -> int:
    network = generate_dataset(args.dataset, size=args.size, seed=args.seed)
    save_network(network, args.output)
    print(
        f"wrote {network.n_papers} papers / {network.n_citations} citations "
        f"to {args.output}"
    )
    return 0


def _command_summarize(args: argparse.Namespace) -> int:
    network = _load_source(args)
    print(format_table(["statistic", "value"], summarize(network).as_rows()))
    return 0


def _command_rank(args: argparse.Namespace) -> int:
    network = _load_source(args)
    method = make_method(args.method)
    scores = method.scores(network)
    order = method.rank(network)[: args.top]
    rows = [
        [
            position + 1,
            network.id_of(int(index)),
            f"{network.publication_times[index]:.1f}",
            f"{scores[index]:.6g}",
        ]
        for position, index in enumerate(order)
    ]
    print(
        format_table(
            ["rank", "paper", "year", "score"],
            rows,
            title=f"top {args.top} by {method.describe()}",
        )
    )
    return 0


def _command_evaluate(args: argparse.Namespace) -> int:
    network = _load_source(args)
    split = split_by_ratio(network, args.ratio)
    spearman = SpearmanRho()
    ndcg = NDCG(args.ndcg_k)
    rows = []
    for name in args.methods:
        method = make_method(name)
        scores = method.scores(split.current)
        rows.append(
            [
                name,
                f"{spearman(scores, split.sti):.4f}",
                f"{ndcg(scores, split.sti):.4f}",
            ]
        )
    print(
        format_table(
            ["method", "spearman", ndcg.name],
            rows,
            title=(
                f"ratio {args.ratio}: {split.current.n_papers} current "
                f"papers, horizon {split.horizon_years:.1f}y"
            ),
        )
    )
    return 0


def _command_horizons(args: argparse.Namespace) -> int:
    network = _load_source(args)
    rows = [
        [
            f"{row.test_ratio:.1f}",
            f"{row.horizon_years:.2f}",
            row.n_current_papers,
            row.n_future_papers,
        ]
        for row in horizon_table(network)
    ]
    print(
        format_table(
            ["test ratio", "horizon (years)", "current papers", "future papers"],
            rows,
        )
    )
    return 0


def _command_popular(args: argparse.Namespace) -> int:
    network = _load_source(args)
    split = split_by_ratio(network, args.ratio)
    result = recently_popular_overlap(
        split, k=args.k, window_years=args.window
    )
    print(
        format_kv_block(
            {
                "top-k size": result.k,
                "window (years)": result.window_years,
                "recently popular in top-k": result.overlap,
                "fraction": f"{result.fraction:.2f}",
            }
        )
    )
    return 0


def _command_index(args: argparse.Namespace) -> int:
    network = _load_source(args)
    index = ScoreIndex(network, solver_jobs=args.jobs)
    for label in args.methods:
        entry = index.add_method(label)
        note = f"{entry.iterations} iterations" if entry.iterations else "closed form"
        print(f"solved {label} ({note})")
    if args.shards > 1:
        store = ShardedScoreIndex.from_index(
            index, n_shards=args.shards, partitioner=args.partitioner
        )
        store.save(args.output)
        populations = ", ".join(
            str(store.shard(i).n_papers) for i in range(store.n_shards)
        )
        print(
            f"wrote sharded index v{index.version}: "
            f"{network.n_papers} papers, {len(index.labels)} methods, "
            f"{store.n_shards} {args.partitioner}-partitioned shards "
            f"({populations} papers) to {args.output}/"
        )
        return 0
    index.save(args.output)
    print(
        f"wrote index v{index.version}: {network.n_papers} papers, "
        f"{len(index.labels)} methods to {args.output}"
    )
    return 0


def _command_update(args: argparse.Namespace) -> int:
    if os.path.isdir(args.index):
        print(
            "error: repro update operates on a single-file index; "
            "rebuild sharded stores with repro index --shards after "
            "updating the source index",
            file=sys.stderr,
        )
        return 2
    index = ScoreIndex.load(args.index)
    index.solver_jobs = args.jobs
    updater = DeltaUpdater(
        index,
        missing_references=args.missing_references,
        warm=not args.cold,
    )
    delta = NetworkDelta.from_json_file(args.delta)
    report = updater.apply(delta)
    # Persist before reporting: a failed print (e.g. a closed pipe)
    # must not lose an applied update.
    index.save(args.index)
    rows = [
        [
            entry.label,
            "warm" if entry.warm_started else "cold",
            entry.iterations,
            "yes" if entry.converged else "NO",
        ]
        for entry in report.entries.values()
    ]
    print(
        format_table(
            ["method", "start", "iterations", "converged"],
            rows,
            title=(
                f"applied delta: +{report.n_new_papers} papers, "
                f"+{report.n_new_citations} citations -> "
                f"{report.n_papers} papers, index v{report.version} "
                f"({report.elapsed_seconds * 1000:.1f} ms)"
            ),
        )
    )
    print(f"updated {args.index}")
    return 0


def _serving_backend(path: str, jobs: int | None):
    """Open an index file or shard directory as a serving backend."""
    if os.path.isdir(path):
        # A sharded store loads lazily and serves through the engine.
        return QueryEngine(ShardedScoreIndex.load(path), jobs=jobs)
    return RankingService(ScoreIndex.load(path), jobs=jobs)


def _command_query(args: argparse.Namespace) -> int:
    service = _serving_backend(args.index, args.jobs)
    if args.batch:
        queries = queries_from_file(args.batch)
        engine = (
            service if isinstance(service, QueryEngine) else service.engine
        )
        # Per-query failure attribution (shared with the gateway's
        # coalescer): a broken query gets a typed JSON error object in
        # its slot while every healthy one still gets its result.
        _, outcomes = execute_with_attribution(
            engine.execute_versioned, queries, engine.sharded
        )
        failures = 0
        payloads = []
        for outcome in outcomes:
            if isinstance(outcome, ReproError):
                failures += 1
                payloads.append(
                    {
                        "type": "error",
                        "error": type(outcome).__name__,
                        "message": str(outcome),
                    }
                )
            else:
                payloads.append(result_payload(outcome))
        print(json.dumps(payloads, indent=2))
        return 1 if failures else 0
    year_range = None
    if args.year_min is not None or args.year_max is not None:
        year_range = (
            args.year_min if args.year_min is not None else float("-inf"),
            args.year_max if args.year_max is not None else float("inf"),
        )
    span = "" if year_range is None else (
        f", years [{year_range[0]:g}, {year_range[1]:g}]"
    )
    if len(args.methods) == 1:
        result = service.top_k(
            args.methods[0],
            k=args.top,
            offset=args.offset,
            year_range=year_range,
        )
        rows = [
            [row.rank, row.paper_id, f"{row.year:.1f}", f"{row.score:.6g}"]
            for row in result.entries
        ]
        print(
            format_table(
                ["rank", "paper", "year", "score"],
                rows,
                title=(
                    f"{result.method} v{result.version}: rows "
                    f"{result.offset + 1}-{result.offset + len(result.entries)}"
                    f" of {result.total}{span}"
                ),
            )
        )
        return 0
    comparison = service.compare(
        args.methods,
        k=args.top,
        offset=args.offset,
        year_range=year_range,
    )
    results = comparison.results
    depth = max((len(r.entries) for r in results.values()), default=0)
    rows = [
        [args.offset + position + 1]
        + [
            results[label].entries[position].paper_id
            if position < len(results[label].entries)
            else ""
            for label in results
        ]
        for position in range(depth)
    ]
    print(
        format_table(
            ["rank", *results],
            rows,
            title=f"top-{args.top} comparison, index v{service.version}{span}",
        )
    )
    for (a, b), shared in comparison.overlap.items():
        compared = min(
            len(results[a].entries), len(results[b].entries)
        )
        print(f"overlap {a} ∩ {b}: {shared}/{compared}")
    return 0


def _command_stream(args: argparse.Namespace) -> int:
    handlers = {
        "extract": _stream_extract,
        "replay": _stream_replay,
        "resume": _stream_resume,
        "checkpoint": _stream_checkpoint,
    }
    return handlers[args.stream_command](args)


def _stream_extract(args: argparse.Namespace) -> int:
    from repro.stream import EventLog

    network = _load_source(args)
    log = EventLog.from_network(network)
    log.save(args.output)
    print(
        f"wrote {len(log)} events ({log.n_papers} papers, "
        f"{log.n_citations} citations) to {args.output}"
    )
    return 0


def _drive_replay(ingestor, args: argparse.Namespace) -> int:
    """Run an ingestor to completion with checkpoints and reporting.

    Shared by ``stream replay`` and ``stream resume`` — after the
    ingestor is built (fresh or from a checkpoint), the two commands
    behave identically.
    """
    checkpoint_every = args.checkpoint_every
    if args.checkpoint_dir is not None and checkpoint_every < 1:
        print(
            "error: --checkpoint-every must be >= 1", file=sys.stderr
        )
        return 2
    if args.max_batches is not None and args.max_batches < 1:
        print("error: --max-batches must be >= 1", file=sys.stderr)
        return 2
    total_batches = 0
    remaining = args.max_batches
    while not ingestor.exhausted:
        if remaining is not None and remaining <= 0:
            break
        chunk = checkpoint_every if args.checkpoint_dir else None
        if remaining is not None:
            chunk = remaining if chunk is None else min(chunk, remaining)
        report = ingestor.replay(max_batches=chunk)
        total_batches += report.n_batches
        if remaining is not None:
            remaining -= report.n_batches
        if args.checkpoint_dir and report.n_batches:
            path = ingestor.checkpoint(args.checkpoint_dir)
            print(
                f"checkpoint @ {ingestor.offset}/{len(ingestor.log)} "
                f"events ({ingestor.batches_applied} batches) -> {path}"
            )
    finalized = False
    if ingestor.exhausted and not args.no_finalize:
        ingestor.finalize()
        finalized = True
        if args.checkpoint_dir:
            ingestor.checkpoint(args.checkpoint_dir)
    index = ingestor.index
    rows = [
        [
            entry.label,
            "warm" if entry.warm_started else "cold",
            entry.iterations,
            "yes" if entry.converged else "NO",
        ]
        for entry in (index.entry(label) for label in index.labels)
    ]
    state = "finalized (canonical)" if finalized else (
        "exhausted (warm scores)" if ingestor.exhausted else
        f"paused at event {ingestor.offset}/{len(ingestor.log)}"
    )
    print(
        format_table(
            ["method", "last solve", "iterations", "converged"],
            rows,
            title=(
                f"replayed {total_batches} batches -> "
                f"{index.network.n_papers} papers, index "
                f"v{index.version}, {state}"
            ),
        )
    )
    if args.index_out:
        index.save(args.index_out)
        print(f"wrote index to {args.index_out}")
    return 0


def _stream_replay(args: argparse.Namespace) -> int:
    from repro.stream import EventLog, StreamIngestor

    log = EventLog.load(args.log)
    ingestor = StreamIngestor(
        log,
        methods=args.methods,
        batch_size=args.batch_size,
        bootstrap_size=args.bootstrap_size,
        watermark_years=args.watermark_years,
        shards=args.shards,
        partitioner=args.partitioner,
        missing_references=args.missing_references,
    )
    return _drive_replay(ingestor, args)


def _stream_resume(args: argparse.Namespace) -> int:
    from repro.stream import EventLog, StreamIngestor

    log = EventLog.load(args.log)
    ingestor = StreamIngestor.resume(args.checkpoint, log)
    print(
        f"resumed at event {ingestor.offset}/{len(log)} "
        f"({ingestor.batches_applied} batches applied, index "
        f"v{ingestor.index.version})"
    )
    return _drive_replay(ingestor, args)


def _stream_checkpoint(args: argparse.Namespace) -> int:
    from repro.stream import Checkpoint

    state = Checkpoint.load(args.checkpoint)
    index = state.load_index(args.checkpoint)
    print(
        format_kv_block(
            {
                "events consumed": state.offset,
                "batches applied": state.batches_applied,
                "batch size": state.batch_size,
                "watermark (years)": (
                    "disabled"
                    if state.watermark_years is None
                    else f"{state.watermark_years:g}"
                ),
                "shards": state.shards,
                "partitioner": state.partitioner,
                "missing references": state.missing_references,
                "index version": state.index_version,
                "papers": index.network.n_papers,
                "methods": ", ".join(index.labels),
                "log digest": state.log_digest[:16] + "…",
                "created (UTC)": state.created_utc,
            }
        )
    )
    return 0


def _command_serve_http(args: argparse.Namespace) -> int:
    import asyncio
    import signal as signal_module

    from repro.gateway import GatewayConfig, GatewayServer
    from repro.obs import configure_logging, enable_tracing

    if args.workers < 1:
        raise ReproError(f"--workers must be >= 1, got {args.workers}")
    if args.log_level != "off":
        configure_logging(
            args.log_level, json=args.log_format == "json"
        )
    if not args.no_trace:
        enable_tracing(args.trace_capacity, sample=args.trace_sample)
    backend = _serving_backend(args.index, args.jobs)
    slos = None
    if args.slo:
        from repro.obs import parse_slo

        slos = tuple(parse_slo(spec) for spec in args.slo)
    config = GatewayConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
        profile=args.profile,
        profile_hz=args.profile_hz,
        profile_memory=args.profile_memory,
        history_interval=args.history_interval,
        history_capacity=args.history_capacity,
        slos=slos,
    )

    if args.workers > 1:
        from repro.gateway import MultiWorkerGateway

        gateway = MultiWorkerGateway(
            backend,
            workers=args.workers,
            config=config,
            jobs=args.jobs,
        )
        gateway.start()
        print(
            f"serving {args.index} on http://{config.host}:{gateway.port}"
            f" with {args.workers} workers"
            f" ({'for %.1fs' % args.for_seconds if args.for_seconds else 'SIGTERM/Ctrl-C drains and stops'})",
            flush=True,
        )
        try:
            # serve_forever installs SIGTERM/SIGINT handlers, restarts
            # crashed workers, and drains the fleet on the way out.
            gateway.serve_forever(for_seconds=args.for_seconds)
        except KeyboardInterrupt:  # signal raced handler installation
            gateway.stop()
        print("gateway drained and stopped")
        return 0

    async def serve() -> None:
        server = GatewayServer(backend, config=config)
        await server.start()
        print(
            f"serving {args.index} on http://{config.host}:{server.port}"
            f" ({'for %.1fs' % args.for_seconds if args.for_seconds else 'SIGTERM/Ctrl-C drains and stops'})",
            flush=True,
        )
        # SIGTERM must drain exactly like Ctrl-C: a supervisor
        # (systemd, Docker, the CI harness) stops services with
        # SIGTERM, and before these handlers existed that path killed
        # in-flight requests and skipped the drain entirely.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        installed: list[int] = []
        for signum in (signal_module.SIGTERM, signal_module.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
                installed.append(signum)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        try:
            if args.for_seconds is not None:
                deadline = asyncio.create_task(
                    asyncio.sleep(args.for_seconds)
                )
                stopper = asyncio.create_task(stop.wait())
                done, pending = await asyncio.wait(
                    {deadline, stopper},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                for task in pending:
                    task.cancel()
            else:
                await stop.wait()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            await server.stop()
            print("gateway drained and stopped")

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        # Only reachable where add_signal_handler is unavailable (or
        # the signal raced installation): asyncio.run already
        # cancelled serve(), whose finally block drained in-loop.
        pass
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    from repro.obs import chrome_trace

    if args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except OSError as error:
            raise ReproError(
                f"cannot read trace dump: {error}"
            ) from None
        except json.JSONDecodeError as error:
            raise ReproError(
                f"{args.input}: invalid JSON ({error})"
            ) from None
    else:
        import urllib.error
        import urllib.request

        url = (
            f"{args.url.rstrip('/')}/v1/trace?limit={args.limit}"
        )
        try:
            with urllib.request.urlopen(url, timeout=30) as response:
                document = json.load(response)
        except (urllib.error.URLError, OSError) as error:
            raise ReproError(
                f"cannot fetch {url}: {error}"
            ) from None
    traces = document.get("traces", [])
    if not document.get("enabled", True) and not traces:
        print(
            "note: tracing is disabled on the gateway "
            "(start serve-http without --no-trace)",
            file=sys.stderr,
        )
    rendered = json.dumps(
        document if args.raw else chrome_trace(traces), indent=2
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {len(traces)} trace(s) to {args.output}")
    else:
        print(rendered)
    return 0


def _fetch_json(url: str) -> dict:
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return json.load(response)
    except (urllib.error.URLError, OSError) as error:
        raise ReproError(f"cannot fetch {url}: {error}") from None


def _command_profile(args: argparse.Namespace) -> int:
    from repro.obs import (
        collapsed_stacks,
        render_profile,
        speedscope_document,
    )

    if args.bench:
        # Profile a bench scenario in this process: start the sampler,
        # run the scenario once in smoke mode, render what it saw.
        from repro.bench import run_scenario
        from repro.obs import SamplingProfiler

        profiler = SamplingProfiler(hz=args.hz)
        profiler.start()
        try:
            run_scenario(
                args.bench, size=args.size, smoke=True, seed=args.seed
            )
        finally:
            profiler.stop()
        state = profiler.state_dict()
        source = f"bench scenario {args.bench!r}"
    else:
        base = args.url.rstrip("/")
        document = _fetch_json(f"{base}/v1/profile?format=state")
        if not document.get("enabled") or not document.get("profile"):
            print(
                "profiling is disabled on the gateway "
                "(start serve-http with --profile)",
                file=sys.stderr,
            )
            return 1
        state = document["profile"]
        source = args.url

    if args.render_format == "collapsed":
        rendered = collapsed_stacks(state)
    elif args.render_format == "speedscope":
        rendered = (
            json.dumps(speedscope_document(state), indent=2) + "\n"
        )
    elif args.render_format == "json":
        rendered = (
            json.dumps(render_profile(state, top=args.top), indent=2)
            + "\n"
        )
    else:
        document = render_profile(state, top=args.top)
        total = max(1, int(document["samples_total"]))
        rows = [
            [phase, str(count), f"{100.0 * count / total:.1f}%"]
            for phase, count in document["by_phase"].items()
        ]
        lines = [
            format_table(
                ["phase", "samples", "share"],
                rows,
                title=(
                    f"{source}: {document['samples_total']} samples "
                    f"at {document['hz']:g} Hz"
                ),
            ),
            "",
        ]
        for stack in document["stacks"][: args.top]:
            leaf = stack["frames"][-1] if stack["frames"] else "(idle)"
            lines.append(
                f"{stack['count']:>7d}  {stack['phase']:<12s} {leaf}"
            )
        rendered = "\n".join(lines) + "\n"

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"wrote profile ({args.render_format}) to {args.output}")
    else:
        sys.stdout.write(rendered)
    return 0


def _command_slo(args: argparse.Namespace) -> int:
    document = _fetch_json(f"{args.url.rstrip('/')}/v1/slo")
    if args.as_json:
        print(json.dumps(document, indent=2))
        return 1 if document.get("firing") else 0
    rows = []
    for objective in document.get("objectives", []):
        burns = objective.get("burn_rates", {})
        rows.append(
            [
                objective["name"],
                objective["kind"],
                f"{100.0 * objective['objective']:g}%",
                f"{100.0 * objective['compliance']:.3f}%",
                f"{100.0 * objective['budget_consumed']:.1f}%",
                " ".join(
                    f"{window}={burn:.2f}"
                    for window, burn in burns.items()
                ),
                "FIRING" if objective.get("firing") else "ok",
            ]
        )
    print(
        format_table(
            [
                "slo",
                "kind",
                "objective",
                "compliance",
                "budget used",
                "burn rates",
                "state",
            ],
            rows,
            title=f"SLO status from {args.url}",
        )
    )
    for objective in document.get("objectives", []):
        for alert in objective.get("alerts", []):
            if alert.get("firing"):
                print(
                    f"ALERT[{alert['severity']}] {objective['name']}: "
                    f"burn {alert['short_burn']:.1f}x over "
                    f"{alert['short_window']} and "
                    f"{alert['long_burn']:.1f}x over "
                    f"{alert['long_window']} "
                    f"(threshold {alert['factor']}x)"
                )
    # Scriptable: a firing SLO exits nonzero, like a failing health
    # check — `repro slo status --url ... && deploy` does the right
    # thing.
    return 1 if document.get("firing") else 0


def _command_loadgen(args: argparse.Namespace) -> int:
    from repro.gateway import GatewayConfig
    from repro.gateway.loadgen import (
        run_load_multiworker,
        run_load_over_log,
        run_load_static,
    )

    verify = not args.no_verify
    config = GatewayConfig(port=0)
    if args.workers < 1:
        raise ReproError(f"--workers must be >= 1, got {args.workers}")
    if args.workers > 1 and args.index:
        raise ReproError(
            "--workers needs stream mode (--dataset or --input): the "
            "fleet's supervisor is the streaming updater"
        )
    if args.workers > 1:
        from repro.stream import EventLog

        network = _load_source(args)
        log = EventLog.from_network(network)
        report = run_load_multiworker(
            log,
            tuple(args.methods),
            workers=args.workers,
            clients=args.clients,
            requests_per_client=args.requests,
            seed=args.seed,
            batch_size=args.batch_size,
            shards=args.shards,
            partitioner=args.partitioner,
            config=config,
            verify=verify,
        )
    elif args.index:
        backend = _serving_backend(args.index, jobs=1)
        labels = (
            backend.index.labels
            if isinstance(backend, RankingService)
            else backend.sharded.labels
        )
        report = run_load_static(
            backend,
            labels,
            clients=args.clients,
            requests_per_client=args.requests,
            seed=args.seed,
            config=config,
            verify=verify and isinstance(backend, RankingService),
        )
    else:
        from repro.stream import EventLog

        network = _load_source(args)
        log = EventLog.from_network(network)
        report = run_load_over_log(
            log,
            tuple(args.methods),
            clients=args.clients,
            requests_per_client=args.requests,
            seed=args.seed,
            batch_size=args.batch_size,
            shards=args.shards,
            partitioner=args.partitioner,
            config=config,
            verify=verify,
        )
    if args.as_json:
        print(json.dumps(report, indent=2))
    else:
        latency = report["latency"]
        rows = [
            ["requests", report["requests"]],
            ["requests/s", f"{report['requests_per_second']:.0f}"],
            ["p50 (ms)", f"{latency['p50_ms']:.2f}"],
            ["p95 (ms)", f"{latency['p95_ms']:.2f}"],
            ["p99 (ms)", f"{latency['p99_ms']:.2f}"],
            ["mean batch size", f"{report['coalescing']['mean_batch_size']:.1f}"],
            ["updates applied", report["updates_applied"]],
            ["shed 429 / 503", f"{report['shed_429']} / {report['shed_503']}"],
            ["5xx responses", report["errors_5xx"]],
            [
                "identical rankings",
                (
                    f"yes ({report['verified_responses']} verified)"
                    if report["identical_rankings"]
                    else (
                        "not checked"
                        if not verify
                        or report["verified_responses"]
                        + report["mismatched_responses"] == 0
                        else f"NO ({report['mismatched_responses']} mismatches)"
                    )
                ),
            ],
        ]
        print(
            format_table(
                ["measure", "value"],
                rows,
                title=(
                    f"loadgen: {args.clients} clients x "
                    f"{args.requests} requests"
                ),
            )
        )
    failed = report["errors_5xx"] > 0 or (
        verify
        and report["verified_responses"] + report["mismatched_responses"] > 0
        and not report["identical_rankings"]
    )
    if failed:
        print(
            "error: [GatewayError] load run failed the gate "
            f"(5xx={report['errors_5xx']}, "
            f"mismatches={report['mismatched_responses']})",
            file=sys.stderr,
        )
        return 1
    return 0


def _compare_json_payload(panel, network, *, jobs: int) -> dict:
    """The ``repro compare --json`` document.

    The tuning sweep keeps only metric scores per grid point, so the
    per-method iteration counts come from re-solving each ratio's
    winning configurations through the fused solver — one stacked pass
    per ratio.  Closed forms report 0 iterations, matching the score
    index's convention.
    """
    from repro.core.fused import solve_methods

    lineup = list(panel.cells)
    results = []
    for position, ratio in enumerate(panel.x_values):
        split = split_by_ratio(network, ratio)
        best_params = {
            name: dict(panel.cells[name][position].result.best.params)
            for name in lineup
        }
        methods = [
            make_method(name, **best_params[name]) for name in lineup
        ]
        solved = solve_methods(split.current, methods)
        entries = {}
        for name, (_scores, info) in zip(lineup, solved):
            entries[name] = {
                "params": best_params[name],
                "score": panel.cells[name][position].score,
                "iterations": info.iterations if info is not None else 0,
                "converged": info.converged if info is not None else True,
            }
        results.append(
            {
                "ratio": float(ratio),
                "winner": panel.winner_at(ratio),
                "methods": entries,
            }
        )
    return {
        "type": "compare",
        "dataset": panel.dataset,
        "metric": panel.metric,
        "x_label": panel.x_label,
        "ratios": [float(r) for r in panel.x_values],
        "methods": lineup,
        "jobs": jobs,
        "results": results,
    }


def _command_compare(args: argparse.Namespace) -> int:
    from repro.parallel import ExperimentEngine

    network = _load_source(args)
    metric = NDCG(args.k) if args.metric == "ndcg" else SpearmanRho()
    engine = ExperimentEngine(jobs=args.jobs)
    label = args.dataset if args.dataset else args.input
    panel = engine.compare_over_ratios(
        network,
        dataset=str(label),
        metric=metric,
        test_ratios=tuple(args.ratios),
        methods=args.methods,
    )
    if args.as_json:
        print(
            json.dumps(
                _compare_json_payload(panel, network, jobs=engine.jobs),
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(
        format_series(
            "ratio",
            panel.x_values,
            {name: panel.series(name) for name in panel.cells},
            title=(
                f"{panel.metric} vs test ratio [{panel.dataset}], "
                f"jobs={engine.jobs}"
            ),
        )
    )
    for ratio in panel.x_values:
        print(f"winner @ {ratio:g}: {panel.winner_at(ratio)}")
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    from repro.bench import run_scenario, scenario_help

    if args.list_scenarios:
        for name, description in scenario_help().items():
            print(f"{name:12s} {description}")
        return 0
    if not args.scenario:
        print(
            "error: --scenario is required (or use --list)", file=sys.stderr
        )
        return 2
    result = run_scenario(
        args.scenario,
        jobs=args.jobs,
        size=args.size,
        repeats=args.repeats,
        warmup=args.warmup,
        smoke=args.smoke,
        seed=args.seed,
        shards=args.shards,
    )
    path = result.write(args.output_dir)
    payload = result.payload
    rows = []
    if "serial" in payload and "parallel" in payload:
        rows.append(
            ["serial best (s)", f"{payload['serial']['best_seconds']:.3f}"]
        )
        rows.append(
            ["parallel best (s)", f"{payload['parallel']['best_seconds']:.3f}"]
        )
    if "serial" in payload and "batched" in payload:
        rows.append(
            ["serial best (s)", f"{payload['serial']['best_seconds']:.3f}"]
        )
        rows.append(
            ["batched best (s)", f"{payload['batched']['best_seconds']:.3f}"]
        )
        rows.append(
            [
                "batched queries/s",
                f"{payload['batched']['queries_per_second']:.0f}",
            ]
        )
    if "replay" in payload and "events_per_second" in payload["replay"]:
        rows.append(
            [
                "replay events/s",
                f"{payload['replay']['events_per_second']:.0f}",
            ]
        )
    if "replay_overhead_vs_batch" in payload:
        rows.append(
            [
                "replay overhead vs batch",
                f"{payload['replay_overhead_vs_batch']:.2f}x",
            ]
        )
    if "requests_per_second" in payload:
        rows.append(
            ["requests/s", f"{payload['requests_per_second']:.0f}"]
        )
    if "latency" in payload and "p50_ms" in payload.get("latency", {}):
        latency = payload["latency"]
        rows.append(
            [
                "latency p50/p95/p99 (ms)",
                f"{latency['p50_ms']:.2f} / {latency['p95_ms']:.2f} / "
                f"{latency['p99_ms']:.2f}",
            ]
        )
    if "coalescing" in payload and "mean_batch_size" in payload.get(
        "coalescing", {}
    ):
        rows.append(
            [
                "mean coalesced batch",
                f"{payload['coalescing']['mean_batch_size']:.1f}",
            ]
        )
    if "speedup_vs_serial" in payload:
        rows.append(
            ["speedup vs serial", f"{payload['speedup_vs_serial']:.2f}x"]
        )
    if "speedup_warm_vs_cold" in payload:
        rows.append(
            [
                "speedup warm vs cold",
                f"{payload['speedup_warm_vs_cold']:.2f}x",
            ]
        )
    if "identical_rankings" in payload:
        rows.append(
            ["identical rankings", "yes" if payload["identical_rankings"] else "NO"]
        )
    if rows:
        print(
            format_table(
                ["measure", "value"],
                rows,
                title=f"bench {args.scenario} (jobs={args.jobs})",
            )
        )
    print(f"wrote {path}")
    return 0


def _command_bench_diff(args: argparse.Namespace) -> int:
    from repro.bench.regression import compare_directories

    report = compare_directories(
        args.base, args.head, tolerance=args.tolerance
    )
    if args.markdown:
        print(report.to_markdown())
    else:
        rows = [
            [
                row.scenario,
                "-" if row.base_seconds is None else f"{row.base_seconds:.3f}",
                "-" if row.head_seconds is None else f"{row.head_seconds:.3f}",
                "-" if row.ratio is None else f"{row.ratio:.2f}x",
                row.latency_cell(),
                "ok" if row.identical_ok else "BROKEN",
                row.status,
            ]
            for row in report.rows
        ]
        print(
            format_table(
                ["scenario", "base (s)", "head (s)", "ratio",
                 "p50/p95/p99 (ms)", "rankings", "status"],
                rows,
                title=(
                    f"bench regression gate (tolerance "
                    f"{report.tolerance:g}x)"
                ),
            )
        )
    if not report.ok:
        names = ", ".join(row.scenario for row in report.failures)
        print(f"error: benchmark regression in: {names}", file=sys.stderr)
        return 1
    return 0


def _command_chaos(args: argparse.Namespace) -> int:
    # The harness pulls in the gateway load bench; importing it here
    # keeps every other subcommand's startup unaffected.
    from repro.chaos import harness
    from repro.chaos.faults import FaultPlan
    from repro.errors import ChaosError

    if args.chaos_command == "plan":
        plan = FaultPlan.seeded(args.seed, point=args.point)
        print(json.dumps(plan.to_payload(), indent=2))
        return 0

    if args.chaos_command == "run":
        if args.invocation is not None and args.kind is None:
            raise ChaosError(
                "--invocation only makes sense with --kind (a seeded "
                "draw picks its own invocation)"
            )
        if args.kind is not None:
            plan = FaultPlan.single(
                args.point,
                kind=args.kind,
                invocation=args.invocation or 0,
                seed=args.seed,
            )
        else:
            plan = FaultPlan.seeded(args.seed, point=args.point)
        report = harness.run_plan(plan, seed=args.seed)
        payload = report.to_payload()
        if args.report is not None:
            harness.save_report(payload, args.report)
        print(json.dumps(payload, indent=2))
        return 0 if report.ok else 1

    assert args.chaos_command == "sweep"
    document = harness.sweep(range(args.seeds), points=args.points)
    if args.report is not None:
        harness.save_report(document, args.report)
    print(harness.render_summary(document))
    return 0 if document["ok"] else 1


_COMMANDS = {
    "generate": _command_generate,
    "summarize": _command_summarize,
    "rank": _command_rank,
    "evaluate": _command_evaluate,
    "horizons": _command_horizons,
    "popular": _command_popular,
    "index": _command_index,
    "update": _command_update,
    "query": _command_query,
    "stream": _command_stream,
    "serve-http": _command_serve_http,
    "trace": _command_trace,
    "profile": _command_profile,
    "slo": _command_slo,
    "loadgen": _command_loadgen,
    "compare": _command_compare,
    "bench": _command_bench,
    "bench-diff": _command_bench_diff,
    "chaos": _command_chaos,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        # One line, typed: scripts match on the class name instead of
        # parsing prose, and no library failure ever shows a traceback.
        print(
            f"error: [{type(error).__name__}] {error}", file=sys.stderr
        )
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
