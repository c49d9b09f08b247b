"""The registered benchmark scenarios.

Each scenario is a callable ``(BenchConfig) -> payload dict`` registered
under a short name; ``repro bench --scenario <name>`` runs it through
:func:`repro.bench.run_scenario` and writes ``BENCH_<name>.json``.

Scenario catalogue
------------------
``figure4``
    The paper's Figure-4 grid (every method tuned for nDCG@50 at every
    test ratio), run twice: serially and through the
    :class:`~repro.parallel.ExperimentEngine` at ``--jobs`` workers.
    Records both wall times, the speedup, and verifies the two runs
    produce identical series and identical chosen hyper-parameters.
``tuning``
    One AttRank grid search (250 settings) on the default split,
    serial vs parallel — the smallest unit of the paper's protocol.
``serve_delta``
    The serving path: apply a citation delta to a score index with
    warm-started vs cold re-solves (the `repro.serve` speedup).
``split``
    Temporal splitting across all five test ratios — the evaluation's
    fixed preprocessing cost.
``operator``
    Cold construction of the column-stochastic operator plus matvec
    throughput — the kernel every PageRank-style solve sits on.
``serve_batch``
    The batched read path: a mixed batch of top-k / filtered /
    compare / paper queries answered by the sharded
    :class:`~repro.serve.QueryEngine` (``--shards``)
    vs the same queries issued one at a time against an unsharded
    :class:`~repro.serve.RankingService`, with a bit-identical check.
``stream``
    The streaming write path: a full citation-event log replayed in
    micro-batches through warm-started updates (with a mid-replay
    checkpoint/resume leg), reported as events/second and verified
    bit-identical — finalized replay, resumed replay, and cold batch
    compute must produce the same score vectors.
``gateway``
    The HTTP serving layer under concurrent load: N asyncio clients of
    mixed endpoint traffic against a live gateway while stream updates
    land mid-run, reporting requests/second, latency quantiles
    (p50/p95/p99), the coalesced batch-size distribution, and the
    response-by-response bit-identity verdict against direct service
    calls at each reported index version.
``gateway_mp``
    Multi-process serving: the same verified mixed-traffic load driven
    through a pre-forked ``SO_REUSEPORT`` worker fleet over one
    shared-memory score store, at 1/2/4 workers across a client
    saturation curve (up to 1024 concurrent connections), with live
    stream updates published by the supervisor.  Reports the per-count
    peak requests/second, the fleet-vs-single speedup, and the
    bit-identity verdict per leg; the machine's ``cpu_count`` is the
    honest bound on attainable speedup.
``solver_fused``
    The fused multi-method solver core: tuning grids and a serving
    panel solved per-method vs stacked
    (:func:`repro.core.fused.solve_methods`), with a bit-identity
    check on every leg.
``obs_overhead``
    The cost of the observability plane: the same static loadgen run
    with observability disabled, in the production posture (INFO event
    logs, metrics, 1-in-20 trace sampling — held to a <5% overhead
    target the CI regression gate tracks), and in the verbose
    debugging posture (DEBUG access lines, every request traced —
    reported, no target).

Smoke mode (``--smoke``) shrinks each scenario to CI scale; the JSON
records that the cut was applied, so numbers are never compared across
modes by accident.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.bench.harness import BenchConfig, time_callable
from repro.eval.experiment import _grid_for_lineup, methods_available
from repro.eval.grids import attrank_grid
from repro.eval.metrics import NDCG
from repro.eval.split import DEFAULT_TEST_RATIOS, split_by_ratio
from repro.graph.citation_network import CitationNetwork
from repro.graph.matrix import StochasticOperator
from repro.graph.temporal import chronological_order
from repro.parallel import ExperimentEngine
from repro.synth.profiles import generate_dataset

__all__ = ["SCENARIOS", "ScenarioSpec", "scenario"]


@dataclass(frozen=True)
class ScenarioSpec:
    """A registered scenario: the callable plus its timing defaults."""

    name: str
    description: str
    run: Callable[[BenchConfig], dict[str, Any]]
    default_repeats: int = 1
    default_warmup: int = 0


SCENARIOS: dict[str, ScenarioSpec] = {}


def scenario(
    name: str,
    description: str,
    *,
    default_repeats: int = 1,
    default_warmup: int = 0,
) -> Callable[[Callable[[BenchConfig], dict[str, Any]]], Callable]:
    """Register a scenario callable under ``name``."""

    def register(fn: Callable[[BenchConfig], dict[str, Any]]) -> Callable:
        SCENARIOS[name] = ScenarioSpec(
            name=name,
            description=description,
            run=fn,
            default_repeats=default_repeats,
            default_warmup=default_warmup,
        )
        return fn

    return register


def _dataset_info(
    network: CitationNetwork, name: str, size: str
) -> dict[str, Any]:
    return {
        "name": name,
        "size": size,
        "n_papers": network.n_papers,
        "n_citations": network.n_citations,
    }


def _series_identical(a, b) -> bool:
    """Whether two ComparisonSeries agree in scores AND chosen params."""
    if tuple(a.cells) != tuple(b.cells) or a.x_values != b.x_values:
        return False
    for method in a.cells:
        for cell_a, cell_b in zip(a.cells[method], b.cells[method]):
            if cell_a.score != cell_b.score:
                return False
            if dict(cell_a.result.best_params) != dict(
                cell_b.result.best_params
            ):
                return False
    return True


@scenario(
    "figure4",
    "Figure-4 grid (all methods tuned for nDCG@50 per ratio): "
    "parallel vs serial",
)
def _bench_figure4(config: BenchConfig) -> dict[str, Any]:
    network = generate_dataset("hep-th", size=config.size, seed=config.seed)
    ratios = (1.6,) if config.smoke else DEFAULT_TEST_RATIOS
    lineup = methods_available(network)
    metric = NDCG(50)

    def run_with(jobs: int):
        return ExperimentEngine(jobs=jobs).compare_over_ratios(
            network,
            dataset="hep-th",
            metric=metric,
            test_ratios=ratios,
            methods=lineup,
        )

    serial_stats, serial_panel = time_callable(
        lambda: run_with(1),
        warmup=config.warmup,
        repeats=config.repeats,
    )
    parallel_stats, parallel_panel = time_callable(
        lambda: run_with(config.jobs),
        warmup=config.warmup,
        repeats=config.repeats,
    )

    grid_points = {
        name: len(list(_grid_for_lineup(name))) for name in lineup
    }
    evaluations = sum(grid_points.values()) * len(ratios)
    return {
        "dataset": _dataset_info(network, "hep-th", config.size),
        "metric": "ndcg@50",
        "test_ratios": list(ratios),
        "methods": list(lineup),
        "grid_points_per_method": grid_points,
        "evaluations_per_run": evaluations,
        "serial": serial_stats.as_dict(),
        "parallel": {**parallel_stats.as_dict(), "jobs": config.jobs},
        "speedup_vs_serial": serial_stats.best / parallel_stats.best,
        "identical_rankings": _series_identical(serial_panel, parallel_panel),
        "winner_at_ratio": {
            str(ratio): serial_panel.winner_at(float(ratio))
            for ratio in ratios
        },
    }


@scenario(
    "tuning",
    "One AttRank grid search (250 settings): parallel vs serial",
)
def _bench_tuning(config: BenchConfig) -> dict[str, Any]:
    network = generate_dataset("hep-th", size=config.size, seed=config.seed)
    metric = NDCG(50)
    windows = (1, 3) if config.smoke else (1, 2, 3, 4, 5)
    points = list(attrank_grid(windows=windows))

    def tune_with(jobs: int):
        # A fresh split per timed run keeps the comparison fair: its
        # current network is a new instance, so serial repeats start
        # from cold per-network caches exactly like pool workers do.
        split = split_by_ratio(network, 1.6)
        return ExperimentEngine(jobs=jobs).tune_method(
            "AR", points, split, metric
        )

    serial_stats, serial_result = time_callable(
        lambda: tune_with(1), warmup=config.warmup, repeats=config.repeats
    )
    parallel_stats, parallel_result = time_callable(
        lambda: tune_with(config.jobs),
        warmup=config.warmup,
        repeats=config.repeats,
    )
    return {
        "dataset": _dataset_info(network, "hep-th", config.size),
        "metric": "ndcg@50",
        "grid_points": len(points),
        "serial": serial_stats.as_dict(),
        "parallel": {**parallel_stats.as_dict(), "jobs": config.jobs},
        "speedup_vs_serial": serial_stats.best / parallel_stats.best,
        "identical_rankings": (
            serial_result.best == parallel_result.best
            and serial_result.sweep == parallel_result.sweep
        ),
        "best_params": dict(serial_result.best_params),
        "best_score": serial_result.best_score,
    }


@scenario(
    "serve_delta",
    "Score-index delta update: warm-started vs cold re-solves",
    default_repeats=3,
)
def _bench_serve_delta(config: BenchConfig) -> dict[str, Any]:
    from repro.serve import DeltaUpdater, ScoreIndex, delta_between

    network = generate_dataset("hep-th", size=config.size, seed=config.seed)
    order = chronological_order(network)
    held_out = max(5, network.n_papers // 100)
    base = network.subnetwork(np.sort(order[: network.n_papers - held_out]))
    delta = delta_between(base, network)
    methods = ("AR", "PR", "CC") if config.smoke else ("AR", "PR", "CR", "CC")

    def apply_once(warm: bool) -> tuple[float, dict[str, int]]:
        index = ScoreIndex(base)
        for label in methods:
            index.add_method(label)
        updater = DeltaUpdater(index)
        started = time.perf_counter()
        if warm:
            entries = updater.apply(delta).entries
        else:
            # The same extension, every method re-solved from its
            # canonical start.
            entries = index.refresh(
                updater.extend_network(delta), warm=False
            )
        elapsed = time.perf_counter() - started
        iterations = {
            label: entry.iterations for label, entry in entries.items()
        }
        return elapsed, iterations

    warm_walls, cold_walls = [], []
    warm_iters: dict[str, int] = {}
    cold_iters: dict[str, int] = {}
    for _ in range(config.warmup):
        apply_once(True)
    for _ in range(config.repeats):
        elapsed, warm_iters = apply_once(True)
        warm_walls.append(elapsed)
        elapsed, cold_iters = apply_once(False)
        cold_walls.append(elapsed)
    return {
        "dataset": _dataset_info(network, "hep-th", config.size),
        "methods": list(methods),
        "delta": {
            "n_new_papers": len(delta.papers),
            "n_new_citations": len(delta.citations),
        },
        "warm": {
            "wall_times_seconds": warm_walls,
            "best_seconds": min(warm_walls),
            "iterations": warm_iters,
        },
        "cold": {
            "wall_times_seconds": cold_walls,
            "best_seconds": min(cold_walls),
            "iterations": cold_iters,
        },
        # Deliberately NOT "speedup_vs_serial": this scenario compares
        # warm-started vs cold re-solves, not parallel vs serial runs.
        "speedup_warm_vs_cold": min(cold_walls) / min(warm_walls),
    }


@scenario(
    "split",
    "Temporal train/test splitting across all five test ratios",
    default_repeats=3,
    default_warmup=1,
)
def _bench_split(config: BenchConfig) -> dict[str, Any]:
    network = generate_dataset("hep-th", size=config.size, seed=config.seed)
    ratios = (1.6,) if config.smoke else DEFAULT_TEST_RATIOS

    def split_all():
        return [split_by_ratio(network, ratio) for ratio in ratios]

    stats, splits = time_callable(
        split_all, warmup=config.warmup, repeats=config.repeats
    )
    return {
        "dataset": _dataset_info(network, "hep-th", config.size),
        "test_ratios": list(ratios),
        "timing": stats.as_dict(),
        "splits_per_second": len(ratios) / stats.best,
        "horizon_years": {
            str(ratio): split.horizon_years
            for ratio, split in zip(ratios, splits)
        },
    }


@scenario(
    "operator",
    "Column-stochastic operator: cold CSR build + matvec throughput",
    default_repeats=3,
    default_warmup=1,
)
def _bench_operator(config: BenchConfig) -> dict[str, Any]:
    network = generate_dataset("hep-th", size=config.size, seed=config.seed)
    applies = 20 if config.smoke else 100

    # Direct construction (not the shared_operator cache) so every
    # repeat measures a cold CSR assembly.
    build_stats, operator = time_callable(
        lambda: StochasticOperator(network),
        warmup=config.warmup,
        repeats=config.repeats,
    )

    vector = np.full(network.n_papers, 1.0 / network.n_papers)

    def apply_many():
        result = vector
        for _ in range(applies):
            result = operator.apply(result)
        return result

    apply_stats, _ = time_callable(
        apply_many, warmup=config.warmup, repeats=config.repeats
    )
    return {
        "dataset": _dataset_info(network, "hep-th", config.size),
        "build": build_stats.as_dict(),
        "apply": {**apply_stats.as_dict(), "applies_per_repeat": applies},
        "applies_per_second": applies / apply_stats.best,
        "nnz": int(operator.sparse_part.nnz),
        "n_dangling": operator.n_dangling,
    }


@scenario(
    "stream",
    "Event-log replay (micro-batched warm-start ingest + "
    "checkpoint/resume) vs cold batch compute",
)
def _bench_stream(config: BenchConfig) -> dict[str, Any]:
    import tempfile

    from repro.stream import EventLog, StreamIngestor, batch_compute

    network = generate_dataset("hep-th", size=config.size, seed=config.seed)
    log = EventLog.from_network(network)
    methods = ("AR", "CC") if config.smoke else ("AR", "PR", "CC")
    batch_size = 32 if config.smoke else 64
    # AttRank fits its decay rate from citation ages; the bootstrap
    # must cover enough of the stream for that fit to be defined.
    bootstrap = min(512, len(log))

    def make_ingestor() -> StreamIngestor:
        return StreamIngestor(
            log,
            methods,
            batch_size=batch_size,
            bootstrap_size=bootstrap,
            shards=config.shards,
        )

    def replay_full() -> StreamIngestor:
        ingestor = make_ingestor()
        ingestor.replay()
        ingestor.finalize()
        return ingestor

    replay_stats, replayed = time_callable(
        replay_full, warmup=config.warmup, repeats=config.repeats
    )
    batch_stats, cold = time_callable(
        lambda: batch_compute(log, methods),
        warmup=config.warmup,
        repeats=config.repeats,
    )

    # The checkpoint/resume leg (untimed): interrupt mid-replay, resume
    # from the persisted state, and require the same final scores.
    interrupted = make_ingestor()
    first = interrupted.replay(max_batches=max(1, replayed.batches_applied // 2))
    with tempfile.TemporaryDirectory() as scratch:
        interrupted.checkpoint(scratch)
        resumed = StreamIngestor.resume(scratch, log)
    resumed.replay()
    resumed.finalize()

    identical = all(
        np.array_equal(replayed.index.scores(label), cold.scores(label))
        and np.array_equal(resumed.index.scores(label), cold.scores(label))
        for label in methods
    )
    return {
        "dataset": _dataset_info(network, "hep-th", config.size),
        "methods": list(methods),
        "n_events": len(log),
        "batch_size": batch_size,
        "bootstrap_size": bootstrap,
        "shards": config.shards,
        "batches": replayed.batches_applied,
        "checkpoint_resume": {
            "interrupted_after_batches": first.n_batches,
            "resumed_batches": resumed.batches_applied - first.n_batches,
        },
        "replay": {
            **replay_stats.as_dict(),
            "events_per_second": len(log) / replay_stats.best,
        },
        "batch": batch_stats.as_dict(),
        "replay_overhead_vs_batch": replay_stats.best / batch_stats.best,
        "identical_rankings": identical,
    }


@scenario(
    "gateway",
    "HTTP gateway under concurrent verified load with live updates",
)
def _bench_gateway(config: BenchConfig) -> dict[str, Any]:
    from repro.gateway import GatewayConfig
    from repro.gateway.loadgen import run_load_over_log
    from repro.stream import EventLog

    network = generate_dataset("hep-th", size=config.size, seed=config.seed)
    log = EventLog.from_network(network)
    methods = ("AR", "CC") if config.smoke else ("AR", "PR", "CC")
    clients = 4 if config.smoke else 6
    requests_per_client = 25 if config.smoke else 60
    batch_size = 128 if config.smoke else 64

    # One verified run per repeat; the kept report is the fastest run
    # (latency quantiles come from its client-observed histogram, and
    # the identity verdict must hold on every repeat).
    reports = []
    for repeat in range(max(1, config.repeats)):
        reports.append(
            run_load_over_log(
                log,
                methods,
                clients=clients,
                requests_per_client=requests_per_client,
                seed=config.seed + repeat,
                batch_size=batch_size,
                bootstrap_events=len(log) // 2,
                shards=config.shards,
                config=GatewayConfig(port=0),
            )
        )
    best = max(reports, key=lambda r: r["requests_per_second"])
    identical = all(r["identical_rankings"] for r in reports)
    return {
        "dataset": _dataset_info(network, "hep-th", config.size),
        "methods": list(methods),
        "clients": clients,
        "requests_per_client": requests_per_client,
        "n_requests": best["requests"],
        "shards": config.shards,
        "stream": {
            "n_events": len(log),
            "bootstrap_events": len(log) // 2,
            "batch_size": batch_size,
            "updates_applied": best["updates_applied"],
            "versions_observed": best["versions_observed"],
        },
        "requests_per_second": best["requests_per_second"],
        "latency": best["latency"],
        "coalescing": best["coalescing"],
        "status_counts": best["status_counts"],
        "errors_5xx": max(r["errors_5xx"] for r in reports),
        "result_cache": best["result_cache"],
        "verified_responses": best["verified_responses"],
        "identical_rankings": identical,
    }


@scenario(
    "gateway_mp",
    "Pre-fork SO_REUSEPORT worker fleet vs one worker on one shared store",
)
def _bench_gateway_mp(config: BenchConfig) -> dict[str, Any]:
    import os

    from repro.gateway import GatewayConfig
    from repro.gateway.loadgen import run_load_multiworker
    from repro.stream import EventLog

    network = generate_dataset("hep-th", size=config.size, seed=config.seed)
    log = EventLog.from_network(network)
    methods = ("AR", "CC") if config.smoke else ("AR", "PR", "CC")
    requests_per_client = 6
    batch_size = 128 if config.smoke else 64
    # The saturation curve: each worker count is driven at every client
    # concurrency and keeps its peak — comparing fleets at one fixed
    # concurrency would understate the fleet (a single worker saturates
    # long before 1024 clients do).
    worker_counts = (1, 2) if config.smoke else (1, 2, 4)
    client_curve = (8, 32) if config.smoke else (64, 256, 1024)

    legs: dict[str, list[dict[str, Any]]] = {}
    for workers in worker_counts:
        legs[str(workers)] = []
        for clients in client_curve:
            report = run_load_multiworker(
                log,
                methods,
                workers=workers,
                clients=clients,
                requests_per_client=requests_per_client,
                seed=config.seed,
                batch_size=batch_size,
                bootstrap_events=len(log) // 2,
                shards=config.shards,
                config=GatewayConfig(port=0),
            )
            legs[str(workers)].append(
                {
                    "clients": clients,
                    "requests": report["requests"],
                    "requests_per_second": report["requests_per_second"],
                    "latency": report["latency"],
                    "status_counts": report["status_counts"],
                    "errors_5xx": report["errors_5xx"],
                    "shed_429": report["shed_429"],
                    "shed_503": report["shed_503"],
                    "worker_restarts": report["worker_restarts"],
                    "updates_applied": report["updates_applied"],
                    "verified_responses": report["verified_responses"],
                    "identical_rankings": report["identical_rankings"],
                }
            )

    peak_rps = {
        key: max(leg["requests_per_second"] for leg in runs)
        for key, runs in legs.items()
    }
    lo, hi = str(min(worker_counts)), str(max(worker_counts))
    all_legs = [leg for runs in legs.values() for leg in runs]
    cpu_count = os.cpu_count() or 1
    payload: dict[str, Any] = {
        "dataset": _dataset_info(network, "hep-th", config.size),
        "methods": list(methods),
        "requests_per_client": requests_per_client,
        "shards": config.shards,
        "worker_counts": list(worker_counts),
        "client_curve": list(client_curve),
        "n_events": len(log),
        "bootstrap_events": len(log) // 2,
        "legs": legs,
        "peak_requests_per_second": peak_rps,
        "workers_compared": [int(lo), int(hi)],
        "speedup_vs_single": peak_rps[hi] / peak_rps[lo],
        "cpu_count": cpu_count,
        "errors_5xx": max(leg["errors_5xx"] for leg in all_legs),
        "identical_rankings": all(
            leg["identical_rankings"] for leg in all_legs
        ),
    }
    if cpu_count < max(worker_counts):
        # Honesty over optics: a fleet cannot scale past the machine.
        # On a single-core host this scenario measures multi-process
        # isolation overhead; the >=2x target is meaningful only where
        # cpu_count >= the largest worker count (the CI runners).
        payload["note"] = (
            f"machine has {cpu_count} CPU core(s) for a "
            f"{max(worker_counts)}-worker fleet; speedup is bounded "
            "by cores, not by the architecture"
        )
    return payload


@scenario(
    "obs_overhead",
    "Gateway loadgen throughput with observability on vs off",
    default_repeats=9,
)
def _bench_obs_overhead(config: BenchConfig) -> dict[str, Any]:
    import os

    from repro.gateway import GatewayConfig
    from repro.gateway.loadgen import run_load_static
    from repro.obs import (
        configure_logging,
        disable_tracing,
        enable_tracing,
        reset_logging,
    )
    from repro.serve import RankingService, ScoreIndex

    network = generate_dataset("hep-th", size=config.size, seed=config.seed)
    methods = ("AR", "CC") if config.smoke else ("AR", "PR", "CC")
    index = ScoreIndex(network)
    for label in methods:
        index.add_method(label)
    clients = 4 if config.smoke else 6
    # Long legs on purpose: a leg must outlast scheduler noise bursts
    # (hundreds of ms on shared machines) or best-of-N picks whichever
    # side dodged them.
    requests_per_client = 25 if config.smoke else 200
    # Two enabled postures (docs/OBSERVABILITY.md):
    #   "on"      — production: INFO event logs, every request counted
    #               by the metrics registry, traces head-sampled 1-in-20
    #               (how OTel-style stacks deploy).  Held to the <5%
    #               overhead target.
    #   "profile" — the "on" posture plus the sampling profiler at its
    #               default rate: what --profile costs on top of
    #               production observability.  Held to the same <5%
    #               target (a sampler that perturbs what it measures
    #               is useless).
    #   "verbose" — debugging: DEBUG per-request access lines plus a
    #               trace for *every* request.  Reported for
    #               transparency, no target — one extra stdlib log
    #               line per ~400us request is inherently >5%.
    trace_sample = 0.05
    postures = {
        "on": ("INFO", trace_sample, False),
        "profile": ("INFO", trace_sample, True),
        "verbose": ("DEBUG", 1.0, False),
    }

    def run_leg(posture: str, run_seed: int) -> dict[str, Any]:
        sink = None
        profiled = False
        if posture in postures:
            # Logging to /dev/null: the formatting/filter cost is
            # paid, the terminal is not the thing being measured.
            level, sample, profiled = postures[posture]
            sink = open(os.devnull, "w")
            configure_logging(level, json=True, stream=sink)
            enable_tracing(capacity=256, sample=sample)
        else:
            reset_logging()
            disable_tracing()
        try:
            # cache_size=1 defeats the LRU so every request pays the
            # real query path — otherwise the loadgen's repeating mix
            # turns requests into cache hits and the fixed per-request
            # observability cost is measured against an empty workload.
            return run_load_static(
                RankingService(index, cache_size=1),
                methods,
                clients=clients,
                requests_per_client=requests_per_client,
                seed=run_seed,
                config=GatewayConfig(port=0, profile=profiled),
            )
        finally:
            if sink is not None:
                reset_logging()
                disable_tracing()
                sink.close()

    # Legs rotate within each repeat — and the rotation shifts between
    # repeats — so drift (thermal, page cache, a noisy neighbour) hits
    # every side equally; each side keeps its best run.
    run_leg("off", config.seed)  # warmup, discarded
    order = ("off", "on", "profile", "verbose")
    reports: dict[str, list[dict[str, Any]]] = {key: [] for key in order}
    for repeat in range(max(1, config.repeats)):
        for step in range(len(order)):
            posture = order[(repeat + step) % len(order)]
            reports[posture].append(run_leg(posture, config.seed + repeat))

    def side(posture: str) -> dict[str, Any]:
        # The median leg, not the best: scheduler noise on a shared
        # machine is one-sided (bursts only slow legs down), and the
        # rotation gives every posture the same distribution of time
        # slots, so the side medians are comparable while the
        # occasional burst-hit leg drops out of both.
        legs = sorted(
            reports[posture], key=lambda r: r["requests_per_second"]
        )
        report = legs[len(legs) // 2]
        return {
            "requests_per_second": report["requests_per_second"],
            "latency": report["latency"],
            "leg_rps": [
                round(r["requests_per_second"], 1)
                for r in reports[posture]
            ],
        }

    side_off, side_on = side("off"), side("on")
    side_profile = side("profile")
    side_verbose = side("verbose")
    rps_off = side_off["requests_per_second"]

    def overhead(posture_side: dict[str, Any]) -> float:
        return (
            (rps_off - posture_side["requests_per_second"])
            / rps_off
            * 100.0
        )

    all_reports = [r for legs in reports.values() for r in legs]
    return {
        "dataset": _dataset_info(network, "hep-th", config.size),
        "methods": list(methods),
        "clients": clients,
        "requests_per_client": requests_per_client,
        "trace_sample": trace_sample,
        "obs_on": side_on,
        "obs_off": side_off,
        "obs_profile": side_profile,
        "obs_verbose": side_verbose,
        "overhead_pct": overhead(side_on),
        "target_overhead_pct": 5.0,
        "overhead_pct_profile": overhead(side_profile),
        "overhead_pct_verbose": overhead(side_verbose),
        "errors_5xx": max(r["errors_5xx"] for r in all_reports),
        "identical_rankings": all(
            r["identical_rankings"] for r in all_reports
        ),
    }


@scenario(
    "serve_batch",
    "Batched sharded query engine vs one-at-a-time unsharded service",
    default_repeats=3,
    default_warmup=1,
)
def _bench_serve_batch(config: BenchConfig) -> dict[str, Any]:
    from repro.serve import (
        CompareQuery,
        PaperQuery,
        QueryEngine,
        RankingService,
        ScoreIndex,
        ShardedScoreIndex,
        TopKQuery,
    )

    network = generate_dataset("hep-th", size=config.size, seed=config.seed)
    methods = ("PR", "CC") if config.smoke else ("AR", "PR", "CC")
    # Solving the methods is setup, not the measured read path.
    index = ScoreIndex(network)
    for label in methods:
        index.add_method(label)

    # A deterministic mixed batch: paginated pages over a handful of
    # year spans (front-page traffic), one comparison, paper lookups.
    times = network.publication_times
    lo, hi = float(times.min()), float(times.max())
    third = (hi - lo) / 3.0
    spans = (None, (lo, lo + 2.0 * third), (lo + third, hi))
    pages = 4 if config.smoke else 12
    queries: list[Any] = [
        TopKQuery(method=m, k=10, offset=10 * page, year_range=span)
        for m in methods
        for span in spans
        for page in range(pages)
    ]
    queries.append(CompareQuery(methods=methods, k=25))
    ids = network.paper_ids
    step = max(1, network.n_papers // 10)
    queries.extend(
        PaperQuery(paper_id=ids[i])
        for i in range(0, network.n_papers, step)
    )

    def run_serial() -> list[Any]:
        # Fresh unsharded service per run: every query pays its own
        # round trip, the historical serving path.
        service = RankingService(index)
        out: list[Any] = []
        for query in queries:
            if isinstance(query, TopKQuery):
                out.append(
                    service.top_k(
                        query.method,
                        k=query.k,
                        offset=query.offset,
                        year_range=query.year_range,
                    )
                )
            elif isinstance(query, CompareQuery):
                out.append(
                    service.compare(
                        query.methods, k=query.k, offset=query.offset,
                        year_range=query.year_range,
                    )
                )
            else:
                out.append(service.paper(query.paper_id))
        return out

    def run_batched() -> list[Any]:
        # Fresh store per run so partitioning + per-shard sorts are
        # measured, exactly like the serial service's lazy sorts are.
        store = ShardedScoreIndex.from_index(
            index, n_shards=config.shards
        )
        return list(QueryEngine(store).execute(queries))

    serial_stats, serial_results = time_callable(
        run_serial, warmup=config.warmup, repeats=config.repeats
    )
    batched_stats, batched_results = time_callable(
        run_batched, warmup=config.warmup, repeats=config.repeats
    )
    n_queries = len(queries)
    return {
        "dataset": _dataset_info(network, "hep-th", config.size),
        "methods": list(methods),
        "n_queries": n_queries,
        "shards": config.shards,
        "serial": {
            **serial_stats.as_dict(),
            "queries_per_second": n_queries / serial_stats.best,
        },
        "batched": {
            **batched_stats.as_dict(),
            "shards": config.shards,
            "queries_per_second": n_queries / batched_stats.best,
        },
        "speedup_vs_serial": serial_stats.best / batched_stats.best,
        "identical_rankings": serial_results == batched_results,
    }


@scenario(
    "solver_fused",
    "Fused multi-method solver vs per-method scalar solves",
    default_repeats=7,
)
def _bench_solver_fused(config: BenchConfig) -> dict[str, Any]:
    """Fused-stack vs serial solves at several stack shapes.

    Each leg solves the same method set twice — once per method through
    the scalar ``scores()`` path, once stacked through
    :func:`repro.core.fused.solve_methods` — with the two timings
    interleaved round by round (robust against background-load drift;
    the reported wall time is the best round).  Score vectors from the
    two runs must be bit-identical; ``identical_rankings`` is the AND
    across every leg.

    Legs: tuning grids of 16 and 64 settings on one operator (where
    stacking pays — the headline ``speedup_vs_serial`` is the 64-wide
    grid), a heterogeneous 5-method serving panel (narrow operator
    groups, which ``FUSE_MIN_COLUMNS`` routes to the scalar path — the
    leg documents that the dispatch costs nothing).

    Smoke mode drops the 64-wide grids and runs 3 rounds.
    """
    from repro.baselines import make_method
    from repro.core.fused import solve_methods
    from repro.eval.grids import attrank_grid

    network = generate_dataset("hep-th", size=config.size, seed=config.seed)
    rounds = max(3 if config.smoke else config.repeats, 1)

    def ar_settings(m: int) -> list[dict[str, Any]]:
        # alpha=0 settings solve in closed form on both paths; keep the
        # leg about the iterative stack.
        iterative = (
            params
            for params in attrank_grid(windows=(2, 3))
            if params["alpha"] > 0
        )
        return [params for _, params in zip(range(m), iterative)]

    def pr_settings(m: int) -> list[dict[str, Any]]:
        return [
            {"alpha": float(a)} for a in np.linspace(0.05, 0.95, m)
        ]

    panel: list[tuple[str, dict[str, Any]]] = [
        ("AR", {"alpha": 0.2, "beta": 0.5, "gamma": 0.3}),
        ("PR", {"alpha": 0.5}),
        ("CR", {"tau_dir": 2.0}),
        ("FR", {"alpha": 0.4, "beta": 0.1, "rho": -0.3}),
        ("ECM", {"alpha": 0.3, "gamma": 0.4}),
    ]

    def run_leg(specs: list[tuple[str, dict[str, Any]]]) -> dict[str, Any]:
        def serial() -> list[np.ndarray]:
            return [
                np.asarray(make_method(label, **params).scores(network))
                for label, params in specs
            ]

        def fused() -> list[np.ndarray]:
            solved = solve_methods(
                network,
                [make_method(label, **params) for label, params in specs],
            )
            return [np.asarray(scores) for scores, _info in solved]

        serial_walls: list[float] = []
        fused_walls: list[float] = []
        serial_scores = fused_scores = None
        for _ in range(rounds):
            started = time.perf_counter()
            serial_scores = serial()
            serial_walls.append(time.perf_counter() - started)
            started = time.perf_counter()
            fused_scores = fused()
            fused_walls.append(time.perf_counter() - started)
        identical = all(
            np.array_equal(a, b)
            for a, b in zip(serial_scores, fused_scores)
        )
        return {
            "n_methods": len(specs),
            "serial_best_seconds": min(serial_walls),
            "fused_best_seconds": min(fused_walls),
            "speedup_vs_serial": min(serial_walls) / min(fused_walls),
            "identical_rankings": identical,
        }

    legs: dict[str, dict[str, Any]] = {}
    legs["grid_ar_m16"] = run_leg([("AR", p) for p in ar_settings(16)])
    if not config.smoke:
        legs["grid_ar_m64"] = run_leg([("AR", p) for p in ar_settings(64)])
        legs["grid_pr_m64"] = run_leg([("PR", p) for p in pr_settings(64)])
    legs["panel5"] = run_leg(panel)

    grid_key = "grid_ar_m16" if config.smoke else "grid_ar_m64"
    return {
        "dataset": _dataset_info(network, "hep-th", config.size),
        "rounds": rounds,
        "legs": legs,
        "speedup_vs_serial": legs[grid_key]["speedup_vs_serial"],
        "identical_rankings": all(
            leg["identical_rankings"] for leg in legs.values()
        ),
    }
