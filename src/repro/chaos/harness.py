"""Scenario drivers: run the full stack under a fault plan.

Three scenarios cover the catalog:

``checkpoint``
    Replay a synthetic citation stream through
    :class:`~repro.stream.StreamIngestor`, checkpointing after every
    micro-batch, with the planned fault armed.  Every
    :class:`~repro.chaos.InjectedCrash` simulates a process kill: the
    in-memory ingestor is discarded and a "new process" resumes from
    the on-disk checkpoint (or from scratch when none committed yet).
    Invariants: the on-disk checkpoint is *never torn* (absent or
    fully loadable, at every crash), the finalized scores are
    **bit-identical** to an unfaulted :func:`~repro.stream.ingest.batch_compute`
    over the same log, and a post-run commit leaves no orphaned
    ``*.tmp`` debris.  An unconditional mid-replay *restart drill*
    (drop the ingestor, probe and resume the checkpoint) keeps the
    load-path fault points reachable in every run, crash or not.

``gateway``
    Serve the stream's bootstrap through a real
    :class:`~repro.gateway.GatewayServer` over real sockets while a
    live updater applies the rest, with reconnect-tolerant clients
    issuing mixed traffic under the armed plan, then drain.
    Invariants: no 5xx is ever emitted, every completed response
    parses as a complete document (a torn body must surface as a
    short read, never as a parseable answer), every 200 response is
    bit-identical to a direct service call at its reported version
    (deterministic-replica verification, as in
    :mod:`repro.gateway.loadgen`), an injected updater crash is
    contained by the drain, and a drained port refuses new
    connections.

``worker``
    Serve the same workload through a pre-forked
    :class:`~repro.gateway.MultiWorkerGateway` fleet (two
    ``SO_REUSEPORT`` workers over one shared-memory store) with the
    plan armed *before* the fork, so the ``gateway.worker`` crash
    fires inside the children and kills real processes mid-serve.
    Invariants: the supervisor restarts every crashed worker, every
    planned request is eventually answered (clients reconnect through
    the zero-listener window), every response parses cleanly and is
    bit-identical at its reported version, and after the drain no
    ``repro_shm_*`` segment remains in ``/dev/shm``.

The scenarios are deterministic given ``(plan, seed)``; the sweep
pins the fault point and lets the seed choose fault kind, firing
invocation, and workload, so ``repro chaos sweep --seeds 5`` exercises
every registered point under five independent schedules.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Sequence

import numpy as np

from repro.chaos.faults import FaultInjector, FaultPlan, InjectedCrash
from repro.chaos.points import FAULT_POINTS, FaultPoint, fault_point
from repro.errors import ChaosError, DataFormatError, ReproError
from repro.gateway.loadgen import (
    _client_plans,
    _read_response,
    _ReplicaAtVersion,
    _target_of,
    _verify_records,
)
from repro.gateway.server import GatewayConfig, GatewayServer
from repro.serve.score_index import ScoreIndex
from repro.stream.checkpoint import CHECKPOINT_FILE, Checkpoint
from repro.stream.events import EventLog
from repro.stream.ingest import StreamIngestor, batch_compute
from repro.synth.profiles import generate_dataset

__all__ = [
    "ScenarioReport",
    "run_plan",
    "run_checkpoint_scenario",
    "run_gateway_scenario",
    "run_worker_scenario",
    "sweep",
]

#: Report schema version of the sweep JSON document.
REPORT_FORMAT = "repro-chaos-report"

#: The chaos workload: small enough that a full sweep stays in CI
#: budget, large enough that replays cut several micro-batches and
#: the gateway's updater publishes several versions.
CHAOS_METHODS = ("AR", "CC")
CHAOS_PAPERS = 90
CHAOS_BATCH = 16

#: Restart budget — a plan fires once, so anything past a handful of
#: restarts is a harness bug, not a legitimate schedule.
_MAX_RESTARTS = 25

#: How long the worker scenario waits, after its load, for the fleet to
#: finish its restarts: a planned kill lands within 8 heartbeats (24 ms)
#: and a replacement forks and reports ready in tens of milliseconds.
_SETTLE_SECONDS = 5.0


@lru_cache(maxsize=16)
def _seed_fixtures(seed: int) -> tuple[EventLog, ScoreIndex]:
    """The workload of one seed: its event log and unfaulted reference.

    Cached so a sweep prices the reference solve once per seed, not
    once per (seed, point) run.  Both objects are treated as
    read-only by every scenario.
    """
    network = generate_dataset(
        "hep-th", n_papers=CHAOS_PAPERS, seed=10_000 + seed
    )
    log = EventLog.from_network(network)
    return log, batch_compute(log, CHAOS_METHODS)


@dataclass
class ScenarioReport:
    """The outcome of one harness run under one plan.

    ``invariants`` maps invariant name to pass/fail; a run is
    :attr:`ok` when every invariant held.  ``details`` carries the
    evidence (crash counts, resume sources, verification tallies) a
    failing CI artifact needs to be diagnosed without a rerun.
    """

    scenario: str
    point: str
    kind: str
    invocation: int
    seed: int | None
    fired: bool
    invariants: dict[str, bool] = field(default_factory=dict)
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.fired and all(self.invariants.values())

    def to_payload(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "point": self.point,
            "kind": self.kind,
            "invocation": self.invocation,
            "seed": self.seed,
            "fired": self.fired,
            "ok": self.ok,
            "invariants": dict(self.invariants),
            "details": dict(self.details),
        }


def _single_spec(plan: FaultPlan):
    if len(plan.specs) != 1:
        raise ChaosError(
            "scenario runs take single-fault plans (one failure per "
            f"run keeps invariants attributable); got {len(plan.specs)}"
        )
    return plan.specs[0]


# ----------------------------------------------------------------------
# The checkpoint scenario
# ----------------------------------------------------------------------
def run_checkpoint_scenario(
    plan: FaultPlan, *, seed: int = 0, workdir: str | None = None
) -> ScenarioReport:
    """Replay + crash + resume; see the module docstring."""
    spec = _single_spec(plan)
    log, reference = _seed_fixtures(seed)
    owns_workdir = workdir is None
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="repro-chaos-")
    ckpt_dir = os.path.join(workdir, f"ckpt-{spec.point}-s{seed}")
    shutil.rmtree(ckpt_dir, ignore_errors=True)

    report = ScenarioReport(
        scenario="checkpoint",
        point=spec.point,
        kind=spec.kind,
        invocation=spec.invocation,
        seed=plan.seed if plan.seed is not None else seed,
        fired=False,
    )
    crashes = 0
    resumed: list[str] = []
    checkpoint_torn = False

    def fresh() -> StreamIngestor:
        return StreamIngestor(log, CHAOS_METHODS, batch_size=CHAOS_BATCH)

    def probe() -> None:
        """The torn-checkpoint check: absent is fine, torn is not."""
        if not os.path.exists(os.path.join(ckpt_dir, CHECKPOINT_FILE)):
            return
        state = Checkpoint.load(ckpt_dir)
        state.verify_against(log)
        state.load_index(ckpt_dir)

    def restart() -> StreamIngestor:
        """A simulated process restart: disk is all that survives."""
        try:
            ingestor = StreamIngestor.resume(ckpt_dir, log)
            resumed.append("checkpoint")
            return ingestor
        except DataFormatError:
            # No committed checkpoint yet — boot from scratch.
            resumed.append("scratch")
            return fresh()

    try:
        with FaultInjector(plan) as injector:
            ingestor = fresh()
            drilled = False
            done = False
            while not done:
                try:
                    while not ingestor.exhausted:
                        ingestor.step()
                        ingestor.checkpoint(ckpt_dir)
                        if not drilled and ingestor.batches_applied >= 2:
                            # Restart drill: exercises the manifest and
                            # index *load* path in every run, so the
                            # load-side fault points are reachable even
                            # on schedules that never crash elsewhere.
                            drilled = True
                            probe()
                            ingestor = restart()
                    ingestor.finalize()
                    # Post-run commit: this is the "next commit attempt"
                    # that must sweep any tmp debris a crash left.
                    ingestor.checkpoint(ckpt_dir)
                    done = True
                except InjectedCrash:
                    crashes += 1
                    if crashes > _MAX_RESTARTS:
                        raise ChaosError(
                            "checkpoint scenario exceeded its restart "
                            "budget — the plan fired more than once?"
                        ) from None
                    try:
                        probe()
                    except ReproError as error:
                        checkpoint_torn = True
                        report.details["torn_checkpoint"] = str(error)
                    ingestor = restart()
            report.fired = len(injector.fired) == 1

        final = ingestor.index
        identical = all(
            np.array_equal(reference.scores(m), final.scores(m))
            for m in CHAOS_METHODS
        )
        leftovers = sorted(
            name for name in os.listdir(ckpt_dir) if ".tmp" in name
        )
        report.invariants = {
            "checkpoint_never_torn": not checkpoint_torn,
            "bit_identical_scores": identical,
            "no_orphaned_tmp_files": not leftovers,
        }
        report.details.update(
            {
                "crashes": crashes,
                "resumed": resumed,
                "batches_applied": ingestor.batches_applied,
                "tmp_leftovers": leftovers,
            }
        )
    finally:
        if owns_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    return report


# ----------------------------------------------------------------------
# The gateway scenario
# ----------------------------------------------------------------------
async def _chaos_client(
    host: str,
    port: int,
    requests: Sequence[dict[str, Any]],
    records: list[dict[str, Any]],
    drops: list[str],
    parse_failures: list[str],
    *,
    attempts: int = 6,
    retry_delay: float = 0.0,
) -> None:
    """A reconnect-tolerant keep-alive client.

    A real client retries through connection loss; what it must never
    do is accept a torn body as an answer.  Short reads and resets
    reconnect and retry the same request; a body that reads complete
    but fails to parse is recorded as a violation, not retried.

    The worker scenario passes a nonzero ``retry_delay`` (and a larger
    ``attempts`` budget): when every worker of a fleet crashes at once
    there is a window with *zero* listeners, and an instant-retry
    client would burn its whole budget inside it.
    """
    reader = writer = None
    try:
        for request in requests:
            for _attempt in range(attempts):
                try:
                    if writer is None:
                        reader, writer = await asyncio.open_connection(
                            host, port
                        )
                    target = _target_of(request)
                    writer.write(
                        (
                            f"GET {target} HTTP/1.1\r\n"
                            f"Host: {host}\r\n"
                            "Connection: keep-alive\r\n\r\n"
                        ).encode("latin-1")
                    )
                    await writer.drain()
                    assert reader is not None
                    status, _headers, document = await _read_response(
                        reader
                    )
                except (
                    ConnectionResetError,
                    BrokenPipeError,
                    ConnectionRefusedError,
                    asyncio.IncompleteReadError,
                ) as error:
                    drops.append(type(error).__name__)
                    if writer is not None:
                        writer.close()
                    reader = writer = None
                    if retry_delay:
                        await asyncio.sleep(retry_delay)
                    continue
                except ValueError as error:
                    # Complete by content-length but not parseable:
                    # the torn-response invariant just failed.
                    parse_failures.append(str(error))
                    if writer is not None:
                        writer.close()
                    reader = writer = None
                    break
                records.append(
                    {
                        "request": dict(request),
                        "status": status,
                        "version": document.get("version"),
                        "result": document.get("result"),
                        "error": document.get("error"),
                    }
                )
                break
    finally:
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


def run_gateway_scenario(
    plan: FaultPlan, *, seed: int = 0
) -> ScenarioReport:
    """Load + live updates + drain under a plan; see the module docstring."""
    spec = _single_spec(plan)
    log, _ = _seed_fixtures(seed)
    bootstrap = max(1, len(log) // 2)

    def make_ingestor() -> StreamIngestor:
        return StreamIngestor(
            log,
            CHAOS_METHODS,
            batch_size=24,
            bootstrap_size=bootstrap,
        )

    ingestor = make_ingestor()
    ingestor.step()  # bootstrap: version 0
    service = ingestor.service
    network = service.index.network
    times = network.publication_times
    year_span = (float(times.min()), float(times.max()))
    # Bootstrap-era papers only: present at every observable version.
    sample = list(network.paper_ids[:: max(1, network.n_papers // 32)])
    client_plans = _client_plans(
        CHAOS_METHODS,
        sample,
        year_span,
        clients=3,
        requests_per_client=12,
        seed=seed,
    )
    server = GatewayServer(
        service,
        config=GatewayConfig(
            port=0, update_interval=0.0, drain_seconds=10.0
        ),
        ingestor=ingestor,
    )

    report = ScenarioReport(
        scenario="gateway",
        point=spec.point,
        kind=spec.kind,
        invocation=spec.invocation,
        seed=plan.seed if plan.seed is not None else seed,
        fired=False,
    )
    records: list[dict[str, Any]] = []
    drops: list[str] = []
    parse_failures: list[str] = []

    async def drive() -> bool:
        await server.start()
        assert server.port is not None
        host = server.config.host
        await asyncio.gather(
            *(
                _chaos_client(
                    host, server.port, plan_, records, drops,
                    parse_failures,
                )
                for plan_ in client_plans
            )
        )
        await server.stop()
        # A drained gateway must refuse, not hang or half-answer.
        try:
            _, probe_writer = await asyncio.open_connection(
                host, server.port
            )
        except (ConnectionRefusedError, OSError):
            return True
        probe_writer.close()
        return False

    with FaultInjector(plan) as injector:
        refused_after_drain = asyncio.run(drive())
        report.fired = len(injector.fired) == 1

    document = server.metrics_document()
    server_5xx = document["responses"]["errors_5xx"]
    client_5xx = sum(1 for r in records if r["status"] >= 500)
    verified, mismatches = _verify_records(
        records, _ReplicaAtVersion(make_ingestor())
    )
    report.invariants = {
        "no_5xx_emitted": server_5xx == 0 and client_5xx == 0,
        "responses_parse_cleanly": not parse_failures,
        "responses_bit_identical": mismatches == 0 and verified > 0,
        "all_requests_answered": len(records)
        == sum(len(p) for p in client_plans),
        "drained_port_refuses": refused_after_drain,
    }
    if spec.point == "gateway.update.step":
        # The injected kill lands in the updater's executor thread; the
        # drain must contain it rather than re-raise it into stop().
        report.invariants["updater_crash_contained"] = isinstance(
            server.updater_error, InjectedCrash
        )
    report.details.update(
        {
            "responses": len(records),
            "drops": drops,
            "status_counts": document["responses"]["by_status"],
            "verified_responses": verified,
            "mismatched_responses": mismatches,
            "updates_applied": document["stream_updates"]["applied"],
            "updater_error": (
                type(server.updater_error).__name__
                if server.updater_error is not None
                else None
            ),
        }
    )
    return report


# ----------------------------------------------------------------------
# The worker-fleet scenario
# ----------------------------------------------------------------------
def run_worker_scenario(
    plan: FaultPlan, *, seed: int = 0
) -> ScenarioReport:
    """Kill pre-forked gateway workers under load; see the docstring.

    The armed plan forks into every worker (the fleet uses the fork
    start method), so the ``gateway.worker`` crash fires inside the
    children — the parent's injector never sees it, and "the fault
    fired" is read back as *the supervisor counted restarts*.  Both
    initial workers inherit the same schedule and die near-together;
    replacements are forked disarmed, so the fault fires exactly once
    per original worker instead of looping forever.
    """
    spec = _single_spec(plan)
    from repro.gateway.workers import MultiWorkerGateway
    from repro.serve.shm import iter_repro_segments

    log, _ = _seed_fixtures(seed)
    bootstrap = max(1, len(log) // 2)

    def make_ingestor() -> StreamIngestor:
        return StreamIngestor(
            log,
            CHAOS_METHODS,
            batch_size=24,
            bootstrap_size=bootstrap,
        )

    ingestor = make_ingestor()
    ingestor.step()  # bootstrap: version 0
    service = ingestor.service
    network = service.index.network
    times = network.publication_times
    year_span = (float(times.min()), float(times.max()))
    sample = list(network.paper_ids[:: max(1, network.n_papers // 32)])
    client_plans = _client_plans(
        CHAOS_METHODS,
        sample,
        year_span,
        clients=3,
        requests_per_client=12,
        seed=seed,
    )
    segments_before = list(iter_repro_segments())
    gateway = MultiWorkerGateway(
        service,
        workers=2,
        # Profiling on at a brisk rate: the worker-kill scenario is
        # also the proof that the fleet profile survives a restart
        # (the replacement's samples merge under the same keys).
        config=GatewayConfig(
            port=0,
            update_interval=0.0,
            drain_seconds=10.0,
            profile=True,
            profile_hz=199.0,
        ),
        ingestor=ingestor,
    )

    report = ScenarioReport(
        scenario="worker",
        point=spec.point,
        kind=spec.kind,
        invocation=spec.invocation,
        seed=plan.seed if plan.seed is not None else seed,
        fired=False,
    )
    records: list[dict[str, Any]] = []
    drops: list[str] = []
    parse_failures: list[str] = []

    with FaultInjector(plan):
        gateway.start()  # workers fork with the plan armed
        try:
            gateway.start_supervision_thread(interval=0.005)
            assert gateway.port is not None

            async def drive() -> None:
                await asyncio.gather(
                    *(
                        _chaos_client(
                            gateway.config.host, gateway.port, plan_,
                            records, drops, parse_failures,
                            attempts=60, retry_delay=0.05,
                        )
                        for plan_ in client_plans
                    )
                )

            asyncio.run(drive())
            # Before stop(): the fleet profile must aggregate cleanly
            # with replacement workers in the fleet.  The load can end
            # before every armed worker has died, been reaped and
            # replaced: each original worker dies once (its replacement
            # is disarmed), so aggregate once that many restarts have
            # happened and every slot's worker answers its control port.
            deadline = time.monotonic() + _SETTLE_SECONDS
            while True:
                fleet_profile = gateway.aggregate_profile()
                settled = gateway.restarts >= gateway.n_workers and all(
                    worker["scraped"] for worker in fleet_profile["workers"]
                )
                if settled or time.monotonic() >= deadline:
                    break
                time.sleep(0.01)
        finally:
            fleet = gateway.stop()
    report.fired = gateway.restarts >= 1

    segments_after = [
        name
        for name in iter_repro_segments()
        if name not in segments_before
    ]
    verified, mismatches = _verify_records(
        records, _ReplicaAtVersion(make_ingestor())
    )
    report.invariants = {
        "supervisor_restarted": gateway.restarts >= 1,
        "all_requests_answered": len(records)
        == sum(len(p) for p in client_plans),
        "responses_parse_cleanly": not parse_failures,
        "responses_bit_identical": mismatches == 0 and verified > 0,
        "no_shm_leak": not segments_after,
        "profiler_survives_restart": (
            fleet_profile["enabled"]
            and fleet_profile["profile"] is not None
            and fleet_profile["profile"]["samples_total"] > 0
            and all(
                w["scraped"] for w in fleet_profile["workers"]
            )
        ),
    }
    report.details.update(
        {
            "responses": len(records),
            "drops": drops,
            "worker_restarts": gateway.restarts,
            "verified_responses": verified,
            "mismatched_responses": mismatches,
            "updates_applied": gateway.updates_applied,
            "shm_leftovers": segments_after,
            "profile_samples": (
                fleet_profile["profile"]["samples_total"]
                if fleet_profile["profile"]
                else 0
            ),
            "profile_workers": fleet_profile["workers"],
            "fleet_5xx": (
                fleet["responses"]["errors_5xx"]
                if fleet is not None
                else None
            ),
        }
    )
    return report


# ----------------------------------------------------------------------
# Dispatch and the sweep
# ----------------------------------------------------------------------
def run_plan(
    plan: FaultPlan, *, seed: int = 0, workdir: str | None = None
) -> ScenarioReport:
    """Run the scenario that owns the plan's fault point."""
    spec = _single_spec(plan)
    declared = fault_point(spec.point)
    if declared.scenario == "checkpoint":
        return run_checkpoint_scenario(plan, seed=seed, workdir=workdir)
    if declared.scenario == "worker":
        return run_worker_scenario(plan, seed=seed)
    assert declared.scenario == "gateway"
    return run_gateway_scenario(plan, seed=seed)


def sweep(
    seeds: Sequence[int],
    *,
    points: Sequence[str] | None = None,
    workdir: str | None = None,
) -> dict[str, Any]:
    """Every fault point × every seed; the CI chaos gate.

    For each (point, seed) pair a :meth:`FaultPlan.seeded` draw picks
    the fault kind and firing invocation, so five seeds exercise five
    independent failure schedules per point.  Returns the JSON-ready
    invariant report; ``ok`` is the gate.
    """
    if not seeds:
        raise ChaosError("sweep needs at least one seed")
    catalog: Sequence[FaultPoint]
    if points is None:
        catalog = FAULT_POINTS
    else:
        catalog = tuple(fault_point(name) for name in points)
    runs: list[ScenarioReport] = []
    for seed in seeds:
        for declared in catalog:
            plan = FaultPlan.seeded(seed, point=declared.name)
            runs.append(run_plan(plan, seed=seed, workdir=workdir))
    failed = [r for r in runs if not r.ok]
    return {
        "format": REPORT_FORMAT,
        "report_version": 1,
        "seeds": [int(s) for s in seeds],
        "points": [p.name for p in catalog],
        "runs": [r.to_payload() for r in runs],
        "failed": [
            {"point": r.point, "seed": r.seed, "kind": r.kind}
            for r in failed
        ],
        "ok": not failed,
    }


def render_summary(document: dict[str, Any]) -> str:
    """A one-screen text summary of a sweep report."""
    lines = [
        f"chaos sweep: {len(document['runs'])} runs "
        f"({len(document['points'])} fault points x "
        f"{len(document['seeds'])} seeds)"
    ]
    by_point: dict[str, list[dict[str, Any]]] = {}
    for run in document["runs"]:
        by_point.setdefault(run["point"], []).append(run)
    for point, point_runs in by_point.items():
        bad = [r for r in point_runs if not r["ok"]]
        verdict = "ok" if not bad else f"FAILED ({len(bad)}/{len(point_runs)})"
        lines.append(f"  {point:<28} {verdict}")
    for entry in document["failed"]:
        lines.append(
            f"  reproduce: repro chaos run --point {entry['point']} "
            f"--seed {entry['seed']}"
        )
    lines.append(f"result: {'ok' if document['ok'] else 'FAILED'}")
    return "\n".join(lines)


def save_report(document: dict[str, Any], path: str) -> None:
    """Write a sweep report to ``path`` as indented JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
