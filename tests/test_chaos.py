"""Tests for the repro.chaos fault-injection plane.

Three tiers:

* Fast unit tests of the catalog, the trampoline, the injector, and
  plan determinism (plus the orphan-cleanup regression tests and the
  drain-under-load test, which use tiny toy-network workloads).
* ``chaos``-marked scenario tests: the crash-point sweep across every
  atomic-commit boundary and the updater-kill drain, each a full
  harness run.  Excluded from the default fast path; CI runs them in
  the dedicated chaos job next to ``repro chaos sweep``.
"""

from __future__ import annotations

import asyncio
import importlib
import inspect
import json
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import (
    FAULT_POINTS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedDisconnect,
    chaos_point,
    fault_point,
)
from repro.cli import main
from repro.errors import ChaosError
from repro.serve import ScoreIndex
from repro.stream import EventLog, StreamIngestor
from repro.synth import toy_network

#: The atomic-commit boundaries of the checkpoint protocol, in path
#: order: index temp write / fsync / rename, then manifest write /
#: rename / post-commit prune.
COMMIT_BOUNDARIES = (
    "index.save.write",
    "index.save.fsync",
    "index.save.replace",
    "checkpoint.index_written",
    "checkpoint.manifest_tmp",
    "checkpoint.commit",
)


# ----------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------
class TestCatalog:
    def test_names_are_unique(self):
        names = [point.name for point in FAULT_POINTS]
        assert len(names) == len(set(names))

    def test_every_point_has_a_scenario_and_kinds(self):
        for point in FAULT_POINTS:
            assert point.scenario in (
                "checkpoint", "gateway", "worker"
            ), point.name
            assert point.kinds, point.name
            assert point.max_invocation >= 0, point.name

    def test_unknown_point_is_a_typed_error(self):
        with pytest.raises(ChaosError, match="unknown fault point"):
            fault_point("no.such.point")

    @pytest.mark.parametrize(
        "point", FAULT_POINTS, ids=lambda p: p.name
    )
    def test_catalog_entry_is_threaded_into_its_module(self, point):
        """Every registered point exists as a real call site — the
        catalog and the code cannot drift apart silently."""
        module = importlib.import_module(point.module)
        source = inspect.getsource(module)
        assert f'chaos_point("{point.name}")' in source

    def test_commit_boundaries_are_registered(self):
        for name in COMMIT_BOUNDARIES:
            assert fault_point(name).scenario == "checkpoint"


# ----------------------------------------------------------------------
# Trampoline and injector
# ----------------------------------------------------------------------
class TestInjector:
    def test_disarmed_visit_is_a_noop(self):
        assert chaos_point("checkpoint.commit") is None

    def test_crash_fires_at_the_planned_invocation_only(self):
        plan = FaultPlan.single(
            "checkpoint.commit", kind="crash", invocation=2
        )
        with FaultInjector(plan) as injector:
            assert chaos_point("checkpoint.commit") is None
            assert chaos_point("checkpoint.commit") is None
            with pytest.raises(InjectedCrash) as caught:
                chaos_point("checkpoint.commit")
            assert chaos_point("checkpoint.commit") is None  # once only
        assert caught.value.point == "checkpoint.commit"
        assert caught.value.invocation == 2
        assert [
            (f.point, f.kind, f.invocation) for f in injector.fired
        ] == [("checkpoint.commit", "crash", 2)]
        assert injector.invocations["checkpoint.commit"] == 4

    def test_disarms_on_exit(self):
        plan = FaultPlan.single("checkpoint.commit", invocation=0)
        with FaultInjector(plan):
            pass
        assert chaos_point("checkpoint.commit") is None

    def test_nesting_is_refused(self):
        plan = FaultPlan.single("checkpoint.commit")
        with FaultInjector(plan):
            with pytest.raises(ChaosError, match="do not nest"):
                with FaultInjector(plan):
                    pass  # pragma: no cover - never reached

    def test_crash_is_not_an_exception(self):
        """The simulated kill must fly past ``except Exception``."""
        assert not issubclass(InjectedCrash, Exception)
        assert issubclass(InjectedDisconnect, ConnectionResetError)

    def test_disconnect_kind_raises_connection_reset(self):
        plan = FaultPlan.single(
            "gateway.request.read", kind="disconnect", invocation=0
        )
        with FaultInjector(plan):
            with pytest.raises(ConnectionResetError):
                chaos_point("gateway.request.read")

    def test_torn_kind_returns_the_spec_to_the_call_site(self):
        plan = FaultPlan.single(
            "gateway.response.write", kind="torn", invocation=1
        )
        with FaultInjector(plan):
            assert chaos_point("gateway.response.write") is None
            spec = chaos_point("gateway.response.write")
        assert isinstance(spec, FaultSpec)
        assert spec.kind == "torn"

    def test_delay_kind_sleeps_then_continues(self):
        plan = FaultPlan.single(
            "gateway.batch.execute",
            kind="delay",
            invocation=0,
            delay_seconds=0.05,
        )
        with FaultInjector(plan):
            started = time.monotonic()
            assert chaos_point("gateway.batch.execute") is None
            assert time.monotonic() - started >= 0.05


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_single_defaults_to_the_first_declared_kind(self):
        plan = FaultPlan.single("index.save.fsync")
        (spec,) = plan.specs
        assert spec.kind == "crash"

    def test_single_rejects_undeclared_kinds(self):
        with pytest.raises(ChaosError, match="does not support"):
            FaultPlan.single("index.save.fsync", kind="torn")

    def test_spec_rejects_negative_invocation(self):
        with pytest.raises(ChaosError, match="invocation"):
            FaultSpec(
                point="checkpoint.commit", kind="crash", invocation=-1
            )

    @given(st.integers(min_value=0, max_value=10_000))
    def test_seeded_plans_are_deterministic_and_bounded(self, seed):
        plan = FaultPlan.seeded(seed)
        assert plan == FaultPlan.seeded(seed)
        (spec,) = plan.specs
        declared = fault_point(spec.point)
        assert spec.kind in declared.kinds
        assert 0 <= spec.invocation <= declared.max_invocation
        assert FaultPlan.from_payload(plan.to_payload()) == plan

    @given(st.integers(min_value=0, max_value=10_000))
    def test_pinned_point_survives_the_seeded_draw(self, seed):
        plan = FaultPlan.seeded(seed, point="gateway.response.write")
        (spec,) = plan.specs
        assert spec.point == "gateway.response.write"

    def test_from_payload_rejects_foreign_documents(self):
        with pytest.raises(ChaosError, match="format marker"):
            FaultPlan.from_payload({"format": "something-else"})


# ----------------------------------------------------------------------
# Orphan cleanup (the satellite-1 regression fix)
# ----------------------------------------------------------------------
def _toy_ingestor(batches: int = 2) -> StreamIngestor:
    log = EventLog.from_network(toy_network())
    ingestor = StreamIngestor(
        log, ("CC",), batch_size=2, bootstrap_size=4
    )
    ingestor.replay(max_batches=batches)
    return ingestor


class TestOrphanCleanup:
    def test_index_save_sweeps_preexisting_orphans(self, tmp_path):
        path = str(tmp_path / "idx.snap")
        orphan = f"{path}.tmp-9999"
        open(orphan, "w").close()
        index = ScoreIndex(toy_network())
        index.add_method("CC")
        index.save(path)
        assert not os.path.exists(orphan)
        assert ScoreIndex.load(path).labels == ("CC",)

    def test_checkpoint_commit_sweeps_manifest_orphans(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        os.makedirs(directory)
        orphan = os.path.join(directory, "checkpoint.json.tmp-9999")
        open(orphan, "w").close()
        _toy_ingestor().checkpoint(directory)
        assert not os.path.exists(orphan)
        leftovers = [
            name
            for name in os.listdir(directory)
            if ".tmp" in name
        ]
        assert leftovers == []

    def test_crash_orphans_are_swept_by_the_next_save(self, tmp_path):
        """An injected kill between fsync and rename leaves the temp
        file a real kill would; the next save must clean it up."""
        path = str(tmp_path / "idx.snap")
        index = ScoreIndex(toy_network())
        index.add_method("CC")
        plan = FaultPlan.single(
            "index.save.fsync", kind="crash", invocation=0
        )
        with FaultInjector(plan):
            with pytest.raises(InjectedCrash):
                index.save(path)
        orphans = [
            name
            for name in os.listdir(tmp_path)
            if ".tmp-" in name
        ]
        assert orphans, "the crash should have left its temp file"
        assert not os.path.exists(path)
        index.save(path)  # disarmed: commits and sweeps
        assert [
            name
            for name in os.listdir(tmp_path)
            if ".tmp-" in name
        ] == []
        assert ScoreIndex.load(path).labels == ("CC",)


# ----------------------------------------------------------------------
# Drain under load: stop() begins while a client's request is admitted
# and unanswered, and its engine batch then runs under a delay fault.
# ----------------------------------------------------------------------
class TestDrainUnderLoad:
    def test_inflight_completes_new_connections_refused_no_5xx(self):
        from repro.gateway import GatewayConfig, GatewayServer
        from repro.serve import RankingService

        index = ScoreIndex(toy_network())
        index.add_method("CC")
        service = RankingService(index)
        plan = FaultPlan.single(
            "gateway.batch.execute",
            kind="delay",
            invocation=0,
            delay_seconds=0.4,
        )

        async def wait_until(condition):
            deadline = time.monotonic() + 5.0
            while not condition():
                assert time.monotonic() < deadline, "condition never held"
                await asyncio.sleep(0.005)

        async def drive():
            server = GatewayServer(service, config=GatewayConfig(port=0))
            await server.start()
            host, port = server.config.host, server.port
            # Read batches run inline on the event loop, so the delayed
            # batch would finish before stop() could start.  Hold the
            # admitted request before it reaches the coalescer until
            # the drain has begun; only then does the delayed batch run.
            held, release = asyncio.Event(), asyncio.Event()
            submit = server.coalescer.submit

            async def held_submit(query):
                held.set()
                await release.wait()
                return await submit(query)

            server.coalescer.submit = held_submit
            drain_began_with = []
            start_draining = server.admission.start_draining

            def recording_start_draining():
                drain_began_with.append(server.admission.active)
                start_draining()

            server.admission.start_draining = recording_start_draining
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                f"GET /v1/top?method=CC&k=3 HTTP/1.1\r\n"
                f"Host: {host}\r\nConnection: close\r\n\r\n".encode()
            )
            await writer.drain()
            await wait_until(held.is_set)
            await wait_until(lambda: server.admission.active == 1)
            stop_task = asyncio.ensure_future(server.stop())
            await wait_until(lambda: server.admission.draining)
            release.set()
            head = await reader.readuntil(b"\r\n\r\n")
            status = int(head.split(b" ")[1])
            length = int(
                [
                    line.split(b":")[1]
                    for line in head.split(b"\r\n")
                    if line.lower().startswith(b"content-length")
                ][0]
            )
            document = json.loads(await reader.readexactly(length))
            writer.close()
            await stop_task
            refused = False
            try:
                await asyncio.open_connection(host, port)
            except (ConnectionRefusedError, OSError):
                refused = True
            return (
                status,
                document,
                refused,
                server.metrics_document(),
                drain_began_with,
            )

        with FaultInjector(plan) as injector:
            status, document, refused, metrics, drain_began_with = (
                asyncio.run(drive())
            )

        # The drain began with the request admitted and not yet
        # answered (a slot is released only after the body is flushed).
        assert drain_began_with == [1]
        assert [f.point for f in injector.fired] == [
            "gateway.batch.execute"
        ]
        assert status == 200  # the admitted request finished
        assert document["result"]["entries"]
        assert refused  # the listener is gone
        assert not any(
            int(code) >= 500 for code in metrics["responses"]["by_status"]
        )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestChaosCli:
    def test_plan_round_trips_through_json(self, capsys):
        assert main(["chaos", "plan", "--seed", "11"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert FaultPlan.from_payload(payload) == FaultPlan.seeded(11)

    def test_plan_pins_the_point(self, capsys):
        assert main(
            ["chaos", "plan", "--seed", "2", "--point", "index.load"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["specs"][0]["point"] == "index.load"

    def test_run_invocation_requires_kind(self, capsys):
        code = main(
            ["chaos", "run", "--point", "index.load",
             "--invocation", "1"]
        )
        assert code == 1
        assert "[ChaosError]" in capsys.readouterr().err

    def test_run_unknown_point_fails_typed(self, capsys):
        assert main(["chaos", "run", "--point", "nope"]) == 1
        assert "[ChaosError]" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Crashes between an id-table append and the publishing swap
# ----------------------------------------------------------------------
def _deltas(events, batch_size):
    """Cut events into deltas at paper boundaries, as the ingestor does."""
    from repro.serve import NetworkDelta
    from repro.stream import PaperEvent

    papers: list = []
    citations: list = []
    for event in events:
        if isinstance(event, PaperEvent):
            if len(papers) + len(citations) >= batch_size:
                yield NetworkDelta(tuple(papers), tuple(citations))
                papers, citations = [], []
            papers.append((event.paper_id, event.time))
        else:
            citations.append((event.citing, event.cited))
    if papers:
        yield NetworkDelta(tuple(papers), tuple(citations))


class TestCrashBetweenAppendAndPublish:
    """A step killed after it appended to the shared id tables.

    ``CitationNetwork.extend`` and ``ShardedScoreIndex.sync`` append new
    ids in place before their results are published.  A crash at the
    swap leaves those appends behind with nothing pointing at them, so
    the retried work must grow the published version again — by copying
    its prefix — and never see the orphaned ids or append them twice.
    """

    @pytest.mark.parametrize(
        "point", ["index.refresh.swap", "shard.sync.swap"]
    )
    def test_replay_recovers_bit_identically(self, point, hepth_tiny):
        from repro.stream import batch_compute
        from shardoracle import assert_fresh_slices

        methods = ("AR", "PR", "CC")
        log = EventLog.from_network(hepth_tiny)
        ingestor = StreamIngestor(
            log, methods, batch_size=64, bootstrap_size=len(log) - 600,
            shards=3,
        )
        ingestor.step()
        service = ingestor.service
        plan = FaultPlan.single(point, kind="crash", invocation=3)
        crashes = 0
        unpublished = False
        with FaultInjector(plan) as injector:
            for delta in _deltas(log.events[ingestor.offset:], 64):
                try:
                    service.update(delta)
                except InjectedCrash:
                    crashes += 1
                    if point == "index.refresh.swap":
                        # Nothing was published: apply the batch again.
                        service.update(delta)
                        assert_fresh_slices(service.sharded, service.index)
                    else:
                        # The index moved on and the store did not:
                        # reads stay on the last published version
                        # until the next update's sync publishes both
                        # batches.
                        assert service.version == service.index.version - 1
                        page = service.top_k("CC", k=3)
                        assert page.version == service.version
                        unpublished = True
                    continue
                if unpublished:
                    assert_fresh_slices(service.sharded, service.index)
                    unpublished = False
        assert crashes == 1 and len(injector.fired) == 1
        assert not unpublished
        service.refresh()
        service.top_k("CC", k=3)
        reference = batch_compute(log, methods)
        assert service.index.network.paper_ids == reference.network.paper_ids
        for label in methods:
            assert np.array_equal(
                service.index.scores(label), reference.scores(label)
            )
        assert_fresh_slices(service.sharded, service.index)


    def test_step_after_a_crash_at_the_sync_swap(self, hepth_tiny):
        """A step killed after the index published its batch has still
        consumed that batch: stepping on applies the next one, never
        the same papers twice."""
        from repro.stream import batch_compute
        from shardoracle import assert_fresh_slices

        methods = ("AR", "PR", "CC")
        log = EventLog.from_network(hepth_tiny)
        ingestor = StreamIngestor(
            log, methods, batch_size=64, bootstrap_size=len(log) - 600,
            shards=3,
        )
        ingestor.step()
        plan = FaultPlan.single("shard.sync.swap", kind="crash", invocation=1)
        crashes = 0
        with FaultInjector(plan) as injector:
            while not ingestor.exhausted:
                version = ingestor.index.version
                try:
                    ingestor.step()
                except InjectedCrash:
                    crashes += 1
                assert ingestor.index.version == version + 1
                assert ingestor.batches_applied == ingestor.index.version + 1
        assert crashes == 1 and len(injector.fired) == 1
        ingestor.finalize()
        ingestor.service.top_k("CC", k=3)
        reference = batch_compute(log, methods)
        assert ingestor.index.network.paper_ids == reference.network.paper_ids
        for label in methods:
            assert np.array_equal(
                ingestor.index.scores(label), reference.scores(label)
            )
        assert_fresh_slices(ingestor.service.sharded, ingestor.index)


# ----------------------------------------------------------------------
# Scenario runs (the chaos-marked CI subset)
# ----------------------------------------------------------------------
@pytest.mark.chaos
class TestCheckpointScenarios:
    @pytest.mark.parametrize("point", COMMIT_BOUNDARIES)
    def test_crash_at_every_commit_boundary(self, point, tmp_path):
        """Satellite 1: a kill at each atomic-commit boundary must
        leave a resumable, bit-identical, orphan-free checkpoint."""
        from repro.chaos.harness import run_checkpoint_scenario

        plan = FaultPlan.single(
            point, kind="crash", invocation=0, seed=0
        )
        report = run_checkpoint_scenario(
            plan, seed=0, workdir=str(tmp_path)
        )
        assert report.fired, point
        assert report.invariants == {
            "checkpoint_never_torn": True,
            "bit_identical_scores": True,
            "no_orphaned_tmp_files": True,
        }

    @settings(max_examples=3, deadline=None)
    @given(st.integers(min_value=0, max_value=40))
    def test_seeded_half_applied_update_recovers(self, seed):
        """The classic torn write — crash after the batch applied but
        before the offset advanced — across seeded invocations."""
        from repro.chaos.harness import run_checkpoint_scenario

        plan = FaultPlan.seeded(seed, point="stream.step.advance")
        report = run_checkpoint_scenario(plan, seed=seed)
        assert report.ok, report.to_payload()


@pytest.mark.chaos
class TestGatewayScenarios:
    def test_updater_killed_mid_batch_is_contained(self):
        """The write path dies mid-step in its executor thread; reads
        keep serving one untorn version and the drain still finishes
        cleanly."""
        from repro.chaos.harness import run_gateway_scenario

        plan = FaultPlan.single(
            "gateway.update.step", kind="crash", invocation=0, seed=5
        )
        report = run_gateway_scenario(plan, seed=5)
        assert report.ok, report.to_payload()
        assert report.invariants["updater_crash_contained"] is True
        assert report.invariants["no_5xx_emitted"] is True
        assert report.invariants["drained_port_refuses"] is True

    def test_torn_response_never_parses_as_complete(self):
        from repro.chaos.harness import run_gateway_scenario

        plan = FaultPlan.single(
            "gateway.response.write", kind="torn", invocation=3, seed=1
        )
        report = run_gateway_scenario(plan, seed=1)
        assert report.ok, report.to_payload()
        assert report.invariants["responses_parse_cleanly"] is True


@pytest.mark.chaos
class TestWorkerScenarios:
    def test_worker_killed_under_load_is_replaced(self):
        """A pre-forked worker dies mid-load (`os._exit`, no drain):
        the supervisor restarts it, clients lose no request, every
        answer stays bit-identical, and no shared-memory segment
        outlives the run."""
        from repro.chaos.harness import run_worker_scenario

        plan = FaultPlan.single(
            "gateway.worker", kind="crash", invocation=2, seed=0
        )
        report = run_worker_scenario(plan, seed=0)
        assert report.fired, report.to_payload()
        assert report.ok, report.to_payload()
        assert report.invariants == {
            "supervisor_restarted": True,
            "all_requests_answered": True,
            "responses_parse_cleanly": True,
            "responses_bit_identical": True,
            "no_shm_leak": True,
            "profiler_survives_restart": True,
        }


@pytest.mark.chaos
class TestChaosCliScenarios:
    def test_cli_run_reports_invariants(self, capsys):
        assert main(
            ["chaos", "run", "--point", "stream.step.apply",
             "--seed", "1"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fired"] is True
        assert payload["ok"] is True
        assert payload["invariants"]["bit_identical_scores"] is True

    def test_cli_sweep_writes_a_gating_report(self, tmp_path, capsys):
        report_path = str(tmp_path / "chaos-report.json")
        assert main(
            ["chaos", "sweep", "--seeds", "1",
             "--points", "checkpoint.commit", "gateway.request.read",
             "--report", report_path]
        ) == 0
        summary = capsys.readouterr().out
        assert "result: ok" in summary
        document = json.loads(open(report_path).read())
        assert document["format"] == "repro-chaos-report"
        assert document["ok"] is True
        assert len(document["runs"]) == 2
