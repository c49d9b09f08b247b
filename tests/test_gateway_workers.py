"""Tests for repro.gateway.workers — the pre-forked SO_REUSEPORT fleet.

These fork real processes and open real sockets, so each test keeps
the fleet small (two workers) and the load light; saturation behaviour
lives in the `gateway_mp` bench scenario, and crash behaviour under
concurrent load in the `worker` chaos scenario.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from obsschema import validate_metrics
from repro.errors import GatewayError
from repro.gateway import GatewayConfig, MultiWorkerGateway
from repro.gateway.workers import worker_ports
from repro.serve import RankingService, ScoreIndex, result_payload
from repro.serve.shm import iter_repro_segments
from repro.stream import EventLog, StreamIngestor
from repro.synth import toy_network


def _make_service(methods=("CC", "PR")) -> RankingService:
    index = ScoreIndex(toy_network())
    for label in methods:
        index.add_method(label)
    return RankingService(index)


def _get(port, target, timeout=10.0):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{target}", timeout=timeout
    ) as response:
        return response.status, json.loads(response.read())


@pytest.fixture(autouse=True)
def _no_leaked_segments():
    before = set(iter_repro_segments())
    yield
    leaked = set(iter_repro_segments()) - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


class TestFleetServing:
    def test_two_workers_answer_bit_identically(self):
        service = _make_service()
        gateway = MultiWorkerGateway(service, workers=2)
        with gateway:
            assert len(worker_ports(gateway)) == 2
            assert set(worker_ports(gateway)) == {gateway.port}
            expected = result_payload(service.top_k("CC", k=5))
            # Each request may land on either worker; enough of them
            # exercises both, and every answer must equal a direct
            # service call on the snapshot the fleet serves.
            for _ in range(8):
                status, document = _get(
                    gateway.port, "/v1/top?method=CC&k=5"
                )
                assert status == 200
                assert document["result"] == expected
                assert document["version"] == service.version
            status, health = _get(gateway.port, "/v1/healthz")
            assert status == 200
            assert health["status"] == "ok"

    def test_aggregate_metrics_sees_the_whole_fleet(self):
        gateway = MultiWorkerGateway(_make_service(), workers=2)
        with gateway:
            for _ in range(6):
                _get(gateway.port, "/v1/top?method=PR&k=3")
            fleet = gateway.aggregate_metrics()
            # The public endpoint answers the same fleet document from
            # whichever worker takes the connection; ?scope=local asks
            # that worker alone.
            status, served = _get(gateway.port, "/v1/metrics")
            status_local, local = _get(
                gateway.port, "/v1/metrics?scope=local"
            )
        validate_metrics(fleet)
        validate_metrics(served)
        validate_metrics(local)
        assert status == status_local == 200
        assert served["workers"]["count"] == 2
        assert served["requests"]["by_endpoint"]["top"] == 6
        assert "workers" not in local
        assert local["requests"]["by_endpoint"].get("top", 0) <= 6
        assert fleet["workers"]["count"] == 2
        assert fleet["workers"]["restarts"] == 0
        assert fleet["requests"]["started"] >= 6
        assert fleet["responses"]["by_status"].get("200", 0) >= 6
        assert fleet["responses"]["errors_5xx"] == 0
        # Fleet quantiles come from summed bucket counts, so the
        # merged histogram saw every request, not a per-worker sample.
        assert fleet["latency"]["overall"]["count"] >= 6

    def test_supervisor_restarts_a_killed_worker(self):
        gateway = MultiWorkerGateway(_make_service(), workers=2)
        with gateway:
            victim = gateway._slots[0].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(10.0)
            deadline = time.monotonic() + 10.0
            while gateway.restarts == 0 and time.monotonic() < deadline:
                gateway.supervise_once()
                time.sleep(0.01)
            assert gateway.restarts == 1
            # The replacement joined the SO_REUSEPORT group and serves.
            status, document = _get(gateway.port, "/v1/top?method=CC&k=2")
            assert status == 200
            assert document["result"]["entries"]
            assert len(worker_ports(gateway)) == 2

    def test_live_updates_publish_new_generations(self):
        log = EventLog.from_network(toy_network())
        ingestor = StreamIngestor(
            log, ("CC",), batch_size=4, bootstrap_size=len(log) // 2
        )
        ingestor.step()  # bootstrap -> version 0
        service = ingestor.service
        before = service.version
        gateway = MultiWorkerGateway(
            service,
            workers=2,
            config=GatewayConfig(port=0, update_interval=0.0),
            ingestor=ingestor,
        )
        with gateway:
            deadline = time.monotonic() + 20.0
            while (
                gateway.updates_applied == 0
                and time.monotonic() < deadline
            ):
                gateway.supervise_once()
                time.sleep(0.01)
            assert gateway.updates_applied >= 1
            # Workers converge on the published generation: a fresh
            # response eventually reports the bumped version.
            deadline = time.monotonic() + 20.0
            seen = 0
            while time.monotonic() < deadline:
                _, document = _get(gateway.port, "/v1/top?method=CC&k=2")
                seen = document["version"]
                if seen > before:
                    break
                time.sleep(0.01)
            assert seen > before

    def test_stop_reaps_workers_and_segments(self):
        gateway = MultiWorkerGateway(_make_service(), workers=2)
        gateway.start()
        session = gateway.session
        pids = [slot.process.pid for slot in gateway._slots]
        fleet = gateway.stop()
        assert fleet is not None and fleet["workers"]["count"] == 2
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)  # ESRCH: the worker is gone
        assert not [
            name for name in iter_repro_segments() if session in name
        ]

    def test_rejects_bad_configurations(self):
        service = _make_service()
        with pytest.raises(GatewayError, match="workers must be"):
            MultiWorkerGateway(service, workers=0)
        log = EventLog.from_network(toy_network())
        other = StreamIngestor(
            log, ("CC",), batch_size=4, bootstrap_size=len(log) // 2
        )
        other.step()  # its service is NOT the backend below
        with pytest.raises(GatewayError, match="must be the backend"):
            MultiWorkerGateway(service, workers=1, ingestor=other)


class TestServeHttpSignals:
    @pytest.mark.parametrize("extra", [[], ["--workers", "2"]])
    def test_sigterm_drains_and_exits_zero(self, tmp_path, extra):
        index = ScoreIndex(toy_network())
        index.add_method("CC")
        index_path = tmp_path / "index.snap"
        index.save(str(index_path))
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve-http",
                "--index", str(index_path), "--port", "0", *extra,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        try:
            # Wait for the CLI's own "serving ... on http://..." line —
            # worker log lines appear first, and a SIGTERM before
            # startup finishes would race the handler installation.
            for _ in range(50):
                line = process.stdout.readline()
                if "http://" in line:
                    break
            else:  # pragma: no cover - startup failure
                raise AssertionError("serve-http never reported serving")
            time.sleep(0.5)  # let the serve loop install its handlers
            process.send_signal(signal.SIGTERM)
            remainder, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        assert process.returncode == 0, remainder
        assert "gateway drained and stopped" in remainder
