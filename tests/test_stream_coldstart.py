"""Pins on the stream layer's cold start: replay does no digest work,
the log owns its digest, and importing the gateway stays light."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
import repro.stream.events as events_module
from repro.stream import EventLog, StreamIngestor
from repro.synth import toy_network

pytestmark = pytest.mark.stream

METHODS = ("PR", "CC")


@pytest.fixture(scope="module")
def hepth_events(hepth_tiny) -> tuple:
    return EventLog.from_network(hepth_tiny).events


def _replace_encoder(monkeypatch, replacement) -> None:
    """Swap the canonical-line encoder in every module that binds it."""
    original = events_module._event_line
    for module in list(sys.modules.values()):
        if vars(module).get("_event_line") is original:
            monkeypatch.setattr(module, "_event_line", replacement)


@pytest.fixture
def encoded(monkeypatch) -> list:
    """The events whose canonical line was encoded, in order."""
    original = events_module._event_line
    calls: list = []

    def recording(event):
        calls.append(event)
        return original(event)

    _replace_encoder(monkeypatch, recording)
    return calls


def test_step_never_encodes_a_canonical_line(hepth_events, monkeypatch):
    def refuse(event):
        raise AssertionError(f"canonical line encoded for {event!r}")

    _replace_encoder(monkeypatch, refuse)
    ingestor = StreamIngestor(
        EventLog(hepth_events), METHODS, batch_size=64, bootstrap_size=64
    )
    report = ingestor.replay()
    assert report.exhausted and report.n_batches > 1


def test_prefix_digest_is_the_logs_digest(hepth_events, tmp_path, encoded):
    log = EventLog(hepth_events)

    def expected(offset: int) -> str:
        # A separate log, so its memo is not the one under test.
        return EventLog(hepth_events[:offset]).digest()

    ingestor = StreamIngestor(log, METHODS, batch_size=64, bootstrap_size=64)
    ingestor.step()
    checks = [(ingestor.prefix_digest(), ingestor.offset)]
    for _ in range(3):
        ingestor.step()
        checks.append((ingestor.prefix_digest(), ingestor.offset))
    directory = str(tmp_path / "ckpt")
    ingestor.checkpoint(directory)
    ingestor.replay(max_batches=4)
    ingestor.checkpoint(directory)
    written = ingestor.offset
    # Each event of the prefix was encoded once, however many digests
    # and checkpoints were taken along the way.
    assert len(encoded) == written

    resumed = StreamIngestor.resume(directory, log)
    assert resumed.offset == written
    checks.append((resumed.prefix_digest(), resumed.offset))
    assert len(encoded) == written  # the resume check hit the memo

    # A restarted process loads a fresh log: resume hashes its prefix
    # once, and the next checkpoint only the events since.
    restarted = StreamIngestor.resume(directory, EventLog(hepth_events))
    restarted.replay(max_batches=3)
    restarted.checkpoint(directory)
    assert len(encoded) == written + restarted.offset
    checks.append((restarted.prefix_digest(), restarted.offset))

    for digest, offset in checks:
        assert digest == expected(offset) == log.digest(offset)


def test_failed_digest_leaves_the_memo_whole(monkeypatch):
    log = EventLog.from_network(toy_network())
    log.digest(4)
    original = events_module._event_line
    calls: list = []

    def failing_third(event):
        calls.append(event)
        if len(calls) == 3:
            raise RuntimeError("encoder failed")
        return original(event)

    _replace_encoder(monkeypatch, failing_third)
    with pytest.raises(RuntimeError, match="encoder failed"):
        log.digest(10)
    monkeypatch.undo()
    assert log.digest(10) == EventLog(log.events[:10]).digest()


def test_concurrent_digests_agree(hepth_events):
    events = hepth_events[:1000]
    reference = EventLog(events)
    offsets = list(range(0, len(events) + 1, 50))
    expected = {n: reference.digest(n) for n in offsets}
    shared = EventLog(events)
    wrong: list = []

    def worker(seed: int) -> None:
        for n in random.Random(seed).sample(offsets, len(offsets)):
            if shared.digest(n) != expected[n]:
                wrong.append(n)

    threads = [
        threading.Thread(target=worker, args=(seed,)) for seed in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_toy_digest_is_pinned():
    # Checkpoints written by earlier builds store this digest: changing
    # the canonical line or the hashing would strand them.
    log = EventLog.from_network(toy_network())
    assert log.digest() == (
        "eaa1a02058fba9cf2623d3ade3166ce1e57b2c0faf03f12a5372692d026c3995"
    )
    assert log.digest(5) == (
        "c28d00b99f51b6d811ccc92eeca1f3b65b195572c2f2a376ecf8afbd9313f516"
    )


def test_importing_the_gateway_leaves_scipy_stats_unloaded():
    probe = (
        "import sys, repro.gateway; "
        "print('scipy.stats' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    assert result.stdout.strip() == "False"
