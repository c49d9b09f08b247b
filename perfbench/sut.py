"""The system under test, in its own process.

``python3 perfbench/sut.py CONFIG.json`` runs one of two modes:

* ``serve`` — the HTTP gateway over ``RankingService(shards=2)`` in the
  production observability posture (INFO logs, metrics, 1-in-20 trace
  sampling), bound to port 0.  ``read`` opens a saved score index;
  ``read_write`` loads a saved event log, bootstraps on its head, and
  lets the gateway's own ``StreamUpdater`` apply the rest live.  It
  writes the bound port to the ready file, serves until SIGTERM, then
  drains.
* ``tune`` — loads a saved network (ready), then runs the paper's
  Figure-4 protocol through ``ExperimentEngine(jobs=1)`` until the
  measuring time is spent, and writes the tuned tables.

With tracing on, the layer boundaries are wrapped (``perfbench.spans``)
and recorded during set-up; recording then pauses at ready and resumes
on SIGUSR1 (serve) or for the second tune (tune), so one run yields
both an untraced and a traced measurement.  Spans are written once, at
exit.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import spans  # noqa: E402
from perfbench.inputs import SERVE_METHODS  # noqa: E402

SHARDS = 2
BATCH_SIZE = 256
UPDATE_INTERVAL_S = 1.0
TRACE_SAMPLE = 0.05


def write_json(path: str, payload: dict) -> None:
    """Write then rename, so a reader never sees half a file."""
    partial = path + ".partial"
    with open(partial, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(partial, path)


def peak_rss_kb() -> int:
    with open("/proc/self/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def serve(config: dict, recorder: spans.Recorder | None) -> None:
    from repro.gateway import GatewayConfig, GatewayServer
    from repro.obs import configure_logging, enable_tracing
    from repro.serve import RankingService, ScoreIndex
    from repro.stream import EventLog, StreamIngestor

    configure_logging("INFO", json=True)
    enable_tracing(256, sample=TRACE_SAMPLE)
    ingestor = None
    if config["workload"] == "read":
        backend = RankingService(ScoreIndex.load(config["index"]), shards=SHARDS)
    else:
        ingestor = StreamIngestor(
            EventLog.load(config["log"]),
            SERVE_METHODS,
            batch_size=BATCH_SIZE,
            bootstrap_size=config["bootstrap"],
            shards=SHARDS,
        )
        ingestor.step()
        backend = ingestor.service
    server = GatewayServer(
        backend,
        config=GatewayConfig(port=0, update_interval=UPDATE_INTERVAL_S),
        ingestor=ingestor,
    )

    async def main() -> dict:
        await server.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        ready = time.perf_counter()
        if recorder is not None:
            recorder.enabled = False
            loop.add_signal_handler(signal.SIGUSR1, setattr, recorder, "enabled", True)
        write_json(config["ready"], {"port": server.port, "ready": ready})
        await stop.wait()
        await server.stop()
        return {
            "ready": ready,
            "updater_exhausted": server.updater is not None and server.updater.exhausted,
            "updater_error": None if server.updater_error is None else repr(server.updater_error),
            "peak_rss_kb": peak_rss_kb(),
        }

    write_json(config["report"], asyncio.run(main()))


def tune(config: dict, recorder: spans.Recorder | None) -> None:
    from repro.eval import NDCG
    from repro.io import load_network
    from repro.parallel import ExperimentEngine

    network = load_network(config["network"])
    ready = time.perf_counter()
    if recorder is not None:
        recorder.enabled = False
    write_json(config["ready"], {"ready": ready})
    engine = ExperimentEngine(jobs=1)
    runs = []
    while True:
        traced = recorder is not None and len(runs) == 1
        if traced:
            recorder.enabled = True
        start, cpu = time.perf_counter(), time.process_time()
        table, error = None, None
        try:
            panel = engine.compare_over_ratios(
                network,
                dataset="dblp",
                metric=NDCG(50),
                test_ratios=(config["ratio"],),
                methods=spans.TUNE_METHODS,
            )
        except Exception:  # a failed tune is reported, not fatal
            error = traceback.format_exc()
        else:
            table = {
                "winner": panel.winner_at(config["ratio"]),
                "methods": {
                    label: {
                        "params": dict(cells[0].result.best.params),
                        "ndcg50": cells[0].result.best.score,
                        "settings": len(cells[0].result.sweep),
                    }
                    for label, cells in panel.cells.items()
                },
            }
        end, cpu_end = time.perf_counter(), time.process_time()
        if traced:
            recorder.enabled = False
        runs.append(
            {
                "start": start,
                "end": end,
                "cpu_s": cpu_end - cpu,
                "traced": traced,
                "table": table,
                "error": error,
            }
        )
        if recorder is not None:
            if len(runs) == 2:
                break
        elif end - ready >= config["seconds"]:
            break
    write_json(config["report"], {"ready": ready, "runs": runs, "peak_rss_kb": peak_rss_kb()})


def main(argv: list[str]) -> int:
    with open(argv[1], "r", encoding="utf-8") as handle:
        config = json.load(handle)
    recorder = None
    if config["trace"]:
        recorder = spans.Recorder()
        spans.install(recorder)
        recorder.enabled = True
    try:
        if config["mode"] == "tune":
            tune(config, recorder)
        else:
            serve(config, recorder)
    finally:
        if recorder is not None:
            recorder.dump(config["spans"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
