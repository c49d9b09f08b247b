"""perfbench — the repository benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload read --seed 1 --seconds 10 --trace 0

One run generates the workload's inputs from ``--seed`` into a private
directory of the checkout (not timed), starts the system under test in
its own process (``perfbench/sut.py``), sets it up several times, drives
it for ``--seconds``, checks every answer against an independent
replica, stops and reaps every process, removes its inputs, and prints
one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see ``README.md``).  The line before
it is a ``{"context": ...}`` object: CPU count, hypervisor steal over
the window, offered and achieved rates, generator lateness, and flags
for a run that should not be trusted silently.

Exit codes: 0 when every check passed, 1 when an output check failed
(the result line then says ``"correct": false``), 2 when the program's
sources are missing, 3 when a phase stalled past its deadline.
"""

from __future__ import annotations

import argparse
import gc
import http.client
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import spans  # noqa: E402
from perfbench.inputs import (  # noqa: E402
    SERVE_METHODS,
    SERVE_SIZE,
    TUNE_SIZE,
    bootstrap_events,
    bootstrap_papers,
    corpus,
    direct_answer,
    read_mix,
    traffic_rng,
)
from perfbench.loadgen import Outcome, render_request, run_open_loop  # noqa: E402
from perfbench.stats import (  # noqa: E402
    generator_lateness,
    latency_from_due,
    median,
    penalised,
    percentile,
    read_cpu_ticks,
    steal_share,
    tail,
)
from perfbench.sut import BATCH_SIZE, SHARDS  # noqa: E402

#: Workloads (with the one-line reason each exists) and metric units,
#: as declared in ``BENCHMARK.json``.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {entry["name"]: entry["why"] for entry in DECLARED["workloads"]}
UNITS = {
    trace: {entry["name"]: entry["unit"] for entry in DECLARED[kind]}
    for trace, kind in ((0, "end_to_end"), (1, "per_layer"))
}

RATE = 100.0
WARMUP_S = 2.0
SETUPS = 3
GRACE_S = 5.0
TUNE_RATIO = 1.6
EVALUATIONS_PER_TUNE = 504
DEFAULT_SEED = 1
#: What a run may spend outside its warm-up, window and drain grace:
#: generation, set-ups, verification and teardown.  With ``--seconds
#: 10`` the whole run ends within 170 s.
FIXED_BUDGET_S = 153.0
#: A generator whose p99 lateness exceeds this fell behind its schedule.
BEHIND_MS = 10.0
EXPECTED_TABLE = ROOT / "perfbench" / "tune_expected.json"


class Stalled(Exception):
    """A phase ran past its deadline."""


class Watchdog:
    """Per-phase deadlines (SIGALRM) inside one overall run budget."""

    def __init__(self, budget_s: float) -> None:
        self.deadline = time.monotonic() + budget_s
        self.phase_name = "start"
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, *_: Any) -> None:
        raise Stalled(self.phase_name)

    @contextmanager
    def phase(self, name: str, seconds: float) -> Iterator[None]:
        self.phase_name = name
        limit = min(seconds, self.deadline - time.monotonic())
        if limit <= 0:
            raise Stalled(name)
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)


class Sut:
    """One system-under-test process, its files, and its teardown."""

    def __init__(self, workdir: Path, number: int, config: dict) -> None:
        self.paths = {
            key: str(workdir / f"sut{number}.{key}")
            for key in ("config", "ready", "report", "spans", "log")
        }
        config = dict(config, ready=self.paths["ready"], report=self.paths["report"], spans=self.paths["spans"])
        with open(self.paths["config"], "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        self._log = open(self.paths["log"], "wb")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "sut.py"), self.paths["config"]],
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            cwd=str(ROOT),
        )

    def log_tail(self) -> str:
        with open(self.paths["log"], "r", encoding="utf-8", errors="replace") as handle:
            return "".join(handle.readlines()[-20:])

    def _check_alive(self) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(
                f"system under test exited with code {self.proc.returncode}:\n{self.log_tail()}"
            )

    def wait_ready(self) -> dict:
        while not os.path.exists(self.paths["ready"]):
            if self.proc.poll() is not None and not os.path.exists(self.paths["ready"]):
                self._check_alive()
            time.sleep(0.005)
        with open(self.paths["ready"], "r", encoding="utf-8") as handle:
            return json.load(handle)

    def wait_healthy(self, port: int) -> float:
        """Poll ``/v1/healthz``; return when the first 200 arrived."""
        while True:
            self._check_alive()
            try:
                status, _ = http_get(port, "/v1/healthz")
            except OSError:
                status = 0
            if status == 200:
                return time.perf_counter()
            time.sleep(0.005)

    def report(self) -> dict:
        with open(self.paths["report"], "r", encoding="utf-8") as handle:
            return json.load(handle)

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat", "r", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self, drain_s: float = 20.0) -> None:
        """SIGTERM to drain, SIGKILL past the deadline; always reaped."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=drain_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()

    def wait_exit(self) -> None:
        self.proc.wait()
        self._log.close()
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"system under test exited with code {self.proc.returncode}:\n{self.log_tail()}"
            )


def set_up(
    args,
    workdir: Path,
    config: dict,
    watchdog: Watchdog,
    suts: list[Sut],
    ready: Callable[[Sut], float],
) -> tuple[Sut, list[float]]:
    """Set up ``SETUPS`` times and keep the last process for the window.

    ``ready(sut)`` waits until ``sut`` is ready and returns that moment
    (``time.perf_counter``); every earlier process is stopped before the
    next one starts.  A traced run sets up once: it reports no set-up
    time.
    """
    count = 1 if args.trace else SETUPS
    setups = []
    for number in range(count):
        with watchdog.phase("setup", 60):
            sut = Sut(workdir, number, config)
            suts.append(sut)
            setups.append(ready(sut) - sut.spawned)
        if number < count - 1:
            with watchdog.phase("teardown", 30):
                sut.stop()
    return sut, setups


def http_get(port: int, path: str, timeout: float = 2.0) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def first_difference(got: Any, want: Any, path: str = "") -> str | None:
    """Where two decoded JSON documents first differ, or ``None``."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in want.keys() | got.keys():
            if key not in got or key not in want:
                return f"{path}.{key}: present on one side only"
        for key in want:
            found = first_difference(got[key], want[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return f"{path}: {len(got)} items, want {len(want)}"
        for position, (a, b) in enumerate(zip(got, want)):
            found = first_difference(a, b, f"{path}[{position}]")
            if found:
                return found
        return None
    if type(got) is not type(want) or got != want:
        return f"{path or '.'}: got {got!r}, want {want!r}"
    return None


def check_response(body: Any, version: int, result: Any) -> str | None:
    """Compare one decoded 200 body with a direct call's ``result_payload``."""
    from repro.serve import result_payload

    want = {"version": version, "result": json.loads(json.dumps(result_payload(result)))}
    return first_difference(body, want)


# ----------------------------------------------------------------------
# HTTP workloads
# ----------------------------------------------------------------------
def _metrics_doc(port: int) -> dict:
    status, body = http_get(port, "/v1/metrics", timeout=10.0)
    if status != 200:
        raise RuntimeError(f"/v1/metrics answered {status}")
    return json.loads(body)


def verify_read(index_path: str, requests, bodies: dict[int, Any]) -> dict[int, str]:
    from repro.serve import RankingService, ScoreIndex

    replica = RankingService(ScoreIndex.load(index_path), shards=SHARDS)
    bad = {}
    for number, body in sorted(bodies.items()):
        problem = check_response(body, replica.version, direct_answer(replica, requests[number]))
        if problem:
            bad[number] = problem
    return bad


def verify_read_write(log, bootstrap: int, requests, bodies: dict[int, Any]):
    """Step a replica ingestor to each response's version and compare."""
    from repro.stream import StreamIngestor

    replica = StreamIngestor(
        log, SERVE_METHODS, batch_size=BATCH_SIZE, bootstrap_size=bootstrap, shards=SHARDS
    )
    replica.step()
    offsets = {replica.service.version: replica.offset}
    by_version: dict[int, list[int]] = defaultdict(list)
    for number, body in bodies.items():
        by_version[body["version"]].append(number)
    bad = {}
    for version in sorted(by_version):
        while replica.service.version < version and not replica.exhausted:
            replica.step()
            offsets[replica.service.version] = replica.offset
        for number in sorted(by_version[version]):
            if replica.service.version != version:
                bad[number] = f"version {version} is not a state the replica passes through"
                continue
            problem = check_response(
                bodies[number], version, direct_answer(replica.service, requests[number])
            )
            if problem:
                bad[number] = problem
    return bad, offsets


def run_serve(args, workdir: Path, watchdog: Watchdog, suts: list[Sut]) -> dict:
    workload = args.workload
    with watchdog.phase("generate", 90):
        from repro.serve import ScoreIndex

        network = corpus(SERVE_SIZE)
        config: dict[str, Any] = {"mode": "serve", "workload": workload, "trace": args.trace}
        log = None
        bootstrap = 0
        if workload == "read":
            index = ScoreIndex(network)
            for label in SERVE_METHODS:
                index.add_method(label)
            config["index"] = str(workdir / "index.npz")
            index.save(config["index"])
            paper_ids = list(network.paper_ids)
            latest = float(network.publication_times.max())
        else:
            from repro.stream import EventLog

            log = EventLog.from_network(network)
            config["log"] = str(workdir / "events.jsonl")
            log.save(config["log"])
            bootstrap = config["bootstrap"] = bootstrap_events(len(log))
            paper_ids, latest = bootstrap_papers(log, bootstrap)
        del network
        warm = int(RATE * WARMUP_S)
        window = int(round(RATE * args.seconds))
        requests = read_mix(traffic_rng(args.seed), warm + window, paper_ids, latest)
        wire = [render_request(request.path, f"pb-{n}") for n, request in enumerate(requests)]

    sut, setups = set_up(
        args, workdir, config, watchdog, suts, lambda sut: sut.wait_healthy(sut.wait_ready()["port"])
    )
    port = sut.wait_ready()["port"]

    edges: dict[str, tuple[float, float, tuple[int, int]]] = {}

    def edge(name: str) -> None:
        edges[name] = (time.perf_counter(), sut.cpu_s(), read_cpu_ticks())

    with watchdog.phase("measure", WARMUP_S + args.seconds + GRACE_S + 30):
        before = _metrics_doc(port)
        start = time.perf_counter() + 0.05
        window_start = start + WARMUP_S
        window_end = window_start + window / RATE
        midpoint = (window_start + window_end) / 2
        marks = [(window_start, lambda: edge("start")), (window_end, lambda: edge("end"))]
        if args.trace:
            marks.append((midpoint, lambda: os.kill(sut.proc.pid, signal.SIGUSR1)))
        # The generator's own garbage collector must not stall the
        # schedule: this process also holds the corpus and the replica
        # inputs, and a full collection over them takes a while.
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            outcomes = run_open_loop(
                ("127.0.0.1", port),
                wire,
                rate=RATE,
                start=start,
                connections=len(os.sched_getaffinity(0)),
                grace=GRACE_S,
                marks=marks,
            )
        finally:
            gc.enable()
            gc.unfreeze()
        after = _metrics_doc(port)
    with watchdog.phase("drain", 40):
        sut.stop()
        report = sut.report()

    with watchdog.phase("verify", 100):
        bodies = {}
        for number, outcome in enumerate(outcomes):
            if outcome.status == 200:
                bodies[number] = json.loads(outcome.body)
        offsets: dict[int, int] = {}
        if workload == "read":
            bad = verify_read(config["index"], requests, bodies)
        else:
            bad, offsets = verify_read_write(log, bootstrap, requests, bodies)

    limit_ms = latency_limit_ms()
    window_outcomes = [(n, o) for n, o in enumerate(outcomes) if n >= warm]
    drain_deadline = window_end + GRACE_S
    latencies, failed, lateness = [], 0, []
    for number, outcome in window_outcomes:
        is_failed = not outcome.ok or number in bad
        failed += is_failed
        finished = outcome.done if outcome.done is not None else drain_deadline
        latencies.append(
            penalised(latency_from_due(outcome.due, finished) * 1e3, is_failed, limit_ms)
        )
        if outcome.sent is not None:
            lateness.append(generator_lateness(outcome.due, outcome.free, outcome.sent) * 1e3)

    (t0, cpu0, ticks0), (t1, cpu1, ticks1) = edges["start"], edges["end"]
    completed = sum(1 for number, outcome in window_outcomes if outcome.ok and number not in bad)
    tail_ms, tail_q = tail(latencies)
    context: dict[str, Any] = {
        "workload": workload,
        "why": WORKLOADS[workload],
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "connections": len(os.sched_getaffinity(0)),
        "window_s": round(t1 - t0, 6),
        "steal_share": steal_share(ticks0, ticks1),
        "offered_rps": RATE,
        "achieved_rps": completed / (t1 - t0),
        "latency": {
            "read_p50_ms": median(latencies),
            "read_tail_ms": tail_ms,
            "tail_percentile": tail_q,
            "samples": len(latencies),
            "limit_ms": limit_ms,
            "tail_met_limit": tail_ms <= limit_ms,
        },
        "generator_lateness_ms": {
            "p50": percentile(lateness, 50) if lateness else 0.0,
            "p99": percentile(lateness, 99) if lateness else 0.0,
            "max": max(lateness, default=0.0),
        },
        "failures": _failure_reasons(window_outcomes, bad),
        "setups_s": setups,
        "flags": [],
    }
    if context["generator_lateness_ms"]["p99"] > BEHIND_MS:
        context["flags"].append("generator fell behind its schedule")
    ingest_eps = 0.0
    if workload == "read_write":
        ingest_eps = _ingest_rate(window_outcomes, bodies, offsets)
        context["ingest_eps"] = ingest_eps
        context["versions"] = sorted({body["version"] for body in bodies.values()})
        if report["updater_exhausted"]:
            context["flags"].append("updater ran dry inside the window")
        if report["updater_error"]:
            context["flags"].append(f"updater crashed: {report['updater_error']}")

    result = {
        "correct": not bad,
        "attempted": len(window_outcomes),
        "failed": failed,
        "first_mismatch": _first_mismatch(bad, requests),
        "context": context,
    }
    if not args.trace:
        result["metrics"] = {
            "setup_s": median(setups),
            "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
            "cpu_ms_per_op": (cpu1 - cpu0) * 1e3 / max(completed, 1),
        }
        return result

    halves: dict[bool, list[float]] = {False: [], True: []}
    traced_requests = []
    for (number, outcome), latency in zip(window_outcomes, latencies):
        halves[outcome.due >= midpoint].append(latency)
        if outcome.due >= midpoint and outcome.ok:
            traced_requests.append(
                {"rid": f"pb-{number}", "sent": outcome.sent, "done": outcome.done, "due": outcome.due}
            )
    shed = sum(
        after["responses"][key] - before["responses"][key] for key in ("shed_429", "shed_503")
    )
    hits = after["result_cache"]["hits"] - before["result_cache"]["hits"]
    misses = after["result_cache"]["misses"] - before["result_cache"]["misses"]
    result["metrics"] = spans.derive(
        spans.load_spans(sut.paths["spans"]),
        ready=report["ready"],
        requests=traced_requests,
        counters={
            "shed": shed,
            "cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "ingest_eps": ingest_eps,
        },
        overhead_ms=median(halves[True]) - median(halves[False]),
    )
    return result


def latency_limit_ms() -> float:
    """The gateway's own default latency objective (p99 <= 250 ms)."""
    from repro.obs.slo import DEFAULT_SLOS

    return next(slo.threshold for slo in DEFAULT_SLOS if slo.kind == "latency") * 1e3


def _failure_reasons(window_outcomes, bad: dict[int, str]) -> dict[str, int]:
    reasons: dict[str, int] = defaultdict(int)
    for number, outcome in window_outcomes:
        if number in bad:
            reasons["verification"] += 1
        elif outcome.error:
            reasons[outcome.error.split(":")[0]] += 1
    return dict(reasons)


def _first_mismatch(bad: dict[int, str], requests) -> str | None:
    if not bad:
        return None
    number = min(bad)
    return f"response pb-{number} ({requests[number].path}) differs from the direct call at {bad[number]}"


def _ingest_rate(window_outcomes: list[tuple[int, Outcome]], bodies, offsets) -> float:
    """Log events applied per second, between the first and last version
    the window's responses observed (each timed at its first sighting)."""
    first_seen: dict[int, float] = {}
    for number, outcome in window_outcomes:
        if number in bodies:
            version = bodies[number]["version"]
            first_seen[version] = min(first_seen.get(version, math.inf), outcome.done)
    if len(first_seen) < 2:
        return 0.0
    low, high = min(first_seen), max(first_seen)
    seconds = first_seen[high] - first_seen[low]
    if high not in offsets or low not in offsets or seconds <= 0:
        return 0.0
    return (offsets[high] - offsets[low]) / seconds


# ----------------------------------------------------------------------
# The tuning workload
# ----------------------------------------------------------------------
def verify_tune(network, runs: list[dict]) -> str | None:
    """Re-score each best setting; tables must agree and be bit-identical."""
    from repro.eval import NDCG, evaluate_setting, split_by_ratio

    tables = [run["table"] for run in runs if run["table"] is not None]
    if not tables:
        return "no tune produced a table"
    table = tables[0]
    for other in tables[1:]:
        if other != table:
            return "two tunes of the same corpus produced different tables"
    settings = sum(entry["settings"] for entry in table["methods"].values())
    if settings != EVALUATIONS_PER_TUNE:
        return f"the table covers {settings} settings, want {EVALUATIONS_PER_TUNE}"
    split = split_by_ratio(network, TUNE_RATIO)
    for label, entry in table["methods"].items():
        score = evaluate_setting(label, entry["params"], split, NDCG(50))
        if score != entry["ndcg50"]:
            return f"{label} {entry['params']}: re-scored nDCG@50 {score!r}, reported {entry['ndcg50']!r}"
    best = max(entry["ndcg50"] for entry in table["methods"].values())
    if table["methods"][table["winner"]]["ndcg50"] != best:
        return f"winner {table['winner']} does not have the best nDCG@50"
    with open(EXPECTED_TABLE, "r", encoding="utf-8") as handle:
        expected = json.load(handle)
    found = first_difference(table, expected)
    if found:
        return f"table differs from {EXPECTED_TABLE.name} at {found}"
    return None


def run_tune(args, workdir: Path, watchdog: Watchdog, suts: list[Sut]) -> dict:
    with watchdog.phase("generate", 60):
        from repro.io import save_network

        network = corpus(TUNE_SIZE)
        config = {
            "mode": "tune",
            "network": str(workdir / "network.npz"),
            "ratio": TUNE_RATIO,
            "seconds": args.seconds,
            "trace": args.trace,
        }
        save_network(network, config["network"])
    sut, setups = set_up(args, workdir, config, watchdog, suts, lambda sut: sut.wait_ready()["ready"])
    ticks0 = read_cpu_ticks()
    with watchdog.phase("measure", args.seconds + 120):
        sut.wait_exit()
    ticks1 = read_cpu_ticks()
    report = sut.report()
    runs = report["runs"]
    with watchdog.phase("verify", 60):
        problem = verify_tune(network, runs)
    done = [run for run in runs if run["table"] is not None]
    walls = [(run["end"] - run["start"]) * 1e3 for run in done]
    context = {
        "workload": "tune",
        "why": WORKLOADS["tune"],
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "steal_share": steal_share(ticks0, ticks1),
        "tunes": len(runs),
        "tune_s": [wall / 1e3 for wall in walls],
        "tune_s_median": median(walls) / 1e3 if walls else None,
        "errors": [run["error"] for run in runs if run["error"]],
        "setups_s": setups,
        "flags": [],
    }
    result: dict[str, Any] = {
        "correct": problem is None,
        "attempted": EVALUATIONS_PER_TUNE * len(runs),
        "failed": EVALUATIONS_PER_TUNE * (len(runs) - len(done)),
        "first_mismatch": problem,
        "context": context,
    }
    if not args.trace:
        result["metrics"] = {
            "setup_s": median(setups),
            "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
            "cpu_ms_per_op": 1e3 * sum(run["cpu_s"] for run in done) / max(len(done), 1),
        }
        return result
    untraced, traced = runs
    result["metrics"] = spans.derive(
        spans.load_spans(sut.paths["spans"]),
        ready=traced["start"],
        overhead_ms=((traced["end"] - traced["start"]) - (untraced["end"] - untraced["start"])) * 1e3,
        total_s=traced["end"] - traced["start"],
    )
    return result


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: the program's sources (src/repro) are missing under {ROOT}",
            file=sys.stderr,
        )
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = ROOT / ".perfbench_tmp"
    workdir = scratch / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    watchdog = Watchdog(FIXED_BUDGET_S + WARMUP_S + args.seconds + GRACE_S)
    suts: list[Sut] = []
    try:
        runner = run_tune if args.workload == "tune" else run_serve
        result = runner(args, workdir, watchdog, suts)
    except Stalled as stall:
        print(f"perfbench: workload {args.workload} stalled in phase {stall}", file=sys.stderr)
        return 3
    except RuntimeError as error:
        print(f"perfbench: workload {args.workload} failed: {error}", file=sys.stderr)
        return 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        for sut in suts:
            sut.stop(drain_s=10.0)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    units = UNITS[args.trace]
    if result["first_mismatch"]:
        print(f"perfbench: {args.workload}: {result['first_mismatch']}", file=sys.stderr)
    print(json.dumps({"context": result["context"]}))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
