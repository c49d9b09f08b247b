"""The layer boundaries the benchmark's tracer wraps still exist and run.

``perfbench.spans.install`` patches entry points by name (class
attributes and module-level functions), process-wide, so it runs here
in a child process.  Without this test a renamed or bypassed boundary
shows up only in a traced benchmark run.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Installs the tracer, drives the gateway's read and write paths once
#: on the toy network and the ``tune`` workload's protocol on a tiny
#: corpus, and prints each span name with the largest ``queries`` count
#: its spans recorded.
_DRIVE = r"""
import asyncio
import json

from perfbench import spans

recorder = spans.Recorder()
spans.install(recorder)
recorder.enabled = True

from repro.gateway import RequestCoalescer, StreamUpdater
from repro.serve import CompareQuery, PaperQuery, TopKQuery
from repro.stream import EventLog, StreamIngestor
from repro.synth import toy_network

ingestor = StreamIngestor(
    EventLog.from_network(toy_network()),
    methods=("CC", "PR"),
    batch_size=4,
    bootstrap_size=12,
)
ingestor.step()


async def main():
    coalescer = RequestCoalescer(ingestor.service)
    await coalescer.start()
    await StreamUpdater(
        ingestor, coalescer, interval=0.0, max_batches=1
    ).run()
    await asyncio.gather(
        coalescer.submit(TopKQuery(method="CC", k=2)),
        coalescer.submit(CompareQuery(methods=("CC", "PR"), k=2)),
        coalescer.submit(PaperQuery(paper_id="A")),
    )
    await coalescer.close()


asyncio.run(main())

from repro.eval import NDCG
from repro.parallel import ExperimentEngine
from repro.synth import generate_dataset

ExperimentEngine(jobs=1).compare_over_ratios(
    generate_dataset("hep-th", size="tiny", seed=42),
    metric=NDCG(50),
    test_ratios=(1.6,),
    methods=("AR", "RAM"),
)
seen = {}
for _, name, _, _, _, _, extra in recorder.spans:
    queries = (extra or {}).get("queries", 0)
    seen[name] = max(seen.get(name, 0), queries)
print(json.dumps(seen))
"""


def test_every_wrapped_boundary_is_found_and_driven():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT, env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", _DRIVE],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.strip().splitlines()[-1])
    for name in (
        "coalesce.exclusively",
        "stream.step",
        "delta.extend",
        "index.refresh",
        "shard.sync",
        "shard.order",
        "shard.rank_count",
        "eval.split",
        "solver.solve",
        "eval.metric",
    ):
        assert name in seen, name
    # Three coalesced submits form one batch, and the batch spans read
    # its queries from their first argument.
    assert "coalesce.submit" in seen
    assert seen["service.batch"] == 3
    assert seen["engine.batch"] == 3
