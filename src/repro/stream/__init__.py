"""repro.stream — checkpointed citation-event replay driving warm starts.

The serve layer (:mod:`repro.serve`) updates rankings from
:class:`~repro.serve.NetworkDelta` batches; this package produces those
batches from a *stream*.  A deployment tracking the paper's "moving
present" (AttRank's attention and recency terms are functions of the
current year) ingests citations as they arrive rather than recomputing
from scratch:

* :class:`EventLog` — the corpus as a time-ordered JSONL log of
  :class:`PaperEvent` / :class:`CitationEvent` records, extractable
  from any time-ordered :class:`~repro.graph.CitationNetwork` and held
  in memory as columns (times, kinds, codes into one id table);
* :class:`StreamIngestor` — replays a log in micro-batches
  (batch-size / time-watermark policies, cut at paper-group
  boundaries), driving :class:`~repro.serve.DeltaUpdater` warm-start
  re-solves and :meth:`~repro.serve.ShardedScoreIndex.sync` shard
  routing, while a :class:`~repro.serve.RankingService` answers
  queries between batches;
* :class:`Checkpoint` — log offset + digest + full index snapshot, so
  a killed replay resumes bit-identically;
* :func:`batch_compute` — the offline baseline; a finalized replay's
  score vectors are bit-identical to it at any batch size, shard
  count, or resume point (the invariant the property tests and the
  ``stream`` bench scenario enforce).

CLI: ``repro stream extract`` writes a log, ``repro stream replay``
replays it (``--checkpoint-dir``/``--checkpoint-every`` to persist
progress), ``repro stream resume`` continues from a checkpoint, and
``repro stream checkpoint`` inspects one.
"""

from repro.stream.checkpoint import (
    CHECKPOINT_FILE,
    CHECKPOINT_FORMAT_VERSION,
    Checkpoint,
)
from repro.stream.events import (
    CitationEvent,
    EventLog,
    LOG_FORMAT_VERSION,
    PaperEvent,
    StreamEvent,
    group_boundaries,
)
from repro.stream.ingest import (
    BatchReport,
    ReplayReport,
    StreamIngestor,
    batch_compute,
    network_from_log,
)

__all__ = [
    "CHECKPOINT_FILE",
    "CHECKPOINT_FORMAT_VERSION",
    "Checkpoint",
    "CitationEvent",
    "EventLog",
    "LOG_FORMAT_VERSION",
    "PaperEvent",
    "StreamEvent",
    "group_boundaries",
    "BatchReport",
    "ReplayReport",
    "StreamIngestor",
    "batch_compute",
    "network_from_log",
]
