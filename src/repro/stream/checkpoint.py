"""Checkpoint/resume for stream replays.

A :class:`Checkpoint` is everything a killed replay needs to continue
*bit-identically*: the log offset (events consumed), the batch policy,
the serving configuration, and the full serving state — the
:class:`~repro.serve.ScoreIndex` snapshot with its exact ``float64``
score vectors, persisted by :meth:`~repro.serve.ScoreIndex.save` as one
checksummed ``index`` snapshot file (:mod:`repro.io.layout`).
Because replay is deterministic and warm starts are seeded from the
persisted vectors, a resumed run passes through the same states the
uninterrupted run would have.

Layout of a checkpoint directory::

    <directory>/
        checkpoint.json       # offset, digest, batch + serving config
        index-v00000042.snap  # ScoreIndex.save() of the serving state

``checkpoint.json`` is written last and atomically (temp file +
rename): it is the commit point.  The index file it references is
*version-suffixed*, never overwritten in place — a new checkpoint
writes its own index file first, commits the manifest, and only then
prunes superseded index files.  A crash at any point therefore leaves
either the previous complete checkpoint or the new one (plus, at
worst, an orphaned index file the next save cleans up) — never a torn
one.

The checkpoint stores a SHA-256 digest of the consumed log prefix;
:meth:`Checkpoint.verify_against` refuses to resume a log whose prefix
does not match, which catches the classic operational mistake of
pointing a resume at the wrong (or regenerated) event file.
"""

from __future__ import annotations

import glob
import json
import math
import os
import reprlib
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.chaos.points import chaos_point
from repro.errors import DataFormatError, StreamError
from repro.graph.builder import MissingRefPolicy
from repro.serve.score_index import ScoreIndex
from repro.stream.events import EventLog

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    from repro.stream.ingest import StreamIngestor

__all__ = ["Checkpoint", "CHECKPOINT_FILE", "CHECKPOINT_FORMAT_VERSION"]

#: Manifest filename inside a checkpoint directory.
CHECKPOINT_FILE = "checkpoint.json"


def _index_filename(version: int) -> str:
    """The version-suffixed index filename of one checkpoint."""
    return f"index-v{version:08d}.snap"

#: On-disk format version of the checkpoint layout.
CHECKPOINT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Checkpoint:
    """A replay's resumable state (see the module docstring).

    Attributes
    ----------
    offset:
        Events consumed when the checkpoint was taken.
    batches_applied:
        Micro-batches applied (bootstrap included).
    batch_size, watermark_years:
        The batch policy — a resume must cut the remaining log the
        same way the original run would have.
    shards, partitioner, missing_references:
        Serving configuration for the rebuilt service.
    log_digest:
        SHA-256 over the canonical lines of the consumed log prefix.
    index_version:
        Version of the persisted score index (cross-checked on load).
    index_file:
        Filename of the persisted index inside the checkpoint
        directory (version-suffixed; see the module docstring).
    created_utc:
        ISO-8601 timestamp of the checkpoint.
    """

    offset: int
    batches_applied: int
    batch_size: int
    watermark_years: float | None
    shards: int
    partitioner: str
    missing_references: MissingRefPolicy
    log_digest: str
    index_version: int
    index_file: str
    created_utc: str

    # ------------------------------------------------------------------
    # Capture and persistence
    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, ingestor: "StreamIngestor") -> "_BoundCheckpoint":
        """Snapshot an ingestor's state, ready to :meth:`save`.

        Raises
        ------
        StreamError
            If the ingestor has not applied its bootstrap batch yet —
            there is no serving state to persist.
        """
        index = ingestor.index  # raises StreamError pre-bootstrap
        state = cls(
            offset=ingestor.offset,
            batches_applied=ingestor.batches_applied,
            batch_size=ingestor.batch_size,
            watermark_years=ingestor.watermark_years,
            shards=ingestor.service.sharded.n_shards,
            partitioner=ingestor.service.sharded.partitioner,
            missing_references=ingestor._policy,
            log_digest=ingestor.prefix_digest(),
            index_version=index.version,
            index_file=_index_filename(index.version),
            created_utc=time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
        )
        return _BoundCheckpoint(state=state, index=index)

    def to_payload(self) -> dict:
        """The ``checkpoint.json`` object."""
        return {
            "format": "repro-stream-checkpoint",
            "checkpoint_format_version": CHECKPOINT_FORMAT_VERSION,
            "offset": self.offset,
            "batches_applied": self.batches_applied,
            "batch_size": self.batch_size,
            "watermark_years": self.watermark_years,
            "shards": self.shards,
            "partitioner": self.partitioner,
            "missing_references": self.missing_references,
            "log_digest": self.log_digest,
            "index_version": self.index_version,
            "index_file": self.index_file,
            "created_utc": self.created_utc,
        }

    @classmethod
    def load(cls, directory: str) -> "Checkpoint":
        """Read a checkpoint manifest (the index loads separately).

        Raises
        ------
        DataFormatError
            If the directory holds no checkpoint, or the manifest is
            malformed or of an unsupported format version.
        """
        path = os.path.join(directory, CHECKPOINT_FILE)
        if not os.path.exists(path):
            raise DataFormatError(
                f"{directory}: not a stream checkpoint "
                f"(missing {CHECKPOINT_FILE})"
            )
        with open(path, "rb") as handle:
            data = handle.read()
        try:
            payload = json.loads(data.decode("utf-8"))
        except UnicodeDecodeError as error:
            raise DataFormatError(
                f"{path}: not UTF-8 text ({error.reason})"
            ) from None
        except ValueError as error:
            raise DataFormatError(f"{path}: invalid JSON ({error})") from None
        except RecursionError:
            raise DataFormatError(
                f"{path}: invalid JSON (nested too deeply)"
            ) from None
        if (
            not isinstance(payload, dict)
            or payload.get("format") != "repro-stream-checkpoint"
        ):
            raise DataFormatError(
                f"{path}: not a stream checkpoint manifest"
            )
        declared = payload.get("checkpoint_format_version", -1)
        if type(declared) is not int:
            raise DataFormatError(
                f"{path}: malformed checkpoint_format_version "
                f"{reprlib.repr(declared)}"
            )
        if declared != CHECKPOINT_FORMAT_VERSION:
            raise DataFormatError(
                f"{path}: unsupported checkpoint format version "
                f"{declared} (this build reads version "
                f"{CHECKPOINT_FORMAT_VERSION})"
            )
        try:
            watermark = payload["watermark_years"]
            if watermark is not None:
                watermark = float(
                    _typed(payload, "watermark_years", (int, float))
                )
                # json.loads accepts NaN and Infinity, which would turn
                # the watermark off without a word.
                if not 0 < watermark < math.inf:
                    raise DataFormatError(
                        f"{path}: watermark_years must be finite and "
                        f"positive, got {watermark}"
                    )
            return cls(
                offset=_typed(payload, "offset", (int,)),
                batches_applied=_typed(payload, "batches_applied", (int,)),
                batch_size=_typed(payload, "batch_size", (int,)),
                watermark_years=watermark,
                shards=_typed(payload, "shards", (int,)),
                partitioner=_typed(payload, "partitioner", (str,)),
                missing_references=_checked_policy(
                    path, payload["missing_references"]
                ),
                log_digest=_typed(payload, "log_digest", (str,)),
                index_version=_typed(payload, "index_version", (int,)),
                index_file=os.path.basename(
                    _typed(payload, "index_file", (str,))
                ),
                created_utc=_typed(payload, "created_utc", (str,)),
            )
        except (KeyError, TypeError) as error:
            raise DataFormatError(
                f"{path}: malformed checkpoint manifest ({error!r})"
            ) from None

    # ------------------------------------------------------------------
    # Resume-side checks
    # ------------------------------------------------------------------
    def verify_against(self, log: EventLog) -> None:
        """Ensure ``log`` is the stream this checkpoint came from.

        Raises
        ------
        StreamError
            If the log is shorter than the consumed prefix, or the
            prefix digest disagrees with the one stored at checkpoint
            time.
        """
        if self.offset > len(log):
            raise StreamError(
                f"checkpoint consumed {self.offset} events but the "
                f"log only has {len(log)}; this is not the stream the "
                "checkpoint was taken from"
            )
        actual = log.digest(self.offset)
        if actual != self.log_digest:
            raise StreamError(
                "checkpoint digest mismatch: the first "
                f"{self.offset} events of this log are not the events "
                "the checkpoint consumed (digest "
                f"{actual[:12]}… != {self.log_digest[:12]}…)"
            )

    def load_index(self, directory: str) -> ScoreIndex:
        """Load the persisted serving state, cross-checking its version."""
        index = ScoreIndex.load(os.path.join(directory, self.index_file))
        if index.version != self.index_version:
            raise DataFormatError(
                f"{directory}: checkpoint manifest expects index "
                f"version {self.index_version} but {self.index_file} "
                f"is at {index.version} — the checkpoint was "
                "partially overwritten"
            )
        return index


def _typed(payload: dict, key: str, kinds: tuple[type, ...]):
    """``payload[key]``, raising ``TypeError`` unless its type is one of
    ``kinds`` exactly: a boolean is not an integer, nor is a float."""
    value = payload[key]
    if type(value) not in kinds:
        raise TypeError(f"{key} is a {type(value).__name__}")
    return value


def _checked_policy(source: str, value: object) -> MissingRefPolicy:
    if value not in ("skip", "error"):
        raise DataFormatError(
            f"{source}: unknown missing-reference policy {value!r}"
        )
    return value  # type: ignore[return-value]


@dataclass(frozen=True)
class _BoundCheckpoint:
    """A captured checkpoint still holding the live index to persist."""

    state: Checkpoint
    index: ScoreIndex

    def save(self, directory: str) -> str:
        """Write index, commit the manifest, prune; return the path.

        The ordering is what makes the checkpoint crash-safe: the new
        (version-suffixed, never-overwritten) index file lands first,
        the manifest rename is the commit point, and only *after* the
        commit are index files from superseded checkpoints removed.
        """
        os.makedirs(directory, exist_ok=True)
        self.index.save(os.path.join(directory, self.state.index_file))
        chaos_point("checkpoint.index_written")
        manifest_path = os.path.join(directory, CHECKPOINT_FILE)
        # Manifest temp files orphaned by a *crashed* commit (the
        # cleanup below never runs on a kill) are swept on this, the
        # next commit attempt.
        for stale in glob.glob(f"{glob.escape(manifest_path)}.tmp-*"):
            os.remove(stale)
        temp_path = f"{manifest_path}.tmp-{os.getpid()}"
        try:
            with open(temp_path, "w", encoding="utf-8") as handle:
                json.dump(self.state.to_payload(), handle, indent=2)
                handle.write("\n")
            chaos_point("checkpoint.manifest_tmp")
            os.replace(temp_path, manifest_path)
        except Exception:
            # Narrower than a finally on purpose: an injected crash
            # (BaseException) must leave the orphan a real kill would.
            if os.path.exists(temp_path):
                os.remove(temp_path)
            raise
        chaos_point("checkpoint.commit")
        for name in os.listdir(directory):
            if (
                name.startswith("index-v")
                and name.endswith(".snap")
                and name != self.state.index_file
            ):
                os.remove(os.path.join(directory, name))
        return manifest_path
