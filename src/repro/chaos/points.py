"""The fault-point catalog and the hot-path trampoline.

A *fault point* is a named location in a real code path where the
chaos harness may inject a failure: the checkpoint commit protocol's
tmp-write/fsync/``os.replace`` boundaries, the micro-batch apply and
snapshot-swap sites, the snapshot-file read/write paths, and the gateway's
socket read/write.  Each site calls :func:`chaos_point` with its
registered name; when no :class:`~repro.chaos.FaultInjector` is armed
this is a single module-global ``None`` check — the production hot
path pays one comparison, nothing else (the ``obs_overhead`` bench
scenario holds the serving stack to that).

The catalog below is *static* and *closed*: a seeded
:class:`~repro.chaos.FaultPlan` enumerates it to choose which point
fires, and the CI sweep iterates it so every registered point is
exercised on every run.  Adding a fault point means adding it here
*and* threading the one-line call into the code path — the
``test_chaos_points`` suite cross-checks that every catalog entry is
reachable by its scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    from repro.chaos.faults import FaultInjector, FaultSpec

__all__ = ["FaultPoint", "FAULT_POINTS", "fault_point", "chaos_point"]

#: Fault kinds a point may declare:
#:
#: ``crash``
#:     Simulated process kill at the point — raises
#:     :class:`~repro.chaos.InjectedCrash` (a ``BaseException``, so no
#:     ``except Exception`` handler on the way out can swallow it, and
#:     ``finally``-style cleanup the real ``kill -9`` would skip is
#:     kept out of the crash path on purpose).
#: ``disconnect``
#:     Simulated peer reset — raises
#:     :class:`~repro.chaos.InjectedDisconnect` (a
#:     ``ConnectionResetError``), which the gateway's connection
#:     handlers treat exactly like a real client drop.
#: ``torn``
#:     Returned to the call site, which writes a deliberately partial
#:     response before dropping the connection (only the gateway
#:     response writer declares it).
#: ``delay``
#:     Sleeps ``FaultSpec.delay_seconds`` at the point, then continues
#:     normally — for a step that stalls, such as a coalesced batch
#:     holding up the event loop it runs on.
KINDS = ("crash", "disconnect", "torn", "delay")


@dataclass(frozen=True)
class FaultPoint:
    """One registered injection site.

    Attributes
    ----------
    name:
        Dotted identifier, unique in the catalog (``"checkpoint.commit"``).
    module:
        The module whose code path hosts the call.
    description:
        What failing *here* simulates.
    kinds:
        Fault kinds meaningful at this site (subset of :data:`KINDS`).
    scenario:
        Which harness scenario exercises the point: ``"checkpoint"``
        (replay/crash/resume) or ``"gateway"`` (load + drain).
    max_invocation:
        Upper bound (inclusive) a seeded plan may choose for the
        firing invocation — points the scenario only reaches a few
        times keep this small so no seed produces a vacuous run.
    """

    name: str
    module: str
    description: str
    kinds: tuple[str, ...]
    scenario: str
    max_invocation: int = 2

    def __post_init__(self) -> None:
        unknown = set(self.kinds) - set(KINDS)
        if unknown:
            raise ValueError(
                f"fault point {self.name!r} declares unknown kinds "
                f"{sorted(unknown)}"
            )


#: Every injection site threaded into the codebase, in path order.
FAULT_POINTS: tuple[FaultPoint, ...] = (
    # --- io/layout.py: the one atomic snapshot writer ------------------
    FaultPoint(
        name="index.save.write",
        module="repro.io.layout",
        description=(
            "crash after a snapshot's temp file is written but before "
            "fsync — page cache holds bytes the disk may not"
        ),
        kinds=("crash",),
        scenario="checkpoint",
    ),
    FaultPoint(
        name="index.save.fsync",
        module="repro.io.layout",
        description=(
            "crash after fsync but before os.replace — a durable temp "
            "file that was never committed"
        ),
        kinds=("crash",),
        scenario="checkpoint",
    ),
    FaultPoint(
        name="index.save.replace",
        module="repro.io.layout",
        description=(
            "crash immediately after os.replace — the snapshot file is "
            "committed but nothing after it ran"
        ),
        kinds=("crash",),
        scenario="checkpoint",
    ),
    # --- serve/score_index.py: the index read path --------------------
    FaultPoint(
        name="index.load",
        module="repro.serve.score_index",
        description=(
            "crash as ScoreIndex.load starts reading — a restart that "
            "dies while reloading its serving state must leave the "
            "files reusable"
        ),
        kinds=("crash",),
        scenario="checkpoint",
        max_invocation=1,
    ),
    FaultPoint(
        name="index.refresh.swap",
        module="repro.serve.score_index",
        description=(
            "crash after every method re-solved but before the index "
            "swaps network/entries/version — the old version must keep "
            "serving"
        ),
        kinds=("crash",),
        scenario="checkpoint",
    ),
    # --- stream/checkpoint.py: the commit protocol -------------------
    FaultPoint(
        name="checkpoint.index_written",
        module="repro.stream.checkpoint",
        description=(
            "crash after the version-suffixed index file landed but "
            "before the manifest — the previous checkpoint must still "
            "load"
        ),
        kinds=("crash",),
        scenario="checkpoint",
    ),
    FaultPoint(
        name="checkpoint.manifest_tmp",
        module="repro.stream.checkpoint",
        description=(
            "crash after the manifest temp file is written but before "
            "os.replace — the orphaned *.tmp must be cleaned up by the "
            "next commit"
        ),
        kinds=("crash",),
        scenario="checkpoint",
    ),
    FaultPoint(
        name="checkpoint.commit",
        module="repro.stream.checkpoint",
        description=(
            "crash after the manifest rename (the commit point) but "
            "before superseded index files are pruned"
        ),
        kinds=("crash",),
        scenario="checkpoint",
    ),
    # --- stream/ingest.py: the micro-batch apply ---------------------
    FaultPoint(
        name="stream.step.apply",
        module="repro.stream.ingest",
        description=(
            "crash after the batch is cut but before any serving "
            "state mutates — a resume must consume the same events"
        ),
        kinds=("crash",),
        scenario="checkpoint",
    ),
    FaultPoint(
        name="stream.step.advance",
        module="repro.stream.ingest",
        description=(
            "crash after the batch applied but before the offset and "
            "prefix hash advance — the classic half-applied update"
        ),
        kinds=("crash",),
        scenario="checkpoint",
    ),
    # --- serve/shard.py: the store generation swap -------------------
    FaultPoint(
        name="shard.sync.swap",
        module="repro.serve.shard",
        description=(
            "crash after the new shard generation is assembled but "
            "before the StoreSnapshot swap — readers stay on the last "
            "published version until the next write's sync publishes "
            "everything the index holds"
        ),
        kinds=("crash",),
        scenario="checkpoint",
    ),
    # --- gateway: sockets and the live write path --------------------
    FaultPoint(
        name="gateway.request.read",
        module="repro.gateway.server",
        description=(
            "client connection reset while its request is being read"
        ),
        kinds=("disconnect",),
        scenario="gateway",
        max_invocation=8,
    ),
    FaultPoint(
        name="gateway.response.write",
        module="repro.gateway.server",
        description=(
            "connection lost mid-response: dropped before any bytes "
            "(disconnect) or after half the body (torn) — a client "
            "must never parse a partial body as a complete answer"
        ),
        kinds=("disconnect", "torn"),
        scenario="gateway",
        max_invocation=8,
    ),
    FaultPoint(
        name="gateway.update.step",
        module="repro.gateway.updates",
        description=(
            "updater killed mid-micro-batch in its executor thread "
            "while reads are answered — every read must still see one "
            "untorn published version"
        ),
        kinds=("crash",),
        scenario="gateway",
        max_invocation=2,
    ),
    FaultPoint(
        name="gateway.batch.execute",
        module="repro.gateway.coalesce",
        description=(
            "a coalesced engine batch that stalls — it runs inline on "
            "the event loop, so admission, reads and writes wait "
            "behind it; admitted work must still complete, also when "
            "a drain has begun"
        ),
        kinds=("delay",),
        scenario="gateway",
        max_invocation=4,
    ),
    # --- gateway/workers.py: the pre-fork worker fleet ---------------
    FaultPoint(
        name="gateway.worker",
        module="repro.gateway.workers",
        description=(
            "a worker process killed mid-serve (the armed plan forks "
            "into the child and fires in its heartbeat loop) — the "
            "supervisor must restart it, siblings must keep answering "
            "on the shared port, and no shared-memory segment may leak"
        ),
        kinds=("crash",),
        scenario="worker",
        max_invocation=8,
    ),
)

_BY_NAME = {point.name: point for point in FAULT_POINTS}


def fault_point(name: str) -> FaultPoint:
    """Look up a catalog entry; unknown names are a harness bug."""
    from repro.errors import ChaosError

    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise ChaosError(
            f"unknown fault point {name!r} (registered: {known})"
        ) from None


#: The armed injector, or ``None`` — the disarmed fast path is this
#: one global read.  Arming is process-wide on purpose: faults must
#: fire inside executor threads and the asyncio loop alike.
_ARMED: Optional["FaultInjector"] = None


def chaos_point(name: str) -> Optional["FaultSpec"]:
    """Visit a fault point; no-op (one ``None`` check) when disarmed.

    When an injector is armed and its plan fires here, the effect
    depends on the fault kind: ``crash`` and ``disconnect`` raise from
    inside this call; ``delay`` sleeps and returns ``None``; ``torn``
    returns the matched :class:`~repro.chaos.FaultSpec` so the call
    site can write its deliberately partial response.  All other
    visits return ``None``.
    """
    if _ARMED is None:
        return None
    return _ARMED._visit(name)
