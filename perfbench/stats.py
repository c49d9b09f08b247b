"""Arithmetic the harness reports: open-loop latency, percentiles, steal.

Everything here is pure (no I/O except :func:`read_cpu_ticks`), so the
unit tests pin it down exactly.
"""

from __future__ import annotations

from typing import Sequence

#: Percentiles the tail metric may report, highest first.  The harness
#: reports the highest one that still has at least
#: :data:`TAIL_BEYOND` samples beyond it, so a short run never passes
#: off its single worst sample as a "p99".
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def latency_from_due(due: float, done: float) -> float:
    """Open-loop latency: a request is timed from when it was *due*.

    Counting from the due time (not the send time) charges a stall to
    every request that queued behind it, which a closed loop hides.
    """
    return done - due


def generator_lateness(due: float, connection_free: float, sent: float) -> float:
    """How late the load generator itself sent a request.

    A request cannot leave before it is due, nor before a connection is
    free to carry it; any delay past the later of the two is the
    generator's own (scheduling, steal, its own CPU), not the server's.
    """
    return sent - max(due, connection_free)


def rank_count(q: float, n: int) -> int:
    """1-based nearest rank of percentile ``q`` among ``n`` samples.

    Integer arithmetic on tenths of a percent, so ``99.9`` of ``1000``
    is rank 999 exactly (float ``99.9 * 1000 / 100`` rounds up past it).
    """
    tenths = int(round(q * 10))
    return max(1, -(-tenths * n // 1000))


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with ``TAIL_BEYOND`` samples past it.

    ``None`` when even the median lacks that many (``n < 20``).
    """
    for q in TAIL_LADDER:
        if n - rank_count(q, n) >= TAIL_BEYOND:
            return q
    return None


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (a value that was actually observed)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[rank_count(q, len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    """Nearest-rank median; with an even count, the lower middle value."""
    return percentile(values, 50.0)


def tail(values: Sequence[float]) -> tuple[float, float | None]:
    """``(value, q)`` of the tail percentile; the maximum when ``q`` is None."""
    q = tail_percentile(len(values))
    if q is None:
        return max(values), None
    return percentile(values, q), q


def penalised(latency: float, failed: bool, limit: float) -> float:
    """A failed operation counts as missing the latency limit.

    Shed, errored, lost and unsent requests enter the percentiles at
    ``max(limit, latency)``, so shedding load can never make the tail
    look better than answering it late.
    """
    return max(limit, latency) if failed else latency


def read_cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` jiffies of the host's aggregate CPU line."""
    with open("/proc/stat", "r", encoding="ascii") as handle:
        fields = handle.readline().split()
    ticks = [int(value) for value in fields[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already inside user, so it is not added twice.
    return ticks[7], sum(ticks[:8])


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of host CPU time stolen by the hypervisor between two reads."""
    total = after[1] - before[1]
    if total <= 0:
        return 0.0
    return (after[0] - before[0]) / total

