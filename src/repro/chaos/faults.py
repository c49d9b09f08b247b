"""Fault plans and the process-wide injector.

A :class:`FaultPlan` decides *what* fails: which registered fault
point fires, on which invocation, with which fault class.  Plans are
either pinned (:meth:`FaultPlan.single` — the sweep pins the point and
seeds the rest) or fully seeded (:meth:`FaultPlan.seeded` — one
``random.Random(seed)`` draw over the catalog), and they round-trip
through JSON so a failing CI run is reproducible from the printed
payload alone.

A :class:`FaultInjector` arms a plan process-wide for the duration of
a ``with`` block.  Call sites visit their point via
:func:`repro.chaos.points.chaos_point`; the injector counts
invocations per point (thread-safely — points fire from the event
loop and from executor threads) and manifests the planned fault
exactly once.

Crash fidelity
--------------
:class:`InjectedCrash` derives from ``BaseException``, not
``Exception``: a simulated ``kill -9`` must not be swallowed by the
gateway's 500 handler, the coalescer's backend-failure net, or any
other broad ``except Exception`` between the point and the harness.
The save paths' crash-time cleanup was likewise rewritten from
``finally`` to ``except Exception`` so an injected crash leaves the
same on-disk debris a real kill would — which is exactly what the
orphan-cleanup invariant then has to survive.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.chaos import points as _points
from repro.chaos.points import FAULT_POINTS, FaultPoint, fault_point
from repro.errors import ChaosError

__all__ = [
    "InjectedCrash",
    "InjectedDisconnect",
    "FaultSpec",
    "FaultPlan",
    "FiredFault",
    "FaultInjector",
]


class InjectedCrash(BaseException):
    """A simulated process kill at a fault point.

    Deliberately a ``BaseException``: no ``except Exception`` handler
    between the fault point and the harness may absorb it, mirroring
    how a real ``SIGKILL`` ends the process no matter what the code
    around it intended to handle.
    """

    def __init__(self, point: str, invocation: int) -> None:
        super().__init__(
            f"injected crash at {point} (invocation {invocation})"
        )
        self.point = point
        self.invocation = invocation


class InjectedDisconnect(ConnectionResetError):
    """A simulated peer reset at a gateway socket fault point.

    Subclasses ``ConnectionResetError`` so the gateway's existing
    connection-error handling treats it exactly like a real client
    drop — no chaos-aware branches in production code.
    """

    def __init__(self, point: str, invocation: int) -> None:
        super().__init__(
            f"injected disconnect at {point} (invocation {invocation})"
        )
        self.point = point
        self.invocation = invocation


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: fire ``kind`` at ``point``'s ``invocation``."""

    point: str
    kind: str
    invocation: int
    delay_seconds: float = 0.05

    def __post_init__(self) -> None:
        declared = fault_point(self.point)  # raises on unknown points
        if self.kind not in declared.kinds:
            raise ChaosError(
                f"fault point {self.point!r} does not support kind "
                f"{self.kind!r} (declared: {list(declared.kinds)})"
            )
        if self.invocation < 0:
            raise ChaosError(
                f"invocation must be >= 0, got {self.invocation}"
            )
        if self.delay_seconds < 0:
            raise ChaosError(
                f"delay_seconds must be >= 0, got {self.delay_seconds}"
            )

    def to_payload(self) -> dict[str, Any]:
        return {
            "point": self.point,
            "kind": self.kind,
            "invocation": self.invocation,
            "delay_seconds": self.delay_seconds,
        }


@dataclass(frozen=True)
class FiredFault:
    """A fault the injector actually manifested."""

    point: str
    kind: str
    invocation: int


@dataclass(frozen=True)
class FaultPlan:
    """The full failure schedule of one harness run.

    Attributes
    ----------
    specs:
        The planned faults (each fires at most once).  The sweep uses
        single-spec plans — one failure per run keeps every invariant
        attributable to one fault.
    seed:
        The seed that produced the plan (``None`` for pinned plans);
        carried in reports so a failing run names its reproduction.
    """

    specs: tuple[FaultSpec, ...]
    seed: int | None = None

    @classmethod
    def single(
        cls,
        point: str,
        *,
        kind: str | None = None,
        invocation: int = 0,
        delay_seconds: float = 0.05,
        seed: int | None = None,
    ) -> "FaultPlan":
        """A plan firing one fault at ``point``.

        ``kind`` defaults to the point's first declared kind.
        """
        declared = fault_point(point)
        chosen = declared.kinds[0] if kind is None else kind
        return cls(
            specs=(
                FaultSpec(
                    point=point,
                    kind=chosen,
                    invocation=invocation,
                    delay_seconds=delay_seconds,
                ),
            ),
            seed=seed,
        )

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        point: str | None = None,
        catalog: Sequence[FaultPoint] = FAULT_POINTS,
    ) -> "FaultPlan":
        """One seeded draw over the catalog.

        With ``point`` pinned (the sweep pins it to cover every point)
        the seed still chooses the fault kind and the firing
        invocation — bounded by the point's ``max_invocation`` so no
        seed draws an invocation the scenario never reaches.
        """
        rng = random.Random(seed)
        if point is None:
            declared = catalog[rng.randrange(len(catalog))]
        else:
            declared = fault_point(point)
        kind = declared.kinds[rng.randrange(len(declared.kinds))]
        invocation = rng.randrange(declared.max_invocation + 1)
        return cls(
            specs=(
                FaultSpec(
                    point=declared.name,
                    kind=kind,
                    invocation=invocation,
                ),
            ),
            seed=seed,
        )

    def to_payload(self) -> dict[str, Any]:
        """The JSON object ``repro chaos plan`` prints."""
        return {
            "format": "repro-chaos-plan",
            "seed": self.seed,
            "specs": [spec.to_payload() for spec in self.specs],
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_payload` output."""
        if payload.get("format") != "repro-chaos-plan":
            raise ChaosError(
                "not a chaos plan payload (missing format marker)"
            )
        try:
            raw_specs = payload["specs"]
            specs = tuple(
                FaultSpec(
                    point=str(raw["point"]),
                    kind=str(raw["kind"]),
                    invocation=int(raw["invocation"]),
                    delay_seconds=float(raw.get("delay_seconds", 0.05)),
                )
                for raw in raw_specs
            )
            raw_seed = payload.get("seed")
            seed = None if raw_seed is None else int(raw_seed)
        except (KeyError, TypeError, ValueError) as error:
            raise ChaosError(
                f"malformed chaos plan payload ({error!r})"
            ) from None
        return cls(specs=specs, seed=seed)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return json.dumps(self.to_payload())


@dataclass
class FaultInjector:
    """Arm a :class:`FaultPlan` process-wide for a ``with`` block.

    The injector is the only mutable piece of the chaos plane: it
    counts invocations per fault point (under a lock — gateway points
    are visited from executor threads and the event-loop thread
    concurrently) and manifests each planned fault exactly once,
    recording it in :attr:`fired`.

    Only one injector may be armed at a time; nesting is refused with
    :class:`~repro.errors.ChaosError` rather than silently merging two
    failure schedules.
    """

    plan: FaultPlan
    fired: list[FiredFault] = field(default_factory=list)
    invocations: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._remaining = list(self.plan.specs)

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def __enter__(self) -> "FaultInjector":
        if _points._ARMED is not None:
            raise ChaosError(
                "a FaultInjector is already armed in this process; "
                "chaos plans do not nest"
            )
        _points._ARMED = self
        return self

    def __exit__(self, *exc_info: Any) -> None:
        _points._ARMED = None

    # ------------------------------------------------------------------
    # The visit path (called from chaos_point)
    # ------------------------------------------------------------------
    def _visit(self, name: str) -> FaultSpec | None:
        with self._lock:
            invocation = self.invocations.get(name, 0)
            self.invocations[name] = invocation + 1
            matched: FaultSpec | None = None
            for spec in self._remaining:
                if spec.point == name and spec.invocation == invocation:
                    matched = spec
                    break
            if matched is None:
                return None
            self._remaining.remove(matched)
            self.fired.append(
                FiredFault(
                    point=name,
                    kind=matched.kind,
                    invocation=invocation,
                )
            )
        if matched.kind == "crash":
            raise InjectedCrash(name, invocation)
        if matched.kind == "disconnect":
            raise InjectedDisconnect(name, invocation)
        if matched.kind == "delay":
            time.sleep(matched.delay_seconds)
            return None
        return matched  # "torn": the call site manifests it
