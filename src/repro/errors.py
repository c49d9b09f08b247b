"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch a single base class at API
boundaries while still being able to distinguish failure modes.
"""

from __future__ import annotations

from functools import partial


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """A citation network is structurally invalid or used inconsistently."""


class DataFormatError(ReproError):
    """An input file does not conform to the expected dataset format."""


class IndexIntegrityError(DataFormatError):
    """A persisted score index is internally inconsistent.

    Raised by the index and store loaders for a file that is damaged
    (a checksum fails), malformed (its header or array table), or
    whose pieces disagree: method metadata naming unknown or duplicate
    labels, score vectors missing or undeclared, shard columns of
    mismatched lengths.  Subclasses :class:`DataFormatError`, so
    callers catching format problems broadly keep working.
    """


class ConfigurationError(ReproError):
    """A method or experiment was configured with invalid parameters."""


class ConvergenceError(ReproError):
    """An iterative solver failed to converge within its iteration budget.

    Attributes
    ----------
    iterations:
        Number of iterations performed before giving up.
    residual:
        The last observed convergence residual (L1 change of the score
        vector between successive iterations).
    """

    def __init__(self, message: str, *, iterations: int, residual: float) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual

    def __reduce__(self) -> tuple[object, ...]:
        # The default reduction rebuilds ``cls(*args)``, which lacks the
        # keywords: an error raised on a worker process could not be
        # unpickled, and the pool would break instead of re-raising it.
        rebuild = partial(
            type(self), iterations=self.iterations, residual=self.residual
        )
        return rebuild, self.args, self.__dict__


class EvaluationError(ReproError):
    """An evaluation request is inconsistent with the data it is given."""


class GatewayError(ReproError):
    """The HTTP serving gateway cannot accept or complete a request.

    Raised for gateway-level failures: submitting to a coalescer that
    is shutting down, malformed HTTP requests beyond the parser's
    limits, or a server asked to start twice.  Load shedding is *not*
    an error — the admission layer answers 429/503 responses without
    raising — but a request caught mid-drain surfaces as this type so
    callers can distinguish "the gateway refused" from "the query was
    invalid".
    """


class SharedStoreError(ReproError):
    """The shared-memory score store protocol was violated.

    Raised when a generation segment or board is missing, damaged,
    malformed, or from an incompatible layout version; when a reader
    asks for a generation before anything was published; or when the
    generation board runs out of slots because readers pin too many
    superseded generations.  Crashed *workers* never surface as this
    type — the supervisor handles those — only protocol misuse does.
    """


class ChaosError(ReproError):
    """The fault-injection harness was misused or misconfigured.

    Raised for chaos-plane mistakes — naming an unregistered fault
    point, planning a fault kind a point does not declare, arming two
    injectors at once — never for the *injected* faults themselves:
    those surface as :class:`repro.chaos.InjectedCrash` (a
    ``BaseException``, so nothing can accidentally handle a simulated
    kill) or :class:`repro.chaos.InjectedDisconnect` (a
    ``ConnectionResetError``, so the gateway treats it like a real
    peer reset).
    """


class StreamError(ReproError):
    """An event log or stream replay violates the streaming contract.

    Raised when an event log is not replayable (events out of time
    order, citation events detached from their citing paper's event),
    when a checkpoint does not match the log it is resumed against, or
    when a replay is driven past the end of its log.
    """
