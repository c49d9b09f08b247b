"""Structured JSON-lines logging with request-id propagation.

One log line is one JSON object on stderr — machine-parseable under
load, greppable by request id.  The request id itself lives in a
:data:`contextvars.ContextVar`: the gateway binds one per request, the
coalescer runs each batch under its leading submitter's context, and a
:class:`logging.Filter` stamps the current id onto every record
at call time — so a log line emitted three layers below the gateway
still correlates with the ``X-Request-Id`` header the client saw.

Nothing here runs unless :func:`configure_logging` is called (the CLI
does for ``serve-http``; ``REPRO_LOG_LEVEL`` / ``REPRO_LOG_FORMAT``
drive the defaults): an unconfigured ``repro.*`` logger propagates to
the root logger, whose default WARNING threshold drops the serving
layers' INFO/DEBUG telemetry on the cheap ``isEnabledFor`` check.
"""

from __future__ import annotations

import json as _json
import logging
import os
import sys
import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from datetime import datetime, timezone
from typing import Any, Iterator, TextIO

__all__ = [
    "JsonLinesFormatter",
    "bind_request_id",
    "clear_worker_identity",
    "configure_logging",
    "current_request_id",
    "get_logger",
    "get_worker_identity",
    "new_request_id",
    "request_id_var",
    "reset_logging",
    "sanitize_request_id",
    "set_worker_identity",
]

_ROOT_NAME = "repro"
_ENV_LEVEL = "REPRO_LOG_LEVEL"
_ENV_FORMAT = "REPRO_LOG_FORMAT"

#: The per-request correlation id; ``None`` outside any request.
request_id_var: ContextVar[str | None] = ContextVar(
    "repro_request_id", default=None
)


def new_request_id() -> str:
    """A fresh 16-hex-digit request id."""
    return uuid.uuid4().hex[:16]


def current_request_id() -> str | None:
    """The request id bound in the calling context, if any."""
    return request_id_var.get()


#: Longest client-supplied request id adopted verbatim; anything
#: longer is truncated to this many bytes (headers are latin-1, so
#: characters are bytes here).
MAX_REQUEST_ID_BYTES = 128


def sanitize_request_id(raw: str | None) -> str | None:
    """A client ``X-Request-Id`` made safe to adopt, or ``None``.

    The id lands verbatim in every JSON log line, trace tree, and
    profiler attribution key this request touches, so a hostile header
    must not be able to smuggle structure into them: ids containing
    control characters (including CR/LF — header-injection classics —
    and DEL) are rejected outright, and the caller falls back to its
    generated id.  Oversized ids are truncated to
    :data:`MAX_REQUEST_ID_BYTES` rather than rejected — length is a
    resource concern, not an injection one.
    """
    if not raw:
        return None
    cleaned = raw.strip()[:MAX_REQUEST_ID_BYTES]
    if not cleaned:
        return None
    for char in cleaned:
        code = ord(char)
        if code < 0x20 or code == 0x7F:
            return None
    return cleaned


#: ``(label, pid)`` of this process within a worker fleet, or ``None``
#: outside ``--workers N`` mode.  Process-global on purpose: identity
#: is a property of the process, not of a request context.
_WORKER_IDENTITY: tuple[str, int] | None = None


def set_worker_identity(label: str, pid: int | None = None) -> None:
    """Mark this process as fleet member ``label``.

    Every JSON log line gains ``worker``/``worker_pid`` fields and the
    gateway stamps a ``worker`` label onto its exported metrics.  The
    supervisor sets ``"supervisor"``; each forked worker overwrites
    the inherited value with its own index at startup.
    """
    global _WORKER_IDENTITY
    _WORKER_IDENTITY = (str(label), os.getpid() if pid is None else pid)


def clear_worker_identity() -> None:
    """Back to single-process logging (tests and re-used processes)."""
    global _WORKER_IDENTITY
    _WORKER_IDENTITY = None


def get_worker_identity() -> tuple[str, int] | None:
    """The ``(label, pid)`` set by :func:`set_worker_identity`."""
    return _WORKER_IDENTITY


@contextmanager
def bind_request_id(request_id: str) -> Iterator[str]:
    """Bind ``request_id`` in this context for the duration of the block."""
    token = request_id_var.set(request_id)
    try:
        yield request_id
    finally:
        request_id_var.reset(token)


class _RequestIdFilter(logging.Filter):
    """Stamp the contextvar request id onto every record at call time.

    A *filter* rather than formatter logic: the record is stamped in
    the context that emitted it, so a handler formatting records later
    (or on another thread) still sees the right id.
    """

    def filter(self, record: logging.LogRecord) -> bool:
        if not hasattr(record, "request_id"):
            record.request_id = request_id_var.get()
        return True


#: LogRecord's own attributes; anything else on a record is an
#: ``extra=`` field the formatter should surface as a JSON key.
_RESERVED = frozenset(
    vars(logging.makeLogRecord({})).keys()
) | {"request_id", "taskName", "message", "asctime"}

#: One shared encoder: skips ``json.dumps``'s per-call argument
#: processing and encoder construction on the hot path.
_ENCODER = _json.JSONEncoder(separators=(",", ":"), default=str)


def _record_extras(record: logging.LogRecord) -> dict[str, Any]:
    return {
        key: value
        for key, value in vars(record).items()
        if key not in _RESERVED
    }


class JsonLinesFormatter(logging.Formatter):
    """One JSON object per line: ts, level, logger, message, extras.

    Schema (documented in ``docs/OBSERVABILITY.md``)::

        {"ts": "2026-08-07T12:00:00.123456+00:00", "level": "INFO",
         "logger": "repro.gateway", "message": "request",
         "request_id": "9f2c...-3", ...extra fields..., "exc": "..."}

    ``request_id`` appears whenever one is bound in the emitting
    context; ``exc`` carries the formatted traceback when the record
    has exception info.  Extra fields that are not JSON-serialisable
    are stringified rather than dropped — a log line must never raise.
    """

    def __init__(self) -> None:
        super().__init__()
        # The to-the-second prefix repeats across consecutive records,
        # so it is cached; a cross-thread race merely recomputes it.
        self._ts_second = -1
        self._ts_prefix = ""

    def _timestamp(self, created: float) -> str:
        second = int(created)
        if second != self._ts_second:
            self._ts_prefix = datetime.fromtimestamp(
                second, tz=timezone.utc
            ).strftime("%Y-%m-%dT%H:%M:%S")
            self._ts_second = second
        return f"{self._ts_prefix}.{int((created - second) * 1e6):06d}+00:00"

    def format(self, record: logging.LogRecord) -> str:
        entry: dict[str, Any] = {
            "ts": self._timestamp(record.created),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        request_id = getattr(record, "request_id", None)
        if request_id is None:
            request_id = request_id_var.get()
        if request_id is not None:
            entry["request_id"] = request_id
        entry.update(_record_extras(record))
        identity = _WORKER_IDENTITY
        if identity is not None:
            # After the extras on purpose: ``worker`` is the identity
            # of the *emitting* process and must win over any extra
            # that happens to share the key (a supervisor line about
            # worker 3 still carries worker: "supervisor").
            entry["worker"], entry["worker_pid"] = identity
        if record.exc_info:
            entry["exc"] = self.formatException(record.exc_info)
        return _ENCODER.encode(entry)


class _HumanFormatter(logging.Formatter):
    """The text fallback: timestamped line plus rendered extras."""

    def format(self, record: logging.LogRecord) -> str:
        head = (
            f"{datetime.fromtimestamp(record.created).isoformat()} "
            f"{record.levelname:<7} {record.name}: {record.getMessage()}"
        )
        parts = []
        request_id = getattr(record, "request_id", None)
        if request_id:
            parts.append(f"request_id={request_id}")
        identity = _WORKER_IDENTITY
        if identity is not None:
            parts.append(f"worker={identity[0]}")
        parts.extend(
            f"{key}={value}"
            for key, value in sorted(_record_extras(record).items())
        )
        if parts:
            head = f"{head} [{' '.join(parts)}]"
        if record.exc_info:
            head = f"{head}\n{self.formatException(record.exc_info)}"
        return head


def _resolve_level(level: str | int | None) -> int:
    if level is None:
        level = os.environ.get(_ENV_LEVEL, "INFO")
    if isinstance(level, int):
        return level
    resolved = logging.getLevelName(str(level).upper())
    if not isinstance(resolved, int):
        from repro.errors import ConfigurationError

        raise ConfigurationError(f"unknown log level: {level!r}")
    return resolved


def configure_logging(
    level: str | int | None = None,
    *,
    json: bool | None = None,
    stream: TextIO | None = None,
) -> logging.Logger:
    """Install the ``repro`` handler; returns the configured logger.

    Parameters
    ----------
    level:
        Threshold name or number; default from ``REPRO_LOG_LEVEL``
        (falling back to ``INFO``).
    json:
        JSON-lines output (default) vs human-readable text; default
        from ``REPRO_LOG_FORMAT`` (``json``/``text``).
    stream:
        Destination (default ``sys.stderr`` — stdout stays free for
        command output).

    Reconfiguring replaces the previously installed handler, so tests
    and the overhead bench can flip the sink without stacking handlers.

    Configuring also applies the stdlib logging "Optimization" knobs
    (caller/thread/process capture off): the JSON schema never emits
    those fields, so collecting them per record is pure overhead on
    the request path.  :func:`reset_logging` restores the defaults.
    """
    if json is None:
        json = os.environ.get(_ENV_FORMAT, "json").lower() != "text"
    _set_capture_flags(enabled=False)
    logger = logging.getLogger(_ROOT_NAME)
    _remove_obs_handlers(logger)
    handler = logging.StreamHandler(stream or sys.stderr)
    handler.addFilter(_RequestIdFilter())
    handler.setFormatter(
        JsonLinesFormatter() if json else _HumanFormatter()
    )
    handler._repro_obs_handler = True  # type: ignore[attr-defined]
    logger.addHandler(handler)
    logger.setLevel(_resolve_level(level))
    # Stop at our handler: the root logger must not double-print, and
    # pytest's capture handler would otherwise re-render every line.
    logger.propagate = False
    return logger


def reset_logging() -> None:
    """Remove the installed handler and restore the unconfigured state."""
    _set_capture_flags(enabled=True)
    logger = logging.getLogger(_ROOT_NAME)
    _remove_obs_handlers(logger)
    logger.setLevel(logging.NOTSET)
    logger.propagate = True


#: ``logging._srcfile`` as imported, so reset can restore caller capture.
_SRCFILE_DEFAULT = getattr(logging, "_srcfile", None)


def _set_capture_flags(*, enabled: bool) -> None:
    """Toggle the stdlib per-record capture work (docs: "Optimization").

    Disabling skips the stack walk behind ``%(pathname)s`` and the
    thread/process lookups on every record — none of which the JSON or
    text schema emits.
    """
    logging.logThreads = enabled
    logging.logProcesses = enabled
    logging.logMultiprocessing = enabled
    # Private but the documented lever for skipping findCaller().
    setattr(logging, "_srcfile", _SRCFILE_DEFAULT if enabled else None)


def _remove_obs_handlers(logger: logging.Logger) -> None:
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_obs_handler", False):
            logger.removeHandler(handler)
            handler.close()


def get_logger(name: str) -> logging.Logger:
    """The ``repro.<name>`` logger (namespaced under the obs handler)."""
    return logging.getLogger(f"{_ROOT_NAME}.{name}")
