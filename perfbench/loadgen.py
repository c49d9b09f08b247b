"""Open-loop HTTP load from one thread over a few keep-alive connections.

Request ``i`` is due at ``start + i / rate`` whatever the server does, so
a slow server builds a queue instead of receiving less load.  Each
request is timed from its due time; the generator's own lateness (send
time minus the later of due time and the moment a connection was free)
is recorded beside it, so a run whose generator fell behind shows it.
"""

from __future__ import annotations

import collections
import selectors
import socket
import time
from dataclasses import dataclass
from typing import Callable, Sequence


@dataclass
class Outcome:
    """What happened to one scheduled request."""

    due: float
    sent: float | None = None
    free: float | None = None
    done: float | None = None
    status: int | None = None
    body: bytes = b""
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.status == 200


class _Connection:
    def __init__(self, address: tuple[str, int], now: float) -> None:
        self.address = address
        self.sock = socket.create_connection(address, timeout=5.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.free_since = now
        self.current: Outcome | None = None
        self.buffer = bytearray()

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def render_request(path: str, request_id: str) -> bytes:
    """One keep-alive GET carrying the request id the gateway adopts."""
    return (
        f"GET {path} HTTP/1.1\r\nHost: perfbench\r\n"
        f"X-Request-Id: {request_id}\r\n\r\n"
    ).encode("ascii")


def _parse_response(buffer: bytearray) -> tuple[int, bytes, bool, int] | None:
    """``(status, body, close, consumed)`` once a whole response is buffered."""
    end = buffer.find(b"\r\n\r\n")
    if end < 0:
        return None
    head = bytes(buffer[:end]).decode("latin-1").split("\r\n")
    status = int(head[0].split()[1])
    length = 0
    close = False
    for line in head[1:]:
        name, _, value = line.partition(":")
        name = name.strip().lower()
        if name == "content-length":
            length = int(value.strip())
        elif name == "connection":
            close = value.strip().lower() == "close"
    total = end + 4 + length
    if len(buffer) < total:
        return None
    return status, bytes(buffer[end + 4 : total]), close, total


def run_open_loop(
    address: tuple[str, int],
    requests: Sequence[bytes],
    *,
    rate: float,
    start: float,
    connections: int,
    grace: float,
    marks: Sequence[tuple[float, Callable[[], None]]] = (),
) -> list[Outcome]:
    """Send ``requests`` on an even schedule; return one outcome each.

    The window closes when the last request is due plus one interval;
    requests already due and queued behind busy connections are still
    sent until ``grace`` seconds later.  At that drain deadline a
    request never sent fails as ``unsent`` and one in flight as
    ``lost``.  ``marks`` are
    ``(time, callback)`` pairs run on schedule from the same thread
    (counter snapshots at window edges), each kept to microseconds.
    """
    interval = 1.0 / rate
    outcomes = [Outcome(due=start + i * interval) for i in range(len(requests))]
    close_at = start + len(requests) * interval
    selector = selectors.DefaultSelector()
    conns = [_Connection(address, time.perf_counter()) for _ in range(connections)]
    for conn in conns:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    idle = collections.deque(conns)
    ready: collections.deque[int] = collections.deque()
    pending_marks = sorted(marks, key=lambda mark: mark[0])
    next_due = 0
    busy = 0

    def fail_connection(conn: _Connection, reason: str) -> None:
        nonlocal busy
        if conn.current is not None:
            conn.current.error = reason
            conn.current = None
            busy -= 1
        if conn in idle:
            idle.remove(conn)
        selector.unregister(conn.sock)
        conn.close()
        try:
            replacement = _Connection(address, time.perf_counter())
        except OSError:
            return
        conn.__dict__.update(replacement.__dict__)
        selector.register(conn.sock, selectors.EVENT_READ, conn)
        idle.append(conn)

    try:
        while True:
            now = time.perf_counter()
            while pending_marks and pending_marks[0][0] <= now:
                pending_marks.pop(0)[1]()
            while next_due < len(outcomes) and outcomes[next_due].due <= now:
                ready.append(next_due)
                next_due += 1
            if now >= close_at + grace:
                for index in ready:
                    outcomes[index].error = "unsent"
                for conn in conns:
                    if conn.current is not None:
                        conn.current.error = "lost: no answer by the drain deadline"
                        conn.current = None
                break
            while ready and idle:
                conn = idle.popleft()
                index = ready.popleft()
                outcome = outcomes[index]
                outcome.free = conn.free_since
                outcome.sent = time.perf_counter()
                conn.current = outcome
                busy += 1
                try:
                    conn.sock.sendall(requests[index])
                except OSError as error:
                    fail_connection(conn, f"lost: {error.__class__.__name__}")
            if next_due >= len(outcomes) and not ready and busy == 0 and not pending_marks:
                break
            wake = close_at + grace
            if next_due < len(outcomes):
                wake = min(wake, outcomes[next_due].due)
            if pending_marks:
                wake = min(wake, pending_marks[0][0])
            for key, _ in selector.select(max(0.0, wake - time.perf_counter())):
                conn = key.data
                try:
                    chunk = conn.sock.recv(1 << 16)
                except OSError as error:
                    fail_connection(conn, f"lost: {error.__class__.__name__}")
                    continue
                if not chunk:
                    fail_connection(conn, "lost: connection closed")
                    continue
                conn.buffer += chunk
                parsed = _parse_response(conn.buffer)
                if parsed is None:
                    continue
                status, body, close, consumed = parsed
                del conn.buffer[:consumed]
                finished = time.perf_counter()
                outcome = conn.current
                if outcome is not None:
                    outcome.done = finished
                    outcome.status = status
                    outcome.body = body
                    if status != 200:
                        outcome.error = f"status {status}"
                    conn.current = None
                    busy -= 1
                conn.free_since = finished
                if close:
                    fail_connection(conn, "lost: connection closed")
                else:
                    idle.append(conn)
    finally:
        for conn in conns:
            conn.close()
        selector.close()
    return outcomes
