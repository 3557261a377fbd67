"""The load generator: one thread, at most ``connections`` sockets,
open-loop (Poisson schedule) or closed-loop, every response checked.

Open loop: a request is *due* at its scheduled time.  When every
connection is busy it waits in the generator, and its latency still
counts from the due time.  Each request records three instants besides
``due``: ``ready`` (due, or the moment a connection freed up for it),
``issued`` (request bytes handed to the kernel) and ``done`` (last
body byte received).  ``ready - due`` is the wait for a connection;
``issued - ready`` is the generator's own lateness, reported apart so a
starved generator does not read as a slow server.

Every response is checked against the manifest: status 200, exactly
one ``Content-Length`` equal to the file size, and the body's CRC32.
A mismatch, a reset, an early close or a connection silent for
``timeout`` seconds fails the request; the connection is dropped and a
new one is opened for the next request.  Failed requests are never
retried or excluded.
"""

from __future__ import annotations

import select
import socket
import time
import zlib
from collections import deque
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["LoadGenerator", "Request", "ResponseCheck", "ResponseError"]

#: seconds a request may go without completing before it fails
TIMEOUT_S = 1.0
_HEAD_LIMIT = 16384


class ResponseError(Exception):
    """The response does not match what the server must send."""


class ResponseCheck:
    """Incremental verifier of one HTTP/1.x response."""

    __slots__ = ("size", "crc", "head", "body_left", "body_crc")

    def __init__(self, size: int, crc: int):
        self.size = size
        self.crc = crc
        self.head = bytearray()
        self.body_left: Optional[int] = None
        self.body_crc = 0

    def feed(self, data: bytes) -> bool:
        """Consume received bytes; True once the whole response arrived
        and verified.  Raises :class:`ResponseError` on a mismatch."""
        if self.body_left is None:
            self.head += data
            end = self.head.find(b"\r\n\r\n")
            if end < 0:
                if len(self.head) > _HEAD_LIMIT:
                    raise ResponseError("header block too long")
                return False
            data = bytes(self.head[end + 4:])
            self._check_head(bytes(self.head[:end]))
            self.body_left = self.size
        if len(data) > self.body_left:
            raise ResponseError("bytes beyond Content-Length")
        self.body_crc = zlib.crc32(data, self.body_crc)
        self.body_left -= len(data)
        if self.body_left:
            return False
        if self.body_crc != self.crc:
            raise ResponseError("body CRC32 differs from the manifest")
        return True

    def _check_head(self, head: bytes) -> None:
        status, *fields = head.split(b"\r\n")
        parts = status.split(b" ", 2)
        if (len(parts) < 2 or not parts[0].startswith(b"HTTP/1.")
                or parts[1] != b"200"):
            raise ResponseError(f"status line {status[:80]!r}")
        lengths = [value.strip() for name, _, value in
                   (f.partition(b":") for f in fields)
                   if name.strip().lower() == b"content-length"]
        if len(lengths) != 1:
            raise ResponseError(f"{len(lengths)} Content-Length headers")
        if lengths[0] != str(self.size).encode():
            raise ResponseError(
                f"Content-Length {lengths[0][:20]!r} != {self.size}")


class Request:
    """One request and its timeline (monotonic seconds)."""

    __slots__ = ("path", "due", "ready", "issued", "done", "ok", "error")

    def __init__(self, path: str, due: float):
        self.path = path
        self.due = due
        self.ready = due
        self.issued = 0.0
        self.done = 0.0
        self.ok = False
        self.error = ""

    @property
    def latency(self) -> float:
        """Due to last byte; infinite for a failed request."""
        return self.done - self.due if self.ok else float("inf")


class _Slot:
    """One of the generator's connections."""

    __slots__ = ("sock", "sent", "request", "check", "free_at", "last",
                 "draining")

    def __init__(self):
        self.sock: Optional[socket.socket] = None
        self.sent = 0           # requests sent on the current socket
        self.request: Optional[Request] = None
        self.check: Optional[ResponseCheck] = None
        self.free_at = 0.0
        self.last = False       # the request in flight closes the socket
        self.draining = False   # its response is in; waiting for EOF


class LoadGenerator:
    """Drives one server port from the calling thread."""

    def __init__(self, port: int, manifest: Dict[str, Tuple[int, int]],
                 per_connection: int = 0, connections: int = 2,
                 host: str = "127.0.0.1", timeout: float = TIMEOUT_S,
                 clock=time.monotonic):
        self.address = (host, port)
        self.manifest = manifest
        self.per_connection = per_connection
        self.timeout = timeout
        self.clock = clock
        self.slots = [_Slot() for _ in range(connections)]
        #: error text -> count, over every request this generator made
        self.errors: Dict[str, int] = {}
        #: failures where the server sent wrong bytes (not a timeout,
        #: reset or early close): the output was incorrect
        self.mismatches = 0

    # -- phases -------------------------------------------------------------
    def open_loop(self, schedule: Sequence[Tuple[float, str]],
                  start: float) -> List[Request]:
        """Issue ``(offset, path)`` requests at ``start + offset``;
        return when every one has completed or failed."""
        requests = [Request(path, start + offset)
                    for offset, path in schedule]
        pending: deque = deque()
        upcoming = iter(requests)
        nxt = next(upcoming, None)
        while True:
            now = self.clock()
            while nxt is not None and nxt.due <= now:
                pending.append(nxt)
                nxt = next(upcoming, None)
            while pending:
                slot = self._free_slot()
                if slot is None:
                    break
                req = pending.popleft()
                req.ready = max(req.due, slot.free_at)
                self._issue(slot, req)
            if nxt is None and not pending and not self._busy():
                return requests
            wake = nxt.due if nxt is not None and not pending else None
            self._wait(wake)

    def closed_loop(self, paths: Iterator[str],
                    seconds: float) -> Tuple[List[Request], float, float]:
        """Keep every connection busy for ``seconds``; return the
        requests and the phase's (start, end)."""
        requests: List[Request] = []
        start = self.clock()
        end = start + seconds
        while True:
            now = self.clock()
            if now < end:
                slot = self._free_slot()
                while slot is not None and now < end:
                    req = Request(next(paths), now)
                    requests.append(req)
                    self._issue(slot, req)
                    slot = self._free_slot()
                    now = self.clock()
            elif not self._busy():
                return requests, start, end
            self._wait(end if now < end else None)

    def preconnect(self) -> None:
        """Open every connection now, so none is opened mid-phase."""
        for slot in self.slots:
            if slot.sock is None:
                slot.sock = socket.create_connection(self.address,
                                                     timeout=self.timeout)
                slot.sock.setblocking(False)

    def fetch(self, path: str) -> Request:
        """One request on an otherwise idle generator."""
        req = Request(path, self.clock())
        slot = self._free_slot()
        self._issue(slot, req)
        while not self._finished(req):
            self._wait(None)
        return req

    def close(self) -> None:
        for slot in self.slots:
            if slot.request is not None:
                self._fail(slot, "generator closed")
            self._drop(slot)

    # -- connection handling -----------------------------------------------
    def _free_slot(self) -> Optional[_Slot]:
        spare = None
        for slot in self.slots:
            if slot.request is None:
                if slot.sock is not None:
                    return slot
                spare = spare or slot
        return spare

    def _busy(self) -> bool:
        return any(slot.request is not None for slot in self.slots)

    @staticmethod
    def _finished(req: Request) -> bool:
        return req.ok or bool(req.error)

    def _issue(self, slot: _Slot, req: Request) -> None:
        size, crc = self.manifest[req.path]
        slot.request = req
        slot.check = ResponseCheck(size, crc)
        slot.last = (self.per_connection > 0
                     and slot.sent + 1 >= self.per_connection)
        head = f"GET {req.path} HTTP/1.1\r\nHost: bench\r\n"
        if slot.last:
            head += "Connection: close\r\n"
        data = (head + "\r\n").encode()
        req.issued = self.clock()
        try:
            if slot.sock is None:
                slot.sock = socket.create_connection(self.address,
                                                     timeout=self.timeout)
                slot.sock.setblocking(False)
                slot.sent = 0
            sent = slot.sock.send(data)
        except OSError as exc:
            self._fail(slot, f"send: {type(exc).__name__}")
            return
        if sent != len(data):
            self._fail(slot, "short request write")
            return
        slot.sent += 1

    def _wait(self, wake: Optional[float]) -> None:
        """Busy-poll until a socket is readable, a request times out or
        the clock reaches ``wake``; then process what happened.

        Polling instead of sleeping keeps the generator's CPU awake, so
        issue times do not carry the wake-up latency of an idle
        (virtual) CPU, which is milliseconds at the tail on a shared
        host."""
        deadline = wake
        socks = []
        for slot in self.slots:
            if slot.request is not None:
                socks.append(slot.sock)
                limit = slot.request.issued + self.timeout
                deadline = limit if deadline is None else min(deadline,
                                                              limit)
        readable = ()
        while deadline is not None or socks:
            if socks:
                readable = select.select(socks, [], [], 0)[0]
                if readable:
                    break
            if deadline is not None and self.clock() >= deadline:
                break
        for slot in self.slots:
            if slot.request is not None and slot.sock in readable:
                self._read(slot)
        now = self.clock()
        for slot in self.slots:
            req = slot.request
            if req is not None and now - req.issued > self.timeout:
                self._fail(slot, "timeout: connection silent")

    def _read(self, slot: _Slot) -> None:
        try:
            data = slot.sock.recv(262144)
        except BlockingIOError:
            return
        except OSError as exc:
            self._fail(slot, f"recv: {type(exc).__name__}")
            return
        now = self.clock()
        req = slot.request
        if slot.draining:
            if data:
                self.mismatches += 1
                self._fail(slot, "bytes after the response")
            else:
                self._succeed(slot, now)
            return
        if not data:
            self._fail(slot, "closed before the response completed")
            return
        try:
            complete = slot.check.feed(data)
        except ResponseError as exc:
            self.mismatches += 1
            self._fail(slot, str(exc))
            return
        if complete:
            req.done = now
            if slot.last:
                slot.draining = True
            else:
                self._succeed(slot, now)

    def _succeed(self, slot: _Slot, now: float) -> None:
        slot.request.ok = True
        if slot.last:
            self._drop(slot)
        self._release(slot, now)

    def _fail(self, slot: _Slot, error: str) -> None:
        req = slot.request
        req.ok = False
        req.error = error
        req.done = self.clock()
        self.errors[error] = self.errors.get(error, 0) + 1
        self._drop(slot)
        self._release(slot, req.done)

    @staticmethod
    def _release(slot: _Slot, now: float) -> None:
        slot.request = None
        slot.check = None
        slot.draining = False
        slot.free_at = now

    @staticmethod
    def _drop(slot: _Slot) -> None:
        if slot.sock is not None:
            slot.sock.close()
            slot.sock = None
        slot.sent = 0
