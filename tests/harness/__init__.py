"""Deterministic concurrency harness for the socket-level tests.

Three small tools replace ad-hoc ``time.sleep()`` synchronization:

* :class:`FakeClock` — a manually advanced monotonic clock for
  components that accept a ``clock`` callable (e.g. the idle reaper),
  so deadline logic is tested without real waiting;
* :func:`wait_until` — poll a predicate with a deadline and a helpful
  failure message, the one sanctioned way to wait for cross-thread
  state (counters, tracer records) to become visible;
* :class:`ServerFixture` — a context manager owning a started server's
  lifecycle plus the client-side plumbing every integration test was
  re-implementing (connect, framed request/response, raw HTTP GET);
* :func:`generated_server` — a generated N-Server framework for an
  option set, generated and imported once per test session;
* :func:`trace_floor` / :func:`flight_events` — one test's slice of the
  process-global flight ring that generated servers record to;
* :func:`http_get` / :func:`reply_complete` — one raw HTTP exchange
  that returns whatever bytes arrived, for tests that inspect malformed
  or partial replies.

The package lives under ``tests/`` (made importable as ``harness`` by
``tests/conftest.py``) because it is test infrastructure, not library
code: nothing under ``src/`` may depend on it.
"""

from __future__ import annotations

import atexit
import shutil
import socket
import tempfile
import time
import zlib
from typing import Callable, Optional

__all__ = ["FakeClock", "FakeHandle", "ServerFixture", "feed",
           "flight_events", "generated_framework", "generated_server",
           "http_get", "reply_complete", "trace_floor", "wait_until"]


class FakeClock:
    """A monotonic clock that only moves when the test says so.

    Pass ``clock=fake_clock`` to a component that takes a time source
    (e.g. :class:`repro.runtime.idle.IdleConnectionReaper`), then call
    :meth:`advance` to step time deterministically.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self.sleeps: list[float] = []

    def __call__(self) -> float:
        return self._now

    def monotonic(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("a monotonic clock cannot go backwards")
        self._now += float(seconds)

    def sleep(self, seconds: float) -> None:
        """Record the sleep and advance instantly — no real waiting."""
        self.sleeps.append(float(seconds))
        self.advance(seconds)


class FakeHandle:
    """In-memory stand-in for a SocketHandle: Communicator unit tests
    inject bytes with :func:`feed` and read replies off ``sent``."""

    def __init__(self):
        self.name = "fake"
        self.out_buffer = bytearray()
        self.sent = bytearray()
        self.last_activity = 0.0
        self.closed = False

    def try_recv(self, max_bytes=65536):
        return None

    def try_send(self):
        n = len(self.out_buffer)
        self.sent.extend(self.out_buffer)
        del self.out_buffer[:]
        return n

    @property
    def wants_write(self):
        return bool(self.out_buffer)

    def fileno(self):
        return -1

    def close(self):
        self.closed = True


def feed(conn, data: bytes) -> None:
    """Inject bytes into a Communicator as if the socket delivered
    them."""
    conn.in_buffer.extend(data)
    conn._pump_requests()


def wait_until(predicate: Callable[[], bool], timeout: float = 10.0,
               interval: float = 0.005,
               message: Optional[str] = None) -> bool:
    """Poll ``predicate`` until true or ``timeout`` elapses.

    Raises ``AssertionError`` on timeout when ``message`` is given;
    otherwise returns False so callers can assert with their own text.
    """
    deadline = time.monotonic() + timeout
    while True:
        if predicate():
            return True
        if time.monotonic() >= deadline:
            if message is not None:
                raise AssertionError(
                    f"condition not met within {timeout:.1f}s: {message}")
            return False
        time.sleep(interval)


_FRAMEWORKS: dict = {}


def generated_framework(options: dict):
    """The generated N-Server framework module for ``options``.

    Generation and import run once per option set per test session;
    every later call returns the cached module, so a test file can
    build as many servers as it likes without paying for codegen.
    """
    key = repr(sorted(options.items(), key=lambda item: item[0]))
    fw = _FRAMEWORKS.get(key)
    if fw is None:
        from repro.co2p3s.nserver import NSERVER
        from repro.co2p3s.template import load_generated_package
        dest = tempfile.mkdtemp(prefix="nserver_fw_")
        atexit.register(shutil.rmtree, dest, True)
        package = f"harness_fw_{zlib.crc32(key.encode()):08x}"
        NSERVER.generate(NSERVER.configure(dict(options)), dest,
                         package=package)
        fw = _FRAMEWORKS[key] = load_generated_package(dest, package)
    return fw


def generated_server(options: dict, hooks, **settings):
    """A not-yet-started generated ``Server`` over ``hooks``, tuned by
    ``settings`` (any ``ServerConfiguration`` attribute)."""
    fw = generated_framework(options)
    return fw.Server(hooks, configuration=fw.ServerConfiguration(**settings))


def trace_floor() -> int:
    """A fresh trace id.  Every id allocated later in this process is
    greater, so :func:`flight_events` can tell a test's requests from
    earlier tests' in the shared flight ring."""
    from repro.obs.tracing import next_trace_id
    return next_trace_id()


def flight_events(since: int, category: Optional[str] = None,
                  events=None) -> list:
    """Flight events of traces allocated after ``since`` — from
    ``events`` (e.g. parsed dump files) or the live process-global
    ring — optionally of one category."""
    if events is None:
        from repro.obs.flight import GLOBAL
        events = GLOBAL.events()
    return [event for event in events if event.trace_id > since
            and (category is None or event.category == category)]


def http_get(port: int, request: bytes, timeout: float = 5.0) -> bytes:
    """Send raw ``request`` bytes; return what arrived until one
    ``Content-Length``-framed reply was complete, EOF or ``timeout``.
    Tolerant on purpose, unlike :mod:`repro.load`: malformed-request
    tests assert on the partial bytes."""
    with socket.create_connection(("127.0.0.1", port), timeout) as s:
        s.sendall(request)
        buf = b""
        while not reply_complete(buf):
            try:
                chunk = s.recv(65536)
            except socket.timeout:
                break
            if not chunk:
                break
            buf += chunk
        return buf


def reply_complete(buf: bytes) -> bool:
    """Whether ``buf`` holds a whole ``Content-Length``-framed reply."""
    head, sep, body = buf.partition(b"\r\n\r\n")
    if not sep:
        return False
    for line in head.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            return len(body) >= int(line.split(b":")[1])
    return False


class ServerFixture:
    """Own a server's start/stop lifecycle and its client plumbing.

    Works with any object exposing ``start()``, ``stop()`` and ``port``
    — the static ``ReactorServer`` and the generated ``Server`` facade
    alike.  ``stop()`` is exactly-once: tests that drain/stop early
    call :meth:`mark_stopped`.
    """

    def __init__(self, server, host: str = "127.0.0.1",
                 connect_timeout: float = 5.0):
        self.server = server
        self.host = host
        self.connect_timeout = connect_timeout
        self._stopped = False

    # -- lifecycle -------------------------------------------------------
    def __enter__(self) -> "ServerFixture":
        self.server.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def port(self) -> int:
        return self.server.port

    def mark_stopped(self) -> None:
        """The test already stopped/drained the server itself."""
        self._stopped = True

    def stop(self) -> None:
        if not self._stopped:
            self._stopped = True
            self.server.stop()

    # -- client plumbing -------------------------------------------------
    def connect(self, timeout: Optional[float] = None) -> socket.socket:
        timeout = self.connect_timeout if timeout is None else timeout
        s = socket.create_connection((self.host, self.port), timeout=timeout)
        s.settimeout(timeout)
        return s

    def read_line(self, sock: socket.socket) -> bytes:
        """Read until newline or EOF (the tests' framing)."""
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(4096)
            if not chunk:
                break
            buf += chunk
        return buf

    def request(self, payload: bytes, timeout: Optional[float] = None) -> bytes:
        """One connection, one newline-framed request/response."""
        s = self.connect(timeout)
        try:
            s.sendall(payload)
            return self.read_line(s)
        finally:
            s.close()

    def http_get(self, path: str, timeout: float = 5.0) -> bytes:
        """One-shot ``Connection: close`` HTTP GET; b'' if the server
        dropped the connection (e.g. an injected fault)."""
        try:
            return http_get(self.port, f"GET {path} HTTP/1.1\r\nHost: t"
                            "\r\nConnection: close\r\n\r\n".encode(), timeout)
        except OSError:
            return b""

    def http_get_until_ok(self, path: str, attempts: int = 8) -> bytes:
        """Retry around injected faults (deterministic per seed)."""
        for _ in range(attempts):
            response = self.http_get(path)
            if response.startswith(b"HTTP/1.1 200"):
                return response
        raise AssertionError(f"no 200 for {path} in {attempts} attempts")
