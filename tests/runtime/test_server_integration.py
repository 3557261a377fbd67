"""Integration tests: ReactorServer over real sockets on localhost.

Synchronization discipline: no ``time.sleep()`` — cross-thread state
(profiler counters, tracer records, pending accepts) is awaited with
``harness.wait_until`` and all lifecycles run inside
``harness.ServerFixture``.
"""

import socket
import threading

import pytest

from harness import ServerFixture, wait_until
from repro.runtime import (
    CLOSE,
    PENDING,
    ReactorServer,
    RuntimeConfig,
    ServerHooks,
)


@pytest.fixture(autouse=True)
def _every_backend(poller_backend):
    """Run the whole integration suite once per readiness backend
    (select is the oracle; epoll is the O18 fast path)."""


def fixture(hooks, cfg) -> ServerFixture:
    return ServerFixture(ReactorServer(hooks, cfg))


class UpperHooks(ServerHooks):
    """Newline-framed uppercase server exercising decode/handle/encode."""

    def decode(self, raw, conn):
        return raw.strip().decode()

    def handle(self, request, conn):
        return request.upper()

    def encode(self, result, conn):
        return result.encode() + b"\n"


def test_echo_roundtrip():
    with fixture(ServerHooks(), RuntimeConfig(use_codec=False,
                                              async_completions=False)) as srv:
        assert srv.request(b"hello\n") == b"hello\n"


def test_codec_pipeline():
    with fixture(UpperHooks(), RuntimeConfig(async_completions=False)) as srv:
        assert srv.request(b"hello\n") == b"HELLO\n"


def test_multiple_requests_one_connection():
    with fixture(UpperHooks(), RuntimeConfig(async_completions=False)) as srv:
        s = srv.connect(timeout=3)
        try:
            for word in (b"one", b"two", b"three"):
                s.sendall(word + b"\n")
                assert srv.read_line(s) == word.upper() + b"\n"
        finally:
            s.close()


def test_concurrent_clients():
    with fixture(UpperHooks(), RuntimeConfig(
            async_completions=False, processor_threads=4)) as srv:
        results = {}

        def client(i):
            results[i] = srv.request(f"client{i}\n".encode())

        threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert all(results[i] == f"CLIENT{i}".upper().encode() + b"\n"
                   for i in range(8))


def test_close_sentinel_drops_connection():
    class QuitHooks(ServerHooks):
        def handle(self, request, conn):
            return CLOSE if request.strip() == b"quit" else request

    with fixture(QuitHooks(), RuntimeConfig(
            use_codec=False, async_completions=False)) as srv:
        s = srv.connect(timeout=3)
        s.sendall(b"quit\n")
        assert s.recv(4096) == b""  # orderly close, no reply
        s.close()


def test_pending_async_reply():
    class AsyncHooks(ServerHooks):
        def handle(self, request, conn):
            threading.Timer(0.05, conn.complete_request,
                            args=(request.strip().upper() + b"\n",)).start()
            return PENDING

    with fixture(AsyncHooks(), RuntimeConfig(
            use_codec=False, async_completions=False)) as srv:
        assert srv.request(b"later\n") == b"LATER\n"


def test_hook_exception_closes_connection_not_server():
    class Flaky(ServerHooks):
        def handle(self, request, conn):
            if request.strip() == b"die":
                raise RuntimeError("handler bug")
            return request

    with fixture(Flaky(), RuntimeConfig(
            use_codec=False, async_completions=False, profiling=True)) as srv:
        # First connection crashes its handler...
        s = srv.connect(timeout=3)
        s.sendall(b"die\n")
        assert s.recv(4096) == b""
        s.close()
        # ... but the server still serves new clients.
        assert srv.request(b"alive\n") == b"alive\n"
        assert srv.server.profiler.snapshot().errors == 1


def test_inline_reactor_without_processor_pool():
    cfg = RuntimeConfig(use_processor_pool=False, use_codec=False,
                        async_completions=False)
    with fixture(ServerHooks(), cfg) as srv:
        assert srv.server.processor is None
        assert srv.request(b"inline\n") == b"inline\n"


def test_two_dispatcher_threads():
    cfg = RuntimeConfig(dispatcher_threads=2, use_codec=False,
                        async_completions=False)
    with fixture(ServerHooks(), cfg) as srv:
        assert srv.request(b"dual\n") == b"dual\n"


def test_large_reply_flushes_through_writable_events():
    class BigHooks(ServerHooks):
        def handle(self, request, conn):
            return b"X" * 1_000_000 + b"\n"

    with fixture(BigHooks(), RuntimeConfig(
            use_codec=False, async_completions=False)) as srv:
        s = srv.connect(timeout=5)
        s.sendall(b"go\n")
        total = 0
        while total < 1_000_001:
            chunk = s.recv(65536)
            if not chunk:
                break
            total += len(chunk)
        s.close()
        assert total == 1_000_001


def test_max_connections_cap():
    cfg = RuntimeConfig(use_codec=False, async_completions=False,
                        max_connections=1, profiling=True)
    with fixture(ServerHooks(), cfg) as srv:
        profiler = srv.server.profiler
        s1 = srv.connect(timeout=3)
        s1.sendall(b"first\n")
        assert srv.read_line(s1) == b"first\n"
        # Second connection connects at TCP level (kernel backlog) but
        # the server never accepts it while the first is open.
        s2 = srv.connect(timeout=3)
        s2.settimeout(0.3)
        s2.sendall(b"second\n")
        with pytest.raises(socket.timeout):
            s2.recv(4096)
        s1.close()
        # Once the server notices the close, the pending connection is
        # accepted — no fixed grace period, just the observable event.
        wait_until(lambda: profiler.snapshot().connections_accepted >= 2,
                   message="second connection never accepted")
        s2.settimeout(3)
        assert srv.read_line(s2) == b"second\n"
        s2.close()


def test_idle_reaper_closes_idle_connections():
    cfg = RuntimeConfig(use_codec=False, async_completions=False,
                        shutdown_long_idle=True, idle_limit=0.2)
    with fixture(ServerHooks(), cfg) as srv:
        s = srv.connect(timeout=3)
        assert s.recv(4096) == b""  # server reaps us (recv is the wait)
        s.close()
        assert srv.server.reaper.reaped == 1


def test_profiling_counts_bytes():
    with fixture(ServerHooks(), RuntimeConfig(
            use_codec=False, async_completions=False, profiling=True)) as srv:
        snapshot = srv.server.profiler.snapshot
        srv.request(b"12345\n")
        # The sender thread bumps bytes_sent after the flush our read
        # observed; wait for the counter, not a wall-clock guess.
        wait_until(lambda: snapshot().bytes_sent >= 6,
                   message="profiler never saw the sent bytes")
        snap = snapshot()
        assert snap.bytes_read == 6
        assert snap.bytes_sent == 6
        assert snap.connections_accepted == 1


def test_debug_mode_traces_events():
    with fixture(ServerHooks(), RuntimeConfig(
            use_codec=False, async_completions=False, debug_mode=True)) as srv:
        tracer = srv.server.tracer
        srv.request(b"traced\n")

        def categories():
            return {r.category for r in tracer.events()}

        wait_until(lambda: {"read", "send"} <= categories(),
                   message=f"tracer saw only {categories()}")


def test_event_scheduling_config_builds_priority_queue():
    from repro.runtime import QuotaPriorityQueue

    cfg = RuntimeConfig(use_codec=False, async_completions=False,
                        event_scheduling=True, scheduling_quotas={1: 4, 0: 1})
    with fixture(ServerHooks(), cfg) as srv:
        assert isinstance(srv.server.processor.queue, QuotaPriorityQueue)
        assert srv.request(b"sched\n") == b"sched\n"


def test_file_cache_async_serving(tmp_path):
    (tmp_path / "page.html").write_bytes(b"<html>cached</html>")

    class FileHooks(ServerHooks):
        def handle(self, request, conn):
            server = conn.context["server"]
            path = request.strip().decode()
            server.file_io.read_file(
                path,
                act=__import__("repro.runtime", fromlist=["AsynchronousCompletionToken"]
                               ).AsynchronousCompletionToken(
                    on_complete=lambda ev: conn.complete_request(
                        (ev.payload if ev.ok else b"ERROR") + b"\n")),
            )
            return PENDING

    cfg = RuntimeConfig(use_codec=False, cache_policy="LRU",
                        document_root=str(tmp_path))
    with fixture(FileHooks(), cfg) as srv:
        assert srv.request(b"/page.html\n") == b"<html>cached</html>\n"
        assert srv.request(b"/page.html\n") == b"<html>cached</html>\n"
        assert srv.server.cache.stats.hits >= 1


def test_stop_is_idempotent():
    srv = ReactorServer(ServerHooks(), RuntimeConfig(async_completions=False))
    srv.start()
    srv.stop()
    srv.stop()


def test_port_before_start_raises():
    srv = ReactorServer(ServerHooks(), RuntimeConfig(async_completions=False))
    with pytest.raises(RuntimeError):
        srv.port
