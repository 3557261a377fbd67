"""The response checks catch a corrupted body, a short body and a silent
connection, served by a tiny fake server; each failure drops the
connection and the next request opens a new one."""

import socket
import threading
import zlib

import pytest

from perfbench.loadgen import LoadGenerator, ResponseCheck, ResponseError

BODY = bytes(range(256)) * 8


def _reply(path: str) -> bytes:
    body = BODY
    length = len(BODY)
    if path == "/corrupt":
        body = BODY[:100] + bytes([BODY[100] ^ 1]) + BODY[101:]
    elif path == "/short":
        body = BODY[:-10]
    elif path == "/two-lengths":
        return (f"HTTP/1.1 200 OK\r\nContent-Length: {length}\r\n"
                f"Content-Length: {length}\r\n\r\n").encode() + BODY
    elif path == "/not-found":
        return b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"
    head = f"HTTP/1.1 200 OK\r\nContent-Length: {length}\r\n\r\n"
    return head.encode() + body


class FakeServer:
    """Serves BODY with a fault chosen by the request path: ``/good``,
    ``/corrupt`` (one flipped byte), ``/short`` (10 bytes missing, then
    close), ``/silent`` (never answers), ``/two-lengths``,
    ``/not-found``."""

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.accepted = 0
        self.threads = []
        self.open = []
        self.thread = threading.Thread(target=self._accept, daemon=True)
        self.thread.start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.accepted += 1
            self.open.append(conn)
            t = threading.Thread(target=self._serve, args=(conn,),
                                 daemon=True)
            self.threads.append(t)
            t.start()

    def _serve(self, conn):
        buf = b""
        try:
            while True:
                data = conn.recv(4096)
                if not data:
                    return
                buf += data
                while b"\r\n\r\n" in buf:
                    head, buf = buf.split(b"\r\n\r\n", 1)
                    path = head.split(b" ")[1].decode()
                    if path == "/silent":
                        continue
                    conn.sendall(_reply(path))
                    if path == "/short":
                        conn.close()
                        return
        except OSError:
            return

    def close(self):
        self.listener.close()
        for conn in self.open:
            conn.close()
        self.thread.join(timeout=5)
        for t in self.threads:
            t.join(timeout=5)


@pytest.fixture
def server():
    srv = FakeServer()
    yield srv
    srv.close()


def _manifest():
    entry = (len(BODY), zlib.crc32(BODY))
    return {p: entry for p in ("/good", "/corrupt", "/short", "/silent",
                               "/two-lengths", "/not-found")}


@pytest.mark.parametrize("path, error, mismatch", [
    ("/corrupt", "CRC32", True),
    ("/short", "closed before the response completed", False),
    ("/silent", "timeout", False),
    ("/two-lengths", "2 Content-Length headers", True),
    ("/not-found", "status line", True),
])
def test_bad_response_fails_and_connection_is_replaced(server, path, error,
                                                       mismatch):
    gen = LoadGenerator(server.port, _manifest(), connections=1,
                        timeout=0.3)
    try:
        assert gen.fetch("/good").ok
        bad = gen.fetch(path)
        assert not bad.ok and error in bad.error
        assert bad.latency == float("inf")
        assert gen.mismatches == int(mismatch)
        again = gen.fetch("/good")
        assert again.ok
        assert server.accepted == 2  # the failed connection was dropped
    finally:
        gen.close()


def test_open_loop_counts_failures_without_retrying(server):
    gen = LoadGenerator(server.port, _manifest(), connections=2,
                        timeout=0.3)
    schedule = [(0.0, "/good"), (0.01, "/corrupt"), (0.02, "/good"),
                (0.03, "/silent"), (0.04, "/good")]
    try:
        requests = gen.open_loop(schedule, gen.clock())
    finally:
        gen.close()
    assert [r.ok for r in requests] == [True, False, True, False, True]
    assert all(r.due <= r.ready <= r.issued <= r.done for r in requests)


def test_check_accepts_a_split_response():
    check = ResponseCheck(len(BODY), zlib.crc32(BODY))
    wire = _reply("/good")
    assert not check.feed(wire[:10])
    assert not check.feed(wire[10:200])
    assert check.feed(wire[200:])


def test_check_rejects_trailing_bytes():
    check = ResponseCheck(len(BODY), zlib.crc32(BODY))
    with pytest.raises(ResponseError):
        check.feed(_reply("/good") + b"x")
