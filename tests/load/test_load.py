"""The shared load driver against a scripted loopback server.

Each broken reply must count as exactly one failed connection and must
not be retried: the scripted server counts the connections it accepts.
"""

import socket
import threading

import pytest

from harness import wait_until
from repro.load import Failure, LoadResult, drive, read_reply

OK = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"


def read_request(sock, terminator=b"\r\n\r\n"):
    buf = b""
    while terminator not in buf:
        chunk = sock.recv(4096)
        if not chunk:
            break
        buf += chunk
    return buf


class ScriptedServer:
    """Serves each accepted connection, one at a time, with ``script``."""

    def __init__(self, script):
        self.script = script
        self.accepted = 0
        self.stopping = threading.Event()
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while not self.stopping.is_set():
            try:
                conn, _ = self.listener.accept()
            except socket.timeout:
                continue
            self.accepted += 1
            with conn:
                conn.settimeout(5)
                try:
                    self.script(conn)
                except OSError:
                    pass

    def close(self):
        self.stopping.set()
        self.thread.join(5)
        assert not self.thread.is_alive()
        self.listener.close()


def reply_once(data, terminator=b"\r\n\r\n"):
    """A script that reads one request, sends ``data`` and closes."""
    def script(conn):
        read_request(conn, terminator)
        conn.sendall(data)
    return script


@pytest.fixture
def scripted():
    servers = []

    def start(script):
        server = ScriptedServer(script)
        servers.append(server)
        return server
    yield start
    for server in servers:
        server.close()


#: each reply breaks exactly one rule, so no other check can catch it
BROKEN_REPLIES = {
    "truncated body":
        b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n12345",
    "duplicate Content-Length":
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
        b"Content-Length: 2\r\n\r\nok",
    "conflicting Content-Length":
        b"HTTP/1.1 200 OK\r\nContent-Length: 100000\r\n"
        b"Content-Length: 7\r\n\r\n12345",
    "non-200 status":
        b"HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\nok",
    "EOF before the headers": b"HTTP/1.1 200 OK\r\n",
    "bytes after a close reply": OK + b"EXTRA",
}


def assert_one_failure(load, server):
    assert load.requests == 1
    assert load.connections == 1
    assert load.responses == 0
    assert load.failed_connections == 1
    assert len(load.failures) == 1
    # A client that fails before reading returns before the server
    # thread has counted its accept.
    wait_until(lambda: server.accepted >= 1, timeout=5.0,
               message="the server never accepted")
    assert server.accepted == 1
    with pytest.raises(Failure):
        load.checked()


@pytest.mark.parametrize("case", sorted(BROKEN_REPLIES))
def test_broken_reply_is_one_failure_and_not_retried(scripted, case):
    server = scripted(reply_once(BROKEN_REPLIES[case]))
    assert_one_failure(drive(server.port, ["/a"], 1, mode="close",
                             timeout=5), server)


def test_wrong_body_is_one_failure(scripted):
    server = scripted(reply_once(OK))
    assert_one_failure(drive(server.port, ["/a"], 1, mode="close",
                             files={"/a": b"no"}, timeout=5), server)


def test_caller_error_is_one_failure_not_a_silent_thread(scripted):
    server = scripted(reply_once(OK))
    load = drive(server.port, ["/missing"], 1, mode="close",
                 files={"/a": b"ok"}, timeout=5)
    assert_one_failure(load, server)
    assert "KeyError" in load.failures[0]


def test_checked_rejects_requests_without_a_reply():
    with pytest.raises(Failure, match="1 of 2 replies"):
        LoadResult(requests=2, responses=1).checked()


def test_eof_in_the_middle_of_a_line_is_one_failure(scripted):
    server = scripted(reply_once(b"7 bytes", terminator=b"\n"))
    load = drive(server.port, ["ping\n"], 1, lines=True, timeout=5)
    assert_one_failure(load, server)
    assert "EOF after 7 bytes" in load.failures[0]


def test_good_close_replies_are_counted(scripted):
    server = scripted(reply_once(OK))
    load = drive(server.port, ["/a"] * 4, 2, mode="close",
                 files={"/a": b"ok"}, timeout=5)
    assert load.checked() is load
    assert (load.requests, load.responses, load.connections) == (4, 4, 4)
    assert load.bytes == 4 * len(OK)
    assert server.accepted == 4


def test_pipelined_leftover_is_carried_into_the_next_reply(scripted):
    second = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nbbb"

    def script(conn):
        read_request(conn)
        conn.sendall(OK + second)     # both replies in one segment
        read_request(conn)

    server = scripted(script)
    load = drive(server.port, ["/a", "/b"], 1,
                 files={"/a": b"ok", "/b": b"bbb"}, timeout=5)
    assert load.failures == []
    assert (load.responses, load.connections) == (2, 1)
    assert load.bytes == len(OK) + len(second)


def test_read_reply_leaves_the_leftover_in_the_buffer():
    left, right = socket.socketpair()
    with left, right:
        right.sendall(OK + OK[:5])
        buf = bytearray()
        assert read_reply(left, buf, expected=b"ok") == len(OK)
        assert buf == OK[:5]
        right.sendall(OK[5:])
        assert read_reply(left, buf) == len(OK)
        assert buf == bytearray()


def test_mixed_mode_is_seeded_and_spends_every_request(scripted):
    def script(conn):
        while True:
            request = read_request(conn)
            if not request:
                return
            conn.sendall(OK)
            if b"Connection: close" in request:
                return

    server = scripted(script)
    runs = [drive(server.port, ["/a"] * 40, 1, mode="mixed", seed=4,
                  files={"/a": b"ok"}, timeout=5) for _ in range(2)]
    for load in runs:
        assert load.failures == []
        assert (load.requests, load.responses) == (40, 40)
        assert 5 <= load.connections < 40
    assert runs[0].connections == runs[1].connections


def test_unknown_mode_is_rejected():
    with pytest.raises(ValueError, match="unknown mode"):
        drive(1, ["/a"], mode="pipelined")
