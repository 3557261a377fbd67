"""One client for every real-socket experiment, bench and churn test.

Every reply is checked against one specification: an HTTP reply needs
a 200 status, exactly one ``Content-Length``, the full body, nothing
after a ``Connection: close`` reply, and the expected bytes when the
caller has them; a newline-framed reply needs its newline before EOF.
:func:`drive` counts a broken reply against its connection and never
retries.  Its clients spend their requests in one of three modes:
``close`` (one request per connection), ``keep-alive`` (one connection
per client) or ``mixed`` (a seeded coin picks, per connection, one
close request or a keep-alive run of 2-8).

As a script it drives a server from its own process, over a seeded
sample of the files directly under DOCROOT, and prints JSON (CLIENTS
defaults to 8, and each socket times out after 5 s)::

    python -m repro.load PORT DOCROOT SEED REQUESTS MODE [CLIENTS]
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import socket
import sys
import threading
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

__all__ = ["Failure", "IdleSwarm", "LoadResult", "MODES", "connect",
           "drive", "read_line", "read_reply"]

MODES = ("close", "keep-alive", "mixed")

#: share of ``mixed`` connections that carry a keep-alive run
KEEP_ALIVE_SHARE = 0.5
#: failures kept verbatim in a :class:`LoadResult`
MAX_FAILURES = 20
#: the script's socket timeout in seconds
SCRIPT_TIMEOUT = 5.0


class Failure(Exception):
    """A reply that breaks the client's specification."""


@dataclass
class LoadResult:
    """What one :func:`drive` saw: callers assert on these counts."""

    elapsed: float = 0.0
    requests: int = 0           # requests planned, sent or not
    responses: int = 0          # replies that passed every check
    bytes: int = 0              # bytes of those replies, heads included
    connections: int = 0
    failed_connections: int = 0
    failures: List[str] = field(default_factory=list)

    def checked(self) -> LoadResult:
        """This result, or :class:`Failure` if any connection failed or
        any planned request went without a checked reply."""
        if self.failed_connections or self.responses != self.requests:
            raise Failure(f"{self.responses} of {self.requests} replies, "
                          f"{self.failed_connections} failed connections: "
                          f"{self.failures}")
        return self


def connect(port: int, timeout: float = 30.0,
            rcvbuf: Optional[int] = None) -> socket.socket:
    """A loopback client socket with ``TCP_NODELAY``.  ``rcvbuf`` caps
    the receive window before the handshake, so the server sees many
    partial sends on large bodies."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        if rcvbuf is not None:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        sock.settimeout(timeout)
        sock.connect(("127.0.0.1", port))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        sock.close()
        raise
    return sock


def _fill(sock: socket.socket, buf: bytearray) -> bool:
    """Append one ``recv`` to ``buf``; False at EOF."""
    chunk = sock.recv(65536)
    buf += chunk
    return bool(chunk)


def read_reply(sock: socket.socket, buf: bytearray, close: bool = False,
               expected: Optional[bytes] = None) -> int:
    """Read one checked HTTP reply and return its size in bytes.

    ``buf`` carries bytes received past the previous reply into this
    one, and past this one out.  Under ``close`` EOF must follow.
    """
    while (end := buf.find(b"\r\n\r\n")) < 0:
        if not _fill(sock, buf):
            raise Failure(f"EOF before headers ({len(buf)} bytes)")
    lines = bytes(buf[:end]).split(b"\r\n")
    if not lines[0].startswith(b"HTTP/1.1 200"):
        raise Failure(f"status {lines[0]!r}")
    lengths = [line.split(b":", 1)[1].strip() for line in lines[1:]
               if line.lower().startswith(b"content-length:")]
    if len(lengths) != 1:
        raise Failure(f"{len(lengths)} Content-Length headers")
    length = int(lengths[0])
    size = end + 4 + length
    while len(buf) < size:
        if not _fill(sock, buf):
            raise Failure(
                f"EOF after {len(buf) - end - 4} of {length} body bytes")
    if expected is not None and buf[end + 4:size] != expected:
        raise Failure("wrong body")
    del buf[:size]
    if close:
        while _fill(sock, buf):
            pass
        if buf:
            raise Failure(f"{len(buf)} bytes after the reply")
    return size


def read_line(sock: socket.socket, buf: bytearray) -> bytes:
    """Read one newline-terminated reply, carrying leftover in ``buf``
    like :func:`read_reply`."""
    while (end := buf.find(b"\n")) < 0:
        if not _fill(sock, buf):
            raise Failure(f"EOF after {len(buf)} bytes of a line")
    line = bytes(buf[:end + 1])
    del buf[:end + 1]
    return line


def _connections(items: Sequence[str], mode: str, rng: random.Random
                 ) -> Iterator[Tuple[Sequence[str], bool]]:
    """Split one client's requests into (batch, close) connections."""
    start = 0
    while start < len(items):
        if mode == "mixed":
            n = rng.randint(2, 8) if rng.random() < KEEP_ALIVE_SHARE else 1
        else:
            n = 1 if mode == "close" else len(items)
        batch = items[start:start + n]
        start += n
        yield batch, mode != "keep-alive" and len(batch) == 1


def drive(port: int, requests: Sequence[str], clients: int = 1, *,
          mode: str = "keep-alive", lines: bool = False, seed: int = 0,
          files: Optional[Mapping[str, bytes]] = None,
          rcvbuf: Optional[int] = None,
          timeout: float = 30.0) -> LoadResult:
    """``clients`` closed-loop threads over equal slices of ``requests``.

    ``requests`` are URL paths sent as ``GET``, or with ``lines`` raw
    newline-framed payloads exchanged over one connection per client.
    ``files`` maps paths to their expected bodies.  ``seed`` seeds the
    ``mixed`` coin of client ``i`` as ``seed * 1000 + i``.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r} (expected one of {MODES})")
    per_client = len(requests) // clients
    results = [LoadResult() for _ in range(clients)]

    def client(i: int) -> None:
        mine = results[i]
        rng = random.Random(seed * 1000 + i)
        for conn, (batch, close) in enumerate(_connections(
                requests[i * per_client:(i + 1) * per_client], mode, rng), 1):
            mine.connections += 1
            mine.requests += len(batch)
            try:
                sock = connect(port, timeout, rcvbuf)
                try:
                    buf = bytearray()
                    for item in batch:
                        if lines:
                            sock.sendall(item.encode())
                            size = len(read_line(sock, buf))
                        else:
                            header = "close" if close else "keep-alive"
                            sock.sendall(
                                f"GET {item} HTTP/1.1\r\nHost: load\r\n"
                                f"Connection: {header}\r\n\r\n".encode())
                            size = read_reply(
                                sock, buf, close,
                                None if files is None else files[item])
                        mine.responses += 1
                        mine.bytes += size
                finally:
                    sock.close()
            except Exception as exc:      # counted, never lost with the thread
                mine.failed_connections += 1
                if len(mine.failures) < MAX_FAILURES:
                    mine.failures.append(f"client {i} conn {conn}: {exc!r}")

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(clients)]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    total = LoadResult(elapsed=time.monotonic() - started)
    for mine in results:
        for name in [f.name for f in fields(LoadResult)[1:]]:  # not elapsed
            setattr(total, name, getattr(total, name) + getattr(mine, name))
    del total.failures[MAX_FAILURES:]
    return total


class IdleSwarm:
    """``count`` connected-but-silent sockets parked on the server:
    free under epoll, re-scanned by the kernel on every select poll."""

    def __init__(self, port: int, count: int):
        self.sockets = [connect(port) for _ in range(count)]

    def close(self) -> None:
        for s in self.sockets:
            s.close()
        self.sockets.clear()


def main(argv: Sequence[str]) -> int:
    port, docroot, seed, requests, mode = argv[:5]
    clients = int(argv[5]) if len(argv) > 5 else 8
    files = {"/" + name: pathlib.Path(docroot, name).read_bytes()
             for name in sorted(os.listdir(docroot))}
    rng = random.Random(int(seed))
    paths = list(files)
    sample = [rng.choice(paths) for _ in range(int(requests))]
    result = drive(int(port), sample, clients, mode=mode,
                   seed=int(seed), files=files, timeout=SCRIPT_TIMEOUT)
    print(json.dumps(asdict(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
