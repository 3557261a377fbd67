"""Out-of-process HTTP churn client: run as a script, never imported by
the server under test.

    python churn_client.py PORT DOCROOT SEED REQUESTS MIX [THREADS]

Each of THREADS threads opens connections until the shared budget of
REQUESTS is spent.  Under MIX ``close`` every connection carries one
``Connection: close`` request (read to EOF); under ``mixed`` a seeded
coin picks, per connection, either that or a keep-alive run of 2-8
requests framed by ``Content-Length``.  Every reply is checked against
the file under DOCROOT: a 200 status, exactly one ``Content-Length``
equal to the body size, and the body bytes.  Nothing is retried.  The
script prints one JSON object: request and connection counts plus the
first failures, each naming its connection and reason.
"""

from __future__ import annotations

import json
import os
import random
import socket
import sys
import threading

TIMEOUT = 5.0


class Failure(Exception):
    pass


def read_reply(sock, buf: bytes, close: bool):
    """One checked reply off ``sock``: returns (body, leftover bytes)."""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(65536)
        if not chunk:
            raise Failure(f"EOF before headers ({len(buf)} bytes)")
        buf += chunk
    head, _, rest = buf.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    if not lines[0].startswith(b"HTTP/1.1 200"):
        raise Failure(f"status {lines[0]!r}")
    lengths = [line.split(b":", 1)[1].strip() for line in lines[1:]
               if line.lower().startswith(b"content-length:")]
    if len(lengths) != 1:
        raise Failure(f"{len(lengths)} Content-Length headers")
    length = int(lengths[0])
    while len(rest) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise Failure(f"EOF after {len(rest)} of {length} body bytes")
        rest += chunk
    body, leftover = rest[:length], rest[length:]
    if close:
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            leftover += chunk
        if leftover:
            raise Failure(f"{len(leftover)} bytes after the reply")
    return body, leftover


def run(port: int, docroot: str, seed: int, requests: int,
        mix: str = "mixed", threads: int = 8) -> dict:
    keep_alive_share = {"close": 0.0, "mixed": 0.5}[mix]
    files = {f"/{name}": open(os.path.join(docroot, name), "rb").read()
             for name in sorted(os.listdir(docroot))}
    paths = sorted(files)
    lock = threading.Lock()
    state = {"budget": requests, "requests": 0, "connections": 0,
             "ok": 0, "failed_connections": 0, "failures": []}

    def take(n: int) -> int:
        with lock:
            n = min(n, state["budget"])
            state["budget"] -= n
            if n:
                state["connections"] += 1
                state["requests"] += n
            return n

    def connection(rng: random.Random, n: int, tag: str) -> None:
        close = n == 1
        sock = socket.create_connection(("127.0.0.1", port),
                                        timeout=TIMEOUT)
        try:
            sock.settimeout(TIMEOUT)
            buf = b""
            for index in range(n):
                path = rng.choice(paths)
                last = index == n - 1
                header = "close" if close else "keep-alive"
                sock.sendall(f"GET {path} HTTP/1.1\r\nHost: churn\r\n"
                             f"Connection: {header}\r\n\r\n".encode())
                body, buf = read_reply(sock, buf, close and last)
                if body != files[path]:
                    raise Failure(f"wrong body for {path}")
                with lock:
                    state["ok"] += 1
        except (OSError, Failure) as exc:
            with lock:
                if len(state["failures"]) < 20:
                    state["failures"].append(f"{tag}: {exc!r}")
                state["failed_connections"] += 1
        finally:
            sock.close()

    def worker(index: int) -> None:
        rng = random.Random(seed * 1000 + index)
        conns = 0
        while True:
            n = rng.randint(2, 8) if rng.random() < keep_alive_share else 1
            n = take(n)
            if not n:
                return
            conns += 1
            connection(rng, n, f"thread {index} conn {conns}")

    workers = [threading.Thread(target=worker, args=(i,))
               for i in range(threads)]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    del state["budget"]
    return state


def main(argv) -> int:
    port, docroot, seed, requests, mix = argv[:5]
    threads = int(argv[5]) if len(argv) > 5 else 8
    print(json.dumps(run(int(port), docroot, int(seed), int(requests),
                         mix, threads)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
