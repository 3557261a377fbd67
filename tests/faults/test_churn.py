"""Connection churn from a separate process: every accepted connection
gets its complete reply.

The default COPS-HTTP build serves from this process; a client
subprocess (``python -m repro.load``) drives it from 8 threads with a
seeded mix of one-shot ``Connection: close`` requests and keep-alive
runs.  Clients in another interpreter interleave with the server's
accept, dispatch and teardown paths the way real traffic does, which
in-process client threads sharing the server's GIL rarely reach: a
closed connection's fd number is reused by the next accept while a
worker still holds the old handle.  Every reply must arrive complete
(status, a single ``Content-Length``, the file's bytes), on both
readiness backends."""

import json
import os
import subprocess
import sys

import pytest

import repro
from harness import ServerFixture, generated_server
from repro.co2p3s.nserver import COPS_HTTP_OPTIONS
from repro.servers.cops_http import CopsHttpHooks

pytestmark = [pytest.mark.faults, pytest.mark.timeout(120)]

#: the client subprocess imports the same ``repro`` this process tests
CLIENT_ENV = dict(os.environ, PYTHONPATH=os.path.dirname(
    os.path.dirname(repro.__file__)))
#: (mix, seed, requests) per round: one-shot connections churn fds
#: fastest; the keep-alive mix interleaves long and short connections
ROUNDS = [("close", 1, 1000), ("close", 2, 1000), ("close", 3, 1000),
          ("mixed", 4, 400)]


@pytest.fixture
def docroot(tmp_path):
    root = tmp_path / "docroot"
    root.mkdir()
    (root / "index.html").write_bytes(b"<html>churn</html>\n")
    (root / "4k.bin").write_bytes(bytes(range(256)) * 16)
    (root / "40k.bin").write_bytes(os.urandom(40 * 1024))
    return str(root)


@pytest.mark.parametrize("mix,seed,requests", ROUNDS)
def test_every_churned_connection_gets_its_reply(poller_backend, docroot,
                                                 mix, seed, requests):
    server = generated_server(COPS_HTTP_OPTIONS, CopsHttpHooks(),
                              document_root=docroot)
    with ServerFixture(server) as fixture:
        done = subprocess.run(
            [sys.executable, "-m", "repro.load", str(fixture.port), docroot,
             str(seed), str(requests), mix],
            env=CLIENT_ENV, capture_output=True, text=True, timeout=90)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["failures"] == [], report
    assert report["requests"] == requests
    assert report["responses"] == requests
    assert report["failed_connections"] == 0
