"""O15 bench: buffered vs zero-copy write path, large-file Zipf mix.

The copying write path re-materialises the whole unsent remainder on
every partial send (``bytes(out)`` + ``del out[:n]``) — quadratic in
body size over the flush — while the O15 path advances offsets into
pooled header buffers and body memoryviews.  On multi-hundred-KB
bodies the gap is large and stable; this bench measures it end to end
through real sockets (the BENCH_zero_copy.json artifact CI uploads)
and asserts the ratio the issue requires.
"""

import os
import time

import pytest

from repro.analysis import render_table
from repro.experiments.fig3_zerocopy import materialise_large_fileset
from repro.load import drive
from repro.servers.cops_http import build_cops_http

#: ``python -m repro.bench --smoke`` sets this: a shrunk workload whose
#: absolute times are meaningless but whose buffered-vs-zerocopy ratio
#: still collapses if the O15 path starts copying again.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
CLIENTS = 2
REQUESTS_PER_CLIENT = 4 if SMOKE else 25
SPEEDUP_FLOOR = 1.3
#: Client receive window: a WAN-ish client that cannot absorb a 2 MB
#: body in one kernel gulp, so the server sees many partial sends —
#: exactly the regime where the copying path re-buffers quadratically.
CLIENT_RCVBUF = 65536


def run_clients(port, paths):
    """CLIENTS concurrent closed-loop clients over the Zipf sample."""
    drive(port, paths, CLIENTS, mode="close",
          rcvbuf=CLIENT_RCVBUF).checked()


def start_server(docroot, builddir, write_path):
    server, _fw, _report = build_cops_http(
        str(docroot), dest=str(builddir),
        package=f"bench_wp_{write_path}_fw", write_path=write_path)
    server.start()
    return server


@pytest.fixture(scope="module")
def fileset(tmp_path_factory):
    docroot = tmp_path_factory.mktemp("docroot")
    paths = materialise_large_fileset(
        docroot, seed=11, requests=CLIENTS * REQUESTS_PER_CLIENT)
    return docroot, paths


@pytest.mark.parametrize("write_path", ("buffered", "zerocopy"))
def test_cops_http_write_path_throughput(benchmark, tmp_path, fileset,
                                         write_path):
    docroot, paths = fileset
    server = start_server(docroot, tmp_path / "build", write_path)
    try:
        benchmark.pedantic(run_clients, args=(server.port, paths),
                           rounds=3, iterations=1, warmup_rounds=1)
    finally:
        server.stop()
    benchmark.extra_info["write_path"] = write_path
    benchmark.extra_info["requests"] = len(paths)
    benchmark.extra_info["bytes"] = sum(
        (docroot / p.lstrip("/")).stat().st_size for p in paths)


def test_zero_copy_speedup(tmp_path, fileset):
    """The issue's acceptance ratio: zerocopy >= 1.3x buffered on the
    large-file mix (best-of-3 per path to shed scheduler noise)."""
    docroot, paths = fileset
    best = {}
    for write_path in ("buffered", "zerocopy"):
        server = start_server(docroot, tmp_path / write_path, write_path)
        try:
            run_clients(server.port, paths)    # warmup (cache, allocator)
            times = []
            for _ in range(3):
                started = time.monotonic()
                run_clients(server.port, paths)
                times.append(time.monotonic() - started)
            best[write_path] = min(times)
        finally:
            server.stop()

    ratio = best["buffered"] / best["zerocopy"]
    rows = [[wp, f"{t:.3f}", f"{len(paths) / t:.1f}"]
            for wp, t in sorted(best.items())]
    print()
    print(render_table(["write path", "best s", "resp/s"], rows,
                       title="O15 — BUFFERED vs ZERO-COPY WRITE PATH "
                             f"(ratio {ratio:.2f}x)"))
    assert ratio >= SPEEDUP_FLOOR, (
        f"zerocopy only {ratio:.2f}x over buffered; floor is "
        f"{SPEEDUP_FLOOR}x")
