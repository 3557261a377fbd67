"""O18 bench: select vs epoll under a mostly-idle connection swarm.

The level-triggered ``select`` oracle pays O(registered fds) in the
kernel on every dispatcher wake-up; edge-triggered ``epoll`` pays
O(ready).  With a couple thousand parked connections and a small
active core hammering small files, the backend is the only thing that
differs between the two generated servers (same template, option O18
flipped), so the throughput gap is attributable to the readiness
machinery alone.  This bench measures it end to end through real
sockets (the BENCH_poller.json artifact CI gates on) and asserts the
ratio the issue requires.
"""

import os
import time

import pytest

from repro.experiments.fig3_poller import materialise_small_fileset
from repro.load import IdleSwarm, drive
from repro.runtime import available_pollers, pinned_poller
from repro.servers.cops_http import build_cops_http

#: ``python -m repro.bench --smoke`` sets this: a shrunk swarm whose
#: absolute times are meaningless but whose select-vs-epoll ratio still
#: collapses if the epoll path degenerates to scanning.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
IDLE_COUNTS = (0, 128) if SMOKE else (0, 2048)
ACTIVE_CLIENTS = 4
REQUESTS = 120 if SMOKE else 400
SPEEDUP_FLOOR = 1.3

POLLERS = available_pollers()


def run_clients(port, paths):
    """ACTIVE_CLIENTS keep-alive closed-loop clients over ``paths``."""
    drive(port, paths, ACTIVE_CLIENTS).checked()


def start_server(docroot, builddir, poller):
    with pinned_poller(poller):
        server, _fw, _report = build_cops_http(
            str(docroot), dest=str(builddir),
            package=f"bench_poller_{poller}_fw", poller=poller)
        server.start()
    return server


@pytest.fixture(scope="module")
def fileset(tmp_path_factory):
    docroot = tmp_path_factory.mktemp("docroot")
    paths = materialise_small_fileset(docroot, seed=11, requests=REQUESTS)
    return docroot, paths


@pytest.mark.parametrize("idle", IDLE_COUNTS)
@pytest.mark.parametrize("poller", POLLERS)
def test_cops_http_poller_throughput(benchmark, tmp_path, fileset,
                                     poller, idle):
    docroot, paths = fileset
    server = start_server(docroot, tmp_path / "build", poller)
    swarm = IdleSwarm(server.port, idle)
    try:
        run_clients(server.port, paths[:len(paths) // 3])
        benchmark.pedantic(run_clients, args=(server.port, paths),
                           rounds=3, iterations=1, warmup_rounds=1)
    finally:
        swarm.close()
        server.stop()
    benchmark.extra_info["poller"] = poller
    benchmark.extra_info["idle_connections"] = idle
    benchmark.extra_info["requests"] = len(paths)


@pytest.mark.skipif("epoll" not in POLLERS,
                    reason="no select.epoll on this platform")
def test_epoll_speedup_under_idle_swarm(tmp_path, fileset):
    """The issue's acceptance ratio: epoll >= 1.3x select throughput at
    the largest mostly-idle swarm (best-of-3 per backend to shed
    scheduler noise)."""
    docroot, paths = fileset
    idle = max(IDLE_COUNTS)
    best = {}
    for poller in ("select", "epoll"):
        server = start_server(docroot, tmp_path / poller, poller)
        swarm = IdleSwarm(server.port, idle)
        try:
            run_clients(server.port, paths)  # warmup
            times = []
            for _ in range(3):
                started = time.monotonic()
                run_clients(server.port, paths)
                times.append(time.monotonic() - started)
            best[poller] = min(times)
        finally:
            swarm.close()
            server.stop()
    speedup = best["select"] / best["epoll"]
    assert speedup >= SPEEDUP_FLOOR, (
        f"epoll {speedup:.2f}x select at {idle} idle connections "
        f"(floor {SPEEDUP_FLOOR}x); best times {best}")
