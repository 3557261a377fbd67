"""Fig 3 (O18 extension): select vs epoll under mostly-idle connections.

The paper's Fig 3 regime — thousands of open, mostly-idle HTTP
connections with a small active core — is exactly where the readiness
backend's complexity class shows: the level-triggered ``select``
oracle pays O(registered fds) in the kernel on *every* dispatcher
wake-up, while edge-triggered ``epoll`` pays O(ready).  This
experiment generates COPS-HTTP twice with only option O18 flipped,
parks an idle connection swarm on each server, and measures the
throughput of a small set of keep-alive clients hammering small files
(read-side bound: bodies are tiny, so per-wakeup poll cost dominates).

The measured gap is attributable to the backend alone — same template,
same workload, one option changed — which is the generative-pattern
methodology's point, and the repository gates on it
(``BENCH_poller.json``: epoll >= 1.3x select at the largest swarm).
"""

from __future__ import annotations

import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis import render_series
from repro.load import IdleSwarm, drive
from repro.runtime import available_pollers, pinned_poller

__all__ = ["PollerPoint", "run_poller_sweep",
           "format_fig3_poller", "materialise_small_fileset",
           "DEFAULT_IDLE_COUNTS"]

#: mostly-idle swarm sizes; the largest is the acceptance point
DEFAULT_IDLE_COUNTS = (0, 512, 2048)

#: small static bodies: the experiment is about readiness scanning, not
#: byte shovelling
FILE_COUNT = 8
FILE_SIZE = 512


@dataclass
class PollerPoint:
    """One (backend, idle swarm size) measurement."""

    poller: str
    idle_connections: int
    throughput: float          # responses/s over the active clients
    requests: int


def materialise_small_fileset(root: Path, seed: int = 7,
                              requests: int = 300) -> List[str]:
    """Write the small-file tree and return a uniform request sample."""
    rng = random.Random(seed)
    paths: List[str] = []
    for i in range(FILE_COUNT):
        rel = f"f{i}.txt"
        (root / rel).write_bytes(rng.randbytes(FILE_SIZE))
        paths.append("/" + rel)
    return [rng.choice(paths) for _ in range(requests)]


def run_poller_sweep(
    idle_counts: Sequence[int] = DEFAULT_IDLE_COUNTS,
    requests: int = 300,
    active_clients: int = 4,
    seed: int = 7,
    pollers: Optional[Sequence[str]] = None,
) -> Dict[str, List[PollerPoint]]:
    """Measure responses/s for O18=select and O18=epoll at each idle
    swarm size, same documents and request sample throughout."""
    from repro.servers.cops_http import build_cops_http

    pollers = tuple(pollers) if pollers is not None else available_pollers()
    workdir = Path(tempfile.mkdtemp(prefix="fig3_poller_"))
    results: Dict[str, List[PollerPoint]] = {}
    try:
        docroot = workdir / "docroot"
        docroot.mkdir()
        paths = materialise_small_fileset(docroot, seed=seed,
                                          requests=requests)
        for poller in pollers:
            with pinned_poller(poller):
                server, _fw, _report = build_cops_http(
                    str(docroot), dest=str(workdir / poller),
                    package=f"fig3_poller_{poller}_fw", poller=poller)
                server.start()
                points: List[PollerPoint] = []
                try:
                    for idle in idle_counts:
                        swarm = IdleSwarm(server.port, idle)
                        try:
                            drive(server.port, paths[:len(paths) // 3],
                                  active_clients).checked()  # warmup
                            load = drive(server.port, paths,
                                         active_clients).checked()
                            points.append(PollerPoint(
                                poller=poller,
                                idle_connections=idle,
                                throughput=load.responses / load.elapsed,
                                requests=load.responses))
                        finally:
                            swarm.close()
                finally:
                    server.stop()
                results[poller] = points
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return results


def format_fig3_poller(results: Dict[str, List[PollerPoint]]) -> str:
    names = {"select": "Select (oracle)", "epoll": "Epoll (O18)"}
    xs = [p.idle_connections for p in next(iter(results.values()))]
    series = {names.get(p, p): [pt.throughput for pt in pts]
              for p, pts in results.items()}
    out = render_series(
        "idle conns", xs, series,
        title="FIG 3 (O18 extension) — THROUGHPUT (responses/s) UNDER "
              "MOSTLY-IDLE CONNECTION SWARMS: SELECT vs EPOLL",
        fmt="{:.1f}")
    if {"select", "epoll"} <= results.keys():
        ratios = ", ".join(
            f"{e.throughput / s.throughput:.2f}x at {s.idle_connections}"
            for s, e in zip(results["select"], results["epoll"]))
        out += f"\nepoll/select throughput ratio: {ratios} idle connections"
    return out
