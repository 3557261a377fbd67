"""Fig 3 (O15 extension): buffered vs zero-copy write path, real sockets.

Unlike the simulated capacity sweep behind Figs 3/4 (whose testbed
models per-request CPU, not per-byte copy cost), this experiment runs
the *generated* COPS-HTTP framework twice — once per O15 value — and
drives both over real sockets with a large-file Zipf workload, where
the copying write path's per-partial-send re-buffering is visible.

Both servers are generated from the same template with only option O15
flipped; the measured gap is therefore attributable to the write path
alone, which is the point of the generative-pattern methodology.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

from repro.analysis import render_series
from repro.load import drive

__all__ = ["WritePathPoint", "run_zerocopy_sweep", "format_fig3_zerocopy",
           "materialise_large_fileset", "DEFAULT_WRITE_PATH_CLIENTS"]

DEFAULT_WRITE_PATH_CLIENTS = (1, 2, 4)

#: Large static bodies (the regime O15 targets): a handful of files per
#: size class, Zipf-weighted towards the big ones so most bytes on the
#: wire come from multi-segment, partial-send responses.
FILE_SIZES = (65536, 262144, 2097152)
FILES_PER_SIZE = 4


@dataclass
class WritePathPoint:
    """One (write path, client count) measurement."""

    write_path: str
    clients: int
    throughput: float          # responses/s
    megabytes_per_sec: float
    requests: int


def materialise_large_fileset(root: Path, seed: int = 7,
                              requests: int = 60) -> List[str]:
    """Write the large-file tree under ``root`` and return a Zipf-ish
    request path sample (big files weighted heaviest)."""
    rng = random.Random(seed)
    paths: List[str] = []
    weights: List[float] = []
    for rank, size in enumerate(FILE_SIZES):
        for i in range(FILES_PER_SIZE):
            rel = f"class{rank}/file{i}.bin"
            target = root / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(rng.randbytes(size))
            paths.append("/" + rel)
            # Zipf over size classes, uniform within a class.
            weights.append((rank + 1) / (i + 1))
    return rng.choices(paths, weights=weights, k=requests)


def run_zerocopy_sweep(
    client_counts: Sequence[int] = DEFAULT_WRITE_PATH_CLIENTS,
    requests: int = 60,
    seed: int = 7,
) -> Dict[str, List[WritePathPoint]]:
    """Measure responses/s for O15=buffered and O15=zerocopy at each
    client count, against the same documents and request sample."""
    from repro.servers.cops_http import build_cops_http

    workdir = Path(tempfile.mkdtemp(prefix="fig3_zerocopy_"))
    results: Dict[str, List[WritePathPoint]] = {}
    try:
        docroot = workdir / "docroot"
        docroot.mkdir()
        paths = materialise_large_fileset(docroot, seed=seed,
                                          requests=requests)
        for write_path in ("buffered", "zerocopy"):
            server, _fw, _report = build_cops_http(
                str(docroot), dest=str(workdir / write_path),
                package=f"fig3_{write_path}_fw", write_path=write_path)
            server.start()
            points: List[WritePathPoint] = []
            try:
                for clients in client_counts:
                    load = drive(server.port, paths, clients,
                                 mode="close").checked()
                    points.append(WritePathPoint(
                        write_path=write_path,
                        clients=clients,
                        throughput=load.responses / load.elapsed,
                        megabytes_per_sec=load.bytes / load.elapsed / 1e6,
                        requests=load.responses))
            finally:
                server.stop()
            results[write_path] = points
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return results


def format_fig3_zerocopy(results: Dict[str, List[WritePathPoint]]) -> str:
    names = {"buffered": "Buffered", "zerocopy": "Zero-copy"}
    xs = [p.clients for p in next(iter(results.values()))]
    series = {names.get(w, w): [p.throughput for p in pts]
              for w, pts in results.items()}
    out = render_series(
        "clients", xs, series,
        title="FIG 3 (O15 extension) — THROUGHPUT (responses/s): "
              "BUFFERED vs ZERO-COPY WRITE PATH",
        fmt="{:.1f}")
    if {"buffered", "zerocopy"} <= results.keys():
        ratios = ", ".join(
            f"{z.throughput / b.throughput:.2f}x at {b.clients}"
            for b, z in zip(results["buffered"], results["zerocopy"]))
        out += f"\nzerocopy/buffered throughput ratio: {ratios} clients"
    return out
