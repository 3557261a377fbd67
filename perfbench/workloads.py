"""Seeded inputs of the benchmark: SpecWeb99-style file sets, request
path sequences and Poisson arrival schedules, plus the workloads and
the layer -> metric -> workload map.

Everything here is a pure function of the seed: the same seed gives
the same file bytes, the same path sequence and the same arrival
schedule (``tests/test_inputs.py`` checks it).  The server receives
only the generated files.

The file set follows SpecWeb99 as the paper uses it: each directory
holds 36 files in four classes of nine (class ``c`` file ``i`` is
``i * (100, 1000, 10000, 100000)[c]`` bytes), the class access mix is
35/50/14/1 %, directories are Zipf(1)-popular, and files inside a
class follow SpecWeb99's tent-shaped profile peaking at file 5.
"""

from __future__ import annotations

import itertools
import os
import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = [
    "CLASS_BASE", "CLASS_MIX", "DIRECTORY_BYTES", "LAYER_MAP", "WORKLOADS",
    "Workload", "build_fileset", "path_of", "poisson_schedule",
    "request_paths", "sub_rng", "sweep_paths",
]

CLASS_BASE = (100, 1_000, 10_000, 100_000)
CLASS_MIX = (0.35, 0.50, 0.14, 0.01)
FILE_PROFILE = (3.9, 5.9, 8.8, 17.7, 25.7, 17.7, 8.8, 5.9, 3.9)
#: bytes in one 36-file SpecWeb99 directory (about 4.77 MiB)
DIRECTORY_BYTES = sum(i * base for base in CLASS_BASE for i in range(1, 10))

#: file bytes are slices of one seeded random pool, at seeded offsets
_POOL_BYTES = 1 << 20


@dataclass(frozen=True)
class Workload:
    """One traffic mix."""

    name: str
    why: str
    #: directories in the file set (Zipf(1) popularity over them)
    directories: int
    #: file classes requests draw from (re-weighted by CLASS_MIX)
    classes: Tuple[int, ...]
    #: requests sent per connection; 0 keeps each connection for the
    #: whole phase.  The last request on a connection carries
    #: ``Connection: close`` and the client waits for the server's EOF.
    per_connection: int
    #: discarded warm-up: closed-loop seconds after one pass over
    #: ``sweep`` (every file of these classes in the set)
    warmup_seconds: float
    sweep: Tuple[int, ...] = ()
    #: listed in BENCHMARK.json.  A workload that closes and reopens
    #: connections is not: a race in the server leaves a few of every
    #: 60 000 accepted connections unserved (see README.md), so its
    #: failure count differs from run to run and cannot be gated.
    gated: bool = True


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="hot-keepalive",
        why=("SpecWeb99 mix over a 2-directory (9.5 MB) set that fits the "
             "20 MB cache, on 2 connections held open: the per-request "
             "path with no accepts and no disk"),
        directories=2, classes=(0, 1, 2, 3), per_connection=0,
        warmup_seconds=1.5, sweep=(0, 1, 2, 3)),
    Workload(
        name="cold-keepalive",
        why=("SpecWeb99 mix over the paper's 204.8 MB set (about 10x the "
             "cache) on 2 connections held open: cache misses, evictions, "
             "the file I/O pool and 100-900 KB bodies"),
        directories=43, classes=(0, 1, 2, 3), per_connection=0,
        warmup_seconds=3.0),
    Workload(
        name="cold-zipf",
        why=("SpecWeb99 mix over the paper's 204.8 MB set (about 10x the "
             "cache), 5 requests per connection: cache misses, evictions, "
             "the file I/O pool, 100-900 KB bodies, some accepts"),
        directories=43, classes=(0, 1, 2, 3), per_connection=5,
        warmup_seconds=3.0, gated=False),
    Workload(
        name="churn-close",
        why=("one Connection: close GET per connection for cached class-0 "
             "files (100-900 B): accept, poller register/deregister and "
             "teardown at the smallest message size"),
        directories=2, classes=(0,), per_connection=1,
        warmup_seconds=1.5, sweep=(0,), gated=False),
)}

#: Which per-layer metrics should move which end-to-end metric, on
#: which workload, and where the prediction is "no change".  Rows are
#: (layer metrics, end-to-end metrics they should move, workloads that
#: exercise them, bypass workloads).
LAYER_MAP = (
    (("processor.queue_wait_p50_us", "processor.queue_wait_p99_us",
      "processor.queue_depth_max", "dispatcher.dispatch_us",
      "poller.events_per_poll", "event_source.poll_self_us"),
     ("p50_ms",), ("hot-keepalive", "churn-close"), ()),
    (("cops_http.split_us", "cops_http.decode_us", "cops_http.handle_us",
      "cops_http.encode_us", "communicator.on_readable_us",
      "communicator.complete_request_us", "handles.send_us"),
     ("cpu_ms_per_req", "throughput_rps"), ("hot-keepalive", "churn-close"),
     ("cold-keepalive", "cold-zipf")),
    (("acceptor.accepts_per_wakeup", "acceptor.accept_us",
      "communicator.close_us"),
     ("cpu_ms_per_req", "p50_ms"), ("churn-close", "cold-zipf"),
     ("hot-keepalive", "cold-keepalive")),
    (("cache.hit_ratio", "cache.evictions_per_req", "cache.get_file_us",
      "file_io.inline_frac", "file_io.completion_us"),
     ("p99_ms", "throughput_rps"), ("cold-keepalive", "cold-zipf"),
     ("hot-keepalive",)),
    (("handles.partial_send_frac", "handles.bytes_per_send",
      "communicator.on_writable_per_req", "handles.recv_eagain_frac"),
     ("cpu_ms_per_req",), ("cold-keepalive", "cold-zipf"),
     ("churn-close",)),
    (("buffers.read_pool_hit_ratio", "cache.bytes_held_mb"),
     ("peak_rss_mb",), ("cold-keepalive", "cold-zipf"), ("churn-close",)),
    (("trace.server_us", "trace.unaccounted_frac", "trace.overhead_frac",
      "trace.p50_overhead_frac"),
     ("p50_ms", "p99_ms", "cpu_ms_per_req", "throughput_rps"),
     ("hot-keepalive", "cold-keepalive", "cold-zipf", "churn-close"), ()),
)


def sub_rng(seed: int, purpose: str) -> random.Random:
    """An independent, reproducible stream for one use of the seed."""
    return random.Random(f"{seed}:{purpose}")


def path_of(directory: int, class_id: int, file_id: int) -> str:
    return f"/dir{directory:05d}/class{class_id}_{file_id}"


def build_fileset(root: str, workload: Workload,
                  seed: int) -> Dict[str, Tuple[int, int]]:
    """Write the workload's file set under ``root``; return the
    manifest ``{url path: (size, crc32)}``."""
    rng = sub_rng(seed, "bytes")
    pool = rng.randbytes(_POOL_BYTES + max(CLASS_BASE) * 9)
    manifest: Dict[str, Tuple[int, int]] = {}
    for d in range(workload.directories):
        os.makedirs(os.path.join(root, f"dir{d:05d}"), exist_ok=True)
        for c, base in enumerate(CLASS_BASE):
            for i in range(1, 10):
                offset = rng.randrange(_POOL_BYTES)
                data = pool[offset:offset + base * i]
                path = path_of(d, c, i)
                with open(os.path.join(root, path.lstrip("/")), "wb") as fh:
                    fh.write(data)
                manifest[path] = (len(data), zlib.crc32(data))
    return manifest


def sweep_paths(workload: Workload) -> List[str]:
    """Every file of the workload's sweep classes, once."""
    return [path_of(d, c, i) for d in range(workload.directories)
            for c in workload.sweep for i in range(1, 10)]


def request_paths(workload: Workload, seed: int, purpose: str):
    """Endless seeded path sequence drawn from the workload's mix."""
    rng = sub_rng(seed, f"paths:{purpose}")
    dirs = range(workload.directories)
    dir_cum = list(itertools.accumulate(1.0 / (k + 1) for k in dirs))
    classes = workload.classes
    class_cum = list(itertools.accumulate(CLASS_MIX[c] for c in classes))
    files = range(1, 10)
    file_cum = list(itertools.accumulate(FILE_PROFILE))
    while True:
        (d,) = rng.choices(dirs, cum_weights=dir_cum)
        (c,) = rng.choices(classes, cum_weights=class_cum)
        (i,) = rng.choices(files, cum_weights=file_cum)
        yield path_of(d, c, i)


def poisson_schedule(rate: float, seconds: float,
                     seed: int) -> List[float]:
    """Arrival offsets (seconds from phase start) of a Poisson process."""
    rng = sub_rng(seed, "arrivals")
    out: List[float] = []
    t = rng.expovariate(rate)
    while t < seconds:
        out.append(t)
        t += rng.expovariate(rate)
    return out
