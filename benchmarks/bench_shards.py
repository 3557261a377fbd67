"""O14 bench: 1 vs 4 reactor shards under a Zipf (SpecWeb99) workload.

Two measurements:

* real sockets — the generated COPS-HTTP framework at O14=1 and O14=4
  serving a materialised SpecWeb99 file set to concurrent clients whose
  request paths follow the Zipf directory popularity (this is the
  BENCH_shards.json artifact CI uploads);
* simulation — the shard-count sweep behind the Fig 3 extension, under
  a CPU-bound configuration where the per-shard readiness-scan saving
  is visible.
"""

import os

import pytest

from repro.analysis import render_table
from repro.load import drive
from repro.servers.cops_http import build_cops_http
from repro.workload import SpecWebFileSet

#: ``python -m repro.bench --smoke`` sets this: a shrunk workload whose
#: absolute times are meaningless but whose shard-speedup ratio still
#: moves when sharding breaks.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
CLIENTS = 2 if SMOKE else 4
REQUESTS_PER_CLIENT = 5 if SMOKE else 40


@pytest.mark.parametrize("shards", (1, 4))
def test_cops_http_shard_throughput(benchmark, tmp_path, shards):
    docroot = tmp_path / "docroot"
    docroot.mkdir()
    paths = SpecWebFileSet(2.0, zipf_alpha=1.0, seed=3).materialise(
        docroot, CLIENTS * REQUESTS_PER_CLIENT)
    server, _fw, _report = build_cops_http(
        str(docroot), dest=str(tmp_path / "build"),
        package=f"bench_shards_{shards}_fw", shards=shards)
    server.start()
    try:
        benchmark.pedantic(
            lambda: drive(server.port, paths, CLIENTS, mode="close",
                          timeout=10).checked(),
            rounds=3, iterations=1, warmup_rounds=1)
    finally:
        server.stop()
    benchmark.extra_info["shards"] = shards
    benchmark.extra_info["requests"] = len(paths)


def test_shard_scaling_simulated(benchmark):
    from repro.experiments import format_fig3_shards, run_shard_sweep

    # SHARD_SWEEP_BASE is CPU-bound behind a wide pipe — the regime
    # where splitting the readiness scan across shards pays.
    results = benchmark.pedantic(
        run_shard_sweep,
        kwargs=dict(shard_counts=(1, 2, 4), clients=256,
                    duration=20.0, warmup=5.0),
        rounds=1, iterations=1)

    assert results[4].throughput > results[1].throughput
    for point in results.values():
        assert point.fairness > 0.9

    rows = [[str(s), f"{p.throughput:.1f}", f"{p.fairness:.3f}",
             f"{p.cpu_utilization:.2f}"]
            for s, p in sorted(results.items())]
    print()
    print(render_table(["shards", "thr/s", "fairness", "cpu"], rows,
                       title="O14 — REACTOR SHARD SCALING (CPU-bound, "
                             "256 clients)"))
    print(format_fig3_shards(results))
