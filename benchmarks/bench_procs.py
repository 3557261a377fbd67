"""O16 bench: 1 vs 4 worker processes.

Two measurements:

* real sockets — the generated COPS-HTTP framework at O16=1 and O16=4
  serving a materialised SpecWeb99 file set to concurrent clients
  (this is the BENCH_procs.json artifact CI uploads; on a single-core
  host the honest ratio is ~1.0x minus supervisor overhead, and the
  gate compares against the committed baseline, not an aspiration);
* CPU-bound scaling — the fig3-procs sweep, where a GIL-holding hook
  makes processes the only axis that can scale; its absolute floor
  assertion only fires on hosts with >= 4 cores.
"""

import os

import pytest

from repro.analysis import render_table
from repro.load import drive
from repro.servers.cops_http import build_cops_http
from repro.workload import SpecWebFileSet

#: ``python -m repro.bench --smoke`` sets this: a shrunk workload whose
#: absolute times are meaningless but whose process-speedup ratio still
#: moves when the deployment plane breaks.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
CLIENTS = 2 if SMOKE else 4
REQUESTS_PER_CLIENT = 5 if SMOKE else 40


@pytest.mark.parametrize("procs", (1, 4))
def test_cops_http_procs_throughput(benchmark, tmp_path, procs):
    docroot = tmp_path / "docroot"
    docroot.mkdir()
    paths = SpecWebFileSet(2.0, zipf_alpha=1.0, seed=3).materialise(
        docroot, CLIENTS * REQUESTS_PER_CLIENT)
    server, _fw, _report = build_cops_http(
        str(docroot), dest=str(tmp_path / "build"),
        package=f"bench_procs_{procs}_fw", procs=procs)
    server.start()
    try:
        benchmark.pedantic(
            lambda: drive(server.port, paths, CLIENTS, mode="close",
                          timeout=10).checked(),
            rounds=3, iterations=1, warmup_rounds=1)
    finally:
        server.stop()
    benchmark.extra_info["procs"] = procs
    benchmark.extra_info["requests"] = len(paths)


def test_procs_scaling_cpu_bound(benchmark):
    from repro.experiments import format_fig3_procs, run_procs_sweep

    results = benchmark.pedantic(
        run_procs_sweep,
        kwargs=dict(proc_counts=(1, 2, 4), requests=256, clients=8),
        rounds=1, iterations=1)

    if (os.cpu_count() or 1) >= 4:
        # Only a multi-core host can cash the GIL-escape cheque; a
        # single core honestly reports ~1.0x and skips the floor.
        assert results[4].throughput >= 2.5 * results[1].throughput

    rows = [[str(p), f"{pt.throughput:.1f}",
             f"{pt.throughput / results[1].throughput:.2f}x"]
            for p, pt in sorted(results.items())]
    print()
    print(render_table(["procs", "thr/s", "speedup"], rows,
                       title="O16 — WORKER-PROCESS SCALING (CPU-bound "
                             "hook, 8 clients)"))
    print(format_fig3_procs(results))
