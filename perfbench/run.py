"""COPS-HTTP benchmark, one workload per run.

    python3 perfbench/run.py --workload hot-keepalive --seed 1 \\
        --seconds 35 --trace 0

Starts the default ``build_cops_http(docroot)`` server in its own
interpreter (every ``REPRO_*`` variable removed from its environment,
pinned to all CPUs but the first) and drives it over loopback from
this process, pinned to the first CPU: one thread, at most two
connections, every response checked (:mod:`perfbench.loadgen`).

``--trace 0`` prints the end-to-end metrics.  The measured server is
spawned, a discarded warm-up fills its cache and ROUNDS rounds follow,
each an open-loop Poisson slice at 300 requests/s, then a closed-loop
slice on both connections, then one more timed spawn of a spare server
(set-up is sampled across the whole run).  The open slices share
OPEN_SHARE of ``--seconds``, the closed slices the rest.

``--trace 1`` prints the per-layer metrics.  It runs one open-loop
phase for half of ``--seconds`` on a plain server, then the same on a
server whose layers are instrumented (:mod:`perfbench.tracing`); the
difference is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it report every metric by name with its unit, plus the run's details.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import workloads as wl  # noqa: E402
from perfbench.loadgen import TIMEOUT_S, LoadGenerator, Request  # noqa: E402
from perfbench.stats import percentile, tail_percentile  # noqa: E402
from perfbench.tracing import layer_metrics  # noqa: E402

#: open-loop offered load, requests per second
RATE = 300.0
CONNECTIONS = 2
#: share of --seconds given to the open-loop slices (the rest is closed loop)
OPEN_SHARE = 0.4
#: open/closed rounds per run: p50 and throughput are medians over
#: rounds, so one disturbed round does not move them
ROUNDS = 10
#: the file fetched as the first verified 200 of every spawn
PROBE = wl.path_of(0, 0, 1)
#: seconds allowed for a server to start or stop
SERVER_DEADLINE = 60.0
#: bound on the generator's own lateness p99, as a share of the open
#: loop's p99: above it the run is marked invalid (starved generator)
LATENESS_BOUND = 0.25

END_TO_END = {
    "setup_s": "s",
    "cpu_ms_per_req": "ms",
    "served_frac": "frac",
    "peak_rss_mb": "MB",
}

#: printed with every --trace 0 run but not gated: on a shared virtual
#: host latency and closed-loop throughput follow the host's load from
#: run to run by more than any allowed bound, and failed_frac is often 0
REPORTED = {
    "throughput_rps": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "failed_frac": "frac",
}

PER_LAYER = {
    "processor.queue_wait_p50_us": "us",
    "processor.queue_wait_p99_us": "us",
    "processor.queue_depth_max": "count",
    "dispatcher.dispatch_us": "us",
    "poller.events_per_poll": "count",
    "event_source.poll_self_us": "us",
    "cops_http.split_us": "us",
    "cops_http.decode_us": "us",
    "cops_http.handle_us": "us",
    "cops_http.encode_us": "us",
    "communicator.on_readable_us": "us",
    "communicator.complete_request_us": "us",
    "communicator.close_us": "us",
    "handles.send_us": "us",
    "acceptor.accepts_per_wakeup": "count",
    "acceptor.accept_us": "us",
    "cache.hit_ratio": "frac",
    "cache.evictions_per_req": "1/req",
    "cache.get_file_us": "us",
    "file_io.inline_frac": "frac",
    "file_io.completion_us": "us",
    "handles.partial_send_frac": "frac",
    "handles.bytes_per_send": "B",
    "communicator.on_writable_per_req": "1/req",
    "handles.recv_eagain_frac": "frac",
    "buffers.read_pool_hit_ratio": "frac",
    "cache.bytes_held_mb": "MB",
    "trace.server_us": "us",
    "trace.unaccounted_frac": "frac",
    "trace.overhead_frac": "frac",
    "trace.p50_overhead_frac": "frac",
}


class ServerProcess:
    """One COPS-HTTP server interpreter."""

    def __init__(self, ctx: "Context", index: int,
                 trace: Optional[Path] = None):
        self.spawned = time.monotonic()
        dest = ctx.work / f"gen{index}"
        cmd = [sys.executable, "-m", "perfbench.server",
               "--root", str(ctx.docroot), "--dest", str(dest)]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        self.log = open(ctx.work / f"server{index}.log", "wb")
        # The child inherits the CPU set in force when it is forked.
        os.sched_setaffinity(0, ctx.server_cpus)
        try:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=self.log, bufsize=0)
        finally:
            os.sched_setaffinity(0, ctx.generator_cpus)
        self._buffer = b""
        self.info: Dict = {}
        try:
            hello = self.read_json()
        except BaseException:
            self.stop()
            raise
        self.port = hello["port"]
        self.pid = hello["pid"]

    def read_json(self) -> Dict:
        """Next stdout line of the server, as JSON."""
        deadline = time.monotonic() + SERVER_DEADLINE
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise RuntimeError("server did not answer in time")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RuntimeError(
                    f"server exited (code {self.proc.poll()}); see "
                    f"{self.log.name}")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def cpu_seconds(self) -> float:
        """utime + stime of the server process so far."""
        with open(f"/proc/{self.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` in MiB."""
        with open(f"/proc/{self.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Ask the server to stop; kill it if it does not; wait."""
        try:
            if self.proc.poll() is None:
                try:
                    self.proc.stdin.write(b"stop\n")
                    self.proc.stdin.close()
                except OSError:
                    pass
                try:
                    self.proc.wait(timeout=SERVER_DEADLINE)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            self.proc.stdout.close()
            self.log.close()


class Context:
    """What every phase of one run needs."""

    def __init__(self, workload: wl.Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.docroot = work / "docroot"
        self.manifest: Dict = {}
        self.tally = Tally()
        #: CPUs this run may use; the generator gets the first, the
        #: server the others, so the two never compete for a CPU
        self.cpus = sorted(os.sched_getaffinity(0))
        self.generator_cpus = set(self.cpus[:1])
        self.server_cpus = set(self.cpus[1:])

    def generator(self, port: int, per_connection=None) -> LoadGenerator:
        if per_connection is None:
            per_connection = self.workload.per_connection
        return LoadGenerator(port, self.manifest, per_connection,
                             CONNECTIONS)


class Tally:
    """Counts over the measured phases, plus response correctness over
    every request the run made."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.errors: Dict[str, int] = {}

    def count(self, requests: List[Request]) -> None:
        self.attempted += len(requests)
        self.failed += sum(not r.ok for r in requests)

    def absorb(self, gen: LoadGenerator) -> None:
        gen.close()
        self.mismatches += gen.mismatches
        for error, n in gen.errors.items():
            self.errors[error] = self.errors.get(error, 0) + n


def start_server(ctx: Context, index: int, trace=None) -> tuple:
    """Spawn a server; return it with its spawn-to-first-verified-200
    time."""
    server = ServerProcess(ctx, index, trace)
    try:
        probe = ctx.generator(server.port, per_connection=1)
        req = probe.fetch(PROBE)
        ctx.tally.absorb(probe)
        if not req.ok:
            raise RuntimeError(f"probe request failed: {req.error}")
        server.info = server.read_json()
    except BaseException:
        server.stop()
        raise
    return server, req.done - server.spawned


def warm_up(ctx: Context, gen: LoadGenerator) -> None:
    """Discarded phase: one pass over the sweep files, then closed
    loop until the cache holds the workload's working set."""
    paths = itertools.chain(
        wl.sweep_paths(ctx.workload),
        wl.request_paths(ctx.workload, ctx.seed, "warmup"))
    gen.closed_loop(paths, ctx.workload.warmup_seconds)


def latency_ms(requests: List[Request], p: float) -> float:
    """Nearest-rank ``p``-th percentile latency; a failed request
    counts as missing any limit (ranked last, reported as the timeout
    when it is the one picked)."""
    latencies = sorted(r.latency for r in requests)
    return min(percentile(latencies, p), TIMEOUT_S) * 1e3


def tail_summary(requests: List[Request]) -> Dict:
    """p50, p99 and the reporting rule's tail over a pooled sample."""
    n = len(requests)
    tail = tail_percentile(n)
    if tail is None or tail < 99.0:
        raise RuntimeError(f"{n} open-loop samples: too few for a p99 "
                           "with ten beyond it (raise --seconds)")
    return {"samples": n, "p50_ms": latency_ms(requests, 50),
            "p99_ms": latency_ms(requests, 99), "tail_pct": tail,
            "tail_ms": latency_ms(requests, tail)}


def generator_figures(requests: List[Request]) -> Dict:
    """The generator's self-check over open-loop requests."""
    lateness = sorted(r.issued - r.ready for r in requests)
    waits = sorted(r.ready - r.due for r in requests)
    return {"lateness_p99_ms": percentile(lateness, 99) * 1e3,
            "conn_wait_p99_ms": percentile(waits, 99) * 1e3}


def measure(ctx: Context, seconds: float) -> tuple:
    """--trace 0: set-up, warm-up, then ROUNDS rounds of an open-loop
    slice, a closed-loop slice and a spare server's set-up.  setup_s is
    the median of the ROUNDS + 1 set-ups, so it samples the host over
    the whole run rather than over its first second.  p50 and
    throughput are medians over the rounds; CPU per request and p99
    pool every open slice.  Returns the gated metrics and the run's
    details, which hold the reported ones."""
    workload, seed, tally = ctx.workload, ctx.seed, ctx.tally
    open_s = seconds * OPEN_SHARE / ROUNDS
    closed_s = seconds * (1 - OPEN_SHARE) / ROUNDS
    schedule = list(zip(wl.poisson_schedule(RATE, open_s * ROUNDS, seed),
                        wl.request_paths(workload, seed, "open")))
    closed_paths = wl.request_paths(workload, seed, "closed")
    setups: List[float] = []
    rounds: List[Dict] = []
    opened: List[Request] = []
    cpu = 0.0
    server = gen = None
    try:
        server, took = start_server(ctx, 0)
        setups.append(took)
        gen = ctx.generator(server.port)
        if workload.per_connection == 0:
            gen.preconnect()   # held open for the whole run
        warm_up(ctx, gen)
        for k in range(ROUNDS):
            part = [(t - k * open_s, path) for t, path in schedule
                    if k * open_s <= t < (k + 1) * open_s]
            cpu0 = server.cpu_seconds()
            requests = gen.open_loop(part, gen.clock() + 0.005)
            cpu += server.cpu_seconds() - cpu0
            closed, _start, end = gen.closed_loop(closed_paths, closed_s)
            rounds.append({
                "samples": len(requests),
                "p50_ms": latency_ms(requests, 50),
                "p99_ms": latency_ms(requests, 99),
                "throughput_rps": sum(
                    r.ok and r.done <= end for r in closed) / closed_s})
            opened += requests
            tally.count(requests)
            tally.count(closed)
            spare, took = start_server(ctx, k + 1)
            spare.stop()
            setups.append(took)
        rss = server.peak_rss_mb()
        info = server.info
    finally:
        if gen is not None:
            tally.absorb(gen)
        if server is not None:
            server.stop()
    metrics = {
        "setup_s": statistics.median(setups),
        "cpu_ms_per_req": cpu * 1e3 / max(sum(r.ok for r in opened), 1),
        "served_frac": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": rss,
    }
    details = {
        "setup_spawns_s": setups,
        "throughput_rps": statistics.median(
            r["throughput_rps"] for r in rounds),
        "p50_ms": statistics.median(r["p50_ms"] for r in rounds),
        "rounds": rounds,
        "open_loop": tail_summary(opened),
        "generator": generator_figures(opened),
    }
    return metrics, details, info


def traced_phase(ctx: Context, server, seconds: float) -> Dict:
    """Warm-up, then one open-loop phase on fresh connections; returns
    its figures and the time window that covers it."""
    gen = ctx.generator(server.port)
    warm_up(ctx, gen)
    ctx.tally.absorb(gen)
    schedule = list(zip(wl.poisson_schedule(RATE, seconds, ctx.seed),
                        wl.request_paths(ctx.workload, ctx.seed, "open")))
    gen = ctx.generator(server.port)
    window_start = gen.clock()
    if ctx.workload.per_connection == 0:
        gen.preconnect()
    cpu0 = server.cpu_seconds()
    requests = gen.open_loop(schedule, gen.clock() + 0.005)
    cpu1 = server.cpu_seconds()
    ctx.tally.absorb(gen)
    ctx.tally.count(requests)
    time.sleep(0.05)   # let the server finish closing the connections
    served = [r for r in requests if r.ok]
    out = tail_summary(requests)
    out.update(served=served, window=(window_start, gen.clock()),
               cpu_ms_per_req=(cpu1 - cpu0) * 1e3 / max(len(served), 1),
               generator=generator_figures(requests))
    return out


def traced(ctx: Context, seconds: float) -> tuple:
    """--trace 1: the open loop on a plain server, then on a traced one."""
    phases = []
    spans_file = ctx.work / "spans.json"
    for index, trace in ((0, None), (1, spans_file)):
        server, _took = start_server(ctx, index, trace)
        try:
            phases.append(traced_phase(ctx, server, seconds / 2))
            info = server.info
        finally:
            server.stop()
    plain, inst = phases
    with open(spans_file) as fh:
        spans = json.load(fh)
    w0, w1 = inst["window"]
    metrics = layer_metrics(
        spans, w0, w1, len(inst["served"]),
        sum(r.done - r.issued for r in inst["served"]))
    metrics["trace.overhead_frac"] = (
        inst["cpu_ms_per_req"] / plain["cpu_ms_per_req"] - 1.0)
    metrics["trace.p50_overhead_frac"] = inst["p50_ms"] / plain["p50_ms"] - 1.0
    details = {
        "spans": len(spans),
        "untraced": {k: plain[k] for k in ("p50_ms", "cpu_ms_per_req")},
        "traced": {k: inst[k] for k in ("p50_ms", "p99_ms",
                                        "cpu_ms_per_req")},
        "generator": inst["generator"],
    }
    return metrics, details, info


def run(args) -> int:
    workload = wl.WORKLOADS[args.workload]
    if not (ROOT / "src" / "repro" / "servers" / "cops_http.py").is_file():
        print(f"perfbench: no COPS-HTTP sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # The build step: byte-compile the program so no run pays for it.
    for tree in ("src", "perfbench"):
        if not compileall.compile_dir(str(ROOT / tree), quiet=1):
            print(f"perfbench: {tree} does not compile", file=sys.stderr)
            return 2
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    ctx = Context(workload, args.seed, work)
    if len(ctx.cpus) < 2:
        # The generator busy-polls its own CPU; sharing one with the
        # server would starve the server.
        print("perfbench: needs at least 2 CPUs", file=sys.stderr)
        return 2
    ctx.docroot.mkdir(parents=True)
    os.sched_setaffinity(0, ctx.generator_cpus)
    try:
        ctx.manifest = wl.build_fileset(str(ctx.docroot), workload, args.seed)
        # Write the file set back now, not in the middle of a phase; its
        # pages stay in the page cache.
        os.sync()
        if args.trace:
            metrics, details, info = traced(ctx, args.seconds)
            units = PER_LAYER
        else:
            metrics, details, info = measure(ctx, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tally = ctx.tally
    figures = details["generator"]
    p99 = details["open_loop" if "open_loop" in details else "traced"][
        "p99_ms"]
    # Lateness adds straight onto latency: past this share of the p99
    # the generator, not the server, could be what moved it.
    valid = figures["lateness_p99_ms"] <= LATENESS_BOUND * p99
    details.update({
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "rate_rps": RATE,
        "connections": CONNECTIONS, "valid": valid,
        "failed_frac": tally.failed / tally.attempted,
        "build": "build_cops_http(docroot), default options",
        "options": info["options"], "poller": info["poller"],
        "nproc": len(ctx.cpus),
        "generator_cpus": sorted(ctx.generator_cpus),
        "server_cpus": sorted(ctx.server_cpus),
        "python": platform.python_version(),
        "transport": "TCP over loopback (127.0.0.1)",
        "file_reads": "page cache (file set written just before the run)",
        "errors": tally.errors,
    })
    print(f"perfbench {workload.name} seed={args.seed} "
          f"trace={int(args.trace)}: {details['poller']} poller, "
          f"nproc={details['nproc']}, Python {details['python']}")
    for name, unit in units.items():
        print(f"  {name:36s} {metrics[name]:14.6g} {unit}")
    reported = {"failed_frac": (details["failed_frac"],
                                f"{tally.failed} of {tally.attempted}")}
    if not args.trace:
        whole = details["open_loop"]
        reported["throughput_rps"] = (details["throughput_rps"], (
            f"median over the {ROUNDS} closed-loop slices on "
            f"{CONNECTIONS} connections"))
        reported["p50_ms"] = (details["p50_ms"], (
            f"median over the {ROUNDS} open-loop slices of each one's p50"))
        reported["p99_ms"] = (whole["p99_ms"], (
            f"p{whole['tail_pct']:g} is the highest percentile with >= 10 "
            f"of the {whole['samples']} open-loop samples beyond it"))
    for name, (value, note) in reported.items():
        print(f"  {name:36s} {value:14.6g} {REPORTED[name]}   "
              f"(reported, not gated: {note})")
    print(f"  generator lateness p99 {figures['lateness_p99_ms']:.4f} ms, "
          f"connection wait p99 {figures['conn_wait_p99_ms']:.4f} ms: "
          + ("valid" if valid else "run INVALID (lateness above "
             f"{LATENESS_BOUND:g} x p99)"))
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": tally.mismatches == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True,
                        choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def terminate(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    try:
        return run(args)
    except Exception:  # noqa: BLE001 - report and fail without a result
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
