"""Server launcher: the default COPS-HTTP build in its own interpreter.

``python -m perfbench.server --root DIR --dest DIR [--trace FILE]``

Builds ``build_cops_http(root)`` with the default options (generating
the framework under ``--dest``), starts it and prints one JSON line
with the port.  It then prints a second line describing the build, and
serves until a ``stop`` line (or EOF) arrives on stdin.  With
``--trace`` the layers are instrumented before the build
(:mod:`perfbench.tracing`) and the spans are written to FILE at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.server")
    parser.add_argument("--root", required=True)
    parser.add_argument("--dest", required=True)
    parser.add_argument("--trace")
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        from perfbench.tracing import SpanRecorder, instrument

        recorder = SpanRecorder()
        instrument(recorder)
    from repro.servers.cops_http import build_cops_http

    server, _fw, _report = build_cops_http(args.root, dest=args.dest)
    server.start()
    print(json.dumps({"port": server.port, "pid": os.getpid()}), flush=True)

    from repro.co2p3s.nserver import COPS_HTTP_OPTIONS, NSERVER

    print(json.dumps({
        "options": NSERVER.configure(dict(COPS_HTTP_OPTIONS)).as_dict(),
        "poller": server.reactor.socket_source.poller_name,
    }), flush=True)
    for line in sys.stdin:
        if line.strip() == "stop":
            break
    server.stop()
    if recorder is not None:
        recorder.dump(args.trace)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
