"""COPS-HTTP: the paper's high-performance static-content web server.

Built exactly the paper's way: the N-Server template generates the
framework (Table 1, COPS-HTTP column: one dispatcher thread, separate
Event Processor pool, asynchronous completion events emulating
non-blocking disk I/O, LRU file cache), and the application supplies
only the hook methods below plus the HTTP protocol library
(:mod:`repro.http`).

The handle hook is asynchronous: a GET issues an emulated non-blocking
file read and returns :data:`PENDING`; the completion event (carrying an
Asynchronous Completion Token that remembers the request) builds the
response and finishes the request on the connection.
"""

from __future__ import annotations

import tempfile
from typing import Optional

from repro import http
from repro.servers import http_degradation as o17
from repro.co2p3s.nserver import COPS_HTTP_OPTIONS, NSERVER
from repro.co2p3s.template import load_generated_package
from repro.runtime import AsynchronousCompletionToken, PENDING, ServerHooks

__all__ = ["CopsHttpHooks", "build_cops_http", "main"]


class _Garbage(bytes):
    """Unframeable input passed through to the Decode step, carrying
    the framing error so its status survives the trip — an oversized
    Content-Length must stay a 413, not get re-parsed into a served
    request (a smuggling vector the conformance sweep caught)."""

    error: Optional[http.BadRequest] = None


class CopsHttpHooks(ServerHooks):
    """The hand-written part of COPS-HTTP (Table 4's "other application
    code"): HTTP semantics on top of the generated framework."""

    index_file = "index.html"
    #: Apache ``mod_status``-style endpoint; answered only when the
    #: framework was generated with O11=Yes (``?auto`` = machine format).
    status_path = "/server-status"

    def __init__(self, default_priority: int = 0):
        self.default_priority = default_priority

    # -- framing -------------------------------------------------------
    def split_request(self, data: bytes):
        """HTTP framing: head + Content-Length body."""
        try:
            return http.split_request(data)
        except http.BadRequest as exc:
            # Let decode() see the garbage and answer with an error.
            garbage = _Garbage(data)
            garbage.error = exc
            return garbage, b""

    # -- Decode Request ---------------------------------------------------
    def decode(self, raw: bytes, conn):
        if isinstance(raw, _Garbage):
            return raw.error  # the framing error, status intact
        try:
            request = http.parse_request(raw)
        except http.BadRequest as exc:
            return exc  # handled below; connection answers and closes
        try:
            request.validate()
            return request
        except http.BadRequest as exc:
            # The request parsed, so the method is known: an error
            # answering a HEAD must not carry the error page's body.
            exc.head_only = request.method == "HEAD"
            return exc

    # -- Handle Request -----------------------------------------------------
    def handle(self, request, conn):
        if isinstance(request, http.BadRequest):
            return self._error(conn, request.status, close=True,
                               head_only=getattr(request, "head_only",
                                                 False))
        if request.method not in ("GET", "HEAD"):
            # Supported-but-unimplemented verb: 501 on a live connection.
            return self._error(conn, 501, version=request.version,
                               close=not request.keep_alive)
        if request.path == self.status_path:
            return self._server_status(request, conn)
        path = request.path
        if path.endswith("/"):
            path += self.index_file
        head_only = request.method == "HEAD"
        keep_alive = request.keep_alive
        version = request.version

        # O17: per-request priority shedding — under a tripped
        # watermark, classes below the policy floor answer 503 without
        # ever touching the file I/O plane.
        plane = o17.degradation_plane(conn)
        shedding = getattr(plane, "shedding", None)
        if shedding is not None:
            decision = shedding.admit_request(
                self.classify_request(request),
                getattr(conn.handle, "trace_id", 0))
            if not decision.admitted:
                return o17.shed_response(request, decision)

        # O17 brownout: above the stale threshold, answer from whatever
        # the cache plane already holds — no disk, no revalidation.
        brownout = getattr(plane, "brownout", None)
        if brownout is not None and brownout.serve_stale:
            stale = o17.stale_payload(conn, path)
            if stale is not None:
                brownout.served_stale()
                return self._file_response(
                    path, stale, head_only, keep_alive, version,
                    brownout=brownout)

        # The order ticket pairs the disk completion with *this* request:
        # pipelined reads finish out of order (worker threads, inline
        # cache hits) and the reply must not attach to whichever request
        # happens to head the queue.
        ticket = conn.current_ticket()
        act = AsynchronousCompletionToken(
            context=(path, head_only, keep_alive, version, ticket),
            on_complete=lambda event: self._file_ready(conn, event),
        )
        conn.reactor.compute_request_event_handler.read_file(
            path, act, priority=conn.priority)
        return PENDING

    def classify_request(self, request) -> str:
        """O17 request class, priority-ordered: ``status`` (operator
        traffic) > ``page`` (HTML) > ``asset`` (everything else, the
        bulk bytes that shed first under pressure)."""
        if request.path == self.status_path:
            return "status"
        if request.path.endswith("/") or request.path.endswith(".html"):
            return "page"
        return "asset"

    def _file_response(self, path, payload, head_only, keep_alive, version,
                       brownout=None):
        """Build the 200 for a served file, applying the brownout
        response cap when one is active."""
        payload = o17.bound_payload(payload, brownout)
        headers = http.Headers([
            ("Content-Type", http.guess_type(path)),
        ])
        if not keep_alive:
            headers.set("Connection", "close")
        elif version == "HTTP/1.0":
            # HTTP/1.0 defaults to close: staying open must be echoed,
            # or the client hangs up after the first response.
            headers.set("Connection", "keep-alive")
        response = http.HttpResponse(status=200, headers=headers,
                                     body=payload, version=version,
                                     head_only=head_only)
        response._close_after = not keep_alive
        return response

    def _file_ready(self, conn, event) -> None:
        path, head_only, keep_alive, version, ticket = event.token.context
        if not event.ok:
            # O17: a failing disk (or an open breaker) can still be
            # browned out — answer stale from the cache plane rather
            # than 404ing content we have in memory.
            plane = o17.degradation_plane(conn)
            brownout = getattr(plane, "brownout", None)
            if brownout is not None and brownout.serve_stale:
                stale = o17.stale_payload(conn, path)
                if stale is not None:
                    brownout.served_stale()
                    conn.complete_request(self._file_response(
                        path, stale, head_only, keep_alive, version,
                        brownout=brownout), ticket)
                    return
            response = http.error_response(404, version=version,
                                           close=not keep_alive,
                                           head_only=head_only)
            if keep_alive and version == "HTTP/1.0":
                response.headers.set("Connection", "keep-alive")
            response._close_after = not keep_alive
        else:
            plane = o17.degradation_plane(conn)
            response = self._file_response(
                path, event.payload, head_only, keep_alive, version,
                brownout=getattr(plane, "brownout", None))
        conn.complete_request(response, ticket)

    def _server_status(self, request, conn):
        """The ``/server-status`` surface: HTML report, the Apache
        ``mod_status`` machine-readable format with ``?auto``, or the
        recent-request trace report with ``?trace``.

        The observability layer only exists when the framework was
        generated with O11=Yes; any other build answers 404 — the page,
        like every O11 call site, leaves no trace in an O11=No server.
        """
        observability = getattr(conn.reactor, "observability", None)
        keep_alive = request.keep_alive
        if observability is None:
            return self._error(conn, 404, version=request.version,
                               close=not keep_alive,
                               head_only=request.method == "HEAD")
        query = request.query.split("&")
        auto = "auto" in query
        if "trace" in query:
            body = observability.trace_report()
            content_type = "text/plain; charset=utf-8"
        else:
            body = observability.status_report(auto=auto)
            content_type = ("text/plain; charset=utf-8" if auto
                            else "text/html; charset=utf-8")
            if auto:
                plane = o17.degradation_plane(conn)
                if plane is not None:
                    body += o17.degradation_report(plane)
        headers = http.Headers([("Content-Type", content_type)])
        if not keep_alive:
            headers.set("Connection", "close")
        elif request.version == "HTTP/1.0":
            headers.set("Connection", "keep-alive")
        response = http.HttpResponse(status=200, headers=headers,
                                     body=body.encode("utf-8"),
                                     version=request.version,
                                     head_only=request.method == "HEAD")
        response._close_after = not keep_alive
        return response

    def _error(self, conn, status: int, version: str = "HTTP/1.1",
               close: bool = False, head_only: bool = False):
        response = http.error_response(status, version=version, close=close,
                                       head_only=head_only)
        if not close and version == "HTTP/1.0":
            response.headers.set("Connection", "keep-alive")
        response._close_after = close
        return response

    # -- Encode Reply ---------------------------------------------------------
    def encode(self, result, conn):
        """Serialise the response: segments on the zero-copy write path
        (O15=zerocopy builds give every Communicator the shared header
        pool), one concatenated ``bytes`` otherwise."""
        if getattr(result, "_close_after", False):
            conn.close_after_flush = True
        pool = getattr(conn, "buffer_pool", None)
        if pool is not None:
            return result.encode_segments(pool=pool)
        return result.encode()

    # -- event scheduling hook (Fig 5: 13 added lines in the paper) -------------
    def classify_priority(self, conn) -> int:
        return self.default_priority


class PriorityByPeerHooks(CopsHttpHooks):
    """The Fig 5 scheduling policy: the peer's address decides whether a
    connection is corporate-portal (high priority) or personal-homepage
    traffic.  This subclass is the analogue of the paper's "only 13
    lines of code are added to COPS-HTTP"."""

    def __init__(self, portal_peers, portal_priority: int = 1,
                 homepage_priority: int = 0):
        super().__init__()
        self.portal_peers = set(portal_peers)
        self.portal_priority = portal_priority
        self.homepage_priority = homepage_priority

    def classify_priority(self, conn) -> int:
        peer = conn.handle.name.split(":")[0]
        if peer in self.portal_peers:
            return self.portal_priority
        return self.homepage_priority


def build_cops_http(
    document_root: str,
    options: Optional[dict] = None,
    hooks: Optional[CopsHttpHooks] = None,
    dest: Optional[str] = None,
    package: str = "cops_http_fw",
    host: str = "127.0.0.1",
    port: int = 0,
    shards: int = 1,
    procs: int = 1,
    write_path: str = "buffered",
    degradation: bool = False,
    poller: Optional[str] = None,
    **config_overrides,
):
    """Generate the COPS-HTTP framework and return a started-able Server.

    ``shards`` > 1 regenerates the framework with option O14 (reactor
    shards): N reactors behind the primary's listening endpoint, each
    with its own event sources, Event Processor pool and scheduler
    queue.  Pass ``shard_policy=...`` as a config override to pick the
    connection-placement policy.

    ``procs`` > 1 regenerates the framework with option O16 (worker
    processes): the Server becomes a process supervisor forking N
    worker interpreters, each running its own (possibly O14-sharded)
    reactor on a shared ``SO_REUSEPORT`` listen socket, with crash
    respawn and zero-downtime rolling restart.  Hooks must then be
    importable by module path — they are re-created inside each
    worker — so pass a module-level hooks class (or none).

    ``write_path="zerocopy"`` regenerates with option O15: pooled
    header buffers, cached bodies as memoryview segments, and a
    scatter-gather send loop instead of the copying write path.

    ``degradation=True`` regenerates with option O17: explicit
    prioritized load shedding (503 + ``Retry-After`` instead of silent
    postpone), per-client rate limiting, brownout, and a circuit-broken
    file I/O plane.

    ``poller="epoll"`` regenerates with option O18: the edge-triggered
    ``select.epoll`` readiness backend with batched accepts.
    ``poller="select"`` (O18's default) emits no backend choice, so the
    runtime takes ``$REPRO_POLLER``, else epoll where available: start
    the server under :func:`repro.runtime.pinned_poller` to run the
    select oracle.  ``None`` leaves O18 at whatever ``options`` says.

    Returns ``(server, framework_module, generation_report)``.
    """
    option_dict = dict(options or COPS_HTTP_OPTIONS)
    if shards != 1:
        option_dict["O14"] = shards
    if procs != 1:
        option_dict["O16"] = procs
    if write_path != "buffered":
        option_dict["O15"] = write_path
    if degradation:
        # O17 rides on O9: the shedding policy consults the overload
        # controller, so the degradation build always has one.
        option_dict["O9"] = True
        option_dict["O17"] = True
    if poller is not None:
        option_dict["O18"] = poller
    opts = NSERVER.configure(option_dict)
    dest = dest or tempfile.mkdtemp(prefix="cops_http_")
    report = NSERVER.generate(opts, dest, package=package)
    fw = load_generated_package(dest, package)
    configuration = fw.ServerConfiguration(
        host=host, port=port, document_root=document_root, **config_overrides)
    server = fw.Server(hooks or CopsHttpHooks(), configuration=configuration)
    return server, fw, report


def main(argv=None) -> int:
    """``python -m repro.servers.cops_http --root DIR [--shards N]``."""
    import argparse, time

    parser = argparse.ArgumentParser(
        prog="cops-http",
        description="COPS-HTTP: the generated static-content web server.")
    parser.add_argument("--root", required=True,
                        help="document root to serve")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="listen port (0 = ephemeral)")
    parser.add_argument("--shards", type=int, default=1,
                        choices=(1, 2, 4, 8),
                        help="reactor shards (template option O14)")
    parser.add_argument("--procs", type=int, default=1,
                        choices=(1, 2, 4, 8),
                        help="worker processes (template option O16); "
                             "SIGHUP rolls them with zero downtime")
    parser.add_argument("--policy", default="round-robin",
                        choices=("round-robin", "least-connections",
                                 "connection-hash"),
                        help="shard placement policy (O14>1 builds only)")
    parser.add_argument("--observability", action="store_true",
                        help="generate with O11=Yes (/server-status)")
    parser.add_argument("--write-path", default="buffered",
                        choices=("buffered", "zerocopy"),
                        help="response write path (template option O15)")
    parser.add_argument("--degradation", action="store_true",
                        help="generate with O17=Yes (graceful degradation)")
    parser.add_argument("--poller", choices=("select", "epoll"),
                        help="readiness backend (template option O18; "
                             "default: platform pick)")
    args = parser.parse_args(argv)

    option_dict = dict(COPS_HTTP_OPTIONS, O11=args.observability)
    overrides = {"shard_policy": args.policy} if args.shards != 1 else {}
    server, _fw, _report = build_cops_http(
        args.root, options=option_dict, host=args.host, port=args.port,
        shards=args.shards, procs=args.procs,
        write_path=args.write_path,
        degradation=args.degradation, poller=args.poller, **overrides)
    server.start()
    if args.procs != 1:
        # Operator signal plane: SIGHUP = rolling restart, SIGTERM =
        # drain and stop, SIGUSR2 = flight-recorder dumps per worker.
        server.deployment.install_signals()
    shape = (f"{args.shards} shards ({args.policy})"
             if args.shards != 1 else "single reactor")
    if args.procs != 1:
        shape += f", {args.procs} worker processes"
    if args.write_path != "buffered":
        shape += f", {args.write_path} write path"
    if args.degradation:
        shape += ", graceful degradation"
    if args.poller:
        shape += f", {args.poller} poller"
    print(f"COPS-HTTP serving {args.root} on "
          f"{args.host}:{server.port} — {shape}", flush=True)
    try:
        while True:
            time.sleep(1.0)
            # A SIGTERM drain runs on its own thread; leave the
            # foreground loop once it has stopped the deployment.
            if (args.procs != 1
                    and not server.deployment.supervisor.running):
                break
    except KeyboardInterrupt:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
