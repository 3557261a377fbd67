"""Per-layer tracing for the traced run.

Two halves:

* :class:`SpanRecorder` and :func:`instrument` run inside the server
  process (``perfbench/server.py --trace FILE``).  They wrap the public
  functions of each layer from outside the program: nothing under
  ``src/`` changes.  Each call records one span ``(id, name, start,
  end, parent, request, value)``: ``parent`` is the enclosing span on
  the same thread, ``request`` is ``"<trace_id>.<index>"`` (the
  connection handle's trace id plus the index of the request on that
  connection), ``value`` is a small per-layer count.  Spans stay in
  memory and are written once, at exit.
* :func:`self_times` and :func:`layer_metrics` run in the benchmark
  process and turn a span dump into the per-layer metrics.

A span's *self time* is its duration minus the part of its interval
that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from perfbench.stats import percentile

__all__ = ["SpanRecorder", "instrument", "layer_metrics", "self_times",
           "union_length"]

#: spans that are mostly blocking waits, not work: left out of the
#: covered time behind ``trace.unaccounted_frac``
WAIT_SPANS = frozenset({"poller.poll"})

#: span names whose value the analysis reads
_VALUED = frozenset({
    "processor.submit", "processor.process_event", "poller.poll",
    "handles.recv", "handles.send", "acceptor.try_accept", "cache.get_file",
    "cache.put", "file_io.read_file", "file_io.complete", "buffers.acquire"})

Span = Tuple[int, str, float, float, Optional[int], Optional[str], object]


class SpanRecorder:
    """In-memory span store plus the wrapper that feeds it."""

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: connection trace id -> index of its request in progress
        self.request_index: Dict[int, int] = {}
        #: id(ACT) -> request that issued the file read
        self.act_requests: Dict[int, Optional[str]] = {}

    def request(self, trace_id: int) -> str:
        return f"{trace_id}.{self.request_index.get(trace_id, 0)}"

    def wrap(self, owner, attr: str, name: str, request=None,
             note=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``request(inherited, *args, **kwargs)`` names the call's request
        (default: the enclosing span's); ``note(result, *args,
        **kwargs)`` gives the span's value."""
        original = owner.__dict__[attr]
        record = self.spans.append
        clock = self.clock
        ids = self._ids
        local = self._local

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent, inherited = stack[-1] if stack else (None, None)
            rid = (inherited if request is None
                   else request(inherited, *args, **kwargs))
            sid = next(ids)
            stack.append((sid, rid))
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                stack.pop()
                record((sid, name, start, clock(), parent, rid, None))
                raise
            end = clock()
            stack.pop()
            value = None if note is None else note(result, *args, **kwargs)
            record((sid, name, start, end, parent, rid, value))
            return result

        setattr(owner, attr, traced)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def instrument(rec: SpanRecorder) -> None:
    """Wrap every layer's public functions (call before building the
    server; generated classes are wrapped as their package loads)."""
    from repro.cache import base, file_cache
    from repro.runtime import (buffers, communicator, dispatcher,
                               event_source, events, file_io, handles,
                               poller, processor)
    from repro.servers import cops_http

    def event_request(inherited, self, event, *rest):
        trace_id = getattr(event.handle, "trace_id", None)
        if trace_id is not None:
            return rec.request(trace_id)
        token = getattr(event, "token", None)
        return rec.act_requests.get(id(token), inherited)

    def conn_request(inherited, self, *rest, **kw):
        return rec.request(self.handle.trace_id)

    def hook_request(inherited, self, payload, conn):
        return rec.request(conn.handle.trace_id)

    def handle_request(inherited, self, *rest, **kw):
        return rec.request(self.trace_id)

    def read_file_request(inherited, self, path, act=None, priority=0):
        rec.act_requests[id(act)] = inherited
        return inherited

    def complete_request(inherited, self):
        return rec.act_requests.pop(id(self.token), inherited)

    def sent(result, self):
        remaining = len(self.out_buffer)
        if result and not remaining:
            # The reply is out: later reads belong to the next request.
            rec.request_index[self.trace_id] = (
                rec.request_index.get(self.trace_id, 0) + 1)
        return (result, remaining)

    wrap = rec.wrap
    wrap(processor.EventProcessor, "submit", "processor.submit",
         event_request, lambda r, self, event: (event.event_id,
                                                self.queue_length))
    wrap(dispatcher.EventDispatcher, "dispatch", "dispatcher.dispatch",
         event_request)
    for cls in (poller.EpollPoller, poller.SelectPoller):
        wrap(cls, "poll", "poller.poll",
             note=lambda r, *a, **k: sum(data is not None for data, _ in r))
    wrap(event_source.SocketEventSource, "poll", "event_source.poll")
    hooks = cops_http.CopsHttpHooks
    wrap(hooks, "split_request", "cops_http.split")
    for step in ("decode", "handle", "encode"):
        wrap(hooks, step, f"cops_http.{step}", hook_request)
    comm = communicator.Communicator
    for method in ("on_readable", "on_writable", "complete_request",
                   "close"):
        wrap(comm, method, f"communicator.{method}", conn_request)
    sock = handles.SocketHandle
    wrap(sock, "try_recv", "handles.recv", handle_request,
         lambda r, *a, **k: -1 if r is None else len(r))
    wrap(sock, "try_send", "handles.send", handle_request, sent)
    wrap(handles.ListenHandle, "try_accept", "acceptor.try_accept",
         note=lambda r, self: int(r is not None))
    wrap(file_cache.FileCache, "get_file", "cache.get_file",
         note=lambda r, self, path: int(r.from_cache))
    wrap(base.Cache, "put", "cache.put",
         note=lambda r, self, *a, **k: (self.stats.evictions, self.used))
    wrap(file_io.AsyncFileIO, "read_file", "file_io.read_file",
         read_file_request,
         lambda r, self, path, act=None, priority=0: id(act))
    wrap(events.CompletionEvent, "complete", "file_io.complete",
         complete_request, lambda r, self: id(self.token))
    wrap(buffers.BufferPool, "acquire", "buffers.acquire",
         note=lambda r, self, size: (self.stats.hits, self.stats.misses))

    load = cops_http.load_generated_package

    def load_and_wrap(dest, package):
        fw = load(dest, package)
        reactor = importlib.import_module(f"{package}.reactor")
        wrap(reactor.Reactor, "process_event", "processor.process_event",
             event_request, lambda r, self, event: event.event_id)
        comm_mod = importlib.import_module(f"{package}.communication")
        wrap(comm_mod.AcceptorEventHandler, "handle", "acceptor.handle")
        return fw

    cops_http.load_generated_package = load_and_wrap


# -- analysis (benchmark process) -------------------------------------------
def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its children cover (each
    child clipped to the parent's interval)."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for sid, _name, start, end, parent, _rid, _value in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _name, start, end, _parent, _rid, _value in spans:
        covered = union_length(
            (max(s, start), min(e, end)) for s, e in children.get(sid, ())
            if min(e, end) > max(s, start))
        out[sid] = (end - start) - covered
    return out


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _delta(values: Sequence[Tuple[float, object]], w0: float, w1: float,
           field: int) -> float:
    """Growth of a cumulative counter carried in span values over
    [w0, w1]: last reading by w1 minus last reading before w0."""
    before = [v[field] for t, v in values if t < w0]
    until = [v[field] for t, v in values if t <= w1]
    return (until[-1] if until else 0) - (before[-1] if before else 0)


def layer_metrics(spans: Sequence[Span], w0: float, w1: float,
                  served: int, service_s: float) -> Dict[str, float]:
    """Per-layer metrics over the spans that start inside [w0, w1].

    ``served`` is the number of verified responses the client counted
    in the window and ``service_s`` the sum of their issue-to-last-byte
    times."""
    # A call that raised has no value; only value-carrying names care.
    spans = sorted((s for s in spans if s[6] is not None or s[1] not in
                    _VALUED), key=lambda s: s[2])
    own = self_times(spans)
    named: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        if w0 <= span[2] <= w1:
            named[span[1]].append(span)
    has_child = {(s[4], s[1]) for s in spans if s[4] is not None}
    per_req = max(served, 1)

    def mean_self_us(name):
        return _mean([own[s[0]] for s in named[name]]) * 1e6

    submitted = {s[6][0]: s[2] for s in spans if s[1] == "processor.submit"}
    waits = sorted(s[2] - submitted[s[6]] for s in named[
        "processor.process_event"] if s[6] in submitted)
    sends = [s for s in named["handles.send"] if s[6][0] > 0]
    recvs = named["handles.recv"]
    polls = [s[6] for s in named["poller.poll"] if s[6]]
    accepts = sum(s[6] for s in named["acceptor.try_accept"])
    lookups = named["cache.get_file"]
    reads = named["file_io.read_file"]
    puts = [(s[2], s[6]) for s in spans if s[1] == "cache.put"]
    acquires = [(s[2], s[6]) for s in spans if s[1] == "buffers.acquire"]
    pool_hits = _delta(acquires, w0, w1, 0)
    pool_all = pool_hits + _delta(acquires, w0, w1, 1)

    issued_at: Dict[int, float] = {}
    completions = []
    for sid, name, start, _end, _parent, _rid, value in spans:
        if name == "file_io.read_file":
            issued_at[value] = start
        elif name == "file_io.complete" and value in issued_at:
            began = issued_at.pop(value)
            if w0 <= start <= w1:
                completions.append(start - began)

    first_recv: Dict[str, float] = {}
    reply_out: Dict[str, float] = {}
    for s in spans:
        if s[1] == "handles.recv" and s[6] > 0:
            first_recv.setdefault(s[5], s[2])
        elif s[1] == "handles.send" and s[6][0] > 0 and not s[6][1]:
            reply_out.setdefault(s[5], s[3])
    server = [reply_out[r] - t for r, t in first_recv.items()
              if w0 <= t <= w1 and r in reply_out]

    covered = sum(own[s[0]] for name, group in named.items()
                  if name not in WAIT_SPANS for s in group)
    held = [v[1] for t, v in puts if t <= w1]

    return {
        "processor.queue_wait_p50_us":
            percentile(waits, 50) * 1e6 if waits else 0.0,
        "processor.queue_wait_p99_us":
            percentile(waits, 99) * 1e6 if waits else 0.0,
        "processor.queue_depth_max":
            max((s[6][1] for s in named["processor.submit"]), default=0),
        "dispatcher.dispatch_us": mean_self_us("dispatcher.dispatch"),
        "poller.events_per_poll": _mean(polls),
        "event_source.poll_self_us": mean_self_us("event_source.poll"),
        "cops_http.split_us": mean_self_us("cops_http.split"),
        "cops_http.decode_us": mean_self_us("cops_http.decode"),
        "cops_http.handle_us": mean_self_us("cops_http.handle"),
        "cops_http.encode_us": mean_self_us("cops_http.encode"),
        "communicator.on_readable_us":
            mean_self_us("communicator.on_readable"),
        "communicator.complete_request_us":
            mean_self_us("communicator.complete_request"),
        "communicator.close_us": mean_self_us("communicator.close"),
        "handles.send_us": _mean([s[3] - s[2] for s in sends]) * 1e6,
        "acceptor.accepts_per_wakeup":
            accepts / len(named["acceptor.handle"])
            if named["acceptor.handle"] else 0.0,
        "acceptor.accept_us":
            sum(s[3] - s[2] for s in named["acceptor.handle"])
            / accepts * 1e6 if accepts else 0.0,
        "cache.hit_ratio": _mean([s[6] for s in lookups]),
        "cache.evictions_per_req": _delta(puts, w0, w1, 0) / per_req,
        "cache.get_file_us": mean_self_us("cache.get_file"),
        "file_io.inline_frac": _mean(
            [float((s[0], "cache.get_file") in has_child) for s in reads]),
        "file_io.completion_us": _mean(completions) * 1e6,
        "handles.partial_send_frac":
            _mean([float(s[6][1] > 0) for s in sends]),
        "handles.bytes_per_send": _mean([s[6][0] for s in sends]),
        "communicator.on_writable_per_req":
            len(named["communicator.on_writable"]) / per_req,
        "handles.recv_eagain_frac": _mean([float(s[6] < 0) for s in recvs]),
        "buffers.read_pool_hit_ratio":
            pool_hits / pool_all if pool_all else 0.0,
        "cache.bytes_held_mb": (held[-1] if held else 0) / 2**20,
        "trace.server_us": _mean(server) * 1e6,
        "trace.unaccounted_frac":
            1.0 - covered / service_s if service_s else 0.0,
    }
