"""Request-lifecycle spans.

A :class:`Span` follows one request through the generated five-step
cycle (Fig 1): the Communicator opens a span when a complete request is
framed, brackets the decode / handle / encode steps as *stages*, and
finishes the span when the reply is queued.  Stage timings land in the
registry's ``server_request_stage_seconds{stage=...}`` histogram and the
end-to-end time in ``server_request_seconds`` — which is what makes the
differentiated-service (Fig 5) and overload (Fig 6) behaviour readable
as latency timeseries.  The read/send socket steps are not per-request
(a recv may carry several pipelined requests), so the Communicator
records them directly via :meth:`SpanRecorder.observe`.

Stages nest: beginning a stage while another is open records the inner
one under a dotted path (``handle.cache``).  Spans are *not* re-entrant
across threads — per-connection replies are FIFO, so a span is only ever
touched by one thread at a time (the pipeline thread, then possibly the
completion thread that delivers a PENDING result).

Every span carries the connection's ``trace_id`` (allocated at accept
by :func:`repro.obs.tracing.next_trace_id` and stamped on the socket
handle), correlating it with the flight-recorder events of the same
request across shards.  Finished spans are handed to the recorder's
*exporter* (:mod:`repro.obs.tracing`) when one is wired in, and the
most recent ``(value, trace_id)`` pair per histogram series is kept as
an *exemplar* for the Prometheus exposition.

When O11=No the call sites either aren't generated at all (generated
frameworks) or hit :data:`NULL_SPANS` / :data:`NULL_SPAN` — no-op
singletons, never an ``if enabled`` branch.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.lint.locks import access, make_lock
from repro.obs.registry import DEFAULT_BUCKETS

__all__ = ["Span", "SpanRecorder", "NullSpan", "NullSpanRecorder",
           "NULL_SPAN", "NULL_SPANS"]


class Span:
    """One request's timing record; created by :class:`SpanRecorder`."""

    __slots__ = ("recorder", "name", "detail", "trace_id", "parent_id",
                 "start_time", "end_time", "stages", "_stack")

    def __init__(self, recorder: "SpanRecorder", name: str, detail: str = "",
                 trace_id: int = 0, parent_id: int = 0):
        self.recorder = recorder
        self.name = name
        self.detail = detail
        #: the connection's trace id (0 = untraced) and, for sub-spans,
        #: the id of the span this one hangs under
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.start_time = recorder.clock()
        self.end_time: Optional[float] = None
        #: completed stages as (dotted_path, start, end)
        self.stages: List[Tuple[str, float, float]] = []
        self._stack: List[Tuple[str, float]] = []

    # -- stage bracketing -----------------------------------------------
    def stage(self, name: str) -> "Span":
        """``with span.stage("decode"): ...`` — begins the stage now;
        the ``with`` exit ends it."""
        self.stage_begin(name)
        return self

    def stage_begin(self, name: str) -> None:
        self._stack.append((name, self.recorder.clock()))

    def stage_end(self) -> None:
        """End the innermost open stage (no-op when none is open)."""
        if not self._stack:
            return
        name, started = self._stack.pop()
        path = ".".join([n for n, _ in self._stack] + [name])
        self.stages.append((path, started, self.recorder.clock()))

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.stage_end()
        return False

    # -- completion -----------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.end_time is not None

    @property
    def duration(self) -> Optional[float]:
        if self.end_time is None:
            return None
        return self.end_time - self.start_time

    def finish(self) -> None:
        """Close any open stages, stamp the end time, and record the
        span into the recorder's histograms (idempotent)."""
        if self.end_time is not None:
            return
        while self._stack:
            self.stage_end()
        self.end_time = self.recorder.clock()
        self.recorder._record(self)


class SpanRecorder:
    """Factory for request spans; owns the latency histograms."""

    enabled = True

    def __init__(self, registry, tracer=None, clock=time.monotonic,
                 buckets=DEFAULT_BUCKETS, exporter=None):
        self.registry = registry
        #: O10 debug flight recorder that mirrors each finished span
        #: (None = no mirroring)
        self.tracer = tracer
        self.clock = clock
        self.exporter = exporter
        self._total = registry.histogram(
            "server_request_seconds",
            "End-to-end request latency (framed request -> reply queued)",
            buckets=buckets)
        self._stages = registry.histogram(
            "server_request_stage_seconds",
            "Per-stage request latency (read/decode/handle/encode/send)",
            labels=("stage",), buckets=buckets)
        #: (metric name, label items) -> (value, trace_id): the most
        #: recent traced observation per histogram series
        self._exemplars: Dict[Tuple[str, Tuple[Tuple[str, str], ...]],
                              Tuple[float, int]] = {}
        self._exemplar_lock = make_lock("span-exemplars")

    def start(self, name: str = "request", detail: str = "",
              trace_id: int = 0, parent_id: int = 0) -> Span:
        return Span(self, name, detail, trace_id=trace_id,
                    parent_id=parent_id)

    def observe(self, stage: str, seconds: float) -> None:
        """Record a stage sample outside any span (read/send socket work,
        which is per-chunk rather than per-request)."""
        self._stages.labels(stage=stage).observe(seconds)

    def stage_quantiles(self, quantiles=(0.50, 0.90, 0.99)) -> dict:
        """{stage: {q: estimate}} for every stage seen so far."""
        family = self.registry.get("server_request_stage_seconds")
        out = {}
        if family is None:
            return out
        for labels, hist in family.children():
            out[labels["stage"]] = {q: hist.quantile(q) for q in quantiles}
        return out

    def exemplars(self) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]],
                                Tuple[float, int]]:
        """A copy of the exemplar table, for the Prometheus renderer."""
        with self._exemplar_lock:
            access(self, "_exemplars", write=False)
            return dict(self._exemplars)

    def _record(self, span: Span) -> None:
        self._total.observe(span.duration)
        for path, started, ended in span.stages:
            self._stages.labels(stage=path).observe(ended - started)
        if span.trace_id:
            with self._exemplar_lock:
                access(self, "_exemplars")
                self._exemplars["server_request_seconds", ()] = (
                    span.duration, span.trace_id)
                for path, started, ended in span.stages:
                    self._exemplars[
                        "server_request_stage_seconds",
                        (("stage", path),)] = (ended - started, span.trace_id)
        if self.exporter is not None:
            self.exporter.export({
                "trace_id": span.trace_id,
                "parent_id": span.parent_id,
                "name": span.name,
                "detail": span.detail,
                "start": span.start_time,
                "end": span.end_time,
                "total": span.duration,
                "stages": [{"stage": path, "seconds": ended - started}
                           for path, started, ended in span.stages],
            })
        if self.tracer is not None:
            parts = " ".join(f"{path}={ended - started:.6f}"
                             for path, started, ended in span.stages)
            self.tracer.record(
                "span", f"{span.name} {span.detail} "
                        f"total={span.duration:.6f} {parts}".rstrip(),
                span.trace_id)


class NullSpan:
    """The O11=No span: every method is a pass, every context manager a
    no-op.  A singleton — allocation-free on the disabled path."""

    __slots__ = ()
    finished = True
    duration = None
    trace_id = 0
    parent_id = 0
    stages: List[Tuple[str, float, float]] = []

    def stage(self, name: str) -> "NullSpan":
        return self

    def stage_begin(self, name: str) -> None:
        pass

    def stage_end(self) -> None:
        pass

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def finish(self) -> None:
        pass


NULL_SPAN = NullSpan()


class NullSpanRecorder:
    """O11=No recorder: hands out the null span, absorbs observations."""

    enabled = False
    tracer = None
    exporter = None

    def start(self, name: str = "request", detail: str = "",
              trace_id: int = 0, parent_id: int = 0) -> NullSpan:
        return NULL_SPAN

    def observe(self, stage: str, seconds: float) -> None:
        pass

    def stage_quantiles(self, quantiles=(0.50, 0.90, 0.99)) -> dict:
        return {}

    def exemplars(self) -> dict:
        return {}


NULL_SPANS = NullSpanRecorder()
